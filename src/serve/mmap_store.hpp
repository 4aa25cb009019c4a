/// \file
/// Memory-mapped serving of a v3 sketch store.
///
/// SketchStore::read decodes the whole file into the heap payload — fine
/// for tooling, but a serving frontend that hosts many stores (or one store
/// much larger than RAM) wants the kernel's page cache to be the only
/// copy. MmapSketchStore maps the file read-only and answers queries
/// straight off the encoded bytes:
///
///   - open() eagerly trusts only the 64-byte header (magic + FNV-1a
///     header checksum) and the segment *framing*: meta words, the
///     page-aligned byte-offset tables (checked monotone, [0] == 0,
///     [n] == blob_bytes), and that every section fits the mapping.
///     That touches O(n) offset-table pages but zero blob pages.
///   - The blob is validated lazily: every per-query decode is
///     bounds-checked against the record slice (see label_codec), so a
///     corrupt blob yields kInfDist answers, never an out-of-bounds
///     read. Pass verify_checksum=true to pay one full payload pass up
///     front instead.
///   - Queries never materialize a record: tz is two header parses plus
///     one scan of each bunch stream (probing all k pivot ids per
///     entry), slack is a lockstep scan of the two varint rows, cdg
///     adds a 3-varint prefix decode. Answers are bit-identical to the
///     heap SketchStore on the same file (tested).
///
/// First touch of a record's page is a major/minor page fault (the
/// "cold" cost E7 reports); repeated touches run at memory speed
/// ("warm"). drop_pages() releases the resident pages so a bench can
/// re-measure fault-in without reopening.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "serve/sketch_store.hpp"

namespace dsketch {

class MmapSketchStore final : public DistanceOracle {
 public:
  /// Maps `path` (a v3 store; v1/v2 files throw kUnsupportedVersion —
  /// convert via SketchStore::save_file). Throws StoreCorruptionError on
  /// a bad header or broken framing, and — with verify_checksum — on a
  /// payload checksum mismatch.
  static std::unique_ptr<MmapSketchStore> open(const std::string& path,
                                               bool verify_checksum = false);

  ~MmapSketchStore() override;
  MmapSketchStore(const MmapSketchStore&) = delete;
  MmapSketchStore& operator=(const MmapSketchStore&) = delete;

  /// Streaming query over the encoded records; thread-safe (the scratch
  /// is thread-local). Malformed records answer kInfDist.
  Dist query(NodeId u, NodeId v) const override;

  NodeId num_nodes() const override { return n_; }
  /// Word-model size of node u's records — SketchPayload::size_words,
  /// the formula the heap store and the oracle report, decoded from the
  /// record headers (encoded_bytes_for is the on-disk number).
  std::size_t size_words(NodeId u) const override;
  std::string scheme() const override;
  std::string guarantee() const override;
  /// Heap-store capabilities minus save: the mapping is already the
  /// persistent form.
  Capabilities capabilities() const override;

  Scheme store_scheme() const { return scheme_; }
  std::uint32_t k() const { return k_; }
  double epsilon() const { return epsilon_; }
  bool epsilon_known() const { return epsilon_known_; }
  std::size_t num_segments() const { return segments_.size(); }
  /// Bytes mapped (the whole file).
  std::size_t mapped_bytes() const { return map_len_; }
  /// Encoded bytes of node u's records on disk, summed across segments.
  std::size_t encoded_bytes_for(NodeId u) const;

  /// Releases the resident pages of the mapping (madvise MADV_DONTNEED):
  /// the next query faults them back in. Benches use this to re-measure
  /// cold (fault-in) latency without reopening the file.
  void drop_pages() const;

 private:
  MmapSketchStore() = default;

  struct MSeg {
    std::vector<std::uint64_t> meta;
    const std::uint8_t* offsets = nullptr;  ///< n+1 little-endian u64s
    const std::uint8_t* blob = nullptr;
    std::uint64_t blob_bytes = 0;
  };

  std::uint64_t off(const MSeg& seg, NodeId i) const;
  Dist query_cdg_segment(const MSeg& seg, NodeId u, NodeId v) const;

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  Scheme scheme_ = Scheme::kThorupZwick;
  NodeId n_ = 0;
  std::uint32_t k_ = 0;
  double epsilon_ = 0.0;
  bool epsilon_known_ = true;
  std::vector<MSeg> segments_;
};

}  // namespace dsketch
