/// \file
/// Binary sketch store — the serving-tier representation.
///
/// The paper's deployment story (§1) is build-once / query-many: the
/// expensive distributed construction runs offline, and the resulting
/// sketches are shipped to query frontends. A SketchStore holds exactly
/// the payload a SketchOracle holds (core/sketch_oracle's SketchPayload:
/// a LabelArena for tz, the Slack/Cdg/GracefulSketchSet otherwise) and
/// answers through the same SketchPayload::query, so a store and the
/// oracle it came from answer bit-identically by construction. Its
/// persistent form is the v3 file below; serve/mmap_store serves the
/// same file in place.
///
/// On-disk layout (little-endian):
///   bytes 0..7   magic "DSKSTOR3"  (v1 "DSKSTOR1" / v2 "DSKSTOR2" files
///                                   are read-only: load, convert, recover)
///   u32 version, u32 scheme, u32 n, u32 k, u32 segments, u32 flags
///   f64 epsilon                       (flags bit 0: epsilon was recorded)
///   u64 payload_bytes, u64 checksum (FNV-1a 64 over the payload)
///   u64 header_checksum             (v2/v3: FNV-1a 64 over the 48
///                                    header bytes after the magic)
///   v3 payload (starts at file offset 64): per segment
///            u64 meta_count, u64 meta[], u64 blob_bytes,
///            zero pad to the next 4096-byte file boundary,
///            u64 offsets[n+1] (BYTE offsets into the blob; offsets[0]=0,
///            offsets[n]=blob_bytes), pad to 4096,
///            u8 blob[blob_bytes] (delta+varint records, see
///            serve/label_codec.hpp), pad to 4096
///   Segments: one for tz/slack/cdg, one per epsilon level for graceful;
///   slack's meta is [|net|, net ids...], the other schemes have none.
///   The v3 pads are inside the payload checksum. Page-aligning the
///   offset table and the blob is what lets serve/mmap_store map the
///   file and serve queries straight off the encoded bytes.
///   v1/v2 payload (legacy, read-only): per segment u64 meta_count,
///            u64 meta[], u64 offsets[n+1] (u32-word units), u64
///            arena_count, u32 arena[] of fixed-width word records
///            (D = 2-word little-endian distance):
///              tz     [levels, count, (pivot_id, D) x levels,
///                      (node, level, D) x count sorted by node]
///              slack  [D x |net|]
///              cdg    [net_node, D, owner, <tz record of L(owner)>]
///
/// Durability: save_file writes a temp file of its own, fsyncs, then
/// renames into place, so neither a crash mid-save nor a concurrent save
/// to the same path ever leaves a torn store at the target path. Loads
/// bounds-check every section and decode every record before trusting
/// it, and throw StoreCorruptionError (a std::runtime_error) with a typed
/// diagnosis; recover_file salvages the intact node records of a corrupt
/// file. A tz record must carry the store's k levels; the one exception
/// is the empty (0 levels, 0 entries) record older builds wrote for a
/// quarantined node, which loads as k invalid pivots and no entries.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/sketch_oracle.hpp"
#include "graph/graph.hpp"

namespace dsketch {
namespace store_format {
struct StoreHeader;
}  // namespace store_format

/// What exactly a store load found wrong. Ordered roughly by how early in
/// the pipeline the fault is detected.
enum class StoreError {
  kIo,                  ///< file missing / unreadable / write failure
  kBadMagic,            ///< not a sketch store at all
  kTruncatedHeader,     ///< file ends inside the fixed header
  kHeaderChecksum,      ///< v2 header checksum mismatch (bit-flipped header)
  kUnsupportedVersion,  ///< version this build cannot parse
  kUnknownScheme,       ///< scheme tag outside the known families
  kTruncatedPayload,    ///< file ends inside the payload
  kPayloadChecksum,     ///< payload bytes fail the FNV-1a checksum
  kStructure,           ///< framing/record invariants violated
};

/// Thrown by read/load_file/recover_file. Subclasses std::runtime_error so
/// existing catch sites keep working; new callers can switch on kind().
class StoreCorruptionError : public std::runtime_error {
 public:
  StoreCorruptionError(StoreError kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  StoreError kind() const { return kind_; }

 private:
  StoreError kind_;
};

/// The on-disk encoding write() emits: v3, the delta+varint page-aligned
/// format mmap serving needs. Reads sniff the version from the magic and
/// also accept the legacy v1/v2 word formats.
enum class StoreFormat { kV3 = 3 };

/// Checksummed, query-ready sketches for all four schemes. A SketchStore
/// is itself a DistanceOracle — the serving-tier representation of one —
/// so anything that takes an oracle (the query service, evaluate_stretch,
/// the benches) serves straight from it.
class SketchStore final : public DistanceOracle {
 public:
  /// An empty store (no nodes); fill via from_oracle/read.
  SketchStore() = default;

  /// Copies a sketch-backed oracle's payload (a SketchOracle's, or a
  /// TzLabelOracle's label arena). Throws std::runtime_error for oracles
  /// without a store representation (the baselines).
  static SketchStore from_oracle(const DistanceOracle& oracle);

  /// Whether from_oracle(oracle) would succeed — the one predicate the
  /// CLI and examples share to decide packed vs envelope shipping.
  static bool packable(const DistanceOracle& oracle);

  /// Binary round trip. read()/load_file() validate magic, version,
  /// header checksum (v2/v3), structural sizes, the payload checksum and
  /// every record, throwing StoreCorruptionError on any mismatch.
  /// save_file is atomic: temp file + fsync + rename, so readers of
  /// `path` see either the old complete store or the new complete store,
  /// never a torn write. Both write v3.
  void write(std::ostream& out, StoreFormat format = StoreFormat::kV3) const;
  static SketchStore read(std::istream& in);
  void save_file(const std::string& path) const;
  static SketchStore load_file(const std::string& path);

  /// Best-effort salvage of a corrupt store file. Parses the framing with
  /// every bounds check but without requiring the payload checksum, then
  /// validates each node record individually: structurally intact records
  /// are kept, broken ones are quarantined — replaced by an empty record
  /// whose queries answer kInfDist (a safe "don't know", never a wrong
  /// finite distance). Throws StoreCorruptionError when the header or the
  /// segment framing itself is unrecoverable. Caveat: a bit flip *inside*
  /// a structurally valid record is not detectable at record granularity;
  /// only the whole-payload checksum (the normal load path) proves full
  /// integrity.
  struct Recovery;  // defined below (needs the complete SketchStore type)
  static Recovery recover_file(const std::string& path);

  /// Binary load straight to the polymorphic interface — what a serving
  /// frontend hands to its QueryService.
  static std::unique_ptr<DistanceOracle> load_oracle(const std::string& path);

  /// Distance estimate from the two sketches only (SketchPayload::query);
  /// allocation-free and safe to call concurrently from any number of
  /// threads.
  Dist query(NodeId u, NodeId v) const override;

  /// The oracle word model for node u (SketchPayload::size_words): the
  /// same number the oracle the store came from reports.
  std::size_t size_words(NodeId u) const override;
  /// Registry name of the stored family ("tz", "slack", ...).
  std::string scheme() const override {
    return scheme_name(payload_.scheme);
  }
  /// Worst-case guarantee with the recorded k/epsilon filled in.
  std::string guarantee() const override;
  /// Capabilities of the stored family (no build cost: it was paid by
  /// whoever built; no text save: write()/save_file() persist a store).
  Capabilities capabilities() const override;

  /// The sketch family the store holds.
  Scheme store_scheme() const { return payload_.scheme; }
  /// Nodes covered (valid query ids are [0, n)).
  NodeId num_nodes() const override { return n_; }
  /// The TZ/CDG hierarchy depth recorded at build time.
  std::uint32_t k() const { return k_; }
  /// The slack/CDG epsilon recorded at build time (see epsilon_known()).
  double epsilon() const { return epsilon_; }
  /// False when the sketch came from a pre-epsilon text file: epsilon()
  /// is then a default, not the recorded build value, and write() keeps
  /// the flag clear to preserve that provenance.
  bool epsilon_known() const { return epsilon_known_; }
  /// Segments (1 for tz/slack/cdg; one per level for graceful).
  std::size_t num_segments() const;

  /// Resident bytes of the in-memory payload
  /// (SketchPayload::resident_bytes).
  std::size_t payload_bytes() const;

  /// The v3 (delta+varint) payload size in bytes, including the
  /// page-alignment padding — what `save_file` actually puts on disk
  /// past the 64-byte header.
  std::size_t encoded_bytes() const;

  /// v3-encoded bytes of node u's records, summed across segments — the
  /// per-node serving footprint without file framing or padding, next
  /// to the word model's count (size_words).
  std::size_t encoded_record_bytes(NodeId u) const;

 private:
  void encode_record(std::size_t segment, NodeId u,
                     std::vector<std::uint8_t>& out) const;
  std::vector<std::uint8_t> build_v3_payload() const;
  /// Takes the header's identity and decodes every segment of `body`;
  /// `quarantined` null means strict (any bad record throws), else bad
  /// records are flagged there and replaced by kInfDist-answering ones.
  void decode_payload(const store_format::StoreHeader& hdr,
                      const std::vector<std::uint8_t>& body,
                      std::vector<char>* quarantined);

  NodeId n_ = 0;
  std::uint32_t k_ = 0;
  double epsilon_ = 0.0;
  bool epsilon_known_ = true;
  SketchPayload payload_;
};

/// Result of SketchStore::recover_file — see its doc comment.
struct SketchStore::Recovery {
  SketchStore store;
  std::vector<NodeId> quarantined;  ///< nodes whose records were replaced
  bool checksum_ok = false;  ///< the file was actually fine (no salvage)
};

}  // namespace dsketch
