#include "serve/mmap_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "core/sketch_oracle.hpp"
#include "obs/trace.hpp"
#include "serve/label_codec.hpp"
#include "serve/store_format.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

namespace sf = store_format;

[[noreturn]] void fail(StoreError kind, const std::string& what) {
  throw StoreCorruptionError(kind, "sketch store: " + what);
}

// Query scratch is thread-local so query() stays allocation-free after
// warmup and safe for concurrent callers (each thread owns its buffers).
V3QueryScratch& scratch() {
  thread_local V3QueryScratch s;
  return s;
}

std::vector<DistKey>& pivot_scratch() {
  thread_local std::vector<DistKey> s;
  return s;
}

/// Word-model size of one encoded tz record (LabelView::size_words);
/// 0 when the slice is malformed.
std::size_t tz_record_words(const std::uint8_t* begin,
                            const std::uint8_t* end) {
  std::vector<DistKey>& pivots = pivot_scratch();
  pivots.clear();
  const V3TzHeader h = v3_parse_tz_header(begin, end, pivots);
  if (!h.ok) return 0;
  return 2 * static_cast<std::size_t>(h.levels) +
         2 * static_cast<std::size_t>(h.count);
}

}  // namespace

std::unique_ptr<MmapSketchStore> MmapSketchStore::open(const std::string& path,
                                                       bool verify_checksum) {
  const obs::Span span("store_mmap_open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(StoreError::kIo, "cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(StoreError::kIo, "cannot stat: " + path);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  if (len < sf::kPayloadStart) {
    ::close(fd);
    fail(StoreError::kTruncatedHeader, "truncated header");
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) fail(StoreError::kIo, "mmap failed: " + path);

  std::unique_ptr<MmapSketchStore> store(new MmapSketchStore());
  store->map_ = base;
  store->map_len_ = len;
  const auto* data = static_cast<const std::uint8_t*>(base);

  // The destructor unmaps, so from here a parse failure cleans up by
  // letting `store` die.
  const sf::StoreHeader hdr = sf::parse_v3_header(data, len);
  store->scheme_ = static_cast<Scheme>(hdr.scheme_raw);
  store->n_ = hdr.n;
  store->k_ = hdr.k;
  store->epsilon_ = hdr.epsilon;
  store->epsilon_known_ = hdr.epsilon_known;

  if (len - sf::kPayloadStart < hdr.payload_size) {
    fail(StoreError::kTruncatedPayload, "truncated payload");
  }
  const std::uint8_t* payload = data + sf::kPayloadStart;
  if (verify_checksum &&
      sf::fnv1a64(payload, hdr.payload_size) != hdr.checksum) {
    fail(StoreError::kPayloadChecksum, "checksum mismatch");
  }

  // Framing walk: everything except the blob bytes is validated here.
  std::uint64_t pos = 0;
  const auto need = [&](std::uint64_t bytes) {
    if (hdr.payload_size - pos < bytes) {
      fail(StoreError::kTruncatedPayload, "truncated payload");
    }
  };
  store->segments_.reserve(hdr.segment_count);
  for (std::uint32_t s = 0; s < hdr.segment_count; ++s) {
    MSeg seg;
    need(8);
    const std::uint64_t meta_count = sf::load_u64(payload + pos);
    pos += 8;
    if (meta_count > (hdr.payload_size - pos) / 8) {
      fail(StoreError::kStructure, "corrupt meta count");
    }
    seg.meta.reserve(meta_count);
    for (std::uint64_t i = 0; i < meta_count; ++i) {
      seg.meta.push_back(sf::load_u64(payload + pos));
      pos += 8;
    }
    if (store->scheme_ == Scheme::kSlack) {
      if (seg.meta.empty() || seg.meta[0] + 1 != seg.meta.size()) {
        fail(StoreError::kStructure, "slack net meta size mismatch");
      }
    } else if (!seg.meta.empty()) {
      fail(StoreError::kStructure, "unexpected segment meta");
    }
    need(8);
    seg.blob_bytes = sf::load_u64(payload + pos);
    pos += 8;
    pos += sf::v3_pad(pos);  // need() below catches running off the end
    const std::uint64_t offsets_bytes =
        8 * (static_cast<std::uint64_t>(store->n_) + 1);
    need(offsets_bytes);
    seg.offsets = payload + pos;
    std::uint64_t prev = sf::load_u64(seg.offsets);
    if (prev != 0) fail(StoreError::kStructure, "blob offset mismatch");
    for (NodeId i = 1; i <= store->n_; ++i) {
      const std::uint64_t o = sf::load_u64(seg.offsets + 8 * i);
      if (o < prev) fail(StoreError::kStructure, "offsets not monotone");
      prev = o;
    }
    if (prev != seg.blob_bytes) {
      fail(StoreError::kStructure, "blob offset mismatch");
    }
    pos += offsets_bytes;
    pos += sf::v3_pad(pos);
    need(seg.blob_bytes);
    seg.blob = payload + pos;
    pos += seg.blob_bytes;
    pos += sf::v3_pad(pos);
    if (pos > hdr.payload_size) {
      fail(StoreError::kTruncatedPayload, "truncated payload");
    }
    store->segments_.push_back(std::move(seg));
  }
  if (pos != hdr.payload_size) {
    fail(StoreError::kStructure, "trailing payload bytes");
  }
  if (store->segments_.empty()) fail(StoreError::kStructure, "no segments");
  return store;
}

MmapSketchStore::~MmapSketchStore() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

std::uint64_t MmapSketchStore::off(const MSeg& seg, NodeId i) const {
  return sf::load_u64(seg.offsets + 8 * static_cast<std::size_t>(i));
}

Dist MmapSketchStore::query_cdg_segment(const MSeg& seg, NodeId u,
                                        NodeId v) const {
  const std::uint8_t* ub = seg.blob + off(seg, u);
  const std::uint8_t* ue = seg.blob + off(seg, u + 1);
  const std::uint8_t* vb = seg.blob + off(seg, v);
  const std::uint8_t* ve = seg.blob + off(seg, v + 1);
  const V3CdgPrefix pu = v3_parse_cdg_prefix(ub, ue);
  const V3CdgPrefix pv = v3_parse_cdg_prefix(vb, ve);
  if (!pu.ok || !pv.ok) return kInfDist;
  // Mirror of CdgSketchSet::query: an infinite net distance (unreachable
  // net node, or a quarantined record) must not flow into the sum — it
  // would wrap around.
  if (pu.net_dist == kInfDist || pv.net_dist == kInfDist) return kInfDist;
  const Dist mid = pu.owner == pv.owner
                       ? 0
                       : v3_tz_query(pu.rest, ue, pv.rest, ve, scratch());
  if (mid == kInfDist) return kInfDist;
  return pu.net_dist + mid + pv.net_dist;
}

Dist MmapSketchStore::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  if (u == v) return 0;
  switch (scheme_) {
    case Scheme::kThorupZwick: {
      const MSeg& seg = segments_[0];
      return v3_tz_query(seg.blob + off(seg, u), seg.blob + off(seg, u + 1),
                         seg.blob + off(seg, v), seg.blob + off(seg, v + 1),
                         scratch());
    }
    case Scheme::kSlack: {
      // Lockstep scan of the two varint rows — same arithmetic as the
      // heap store's fixed-width loop.
      const MSeg& seg = segments_[0];
      const std::uint64_t net_size = seg.meta[0];
      VarintReader ru(seg.blob + off(seg, u), seg.blob + off(seg, u + 1));
      VarintReader rv(seg.blob + off(seg, v), seg.blob + off(seg, v + 1));
      Dist best = kInfDist;
      for (std::uint64_t i = 0; i < net_size; ++i) {
        const std::uint64_t a = ru.get();
        const std::uint64_t b = rv.get();
        if (!ru.ok || !rv.ok) return kInfDist;
        if (a == 0 || b == 0) continue;  // 0 encodes kInfDist
        best = std::min(best, (a - 1) + (b - 1));
      }
      return best;
    }
    case Scheme::kCdg:
      return query_cdg_segment(segments_[0], u, v);
    case Scheme::kGraceful: {
      Dist best = kInfDist;
      for (const MSeg& seg : segments_) {
        best = std::min(best, query_cdg_segment(seg, u, v));
      }
      return best;
    }
  }
  return kInfDist;
}

std::size_t MmapSketchStore::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  std::size_t words = 0;
  for (const MSeg& seg : segments_) {
    const std::uint8_t* begin = seg.blob + off(seg, u);
    const std::uint8_t* end = seg.blob + off(seg, u + 1);
    switch (scheme_) {
      case Scheme::kThorupZwick:
        words += tz_record_words(begin, end);
        break;
      case Scheme::kSlack:
        words += 2 * static_cast<std::size_t>(seg.meta[0]);
        break;
      case Scheme::kCdg:
      case Scheme::kGraceful: {
        const V3CdgPrefix p = v3_parse_cdg_prefix(begin, end);
        if (p.ok) {
          words += 2 + tz_record_words(p.rest, end);
        }
        break;
      }
    }
  }
  return words;
}

std::size_t MmapSketchStore::encoded_bytes_for(NodeId u) const {
  DS_CHECK(u < n_);
  std::size_t bytes = 0;
  for (const MSeg& seg : segments_) {
    bytes += static_cast<std::size_t>(off(seg, u + 1) - off(seg, u));
  }
  return bytes;
}

std::string MmapSketchStore::scheme() const { return scheme_name(scheme_); }

std::string MmapSketchStore::guarantee() const {
  return sketch_guarantee(scheme_, k_, epsilon_);
}

Capabilities MmapSketchStore::capabilities() const {
  Capabilities caps = sketch_capabilities(scheme_, k_);
  caps.build_cost_available = false;
  // No save path: the mapped file IS the persistent form; loading it
  // into a heap store (SketchStore::load_file) and calling save_file is
  // the re-encoding route.
  caps.supports_save = false;
  return caps;
}

void MmapSketchStore::drop_pages() const {
  if (map_ != nullptr) ::madvise(map_, map_len_, MADV_DONTNEED);
}

}  // namespace dsketch
