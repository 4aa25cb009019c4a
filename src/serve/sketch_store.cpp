#include "serve/sketch_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/sketch_oracle.hpp"
#include "dynamics/incremental.hpp"
#include "obs/trace.hpp"
#include "serve/label_codec.hpp"
#include "serve/packed_record.hpp"
#include "serve/store_format.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

namespace sf = store_format;

using packed::kCdgPrefixWords;
using packed::pack_dist;
using packed::PackedLabel;
using packed::packed_tz_query;
using packed::read_dist;

[[noreturn]] void fail(StoreError kind, const std::string& what) {
  throw StoreCorruptionError(kind, "sketch store: " + what);
}

// ---- little-endian byte packing --------------------------------------------

class ByteWriter {
 public:
  void u32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((x >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((x >> (8 * i)) & 0xff);
  }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    u64(bits);
  }
  void raw(const std::vector<std::uint8_t>& data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  /// Zero-pads a v3 payload to the next page-aligned file position.
  void pad_page() {
    bytes_.insert(bytes_.end(), sf::v3_pad(bytes_.size()), 0);
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) {
      x |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return x;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return x;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
  }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }
  void skip_at_most(std::size_t n) { pos_ += std::min(n, remaining()); }
  const std::uint8_t* ptr() const { return data_ + pos_; }
  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) fail(StoreError::kTruncatedPayload, "truncated payload");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- packed record layout --------------------------------------------------
// (layout constants and in-place views live in serve/packed_record.hpp)

void pack_label(std::vector<std::uint32_t>& arena, const LabelView& label) {
  arena.push_back(label.levels);
  arena.push_back(label.count);
  for (std::uint32_t i = 0; i < label.levels; ++i) {
    arena.push_back(label.pivot(i).id);
    pack_dist(arena, label.pivot(i).dist);
  }
  // The arena's canonical bunch order is already (node, level) — the
  // packed record copies it straight through, so membership tests
  // binary-search without a re-sort here.
  for (std::uint32_t j = 0; j < label.count; ++j) {
    const BunchEntry& e = label.bunch[j];
    arena.push_back(e.node);
    arena.push_back(e.level);
    pack_dist(arena, e.dist);
  }
}

}  // namespace

// ---- packing from built sketches -------------------------------------------

bool SketchStore::packable(const DistanceOracle& oracle) {
  return dynamic_cast<const SketchStore*>(&oracle) != nullptr ||
         dynamic_cast<const SketchOracle*>(&oracle) != nullptr ||
         dynamic_cast<const TzLabelOracle*>(&oracle) != nullptr;
}

SketchStore SketchStore::from_oracle(const DistanceOracle& oracle) {
  const obs::Span span("store_from_oracle");
  // Re-packing a store is a copy: it already is the packed representation.
  if (const auto* packed_store = dynamic_cast<const SketchStore*>(&oracle)) {
    return *packed_store;
  }
  // A bare TZ label arena (distributed build, dynamic-sketch snapshot)
  // packs through the same segment layout as a tz-scheme SketchOracle; it
  // carries no recorded epsilon.
  if (const auto* tz = dynamic_cast<const TzLabelOracle*>(&oracle)) {
    SketchStore store;
    store.scheme_ = Scheme::kThorupZwick;
    store.k_ = tz->k();
    store.epsilon_known_ = false;
    store.n_ = tz->num_nodes();
    Segment seg;
    seg.offsets.reserve(store.n_ + 1);
    for (NodeId u = 0; u < store.n_; ++u) {
      seg.offsets.push_back(seg.arena.size());
      pack_label(seg.arena, tz->labels().view(u));
    }
    seg.offsets.push_back(seg.arena.size());
    store.segments_.push_back(std::move(seg));
    return store;
  }
  const auto* sketch = dynamic_cast<const SketchOracle*>(&oracle);
  if (sketch == nullptr) {
    throw std::runtime_error("oracle scheme '" + oracle.scheme() +
                             "' has no packed store representation");
  }

  SketchStore store;
  store.scheme_ = sketch->config().scheme;
  store.k_ = sketch->config().k;
  store.epsilon_ = sketch->config().epsilon;
  // Sketches loaded from pre-epsilon envelopes carry a default, not the
  // build value; the store must not launder it into a recorded one.
  store.epsilon_known_ = sketch->epsilon_recorded_;

  const auto pack_cdg = [](const CdgSketchSet& set, NodeId n) {
    SketchStore::Segment seg;
    seg.offsets.reserve(n + 1);
    for (NodeId u = 0; u < n; ++u) {
      seg.offsets.push_back(seg.arena.size());
      const auto& s = set.sketch(u);
      seg.arena.push_back(s.net_node);
      pack_dist(seg.arena, s.net_dist);
      seg.arena.push_back(s.label.owner());
      pack_label(seg.arena, s.label.view());
    }
    seg.offsets.push_back(seg.arena.size());
    return seg;
  };

  switch (store.scheme_) {
    case Scheme::kThorupZwick: {
      const LabelArena& labels = sketch->tz_labels_;
      store.n_ = labels.num_nodes();
      Segment seg;
      seg.offsets.reserve(store.n_ + 1);
      for (NodeId u = 0; u < store.n_; ++u) {
        seg.offsets.push_back(seg.arena.size());
        pack_label(seg.arena, labels.view(u));
      }
      seg.offsets.push_back(seg.arena.size());
      store.segments_.push_back(std::move(seg));
      break;
    }
    case Scheme::kSlack: {
      const SlackSketchSet& set = sketch->slack_;
      store.n_ = sketch->num_nodes();
      Segment seg;
      seg.meta.push_back(set.net().size());
      for (const NodeId w : set.net()) seg.meta.push_back(w);
      seg.offsets.reserve(store.n_ + 1);
      for (NodeId u = 0; u < store.n_; ++u) {
        seg.offsets.push_back(seg.arena.size());
        for (std::size_t i = 0; i < set.net().size(); ++i) {
          pack_dist(seg.arena, set.net_dist(u, i));
        }
      }
      seg.offsets.push_back(seg.arena.size());
      store.segments_.push_back(std::move(seg));
      break;
    }
    case Scheme::kCdg: {
      store.n_ = sketch->num_nodes();
      store.segments_.push_back(pack_cdg(sketch->cdg_, store.n_));
      break;
    }
    case Scheme::kGraceful: {
      store.n_ = sketch->num_nodes();
      const GracefulSketchSet& set = sketch->graceful_;
      for (std::size_t i = 0; i < set.num_levels(); ++i) {
        store.segments_.push_back(pack_cdg(set.level(i), store.n_));
      }
      break;
    }
  }
  return store;
}

// ---- queries ----------------------------------------------------------------

Dist SketchStore::query_segment(const Segment& seg, NodeId u, NodeId v) const {
  // CDG estimate: d(u,u') + tz(L(u'), L(v')) + d(v',v), mirroring
  // CdgSketchSet::query (including the owner short-circuit inside tz_query).
  const std::uint32_t* ru = seg.arena.data() + seg.offsets[u];
  const std::uint32_t* rv = seg.arena.data() + seg.offsets[v];
  const Dist du = read_dist(ru + 1);
  const Dist dv = read_dist(rv + 1);
  // An infinite net distance (unreachable net node, or a quarantined
  // record) must not flow into the sum below — it would wrap around.
  if (du == kInfDist || dv == kInfDist) return kInfDist;
  const NodeId owner_u = ru[3];
  const NodeId owner_v = rv[3];
  const PackedLabel lu{ru + kCdgPrefixWords};
  const PackedLabel lv{rv + kCdgPrefixWords};
  const Dist mid = owner_u == owner_v ? 0 : packed_tz_query(lu, lv);
  if (mid == kInfDist) return kInfDist;
  return du + mid + dv;
}

Dist SketchStore::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  if (u == v) return 0;
  switch (scheme_) {
    case Scheme::kThorupZwick: {
      const Segment& seg = segments_[0];
      const PackedLabel lu{seg.arena.data() + seg.offsets[u]};
      const PackedLabel lv{seg.arena.data() + seg.offsets[v]};
      return packed_tz_query(lu, lv);
    }
    case Scheme::kSlack: {
      const Segment& seg = segments_[0];
      const std::size_t net_size = static_cast<std::size_t>(seg.meta[0]);
      const std::uint32_t* du = seg.arena.data() + seg.offsets[u];
      const std::uint32_t* dv = seg.arena.data() + seg.offsets[v];
      Dist best = kInfDist;
      for (std::size_t i = 0; i < net_size; ++i) {
        const Dist a = read_dist(du + 2 * i);
        const Dist b = read_dist(dv + 2 * i);
        if (a == kInfDist || b == kInfDist) continue;
        best = std::min(best, a + b);
      }
      return best;
    }
    case Scheme::kCdg:
      return query_segment(segments_[0], u, v);
    case Scheme::kGraceful: {
      Dist best = kInfDist;
      for (const Segment& seg : segments_) {
        best = std::min(best, query_segment(seg, u, v));
      }
      return best;
    }
  }
  return kInfDist;
}

std::size_t SketchStore::payload_bytes() const {
  std::size_t bytes = 0;
  for (const Segment& seg : segments_) {
    bytes += 8 * (1 + seg.meta.size());     // meta_count + meta
    bytes += 8 * (1 + seg.offsets.size());  // offsets_count + offsets
    bytes += 8 + 4 * seg.arena.size();      // arena_count + arena
  }
  return bytes;
}

std::size_t SketchStore::encoded_bytes() const {
  return build_v3_payload().size();
}

std::size_t SketchStore::encoded_record_bytes(NodeId u) const {
  DS_CHECK(u < n_);
  std::vector<std::uint8_t> bytes;
  for (const Segment& seg : segments_) {
    encode_record_v3(scheme_, seg.arena.data() + seg.offsets[u],
                     seg.offsets[u + 1] - seg.offsets[u],
                     scheme_ == Scheme::kSlack ? seg.meta[0] : 0, bytes);
  }
  return bytes.size();
}

std::size_t SketchStore::node_record_words(NodeId u) const {
  DS_CHECK(u < n_ && !segments_.empty());
  const Segment& seg = segments_[0];
  return static_cast<std::size_t>(seg.offsets[u + 1] - seg.offsets[u]);
}

std::size_t SketchStore::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  std::size_t words = 0;
  for (const Segment& seg : segments_) {
    words += static_cast<std::size_t>(seg.offsets[u + 1] - seg.offsets[u]);
  }
  return words;
}

std::string SketchStore::guarantee() const {
  return sketch_guarantee(scheme_, k_, epsilon_);
}

Capabilities SketchStore::capabilities() const {
  Capabilities caps = sketch_capabilities(scheme_, k_);
  // The CONGEST cost was paid by whoever built; a packed store never
  // carries it. Its persistent form is the binary store (save_file), not
  // the text envelope.
  caps.build_cost_available = false;
  caps.supports_save = false;
  return caps;
}

// ---- binary round trip ------------------------------------------------------

std::vector<std::uint8_t> SketchStore::build_v2_payload() const {
  ByteWriter payload;
  for (const Segment& seg : segments_) {
    payload.u64(seg.meta.size());
    for (const std::uint64_t m : seg.meta) payload.u64(m);
    payload.u64(seg.offsets.size());
    for (const std::uint64_t o : seg.offsets) payload.u64(o);
    payload.u64(seg.arena.size());
    for (const std::uint32_t w : seg.arena) payload.u32(w);
  }
  return payload.take();
}

std::vector<std::uint8_t> SketchStore::build_v3_payload() const {
  ByteWriter payload;
  for (const Segment& seg : segments_) {
    payload.u64(seg.meta.size());
    for (const std::uint64_t m : seg.meta) payload.u64(m);
    const std::uint64_t slack_net =
        scheme_ == Scheme::kSlack ? seg.meta[0] : 0;
    std::vector<std::uint8_t> blob;
    std::vector<std::uint64_t> byte_offsets;
    byte_offsets.reserve(n_ + 1);
    byte_offsets.push_back(0);
    for (NodeId u = 0; u < n_; ++u) {
      encode_record_v3(scheme_, seg.arena.data() + seg.offsets[u],
                       seg.offsets[u + 1] - seg.offsets[u], slack_net, blob);
      byte_offsets.push_back(blob.size());
    }
    payload.u64(blob.size());
    payload.pad_page();
    for (const std::uint64_t o : byte_offsets) payload.u64(o);
    payload.pad_page();
    payload.raw(blob);
    payload.pad_page();
  }
  return payload.take();
}

void SketchStore::write(std::ostream& out, StoreFormat format) const {
  const obs::Span span("store_write");
  const bool v3 = format == StoreFormat::kV3;
  const std::vector<std::uint8_t> body =
      v3 ? build_v3_payload() : build_v2_payload();

  out.write(v3 ? sf::kMagicV3 : sf::kMagicV2, 8);
  ByteWriter h;
  h.u32(v3 ? 3u : 2u);
  h.u32(static_cast<std::uint32_t>(scheme_));
  h.u32(n_);
  h.u32(k_);
  h.u32(static_cast<std::uint32_t>(segments_.size()));
  h.u32(epsilon_known_ ? sf::kFlagEpsilonKnown : 0);
  h.f64(epsilon_);
  h.u64(body.size());
  h.u64(sf::fnv1a64(body.data(), body.size()));
  // v2+: the header itself is checksummed. The payload checksum cannot
  // cover it, so before this a bit flip in n/k/epsilon/payload_size was
  // detectable only if it happened to break a structural invariant.
  h.u64(sf::fnv1a64(h.bytes().data(), h.bytes().size()));
  out.write(reinterpret_cast<const char*>(h.bytes().data()),
            static_cast<std::streamsize>(h.bytes().size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  if (!out) fail(StoreError::kIo, "write failed");
}

namespace {

using sf::StoreHeader;

StoreHeader read_header(std::istream& in) {
  char magic[8];
  if (!in.read(magic, 8)) fail(StoreError::kBadMagic, "bad magic");
  std::uint32_t magic_version = 0;
  if (std::memcmp(magic, sf::kMagicV1, 8) == 0) magic_version = 1;
  if (std::memcmp(magic, sf::kMagicV2, 8) == 0) magic_version = 2;
  if (std::memcmp(magic, sf::kMagicV3, 8) == 0) magic_version = 3;
  if (magic_version == 0) fail(StoreError::kBadMagic, "bad magic");
  std::uint8_t header_bytes[sf::kHeaderBytes];
  if (!in.read(reinterpret_cast<char*>(header_bytes), sizeof(header_bytes))) {
    fail(StoreError::kTruncatedHeader, "truncated header");
  }
  if (magic_version >= 2) {
    std::uint8_t sum_bytes[8];
    if (!in.read(reinterpret_cast<char*>(sum_bytes), sizeof(sum_bytes))) {
      fail(StoreError::kTruncatedHeader, "truncated header checksum");
    }
    ByteReader sr(sum_bytes, sizeof(sum_bytes));
    if (sf::fnv1a64(header_bytes, sizeof(header_bytes)) != sr.u64()) {
      fail(StoreError::kHeaderChecksum, "header checksum mismatch");
    }
  }
  ByteReader h(header_bytes, sizeof(header_bytes));
  StoreHeader out;
  out.version = h.u32();
  if (out.version != magic_version) {
    fail(StoreError::kUnsupportedVersion,
         "unsupported version " + std::to_string(out.version));
  }
  out.scheme_raw = h.u32();
  if (out.scheme_raw > static_cast<std::uint32_t>(Scheme::kGraceful)) {
    fail(StoreError::kUnknownScheme,
         "unknown scheme tag " + std::to_string(out.scheme_raw));
  }
  out.n = h.u32();
  out.k = h.u32();
  out.segment_count = h.u32();
  out.epsilon_known = (h.u32() & sf::kFlagEpsilonKnown) != 0;
  out.epsilon = h.f64();
  out.payload_size = h.u64();
  out.checksum = h.u64();
  return out;
}

/// Reads at most `payload_size` payload bytes in bounded chunks rather
/// than trusting the header's size for one up-front allocation: a
/// corrupted payload_size (unprotected in v1 headers) must fail as
/// "truncated", not as a giant bad_alloc. With `allow_short` (recovery)
/// a truncated file yields the bytes that are present.
std::vector<std::uint8_t> read_body(std::istream& in,
                                    std::uint64_t payload_size,
                                    bool allow_short) {
  std::vector<std::uint8_t> body;
  constexpr std::uint64_t kReadChunk = 1 << 24;
  while (body.size() < payload_size) {
    const std::uint64_t want =
        std::min(kReadChunk, payload_size - body.size());
    const std::size_t old_size = body.size();
    body.resize(old_size + static_cast<std::size_t>(want));
    if (!in.read(reinterpret_cast<char*>(body.data() + old_size),
                 static_cast<std::streamsize>(want))) {
      if (allow_short) {
        body.resize(old_size + static_cast<std::size_t>(in.gcount()));
        break;
      }
      fail(StoreError::kTruncatedPayload, "truncated payload");
    }
  }
  return body;
}

/// v3 segment framing: meta words, blob size, and the page-aligned byte
/// offset table. Shared by the strict read and the lenient recovery pass
/// (which tolerates a truncated/garbage *blob* but not broken framing).
struct V3Frame {
  std::vector<std::uint64_t> meta;
  std::uint64_t slack_net = 0;
  std::uint64_t blob_bytes = 0;
  std::vector<std::uint64_t> byte_offsets;  // n+1, into the blob
};

V3Frame read_v3_frame(ByteReader& r, Scheme scheme, NodeId n) {
  V3Frame f;
  const std::uint64_t meta_count = r.u64();
  if (meta_count > r.remaining() / 8) {
    fail(StoreError::kStructure, "corrupt meta count");
  }
  f.meta.reserve(meta_count);
  for (std::uint64_t i = 0; i < meta_count; ++i) f.meta.push_back(r.u64());
  if (scheme == Scheme::kSlack) {
    if (f.meta.empty() || f.meta[0] + 1 != f.meta.size()) {
      fail(StoreError::kStructure, "slack net meta size mismatch");
    }
    f.slack_net = f.meta[0];
  } else if (!f.meta.empty()) {
    fail(StoreError::kStructure, "unexpected segment meta");
  }
  f.blob_bytes = r.u64();
  r.skip(sf::v3_pad(r.pos()));
  const std::uint64_t offsets_count = static_cast<std::uint64_t>(n) + 1;
  if (offsets_count > r.remaining() / 8) {
    fail(StoreError::kStructure, "offset table size mismatch");
  }
  f.byte_offsets.reserve(offsets_count);
  for (std::uint64_t i = 0; i < offsets_count; ++i) {
    f.byte_offsets.push_back(r.u64());
    if (i > 0 && f.byte_offsets[i] < f.byte_offsets[i - 1]) {
      fail(StoreError::kStructure, "offsets not monotone");
    }
  }
  if (f.byte_offsets.front() != 0 || f.byte_offsets.back() != f.blob_bytes) {
    fail(StoreError::kStructure, "blob offset mismatch");
  }
  r.skip(sf::v3_pad(r.pos()));
  return f;
}

}  // namespace

SketchStore SketchStore::read(std::istream& in) {
  const obs::Span span("store_read");
  const StoreHeader hdr = read_header(in);
  SketchStore store;
  store.scheme_ = static_cast<Scheme>(hdr.scheme_raw);
  store.n_ = hdr.n;
  store.k_ = hdr.k;
  store.epsilon_known_ = hdr.epsilon_known;
  store.epsilon_ = hdr.epsilon;

  const std::vector<std::uint8_t> body =
      read_body(in, hdr.payload_size, /*allow_short=*/false);
  if (sf::fnv1a64(body.data(), body.size()) != hdr.checksum) {
    fail(StoreError::kPayloadChecksum, "checksum mismatch");
  }

  ByteReader r(body.data(), body.size());
  store.segments_.reserve(hdr.segment_count);
  if (hdr.version == 3) {
    for (std::uint32_t s = 0; s < hdr.segment_count; ++s) {
      V3Frame f = read_v3_frame(r, store.scheme_, store.n_);
      if (r.remaining() < f.blob_bytes) {
        fail(StoreError::kTruncatedPayload, "truncated payload");
      }
      const std::uint8_t* blob = r.ptr();
      Segment seg;
      seg.meta = std::move(f.meta);
      seg.offsets.reserve(store.n_ + 1);
      for (NodeId u = 0; u < store.n_; ++u) {
        seg.offsets.push_back(seg.arena.size());
        if (!decode_record_v3(store.scheme_, blob + f.byte_offsets[u],
                              blob + f.byte_offsets[u + 1], f.slack_net,
                              seg.arena)) {
          fail(StoreError::kStructure, "invalid v3 record");
        }
      }
      seg.offsets.push_back(seg.arena.size());
      r.skip(f.blob_bytes);
      r.skip(sf::v3_pad(r.pos()));
      store.segments_.push_back(std::move(seg));
    }
  } else {
    for (std::uint32_t s = 0; s < hdr.segment_count; ++s) {
      Segment seg;
      const std::uint64_t meta_count = r.u64();
      if (meta_count > r.remaining() / 8) {
        fail(StoreError::kStructure, "corrupt meta count");
      }
      seg.meta.reserve(meta_count);
      for (std::uint64_t i = 0; i < meta_count; ++i) {
        seg.meta.push_back(r.u64());
      }
      const std::uint64_t offsets_count = r.u64();
      if (offsets_count != static_cast<std::uint64_t>(store.n_) + 1 ||
          offsets_count > r.remaining() / 8) {
        fail(StoreError::kStructure, "offset table size mismatch");
      }
      seg.offsets.reserve(offsets_count);
      for (std::uint64_t i = 0; i < offsets_count; ++i) {
        seg.offsets.push_back(r.u64());
        if (i > 0 && seg.offsets[i] < seg.offsets[i - 1]) {
          fail(StoreError::kStructure, "offsets not monotone");
        }
      }
      const std::uint64_t arena_count = r.u64();
      if (arena_count != seg.offsets.back() ||
          arena_count > r.remaining() / 4) {
        fail(StoreError::kStructure, "arena size mismatch");
      }
      seg.arena.reserve(arena_count);
      for (std::uint64_t i = 0; i < arena_count; ++i) {
        seg.arena.push_back(r.u32());
      }
      store.segments_.push_back(std::move(seg));
    }
  }
  if (!r.done()) fail(StoreError::kStructure, "trailing payload bytes");
  if (store.segments_.empty()) fail(StoreError::kStructure, "no segments");
  store.validate_structure();
  return store;
}

namespace {

/// Whether arena words [begin, end) form a structurally valid record for
/// `scheme` — the per-record core of validate_structure, shared with the
/// quarantine pass of recover_file. For kSlack pass the fixed record width
/// in `slack_record_words`.
bool node_record_ok(Scheme scheme, const std::uint32_t* arena,
                    std::uint64_t begin, std::uint64_t end,
                    std::uint64_t slack_record_words) {
  const auto label_ok = [&](std::uint64_t b, std::uint64_t e) {
    if (e - b < 2) return false;
    const PackedLabel label{arena + b};
    return label.words() == e - b;
  };
  if (end < begin) return false;
  switch (scheme) {
    case Scheme::kThorupZwick:
      return label_ok(begin, end);
    case Scheme::kSlack:
      return end - begin == slack_record_words;
    case Scheme::kCdg:
    case Scheme::kGraceful:
      return end - begin >= kCdgPrefixWords + 2 &&
             label_ok(begin + kCdgPrefixWords, end);
  }
  return false;
}

/// Appends the empty replacement record for a quarantined node: queries
/// against it answer kInfDist ("don't know"), never a wrong finite value.
void append_empty_record(Scheme scheme, std::vector<std::uint32_t>& arena,
                         std::uint64_t slack_record_words) {
  switch (scheme) {
    case Scheme::kThorupZwick:
      arena.push_back(0);  // levels
      arena.push_back(0);  // bunch_count
      return;
    case Scheme::kSlack:
      for (std::uint64_t i = 0; i < slack_record_words; ++i) {
        arena.push_back(0xffffffffu);  // every net distance = kInfDist
      }
      return;
    case Scheme::kCdg:
    case Scheme::kGraceful:
      arena.push_back(kInvalidNode);   // net_node
      arena.push_back(0xffffffffu);    // net_dist = kInfDist (query guard)
      arena.push_back(0xffffffffu);
      arena.push_back(kInvalidNode);   // owner
      arena.push_back(0);              // empty label
      arena.push_back(0);
      return;
  }
}

}  // namespace

// The checksum only proves the payload was not accidentally corrupted; the
// query path indexes by record-internal counts, so those must be proven
// consistent with the offset table before any query runs — otherwise a
// checksum-valid crafted file reads out of bounds.
void SketchStore::validate_structure() const {
  const auto check = [](bool ok, const char* what) {
    if (!ok) fail(StoreError::kStructure, what);
  };
  for (const Segment& seg : segments_) {
    std::uint64_t slack_words = 0;
    if (scheme_ == Scheme::kSlack) {
      check(!seg.meta.empty() && seg.meta[0] + 1 == seg.meta.size(),
            "slack net meta size mismatch");
      slack_words = 2 * seg.meta[0];
    } else {
      check(seg.meta.empty(), "unexpected segment meta");
    }
    for (NodeId u = 0; u < n_; ++u) {
      check(node_record_ok(scheme_, seg.arena.data(), seg.offsets[u],
                           seg.offsets[u + 1], slack_words),
            "invalid node record");
    }
  }
}

void SketchStore::save_file(const std::string& path, StoreFormat format) const {
  // Crash-safe publish: write the full store to a sibling temp file, force
  // it to stable storage, then atomically rename over the target. A reader
  // of `path` (or a crash at any point here) sees either the previous
  // complete store or the new complete store — never a torn prefix. Each
  // call claims a temp name of its own (pid + counter, created O_EXCL), so
  // concurrent saves to one path never write into, or publish, each
  // other's half-written bytes. Not mkstemp: its 0600 mode would survive
  // the rename, where the store should get the umask's usual mode.
  static std::atomic<std::uint64_t> next_tmp{0};
  std::string tmp;
  int tmp_fd = -1;
  do {
    tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(next_tmp.fetch_add(1));
    tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0666);
  } while (tmp_fd < 0 && errno == EEXIST);
  if (tmp_fd < 0) fail(StoreError::kIo, "cannot open for write: " + tmp);
  ::close(tmp_fd);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::remove(tmp.c_str());
      fail(StoreError::kIo, "cannot open for write: " + tmp);
    }
    try {
      write(out, format);
      out.flush();
    } catch (...) {
      out.close();
      std::remove(tmp.c_str());
      throw;
    }
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      fail(StoreError::kIo, "write failed: " + tmp);
    }
  }
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    std::remove(tmp.c_str());
    fail(StoreError::kIo, "fsync failed: " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(StoreError::kIo, "rename failed: " + path);
  }
  // Make the rename itself durable (best effort — not all filesystems
  // support fsync on a directory fd).
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

SketchStore SketchStore::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(StoreError::kIo, "cannot open for read: " + path);
  return read(in);
}

SketchStore::Recovery SketchStore::recover_file(const std::string& path) {
  // First try the strict path: if the checksums hold, there is nothing to
  // salvage. Only on corruption do we re-read leniently.
  try {
    Recovery r;
    r.store = load_file(path);
    r.checksum_ok = true;
    return r;
  } catch (const StoreCorruptionError& e) {
    switch (e.kind()) {
      case StoreError::kPayloadChecksum:
      case StoreError::kTruncatedPayload:
      case StoreError::kStructure:
        break;  // payload damage — attempt per-record salvage below
      default:
        throw;  // header/identity damage is unrecoverable
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) fail(StoreError::kIo, "cannot open for read: " + path);
  const StoreHeader hdr = read_header(in);
  Recovery rec;
  SketchStore& store = rec.store;
  store.scheme_ = static_cast<Scheme>(hdr.scheme_raw);
  store.n_ = hdr.n;
  store.k_ = hdr.k;
  store.epsilon_known_ = hdr.epsilon_known;
  store.epsilon_ = hdr.epsilon;

  const std::vector<std::uint8_t> body =
      read_body(in, hdr.payload_size, /*allow_short=*/true);
  std::vector<char> quarantined(store.n_, 0);

  // Segment framing (meta + offsets) must parse for a segment to be
  // salvageable at all; the arena/blob may be short (truncation) and
  // individual records may be garbage (bit flips) — those quarantine per
  // node.
  ByteReader r(body.data(), body.size());
  for (std::uint32_t s = 0; s < hdr.segment_count; ++s) {
    Segment seg;
    std::uint64_t slack_words = 0;
    if (hdr.version == 3) {
      V3Frame f;
      try {
        f = read_v3_frame(r, store.scheme_, store.n_);
      } catch (const StoreCorruptionError&) {
        // Framing of this segment is gone. Extra graceful levels are
        // redundant approximations, so keeping the earlier ones is sound;
        // for single-segment schemes nothing remains to serve.
        if (store.scheme_ == Scheme::kGraceful && !store.segments_.empty()) {
          break;
        }
        throw;
      }
      slack_words = 2 * f.slack_net;
      seg.meta = std::move(f.meta);
      const std::uint64_t available =
          std::min<std::uint64_t>(f.blob_bytes, r.remaining());
      const std::uint8_t* blob = r.ptr();
      seg.offsets.reserve(store.n_ + 1);
      for (NodeId u = 0; u < store.n_; ++u) {
        seg.offsets.push_back(seg.arena.size());
        const bool ok =
            f.byte_offsets[u + 1] <= available &&
            decode_record_v3(store.scheme_, blob + f.byte_offsets[u],
                             blob + f.byte_offsets[u + 1], f.slack_net,
                             seg.arena);
        if (!ok) {
          quarantined[u] = 1;
          append_empty_record(store.scheme_, seg.arena, slack_words);
        }
      }
      seg.offsets.push_back(seg.arena.size());
      r.skip_at_most(f.blob_bytes);
      r.skip_at_most(sf::v3_pad(r.pos()));
      store.segments_.push_back(std::move(seg));
      continue;
    }
    std::uint64_t declared = 0;
    try {
      const std::uint64_t meta_count = r.u64();
      if (meta_count > r.remaining() / 8) {
        fail(StoreError::kStructure, "corrupt meta count");
      }
      for (std::uint64_t i = 0; i < meta_count; ++i) {
        seg.meta.push_back(r.u64());
      }
      if (store.scheme_ == Scheme::kSlack) {
        if (seg.meta.empty() || seg.meta[0] + 1 != seg.meta.size()) {
          fail(StoreError::kStructure, "slack net meta size mismatch");
        }
        slack_words = 2 * seg.meta[0];
      } else if (!seg.meta.empty()) {
        fail(StoreError::kStructure, "unexpected segment meta");
      }
      const std::uint64_t offsets_count = r.u64();
      if (offsets_count != static_cast<std::uint64_t>(store.n_) + 1 ||
          offsets_count > r.remaining() / 8) {
        fail(StoreError::kStructure, "offset table size mismatch");
      }
      for (std::uint64_t i = 0; i < offsets_count; ++i) {
        seg.offsets.push_back(r.u64());
        if (i > 0 && seg.offsets[i] < seg.offsets[i - 1]) {
          fail(StoreError::kStructure, "offsets not monotone");
        }
      }
      declared = r.u64();
    } catch (const StoreCorruptionError&) {
      // Framing of this segment is gone (see the v3 comment above).
      if (store.scheme_ == Scheme::kGraceful && !store.segments_.empty()) {
        break;
      }
      throw;
    }
    const std::uint64_t available =
        std::min<std::uint64_t>(declared, r.remaining() / 4);
    std::vector<std::uint32_t> raw;
    raw.reserve(available);
    for (std::uint64_t i = 0; i < available; ++i) raw.push_back(r.u32());

    // Rebuild the arena keeping every record that is fully present and
    // structurally valid; quarantine the rest.
    std::vector<std::uint64_t> new_offsets;
    std::vector<std::uint32_t> new_arena;
    new_offsets.reserve(store.n_ + 1);
    for (NodeId u = 0; u < store.n_; ++u) {
      new_offsets.push_back(new_arena.size());
      const std::uint64_t begin = seg.offsets[u];
      const std::uint64_t end = seg.offsets[u + 1];
      const bool ok =
          end <= available &&
          node_record_ok(store.scheme_, raw.data(), begin, end, slack_words);
      if (ok) {
        new_arena.insert(new_arena.end(), raw.begin() + begin,
                         raw.begin() + end);
      } else {
        quarantined[u] = 1;
        append_empty_record(store.scheme_, new_arena, slack_words);
      }
    }
    new_offsets.push_back(new_arena.size());
    seg.offsets = std::move(new_offsets);
    seg.arena = std::move(new_arena);
    store.segments_.push_back(std::move(seg));
  }
  if (store.segments_.empty()) fail(StoreError::kStructure, "no segments");
  store.validate_structure();
  for (NodeId u = 0; u < store.n_; ++u) {
    if (quarantined[u]) rec.quarantined.push_back(u);
  }
  return rec;
}

std::unique_ptr<DistanceOracle> SketchStore::load_oracle(
    const std::string& path) {
  return std::make_unique<SketchStore>(load_file(path));
}

}  // namespace dsketch
