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
#include "serve/store_format.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

namespace sf = store_format;

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

/// The record a v1/v2 word record that is not structurally valid
/// transcodes to: a lone continuation byte, an unterminated varint that
/// the v3 decoder rejects for every scheme.
constexpr std::uint8_t kInvalidRecord = 0x80;

std::vector<std::uint64_t> read_meta(ByteReader& r, Scheme scheme) {
  const std::uint64_t meta_count = r.u64();
  if (meta_count > r.remaining() / 8) {
    fail(StoreError::kStructure, "corrupt meta count");
  }
  std::vector<std::uint64_t> meta(meta_count);
  for (std::uint64_t& m : meta) m = r.u64();
  if (scheme == Scheme::kSlack) {
    if (meta.empty() || meta[0] + 1 != meta.size()) {
      fail(StoreError::kStructure, "slack net meta size mismatch");
    }
  } else if (!meta.empty()) {
    fail(StoreError::kStructure, "unexpected segment meta");
  }
  return meta;
}

std::vector<std::uint64_t> read_offsets(ByteReader& r, NodeId n) {
  const std::uint64_t count = static_cast<std::uint64_t>(n) + 1;
  if (count > r.remaining() / 8) {
    fail(StoreError::kStructure, "offset table size mismatch");
  }
  std::vector<std::uint64_t> offsets(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    offsets[i] = r.u64();
    if (i > 0 && offsets[i] < offsets[i - 1]) {
      fail(StoreError::kStructure, "offsets not monotone");
    }
  }
  return offsets;
}

/// One segment's records as v3 bytes: node u's record is
/// blob[offsets[u], offsets[u+1]), present only when offsets[u+1] <=
/// available (a truncated file loses its tail).
struct RecordTable {
  std::vector<std::uint64_t> meta;
  std::vector<std::uint64_t> offsets;
  const std::uint8_t* blob = nullptr;
  std::uint64_t available = 0;
  std::vector<std::uint8_t> transcoded;  ///< owns the blob of a v1/v2 file

  bool present(NodeId u) const { return offsets[u + 1] <= available; }
  const std::uint8_t* begin(NodeId u) const { return blob + offsets[u]; }
  const std::uint8_t* end(NodeId u) const { return blob + offsets[u + 1]; }
};

/// v3 segment framing: meta words, blob size, the page-aligned byte
/// offset table, and the blob itself. `strict` (a checksummed load)
/// requires the whole blob and its pad; recovery takes what is there.
RecordTable read_v3_segment(ByteReader& r, Scheme scheme, NodeId n,
                            bool strict) {
  RecordTable t;
  t.meta = read_meta(r, scheme);
  const std::uint64_t blob_bytes = r.u64();
  r.skip(sf::v3_pad(r.pos()));
  t.offsets = read_offsets(r, n);
  if (t.offsets.front() != 0 || t.offsets.back() != blob_bytes) {
    fail(StoreError::kStructure, "blob offset mismatch");
  }
  r.skip(sf::v3_pad(r.pos()));
  if (strict && r.remaining() < blob_bytes) {
    fail(StoreError::kTruncatedPayload, "truncated payload");
  }
  t.blob = r.ptr();
  t.available = std::min<std::uint64_t>(blob_bytes, r.remaining());
  r.skip_at_most(blob_bytes);
  if (strict) {
    r.skip(sf::v3_pad(r.pos()));
  } else {
    r.skip_at_most(sf::v3_pad(r.pos()));
  }
  return t;
}

/// A legacy tz word record [levels, count, (id, D) x levels,
/// (node, level, D) x count] as a view over `pivots`/`entries`; false
/// when the record's counts disagree with its length.
bool legacy_label(const std::uint32_t* w, std::uint64_t words, NodeId owner,
                  std::vector<DistKey>& pivots,
                  std::vector<BunchEntry>& entries, LabelView* view) {
  if (words < 2) return false;
  const std::uint64_t levels = w[0];
  const std::uint64_t count = w[1];
  if (words != 2 + 3 * levels + 4 * count) return false;
  const auto dist = [](const std::uint32_t* p) {
    return static_cast<Dist>(p[0]) | (static_cast<Dist>(p[1]) << 32);
  };
  pivots.clear();
  entries.clear();
  for (const std::uint32_t* p = w + 2; p < w + 2 + 3 * levels; p += 3) {
    pivots.push_back(DistKey{dist(p + 1), p[0]});
  }
  for (const std::uint32_t* e = w + 2 + 3 * levels; e < w + words; e += 4) {
    entries.push_back(BunchEntry{e[0], e[1], dist(e + 2)});
  }
  *view = LabelView{owner, static_cast<std::uint32_t>(levels),
                    static_cast<std::uint32_t>(count), pivots.data(),
                    entries.data()};
  return true;
}

/// Transcodes one legacy word record to v3 bytes; false when it is not
/// structurally valid.
bool legacy_record(Scheme scheme, const std::uint32_t* w, std::uint64_t words,
                   std::uint64_t slack_net, std::vector<std::uint8_t>& out) {
  std::vector<DistKey> pivots;
  std::vector<BunchEntry> entries;
  LabelView label;
  switch (scheme) {
    case Scheme::kThorupZwick:
      if (!legacy_label(w, words, kInvalidNode, pivots, entries, &label)) {
        return false;
      }
      encode_tz_record(label, out);
      return true;
    case Scheme::kSlack: {
      if (words != 2 * slack_net) return false;
      std::vector<Dist> row(slack_net);
      for (std::uint64_t i = 0; i < slack_net; ++i) {
        row[i] = static_cast<Dist>(w[2 * i]) |
                 (static_cast<Dist>(w[2 * i + 1]) << 32);
      }
      encode_slack_record(row, out);
      return true;
    }
    case Scheme::kCdg:
    case Scheme::kGraceful:
      if (words < 4 ||
          !legacy_label(w + 4, words - 4, w[3], pivots, entries, &label)) {
        return false;
      }
      encode_cdg_record(w[0], static_cast<Dist>(w[1]) |
                                  (static_cast<Dist>(w[2]) << 32),
                        label, out);
      return true;
  }
  return false;
}

/// v1/v2 segment: fixed-width word records, transcoded to v3 bytes so one
/// decoder serves every version. A record that is cut off or structurally
/// invalid becomes kInvalidRecord.
RecordTable read_legacy_segment(ByteReader& r, Scheme scheme, NodeId n,
                                bool strict) {
  RecordTable t;
  t.meta = read_meta(r, scheme);
  const std::uint64_t offsets_count = r.u64();
  if (offsets_count != static_cast<std::uint64_t>(n) + 1) {
    fail(StoreError::kStructure, "offset table size mismatch");
  }
  const std::vector<std::uint64_t> word_offsets = read_offsets(r, n);
  const std::uint64_t declared = r.u64();
  if (strict &&
      (declared != word_offsets.back() || declared > r.remaining() / 4)) {
    fail(StoreError::kStructure, "arena size mismatch");
  }
  const std::uint64_t available =
      std::min<std::uint64_t>(declared, r.remaining() / 4);
  std::vector<std::uint32_t> words(available);
  for (std::uint32_t& w : words) w = r.u32();
  const std::uint64_t slack_net = t.meta.empty() ? 0 : t.meta[0];
  t.offsets.reserve(word_offsets.size());
  t.offsets.push_back(0);
  for (NodeId u = 0; u < n; ++u) {
    const std::uint64_t begin = word_offsets[u];
    const std::uint64_t end = word_offsets[u + 1];
    if (end > available || !legacy_record(scheme, words.data() + begin,
                                          end - begin, slack_net,
                                          t.transcoded)) {
      t.transcoded.push_back(kInvalidRecord);
    }
    t.offsets.push_back(t.transcoded.size());
  }
  t.blob = t.transcoded.data();
  t.available = t.transcoded.size();
  return t;
}

/// A record that does not decode: a strict load fails, recovery
/// quarantines the node (its caller substitutes a record that answers
/// kInfDist).
void reject(NodeId u, std::vector<char>* quarantined) {
  if (quarantined == nullptr) {
    fail(StoreError::kStructure, "invalid node record");
  }
  (*quarantined)[u] = 1;
}

LabelArena decode_tz_segment(const RecordTable& t, NodeId n, std::uint32_t k,
                             std::vector<char>* quarantined) {
  // Every record takes at least 2 bytes (the older quarantine marker)
  // and becomes k pivots in memory: a header k past 16 pivots per 2
  // bytes is corrupt and must not size a giant allocation.
  if (static_cast<std::uint64_t>(n) * k > 8 * t.offsets.back()) {
    fail(StoreError::kStructure, "level count out of range");
  }
  // Size the buffers from the record headers first, so the fill below
  // never reallocates. A count the slice cannot hold is corrupt and only
  // fails later; it must not inflate the reservation.
  std::size_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!t.present(u)) continue;
    VarintReader r(t.begin(u), t.end(u));
    r.get();
    const std::uint64_t count = r.get();
    const auto bytes = static_cast<std::uint64_t>(t.end(u) - t.begin(u));
    if (r.ok && count <= bytes / 3) total += count;
  }
  std::vector<DistKey> pivots;
  std::vector<BunchEntry> entries;
  std::vector<std::uint32_t> counts(n, 0);
  pivots.reserve(static_cast<std::size_t>(n) * k);
  entries.reserve(total);
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t pivots_before = pivots.size();
    const std::size_t entries_before = entries.size();
    V3TzHeader h;
    if (t.present(u)) h = decode_tz_record(t.begin(u), t.end(u), pivots,
                                           entries);
    if (h.ok && h.levels == k) {
      counts[u] = h.count;
      continue;
    }
    pivots.resize(pivots_before);
    entries.resize(entries_before);
    // Older builds quarantined a node as an empty (0 levels, 0 entries)
    // record; it loads as k invalid pivots, which answers kInfDist too.
    if (!h.ok || h.levels != 0 || h.count != 0) reject(u, quarantined);
    pivots.resize(pivots_before + k);
  }
  return LabelArena::from_parts(k, std::move(pivots), std::move(entries),
                                counts);
}

SlackSketchSet decode_slack_segment(const RecordTable& t, NodeId n,
                                    std::vector<char>* quarantined) {
  const std::vector<NodeId> net(t.meta.begin() + 1, t.meta.end());
  // Every net distance takes at least one byte.
  if (static_cast<std::uint64_t>(n) * net.size() > t.offsets.back()) {
    fail(StoreError::kStructure, "slack records shorter than the net");
  }
  std::vector<std::vector<Dist>> rows(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!t.present(u) ||
        !decode_slack_record(t.begin(u), t.end(u), net.size(), rows[u])) {
      reject(u, quarantined);
      rows[u].assign(net.size(), kInfDist);
    }
  }
  return SlackSketchSet(net, std::move(rows));
}

CdgSketchSet decode_cdg_segment(const RecordTable& t, NodeId n,
                                std::vector<char>* quarantined) {
  // A rejected node keeps the default sketch: no net node, kInfDist net
  // distance, and an empty label, which CdgSketchSet::query answers
  // with kInfDist.
  std::vector<CdgSketchSet::NodeSketch> sketches(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!t.present(u) ||
        !decode_cdg_record(t.begin(u), t.end(u), sketches[u])) {
      reject(u, quarantined);
    }
  }
  return CdgSketchSet(std::move(sketches));
}

}  // namespace

// ---- from built sketches ----------------------------------------------------

bool SketchStore::packable(const DistanceOracle& oracle) {
  return dynamic_cast<const SketchStore*>(&oracle) != nullptr ||
         dynamic_cast<const SketchOracle*>(&oracle) != nullptr ||
         dynamic_cast<const TzLabelOracle*>(&oracle) != nullptr;
}

SketchStore SketchStore::from_oracle(const DistanceOracle& oracle) {
  const obs::Span span("store_from_oracle");
  if (const auto* store = dynamic_cast<const SketchStore*>(&oracle)) {
    return *store;
  }
  SketchStore store;
  store.n_ = oracle.num_nodes();
  // A bare TZ label arena (distributed build, dynamic-sketch snapshot)
  // is a tz payload; it carries no recorded epsilon.
  if (const auto* tz = dynamic_cast<const TzLabelOracle*>(&oracle)) {
    store.k_ = tz->k();
    store.epsilon_known_ = false;
    store.payload_.scheme = Scheme::kThorupZwick;
    store.payload_.tz = tz->labels();
  } else if (const auto* sketch = dynamic_cast<const SketchOracle*>(&oracle)) {
    store.k_ = sketch->config().k;
    store.epsilon_ = sketch->config().epsilon;
    // Sketches loaded from pre-epsilon envelopes carry a default, not the
    // build value; the store must not launder it into a recorded one.
    store.epsilon_known_ = sketch->epsilon_recorded_;
    store.payload_ = sketch->payload_;
  } else {
    throw std::runtime_error("oracle scheme '" + oracle.scheme() +
                             "' has no store representation");
  }
  // A load rejects a tz record whose level count is not the header k, so
  // the header takes the labels' own k over a differing configured one.
  if (store.payload_.scheme == Scheme::kThorupZwick && store.n_ > 0) {
    store.k_ = store.payload_.tz.k();
  }
  return store;
}

// ---- queries and sizes ------------------------------------------------------

Dist SketchStore::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  return payload_.query(u, v);
}

std::size_t SketchStore::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  return payload_.size_words(u);
}

std::size_t SketchStore::num_segments() const {
  return payload_.scheme == Scheme::kGraceful
             ? payload_.graceful.num_levels()
             : 1;
}

std::size_t SketchStore::payload_bytes() const {
  return payload_.resident_bytes();
}

std::size_t SketchStore::encoded_bytes() const {
  return build_v3_payload().size();
}

std::size_t SketchStore::encoded_record_bytes(NodeId u) const {
  DS_CHECK(u < n_);
  std::vector<std::uint8_t> bytes;
  for (std::size_t s = 0; s < num_segments(); ++s) encode_record(s, u, bytes);
  return bytes.size();
}

std::string SketchStore::guarantee() const {
  return sketch_guarantee(payload_.scheme, k_, epsilon_);
}

Capabilities SketchStore::capabilities() const {
  Capabilities caps = sketch_capabilities(payload_.scheme, k_);
  // The CONGEST cost was paid by whoever built; a store never carries
  // it. Its persistent form is the binary store (save_file), not the
  // text envelope.
  caps.build_cost_available = false;
  caps.supports_save = false;
  return caps;
}

// ---- binary round trip ------------------------------------------------------

void SketchStore::encode_record(std::size_t segment, NodeId u,
                                std::vector<std::uint8_t>& out) const {
  const auto cdg = [&](const CdgSketchSet& set) {
    const CdgSketchSet::NodeSketch& s = set.sketch(u);
    encode_cdg_record(s.net_node, s.net_dist, s.label.view(), out);
  };
  switch (payload_.scheme) {
    case Scheme::kThorupZwick:
      encode_tz_record(payload_.tz.view(u), out);
      return;
    case Scheme::kSlack:
      encode_slack_record(payload_.slack.row(u), out);
      return;
    case Scheme::kCdg:
      cdg(payload_.cdg);
      return;
    case Scheme::kGraceful:
      cdg(payload_.graceful.level(segment));
      return;
  }
}

std::vector<std::uint8_t> SketchStore::build_v3_payload() const {
  ByteWriter payload;
  for (std::size_t s = 0; s < num_segments(); ++s) {
    if (payload_.scheme == Scheme::kSlack) {
      const std::vector<NodeId>& net = payload_.slack.net();
      payload.u64(net.size() + 1);
      payload.u64(net.size());
      for (const NodeId w : net) payload.u64(w);
    } else {
      payload.u64(0);
    }
    std::vector<std::uint8_t> blob;
    std::vector<std::uint64_t> byte_offsets;
    byte_offsets.reserve(n_ + 1);
    byte_offsets.push_back(0);
    for (NodeId u = 0; u < n_; ++u) {
      encode_record(s, u, blob);
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
  (void)format;  // v3 is the one encoding written
  const std::vector<std::uint8_t> body = build_v3_payload();

  out.write(sf::kMagicV3, 8);
  ByteWriter h;
  h.u32(3);
  h.u32(static_cast<std::uint32_t>(payload_.scheme));
  h.u32(n_);
  h.u32(k_);
  h.u32(static_cast<std::uint32_t>(num_segments()));
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

}  // namespace

// Decodes every segment of a checksummed (quarantined == nullptr) or
// salvaged payload into payload_. The checksum only proves the payload
// was not accidentally corrupted; every record is decoded and checked
// against its slice before any query runs, so a checksum-valid crafted
// file fails here instead of reading out of bounds later.
void SketchStore::decode_payload(const sf::StoreHeader& hdr,
                                 const std::vector<std::uint8_t>& body,
                                 std::vector<char>* quarantined) {
  const bool strict = quarantined == nullptr;
  const auto scheme = static_cast<Scheme>(hdr.scheme_raw);
  payload_.scheme = scheme;
  n_ = hdr.n;
  k_ = hdr.k;
  epsilon_known_ = hdr.epsilon_known;
  epsilon_ = hdr.epsilon;
  if (hdr.segment_count == 0) fail(StoreError::kStructure, "no segments");
  if (scheme != Scheme::kGraceful && hdr.segment_count != 1) {
    fail(StoreError::kStructure, "segment count mismatch");
  }
  std::vector<CdgSketchSet> levels;
  ByteReader r(body.data(), body.size());
  for (std::uint32_t s = 0; s < hdr.segment_count; ++s) {
    RecordTable t;
    try {
      t = hdr.version == 3 ? read_v3_segment(r, scheme, n_, strict)
                           : read_legacy_segment(r, scheme, n_, strict);
    } catch (const StoreCorruptionError&) {
      // The framing of this segment is gone. Extra graceful levels are
      // redundant approximations, so salvage keeps the earlier ones; for
      // single-segment schemes nothing remains to serve.
      if (!strict && scheme == Scheme::kGraceful && !levels.empty()) break;
      throw;
    }
    switch (scheme) {
      case Scheme::kThorupZwick:
        payload_.tz = decode_tz_segment(t, n_, k_, quarantined);
        break;
      case Scheme::kSlack:
        payload_.slack = decode_slack_segment(t, n_, quarantined);
        break;
      case Scheme::kCdg:
        payload_.cdg = decode_cdg_segment(t, n_, quarantined);
        break;
      case Scheme::kGraceful:
        levels.push_back(decode_cdg_segment(t, n_, quarantined));
        break;
    }
  }
  if (strict && !r.done()) {
    fail(StoreError::kStructure, "trailing payload bytes");
  }
  if (scheme == Scheme::kGraceful) {
    payload_.graceful = GracefulSketchSet(std::move(levels));
  }
}

SketchStore SketchStore::read(std::istream& in) {
  const obs::Span span("store_read");
  const StoreHeader hdr = read_header(in);
  const std::vector<std::uint8_t> body =
      read_body(in, hdr.payload_size, /*allow_short=*/false);
  if (sf::fnv1a64(body.data(), body.size()) != hdr.checksum) {
    fail(StoreError::kPayloadChecksum, "checksum mismatch");
  }
  SketchStore store;
  store.decode_payload(hdr, body, nullptr);
  return store;
}

void SketchStore::save_file(const std::string& path) const {
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
      write(out);
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
  const std::vector<std::uint8_t> body =
      read_body(in, hdr.payload_size, /*allow_short=*/true);
  // Segment framing (meta + offsets) must parse for a segment to be
  // salvageable at all; the blob may be short (truncation) and
  // individual records may be garbage (bit flips) — those quarantine
  // per node.
  Recovery rec;
  std::vector<char> quarantined(hdr.n, 0);
  rec.store.decode_payload(hdr, body, &quarantined);
  for (NodeId u = 0; u < hdr.n; ++u) {
    if (quarantined[u]) rec.quarantined.push_back(u);
  }
  return rec;
}

std::unique_ptr<DistanceOracle> SketchStore::load_oracle(
    const std::string& path) {
  return std::make_unique<SketchStore>(load_file(path));
}

}  // namespace dsketch
