// The v3 (delta+varint, page-aligned) store format and its two serving
// paths: SketchStore::read decoding to heap arenas and MmapSketchStore
// querying the mapped bytes in place. The contract under test is
// byte-identical answers between the two, for every scheme, plus typed
// rejection (or safe kInfDist answers) for every corruption the fuzz
// loops can produce. The varint decoder runs under ASan in CI, so the
// corruption loops double as out-of-bounds probes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sketch_oracle.hpp"
#include "graph/generators.hpp"
#include "serve/label_codec.hpp"
#include "serve/mmap_store.hpp"
#include "serve/sketch_store.hpp"
#include "serve/store_format.hpp"
#include "store_fixtures.hpp"
#include "temp_path.hpp"

namespace dsketch {
namespace {

// ---------------------------------------------------------------------------
// label_codec primitives

TEST(Varint, RoundTripsBoundaryValues) {
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 32, static_cast<std::uint64_t>(-2),
        static_cast<std::uint64_t>(-1)}) {
    std::vector<std::uint8_t> bytes;
    put_varint(bytes, x);
    VarintReader r{bytes.data(), bytes.data() + bytes.size()};
    EXPECT_EQ(r.get(), x);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, TruncationFailsCleanly) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, std::uint64_t{1} << 40);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    VarintReader r{bytes.data(), bytes.data() + keep};
    r.get();
    EXPECT_FALSE(r.ok) << "kept " << keep << " of " << bytes.size();
  }
}

TEST(Varint, OverflowPastSixtyFourBitsRejected) {
  // Ten continuation bytes encode up to 70 bits; bit 64 set must fail.
  std::vector<std::uint8_t> bytes(9, 0x80);
  bytes.push_back(0x02);  // would be bit 64
  VarintReader r{bytes.data(), bytes.data() + bytes.size()};
  r.get();
  EXPECT_FALSE(r.ok);
}

TEST(Varint, DoneRejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, 7);
  bytes.push_back(0);
  VarintReader r{bytes.data(), bytes.data() + bytes.size()};
  EXPECT_EQ(r.get(), 7u);
  EXPECT_FALSE(r.done());
}

TEST(ZigZag, RoundTripsSignedDeltas) {
  for (const std::int64_t d : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{-1}, std::int64_t{1} << 40,
                               -(std::int64_t{1} << 40)}) {
    EXPECT_EQ(static_cast<std::int64_t>(
                  unzigzag64(zigzag64(static_cast<std::uint64_t>(d)))),
              d);
  }
}

// ---------------------------------------------------------------------------
// record coding: a synthetic tz label with the wrinkles the coder must
// survive — invalid pivots, duplicate bunch nodes, non-monotone pivot
// distances (the post-repair shape zigzag deltas exist for).

struct SyntheticLabel {
  std::vector<DistKey> pivots{{0, 7}, {kInfDist, kInvalidNode}, {5, 2}};
  // Sorted by (node, level); node 9 duplicated across levels.
  std::vector<BunchEntry> bunch{{4, 0, 11},
                                {9, 0, 3},
                                {9, 2, 3},
                                {12, 1, (Dist{1} << 33) + 5}};

  LabelView view() const {
    return LabelView{kInvalidNode, static_cast<std::uint32_t>(pivots.size()),
                     static_cast<std::uint32_t>(bunch.size()), pivots.data(),
                     bunch.data()};
  }
};

std::vector<std::uint8_t> synthetic_tz_record() {
  std::vector<std::uint8_t> bytes;
  encode_tz_record(SyntheticLabel().view(), bytes);
  return bytes;
}

TEST(RecordCodec, TzRoundTripsBitExactly) {
  const SyntheticLabel label;
  const std::vector<std::uint8_t> bytes = synthetic_tz_record();
  std::vector<DistKey> pivots;
  std::vector<BunchEntry> entries;
  const V3TzHeader h = decode_tz_record(bytes.data(),
                                        bytes.data() + bytes.size(), pivots,
                                        entries);
  ASSERT_TRUE(h.ok);
  EXPECT_EQ(h.levels, label.pivots.size());
  EXPECT_EQ(h.count, label.bunch.size());
  EXPECT_EQ(pivots, label.pivots);
  EXPECT_EQ(entries, label.bunch);
  // The varint coding must actually compress vs the in-memory layout.
  EXPECT_LT(bytes.size(), label.pivots.size() * sizeof(DistKey) +
                              label.bunch.size() * sizeof(BunchEntry));
}

TEST(RecordCodec, DecodeRejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes = synthetic_tz_record();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<DistKey> pivots;
    std::vector<BunchEntry> entries;
    EXPECT_FALSE(
        decode_tz_record(bytes.data(), bytes.data() + keep, pivots, entries)
            .ok)
        << "kept " << keep << " of " << bytes.size();
  }
  SyntheticLabel label;
  std::vector<std::uint8_t> cdg;
  LabelView view = label.view();
  view.owner = 7;
  encode_cdg_record(3, 17, view, cdg);
  CdgSketchSet::NodeSketch sketch;
  ASSERT_TRUE(decode_cdg_record(cdg.data(), cdg.data() + cdg.size(), sketch));
  EXPECT_EQ(sketch.net_node, 3u);
  EXPECT_EQ(sketch.net_dist, 17u);
  EXPECT_TRUE(sketch.label.view() == view);
  for (std::size_t keep = 0; keep < cdg.size(); ++keep) {
    EXPECT_FALSE(decode_cdg_record(cdg.data(), cdg.data() + keep, sketch))
        << "kept " << keep << " of " << cdg.size();
  }
}

TEST(RecordCodec, DecodeSurvivesRandomBytes) {
  // Arbitrary bytes must either decode to *some* structurally valid
  // record or fail — never crash or read out of bounds (ASan-checked).
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&] {
    state ^= state << 13; state ^= state >> 7; state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(trial % 37);
    for (auto& b : bytes) b = next();
    const std::uint8_t* end = bytes.data() + bytes.size();
    std::vector<DistKey> pivots;
    std::vector<BunchEntry> entries;
    decode_tz_record(bytes.data(), end, pivots, entries);
    CdgSketchSet::NodeSketch sketch;
    decode_cdg_record(bytes.data(), end, sketch);
    std::vector<Dist> row;
    decode_slack_record(bytes.data(), end, trial % 5, row);
  }
}

// ---------------------------------------------------------------------------
// corruption: the v3 byte-level map needed to aim at specific sections

class StoreV3Corruption : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = erdos_renyi(40, 0.1, {1, 5}, 3);
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = 2;
    store_ = SketchStore::from_oracle(SketchOracle(graph_, cfg));
    n_ = store_.num_nodes();
    path_ = unique_temp_path("v3_corruption.bin");
    store_.save_file(path_);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    // v3 segment framing for a meta-free tz store: u64 meta_count,
    // u64 blob_bytes, pad to the next 4096 file boundary, the offset
    // table (n+1 u64 byte offsets), pad, blob.
    ASSERT_EQ(u64_at(64), 0u) << "tz segment has no meta";
    blob_bytes_ = u64_at(72);
    offsets_pos_ = 4096;
    blob_pos_ = offsets_pos_ + 8 * (n_ + 1);
    blob_pos_ += (4096 - blob_pos_ % 4096) % 4096;
    ASSERT_EQ(offset_of(0), 0u);
    ASSERT_EQ(offset_of(n_), blob_bytes_);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::uint64_t u64_at(std::size_t pos) const {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos + i]))
           << (8 * i);
    }
    return x;
  }

  std::uint64_t offset_of(NodeId u) const {
    return u64_at(offsets_pos_ + 8 * u);
  }

  void write_file(const std::string& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  Graph graph_;
  SketchStore store_;
  std::string path_;
  std::string bytes_;
  NodeId n_ = 0;
  std::uint64_t blob_bytes_ = 0;
  std::size_t offsets_pos_ = 0;
  std::size_t blob_pos_ = 0;
};

TEST_F(StoreV3Corruption, HeapLoadFuzzTruncationAndBitFlipsAlwaysTyped) {
  // Same contract the v2 fuzz enforces: both checksums cover every byte,
  // so any flip or cut surfaces as a typed error on the strict path.
  for (std::size_t keep = 0; keep < bytes_.size(); keep += 101) {
    std::stringstream ss(bytes_.substr(0, keep));
    EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
        << "truncated to " << keep;
  }
  for (std::size_t pos = 0; pos < bytes_.size(); pos += 17) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] ^ 0x20);
    std::stringstream ss(mut);
    EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
        << "flip at " << pos;
  }
}

TEST_F(StoreV3Corruption, MmapOpenRejectsTruncation) {
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, std::size_t{63}, std::size_t{64},
        offsets_pos_ - 1, offsets_pos_ + 8 * (n_ / 2), blob_pos_ - 1,
        bytes_.size() - 1}) {
    write_file(bytes_.substr(0, keep));
    EXPECT_THROW(MmapSketchStore::open(path_), StoreCorruptionError)
        << "truncated to " << keep;
  }
}

TEST_F(StoreV3Corruption, MmapOpenRejectsBrokenOffsetTable) {
  // Swap two interior offsets: the table is no longer monotone, which
  // the eager framing walk must catch before any query runs.
  std::string mut = bytes_;
  for (int i = 0; i < 8; ++i) {
    std::swap(mut[offsets_pos_ + 8 * (n_ / 2) + i],
              mut[offsets_pos_ + 8 * (n_ / 2 + 1) + i]);
  }
  write_file(mut);
  try {
    MmapSketchStore::open(path_);
    FAIL() << "non-monotone offsets must not open";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
}

TEST_F(StoreV3Corruption, MmapOffsetAndBlobFlipsNeverReadOutOfBounds) {
  // Single-byte flips across the offset table and the blob. Each one
  // either fails the eager framing walk (typed throw) or opens and then
  // answers every probe without crashing — corrupt records answer
  // kInfDist, and ASan guards the decoder against any stray read.
  for (std::size_t pos = offsets_pos_; pos < bytes_.size(); pos += 131) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] ^ 0x11);
    write_file(mut);
    try {
      const auto mapped = MmapSketchStore::open(path_);
      for (NodeId u = 0; u < n_; u += 7) {
        for (NodeId v = 0; v < n_; v += 5) {
          (void)mapped->query(u, v);
        }
      }
    } catch (const StoreCorruptionError&) {
      // Typed rejection is equally acceptable.
    }
  }
}

TEST_F(StoreV3Corruption, RecoverQuarantinesTheDamagedRecord) {
  // Stomp one node's encoded record with continuation-bit garbage: the
  // strict load fails the checksum, recovery quarantines exactly that
  // node and keeps everyone else answering bit-identically.
  const NodeId victim = 5;
  const std::size_t begin = blob_pos_ + offset_of(victim);
  const std::size_t end = blob_pos_ + offset_of(victim + 1);
  ASSERT_LT(begin, end);
  std::string mut = bytes_;
  for (std::size_t i = begin; i < end; ++i) {
    mut[i] = static_cast<char>(0xff);
  }
  write_file(mut);

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = u; v < n_; v += 3) {
      if (u == victim || v == victim) continue;
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
    }
  }
  EXPECT_EQ(rec.store.query(victim, victim), 0u);
  for (NodeId v = 0; v < n_; ++v) {
    if (v != victim) EXPECT_EQ(rec.store.query(victim, v), kInfDist);
  }
}

TEST_F(StoreV3Corruption, RecoverQuarantinesTheTruncatedTail) {
  // Cut inside the second-to-last record: the nodes past the cut are
  // lost, the intact prefix serves.
  const std::size_t cut = blob_pos_ + offset_of(n_ - 2) + 1;
  write_file(bytes_.substr(0, cut));

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, (std::vector<NodeId>{n_ - 2, n_ - 1}));
  for (NodeId u = 0; u + 2 < n_; u += 2) {
    for (NodeId v = u; v + 2 < n_; v += 3) {
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
    }
  }
}

TEST_F(StoreV3Corruption, DecodeRecordMatchesHeapWordModel) {
  // A record decoded straight off the file is the heap store's label,
  // and the mapping's word model agrees with the heap store's.
  const auto mapped = MmapSketchStore::open(path_);
  const auto* blob = reinterpret_cast<const std::uint8_t*>(bytes_.data()) +
                     blob_pos_;
  for (NodeId u = 0; u < n_; ++u) {
    std::vector<DistKey> pivots;
    std::vector<BunchEntry> entries;
    const V3TzHeader h = decode_tz_record(blob + offset_of(u),
                                          blob + offset_of(u + 1), pivots,
                                          entries);
    ASSERT_TRUE(h.ok) << "node " << u;
    const LabelView decoded{u, h.levels, h.count, pivots.data(),
                            entries.data()};
    EXPECT_EQ(decoded.size_words(), store_.size_words(u)) << "node " << u;
    EXPECT_EQ(mapped->size_words(u), store_.size_words(u)) << "node " << u;
    EXPECT_EQ(store_.size_words(u), 2 * std::size_t{h.levels} +
                                        2 * std::size_t{h.count});
  }
}

// ---------------------------------------------------------------------------
// quarantined records: what recover_file leaves must answer kInfDist from
// the heap store and from the mapping, and keep doing so once saved.

TEST(StoreV3Quarantine, OlderBuildsEmptyTzRecordLoadsAndAnswersInf) {
  // The fixture's records 5 and 9 are the (0 levels, 0 entries) marker
  // older builds wrote; they load as k invalid pivots.
  const std::string path = fixture_path("tz_quarantined_v3.store");
  const SketchStore heap = SketchStore::load_file(path);
  const auto mapped = MmapSketchStore::open(path, /*verify_checksum=*/true);
  const SketchStore intact =
      SketchStore::load_file(fixture_path("tz_v3.store"));
  for (NodeId u = 0; u < heap.num_nodes(); ++u) {
    for (NodeId v = 0; v < heap.num_nodes(); ++v) {
      const bool quarantined = u == 5 || u == 9 || v == 5 || v == 9;
      const Dist want =
          u == v ? 0 : quarantined ? kInfDist : intact.query(u, v);
      ASSERT_EQ(heap.query(u, v), want) << u << "," << v;
      ASSERT_EQ(mapped->query(u, v), want) << u << "," << v;
    }
  }
  EXPECT_EQ(heap.size_words(5), 2 * std::size_t{heap.k()});
}

TEST(StoreV3Quarantine, TwoQuarantinedCdgNodesAnswerInf) {
  // Two quarantined cdg records share the invalid owner, so their tz
  // estimate is 0; only the infinite net distance keeps the sum from
  // wrapping to a finite answer. Graceful records are quarantined in
  // every level, so no level can answer for them either.
  for (const Scheme scheme : {Scheme::kCdg, Scheme::kGraceful}) {
    SCOPED_TRACE(scheme_name(scheme));
    std::string bytes = file_bytes(fixture_path(fixture_name(scheme, 3)));
    const auto u64_at = [&](std::size_t pos) {
      std::uint64_t x = 0;
      for (int i = 0; i < 8; ++i) {
        x |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes[pos + i]))
             << (8 * i);
      }
      return x;
    };
    const auto page = [](std::size_t pos) {
      return pos + (4096 - pos % 4096) % 4096;
    };
    const auto n = static_cast<NodeId>(u64_at(16) & 0xffffffffu);
    const auto segments = static_cast<std::uint32_t>(u64_at(24));
    // Walk the v3 segment framing (sketch_store.hpp) and stomp records 5
    // and 9 of every segment.
    std::size_t pos = 64;
    for (std::uint32_t s = 0; s < segments; ++s) {
      pos += 8 + 8 * u64_at(pos);  // meta
      const std::uint64_t blob_bytes = u64_at(pos);
      const std::size_t offsets = page(pos + 8);
      const std::size_t blob = page(offsets + 8 * (n + 1));
      for (const NodeId victim : {NodeId{5}, NodeId{9}}) {
        for (std::uint64_t i = u64_at(offsets + 8 * victim);
             i < u64_at(offsets + 8 * (victim + 1)); ++i) {
          bytes[blob + i] = static_cast<char>(0xff);
        }
      }
      pos = page(blob + blob_bytes);
    }
    const std::string path = unique_temp_path("cdg_quarantine.store");
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const SketchStore::Recovery rec = SketchStore::recover_file(path);
    ASSERT_EQ(rec.quarantined, (std::vector<NodeId>{5, 9}));
    rec.store.save_file(path);
    const SketchStore heap = SketchStore::load_file(path);
    const auto mapped = MmapSketchStore::open(path, /*verify_checksum=*/true);
    for (const DistanceOracle* oracle :
         {static_cast<const DistanceOracle*>(&rec.store),
          static_cast<const DistanceOracle*>(&heap),
          static_cast<const DistanceOracle*>(mapped.get())}) {
      EXPECT_EQ(oracle->query(5, 9), kInfDist);
      EXPECT_EQ(oracle->query(9, 5), kInfDist);
      EXPECT_EQ(oracle->query(5, 5), 0u);
      EXPECT_EQ(oracle->query(5, 0), kInfDist);
      EXPECT_EQ(oracle->query(0, 9), kInfDist);
    }
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace dsketch
