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
// record coding: synthetic tz record with the wrinkles the coder must
// survive — invalid pivots, duplicate bunch nodes, non-monotone pivot
// distances (the post-repair shape zigzag deltas exist for).

std::vector<std::uint32_t> synthetic_tz_record() {
  std::vector<std::uint32_t> rec;
  const auto push_dist = [&](Dist d) {
    rec.push_back(static_cast<std::uint32_t>(d & 0xffffffffu));
    rec.push_back(static_cast<std::uint32_t>(d >> 32));
  };
  rec.push_back(3);  // levels
  rec.push_back(4);  // bunch count
  rec.push_back(7);                 // pivot 0
  push_dist(0);
  rec.push_back(kInvalidNode);      // pivot 1: invalid
  push_dist(kInfDist);
  rec.push_back(2);                 // pivot 2: distance *smaller* than p0's
  push_dist(5);
  // bunch sorted by (node, level); node 9 duplicated across levels.
  rec.push_back(4); rec.push_back(0); push_dist(11);
  rec.push_back(9); rec.push_back(0); push_dist(3);
  rec.push_back(9); rec.push_back(2); push_dist(3);
  rec.push_back(12); rec.push_back(1); push_dist((Dist{1} << 33) + 5);
  return rec;
}

TEST(RecordCodec, TzRoundTripsBitExactly) {
  const std::vector<std::uint32_t> rec = synthetic_tz_record();
  std::vector<std::uint8_t> bytes;
  encode_record_v3(Scheme::kThorupZwick, rec.data(), rec.size(), 0, bytes);
  std::vector<std::uint32_t> back;
  ASSERT_TRUE(decode_record_v3(Scheme::kThorupZwick, bytes.data(),
                               bytes.data() + bytes.size(), 0, back));
  EXPECT_EQ(back, rec);
  // The varint coding must actually compress vs the 4-bytes-per-word
  // fixed layout.
  EXPECT_LT(bytes.size(), rec.size() * 4);
}

TEST(RecordCodec, DecodeRejectsEveryTruncation) {
  const std::vector<std::uint32_t> rec = synthetic_tz_record();
  std::vector<std::uint8_t> bytes;
  encode_record_v3(Scheme::kThorupZwick, rec.data(), rec.size(), 0, bytes);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<std::uint32_t> back;
    EXPECT_FALSE(decode_record_v3(Scheme::kThorupZwick, bytes.data(),
                                  bytes.data() + keep, 0, back))
        << "kept " << keep << " of " << bytes.size();
    EXPECT_TRUE(back.empty());
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
    std::vector<std::uint32_t> back;
    decode_record_v3(Scheme::kThorupZwick, bytes.data(),
                     bytes.data() + bytes.size(), 0, back);
  }
}

// ---------------------------------------------------------------------------
// the file format end to end

BuildConfig config_for(Scheme scheme) {
  BuildConfig cfg;
  cfg.scheme = scheme;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  return cfg;
}

class StoreV3Schemes : public ::testing::TestWithParam<Scheme> {
 protected:
  StoreV3Schemes()
      : graph_(erdos_renyi(80, 0.08, {1, 9}, 17)),
        store_(SketchStore::from_oracle(
            SketchOracle(graph_, config_for(GetParam())))) {}

  Graph graph_;
  SketchStore store_;
};

TEST_P(StoreV3Schemes, V3RoundTripAnswersIdentically) {
  std::stringstream ss;
  store_.write(ss, StoreFormat::kV3);
  const SketchStore back = SketchStore::read(ss);
  EXPECT_EQ(back.scheme(), store_.scheme());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    for (NodeId v = u; v < graph_.num_nodes(); v += 3) {
      EXPECT_EQ(back.query(u, v), store_.query(u, v));
    }
  }
}

TEST_P(StoreV3Schemes, V2V3V2WriteIsByteIdentical) {
  // The coding is bijective on every structurally valid record, so a
  // store surviving a v3 round trip must re-emit the exact v2 bytes.
  std::stringstream v2a, v3, v2b;
  store_.write(v2a, StoreFormat::kV2);
  store_.write(v3, StoreFormat::kV3);
  SketchStore::read(v3).write(v2b, StoreFormat::kV2);
  EXPECT_EQ(v2a.str(), v2b.str());
}

TEST_P(StoreV3Schemes, MmapAnswersMatchHeapByteForByte) {
  const std::string path = unique_temp_path("v3_mmap.bin");
  store_.save_file(path, StoreFormat::kV3);
  const SketchStore heap = SketchStore::load_file(path);
  const auto mapped = MmapSketchStore::open(path, /*verify_checksum=*/true);
  EXPECT_EQ(mapped->scheme(), heap.scheme());
  EXPECT_EQ(mapped->num_nodes(), heap.num_nodes());
  EXPECT_EQ(mapped->num_segments(), heap.num_segments());
  EXPECT_EQ(mapped->k(), heap.k());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    EXPECT_EQ(mapped->size_words(u), heap.size_words(u)) << "node " << u;
    EXPECT_EQ(mapped->encoded_bytes_for(u), heap.encoded_record_bytes(u))
        << "node " << u;
    for (NodeId v = u; v < graph_.num_nodes(); v += 3) {
      EXPECT_EQ(mapped->query(u, v), heap.query(u, v))
          << "pair " << u << "," << v;
    }
  }
  std::filesystem::remove(path);
}

TEST_P(StoreV3Schemes, MmapRejectsLegacyFormats) {
  const std::string path = unique_temp_path("v2_for_mmap.bin");
  store_.save_file(path, StoreFormat::kV2);
  try {
    MmapSketchStore::open(path);
    FAIL() << "v2 file must not mmap-open";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kUnsupportedVersion);
  }
  std::filesystem::remove(path);
}

TEST_P(StoreV3Schemes, LegacyV2StillLoadsThroughTheHeapPath) {
  const std::string path = unique_temp_path("v2_compat.bin");
  store_.save_file(path, StoreFormat::kV2);
  const SketchStore back = SketchStore::load_file(path);
  for (NodeId u = 0; u < graph_.num_nodes(); u += 2) {
    for (NodeId v = u; v < graph_.num_nodes(); v += 5) {
      EXPECT_EQ(back.query(u, v), store_.query(u, v));
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Schemes, StoreV3Schemes,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

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
    store_.save_file(path_, StoreFormat::kV3);
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
  // The test hook: decoding a record off the mapping must yield words
  // whose tz size formula agrees with the heap store's accounting.
  const auto mapped = MmapSketchStore::open(path_);
  for (NodeId u = 0; u < n_; ++u) {
    const std::vector<std::uint32_t> words = mapped->decode_record(0, u);
    ASSERT_GE(words.size(), 2u) << "node " << u;
    const std::uint64_t levels = words[0];
    const std::uint64_t count = words[1];
    EXPECT_EQ(words.size(), 2 + 3 * levels + 4 * count) << "node " << u;
    EXPECT_EQ(store_.size_words(u), words.size()) << "node " << u;
  }
}

}  // namespace
}  // namespace dsketch
