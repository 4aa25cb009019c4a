#include "serve/sketch_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/oracle_registry.hpp"
#include "core/sketch_oracle.hpp"
#include "graph/generators.hpp"
#include "store_fixtures.hpp"
#include "temp_path.hpp"

namespace dsketch {
namespace {

/// FNV-1a 64 over bytes[begin, end), the store's checksum.
std::uint64_t fnv(const std::string& bytes, std::size_t begin,
                  std::size_t end) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = begin; i < end; ++i) {
    hash ^= static_cast<std::uint8_t>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t u64_at(const std::string& bytes, std::size_t pos) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return x;
}

void patch_u32(std::string& bytes, std::size_t pos, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    bytes[pos + i] = static_cast<char>((x >> (8 * i)) & 0xff);
  }
}

/// Re-forges both checksums of a v2/v3 file after a crafted edit: the
/// payload's (stored at byte 48, inside the checksummed header span
/// [8, 56)) and then the header's own.
void reforge_checksums(std::string& bytes) {
  const auto patch_u64 = [&](std::size_t pos, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      bytes[pos + i] = static_cast<char>((x >> (8 * i)) & 0xff);
    }
  };
  patch_u64(48, fnv(bytes, 64, bytes.size()));
  patch_u64(56, fnv(bytes, 8, 56));
}

/// Byte position of tz record u's first word in a v2 file: 64-byte
/// header, then meta_count(8) + offsets_count(8) + offsets(8*(n+1)) +
/// arena_count(8), then the u32 arena.
std::size_t v2_record_pos(const std::string& bytes, NodeId n, NodeId u) {
  const std::size_t arena_start = 64 + 8 + 8 + 8 * (n + 1) + 8;
  return arena_start + 4 * u64_at(bytes, 64 + 16 + 8 * u);
}

class SketchStoreCorruption : public ::testing::Test {
 protected:
  std::string valid_bytes() {
    const Graph g = erdos_renyi(40, 0.1, {1, 5}, 3);
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = 2;
    std::stringstream ss;
    SketchStore::from_oracle(SketchOracle(g, cfg)).write(ss);
    return ss.str();
  }
};

TEST_F(SketchStoreCorruption, RejectsBadMagic) {
  std::string bytes = valid_bytes();
  bytes[0] = 'X';
  std::stringstream ss(bytes);
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsUnsupportedVersion) {
  std::string bytes = valid_bytes();
  bytes[8] = 99;  // version lives right after the 8-byte magic
  std::stringstream ss(bytes);
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsPayloadBitFlip) {
  std::string bytes = valid_bytes();
  bytes[bytes.size() - 1] ^= 0x40;  // checksum no longer matches
  std::stringstream ss(bytes);
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsTruncation) {
  const std::string bytes = valid_bytes();
  for (const std::size_t keep : {std::size_t{4}, std::size_t{40},
                                 bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream ss(bytes.substr(0, keep));
    EXPECT_THROW(SketchStore::read(ss), std::runtime_error) << keep << " bytes";
  }
}

TEST_F(SketchStoreCorruption, RejectsEmptyStream) {
  std::stringstream ss;
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsChecksumValidStructuralCorruption) {
  // The checksum only detects accidental corruption; a crafted file can
  // recompute it. Inflate the first TZ record's level count in the v2
  // fixture and patch the checksums: the record decoder must still
  // reject the file (otherwise the first query would read out of
  // bounds). StoreV3Corruption covers the v3 equivalent.
  std::string bytes = file_bytes(fixture_path("tz_v2.store"));
  const NodeId n = static_cast<NodeId>(u64_at(bytes, 16) & 0xffffffffu);
  const std::size_t levels_pos = v2_record_pos(bytes, n, 0);
  ASSERT_LT(levels_pos + 4, bytes.size());
  bytes[levels_pos] = static_cast<char>(0xEE);  // levels = huge
  reforge_checksums(bytes);
  std::stringstream ss(bytes);
  try {
    SketchStore::read(ss);
    FAIL() << "a structurally broken record must not load";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
}

TEST_F(SketchStoreCorruption, RejectsTzRecordWithForeignLevelCount) {
  // A tz record must carry the store's k levels. Re-shape one record of
  // the v2 fixture (k = 2) into 6 levels and 3 fewer entries: the same
  // word length, so it is a well-formed word record, but not a label of
  // this store. The strict load fails closed; recovery quarantines just
  // that node.
  std::string bytes = file_bytes(fixture_path("tz_v2.store"));
  const NodeId n = static_cast<NodeId>(u64_at(bytes, 16) & 0xffffffffu);
  NodeId victim = n;
  for (NodeId u = 0; u < n && victim == n; ++u) {
    const std::size_t pos = v2_record_pos(bytes, n, u);
    if (static_cast<std::uint8_t>(bytes[pos + 4]) >= 3) victim = u;
  }
  ASSERT_LT(victim, n) << "no record with 3 bunch entries";
  const std::size_t pos = v2_record_pos(bytes, n, victim);
  const auto count = static_cast<std::uint32_t>(
      static_cast<std::uint8_t>(bytes[pos + 4]));
  patch_u32(bytes, pos, 6);
  patch_u32(bytes, pos + 4, count - 3);
  reforge_checksums(bytes);
  std::stringstream ss(bytes);
  try {
    SketchStore::read(ss);
    FAIL() << "a record with foreign level count must not load";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
  const std::string path = unique_temp_path("foreign_levels.store");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const SketchStore::Recovery rec = SketchStore::recover_file(path);
  EXPECT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  for (NodeId v = 0; v < n; ++v) {
    if (v != victim) {
      EXPECT_EQ(rec.store.query(victim, v), kInfDist);
    }
  }
  std::filesystem::remove(path);
}

TEST_F(SketchStoreCorruption, FuzzTruncationAndBitFlipsAlwaysTyped) {
  // Regression fuzz: every truncation point and every sampled single-bit
  // flip must surface as a typed StoreCorruptionError — never a crash, an
  // out-of-bounds read, or a silently wrong store. Both checksums (header
  // and payload) together cover every byte of the file, so no flip can
  // escape detection.
  const std::string bytes = valid_bytes();
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::stringstream ss(bytes.substr(0, keep));
    EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
        << "truncated to " << keep << " bytes";
  }
  for (std::size_t pos = 0; pos < bytes.size(); pos += 3) {
    for (const int bit : {0, 6}) {
      std::string mut = bytes;
      mut[pos] = static_cast<char>(mut[pos] ^ (1 << bit));
      std::stringstream ss(mut);
      EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
          << "bit " << bit << " flipped at byte " << pos;
    }
  }
}

class SketchStoreRecovery : public ::testing::Test {
 protected:
  // A TZ store on disk plus the byte-level map needed to aim corruption at
  // a specific node record.
  void SetUp() override {
    // The tz v2 fixture: the byte-offset map below is the fixed-width v2
    // layout, so these tests double as legacy-format recovery coverage
    // (store_v3_test has the v3 counterparts).
    store_ = SketchStore::load_file(fixture_path("tz_v2.store"));
    bytes_ = file_bytes(fixture_path("tz_v2.store"));
    path_ = unique_temp_path("recovery.bin");
    write_file(bytes_);
    // v2 file: 64-byte header, then tz payload meta_count(8) +
    // offsets_count(8) + offsets(8*(n+1)) + arena_count(8) + arena.
    n_ = store_.num_nodes();
    arena_start_ = 64 + 8 + 8 + 8 * (n_ + 1) + 8;
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::uint64_t offset_of(NodeId u) const {
    const std::size_t pos = 64 + 16 + 8 * u;
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos + i]))
           << (8 * i);
    }
    return x;
  }

  void write_file(const std::string& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  SketchStore store_;
  std::string path_;
  std::string bytes_;
  NodeId n_ = 0;
  std::size_t arena_start_ = 0;
};

TEST_F(SketchStoreRecovery, IntactFileRecoversWithChecksumOk) {
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_TRUE(rec.checksum_ok);
  EXPECT_TRUE(rec.quarantined.empty());
  for (NodeId u = 0; u < n_; u += 3) {
    for (NodeId v = u; v < n_; v += 5) {
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
    }
  }
}

TEST_F(SketchStoreRecovery, QuarantinesBrokenRecordAndServesTheRest) {
  // Blow up node 5's record structure (levels count inflated far past the
  // record's actual extent). The strict load must reject the file; the
  // recovery path must quarantine exactly node 5 and keep everyone else
  // answering bit-identically.
  const NodeId victim = 5;
  std::string mut = bytes_;
  const std::size_t levels_pos = arena_start_ + 4 * offset_of(victim);
  mut[levels_pos] = static_cast<char>(0xE8);
  mut[levels_pos + 1] = static_cast<char>(0x03);  // levels = 1000
  write_file(mut);

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = u; v < n_; v += 3) {
      if (u == victim || v == victim) continue;
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v))
          << "pair " << u << "," << v;
    }
  }
  // The quarantined node answers the safe "don't know", never a wrong
  // finite distance.
  EXPECT_EQ(rec.store.query(victim, victim), 0u);
  for (NodeId v = 0; v < n_; ++v) {
    if (v != victim) EXPECT_EQ(rec.store.query(victim, v), kInfDist);
  }
}

TEST_F(SketchStoreRecovery, TruncatedArenaQuarantinesTheLostTail) {
  // Chop the file inside the second-to-last record: the nodes whose
  // records fall past the cut are quarantined, the intact prefix serves.
  const std::size_t cut = arena_start_ + 4 * offset_of(n_ - 2) + 2;
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

TEST_F(SketchStoreRecovery, HeaderDamageIsUnrecoverable) {
  std::string mut = bytes_;
  mut[2] = 'X';  // inside the magic
  write_file(mut);
  EXPECT_THROW(SketchStore::recover_file(path_), StoreCorruptionError);
}

TEST(SketchStoreRecoveryGraceful, TailTruncationKeepsEarlierLevels) {
  // Graceful stores hold one segment per epsilon level; each level alone
  // is a complete (coarser) oracle. Cutting the file inside the last
  // segment must still recover a serving store whose answers are valid
  // overestimates of the original's.
  const Graph g = erdos_renyi(40, 0.1, {1, 5}, 7);
  BuildConfig cfg;
  cfg.scheme = Scheme::kGraceful;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  const SketchStore store = SketchStore::from_oracle(SketchOracle(g, cfg));
  ASSERT_GE(store.num_segments(), 2u);
  const std::string path = unique_temp_path("graceful_rec.bin");
  store.save_file(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  out.close();

  const SketchStore::Recovery rec = SketchStore::recover_file(path);
  EXPECT_FALSE(rec.checksum_ok);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u; v < g.num_nodes(); v += 4) {
      EXPECT_GE(rec.store.query(u, v), store.query(u, v));
    }
  }
  std::filesystem::remove(path);
}

/// Names in `dir` other than `keep`: what a save left behind.
std::vector<std::string> leftovers(const std::string& dir,
                                   const std::string& keep) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name != keep) names.push_back(name);
  }
  return names;
}

TEST(SketchStoreAtomicSave, OverwriteLeavesNoTempAndOldOrNewStore) {
  // save_file over an existing store must go through the temp+rename
  // dance: afterwards no temp file is left and the target parses clean.
  const Graph g = ring(20, {1, 3}, 11);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  const SketchStore store = SketchStore::from_oracle(SketchOracle(g, cfg));
  const std::string dir = unique_temp_path("atomic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/store.bin";
  store.save_file(path);
  store.save_file(path);  // overwrite in place
  EXPECT_TRUE(leftovers(dir, "store.bin").empty()) << "temp file left behind";
  const SketchStore back = SketchStore::load_file(path);
  EXPECT_EQ(back.num_nodes(), store.num_nodes());
  std::filesystem::remove_all(dir);
}

TEST(SketchStoreAtomicSave, ConcurrentSavesToOnePathNeverTear) {
  // Two writers publish different stores to one path at the same time.
  // Each save must write a temp file of its own, so whichever rename
  // lands last leaves one complete store, byte for byte, and no temp
  // file survives either writer.
  const Graph g = erdos_renyi(300, 0.03, {1, 9}, 13);
  BuildConfig tz;
  tz.scheme = Scheme::kThorupZwick;
  tz.k = 2;
  BuildConfig slack;
  slack.scheme = Scheme::kSlack;
  slack.epsilon = 0.25;
  const SketchStore a = SketchStore::from_oracle(SketchOracle(g, tz));
  const SketchStore b = SketchStore::from_oracle(SketchOracle(g, slack));
  std::stringstream a_bytes;
  std::stringstream b_bytes;
  a.write(a_bytes);
  b.write(b_bytes);
  ASSERT_NE(a_bytes.str(), b_bytes.str());

  const std::string dir = unique_temp_path("concurrent");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/store.bin";
  const auto saves = [&path](const SketchStore& store) {
    try {
      for (int i = 0; i < 4; ++i) store.save_file(path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "concurrent save failed: " << e.what();
    }
  };
  for (int round = 0; round < 8; ++round) {
    std::thread writer_a(saves, std::cref(a));
    std::thread writer_b(saves, std::cref(b));
    writer_a.join();
    writer_b.join();
    const std::string bytes = file_bytes(path);
    EXPECT_TRUE(bytes == a_bytes.str() || bytes == b_bytes.str())
        << "round " << round << ": the published store is torn";
    const SketchStore back = SketchStore::load_file(path);
    const SketchStore& expected = back.scheme() == "tz" ? a : b;
    for (NodeId u = 0; u < g.num_nodes(); u += 7) {
      for (NodeId v = u; v < g.num_nodes(); v += 11) {
        EXPECT_EQ(back.query(u, v), expected.query(u, v));
      }
    }
    EXPECT_TRUE(leftovers(dir, "store.bin").empty())
        << "round " << round << ": temp file left behind";
  }
  std::filesystem::remove_all(dir);
}

TEST(SketchStoreProvenance, UnknownEpsilonSurvivesConversion) {
  // A pre-epsilon text file must not come out of conversion (registry
  // load, then pack) with a fabricated epsilon claim, and the binary
  // store must keep the claim cleared through write/read.
  const Graph g = ring(24, {1, 3}, 6);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.25;
  const SketchOracle built(g, cfg);
  std::stringstream ss;
  built.save(ss);
  std::string text = ss.str();
  const auto nl = text.find('\n');
  std::string header = text.substr(0, nl);
  header.resize(header.rfind(' '));  // strip the epsilon token
  std::stringstream old_format(header + text.substr(nl));

  const SketchStore store = SketchStore::from_oracle(
      *OracleRegistry::instance().load(old_format).oracle);
  EXPECT_FALSE(store.epsilon_known());
  std::stringstream bin;
  store.write(bin);
  const SketchStore reloaded = SketchStore::read(bin);
  EXPECT_FALSE(reloaded.epsilon_known());

  // A normally saved sketch keeps its recorded epsilon through the same
  // trip.
  std::stringstream fresh;
  built.save(fresh);
  const SketchStore recorded = SketchStore::from_oracle(
      *OracleRegistry::instance().load(fresh).oracle);
  EXPECT_TRUE(recorded.epsilon_known());
  EXPECT_DOUBLE_EQ(recorded.epsilon(), 0.25);
}

TEST(SketchStoreFiles, SaveAndLoadFile) {
  const Graph g = ring(30, {1, 4}, 5);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.3;
  const SketchOracle built(g, cfg);
  const SketchStore store = SketchStore::from_oracle(built);
  const std::string path = unique_temp_path("store.bin");
  store.save_file(path);
  const SketchStore back = SketchStore::load_file(path);
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u; v < g.num_nodes(); v += 3) {
      EXPECT_EQ(back.query(u, v), built.query(u, v));
    }
  }
  EXPECT_THROW(SketchStore::load_file(path + ".missing"), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dsketch
