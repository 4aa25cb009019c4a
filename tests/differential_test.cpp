// One differential harness over every representation of a sketch.
//
// The reference is the built SketchOracle. On every graph of a small
// seeded corpus (connected and not, n <= 512) and for all four schemes,
// each representation must answer every ordered pair exactly like it:
//   - the heap SketchStore from_oracle copies (SketchStoreSchemes);
//   - that store written as v3 and read back, from a stream and from a
//     file (SketchStoreSchemes, StoreV3Schemes);
//   - the same file served in place by MmapSketchStore (StoreV3Schemes);
//   - the text envelope, loaded back through the registry and stored;
//   - a bare TZ label arena behind TzLabelOracle (SketchStorePacking).
// The committed fixtures (store_fixtures.hpp) pin the file format: the
// v3 writer still produces the fixture bytes, and the v2 fixture loads,
// answers like the oracle and re-encodes to the v3 fixture byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle_registry.hpp"
#include "core/sketch_oracle.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "serve/mmap_store.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "store_fixtures.hpp"
#include "temp_path.hpp"

namespace dsketch {
namespace {

struct CorpusGraph {
  std::string name;
  Graph graph;
  bool connected = true;
};

/// Disjoint union of `parts` (ids offset in order) plus `isolated`
/// degree-zero nodes: the generators always add a connectivity backbone.
Graph disjoint_union(const std::vector<Graph>& parts, NodeId isolated) {
  std::vector<Edge> edges;
  NodeId offset = 0;
  for (const Graph& part : parts) {
    for (const Edge& e : part.edges()) {
      edges.push_back(Edge{offset + e.u, offset + e.v, e.weight});
    }
    offset += part.num_nodes();
  }
  return Graph::from_edges(offset + isolated, edges);
}

std::vector<CorpusGraph> corpus() {
  std::vector<CorpusGraph> graphs;
  graphs.push_back({"er160", erdos_renyi(160, 0.04, {1, 9}, 17)});
  graphs.push_back({"grid10x12", grid2d(10, 12, {1, 5}, 5)});
  graphs.push_back(
      {"two_components_plus_isolated",
       disjoint_union({erdos_renyi(60, 0.08, {1, 9}, 23),
                       erdos_renyi(45, 0.1, {1, 5}, 29)},
                      /*isolated=*/3),
       /*connected=*/false});
  return graphs;
}

/// Every ordered pair, u == v included, must get the reference's answer.
void expect_same_answers(const DistanceOracle& reference,
                         const DistanceOracle& candidate,
                         const std::string& what) {
  ASSERT_EQ(candidate.num_nodes(), reference.num_nodes()) << what;
  std::size_t mismatches = 0;
  for (NodeId u = 0; u < reference.num_nodes(); ++u) {
    for (NodeId v = 0; v < reference.num_nodes(); ++v) {
      const Dist want = reference.query(u, v);
      const Dist got = candidate.query(u, v);
      if (got != want && ++mismatches <= 3) {
        ADD_FAILURE() << what << ": pair " << u << "," << v << " answered "
                      << got << ", reference " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

/// The same sizes the reference reports, node by node.
void expect_same_sizes(const DistanceOracle& reference,
                       const DistanceOracle& candidate,
                       const std::string& what) {
  for (NodeId u = 0; u < reference.num_nodes(); ++u) {
    ASSERT_EQ(candidate.size_words(u), reference.size_words(u))
        << what << ": node " << u;
  }
}

std::string v3_bytes(const SketchStore& store) {
  std::stringstream ss;
  store.write(ss);
  return ss.str();
}

class Differential : public ::testing::TestWithParam<Scheme> {
 protected:
  /// Builds the scheme under test on every corpus graph and hands each
  /// oracle to `check`. The slack and graceful builds require a
  /// connected graph (every net distance must be learned).
  template <class Check>
  void for_each_build(Check check) {
    const bool needs_connected =
        GetParam() == Scheme::kSlack || GetParam() == Scheme::kGraceful;
    for (const CorpusGraph& c : corpus()) {
      if (needs_connected && !c.connected) continue;
      SCOPED_TRACE(c.name);
      const SketchOracle oracle(c.graph, fixture_config(GetParam()));
      check(oracle);
    }
  }
};

class SketchStoreSchemes : public Differential {};
class StoreV3Schemes : public Differential {};

TEST_P(SketchStoreSchemes, PackedQueriesMatchEngineBitIdentically) {
  for_each_build([](const SketchOracle& oracle) {
    const SketchStore store = SketchStore::from_oracle(oracle);
    expect_same_answers(oracle, store, "from_oracle");
    expect_same_sizes(oracle, store, "from_oracle");
  });
}

TEST_P(SketchStoreSchemes, BinaryRoundTripPreservesEverything) {
  for_each_build([](const SketchOracle& oracle) {
    const SketchStore store = SketchStore::from_oracle(oracle);
    std::stringstream ss;
    store.write(ss);
    const SketchStore back = SketchStore::read(ss);
    EXPECT_EQ(back.scheme(), store.scheme());
    EXPECT_EQ(back.num_nodes(), store.num_nodes());
    EXPECT_EQ(back.num_segments(), store.num_segments());
    EXPECT_EQ(back.k(), store.k());
    EXPECT_DOUBLE_EQ(back.epsilon(), store.epsilon());
    EXPECT_EQ(back.epsilon_known(), store.epsilon_known());
    EXPECT_EQ(back.payload_bytes(), store.payload_bytes());
    expect_same_answers(oracle, back, "v3 stream read-back");
    expect_same_sizes(oracle, back, "v3 stream read-back");
  });
}

TEST_P(SketchStoreSchemes, TextConvertersRoundTrip) {
  // The text path of `dsketch convert`: the registry envelope that
  // `dsketch build --save` writes, loaded back through the registry, must
  // answer like the built oracle and store into exactly its bytes.
  for_each_build([](const SketchOracle& oracle) {
    std::stringstream text;
    oracle.save(text);
    const LoadedOracle loaded = OracleRegistry::instance().load(text);
    ASSERT_NE(loaded.oracle, nullptr);
    expect_same_answers(oracle, *loaded.oracle, "text envelope");
    EXPECT_EQ(v3_bytes(SketchStore::from_oracle(*loaded.oracle)),
              v3_bytes(SketchStore::from_oracle(oracle)));
  });
}

TEST_P(StoreV3Schemes, V3RoundTripAnswersIdentically) {
  for_each_build([](const SketchOracle& oracle) {
    const std::string path = unique_temp_path("v3_round_trip.store");
    const SketchStore store = SketchStore::from_oracle(oracle);
    store.save_file(path);
    const SketchStore back = SketchStore::load_file(path);
    expect_same_answers(oracle, back, "v3 file read-back");
    // Decoding and re-encoding is the identity on the file bytes.
    EXPECT_EQ(v3_bytes(back), file_bytes(path));
    std::filesystem::remove(path);
  });
}

TEST_P(StoreV3Schemes, MmapAnswersMatchHeapByteForByte) {
  for_each_build([](const SketchOracle& oracle) {
    const std::string path = unique_temp_path("v3_mmap.store");
    SketchStore::from_oracle(oracle).save_file(path);
    const SketchStore heap = SketchStore::load_file(path);
    const auto mapped = MmapSketchStore::open(path, /*verify_checksum=*/true);
    EXPECT_EQ(mapped->scheme(), heap.scheme());
    EXPECT_EQ(mapped->num_segments(), heap.num_segments());
    EXPECT_EQ(mapped->k(), heap.k());
    expect_same_answers(oracle, *mapped, "mmap");
    expect_same_sizes(oracle, *mapped, "mmap");
    for (NodeId u = 0; u < heap.num_nodes(); ++u) {
      ASSERT_EQ(mapped->encoded_bytes_for(u), heap.encoded_record_bytes(u))
          << "node " << u;
    }
    std::filesystem::remove(path);
  });
}

TEST_P(StoreV3Schemes, V2V3V2WriteIsByteIdentical) {
  // The file format is pinned by the fixtures: today's writer produces
  // the committed v3 bytes from the same build, and the committed v2
  // file (same build, legacy word format) re-encodes to them exactly.
  const Scheme scheme = GetParam();
  const std::string v3 = file_bytes(fixture_path(fixture_name(scheme, 3)));
  ASSERT_FALSE(v3.empty());
  const SketchOracle oracle(fixture_graph(), fixture_config(scheme));
  EXPECT_EQ(v3_bytes(SketchStore::from_oracle(oracle)), v3);
  EXPECT_EQ(v3_bytes(SketchStore::load_file(
                fixture_path(fixture_name(scheme, 2)))),
            v3);
  EXPECT_EQ(v3_bytes(SketchStore::load_file(
                fixture_path(fixture_name(scheme, 3)))),
            v3);
}

TEST_P(StoreV3Schemes, MmapRejectsLegacyFormats) {
  try {
    MmapSketchStore::open(fixture_path(fixture_name(GetParam(), 2)));
    FAIL() << "v2 file must not mmap-open";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kUnsupportedVersion);
  }
}

TEST_P(StoreV3Schemes, LegacyV2StillLoadsThroughTheHeapPath) {
  // v2 files are read-only, through every reader: load, and the salvage
  // path (which finds nothing to quarantine in an intact file).
  const Scheme scheme = GetParam();
  const std::string v2 = fixture_path(fixture_name(scheme, 2));
  const SketchOracle oracle(fixture_graph(), fixture_config(scheme));
  const SketchStore loaded = SketchStore::load_file(v2);
  EXPECT_EQ(loaded.store_scheme(), scheme);
  EXPECT_EQ(loaded.k(), 2u);
  expect_same_answers(oracle, loaded, "v2 fixture");
  expect_same_sizes(oracle, loaded, "v2 fixture");
  const SketchStore::Recovery rec = SketchStore::recover_file(v2);
  EXPECT_TRUE(rec.checksum_ok);
  EXPECT_TRUE(rec.quarantined.empty());
  expect_same_answers(oracle, rec.store, "v2 fixture, recover_file");
}

INSTANTIATE_TEST_SUITE_P(Schemes, SketchStoreSchemes,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));
INSTANTIATE_TEST_SUITE_P(Schemes, StoreV3Schemes,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

LabelArena centralized_labels(const Graph& g, std::uint32_t k,
                              std::uint64_t seed) {
  Hierarchy h = Hierarchy::sample(g.num_nodes(), k, seed);
  for (std::uint64_t bump = 1; !h.top_level_nonempty(); ++bump) {
    h = Hierarchy::sample(g.num_nodes(), k, seed + bump);
  }
  return build_tz_centralized(g, h);
}

TEST(SketchStorePacking, TzLabelOraclePacksAndAnswersIdentically) {
  // A bare TZ label set (the distributed build's output, or a dynamic
  // sketch snapshot) is a tz payload: the store copies it, answers like
  // it, and keeps doing so through the v3 file and the mapping.
  const std::uint32_t k = 3;
  for (const CorpusGraph& c : corpus()) {
    SCOPED_TRACE(c.name);
    const TzLabelOracle oracle(centralized_labels(c.graph, k, 42), k);
    ASSERT_TRUE(SketchStore::packable(oracle));
    const SketchStore store = SketchStore::from_oracle(oracle);
    EXPECT_EQ(store.scheme(), "tz");
    EXPECT_EQ(store.store_scheme(), Scheme::kThorupZwick);
    EXPECT_EQ(store.k(), k);
    // A label set records no build epsilon; the store must not invent one.
    EXPECT_FALSE(store.epsilon_known());
    expect_same_answers(oracle, store, "TzLabelOracle store");
    expect_same_sizes(oracle, store, "TzLabelOracle store");
    const std::string path = unique_temp_path("tz_labels.store");
    store.save_file(path);
    expect_same_answers(oracle, SketchStore::load_file(path),
                        "TzLabelOracle v3 read-back");
    expect_same_answers(oracle, *MmapSketchStore::open(path),
                        "TzLabelOracle mmap");
    std::filesystem::remove(path);
  }
}

TEST(SketchStorePacking, TzLabelStoreSurvivesBinaryRoundTrip) {
  const Graph g = grid2d(6, 6, {1, 5}, 43);
  const std::uint32_t k = 2;
  const TzLabelOracle oracle(centralized_labels(g, k, 44), k);
  const SketchStore store = SketchStore::from_oracle(oracle);
  std::stringstream ss;
  store.write(ss);
  const SketchStore back = SketchStore::read(ss);
  EXPECT_EQ(back.scheme(), "tz");
  EXPECT_EQ(back.k(), k);
  EXPECT_FALSE(back.epsilon_known());
  expect_same_answers(oracle, back, "TzLabelOracle stream read-back");
}

TEST(SketchStorePacking, TzLabelOracleWithForeignKWritesTheLabelsK) {
  // A label set wrapped with a k other than its own level count: the
  // store records the labels' k, so the file it writes loads again.
  const Graph g = grid2d(6, 6, {1, 5}, 45);
  const TzLabelOracle oracle(centralized_labels(g, 3, 46), 2);
  const SketchStore store = SketchStore::from_oracle(oracle);
  EXPECT_EQ(store.k(), 3u);
  const std::string path = unique_temp_path("tz_foreign_k.store");
  store.save_file(path);
  const SketchStore back = SketchStore::load_file(path);
  EXPECT_EQ(back.k(), 3u);
  expect_same_answers(oracle, back, "foreign-k v3 read-back");
  expect_same_answers(oracle, *MmapSketchStore::open(path), "foreign-k mmap");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dsketch
