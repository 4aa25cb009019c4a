// The registry + polymorphic round-trip contract: every registered
// oracle builds, answers, saves through the scheme-tagged envelope, and
// reloads to byte-identical answers — including the legacy pre-epsilon
// text-header vintage.
#include "core/oracle_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "baselines/exact_oracle.hpp"
#include "core/sketch_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/stretch_eval.hpp"
#include "temp_path.hpp"

namespace dsketch {
namespace {

Graph test_graph() { return erdos_renyi(60, 0.1, {1, 9}, 17); }

FlagSet test_flags() {
  return FlagSet({{"k", "2"}, {"epsilon", "0.25"}, {"landmarks", "6"},
                  {"rounds", "8"}, {"samples", "4"}});
}

TEST(OracleRegistry, BuiltinsRegistered) {
  const OracleRegistry& reg = OracleRegistry::instance();
  std::set<std::string> names;
  for (const OracleScheme* s : reg.schemes()) names.insert(s->name);
  for (const char* want :
       {"tz", "slack", "cdg", "graceful", "exact", "landmark", "vivaldi"}) {
    EXPECT_TRUE(names.count(want)) << "missing scheme: " << want;
  }
}

TEST(OracleRegistry, UnknownNameThrowsWithNameList) {
  const Graph g = test_graph();
  try {
    OracleRegistry::instance().build("nope", g, test_flags());
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("landmark"), std::string::npos);
  }
}

TEST(OracleRegistry, DuplicateRegistrationThrows) {
  OracleScheme dup;
  dup.name = "tz";
  dup.build = [](const Graph&, const FlagSet&) {
    return std::unique_ptr<DistanceOracle>();
  };
  EXPECT_THROW(OracleRegistry::instance().add(std::move(dup)),
               std::runtime_error);
}

class OracleRegistrySchemes
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OracleRegistrySchemes, BuildsAndAnswersSanely) {
  const Graph g = test_graph();
  const OracleScheme& scheme = OracleRegistry::instance().at(GetParam());
  const auto oracle = scheme.build(g, test_flags());
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->num_nodes(), g.num_nodes());
  EXPECT_EQ(oracle->scheme(), GetParam());
  EXPECT_FALSE(oracle->guarantee().empty());
  EXPECT_GT(oracle->mean_size_words(), 0.0);
  EXPECT_EQ(oracle->query(5, 5), 0u);
  const Capabilities caps = oracle->capabilities();
  if (caps.build_cost_available) {
    ASSERT_NE(oracle->build_cost(), nullptr);
    EXPECT_GT(oracle->build_cost()->rounds, 0u);
  }
  if (caps.exact) {
    const auto d = dijkstra(g, 3);
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      EXPECT_EQ(oracle->query(3, v), d[v]);
    }
  }
  if (caps.supports_paths) {
    // Witnessed-path estimates never undercut the true distance.
    const auto d = dijkstra(g, 1);
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      if (v == 1) continue;
      EXPECT_GE(oracle->query(1, v), d[v]) << "pair 1," << v;
    }
  }
}

TEST_P(OracleRegistrySchemes, QueryBatchMatchesQuery) {
  const Graph g = test_graph();
  const auto oracle =
      OracleRegistry::instance().build(GetParam(), g, test_flags());
  std::vector<QueryPair> pairs;
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = 1; v < g.num_nodes(); v += 7) pairs.emplace_back(u, v);
  }
  std::vector<Dist> batch(pairs.size());
  oracle->query_batch(pairs, batch);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch[i], oracle->query(pairs[i].first, pairs[i].second));
  }
}

TEST_P(OracleRegistrySchemes, EnvelopeRoundTripIsByteIdentical) {
  const Graph g = test_graph();
  const OracleScheme& scheme = OracleRegistry::instance().at(GetParam());
  const auto oracle = scheme.build(g, test_flags());
  ASSERT_TRUE(oracle->capabilities().supports_save);

  std::stringstream ss;
  oracle->save(ss);
  const LoadedOracle loaded = OracleRegistry::instance().load(ss);
  EXPECT_EQ(loaded.envelope.scheme, GetParam());
  EXPECT_EQ(loaded.envelope.n, g.num_nodes());
  EXPECT_TRUE(loaded.envelope.epsilon_recorded);
  ASSERT_NE(loaded.oracle, nullptr);
  EXPECT_EQ(loaded.oracle->num_nodes(), oracle->num_nodes());
  EXPECT_EQ(loaded.oracle->scheme(), oracle->scheme());
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u; v < g.num_nodes(); v += 4) {
      EXPECT_EQ(loaded.oracle->query(u, v), oracle->query(u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST_P(OracleRegistrySchemes, ServesThroughQueryService) {
  const Graph g = test_graph();
  const auto oracle =
      OracleRegistry::instance().build(GetParam(), g, test_flags());
  QueryService service(*oracle, {.shards = 4, .threads = 2,
                                 .cache_capacity = 64});
  std::vector<QueryService::Pair> pairs;
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    pairs.emplace_back(u, (u * 7 + 3) % g.num_nodes());
  }
  std::vector<Dist> answers(pairs.size());
  service.query_batch(pairs, answers);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], oracle->query(pairs[i].first, pairs[i].second));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, OracleRegistrySchemes,
                         ::testing::Values("tz", "slack", "cdg", "graceful",
                                           "exact", "landmark", "vivaldi"));

TEST(OracleEnvelope, LegacyPreEpsilonHeaderStillLoads) {
  // Files written before the epsilon header field have the payload magic
  // right after k; the envelope reader must flag epsilon as unrecorded
  // and the payload must still load to identical answers.
  const Graph g = test_graph();
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
  std::stringstream legacy(header + text.substr(nl));

  const LoadedOracle loaded = OracleRegistry::instance().load(legacy);
  EXPECT_FALSE(loaded.envelope.epsilon_recorded);
  EXPECT_EQ(loaded.envelope.scheme, "slack");
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 6) {
      EXPECT_EQ(loaded.oracle->query(u, v), built.query(u, v));
    }
  }
}

TEST(OracleEnvelope, FreshSavesAlwaysRecordEpsilon) {
  // The epsilon_known() wart is gone from the engine API because the
  // envelope now always carries epsilon on save — including schemes that
  // do not use it.
  const Graph g = test_graph();
  for (const char* name : {"tz", "graceful", "exact", "landmark"}) {
    const auto oracle =
        OracleRegistry::instance().build(name, g, test_flags());
    std::stringstream ss;
    oracle->save(ss);
    EXPECT_TRUE(read_envelope_header(ss).epsilon_recorded) << name;
  }
}

TEST(OracleEnvelope, RejectsInflatedNodeCountHeader) {
  // The payload carries its own record counts; an envelope n that
  // disagrees (corruption or a hand edit) must be rejected at load, or
  // the CLI's num_nodes()-based bounds check would wave through queries
  // that index past the loaded vectors.
  const Graph g = test_graph();
  for (const char* name : {"tz", "slack", "cdg", "graceful"}) {
    const auto oracle =
        OracleRegistry::instance().build(name, g, test_flags());
    std::stringstream ss;
    oracle->save(ss);
    std::string text = ss.str();
    const std::string n_token = " " + std::to_string(g.num_nodes()) + " ";
    const auto pos = text.find(n_token);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, n_token.size(),
                 " " + std::to_string(g.num_nodes() + 9) + " ");
    std::stringstream corrupted(text);
    EXPECT_THROW(OracleRegistry::instance().load(corrupted),
                 std::runtime_error)
        << name;
  }
}

TEST(OracleEnvelope, MalformedHeaderThrows) {
  for (const char* bad :
       {"", "bogus tz 10 2 0.1\n", "scheme tz\n", "scheme tz 10 2 junk\n"}) {
    std::stringstream ss(bad);
    EXPECT_THROW(read_envelope_header(ss), std::runtime_error) << bad;
  }
}

TEST(SketchStoreOracle, PacksFromOracleAndRejectsBaselines) {
  const Graph g = test_graph();
  const auto tz = OracleRegistry::instance().build("tz", g, test_flags());
  const SketchStore store = SketchStore::from_oracle(*tz);
  EXPECT_EQ(store.num_nodes(), g.num_nodes());
  EXPECT_EQ(store.scheme(), "tz");
  EXPECT_GT(store.mean_size_words(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(store.query(u, v), tz->query(u, v));
    }
  }
  // Re-packing the packed representation is a copy.
  const SketchStore again = SketchStore::from_oracle(store);
  EXPECT_EQ(again.num_nodes(), store.num_nodes());

  const auto landmark =
      OracleRegistry::instance().build("landmark", g, test_flags());
  EXPECT_THROW(SketchStore::from_oracle(*landmark), std::runtime_error);
}

TEST(SketchStoreOracle, LoadOracleRoundTrip) {
  const Graph g = test_graph();
  const auto tz = OracleRegistry::instance().build("tz", g, test_flags());
  const std::string path = unique_temp_path("store.bin");
  SketchStore::from_oracle(*tz).save_file(path);
  const std::unique_ptr<DistanceOracle> oracle =
      SketchStore::load_oracle(path);
  std::remove(path.c_str());
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->scheme(), "tz");
  EXPECT_TRUE(oracle->capabilities().supports_paths);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u; v < g.num_nodes(); v += 7) {
      EXPECT_EQ(oracle->query(u, v), tz->query(u, v));
    }
  }
}

TEST(EvaluateStretchOracle, SkipsPairsWithoutGroundTruth) {
  // Two disconnected rings: cross-component pairs have no finite ground
  // truth, so they must be skipped for every oracle — not scored as
  // stretch est/infinity for Vivaldi nor as "unreachable" noise for the
  // sketches.
  GraphBuilder b(24);
  for (NodeId u = 0; u < 12; ++u) b.add_edge(u, (u + 1) % 12, 2);
  for (NodeId u = 12; u < 24; ++u) {
    b.add_edge(u, u + 1 == 24 ? 12 : u + 1, 2);
  }
  const Graph g = b.build();
  const SampledGroundTruth gt(g, 6, 7);
  const auto exact =
      OracleRegistry::instance().build("exact", g, test_flags());
  const StretchReport r = evaluate_stretch(g, gt, *exact, {});
  EXPECT_GT(r.skipped_no_ground_truth, 0u);
  EXPECT_EQ(r.unreachable, 0u);
  EXPECT_EQ(r.underestimates, 0u);
  EXPECT_DOUBLE_EQ(r.max_stretch(), 1.0);

  // Vivaldi has no path support: without the skip its report would score
  // est/infinity on every cross-component pair. (The embedding itself is
  // still garbage on disconnected graphs — that is the baseline's
  // documented failure mode, not the evaluator's.)
  const auto vivaldi =
      OracleRegistry::instance().build("vivaldi", g, test_flags());
  const StretchReport rv = evaluate_stretch(g, gt, *vivaldi, {});
  EXPECT_EQ(rv.skipped_no_ground_truth, r.skipped_no_ground_truth);
  EXPECT_TRUE(std::isfinite(rv.max_stretch()));
}

}  // namespace
}  // namespace dsketch
