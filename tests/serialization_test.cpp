#include <gtest/gtest.h>

#include <sstream>

#include "core/oracle_registry.hpp"
#include "core/serialization.hpp"
#include "core/sketch_oracle.hpp"
#include "graph/generators.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

TEST(Serialization, TzLabelsRoundTrip) {
  const Graph g = erdos_renyi(60, 0.08, {1, 9}, 3);
  Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  while (!h.top_level_nonempty()) {
    h = Hierarchy::sample(g.num_nodes(), 3, 6);
  }
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  std::stringstream ss;
  write_tz_labels(ss, r.labels);
  const auto back = read_tz_labels(ss);
  ASSERT_EQ(back.num_nodes(), r.labels.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(back.view(u) == r.labels.view(u)) << "node " << u;
  }
}

TEST(Serialization, SlackRoundTrip) {
  const Graph g = ring(40, {1, 7}, 2);
  const auto r = build_slack_sketches(g, 0.25, 5);
  std::stringstream ss;
  write_slack_sketches(ss, r.sketches, g.num_nodes());
  const SlackSketchSet back = read_slack_sketches(ss);
  EXPECT_EQ(back.net(), r.sketches.net());
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(back.query(u, v), r.sketches.query(u, v));
    }
  }
}

TEST(Serialization, BadMagicRejected) {
  std::stringstream ss("garbage 5\n");
  EXPECT_THROW(read_tz_labels(ss), std::runtime_error);
  std::stringstream ss2("dsketch-tz-v1 2\n0 1\n");  // truncated words
  EXPECT_THROW(read_tz_labels(ss2), std::runtime_error);
}

class EngineRoundTrip : public ::testing::TestWithParam<Scheme> {};

TEST_P(EngineRoundTrip, SaveLoadAnswersIdentically) {
  const Graph g = erdos_renyi(70, 0.08, {1, 9}, 9);
  BuildConfig cfg;
  cfg.scheme = GetParam();
  cfg.k = 2;
  cfg.epsilon = 0.25;
  const SketchOracle built(g, cfg);
  std::stringstream ss;
  built.save(ss);
  const LoadedOracle loaded = OracleRegistry::instance().load(ss);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 4) {
      EXPECT_EQ(loaded.oracle->query(u, v), built.query(u, v));
    }
    EXPECT_EQ(loaded.oracle->size_words(u), built.size_words(u));
  }
  EXPECT_EQ(loaded.oracle->scheme(), scheme_name(cfg.scheme));
}

INSTANTIATE_TEST_SUITE_P(Schemes, EngineRoundTrip,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

TEST(Serialization, LoadedEngineRejectsGarbage) {
  std::stringstream ss("not a sketch file");
  EXPECT_THROW(OracleRegistry::instance().load(ss), std::runtime_error);
}

TEST(Serialization, HeaderPersistsEpsilonForFlagValidation) {
  const Graph g = ring(30, {1, 4}, 2);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.375;
  const SketchOracle built(g, cfg);
  std::stringstream ss;
  built.save(ss);
  const LoadedOracle loaded = OracleRegistry::instance().load(ss);
  const auto& sketch = dynamic_cast<const SketchOracle&>(*loaded.oracle);
  EXPECT_EQ(sketch.config().scheme, Scheme::kSlack);
  EXPECT_DOUBLE_EQ(sketch.config().epsilon, 0.375);
  EXPECT_EQ(sketch.num_nodes(), g.num_nodes());
}

TEST(Serialization, LoadsHeadersWithoutEpsilonField) {
  // Files written before the epsilon field carry only "scheme <s> <n> <k>".
  const Graph g = ring(20, {1, 3}, 4);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  const SketchOracle built(g, cfg);
  std::stringstream ss;
  built.save(ss);
  std::string text = ss.str();
  const auto nl = text.find('\n');
  std::string header = text.substr(0, nl);
  header.resize(header.rfind(' '));  // drop the epsilon token
  std::stringstream old_format(header + text.substr(nl));
  const LoadedOracle loaded = OracleRegistry::instance().load(old_format);
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    EXPECT_EQ(loaded.oracle->query(u, (u + 7) % g.num_nodes()),
              built.query(u, (u + 7) % g.num_nodes()));
  }
}

}  // namespace
}  // namespace dsketch
