// SketchOracle, the build surface of the four sketch families: each
// scheme builds through the CONGEST simulator and answers within its
// guarantee. The suite is named Engine so its test ids stay stable.
#include "core/sketch_oracle.hpp"

#include <gtest/gtest.h>

#include "baselines/exact_oracle.hpp"
#include "graph/generators.hpp"

namespace dsketch {
namespace {

TEST(Engine, ThorupZwickScheme) {
  const Graph g = erdos_renyi(100, 0.06, {1, 9}, 3);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 3;
  const SketchOracle sketch(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      const Dist d = oracle.query(u, v);
      EXPECT_GE(sketch.query(u, v), d);
      EXPECT_LE(sketch.query(u, v), 5 * d);
    }
  }
  EXPECT_GT(sketch.cost().rounds, 0u);
  EXPECT_GT(sketch.mean_size_words(), 0.0);
  EXPECT_NE(sketch.guarantee().find("5"), std::string::npos);
}

TEST(Engine, SlackScheme) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 5);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.2;
  const SketchOracle sketch(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 7) {
      EXPECT_GE(sketch.query(u, v), oracle.query(u, v));
    }
  }
}

TEST(Engine, CdgScheme) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 7);
  BuildConfig cfg;
  cfg.scheme = Scheme::kCdg;
  cfg.epsilon = 0.25;
  cfg.k = 2;
  const SketchOracle sketch(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 7) {
      EXPECT_GE(sketch.query(u, v), oracle.query(u, v));
    }
  }
}

TEST(Engine, GracefulScheme) {
  const Graph g = erdos_renyi(64, 0.1, {1, 9}, 9);
  BuildConfig cfg;
  cfg.scheme = Scheme::kGraceful;
  const SketchOracle sketch(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 6) {
      EXPECT_GE(sketch.query(u, v), oracle.query(u, v));
    }
  }
  EXPECT_NE(sketch.guarantee().find("log"), std::string::npos);
}

TEST(Engine, EchoTerminationWorksThroughFacade) {
  const Graph g = erdos_renyi(60, 0.1, {1, 5}, 11);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  cfg.termination = TerminationMode::kEcho;
  const SketchOracle sketch(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 8) {
      const Dist d = oracle.query(u, v);
      EXPECT_GE(sketch.query(u, v), d);
      EXPECT_LE(sketch.query(u, v), 3 * d);
    }
  }
}

TEST(Engine, KnownSModeThroughFacade) {
  const Graph g = erdos_renyi(60, 0.1, {1, 5}, 13);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  cfg.termination = TerminationMode::kKnownS;
  const SketchOracle sketch(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 8) {
      const Dist d = oracle.query(u, v);
      EXPECT_GE(sketch.query(u, v), d);
      EXPECT_LE(sketch.query(u, v), 3 * d);
    }
  }
  // The padded deadlines make the reported cost the analytic bound.
  EXPECT_GT(sketch.cost().rounds, 1000u);
}

TEST(Engine, GuaranteeStringsMentionParameters) {
  const Graph g = ring(24, {1, 3}, 1);
  BuildConfig tz;
  tz.scheme = Scheme::kThorupZwick;
  tz.k = 4;
  EXPECT_NE(SketchOracle(g, tz).guarantee().find("7"), std::string::npos);
  BuildConfig cdg;
  cdg.scheme = Scheme::kCdg;
  cdg.k = 2;
  cdg.epsilon = 0.25;
  EXPECT_NE(SketchOracle(g, cdg).guarantee().find("15"), std::string::npos);
}

TEST(Engine, MoveSemantics) {
  const Graph g = ring(32, {1, 3}, 1);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.3;
  SketchOracle a(g, cfg);
  const Dist before = a.query(0, 16);
  SketchOracle b = std::move(a);
  EXPECT_EQ(b.query(0, 16), before);
}

}  // namespace
}  // namespace dsketch
