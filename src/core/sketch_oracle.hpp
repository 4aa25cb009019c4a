// The four paper sketch families (tz / slack / cdg / graceful) as one
// DistanceOracle implementation.
//
// SketchOracle owns exactly one of the four payloads per config().scheme
// and implements the polymorphic query/size/save surface over it; it is
// the one build surface for the sketch families:
//
//   Graph g = erdos_renyi(1024, 0.01, {1, 16}, /*seed=*/42);
//   SketchOracle oracle(g, BuildConfig{.scheme = Scheme::kThorupZwick,
//                                      .k = 3});
//   Dist estimate = oracle.query(3, 997);
//   oracle.cost().rounds;     // simulated CONGEST rounds spent building
//   oracle.size_words(3);     // sketch words stored at node 3
//
// save() writes the registry's text envelope; OracleRegistry::load reads
// it back. The payloads themselves stay private — the packed serving
// store (serve/sketch_store) is a friend so it can re-encode them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "congest/accounting.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/oracle_registry.hpp"
#include "graph/graph.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

class SketchStore;

/// Maps the CLI/bench flag surface (--k, --epsilon, --seed, --echo,
/// --known-s, --async) onto a BuildConfig for the given scheme; used by
/// every registered sketch factory so all consumers parse flags once,
/// identically.
BuildConfig sketch_build_config(Scheme scheme, const FlagSet& flags);

/// Worst-case guarantee string for a sketch family with parameters
/// filled in — shared by the in-memory oracle and the packed store so
/// the two representations of one scheme can never disagree.
std::string sketch_guarantee(Scheme scheme, std::uint32_t k, double epsilon);

/// Capabilities of a sketch family with the stretch bound resolved from
/// k; shared by SketchOracle and SketchStore.
Capabilities sketch_capabilities(Scheme scheme, std::uint32_t k);

/// One built sketch set of any of the four families.
class SketchOracle final : public DistanceOracle {
 public:
  /// Runs the distributed construction for config.scheme on g.
  SketchOracle(const Graph& g, const BuildConfig& config);

  // DistanceOracle interface.
  Dist query(NodeId u, NodeId v) const override;
  NodeId num_nodes() const override { return n_; }
  std::size_t size_words(NodeId u) const override;
  std::string scheme() const override { return scheme_name(config_.scheme); }
  std::string guarantee() const override;
  Capabilities capabilities() const override;
  /// Construction cost; nullptr for loaded sketches — the cost was paid
  /// by whoever built and is not persisted in the envelope.
  const SimStats* build_cost() const override {
    return cost_available_ ? &cost_ : nullptr;
  }

  /// The parameters this sketch was built (or loaded) with.
  const BuildConfig& config() const { return config_; }
  /// Total CONGEST cost of construction; zero for loaded sketches (see
  /// build_cost() for the availability-aware accessor).
  const SimStats& cost() const { return cost_; }

  /// Reconstructs from an envelope payload (the registered loader).
  static std::unique_ptr<SketchOracle> load_payload(
      std::istream& in, const OracleEnvelope& envelope);

 protected:
  void save_payload(std::ostream& out) const override;
  std::uint32_t envelope_k() const override { return config_.k; }
  double envelope_epsilon() const override { return config_.epsilon; }

 private:
  /// Packs the payloads into the binary serving arena.
  friend class SketchStore;

  SketchOracle() = default;  // used by load_payload()

  BuildConfig config_;
  /// False only for sketches loaded from pre-epsilon envelopes, whose
  /// config().epsilon is a default rather than the recorded build value;
  /// SketchStore::from_oracle carries that provenance into the store's
  /// epsilon_known() flag.
  bool epsilon_recorded_ = true;
  NodeId n_ = 0;
  SimStats cost_;
  bool cost_available_ = true;  ///< false for envelope-loaded sketches

  // Exactly one of these is populated, per config_.scheme.
  LabelArena tz_labels_;
  SlackSketchSet slack_;
  CdgSketchSet cdg_;
  GracefulSketchSet graceful_;
};

/// Registers the four sketch families ("tz", "slack", "cdg", "graceful").
void register_sketch_oracles(OracleRegistry& reg);

}  // namespace dsketch
