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
// it back. The payload (SketchPayload) stays private — the heap serving
// store (serve/sketch_store) is a friend so it can copy and encode it,
// and answers through the same SketchPayload::query.
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
#include "util/assert.hpp"

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

/// The data of one sketch set: exactly one member is populated, per
/// `scheme`. The one query and size dispatch over the four families,
/// shared by SketchOracle (which builds it) and the heap SketchStore
/// (which copies it from an oracle or decodes it from a store file).
struct SketchPayload {
  Scheme scheme = Scheme::kThorupZwick;
  LabelArena tz;
  SlackSketchSet slack;
  CdgSketchSet cdg;
  GracefulSketchSet graceful;

  Dist query(NodeId u, NodeId v) const {
    switch (scheme) {
      case Scheme::kThorupZwick:
        return tz_query(tz.view(u), tz.view(v));
      case Scheme::kSlack:
        return slack.query(u, v);
      case Scheme::kCdg:
        return cdg.query(u, v);
      case Scheme::kGraceful:
        return graceful.query(u, v);
    }
    return kInfDist;
  }
  /// The paper's word model: LabelView::size_words, plus 2 for a CDG
  /// prefix, 2 per net node for slack.
  std::size_t size_words(NodeId u) const;
  /// Bytes the populated member holds in memory.
  std::size_t resident_bytes() const;
};

/// One built sketch set of any of the four families.
class SketchOracle final : public DistanceOracle {
 public:
  /// Runs the distributed construction for config.scheme on g.
  SketchOracle(const Graph& g, const BuildConfig& config);

  // DistanceOracle interface.
  Dist query(NodeId u, NodeId v) const override {
    DS_CHECK(u < n_ && v < n_);
    return payload_.query(u, v);
  }
  NodeId num_nodes() const override { return n_; }
  std::size_t size_words(NodeId u) const override {
    DS_CHECK(u < n_);
    return payload_.size_words(u);
  }
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
  /// Copies the payload into the heap serving store.
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
  SketchPayload payload_;  ///< payload_.scheme == config_.scheme
};

/// Registers the four sketch families ("tz", "slack", "cdg", "graceful").
void register_sketch_oracles(OracleRegistry& reg);

}  // namespace dsketch
