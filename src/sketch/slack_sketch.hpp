// Stretch-3 ε-slack sketches (Theorem 4.3).
//
// Build an ε-density net N, then run the multi-source distributed
// Bellman–Ford with N as sources so every node learns d(u, w) for all
// w ∈ N. The sketch of u is the full vector of net distances
// (O((1/ε) log n) words); the estimate for (u, v) is
//   min_{w in N} d(u,w) + d(w,v),
// which is ≥ d(u,v) always and ≤ 3·d(u,v) whenever v is ε-far from u.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"

namespace dsketch {

class SlackSketchSet {
 public:
  SlackSketchSet() = default;
  SlackSketchSet(std::vector<NodeId> net, std::vector<std::vector<Dist>> dist)
      : net_(std::move(net)), dist_(std::move(dist)) {}

  const std::vector<NodeId>& net() const { return net_; }

  /// Nodes covered (rows of the distance table).
  std::size_t num_nodes() const { return dist_.size(); }

  /// Estimate d(u,v) from the two stored sketches only.
  Dist query(NodeId u, NodeId v) const;

  /// Words stored at node u: one (id, distance) pair per net node.
  std::size_t size_words(NodeId u) const {
    (void)u;
    return 2 * net_.size();
  }

  /// Node u's distances to the net nodes, in net() order.
  const std::vector<Dist>& row(NodeId u) const { return dist_[u]; }

 private:
  std::vector<NodeId> net_;
  std::vector<std::vector<Dist>> dist_;  ///< [node][net index]
};

struct SlackSketchResult {
  SlackSketchSet sketches;
  SimStats stats;
};

/// Distributed construction per Theorem 4.3.
SlackSketchResult build_slack_sketches(const Graph& g, double epsilon,
                                       std::uint64_t seed, SimConfig cfg = {});

}  // namespace dsketch
