// Thorup–Zwick label (sketch) representation and the O(k) query procedure —
// the "label plane".
//
// A label L(u) stores, for each level i in [0, k):
//   - the pivot p_i(u): the node of A_i nearest to u, with its distance;
//   - the bunch slice B_i(u) = { w in A_i : key(u,w) < key(u, A_{i+1}) },
//     with exact distances.
// "Nearest" everywhere means minimal *key* (distance, node id) — the paper's
// "breaking ties consistently through processor IDs" made concrete. Using
// keys makes the label set a deterministic function of the hierarchy, so the
// distributed and centralized constructions must agree exactly (tested).
//
// Representation is split by mutability:
//   - TzLabelBuilder: the only mutable form. Constructions accumulate pivots
//     and bunch entries here (plain vectors, no per-label hash map), then
//     finalize into an arena. sort_bunch() canonicalizes entries by
//     (node id, level), the order every immutable consumer assumes.
//   - LabelView: an immutable (pivots ptr, bunch ptr, count) triple over
//     contiguous storage. Queries, the store codec, and serialization all
//     walk views; membership tests are branch-light binary searches and the
//     exhaustive query is a sorted-merge intersection. A view never owns —
//     it is invalidated by any mutation of the storage behind it.
//   - LabelArena: owns every label of one build as three flat vectors
//     (pivots, entries, per-node slots). This is what crosses layer
//     boundaries (build -> oracle -> store -> serve): handing an arena
//     around moves three buffers instead of deep-copying n heap objects.
//     Repair mutates in place (distances only tighten) or replaces one
//     node's slice; every mutation bumps the arena generation so serving
//     snapshots can detect staleness.
//
// The query (Lemma 3.2) walks levels i = 0, 1, ... and returns
//   d(u, p_i(u)) + d(v, p_i(u))   for the first i with p_i(u) in B(v)
// (checking both orientations each level), guaranteeing stretch 2k-1.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dsketch {

/// (distance, id) lexicographic key; the library-wide tie-break rule.
struct DistKey {
  Dist dist = kInfDist;
  NodeId id = kInvalidNode;

  friend bool operator<(const DistKey& a, const DistKey& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator==(const DistKey& a, const DistKey& b) {
    return a.dist == b.dist && a.id == b.id;
  }
};

/// One bunch entry: node w (member of A_level) at exact distance dist.
struct BunchEntry {
  NodeId node;
  std::uint32_t level;
  Dist dist;

  friend bool operator==(const BunchEntry& a, const BunchEntry& b) {
    return a.node == b.node && a.level == b.level && a.dist == b.dist;
  }
};

/// Immutable view of one label: a (pivots ptr, bunch ptr, count) triple
/// over contiguous storage (a LabelArena slice, a builder's vectors, or a
/// decoded store record). Bunch entries are sorted by (node id, level);
/// the view is only valid while the backing storage is alive and
/// unmutated.
struct LabelView {
  NodeId owner = kInvalidNode;
  std::uint32_t levels = 0;
  std::uint32_t count = 0;
  const DistKey* pivots = nullptr;
  const BunchEntry* bunch = nullptr;

  const DistKey& pivot(std::uint32_t level) const { return pivots[level]; }

  /// Distance to w if w is in the bunch, kInfDist otherwise. Three-way
  /// binary search over the node-sorted entries that stops at the first
  /// hit; duplicates (one node at several levels) carry the same
  /// distance, so any of them answers.
  Dist bunch_dist(NodeId w) const {
    std::uint32_t lo = 0, hi = count;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const NodeId node = bunch[mid].node;
      if (node < w) {
        lo = mid + 1;
      } else if (node > w) {
        hi = mid;
      } else {
        return bunch[mid].dist;
      }
    }
    return kInfDist;
  }
  bool bunch_contains(NodeId w) const { return bunch_dist(w) != kInfDist; }

  /// Size in words as stored at a node: per level one (pivot id, distance)
  /// pair, per bunch entry one (id, distance) pair. Level indices are
  /// derivable and not charged, matching the paper's accounting.
  std::size_t size_words() const {
    return 2 * static_cast<std::size_t>(levels) +
           2 * static_cast<std::size_t>(count);
  }

  /// Deep (content) equality — owner, pivots, and entries.
  friend bool operator==(const LabelView& a, const LabelView& b);
};

/// Mutable label under construction or repair. Plain vectors, no index;
/// finalize with sort_bunch() before taking a view() or moving into a
/// LabelArena.
class TzLabelBuilder {
 public:
  TzLabelBuilder() = default;
  TzLabelBuilder(NodeId owner, std::uint32_t k) : owner_(owner), pivots_(k) {}
  /// Adopts filled buffers (a decoded cdg store record); the bunch may be
  /// in any order.
  TzLabelBuilder(NodeId owner, std::vector<DistKey> pivots,
                 std::vector<BunchEntry> bunch);

  /// Deep copy of an existing label back into mutable form
  /// (dissemination reassembly).
  static TzLabelBuilder from_view(const LabelView& v);

  NodeId owner() const { return owner_; }
  std::uint32_t levels() const {
    return static_cast<std::uint32_t>(pivots_.size());
  }

  void set_pivot(std::uint32_t level, DistKey pivot) {
    pivots_[level] = pivot;
  }
  const DistKey& pivot(std::uint32_t level) const { return pivots_[level]; }

  void add_bunch_entry(BunchEntry e) {
    if (!bunch_.empty()) {
      const BunchEntry& last = bunch_.back();
      if (e.node < last.node ||
          (e.node == last.node && e.level < last.level)) {
        sorted_ = false;
      }
    }
    bunch_.push_back(e);
  }
  const std::vector<BunchEntry>& bunch() const { return bunch_; }

  /// Dynamics hook: tightens the stored distance of bunch entry `i` in
  /// place. Ids and levels never change — incremental repair only
  /// improves distances — so the sort order stays valid.
  void set_bunch_dist(std::size_t i, Dist d) { bunch_[i].dist = d; }

  /// Canonicalize entry order: sorted by (node id, level). Required
  /// before view() / arena finalization; idempotent.
  void sort_bunch();
  bool sorted() const { return sorted_; }

  /// Immutable view over this builder's storage (must be sorted; the view
  /// dies with the builder and with any further mutation).
  LabelView view() const;

  std::size_t size_words() const {
    return 2 * pivots_.size() + 2 * bunch_.size();
  }

  friend bool operator==(const TzLabelBuilder& a, const TzLabelBuilder& b) {
    return a.view() == b.view();
  }

 private:
  NodeId owner_ = kInvalidNode;
  std::vector<DistKey> pivots_;
  std::vector<BunchEntry> bunch_;
  bool sorted_ = true;
};

/// Contiguous storage for all labels of one build: three flat buffers
/// instead of n heap objects. Label u's pivots live at [u*k, (u+1)*k) of
/// the pivot buffer; its bunch entries at the slot recorded for u (slices
/// are contiguous per node but, after replace(), not necessarily in node
/// order). Mutations bump generation(); views are invalidated by any
/// mutation (replace may reallocate). The serving tier therefore snapshots
/// by copying the arena — three buffer copies — never by sharing a live
/// mutable one.
class LabelArena {
 public:
  LabelArena() = default;

  /// Consumes per-node builders (builders[u].owner() must be u, all with
  /// the same level count). Unsorted builders are finalized here.
  static LabelArena from_builders(std::vector<TzLabelBuilder> builders);

  /// Adopts already-flat buffers (the store decoder's output): k pivots
  /// per node in node order, and node u's counts[u] bunch entries back
  /// to back, sorted within each node.
  static LabelArena from_parts(std::uint32_t k, std::vector<DistKey> pivots,
                               std::vector<BunchEntry> entries,
                               const std::vector<std::uint32_t>& counts);

  NodeId num_nodes() const { return static_cast<NodeId>(slots_.size()); }
  bool empty() const { return slots_.empty(); }
  std::uint32_t k() const { return k_; }

  LabelView view(NodeId u) const {
    const Slot& s = slots_[u];
    LabelView v;
    v.owner = u;
    v.levels = k_;
    v.count = s.count;
    v.pivots = pivots_.data() + static_cast<std::size_t>(u) * k_;
    v.bunch = entries_.data() + s.begin;
    return v;
  }

  std::size_t size_words(NodeId u) const { return view(u).size_words(); }
  double mean_size_words() const;
  /// Bunch entries across all labels (diagnostics / size accounting).
  std::size_t total_entries() const;
  /// Bytes the three buffers hold (pivots, entries, per-node slots).
  std::size_t resident_bytes() const {
    return pivots_.size() * sizeof(DistKey) +
           entries_.size() * sizeof(BunchEntry) + slots_.size() * sizeof(Slot);
  }

  /// Monotone counter bumped by every mutation; lets consumers holding a
  /// derived artifact (snapshot, packed store) detect staleness.
  std::uint64_t generation() const { return generation_; }

  // ---- repair hooks (dynamics/incremental) ---------------------------------
  /// Tightens pivot `level` of node u to distance d (id unchanged).
  void tighten_pivot(NodeId u, std::uint32_t level, Dist d) {
    pivots_[static_cast<std::size_t>(u) * k_ + level].dist = d;
    ++generation_;
  }
  /// Tightens bunch entry `i` (slice-local index) of node u to distance d.
  void tighten_bunch_dist(NodeId u, std::uint32_t i, Dist d) {
    entries_[slots_[u].begin + i].dist = d;
    ++generation_;
  }
  /// Rebuilds node u's slice from a fresh builder. Equal-size slices are
  /// overwritten in place; growing slices append at the arena tail and
  /// repoint the slot (the hole is reclaimed by the next from_builders).
  void replace(NodeId u, const TzLabelBuilder& b);

  /// Label-wise content equality (slot layout may differ).
  friend bool operator==(const LabelArena& a, const LabelArena& b);

 private:
  struct Slot {
    std::uint64_t begin = 0;
    std::uint32_t count = 0;
  };

  std::uint32_t k_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<DistKey> pivots_;     // n * k
  std::vector<BunchEntry> entries_; // per-node contiguous slices
  std::vector<Slot> slots_;         // n
};

/// Where the Lemma 3.2 query settles (for diagnostics / E1 analysis).
struct TzQueryTrace {
  Dist estimate = kInfDist;
  std::uint32_t level = 0;
  bool used_u_pivot = false;  ///< true if p_i(u) in B(v) fired, false if
                              ///< the symmetric check fired
};

/// Lemma 3.2 with the level and side at which it settles. Inline: through
/// tz_query this is the serving kernel of every in-memory tz
/// representation, and the compiler drops the trace fields there.
inline TzQueryTrace tz_query_trace(const LabelView& lu, const LabelView& lv) {
  TzQueryTrace t;
  if (lu.owner == lv.owner) {
    t.estimate = 0;
    return t;
  }
  const std::uint32_t k = lu.levels < lv.levels ? lu.levels : lv.levels;
  for (std::uint32_t i = 0; i < k; ++i) {
    const DistKey& pu = lu.pivots[i];  // p_i(u) in B(v)?
    if (pu.id != kInvalidNode) {
      const Dist dv = lv.bunch_dist(pu.id);
      if (dv != kInfDist) {
        t.estimate = pu.dist + dv;
        t.level = i;
        t.used_u_pivot = true;
        return t;
      }
    }
    const DistKey& pv = lv.pivots[i];  // p_i(v) in B(u)?
    if (pv.id != kInvalidNode) {
      const Dist du = lu.bunch_dist(pv.id);
      if (du != kInfDist) {
        t.estimate = pv.dist + du;
        t.level = i;
        return t;
      }
    }
  }
  return t;  // malformed / disconnected: kInfDist
}

/// Lemma 3.2: estimate d(u, v) from the two labels alone. Never
/// underestimates; overestimates by at most (2k-1) when both labels come
/// from the same hierarchy over the full vertex set. Returns kInfDist only
/// if the labels are malformed (disconnected input).
inline Dist tz_query(const LabelView& lu, const LabelView& lv) {
  return tz_query_trace(lu, lv).estimate;
}

/// Exhaustive query variant: minimum of d(u,w) + d(w,v) over every node w
/// present in both bunches, computed as one sorted-merge intersection of
/// the two node-ordered entry arrays. Same one-sided guarantee (each term
/// is a real distance), never worse than tz_query — the witness pivot of
/// the standard query is itself a common bunch member — at cost
/// O(|B(u)| + |B(v)|). The E1 bench reports the practical stretch gain.
Dist tz_query_exhaustive(const LabelView& lu, const LabelView& lv);


}  // namespace dsketch
