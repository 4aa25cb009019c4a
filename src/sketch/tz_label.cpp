#include "sketch/tz_label.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/assert.hpp"

namespace dsketch {

namespace {

bool bunch_order(const BunchEntry& a, const BunchEntry& b) {
  if (a.node != b.node) return a.node < b.node;
  return a.level < b.level;
}

}  // namespace

bool operator==(const LabelView& a, const LabelView& b) {
  if (a.owner != b.owner || a.levels != b.levels || a.count != b.count) {
    return false;
  }
  for (std::uint32_t i = 0; i < a.levels; ++i) {
    if (!(a.pivots[i] == b.pivots[i])) return false;
  }
  for (std::uint32_t i = 0; i < a.count; ++i) {
    if (!(a.bunch[i] == b.bunch[i])) return false;
  }
  return true;
}

TzLabelBuilder::TzLabelBuilder(NodeId owner, std::vector<DistKey> pivots,
                               std::vector<BunchEntry> bunch)
    : owner_(owner),
      pivots_(std::move(pivots)),
      bunch_(std::move(bunch)),
      sorted_(std::is_sorted(bunch_.begin(), bunch_.end(), bunch_order)) {}

TzLabelBuilder TzLabelBuilder::from_view(const LabelView& v) {
  return TzLabelBuilder(v.owner, {v.pivots, v.pivots + v.levels},
                        {v.bunch, v.bunch + v.count});
}

void TzLabelBuilder::sort_bunch() {
  if (!sorted_) {
    std::sort(bunch_.begin(), bunch_.end(), bunch_order);
    sorted_ = true;
  }
}

LabelView TzLabelBuilder::view() const {
  DS_CHECK(sorted_);
  LabelView v;
  v.owner = owner_;
  v.levels = static_cast<std::uint32_t>(pivots_.size());
  v.count = static_cast<std::uint32_t>(bunch_.size());
  v.pivots = pivots_.data();
  v.bunch = bunch_.data();
  return v;
}

LabelArena LabelArena::from_builders(std::vector<TzLabelBuilder> builders) {
  LabelArena arena;
  if (builders.empty()) return arena;
  arena.k_ = builders.front().levels();
  arena.slots_.resize(builders.size());
  std::size_t total = 0;
  for (const TzLabelBuilder& b : builders) {
    DS_CHECK(b.levels() == arena.k_);
    total += b.bunch().size();
  }
  arena.pivots_.reserve(builders.size() * static_cast<std::size_t>(arena.k_));
  arena.entries_.reserve(total);
  for (NodeId u = 0; u < builders.size(); ++u) {
    TzLabelBuilder& b = builders[u];
    DS_CHECK(b.owner() == u);
    b.sort_bunch();
    for (std::uint32_t i = 0; i < arena.k_; ++i) {
      arena.pivots_.push_back(b.pivot(i));
    }
    Slot& s = arena.slots_[u];
    s.begin = arena.entries_.size();
    s.count = static_cast<std::uint32_t>(b.bunch().size());
    arena.entries_.insert(arena.entries_.end(), b.bunch().begin(),
                          b.bunch().end());
  }
  return arena;
}

LabelArena LabelArena::from_parts(std::uint32_t k, std::vector<DistKey> pivots,
                                  std::vector<BunchEntry> entries,
                                  const std::vector<std::uint32_t>& counts) {
  DS_CHECK(pivots.size() == counts.size() * static_cast<std::size_t>(k));
  LabelArena arena;
  arena.k_ = k;
  arena.slots_.resize(counts.size());
  std::uint64_t begin = 0;
  for (std::size_t u = 0; u < counts.size(); ++u) {
    arena.slots_[u] = Slot{begin, counts[u]};
    begin += counts[u];
  }
  DS_CHECK(begin == entries.size());
  arena.pivots_ = std::move(pivots);
  arena.entries_ = std::move(entries);
  return arena;
}

double LabelArena::mean_size_words() const {
  if (slots_.empty()) return 0.0;
  std::size_t total = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    total += size_words(u);
  }
  return static_cast<double>(total) / static_cast<double>(slots_.size());
}

std::size_t LabelArena::total_entries() const {
  std::size_t total = 0;
  for (const Slot& s : slots_) {
    total += s.count;
  }
  return total;
}

void LabelArena::replace(NodeId u, const TzLabelBuilder& b) {
  DS_CHECK(b.owner() == u);
  DS_CHECK(b.levels() == k_);
  DS_CHECK(b.sorted());
  for (std::uint32_t i = 0; i < k_; ++i) {
    pivots_[static_cast<std::size_t>(u) * k_ + i] = b.pivot(i);
  }
  Slot& s = slots_[u];
  const std::uint32_t count = static_cast<std::uint32_t>(b.bunch().size());
  if (count <= s.count) {
    std::copy(b.bunch().begin(), b.bunch().end(),
              entries_.begin() + static_cast<std::ptrdiff_t>(s.begin));
  } else {
    s.begin = entries_.size();
    entries_.insert(entries_.end(), b.bunch().begin(), b.bunch().end());
  }
  s.count = count;
  ++generation_;
}

bool operator==(const LabelArena& a, const LabelArena& b) {
  if (a.num_nodes() != b.num_nodes() || a.k_ != b.k_) return false;
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    if (!(a.view(u) == b.view(u))) return false;
  }
  return true;
}

Dist tz_query_exhaustive(const LabelView& lu, const LabelView& lv) {
  if (lu.owner == lv.owner) return 0;
  Dist best = kInfDist;
  const BunchEntry* a = lu.bunch;
  const BunchEntry* const ae = a + lu.count;
  const BunchEntry* b = lv.bunch;
  const BunchEntry* const be = b + lv.count;
  while (a != ae && b != be) {
    if (a->node < b->node) {
      ++a;
    } else if (b->node < a->node) {
      ++b;
    } else {
      // Common member. Duplicate runs (one node at several levels) carry
      // one distance per side; take the run minimum of each.
      const NodeId w = a->node;
      Dist du = a->dist;
      for (++a; a != ae && a->node == w; ++a) {
        du = a->dist < du ? a->dist : du;
      }
      Dist dv = b->dist;
      for (++b; b != be && b->node == w; ++b) {
        dv = b->dist < dv ? b->dist : dv;
      }
      const Dist sum = du + dv;
      best = sum < best ? sum : best;
    }
  }
  return best;
}

}  // namespace dsketch
