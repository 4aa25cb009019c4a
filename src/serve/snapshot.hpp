/// \file
/// Generation-tagged oracle snapshots — the hot-swap primitive of
/// the serving tier.
///
/// A serving frontend holds its DistanceOracle behind an OracleSlot. The
/// query path calls pin() once per batch and works against the returned
/// snapshot for the whole batch: oracle pointer, generation number, and
/// the capability bits the cache policy needs are captured together, so a
/// concurrent swap can never tear a batch across two oracles. Readers and
/// the publisher (store()) share one mutex held only for a shared_ptr
/// copy or swap: a batch takes it once, and the old oracle stays alive
/// until the last in-flight batch drops its shared_ptr. (A mutex rather
/// than std::atomic<std::shared_ptr>: libstdc++ 12's lock-bit
/// implementation of the latter is reported as a data race by TSan.)
///
/// Generations are strictly increasing and identify which oracle answered
/// a batch; the query service invalidates per-shard caches by comparing
/// the shard's recorded generation against the pinned snapshot's.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/oracle.hpp"
#include "util/assert.hpp"

namespace dsketch {

/// One immutable published oracle: what a batch pins at its start.
struct OracleSnapshot {
  std::shared_ptr<const DistanceOracle> oracle;
  std::uint64_t generation = 0;
  /// Cached oracle->capabilities().symmetric: whether a cache in front
  /// of this oracle may key the canonical (min, max) pair.
  bool symmetric = false;
};

/// The swappable slot. Every accessor copies under one mutex; store()
/// bumps the generation.
class OracleSlot {
 public:
  /// What a batch pins: the current snapshot and the one it displaced.
  struct Pinned {
    OracleSnapshot current;
    /// The degraded-mode failover target (query_service circuit
    /// breaker); its oracle is null until the first store().
    OracleSnapshot previous;
  };

  /// The slot always holds an oracle; generation starts at 0.
  explicit OracleSlot(std::shared_ptr<const DistanceOracle> initial) {
    DS_CHECK(initial != nullptr);
    current_ = make_snapshot(std::move(initial), 0);
  }

  /// The current snapshot; safe from any thread.
  OracleSnapshot load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// The current snapshot and its predecessor, read together.
  Pinned pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Pinned{current_, previous_};
  }

  /// Publishes `next` under the next generation and returns it. The
  /// displaced snapshot becomes the pinned `previous`.
  std::uint64_t store(std::shared_ptr<const DistanceOracle> next) {
    DS_CHECK(next != nullptr);
    OracleSnapshot snap = make_snapshot(std::move(next), 0);
    // The snapshot displaced from `previous` may hold the last reference
    // to its oracle: it is destroyed after the lock is released, so no
    // batch waits on freeing an oracle.
    OracleSnapshot displaced;
    std::lock_guard<std::mutex> lock(mu_);
    snap.generation = current_.generation + 1;
    displaced =
        std::exchange(previous_, std::exchange(current_, std::move(snap)));
    return current_.generation;
  }

  std::uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_.generation;
  }

 private:
  static OracleSnapshot make_snapshot(
      std::shared_ptr<const DistanceOracle> oracle,
      std::uint64_t generation) {
    OracleSnapshot snap;
    snap.symmetric = oracle->capabilities().symmetric;
    snap.oracle = std::move(oracle);
    snap.generation = generation;
    return snap;
  }

  mutable std::mutex mu_;
  OracleSnapshot current_;
  OracleSnapshot previous_;
};

/// Wraps a caller-owned oracle reference in a non-owning shared_ptr (the
/// compat path for services constructed over a bare reference).
inline std::shared_ptr<const DistanceOracle> borrow_oracle(
    const DistanceOracle& oracle) {
  return std::shared_ptr<const DistanceOracle>(
      std::shared_ptr<const DistanceOracle>{}, &oracle);
}

}  // namespace dsketch
