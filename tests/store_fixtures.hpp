// Committed store files under tests/data/, and the build they hold.
//
// Each <scheme>_v3.store / <scheme>_v2.store pair is one build of the
// fixture graph, written by the v3 and the (since retired) v2 writer:
//
//   dsketch gen --topology er --n 40 --p 0.1 --wmin 1 --wmax 5 --seed 3
//       --out fixture.graph
//   dsketch build --graph fixture.graph --scheme S --k 2 --epsilon 0.25
//       --store S_v3.store
//   dsketch convert --in S_v3.store --out S_v2.store --format v2
//
// tz_quarantined_v3.store is tz_v3.store with the blob bytes of records 5
// and 9 overwritten by 0xff, salvaged by recover_file and written by
// save_file in that same release: its two records are the empty
// (0 levels, 0 entries) quarantine marker older builds wrote.
#pragma once

#include <fstream>
#include <iterator>
#include <string>

#include "core/config.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace dsketch {

inline std::string fixture_path(const std::string& name) {
  return std::string(DSKETCH_SOURCE_DIR) + "/tests/data/" + name;
}

/// "<scheme>_v<version>.store", e.g. fixture_path(fixture_name(tz, 2)).
inline std::string fixture_name(Scheme scheme, int version) {
  return std::string(scheme_name(scheme)) + "_v" + std::to_string(version) +
         ".store";
}

inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The graph `dsketch gen` wrote for the fixtures.
inline Graph fixture_graph() { return erdos_renyi(40, 0.1, {1, 5}, 3); }

/// The parameters `dsketch build` used for the fixtures.
inline BuildConfig fixture_config(Scheme scheme) {
  BuildConfig cfg;
  cfg.scheme = scheme;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  return cfg;
}

}  // namespace dsketch
