// Minimal command-line flag parsing for the CLI tool and harness binaries.
//
//   FlagSet flags(argc, argv);             // "--key value" / "--switch"
//   flags.get("n", 1024);                  // typed lookup with default
//   flags.require("graph");                // throws if missing
//   flags.positional();                    // non-flag arguments in order
//   flags.unread();                        // flags nothing looked up
//
// Every lookup (has/get/get_bool/require) marks its key as read, so a
// front end can reject flags its subcommand never consulted — a typo or
// a retired flag then fails loudly instead of changing nothing. The
// marking makes lookups mutate: read one FlagSet from one thread at a
// time.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace dsketch {

class FlagSet {
 public:
  FlagSet(int argc, const char* const* argv);

  /// Builds a flag set from explicit key/value pairs — how the repro
  /// harness passes manifest cell parameters to an experiment without
  /// synthesizing an argv.
  explicit FlagSet(const std::vector<std::pair<std::string, std::string>>& kv);

  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) != 0;
  }

  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get(const std::string& key, std::int64_t def) const;
  double get(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def = false) const;

  std::string require(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All stored key/value pairs, sorted by key (for logging a cell's
  /// resolved parameters deterministically).
  std::vector<std::pair<std::string, std::string>> items() const;

  /// Keys present that no lookup has asked for yet, sorted.
  std::vector<std::string> unread() const;

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::unordered_set<std::string> read_;
};

/// Parses "1,2,4" into integers; throws on an empty list.
std::vector<std::int64_t> parse_int_list(const std::string& csv);

/// Parses "tz,landmark,exact" into names, skipping empty items; throws
/// on an empty list (the sibling of parse_int_list for oracle sweeps).
std::vector<std::string> parse_name_list(const std::string& csv);

}  // namespace dsketch
