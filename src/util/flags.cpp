#include "util/flags.hpp"

#include <algorithm>
#include <sstream>

namespace dsketch {
namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

FlagSet::FlagSet(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  for (const auto& [key, value] : kv) values_[key] = value;
}

FlagSet::FlagSet(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";
    }
  }
}

std::string FlagSet::get(const std::string& key, const std::string& def) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t FlagSet::get(const std::string& key, std::int64_t def) const {
  read_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  // Derived 64-bit seeds may land in [2^63, 2^64); wrap them into the
  // signed range (callers reading seeds cast straight back to uint64)
  // instead of letting stoll throw on half of all possible seeds.
  try {
    return std::stoll(it->second);
  } catch (const std::out_of_range&) {
    return static_cast<std::int64_t>(std::stoull(it->second));
  }
}

double FlagSet::get(const std::string& key, double def) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::stod(it->second);
}

bool FlagSet::get_bool(const std::string& key, bool def) const {
  read_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string FlagSet::require(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("missing required flag --" + key);
  }
  return it->second;
}

std::vector<std::pair<std::string, std::string>> FlagSet::items() const {
  std::vector<std::pair<std::string, std::string>> out(values_.begin(),
                                                       values_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> FlagSet::unread() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Parses "1,2,4" into integers; used for sweep-style CLI flags.
std::vector<std::int64_t> parse_int_list(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::string item;
  std::stringstream ss(csv);
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoll(item));
  }
  if (out.empty()) throw std::runtime_error("empty integer list: " + csv);
  return out;
}

std::vector<std::string> parse_name_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(csv);
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw std::runtime_error("empty name list: " + csv);
  return out;
}

}  // namespace dsketch
