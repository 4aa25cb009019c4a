#include "core/serialization.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace dsketch {
namespace {

constexpr const char* kTzMagic = "dsketch-tz-v1";
constexpr const char* kSlackMagic = "dsketch-slack-v1";
constexpr const char* kCdgMagic = "dsketch-cdg-v1";
constexpr const char* kGracefulMagic = "dsketch-graceful-v1";

void expect_magic(std::istream& in, const char* magic) {
  std::string seen;
  if (!(in >> seen) || seen != magic) {
    throw std::runtime_error(std::string("bad sketch file: expected ") +
                             magic);
  }
}

void write_label_line(std::ostream& out, const LabelView& label) {
  const std::vector<Word> words = serialize_label(label);
  out << label.owner << ' ' << words.size();
  for (const Word w : words) out << ' ' << w;
  out << '\n';
}

TzLabelBuilder read_label_line(std::istream& in) {
  NodeId owner = 0;
  std::size_t count = 0;
  if (!(in >> owner >> count)) {
    throw std::runtime_error("truncated label record");
  }
  std::vector<Word> words(count);
  for (Word& w : words) {
    if (!(in >> w)) throw std::runtime_error("truncated label words");
  }
  return deserialize_label(owner, words);
}

}  // namespace

void write_tz_labels(std::ostream& out, const LabelArena& labels) {
  out << kTzMagic << ' ' << labels.num_nodes() << '\n';
  for (NodeId u = 0; u < labels.num_nodes(); ++u) {
    write_label_line(out, labels.view(u));
  }
}

LabelArena read_tz_labels(std::istream& in) {
  expect_magic(in, kTzMagic);
  std::size_t n = 0;
  if (!(in >> n)) throw std::runtime_error("bad tz sketch header");
  std::vector<TzLabelBuilder> builders;
  builders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) builders.push_back(read_label_line(in));
  return LabelArena::from_builders(std::move(builders));
}

void write_slack_sketches(std::ostream& out, const SlackSketchSet& set,
                          NodeId n) {
  const auto& net = set.net();
  out << kSlackMagic << ' ' << n << ' ' << net.size() << '\n';
  for (const NodeId w : net) out << w << ' ';
  out << '\n';
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      out << set.row(u)[i] << (i + 1 == net.size() ? '\n' : ' ');
    }
    if (net.empty()) out << '\n';
  }
}

SlackSketchSet read_slack_sketches(std::istream& in) {
  expect_magic(in, kSlackMagic);
  NodeId n = 0;
  std::size_t net_size = 0;
  if (!(in >> n >> net_size)) throw std::runtime_error("bad slack header");
  std::vector<NodeId> net(net_size);
  for (NodeId& w : net) {
    if (!(in >> w)) throw std::runtime_error("truncated slack net");
  }
  std::vector<std::vector<Dist>> dist(n, std::vector<Dist>(net_size));
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < net_size; ++i) {
      if (!(in >> dist[u][i])) {
        throw std::runtime_error("truncated slack distances");
      }
    }
  }
  return SlackSketchSet(std::move(net), std::move(dist));
}

void write_cdg_sketches(std::ostream& out, const CdgSketchSet& set,
                        NodeId n) {
  out << kCdgMagic << ' ' << n << '\n';
  for (NodeId u = 0; u < n; ++u) {
    const auto& s = set.sketch(u);
    out << s.net_node << ' ' << s.net_dist << ' ';
    write_label_line(out, s.label.view());
  }
}

CdgSketchSet read_cdg_sketches(std::istream& in) {
  expect_magic(in, kCdgMagic);
  NodeId n = 0;
  if (!(in >> n)) throw std::runtime_error("bad cdg header");
  std::vector<CdgSketchSet::NodeSketch> sketches(n);
  for (NodeId u = 0; u < n; ++u) {
    auto& s = sketches[u];
    if (!(in >> s.net_node >> s.net_dist)) {
      throw std::runtime_error("truncated cdg record");
    }
    s.label = read_label_line(in);
  }
  return CdgSketchSet(std::move(sketches));
}

void write_graceful_sketches(std::ostream& out, const GracefulSketchSet& set,
                             NodeId n) {
  out << kGracefulMagic << ' ' << set.num_levels() << '\n';
  for (std::size_t i = 0; i < set.num_levels(); ++i) {
    write_cdg_sketches(out, set.level(i), n);
  }
}

GracefulSketchSet read_graceful_sketches(std::istream& in) {
  expect_magic(in, kGracefulMagic);
  std::size_t levels = 0;
  if (!(in >> levels)) throw std::runtime_error("bad graceful header");
  std::vector<CdgSketchSet> sets;
  sets.reserve(levels);
  for (std::size_t i = 0; i < levels; ++i) {
    sets.push_back(read_cdg_sketches(in));
  }
  return GracefulSketchSet(std::move(sets));
}

}  // namespace dsketch
