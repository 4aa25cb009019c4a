#include "serve/label_codec.hpp"

#include <algorithm>

namespace dsketch {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

namespace {

constexpr std::uint64_t kU32Max = 0xffffffffull;

// id fields use the +1 shift so 0 can mean "invalid"; bijective over the
// whole u32 range because the invalid sentinel is the all-ones value.
std::uint64_t encode_id(std::uint32_t id) {
  return id == kInvalidNode ? 0 : static_cast<std::uint64_t>(id) + 1;
}
bool decode_id(std::uint64_t v, std::uint32_t* id) {
  if (v > kU32Max) return false;
  *id = v == 0 ? kInvalidNode : static_cast<std::uint32_t>(v - 1);
  return true;
}

// distance fields use the same shift with kInfDist as the sentinel;
// bijective over u64 because kInfDist + 1 wraps to 0.
std::uint64_t encode_dist(Dist d) { return d + 1; }
Dist decode_dist(std::uint64_t v) { return v - 1; }

}  // namespace

void encode_tz_record(const LabelView& label, std::vector<std::uint8_t>& out) {
  put_varint(out, label.levels);
  put_varint(out, label.count);
  Dist prev_dist = 0;
  for (std::uint32_t i = 0; i < label.levels; ++i) {
    put_varint(out, encode_id(label.pivots[i].id));
    const Dist d = label.pivots[i].dist;
    put_varint(out, zigzag64(d - prev_dist));
    prev_dist = d;
  }
  std::uint64_t prev_node = 0;
  for (std::uint32_t e = 0; e < label.count; ++e) {
    const BunchEntry& entry = label.bunch[e];
    put_varint(out, zigzag64(entry.node - prev_node));
    prev_node = entry.node;
    put_varint(out, entry.level);
    put_varint(out, entry.dist);
  }
}

void encode_cdg_record(NodeId net_node, Dist net_dist, const LabelView& label,
                       std::vector<std::uint8_t>& out) {
  put_varint(out, encode_id(net_node));
  put_varint(out, encode_dist(net_dist));
  put_varint(out, encode_id(label.owner));
  encode_tz_record(label, out);
}

void encode_slack_record(const std::vector<Dist>& row,
                         std::vector<std::uint8_t>& out) {
  for (const Dist d : row) put_varint(out, encode_dist(d));
}

V3TzHeader v3_parse_tz_header(const std::uint8_t* begin,
                              const std::uint8_t* end,
                              std::vector<DistKey>& pivots) {
  V3TzHeader h;
  VarintReader r(begin, end);
  const std::uint64_t levels = r.get();
  const std::uint64_t count = r.get();
  if (!r.ok) return h;
  const auto remaining = static_cast<std::uint64_t>(r.end - r.p);
  if (levels > remaining / 2 || count > remaining / 3) return h;
  if (pivots.empty()) pivots.reserve(levels);
  Dist prev_dist = 0;
  for (std::uint64_t i = 0; i < levels; ++i) {
    std::uint32_t id = 0;
    if (!decode_id(r.get(), &id)) return h;
    const Dist d = prev_dist + unzigzag64(r.get());
    if (!r.ok) return h;
    prev_dist = d;
    pivots.push_back(DistKey{d, id});
  }
  h.levels = static_cast<std::uint32_t>(levels);
  h.count = static_cast<std::uint32_t>(count);
  h.bunch_begin = r.p;
  h.end = end;
  h.ok = true;
  return h;
}

V3TzHeader decode_tz_record(const std::uint8_t* begin,
                            const std::uint8_t* end,
                            std::vector<DistKey>& pivots,
                            std::vector<BunchEntry>& entries) {
  V3TzHeader h = v3_parse_tz_header(begin, end, pivots);
  if (!h.ok) return h;
  if (entries.empty()) entries.reserve(h.count);
  VarintReader r(h.bunch_begin, end);
  std::uint64_t prev_node = 0;
  for (std::uint32_t e = 0; e < h.count; ++e) {
    const std::uint64_t node = prev_node + unzigzag64(r.get());
    const std::uint64_t level = r.get();
    const Dist dist = r.get();
    if (!r.ok || node > kU32Max || level > kU32Max) {
      h.ok = false;
      return h;
    }
    prev_node = node;
    entries.push_back(BunchEntry{static_cast<NodeId>(node),
                                 static_cast<std::uint32_t>(level), dist});
  }
  h.ok = r.done();
  return h;
}

void v3_scan_bunch(const V3TzHeader& h, const NodeId* probes, Dist* out,
                   std::size_t n_probes) {
  if (!h.ok || n_probes == 0) return;
  VarintReader r(h.bunch_begin, h.end);
  std::uint64_t prev_node = 0;
  for (std::uint32_t e = 0; e < h.count; ++e) {
    const std::uint64_t node = prev_node + unzigzag64(r.get());
    r.get();  // level: not needed for membership
    const Dist dist = r.get();
    if (!r.ok || node > 0xffffffffull) return;  // malformed tail: stop
    prev_node = node;
    const auto w = static_cast<NodeId>(node);
    for (std::size_t j = 0; j < n_probes; ++j) {
      if (probes[j] == w && out[j] == kInfDist) out[j] = dist;
    }
  }
}

Dist v3_tz_query(const std::uint8_t* ub, const std::uint8_t* ue,
                 const std::uint8_t* vb, const std::uint8_t* ve,
                 V3QueryScratch& scratch) {
  scratch.pivots_u.clear();
  scratch.pivots_v.clear();
  const V3TzHeader hu = v3_parse_tz_header(ub, ue, scratch.pivots_u);
  const V3TzHeader hv = v3_parse_tz_header(vb, ve, scratch.pivots_v);
  if (!hu.ok || !hv.ok) return kInfDist;
  const std::uint32_t k = std::min(hu.levels, hv.levels);
  if (k == 0) return kInfDist;
  // probe_ids[0..k): u's pivots, looked up in B(v);
  // probe_ids[k..2k): v's pivots, looked up in B(u).
  scratch.probe_ids.resize(2 * k);
  scratch.probe_dists.assign(2 * k, kInfDist);
  for (std::uint32_t i = 0; i < k; ++i) {
    scratch.probe_ids[i] = scratch.pivots_u[i].id;
    scratch.probe_ids[k + i] = scratch.pivots_v[i].id;
  }
  v3_scan_bunch(hv, scratch.probe_ids.data(), scratch.probe_dists.data(), k);
  v3_scan_bunch(hu, scratch.probe_ids.data() + k,
                scratch.probe_dists.data() + k, k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const DistKey& pu = scratch.pivots_u[i];
    if (pu.id != kInvalidNode && scratch.probe_dists[i] != kInfDist) {
      return pu.dist + scratch.probe_dists[i];
    }
    const DistKey& pv = scratch.pivots_v[i];
    if (pv.id != kInvalidNode && scratch.probe_dists[k + i] != kInfDist) {
      return pv.dist + scratch.probe_dists[k + i];
    }
  }
  return kInfDist;
}

V3CdgPrefix v3_parse_cdg_prefix(const std::uint8_t* begin,
                                const std::uint8_t* end) {
  V3CdgPrefix p;
  VarintReader r(begin, end);
  if (!decode_id(r.get(), &p.net_node)) return p;
  p.net_dist = decode_dist(r.get());
  if (!decode_id(r.get(), &p.owner)) return p;
  if (!r.ok) return p;
  p.rest = r.p;
  p.ok = true;
  return p;
}

bool decode_cdg_record(const std::uint8_t* begin, const std::uint8_t* end,
                       CdgSketchSet::NodeSketch& out) {
  const V3CdgPrefix p = v3_parse_cdg_prefix(begin, end);
  if (!p.ok) return false;
  std::vector<DistKey> pivots;
  std::vector<BunchEntry> entries;
  const V3TzHeader h = decode_tz_record(p.rest, end, pivots, entries);
  if (!h.ok) return false;
  out.net_node = p.net_node;
  out.net_dist = p.net_dist;
  out.label =
      TzLabelBuilder(p.owner, std::move(pivots), std::move(entries));
  out.label.sort_bunch();
  return true;
}

bool decode_slack_record(const std::uint8_t* begin, const std::uint8_t* end,
                         std::size_t net_size, std::vector<Dist>& row) {
  if (static_cast<std::size_t>(end - begin) < net_size) return false;
  VarintReader r(begin, end);
  row.resize(net_size);
  for (Dist& d : row) d = decode_dist(r.get());
  return r.ok && r.done();
}

}  // namespace dsketch
