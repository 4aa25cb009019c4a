// v3 record codec: delta + LEB128-varint encoding of one node's sketch.
//
// The codec works on the in-memory sketch types themselves: a tz record
// is encoded straight from a LabelView and decodes straight back into
// pivot and bunch-entry buffers (a LabelArena's parts); a cdg record adds
// the (net node, net distance, owner) prefix of a CdgSketchSet::NodeSketch;
// a slack record is one SlackSketchSet row. Byte layout:
//
//   tz record      varint(levels) varint(count)
//                  per pivot:  varint(id+1; 0 = invalid)
//                              varint(zigzag(dist - prev_pivot_dist))
//                  per entry:  varint(zigzag(node - prev_node))
//                              varint(level) varint(dist)
//   slack record   per net node: varint(dist+1; 0 = kInfDist)
//   cdg record     varint(net_node+1; 0 = invalid)
//                  varint(net_dist+1; 0 = kInfDist)
//                  varint(owner+1; 0 = invalid)  then the tz record
//
// Pivot distances are non-decreasing across levels on a fresh build and
// bunch entries are sorted by node id, so the zigzag deltas are small
// non-negatives; zigzag (not plain unsigned deltas) keeps every label
// encodable, including repair-tightened ones whose pivot distances are no
// longer monotone, and decode(encode(label)) == label (tested).
//
// Every decode is bounds-checked against the record slice: corrupt bytes
// can produce garbage values or a clean failure, never an out-of-bounds
// read. That property is what lets the mmap store serve records without
// a load-time payload checksum pass.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

// ---- LEB128 varint primitives ----------------------------------------------

/// Appends x as a little-endian base-128 varint (1..10 bytes).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t x);

inline std::uint64_t zigzag64(std::uint64_t delta) {
  // Interpret the mod-2^64 delta as signed and fold the sign into bit 0.
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

inline std::uint64_t unzigzag64(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

/// Bounds-checked varint cursor over one record slice. Any overrun or
/// overlong encoding clears ok; get() then returns 0 and the caller
/// bails out. Never reads at or past `end`.
struct VarintReader {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  bool ok = true;

  VarintReader(const std::uint8_t* begin, const std::uint8_t* stop)
      : p(begin), end(stop) {}

  std::uint64_t get() {
    std::uint64_t x = 0;
    unsigned shift = 0;
    while (p != end) {
      const std::uint8_t b = *p++;
      if (shift == 63 && b > 1) break;  // would overflow 64 bits
      x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return x;
      shift += 7;
      if (shift > 63) break;
    }
    ok = false;
    return 0;
  }
  bool done() const { return p == end; }
};

// ---- streaming queries over v3 record slices -------------------------------
// Used by the mmap store: answers are computed straight off the encoded
// bytes — pivots decode into a small scratch vector, and each bunch is
// walked exactly once per query (a merge-scan of the probe set against
// the delta stream), so nothing is materialized per record.

/// Decoded tz record header: pivots plus the position of the bunch
/// stream. `pivots` points into the caller's scratch vector.
struct V3TzHeader {
  std::uint32_t levels = 0;
  std::uint32_t count = 0;
  const std::uint8_t* bunch_begin = nullptr;  ///< first bunch byte
  const std::uint8_t* end = nullptr;          ///< record slice end
  bool ok = false;
};

/// Parses levels/count/pivots of the tz record slice [begin, end),
/// appending the pivots to `pivots` (not cleared). For a cdg record pass
/// the slice starting at its embedded tz record.
V3TzHeader v3_parse_tz_header(const std::uint8_t* begin,
                              const std::uint8_t* end,
                              std::vector<DistKey>& pivots);

/// One pass over a v3 bunch stream, probing for up to `n_probes` node
/// ids: out[i] (pre-filled with kInfDist by the caller) receives the
/// distance of the first entry whose node is probes[i] (left at kInfDist
/// if absent or the stream is malformed). Mirrors LabelView::bunch_dist
/// for every probe in one scan.
void v3_scan_bunch(const V3TzHeader& h, const NodeId* probes, Dist* out,
                   std::size_t n_probes);

/// The Lemma 3.2 query over two v3 tz record slices (two header parses +
/// two bunch scans). `scratch` is caller-owned reusable storage.
struct V3QueryScratch {
  std::vector<DistKey> pivots_u;
  std::vector<DistKey> pivots_v;
  std::vector<NodeId> probe_ids;
  std::vector<Dist> probe_dists;
};
Dist v3_tz_query(const std::uint8_t* ub, const std::uint8_t* ue,
                 const std::uint8_t* vb, const std::uint8_t* ve,
                 V3QueryScratch& scratch);

/// cdg prefix decoded off a v3 record slice; `rest` points at the
/// embedded tz record.
struct V3CdgPrefix {
  NodeId net_node = kInvalidNode;
  Dist net_dist = kInfDist;
  NodeId owner = kInvalidNode;
  const std::uint8_t* rest = nullptr;
  bool ok = false;
};
V3CdgPrefix v3_parse_cdg_prefix(const std::uint8_t* begin,
                                const std::uint8_t* end);

// ---- whole-record coding ----------------------------------------------------
// Used by the heap store: write() encodes every record from the payload,
// a load decodes every record back into it.

/// Appends the v3 tz record of `label` to `out`.
void encode_tz_record(const LabelView& label, std::vector<std::uint8_t>& out);

/// Appends a v3 cdg record to `out`: the (net node, net distance, owner)
/// prefix, then the tz record of the owner's label; the owner is
/// label.owner.
void encode_cdg_record(NodeId net_node, Dist net_dist, const LabelView& label,
                       std::vector<std::uint8_t>& out);

/// Appends a v3 slack record (one SlackSketchSet row: a distance per net
/// node) to `out`.
void encode_slack_record(const std::vector<Dist>& row,
                         std::vector<std::uint8_t>& out);

/// Decodes the whole tz record [begin, end): appends its pivots and its
/// bunch entries. The returned header's ok is false when the record is
/// malformed or does not consume the slice exactly; the buffers may then
/// hold a partial record, which the caller truncates. An empty buffer is
/// sized from the record header; a caller appending many records to one
/// buffer reserves it first.
V3TzHeader decode_tz_record(const std::uint8_t* begin,
                            const std::uint8_t* end,
                            std::vector<DistKey>& pivots,
                            std::vector<BunchEntry>& entries);

/// Decodes a whole cdg record into `out` (its label finalized, bunch
/// sorted). False, with `out` untouched, when the record is malformed or
/// does not consume the slice exactly.
bool decode_cdg_record(const std::uint8_t* begin, const std::uint8_t* end,
                       CdgSketchSet::NodeSketch& out);

/// Decodes a slack record of `net_size` distances into `row` (replaced).
/// False when the record is malformed or does not consume the slice.
bool decode_slack_record(const std::uint8_t* begin, const std::uint8_t* end,
                         std::size_t net_size, std::vector<Dist>& row);

}  // namespace dsketch
