// Pipeline benchmark: edge-list file -> Thorup–Zwick sketches (k = 3) ->
// v3 store file -> heap or mmap serving behind QueryService, run as one of
// four workloads. README.md in this directory gives the workloads, the
// metric table and the layer -> end-to-end map.
//
//   pipebench --workload serve-uniform-heap --seed 1 --seconds 8 --trace 0
//             [--scale full|smoke] [--work-dir .bench_out]
//
// Every input is generated from --seed. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics and also writes
// <work-dir>/trace-<workload>.json (Chrome trace events). Answers are
// checked outside the timed regions; the exit code is 0 only when every
// check passed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/sim.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "proc_stats.hpp"
#include "serve/mmap_store.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "serve/workload.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "span_log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using dsketch::Dist;
using dsketch::DistanceOracle;
using dsketch::Graph;
using dsketch::Hierarchy;
using dsketch::NodeId;
using dsketch::QueryPair;
using dsketch::QueryService;
using dsketch::QueryServiceConfig;
using dsketch::SketchStore;
using dsketch::ThreadPool;
using dsketch::TzLabelOracle;
using Scope = SpanLog::Scope;

constexpr std::uint32_t kK = 3;
constexpr double kAvgDegree = 8.0;
constexpr dsketch::WeightSpec kWeights{1, 16};
constexpr double kZipfS = 1.2;
constexpr std::size_t kBatch = 512;       // pairs per query_batch call
constexpr std::size_t kSampleEvery = 32;  // keep 1 in 32 batches' answers
constexpr std::size_t kMaxSamples = 128;  // ... up to this many batches
constexpr int kProbeReps = 5;             // kernel / cold-start probes
// QueryService lanes. With one, every shard slice runs on the client
// thread: no batch waits for a woken pool worker, whose vCPU a shared
// host may not run for milliseconds.
constexpr std::size_t kServeLanes = 1;

/// Sizes of one benchmark scale. `full` is the measured configuration;
/// `smoke` runs every workload end to end at toy size.
struct Scale {
  const char* name;
  NodeId congest_n;          // build-congest graph
  NodeId serve_n;            // serve-* graph
  NodeId companion_n;        // serve-*: in-network build re-checked per run
  std::size_t pool_pairs;    // pre-generated traffic, cycled (kBatch multiple)
  std::size_t slice_batches; // batches per latency slice
  std::size_t warmup_batches;
  bool timed_window;         // serve for --seconds in total
  std::size_t shards;
  std::size_t cache_per_shard;
  std::size_t hot_pairs;     // zipf universe: 4x the total LRU capacity
  int setup_reps;
  double restart_share;      // of each serving chunk's wall time ...
  std::size_t chunk_restarts;  // ... up to this many restarts per chunk
  std::size_t check_pairs;   // heap / mmap / reference agreement
  std::size_t stretch_sources;
  std::size_t stretch_targets;
  std::size_t probe_pairs;   // direct-kernel and cold-mmap probes
  std::size_t hit_pass_pairs;
};

// serve_n = 81,920: the heap store's arena grows by push_back doubling
// (no reserve in SketchStore::from_oracle or the v3 decode), and at
// n = 65,536 it lands at 122-149 MB, either side of the 128 MiB capacity
// step, which split seeds into two modes (restart +60%, peak RSS
// +200 MB). At 81,920 every seed's arena (157-191 MB) is past that step
// and below the next.
constexpr Scale kFull{"full", 16384, 81920, 2048, std::size_t{1} << 21,
                      1000, 200, true, 16, 4096, std::size_t{1} << 18,
                      3, 0.25, 200, 4096, 64, 256, std::size_t{1} << 16,
                      std::size_t{1} << 19};
constexpr Scale kSmoke{"smoke", 512, 512, 256, std::size_t{1} << 14,
                       20, 5, false, 16, 64, 4096,
                       3, 0.25, 200, 512, 8, 64, 4096, std::size_t{1} << 14};

enum class Backend { kHeap, kMmap };

struct Workload {
  const char* name;
  bool in_network;  // build with the CONGEST simulator (Algorithm 2)
  Backend backend;  // representation the service answers from
  bool zipf;        // Zipf(1.2) traffic over a hot-pair universe
};

constexpr Workload kWorkloads[] = {
    {"build-congest", true, Backend::kMmap, false},
    {"serve-uniform-heap", false, Backend::kHeap, false},
    {"serve-zipf-heap", false, Backend::kHeap, true},
};

struct Options {
  const Workload* workload = nullptr;
  const Scale* scale = &kFull;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why + "\nusage: pipebench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--scale full|smoke] [--work-dir DIR]");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) usage("unknown workload " + value);
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
      have_seconds = opt.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      if (value == "full") {
        opt.scale = &kFull;
      } else if (value == "smoke") {
        opt.scale = &kSmoke;
      } else {
        usage("unknown scale " + value);
      }
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload == nullptr || !have_seed || !have_seconds) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return opt;
}

/// Independent per-purpose seed drawn from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return dsketch::splitmix64(s);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  if (xs.size() % 2 == 1) return xs[mid];
  const double upper = xs[mid];
  return (*std::max_element(xs.begin(), xs.begin() + mid) + upper) / 2;
}

/// Nearest-rank quantile at index floor(q (N-1)): with N = 1000 the 0.99
/// quantile leaves ten samples beyond it.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + idx, xs.end());
  return xs[idx];
}

/// Mean of the lower half of `xs` (at least one value). Used for the
/// slices' 99th percentiles: co-tenant slowdowns inflate a slice's tail,
/// and averaging the better half also evens out the sampling noise of a
/// 99th percentile taken over 1000 batches.
double better_half_mean(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t half = std::max<std::size_t>(1, xs.size() / 2);
  double sum = 0;
  for (std::size_t i = 0; i < half; ++i) sum += xs[i];
  return sum / static_cast<double>(half);
}

/// Writes `g` as a SNAP edge list ("u v w" per undirected edge).
void write_edge_list(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::string buf;
  buf.reserve(1 << 20);
  char line[64];
  for (const dsketch::Edge& e : g.edges()) {
    const int len = std::snprintf(line, sizeof(line), "%u %u %u\n", e.u, e.v,
                                  e.weight);
    buf.append(line, static_cast<std::size_t>(len));
    if (buf.size() > (1 << 20) - 64) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

/// Generates the seeded ER graph and writes it where the pipeline reads it.
void generate_input(const std::string& path, NodeId n, std::uint64_t seed) {
  write_edge_list(path, dsketch::erdos_renyi(n, kAvgDegree / n, kWeights, seed));
}

/// TZ hierarchy, resampled until the top level is nonempty (Lemma 3.2
/// needs a pivot at level k-1).
Hierarchy sample_hierarchy(NodeId n, std::uint64_t seed) {
  Hierarchy h = Hierarchy::sample(n, kK, seed);
  for (std::uint64_t b = 1; !h.top_level_nonempty(); ++b) {
    h = Hierarchy::sample(n, kK, seed + b);
  }
  return h;
}

std::shared_ptr<const DistanceOracle> open_backend(Backend backend,
                                                   const std::string& path) {
  if (backend == Backend::kHeap) {
    return std::make_shared<SketchStore>(SketchStore::load_file(path));
  }
  return std::shared_ptr<const DistanceOracle>(
      dsketch::MmapSketchStore::open(path));
}

/// The v3 bytes a store packed from `oracle` would hold on disk.
std::string v3_bytes(const DistanceOracle& oracle) {
  std::ostringstream out;
  SketchStore::from_oracle(oracle).write(out, dsketch::StoreFormat::kV3);
  return std::move(out).str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Deletes the run's scratch files (edge lists, stores) however the run
/// ends; the trace file is kept.
struct ScratchFiles {
  std::vector<std::string> paths;
  ~ScratchFiles() {
    for (const std::string& p : paths) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
      std::filesystem::remove(p + ".tmp", ec);
    }
  }
};

/// Everything one set-up pass produced.
struct Pipeline {
  Graph graph;
  std::optional<Hierarchy> hierarchy;
  std::optional<TzLabelOracle> reference;         // the built labels
  std::shared_ptr<const DistanceOracle> served;    // opened store
  dsketch::SimStats sim;                           // in-network only
  bool completed = true;
};

/// Result of an in-network build checked against the centralized build.
struct CongestCheck {
  dsketch::SimStats sim;
  double build_s = 0;
  double centralized_s = 0;
  bool completed = false;
  std::uint64_t label_mismatches = 0;  // nodes whose labels differ
  bool bytes_equal = false;            // v3 store bytes identical
};

class Run {
 public:
  explicit Run(const Options& opt)
      : opt_(opt),
        w_(*opt.workload),
        sc_(*opt.scale),
        log_(opt.trace),
        build_lanes_(std::min<std::size_t>(4, available_cpus())),
        build_pool_(build_lanes_),
        n_(w_.in_network ? sc_.congest_n : sc_.serve_n) {
    std::filesystem::create_directories(opt.work_dir);
    const std::string base = opt.work_dir + "/" + w_.name;
    edges_path_ = base + ".edges";
    store_path_ = base + ".store";
    companion_path_ = base + ".companion.edges";
    scratch_.paths = {edges_path_, store_path_, companion_path_};
  }

  int execute();

 private:
  struct Slice {
    double qps, p50_us, p99_us;
    bool traced;
  };

  void generate_inputs();
  void set_up();
  double restart();
  void serve_chunk(double seconds);
  void probe_layers();
  void check_answers();
  void check_in_network();
  CongestCheck congest_check(const Graph& g, const Hierarchy& h,
                             const TzLabelOracle* distributed_done,
                             const std::string* saved_store);
  QueryServiceConfig service_config() const {
    QueryServiceConfig cfg;
    cfg.shards = sc_.shards;
    cfg.threads = kServeLanes;
    cfg.cache_capacity = sc_.cache_per_shard;
    return cfg;
  }
  std::span<const QueryPair> batch_at(std::size_t offset) const {
    return {traffic_.data() + offset, kBatch};
  }
  void fail(std::uint64_t count, const std::string& what) {
    if (count == 0) return;
    failed_ += count;
    std::fprintf(stderr, "pipebench: CHECK FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(count), what.c_str());
  }
  std::string metrics_json() const;
  void print_summary() const;

  const Options& opt_;
  const Workload& w_;
  const Scale& sc_;
  SpanLog log_;
  std::size_t build_lanes_;
  ThreadPool build_pool_;
  NodeId n_;
  std::string edges_path_;
  std::string store_path_;
  std::string companion_path_;
  ScratchFiles scratch_;

  std::optional<Pipeline> live_;
  std::vector<QueryPair> traffic_;
  std::size_t cursor_ = 0;

  // set-up passes
  std::vector<double> setup_s_, ingest_s_, build_s_, pack_s_, save_s_,
      open_s_;
  Usage setup_usage_;
  double setup_wall_s_ = 0;
  std::uint64_t store_file_bytes_ = 0;
  // restarts
  std::vector<double> restart_ms_;
  std::vector<std::pair<std::size_t, std::vector<Dist>>> restart_answers_;
  Usage restart_usage_;
  // serving chunks
  std::vector<Slice> slices_;
  std::vector<double> lat_us_;  // per-batch latencies of the current slice
  std::vector<std::size_t> sample_offsets_;
  std::vector<Dist> sample_answers_;
  std::uint64_t window_batches_ = 0;
  std::uint64_t degraded_ = 0;
  Usage window_usage_;
  double window_wall_s_ = 0;
  std::vector<double> chunk_slice_p50_us_, chunk_slice_p99_us_;
  std::vector<std::uint64_t> shard_queries_;
  double peak_rss_mb_ = 0;
  // the representation the service does not answer from (checks, probes)
  std::shared_ptr<const DistanceOracle> other_;
  double other_open_s_ = 0;
  double heap_bytes_ = 0;
  // probes (traced run)
  double kernel_ns_ = 0;
  double cold_ns_ = 0;
  double warm_ns_ = 0;
  double hit_rate_ = 0;
  // checks
  double stretch_mean_ = 0;
  std::optional<CongestCheck> congest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void Run::generate_inputs() {
  {
    Scope s(log_, "input.edge_list");
    generate_input(edges_path_, n_, derive_seed(opt_.seed, 1));
  }
  Scope s(log_, "input.traffic");
  dsketch::WorkloadConfig cfg;
  cfg.kind = w_.zipf ? dsketch::WorkloadConfig::Kind::kZipf
                     : dsketch::WorkloadConfig::Kind::kUniform;
  cfg.hot_pairs = sc_.hot_pairs;
  cfg.zipf_s = kZipfS;
  cfg.seed = derive_seed(opt_.seed, 3);
  dsketch::WorkloadGenerator gen(n_, cfg);
  traffic_.resize(sc_.pool_pairs);
  for (QueryPair& q : traffic_) q = gen.next();
}

/// One pass from edge-list file to servable oracle: ingest, build, pack,
/// save, then load (heap) or open (mmap). The previous pass is freed
/// first, so peak RSS is that of one pass.
void Run::set_up() {
  live_.reset();
  const Usage u0 = Usage::now();
  Pipeline& p = live_.emplace();
  Scope total(log_, "setup");
  {
    Scope s(log_, "graph.ingest_edge_list_file");
    p.graph = dsketch::ingest_edge_list_file(edges_path_,
                                             dsketch::IngestFormat::kSnap);
    ingest_s_.push_back(s.end());
  }
  if (p.graph.num_nodes() != n_) {
    throw std::runtime_error("ingested graph has the wrong node count");
  }
  {
    Scope s(log_, w_.in_network ? "congest.build_tz_distributed"
                                : "sketch.build_tz_centralized");
    p.hierarchy = sample_hierarchy(n_, derive_seed(opt_.seed, 2));
    dsketch::LabelArena labels;
    if (w_.in_network) {
      dsketch::SimConfig cfg;
      cfg.threads = static_cast<unsigned>(build_lanes_);
      dsketch::TzDistributedResult r = dsketch::build_tz_distributed(
          p.graph, *p.hierarchy, dsketch::TerminationMode::kOracle, cfg);
      p.sim = r.tree_stats;
      p.sim += r.stats;
      p.completed = r.completed;
      labels = std::move(r.labels);
    } else {
      labels = dsketch::build_tz_centralized(p.graph, *p.hierarchy,
                                             &build_pool_);
    }
    p.reference.emplace(std::move(labels), kK);
    build_s_.push_back(s.end());
  }
  {
    Scope s(log_, "serve.store.from_oracle");
    const SketchStore store = SketchStore::from_oracle(*p.reference);
    pack_s_.push_back(s.end());
    Scope save(log_, "serve.store.save_file");
    store.save_file(store_path_);
    save_s_.push_back(save.end());
  }
  {
    Scope s(log_, w_.backend == Backend::kHeap ? "serve.store.load_file"
                                               : "serve.mmap.open");
    p.served = open_backend(w_.backend, store_path_);
    open_s_.push_back(s.end());
  }
  setup_s_.push_back(total.end());
  setup_wall_s_ += setup_s_.back();
  setup_usage_ += Usage::now() - u0;
}

/// Cold start of a serving process: open or load the saved store, start
/// the service, answer the first batch. Returns the wall time including
/// teardown, which restart_ms leaves out.
double Run::restart() {
  const Usage u0 = Usage::now();
  const Clock::time_point t0 = Clock::now();
  const std::size_t offset = restart_ms_.size() * kBatch % traffic_.size();
  std::vector<Dist> out(kBatch);
  {
    Scope s(log_, "restart");
    QueryService service(open_backend(w_.backend, store_path_),
                         service_config());
    service.query_batch(batch_at(offset), out);
    restart_ms_.push_back(s.end() * 1e3);
  }
  if (restart_answers_.size() < kMaxSamples) {
    restart_answers_.emplace_back(offset, std::move(out));
  }
  restart_usage_ += Usage::now() - u0;
  return seconds_between(t0, Clock::now());
}

/// One serving chunk over the pass just set up: closed loop, one client
/// thread, the next batch sent when the previous one returns. Each slice
/// of slice_batches batches gives one qps / p50 / p99 reading;
/// metrics_json() reduces the readings of every chunk's slices. Restarts
/// take restart_share of the chunk's wall time, run between slices, so
/// that slices and restarts both sample the whole chunk: host load comes
/// and goes over seconds, and a burst of restarts in one place would
/// sample one moment of it. The chunk_restarts cap leaves the slices
/// more of the chunk when a restart is cheap (an mmap open). A traced
/// run records per-batch spans in every other slice, so traced and
/// untraced slices interleave and their qps difference is the tracing
/// overhead.
void Run::serve_chunk(double seconds) {
  QueryService service(live_->served, service_config());
  std::vector<Dist> out(kBatch);
  auto advance = [&] { cursor_ = (cursor_ + kBatch) % traffic_.size(); };
  {
    Scope warm(log_, "serve.warmup");
    for (std::size_t b = 0; b < sc_.warmup_batches; ++b) {
      service.query_batch(batch_at(cursor_), out);
      advance();
    }
  }
  auto degraded = [](const dsketch::QueryServiceStats& st) {
    return st.stale_answers + st.fallback_answers + st.shed_answers +
           st.query_failures;
  };
  degraded_ += degraded(service.stats());
  service.reset_stats();

  constexpr std::size_t kMinSlices = 2;  // per chunk; traced runs alternate
  lat_us_.resize(sc_.slice_batches);
  Scope chunk(log_, "serve.chunk");
  const Usage u0 = Usage::now();
  const Usage restart_u0 = restart_usage_;
  const Clock::time_point c0 = Clock::now();
  double restart_s = 0;
  std::size_t restarts = 0;
  for (std::size_t done = 0;
       done < kMinSlices || seconds_between(c0, Clock::now()) < seconds;
       ++done) {
    const bool traced = log_.enabled() && slices_.size() % 2 == 1;
    Scope slice(log_, traced ? "serve.slice.traced" : "serve.slice.untraced");
    const Clock::time_point s0 = Clock::now();
    for (std::size_t b = 0; b < sc_.slice_batches; ++b) {
      const Clock::time_point t0 = Clock::now();
      service.query_batch(batch_at(cursor_), out);
      const Clock::time_point t1 = Clock::now();
      lat_us_[b] = seconds_between(t0, t1) * 1e6;
      if (traced) log_.add("serve.query_batch", t0, t1);
      if (window_batches_++ % kSampleEvery == 0 &&
          sample_offsets_.size() < kMaxSamples) {
        sample_offsets_.push_back(cursor_);
        sample_answers_.insert(sample_answers_.end(), out.begin(), out.end());
      }
      advance();
    }
    const double wall = seconds_between(s0, Clock::now());
    slices_.push_back({static_cast<double>(sc_.slice_batches * kBatch) / wall,
                       quantile(lat_us_, 0.5), quantile(lat_us_, 0.99),
                       traced});
    while (restarts < sc_.chunk_restarts &&
           restart_s < sc_.restart_share * seconds_between(c0, Clock::now())) {
      restart_s += restart();
      ++restarts;
    }
  }
  window_wall_s_ += seconds_between(c0, Clock::now()) - restart_s;
  window_usage_ += (Usage::now() - u0) - (restart_usage_ - restart_u0);
  chunk.end();

  const dsketch::QueryServiceStats st = service.stats();
  degraded_ += degraded(st);
  chunk_slice_p50_us_.push_back(st.slice_latency_us.p50);
  chunk_slice_p99_us_.push_back(st.slice_latency_us.p99);
  shard_queries_.resize(st.shard_queries.size(), 0);
  for (std::size_t i = 0; i < st.shard_queries.size(); ++i) {
    shard_queries_[i] += st.shard_queries[i];
  }
}

/// Per-layer probes of the traced run, each outside the service.
void Run::probe_layers() {
  // Direct single-thread kernel over the workload's own pairs.
  const std::size_t probe = std::min(sc_.probe_pairs, traffic_.size());
  std::vector<Dist> out(probe);
  std::vector<double> ns;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Scope s(log_, "serve.kernel_probe");
    live_->served->query_batch({traffic_.data(), probe}, out);
    ns.push_back(s.end() * 1e9 / static_cast<double>(probe));
  }
  kernel_ns_ = median(ns);

  // Cold mmap queries: the same pairs each pass, pages released first.
  const auto* mmap = dynamic_cast<const dsketch::MmapSketchStore*>(
      w_.backend == Backend::kMmap ? live_->served.get() : other_.get());
  const std::size_t cold = std::min<std::size_t>(4096, probe);
  ns.clear();
  for (int rep = 0; rep < kProbeReps; ++rep) {
    mmap->drop_pages();
    Scope s(log_, "serve.mmap.cold_probe");
    mmap->query_batch({traffic_.data(), cold}, {out.data(), cold});
    ns.push_back(s.end() * 1e9 / static_cast<double>(cold));
  }
  cold_ns_ = median(ns);

  // Warm mmap kernel over the kernel probe's pairs: against
  // kernel_ns_per_query on the heap workloads, the cost of the varint
  // decode on the same store.
  ns.clear();
  for (int rep = 0; rep <= kProbeReps; ++rep) {
    Scope s(log_, "serve.mmap.warm_probe");
    mmap->query_batch({traffic_.data(), probe}, out);
    if (rep > 0) ns.push_back(s.end() * 1e9 / static_cast<double>(probe));
  }
  warm_ns_ = median(ns);

  // Cache hit rate over a fixed prefix of the stream from cold caches:
  // a pure function of the seed, unlike the timed window's query count.
  Scope s(log_, "serve.hit_rate_pass");
  QueryService service(live_->served, service_config());
  std::vector<Dist> batch_out(kBatch);
  const std::size_t pass = std::min(sc_.hit_pass_pairs, traffic_.size());
  for (std::size_t off = 0; off + kBatch <= pass; off += kBatch) {
    service.query_batch(batch_at(off), batch_out);
  }
  hit_rate_ = service.stats().hit_rate;
}

/// Service answers, the three representations, and stretch.
void Run::check_answers() {
  const DistanceOracle& served = *live_->served;
  const DistanceOracle& reference = *live_->reference;
  std::uint64_t wrong = 0;
  std::uint64_t missing = 0;
  auto check_batch = [&](std::size_t offset, const Dist* answers) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const QueryPair& q = traffic_[offset + i];
      if (answers[i] == dsketch::kInfDist) ++missing;
      if (answers[i] != served.query(q.first, q.second)) ++wrong;
    }
  };
  for (const auto& [offset, answers] : restart_answers_) {
    check_batch(offset, answers.data());
  }
  for (std::size_t s = 0; s < sample_offsets_.size(); ++s) {
    check_batch(sample_offsets_[s], sample_answers_.data() + s * kBatch);
  }
  attempted_ += (window_batches_ + restart_ms_.size()) * kBatch;
  fail(wrong, "service answers differ from the oracle's own query");
  fail(missing, "service answered kInfDist on a connected graph");
  fail(degraded_, "service served degraded answers");

  // Heap, mmap and the label reference agree pair by pair.
  const DistanceOracle& other = *other_;
  dsketch::Rng rng(derive_seed(opt_.seed, 5));
  std::uint64_t disagree = 0;
  for (std::size_t i = 0; i < sc_.check_pairs; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n_));
    const auto v = static_cast<NodeId>(rng.below(n_));
    const Dist want = reference.query(u, v);
    if (served.query(u, v) != want || other.query(u, v) != want) ++disagree;
  }
  attempted_ += sc_.check_pairs;
  fail(disagree, "heap, mmap and reference answers disagree");

  // Stretch against exact distances, source-parallel.
  std::vector<NodeId> sources(sc_.stretch_sources);
  for (NodeId& s : sources) s = static_cast<NodeId>(rng.below(n_));
  std::vector<double> sum(sources.size(), 0);
  std::vector<std::uint64_t> count(sources.size(), 0);
  std::vector<std::uint64_t> bad(sources.size(), 0);
  const Graph& g = live_->graph;
  const std::uint64_t seed = derive_seed(opt_.seed, 6);
  build_pool_.for_each_dynamic(sources.size(), [&](std::size_t, std::size_t i) {
    const std::vector<Dist> exact = dsketch::dijkstra(g, sources[i]);
    dsketch::Rng pick(seed + i);
    for (std::size_t t = 0; t < sc_.stretch_targets; ++t) {
      const auto v = static_cast<NodeId>(pick.below(n_));
      const Dist d = exact[v];
      if (v == sources[i] || d == 0 || d == dsketch::kInfDist) continue;
      const Dist est = served.query(sources[i], v);
      if (est < d || est > (2 * kK - 1) * d) ++bad[i];
      sum[i] += static_cast<double>(est) / static_cast<double>(d);
      ++count[i];
    }
  });
  double total = 0;
  std::uint64_t pairs = 0;
  std::uint64_t out_of_range = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    total += sum[i];
    pairs += count[i];
    out_of_range += bad[i];
  }
  stretch_mean_ = pairs == 0 ? 0 : total / static_cast<double>(pairs);
  attempted_ += pairs;
  fail(out_of_range, "stretch outside [1, 2k-1]");
  if (pairs == 0) fail(1, "no stretch pairs sampled");
}

/// Builds `g` in-network (unless `distributed_done` already holds that
/// build) and centrally on hierarchy `h`; compares labels and v3 bytes.
/// `saved_store`, when given, is the file the in-network set-up saved.
CongestCheck Run::congest_check(const Graph& g, const Hierarchy& h,
                                const TzLabelOracle* distributed_done,
                                const std::string* saved_store) {
  CongestCheck c;
  std::optional<TzLabelOracle> distributed;
  if (distributed_done == nullptr) {
    Scope s(log_, "congest.build_tz_distributed");
    dsketch::SimConfig cfg;
    cfg.threads = static_cast<unsigned>(build_lanes_);
    dsketch::TzDistributedResult r = dsketch::build_tz_distributed(
        g, h, dsketch::TerminationMode::kOracle, cfg);
    c.sim = r.tree_stats;
    c.sim += r.stats;
    c.completed = r.completed;
    distributed_done = &distributed.emplace(std::move(r.labels), kK);
    c.build_s = s.end();
  }
  Scope s(log_, "sketch.build_tz_centralized");
  const TzLabelOracle central(
      dsketch::build_tz_centralized(g, h, &build_pool_), kK);
  c.centralized_s = s.end();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!(distributed_done->labels().view(u) == central.labels().view(u))) {
      ++c.label_mismatches;
    }
  }
  const std::string central_bytes = v3_bytes(central);
  c.bytes_equal = central_bytes == (saved_store != nullptr
                                        ? read_file(*saved_store)
                                        : v3_bytes(*distributed_done));
  return c;
}

/// build-congest: the set-up's in-network build completed within the
/// round limit and its saved store is byte-identical to the centralized
/// build's. serve-*: the same comparison on a seeded companion graph, so
/// every run re-confirms that the centralized set-up serves the bytes the
/// distributed build would.
void Run::check_in_network() {
  if (w_.in_network) {
    congest_ = congest_check(live_->graph, *live_->hierarchy,
                             &*live_->reference, &store_path_);
    congest_->sim = live_->sim;
    congest_->completed = live_->completed;
    congest_->build_s = median(build_s_);
  } else {
    {
      Scope s(log_, "input.companion_edge_list");
      generate_input(companion_path_, sc_.companion_n,
                     derive_seed(opt_.seed, 7));
    }
    const Graph g = dsketch::ingest_edge_list_file(
        companion_path_, dsketch::IngestFormat::kSnap);
    congest_ = congest_check(
        g, sample_hierarchy(g.num_nodes(), derive_seed(opt_.seed, 8)),
        nullptr, nullptr);
  }
  const CongestCheck& c = *congest_;
  attempted_ += 1;
  fail(c.completed ? 0 : 1, "in-network build did not complete");
  fail(c.sim.hit_round_limit ? 1 : 0, "in-network build hit the round limit");
  fail(c.label_mismatches, "in-network labels differ from centralized");
  fail(c.bytes_equal ? 0 : 1, "in-network store bytes differ from centralized");
}

void emit(std::string& out, const char* name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                out.empty() ? "" : ",", name, value, unit);
  out += buf;
}

std::string Run::metrics_json() const {
  std::string m;
  if (!opt_.trace) {
    std::vector<double> qps, p50, p99;
    for (const Slice& s : slices_) {
      qps.push_back(s.qps);
      p50.push_back(s.p50_us);
      p99.push_back(s.p99_us);
    }
    emit(m, "setup_s", median(setup_s_), "s");
    emit(m, "restart_ms", median(restart_ms_), "ms");
    emit(m, "qps", median(qps), "1/s");
    emit(m, "batch_p50_us", median(p50), "us");
    emit(m, "batch_p99_us", better_half_mean(p99), "us");
    emit(m, "correct_frac",
         1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_),
         "frac");
    emit(m, "store_bytes_per_node",
         static_cast<double>(store_file_bytes_) / n_, "B");
    emit(m, "peak_rss_mb", peak_rss_mb_, "MiB");
    emit(m, "stretch_mean", stretch_mean_, "ratio");
    return m;
  }
  const CongestCheck& c = *congest_;
  const dsketch::LabelArena& labels = live_->reference->labels();
  const double bunch_bound = kK * std::pow(static_cast<double>(n_), 1.0 / kK);
  const bool heap = w_.backend == Backend::kHeap;
  double shard_mean = 0;
  std::uint64_t shard_max = 0;
  for (std::uint64_t q : shard_queries_) {
    shard_mean += static_cast<double>(q);
    shard_max = std::max(shard_max, q);
  }
  shard_mean /= static_cast<double>(std::max<std::size_t>(1, shard_queries_.size()));
  std::vector<double> traced, untraced;
  for (const Slice& s : slices_) (s.traced ? traced : untraced).push_back(s.qps);
  const Usage& cpu = w_.in_network ? setup_usage_ : window_usage_;
  const double cpu_wall = w_.in_network ? setup_wall_s_ : window_wall_s_;
  const double lanes = static_cast<double>(w_.in_network ? build_lanes_
                                                         : kServeLanes);
  Usage faults = restart_usage_;
  faults += window_usage_;
  const double qps_off = median(untraced);

  emit(m, "graph.ingest_s", median(ingest_s_), "s");
  emit(m, "sketch.tz_centralized_s",
       w_.in_network ? c.centralized_s : median(build_s_), "s");
  emit(m, "sketch.label_words_per_node", labels.mean_size_words(), "words");
  emit(m, "sketch.bunch_bound_ratio",
       static_cast<double>(labels.total_entries()) / n_ / bunch_bound,
       "ratio");
  emit(m, "congest.build_s", c.build_s, "s");
  emit(m, "congest.build_rounds", static_cast<double>(c.sim.rounds), "count");
  emit(m, "congest.build_messages", static_cast<double>(c.sim.messages),
       "count");
  emit(m, "congest.ns_per_message",
       c.build_s * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(1, c.sim.messages)),
       "ns");
  emit(m, "congest.node_steps", static_cast<double>(c.sim.node_steps),
       "count");
  emit(m, "congest.words", static_cast<double>(c.sim.words), "count");
  emit(m, "congest.max_outbox", static_cast<double>(c.sim.max_outbox),
       "count");
  emit(m, "serve.store.pack_s", median(pack_s_), "s");
  emit(m, "serve.store.save_s", median(save_s_), "s");
  emit(m, "serve.store.load_s", heap ? median(open_s_) : other_open_s_, "s");
  emit(m, "serve.store.heap_bytes_per_node", heap_bytes_ / n_, "B");
  emit(m, "serve.mmap.open_s", heap ? other_open_s_ : median(open_s_), "s");
  emit(m, "serve.mmap.cold_ns_per_query", cold_ns_, "ns");
  emit(m, "serve.minor_faults", static_cast<double>(faults.minor_faults),
       "count");
  emit(m, "serve.major_faults", static_cast<double>(faults.major_faults),
       "count");
  emit(m, "serve.kernel_ns_per_query", kernel_ns_, "ns");
  emit(m, "serve.mmap.warm_ns_per_query", warm_ns_, "ns");
  emit(m, "serve.batch_samples",
       static_cast<double>(slices_.size() * sc_.slice_batches), "count");
  emit(m, "serve.query_service.hit_rate", hit_rate_, "ratio");
  emit(m, "serve.query_service.slice_p50_us", median(chunk_slice_p50_us_),
       "us");
  emit(m, "serve.query_service.slice_p99_us", median(chunk_slice_p99_us_),
       "us");
  emit(m, "serve.query_service.shard_imbalance",
       shard_mean > 0 ? static_cast<double>(shard_max) / shard_mean : 0,
       "ratio");
  emit(m, "serve.query_service.degraded_answers",
       static_cast<double>(degraded_), "count");
  emit(m, "util.thread_pool.cpu_util", cpu.cpu_seconds / (cpu_wall * lanes),
       "ratio");
  emit(m, "trace.qps_overhead_pct",
       qps_off > 0 ? (qps_off - median(traced)) / qps_off * 100 : 0, "%");
  emit(m, "trace.spans", static_cast<double>(log_.size()), "count");
  return m;
}

/// Comment lines ahead of the JSON result: input sizes, sample counts and
/// the per-repetition series behind each median.
void Run::print_summary() const {
  std::printf("# workload=%s scale=%s seed=%llu trace=%d lanes(build=%zu "
              "serve=%zu)\n",
              w_.name, sc_.name, static_cast<unsigned long long>(opt_.seed),
              opt_.trace ? 1 : 0, build_lanes_, kServeLanes);
  std::printf("# input: n=%u m=%zu k=%u store_bytes=%llu heap_bytes=%.0f\n",
              live_->graph.num_nodes(), live_->graph.num_edges(), kK,
              static_cast<unsigned long long>(store_file_bytes_), heap_bytes_);
  std::printf("# samples: setups=%zu restarts=%zu slices=%zu batches=%llu "
              "(batch=%zu pairs)\n",
              setup_s_.size(), restart_ms_.size(), slices_.size(),
              static_cast<unsigned long long>(window_batches_), kBatch);
  auto series = [](const char* label, const std::vector<double>& xs) {
    std::printf("# %s:", label);
    for (double x : xs) std::printf(" %.4g", x);
    std::printf("\n");
  };
  std::vector<double> qps, p50, p99;
  for (const Slice& s : slices_) {
    qps.push_back(s.qps);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
  }
  series("setup_s", setup_s_);
  std::printf("# restart_ms: n=%zu min=%.4g q1=%.4g median=%.4g q3=%.4g "
              "max=%.4g\n",
              restart_ms_.size(),
              *std::min_element(restart_ms_.begin(), restart_ms_.end()),
              quantile(restart_ms_, 0.25), median(restart_ms_),
              quantile(restart_ms_, 0.75),
              *std::max_element(restart_ms_.begin(), restart_ms_.end()));
  series("slice_qps", qps);
  series("slice_p50_us", p50);
  series("slice_p99_us", p99);
}

int Run::execute() {
  generate_inputs();
  // Set-up passes, each followed by a serving chunk, so the serving
  // measurement is spread over the whole run rather than one stretch of it.
  const double chunk_s =
      sc_.timed_window ? opt_.seconds / sc_.setup_reps : 0;
  for (int rep = 0; rep < sc_.setup_reps; ++rep) {
    set_up();
    serve_chunk(chunk_s);
  }
  store_file_bytes_ = std::filesystem::file_size(store_path_);
  peak_rss_mb_ = peak_rss_mb();

  {
    const Backend other = w_.backend == Backend::kHeap ? Backend::kMmap
                                                       : Backend::kHeap;
    Scope s(log_, other == Backend::kMmap ? "serve.mmap.open"
                                          : "serve.store.load_file");
    other_ = open_backend(other, store_path_);
    other_open_s_ = s.end();
  }
  heap_bytes_ = static_cast<double>(
      dynamic_cast<const SketchStore&>(
          w_.backend == Backend::kHeap ? *live_->served : *other_)
          .payload_bytes());
  if (opt_.trace) probe_layers();
  check_answers();
  check_in_network();

  print_summary();
  if (opt_.trace) {
    const std::string path = opt_.work_dir + "/trace-" + w_.name + ".json";
    if (!log_.write_chrome(path)) fail(1, "cannot write trace " + path);
    std::printf("# trace: %s (%zu spans, %llu dropped)\n", path.c_str(),
                log_.size(), static_cast<unsigned long long>(log_.dropped()));
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              metrics_json().c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options opt = perfbench::parse_args(argc, argv);
    perfbench::Run run(opt);
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
}
