// Perf ledger runner: runs one benchmark workload per process and prints
// its metrics as the last line of stdout (one JSON object).
//
//   bench_ledger <workload> [seed=N] [seconds=S] [trace=0|1]
//                [work_dir=DIR] [trace_out=PATH]
//   bench_ledger smoke [work_dir=DIR]     every workload at toy size
//
// Workloads (LEDGER.md says why each one exists):
//   campus_paper      scenario::run_experiment, paper campus, 140 MNs, 1800 s
//   campus_city       the same on campus_blocks=10 (1720 MNs), 600 s
//   serve_standalone  ShardedDirectory + IngestPipeline + WalWriter driven
//                     like `mgrid_serve mode=synthetic`, open then closed loop
//   cluster_2shard    cluster::Router in front of two loopback shard nodes,
//                     shard-0 replicated to a Follower
//
// The benchmark reaches every layer only through public calls and times
// those calls from outside. Program telemetry stays off (obs::enabled() is
// never set). With trace=1 the same workload runs with the benchmark's own
// in-memory spans around each call, isolated replays time the layers the
// loop reaches only indirectly, and the spans are written as Chrome
// trace_event JSON to trace_out.
//
// The amount of work is a fixed function of (seed, seconds), sized so that
// the measured phases take about `seconds` on a 4-core machine; a slower
// build takes longer, it never does less work.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "broker/location_db.h"
#include "cluster/handoff.h"
#include "cluster/lu_server.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "core/adf.h"
#include "core/classifier.h"
#include "core/clustering.h"
#include "core/distance_filter.h"
#include "estimation/estimator.h"
#include "geo/campus.h"
#include "scenario/experiment.h"
#include "scenario/workload.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "util/rng.h"

using namespace mgrid;
namespace wire = serve::wire;

namespace {

// ---------------------------------------------------------------------------
// Clocks, random numbers, digests, percentiles
// ---------------------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spins until `due`.
void wait_until(std::int64_t due) {
  while (now_ns() < due) {
  }
}

/// The benchmark's own splitmix64 stream, so a change to util::RngRegistry
/// cannot silently change the generated inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the raw bytes of the generated inputs.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Percentile p in [0, 1], estimated as the mean of the samples whose rank
/// lies within +-0.5% of n of the nearest rank (one sample when n < 200).
/// Short operations read the clock in whole nanoseconds; averaging the rank
/// window keeps a quantised value from repeating exactly across runs.
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const double rank = std::max(std::ceil(p * n), 1.0) - 1.0;
  const double half = std::floor(0.005 * n);
  const auto lo = static_cast<std::size_t>(std::max(rank - half, 0.0));
  const auto hi = static_cast<std::size_t>(std::min(rank + half, n - 1.0));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Result of one workload run
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct LedgerRow {
  std::string layer;
  double ns_per_call = 0.0;
  double calls_per_lu = 0.0;
  bool additive = true;  ///< On the thread whose wall time the row explains.
};

struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0;
  std::string digest_of;
  std::vector<LedgerRow> ledger;
  double ledger_e2e_ns_per_lu = 0.0;

  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  /// A correctness check; `count` failed operations when it does not hold.
  void check(bool ok, const std::string& what, std::uint64_t count = 1) {
    if (ok) return;
    failed += std::max<std::uint64_t>(count, 1);
    failures.push_back(what);
    std::cerr << "CHECK FAILED: " << what << '\n';
  }
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string to_json(const Report& report) {
  std::ostringstream out;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(report.digest));
  out << "{\"workload\":" << json_string(report.workload)
      << ",\"correct\":" << (report.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"digest\":\"" << digest
      << "\",\"digest_of\":" << json_string(report.digest_of)
      << ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out << (i ? "," : "") << json_string(report.failures[i]);
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i ? "," : "") << json_string(m.name)
        << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << ",\"samples\":" << m.samples
        << "}";
  }
  out << "},\"ledger\":{\"e2e_ns_per_lu\":"
      << json_number(report.ledger_e2e_ns_per_lu) << ",\"rows\":[";
  for (std::size_t i = 0; i < report.ledger.size(); ++i) {
    const LedgerRow& row = report.ledger[i];
    out << (i ? "," : "") << "{\"layer\":" << json_string(row.layer)
        << ",\"ns_per_call\":" << json_number(row.ns_per_call)
        << ",\"calls_per_lu\":" << json_number(row.calls_per_lu)
        << ",\"additive\":" << (row.additive ? "true" : "false") << "}";
  }
  out << "]}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// The benchmark's own tracing: per-layer call counts and busy time, spans
// kept in memory and written as Chrome trace_event JSON at exit.
// ---------------------------------------------------------------------------

enum Layer : std::size_t {
  kGenerate,      // bench: advance the synthetic population one tick
  kEncode,        // wire::encode
  kDecode,        // wire::decode_frame
  kSubmit,        // IngestPipeline::submit
  kFlush,         // IngestPipeline::flush
  kAppendTick,    // WalWriter::append_tick
  kAdvance,       // ShardedDirectory::advance_estimates
  kLookup,        // ShardedDirectory::lookup / Router::lookup
  kRegion,        // query_region
  kKnn,           // k_nearest
  kRouterSubmit,  // Router::submit
  kRouterTick,    // Router::tick
  kStep,          // Workload::step_all
  kAdf,           // AdaptiveDistanceFilter::process
  kApplyUpdate,   // LocationDb::record_update -> MnTrack::apply_update
  kDbAdvance,     // LocationDb::advance_estimates -> MnTrack::advance
  kClassify,      // MobilityClassifier::observe + classify (isolated)
  kAssign,        // SequentialClusterer::assign (isolated)
  kRebuild,       // SequentialClusterer::rebuild (isolated)
  kDistance,      // DistanceFilter::apply (isolated)
  kObserve,       // LocationEstimator::observe (isolated)
  kEstimate,      // LocationEstimator::estimate (isolated)
  kApplyBatch,    // ShardedDirectory::apply_batch (isolated)
  kWalAppend,     // WalWriter::append (isolated)
  kRingOwner,     // HashRing::owner (isolated)
  kHubOnLu,       // ReplicationHub::on_lu (isolated)
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerName = {
    "generate",         "wire.encode",         "wire.decode",
    "ingest.submit",    "ingest.flush",        "wal.append_tick",
    "directory.advance", "query.lookup",       "query.region",
    "query.knn",        "router.submit",       "router.tick",
    "workload.step_all", "adf.process",
    "db.record_update", "db.advance_estimates",
    "classifier",       "clusterer.assign",    "clusterer.rebuild",
    "distance_filter",  "estimator.observe",   "estimator.estimate",
    "directory.apply_batch", "wal.append",     "ring.owner",
    "hub.on_lu"};
static_assert(kLayerName.back() != nullptr, "one name per Layer");

struct LayerStat {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  [[nodiscard]] double ns_per_call() const {
    return ratio(static_cast<double>(ns), static_cast<double>(calls));
  }
};
using Layers = std::array<LayerStat, kLayerCount>;

Layers minus(const Layers& a, const Layers& b) {
  Layers out{};
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    out[i] = {a[i].calls - b[i].calls, a[i].ns - b[i].ns};
  }
  return out;
}

void accumulate(Layers& into, const Layers& delta) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    into[i].calls += delta[i].calls;
    into[i].ns += delta[i].ns;
  }
}

/// Layers called once per LU get one sampled span per this many calls; the
/// per-tick root span carries their exact count and busy time.
constexpr std::uint64_t kSpanSample = 64;

class Probe {
 public:
  /// Tracing on/off; while off, time() is a plain call.
  bool on = false;
  Layers layers{};

  /// Runs `fn` (which returns a value) and, while tracing, charges its time
  /// to `layer` and records a span for every `every`-th call.
  template <typename Fn>
  auto time(Layer layer, Fn&& fn, std::uint64_t every = 1) {
    if (!on) return fn();
    const std::int64_t start = now_ns();
    auto result = fn();
    const std::int64_t end = now_ns();
    LayerStat& stat = layers[layer];
    ++stat.calls;
    stat.ns += end - start;
    if (every == 1 || stat.calls % every == 1) {
      spans_.push_back({kLayerName[layer], start, end, tick_span_, tick_});
    }
    return result;
  }

  /// Opens the root span of one tick; per-LU layers are summed under it.
  void begin_tick(std::uint64_t tick) {
    if (!on) return;
    tick_ = tick;
    tick_span_ = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({"tick", now_ns(), 0, -1, tick});
    at_tick_start_ = layers;
  }

  void end_tick() {
    if (!on || tick_span_ < 0) return;
    spans_[static_cast<std::size_t>(tick_span_)].end = now_ns();
    const Layers delta = minus(layers, at_tick_start_);
    std::ostringstream args;
    bool first = true;
    for (const Layer layer :
         {kEncode, kDecode, kSubmit, kRouterSubmit, kAdf, kApplyUpdate}) {
      if (delta[layer].calls == 0) continue;
      args << (first ? "" : ",") << json_string(kLayerName[layer])
           << ":{\"calls\":" << delta[layer].calls
           << ",\"busy_ns\":" << delta[layer].ns << "}";
      first = false;
    }
    tick_args_.emplace_back(tick_span_, args.str());
    tick_span_ = -1;
  }

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Writes every span as a Chrome trace_event "X" event.
  void write_chrome(const std::string& path, const std::string& process) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::map<std::int32_t, const std::string*> args;
    for (const auto& [span, text] : tick_args_) args[span] = &text;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"process\":"
        << json_string(process) << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << json_number(static_cast<double>(span.start - origin) / 1e3)
          << ",\"dur\":"
          << json_number(static_cast<double>(span.end - span.start) / 1e3)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << ",\"tick\":" << span.tick;
      const auto it = args.find(static_cast<std::int32_t>(i));
      if (it != args.end() && !it->second->empty()) out << "," << *it->second;
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::uint64_t tick;
  };
  std::vector<Span> spans_;
  std::vector<std::pair<std::int32_t, std::string>> tick_args_;
  Layers at_tick_start_{};
  std::int32_t tick_span_ = -1;
  std::uint64_t tick_ = 0;
};

// ---------------------------------------------------------------------------
// Synthetic LU stream for the serve and cluster workloads
// ---------------------------------------------------------------------------

/// Table-1 mobility classes. Per 140 MNs: building SS, RMS and LMS 30 each,
/// road humans and vehicles 25 each; speeds are drawn from the VR column.
struct MnClass {
  double lo;
  double hi;
  int share;
};
enum MnKind { kSs, kRms, kLms, kRoadHuman, kVehicle, kKindCount };
constexpr std::array<MnClass, kKindCount> kTable1 = {{
    {0.0, 0.0, 30}, {0.0, 1.0, 30}, {0.5, 1.5, 30}, {1.0, 4.0, 25},
    {4.0, 10.0, 25}}};

MnKind kind_of(std::uint32_t mn) {
  int slot = static_cast<int>(mn % 140);
  for (int kind = 0; kind < kKindCount; ++kind) {
    if (slot < kTable1[kind].share) return static_cast<MnKind>(kind);
    slot -= kTable1[kind].share;
  }
  return kVehicle;
}

/// MNs move one second per tick on a square: SS stand still, RMS draw a new
/// heading every tick, LMS and vehicles go straight and reflect off the
/// borders. An MN emits a tick's LU only once it has moved at least its
/// class mean speed x 1 s since its last emitted LU (the output of the
/// paper's ADF at 1.0 av), so about half the tracks are stale each tick.
class LuStream {
 public:
  LuStream(std::uint64_t seed, std::uint32_t nodes, double side)
      : rng_(seed ^ 0x6C75737472656D31ULL), side_(side) {
    mns_.resize(nodes);
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      Mn& m = mns_[mn];
      m.kind = kind_of(mn);
      const MnClass& cls = kTable1[m.kind];
      m.x = rng_.uniform(0.0, side);
      m.y = rng_.uniform(0.0, side);
      m.speed = rng_.uniform(cls.lo, cls.hi);
      m.threshold = 0.5 * (cls.lo + cls.hi);
      set_heading(m, rng_.uniform(0.0, 2.0 * M_PI));
    }
  }

  /// Moves every MN one second and appends tick k's LUs in MN order.
  void tick(std::uint64_t k, std::vector<wire::LuMsg>& out) {
    out.clear();
    const double t = static_cast<double>(k);
    for (std::uint32_t mn = 0; mn < mns_.size(); ++mn) {
      Mn& m = mns_[mn];
      if (m.kind != kSs) {
        if (m.kind == kRms) set_heading(m, rng_.uniform(0.0, 2.0 * M_PI));
        m.x += m.vx;
        m.y += m.vy;
        reflect(m.x, m.vx);
        reflect(m.y, m.vy);
      }
      const double moved = std::hypot(m.x - m.anchor_x, m.y - m.anchor_y);
      if (m.reported && !(moved > 0.0 && moved >= m.threshold)) continue;
      m.reported = true;
      m.anchor_x = m.x;
      m.anchor_y = m.y;
      wire::LuMsg lu;
      lu.mn = mn;
      lu.seq = ++m.seq;
      lu.t = t;
      lu.x = m.x;
      lu.y = m.y;
      lu.vx = m.vx;
      lu.vy = m.vy;
      digest_.add(lu.mn);
      digest_.add(lu.seq);
      digest_.add(lu.t);
      digest_.add(lu.x);
      digest_.add(lu.y);
      digest_.add(lu.vx);
      digest_.add(lu.vy);
      out.push_back(lu);
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }

 private:
  struct Mn {
    double x = 0.0, y = 0.0, vx = 0.0, vy = 0.0;
    double speed = 0.0, threshold = 0.0;
    double anchor_x = 0.0, anchor_y = 0.0;
    std::uint32_t seq = 0;
    MnKind kind = kSs;
    bool reported = false;
  };

  static void set_heading(Mn& m, double heading) {
    m.vx = m.speed * std::cos(heading);
    m.vy = m.speed * std::sin(heading);
  }
  void reflect(double& p, double& v) const {
    if (p < 0.0) {
      p = -p;
      v = -v;
    } else if (p > side_) {
      p = 2.0 * side_ - p;
      v = -v;
    }
  }

  SplitMix rng_;
  double side_;
  std::vector<Mn> mns_;
  Fnv1a digest_;
};

// ---------------------------------------------------------------------------
// Shared pieces of the serve and cluster workloads
// ---------------------------------------------------------------------------

std::unique_ptr<estimation::LocationEstimator> brown_polar() {
  return estimation::make_estimator("brown_polar", 0.0, 1.0);
}

/// Phase sizes of a serving run (see drive_serving).
struct ServePlan {
  std::uint32_t nodes = 0;
  double side = 0.0;
  std::uint64_t warmup_ticks = 0;
  std::uint64_t open_ticks = 0;
  std::uint64_t closed_ticks = 0;
  /// Open loop: ticks are due every `period` seconds; a tick's LUs are due
  /// evenly across its period and its barrier right after its last LU.
  double period = 0.0;
  /// Open-loop query rates, per second.
  double lookup_rate = 0.0, region_rate = 0.0, knn_rate = 0.0;
  /// Closed-loop ticks per block; trace mode alternates traced and untraced
  /// blocks to measure the tracing overhead.
  std::uint64_t block_ticks = 0;
  /// Ticks replayed in isolation to time the indirectly reached layers.
  std::uint64_t replay_ticks = 0;
  /// Set-ups timed per run, spread over its rounds (setup_s is their median).
  std::uint64_t setups = 0;
  /// Every stack starts from a snapshot of ticks 1..bootstrap_ticks.
  std::uint64_t bootstrap_ticks = 0;
};

constexpr double kRegionRadius = 75.0;
constexpr std::uint32_t kNeighbors = 8;

/// Bit-exact comparison of two directory snapshots; returns mismatches.
std::uint64_t snapshot_mismatches(
    const std::vector<serve::DirectoryEntry>& got,
    const std::vector<serve::DirectoryEntry>& want) {
  std::uint64_t bad = got.size() > want.size() ? got.size() - want.size()
                                               : want.size() - got.size();
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    const bool same =
        a.mn == b.mn && a.estimated == b.estimated &&
        std::bit_cast<std::uint64_t>(a.t) == std::bit_cast<std::uint64_t>(b.t) &&
        std::bit_cast<std::uint64_t>(a.position.x) ==
            std::bit_cast<std::uint64_t>(b.position.x) &&
        std::bit_cast<std::uint64_t>(a.position.y) ==
            std::bit_cast<std::uint64_t>(b.position.y);
    if (!same) ++bad;
  }
  return bad;
}

/// Feeds ticks 1..last of `stream` into a one-shard directory serially:
/// update() per LU and advance_estimates() per tick.
void feed_serial(serve::ShardedDirectory& directory, LuStream& stream,
                 std::uint64_t last_tick) {
  std::vector<wire::LuMsg> lus;
  for (std::uint64_t k = 1; k <= last_tick; ++k) {
    stream.tick(k, lus);
    for (const wire::LuMsg& lu : lus) {
      directory.update(lu.mn, lu.t, {lu.x, lu.y}, {lu.vx, lu.vy});
    }
    directory.advance_estimates(static_cast<double>(k));
  }
}

serve::DirectoryOptions one_shard() {
  serve::DirectoryOptions options;
  options.shards = 1;
  return options;
}

/// The serial reference over the same stream (ticks 1..last).
std::vector<serve::DirectoryEntry> serial_reference(const ServePlan& plan,
                                                    std::uint64_t seed,
                                                    std::uint64_t last_tick) {
  serve::ShardedDirectory directory(one_shard(), brown_polar());
  LuStream stream(seed, plan.nodes, plan.side);
  feed_serial(directory, stream, last_tick);
  return directory.snapshot();
}

/// The mgrid-snap-v1 image every stack of a run restores from: the serial
/// directory after ticks 1..bootstrap_ticks of `stream`, cut at that tick.
std::vector<std::uint8_t> bootstrap_image(const ServePlan& plan,
                                          LuStream& stream) {
  serve::ShardedDirectory directory(one_shard(), brown_polar());
  feed_serial(directory, stream, plan.bootstrap_ticks);
  std::vector<std::uint8_t> image;
  if (!serve::encode_snapshot(directory, 0,
                              static_cast<double>(plan.bootstrap_ticks),
                              image)) {
    throw std::runtime_error("bootstrap snapshot refused");
  }
  return image;
}

/// Parses a snapshot image as a restart does; throws on a damaged image.
serve::SnapshotData decode_image(const std::vector<std::uint8_t>& image) {
  serve::SnapshotData data;
  if (!serve::decode_snapshot(image.data(), image.size(), data)) {
    throw std::runtime_error("snapshot image does not decode");
  }
  return data;
}

/// The open-loop query schedule: three fixed-rate streams with their own
/// due times, interleaved with the LU stream by due time.
class QuerySchedule {
 public:
  QuerySchedule(const ServePlan& plan, std::uint64_t seed, std::int64_t start)
      : rng_(seed ^ 0x7175657279000000ULL), side_(plan.side),
        nodes_(plan.nodes) {
    const double rates[3] = {plan.lookup_rate, plan.region_rate,
                             plan.knn_rate};
    for (int q = 0; q < 3; ++q) {
      period_[q] = rates[q] > 0.0 ? static_cast<std::int64_t>(1e9 / rates[q])
                                  : INT64_MAX / 4;
      // Offsets keep the three streams from landing on the same instant.
      next_[q] = start + period_[q] * (q + 1) / 4;
    }
  }

  /// Runs every query due at or before `until`, each timed from its due
  /// time. `run(kind, due)` executes one query of Layer kind.
  template <typename Run>
  void run_due(std::int64_t until, Run&& run) {
    for (;;) {
      int q = 0;
      for (int i = 1; i < 3; ++i) {
        if (next_[i] < next_[q]) q = i;
      }
      if (next_[q] > until) return;
      const std::int64_t due = next_[q];
      next_[q] += period_[q];
      run(q == 0 ? kLookup : (q == 1 ? kRegion : kKnn), due);
    }
  }

  std::uint32_t mn() { return rng_.below(nodes_); }
  geo::Vec2 point() {
    const double x = rng_.uniform(0.0, side_);
    return {x, rng_.uniform(0.0, side_)};
  }

 private:
  SplitMix rng_;
  double side_;
  std::uint32_t nodes_;
  std::int64_t period_[3] = {};
  std::int64_t next_[3] = {};
};

/// Latency samples of the open-loop segments.
struct OpenLoopSamples {
  std::vector<double> tick_ms;
  std::vector<double> lookup_us, region_us, knn_us;
  std::vector<double> lag_ms;  ///< Generator lateness (start - due).
  std::uint64_t lus = 0;
  std::int64_t wall_ns = 0;
};

std::vector<double>& latency_bucket(OpenLoopSamples& s, Layer kind) {
  return kind == kLookup ? s.lookup_us : (kind == kRegion ? s.region_us
                                                          : s.knn_us);
}

void add_open_loop_metrics(Report& report, const OpenLoopSamples& s) {
  report.add("tick_p50_ms", percentile(s.tick_ms, 0.50), "ms",
             s.tick_ms.size());
  report.add("tick_p95_ms", percentile(s.tick_ms, 0.95), "ms",
             s.tick_ms.size());
  report.add("tick_p99_ms", percentile(s.tick_ms, 0.99), "ms",
             s.tick_ms.size());
  const std::pair<const char*, const std::vector<double>*> reads[] = {
      {"lookup", &s.lookup_us}, {"region", &s.region_us}, {"knn", &s.knn_us}};
  for (const auto& [name, samples] : reads) {
    report.add(std::string(name) + "_p50_us", percentile(*samples, 0.50),
               "us", samples->size());
    report.add(std::string(name) + "_p99_us", percentile(*samples, 0.99),
               "us", samples->size());
  }
  report.add("open_loop_lu_s",
             ratio(static_cast<double>(s.lus), 1e-9 * static_cast<double>(s.wall_ns)),
             "1/s", s.lus);
}

/// Operation outcomes of the load loops, by kind.
struct Ops {
  std::uint64_t lus = 0, lus_rejected = 0;
  std::uint64_t ticks = 0, ticks_failed = 0;
  std::uint64_t queries = 0, queries_failed = 0;
};

/// Closed loop: each tick generates, emits every LU, then runs the barrier.
/// Returns the wall time of the ticks.
template <typename Stack>
std::int64_t run_closed(Stack& stack, LuStream& stream, Probe& probe,
                        std::uint64_t first_tick, std::uint64_t ticks,
                        Ops& ops) {
  std::vector<wire::LuMsg> lus;
  const std::int64_t start = now_ns();
  for (std::uint64_t k = first_tick; k < first_tick + ticks; ++k) {
    probe.begin_tick(k);
    probe.time(kGenerate, [&] {
      stream.tick(k, lus);
      return true;
    });
    for (const wire::LuMsg& lu : lus) {
      ++ops.lus;
      if (!stack.emit(lu, probe)) ++ops.lus_rejected;
    }
    ++ops.ticks;
    if (!stack.barrier(k, probe)) ++ops.ticks_failed;
    probe.end_tick();
  }
  return now_ns() - start;
}

/// One open-loop segment of `ticks` ticks on a fixed schedule that does not
/// slow down when the stack does: every LU, query and barrier is timed from
/// its due time, so a stall is charged to everything queued behind it.
/// Samples are appended to `s`; `segment` keys the query stream.
template <typename Stack>
void run_open(Stack& stack, LuStream& stream, Probe& probe,
              const ServePlan& plan, std::uint64_t seed, std::uint64_t segment,
              std::uint64_t first_tick, std::uint64_t ticks, Ops& ops,
              OpenLoopSamples& s) {
  const auto period = static_cast<std::int64_t>(plan.period * 1e9);
  const std::int64_t start = now_ns() + 1'000'000;
  QuerySchedule queries(plan, seed + segment * 0x9E3779B97F4A7C15ULL, start);
  const auto run_query = [&](Layer kind, std::int64_t due) {
    wait_until(due);
    s.lag_ms.push_back(1e-6 * static_cast<double>(now_ns() - due));
    ++ops.queries;
    if (!stack.query(kind, queries, probe)) ++ops.queries_failed;
    latency_bucket(s, kind).push_back(1e-3 *
                                      static_cast<double>(now_ns() - due));
  };
  std::vector<wire::LuMsg> lus;
  for (std::uint64_t i = 0; i < ticks; ++i) {
    const std::uint64_t k = first_tick + i;
    const std::int64_t tick_due = start + static_cast<std::int64_t>(i) * period;
    probe.begin_tick(k);
    probe.time(kGenerate, [&] {
      stream.tick(k, lus);
      return true;
    });
    const auto n = static_cast<std::int64_t>(lus.size());
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t due = tick_due + (j + 1) * period / n;
      queries.run_due(due, run_query);
      wait_until(due);
      s.lag_ms.push_back(1e-6 * static_cast<double>(now_ns() - due));
      ++ops.lus;
      if (!stack.emit(lus[static_cast<std::size_t>(j)], probe)) {
        ++ops.lus_rejected;
      }
    }
    s.lus += lus.size();
    const std::int64_t barrier_due = tick_due + period;
    queries.run_due(barrier_due, run_query);
    wait_until(barrier_due);
    ++ops.ticks;
    if (!stack.barrier(k, probe)) ++ops.ticks_failed;
    s.tick_ms.push_back(1e-6 * static_cast<double>(now_ns() - barrier_due));
    probe.end_tick();
  }
  s.wall_ns += now_ns() - start;
}

/// Times `make(i)` for the i in [first, last), from construction until the
/// stack is ready; each stack is torn down after its clock stops.
template <typename Make>
void time_setups(std::uint64_t first, std::uint64_t last, Make&& make,
                 std::vector<double>& seconds) {
  for (std::uint64_t i = first; i < last; ++i) {
    const std::int64_t start = now_ns();
    const auto stack = make(i);
    seconds.push_back(1e-9 * static_cast<double>(now_ns() - start));
  }
}

// ---------------------------------------------------------------------------
// serve_standalone: directory + ingest pipeline + WAL in one process
// ---------------------------------------------------------------------------

/// Restores every track of `data` into an empty directory; throws unless all
/// of them restore.
std::size_t restore(serve::ShardedDirectory& directory,
                    const serve::SnapshotData& data) {
  if (serve::apply_snapshot(directory, data) != data.tracks.size()) {
    throw std::runtime_error("snapshot did not restore whole");
  }
  return data.tracks.size();
}

class StandaloneStack {
 public:
  /// Ready = directory restored from `image`, WAL open, workers started.
  StandaloneStack(const std::string& wal_path,
                  const std::vector<std::uint8_t>& image)
      : wal_path_(wal_path),
        directory_(serve::DirectoryOptions{}, brown_polar()),
        restored_(restore(directory_, decode_image(image))),
        wal_(wal_path, serve::FsyncPolicy::kNever),
        pipeline_(directory_, [this] {
          serve::IngestOptions options;
          options.workers = 2;
          options.wal = &wal_;
          return options;
        }()) {}
  ~StandaloneStack() {
    pipeline_.stop();
    std::error_code ignored;
    std::filesystem::remove(wal_path_, ignored);
  }
  StandaloneStack(const StandaloneStack&) = delete;
  StandaloneStack& operator=(const StandaloneStack&) = delete;

  /// Wire round trip (as a network front end would), then submit.
  bool emit(const wire::LuMsg& lu, Probe& probe) {
    frame_.clear();
    probe.time(kEncode, [&] { return wire::encode(frame_, lu); }, kSpanSample);
    const wire::Decoded decoded = probe.time(
        kDecode, [&] { return wire::decode_frame(frame_); }, kSpanSample);
    const auto* msg = std::get_if<wire::LuMsg>(&decoded.msg);
    if (!decoded.ok() || msg == nullptr) return false;
    return probe.time(kSubmit, [&] { return pipeline_.submit(*msg); },
                      kSpanSample);
  }

  /// The tick barrier of `mgrid_serve mode=synthetic`.
  bool barrier(std::uint64_t k, Probe& probe) {
    const auto t = static_cast<double>(k);
    probe.time(kFlush, [&] {
      pipeline_.flush();
      return true;
    });
    const bool ok =
        probe.time(kAppendTick, [&] { return wal_.append_tick(t, k); });
    estimates_ += probe.time(kAdvance,
                             [&] { return directory_.advance_estimates(t); });
    return ok;
  }

  bool query(Layer kind, QuerySchedule& q, Probe& probe) {
    if (kind == kLookup) {
      const std::uint32_t mn = q.mn();
      return probe.time(kLookup, [&] { return directory_.lookup(mn); })
          .has_value();
    }
    const geo::Vec2 center = q.point();
    if (kind == kRegion) {
      probe.time(kRegion, [&] {
        return directory_.query_region(center, kRegionRadius).size();
      });
      return true;
    }
    return probe.time(kKnn, [&] {
             return directory_.k_nearest(center, kNeighbors).size();
           }) == std::min<std::size_t>(kNeighbors, directory_.size());
  }

  serve::ShardedDirectory& directory() { return directory_; }
  serve::IngestPipeline& pipeline() { return pipeline_; }
  const serve::WalWriter& wal() const { return wal_; }
  [[nodiscard]] std::uint64_t estimates() const { return estimates_; }

 private:
  std::string wal_path_;
  serve::ShardedDirectory directory_;
  std::size_t restored_;  ///< Initialized here so the restore precedes the workers.
  serve::WalWriter wal_;
  serve::IngestPipeline pipeline_;
  std::vector<std::uint8_t> frame_;
  std::uint64_t estimates_ = 0;
};

// ---------------------------------------------------------------------------
// cluster_2shard: router -> two loopback shard nodes, shard-0 replicated
// ---------------------------------------------------------------------------

/// One shard node as `mgrid_serve mode=shard` wires it: directory, 1-worker
/// pipeline, kNever WAL and a loopback LuServer; `replicate` adds the
/// ReplicationHub a follower subscribes to. The directory first restores
/// the `mns` tracks of `data` (the node's share of the ring).
class ShardNode {
 public:
  ShardNode(const std::string& wal_path, bool replicate,
            const serve::SnapshotData& data,
            const std::vector<std::uint32_t>& mns)
      : wal_path_(wal_path),
        directory_(serve::DirectoryOptions{}, brown_polar()),
        wal_(wal_path, serve::FsyncPolicy::kNever) {
    if (cluster::transfer_tracks(data, mns, directory_) != mns.size()) {
      throw std::runtime_error("shard did not restore its tracks");
    }
    serve::IngestOptions ingest;
    ingest.workers = 1;
    ingest.wal = &wal_;
    if (replicate) {
      hub_ = std::make_unique<cluster::ReplicationHub>(directory_);
      ingest.lu_tap = [hub = hub_.get()](const wire::LuMsg& lu) {
        hub->on_lu(lu);
      };
    }
    pipeline_ = std::make_unique<serve::IngestPipeline>(directory_, ingest);
    cluster::LuServerHooks hooks;
    hooks.directory = &directory_;
    hooks.pipeline = pipeline_.get();
    hooks.wal = &wal_;
    hooks.replication = hub_.get();
    server_ = std::make_unique<cluster::LuServer>(cluster::LuServerOptions{},
                                                  hooks);
    server_->start();
  }
  ~ShardNode() {
    server_->stop();
    if (hub_) hub_->stop();
    pipeline_->stop();
    std::error_code ignored;
    std::filesystem::remove(wal_path_, ignored);
  }
  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  serve::ShardedDirectory& directory() { return directory_; }
  serve::IngestPipeline& pipeline() { return *pipeline_; }
  cluster::ReplicationHub* hub() { return hub_.get(); }
  cluster::LuServer& server() { return *server_; }
  const serve::WalWriter& wal() const { return wal_; }

 private:
  std::string wal_path_;
  serve::ShardedDirectory directory_;
  serve::WalWriter wal_;
  std::unique_ptr<cluster::ReplicationHub> hub_;
  std::unique_ptr<serve::IngestPipeline> pipeline_;
  std::unique_ptr<cluster::LuServer> server_;
};

/// Polls `ready` until it holds or `seconds` pass.
template <typename Predicate>
bool await(Predicate ready, double seconds) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (!ready()) {
    if (now_ns() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

class ClusterStack {
 public:
  static constexpr std::size_t kShards = 2;

  /// Ready = shards restored from `image` and listening, follower
  /// bootstrapped, router connected.
  ClusterStack(const std::string& wal_prefix,
               const std::vector<std::uint8_t>& image)
      : follower_directory_(serve::DirectoryOptions{}, brown_polar()) {
    try {
      start(wal_prefix, decode_image(image));
    } catch (...) {
      shutdown();
      throw;
    }
  }

  ~ClusterStack() { shutdown(); }
  ClusterStack(const ClusterStack&) = delete;
  ClusterStack& operator=(const ClusterStack&) = delete;

  bool emit(const wire::LuMsg& lu, Probe& probe) {
    return probe.time(kRouterSubmit, [&] { return router_->submit(lu); },
                      kSpanSample);
  }

  bool barrier(std::uint64_t k, Probe& probe) {
    last_tick_ = k;
    const bool ok = probe.time(
        kRouterTick, [&] { return router_->tick(static_cast<double>(k), k); });
    if (probe.on) {
      lag_ticks_.push_back(
          static_cast<double>(k - follower_->stats().last_tick));
    }
    return ok;
  }

  bool query(Layer kind, QuerySchedule& q, Probe& probe) {
    if (kind == kLookup) {
      const std::uint32_t mn = q.mn();
      const auto reply = probe.time(kLookup, [&] {
        return router_->lookup(mn, static_cast<double>(last_tick_));
      });
      return reply.has_value() && reply->found;
    }
    const geo::Vec2 c = q.point();
    if (kind == kRegion) {
      probe.time(kRegion, [&] {
        return router_->query_region(c.x, c.y, kRegionRadius, 0).size();
      });
      return true;
    }
    return probe.time(kKnn, [&] {
             return router_->k_nearest(c.x, c.y, kNeighbors).size();
           }) == kNeighbors;
  }

  /// Stops traffic, lets the follower catch up, and checks the union of the
  /// shards against the serial reference and the follower against shard-0.
  void verify(Report& report,
              const std::vector<serve::DirectoryEntry>& reference) {
    router_->stop();
    report.check(shards_[0]->hub()->drain(10.0), "replication drain timed out");
    report.check(await([&] { return follower_->stats().last_tick == last_tick_; },
                       10.0),
                 "follower did not reach the last tick");
    std::vector<serve::DirectoryEntry> merged;
    for (const auto& shard : shards_) {
      const auto part = shard->directory().snapshot();
      merged.insert(merged.end(), part.begin(), part.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.mn < b.mn; });
    const std::uint64_t union_bad = snapshot_mismatches(merged, reference);
    report.check(union_bad == 0,
                 std::to_string(union_bad) +
                     " MNs differ between the shard union and the serial "
                     "reference",
                 union_bad);
    const std::uint64_t follower_bad = snapshot_mismatches(
        follower_directory_.snapshot(), shards_[0]->directory().snapshot());
    report.check(follower_bad == 0,
                 std::to_string(follower_bad) +
                     " MNs differ between the follower and shard-0",
                 follower_bad);
  }

  [[nodiscard]] cluster::RouterStats router_stats() const {
    return router_->stats();
  }
  ShardNode& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const std::vector<double>& lag_ticks() const {
    return lag_ticks_;
  }

 private:
  void start(const std::string& wal_prefix, const serve::SnapshotData& data) {
    cluster::RouterOptions router_options;
    router_options.health_period_seconds = 0.0;  // no admin plane here
    // The router's ring, so each shard restores exactly the MNs it owns.
    cluster::HashRing ring(
        cluster::RingOptions{router_options.vnodes, router_options.probes});
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kShards; ++i) {
      names.push_back("shard-" + std::to_string(i));
      ring.add_node(names.back());
    }
    std::vector<std::vector<std::uint32_t>> owned(kShards);
    for (const serve::SnapshotData::Track& track : data.tracks) {
      const auto owner =
          std::find(names.begin(), names.end(), ring.owner(track.mn));
      owned[static_cast<std::size_t>(owner - names.begin())].push_back(track.mn);
    }
    std::vector<cluster::RouterShardConfig> configs;
    for (std::size_t i = 0; i < kShards; ++i) {
      shards_.push_back(std::make_unique<ShardNode>(
          wal_prefix + "-shard" + std::to_string(i) + ".wal", i == 0, data,
          owned[i]));
      cluster::RouterShardConfig config;
      config.name = names[i];
      config.lu_port = shards_.back()->server().port();
      configs.push_back(config);
    }
    cluster::FollowerOptions follower_options;
    follower_options.port = shards_[0]->server().port();
    follower_ = std::make_unique<cluster::Follower>(follower_directory_,
                                                    follower_options);
    std::string error;
    if (!follower_->connect(&error)) {
      throw std::runtime_error("follower connect: " + error);
    }
    follower_thread_ = std::thread([this] {
      try {
        follower_->run();
      } catch (const std::exception& e) {
        std::cerr << "follower: " << e.what() << '\n';
      }
    });
    cluster::ReplicationHub& hub = *shards_[0]->hub();
    if (!await([&] {
          const auto stats = hub.stats();
          return stats.pending + stats.subscribers >= 1;
        }, 10.0)) {
      throw std::runtime_error("follower never reached the hub");
    }
    router_ = std::make_unique<cluster::Router>(router_options, configs);
    if (!router_->start(&error)) {
      throw std::runtime_error("router start: " + error);
    }
    // A barrier at the snapshot's own tick bootstraps the follower with
    // shard-0's restored tracks; re-advancing to that tick is a no-op.
    last_tick_ = static_cast<std::uint64_t>(data.snap_time);
    if (!router_->tick(data.snap_time, last_tick_) ||
        !await([&] { return follower_->stats().snapshot_loaded; }, 10.0)) {
      throw std::runtime_error("follower bootstrap failed");
    }
  }

  /// Ends the follower's stream from the primary side (closing shard-0's
  /// server and hub), so Follower::run() returns on end-of-stream; calling
  /// Follower::stop() while run() reads races on the connection's fd.
  void shutdown() {
    if (router_) router_->stop();
    if (!shards_.empty()) {
      shards_[0]->server().stop();
      shards_[0]->hub()->stop();
    }
    if (follower_thread_.joinable()) follower_thread_.join();
  }

  std::vector<std::unique_ptr<ShardNode>> shards_;
  serve::ShardedDirectory follower_directory_;
  std::unique_ptr<cluster::Follower> follower_;
  std::thread follower_thread_;
  std::unique_ptr<cluster::Router> router_;
  std::uint64_t last_tick_ = 0;
  std::vector<double> lag_ticks_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics. Every workload reports every one (0 where the layer does
// no work in that workload), so the traced output has one fixed shape.
// ---------------------------------------------------------------------------

constexpr std::array<std::pair<const char*, const char*>, 42> kPerLayer = {{
    {"mobility.step_ns_per_mn", "ns"},
    {"core.adf_process_ns", "ns"},
    {"core.classify_ns", "ns"},
    {"core.cluster_assign_ns", "ns"},
    {"core.cluster_rebuild_us", "us"},
    {"core.distance_filter_ns", "ns"},
    {"core.tx_ratio", "ratio"},
    {"estimation.observe_ns", "ns"},
    {"estimation.estimate_ns", "ns"},
    {"broker.apply_update_ns", "ns"},
    {"broker.advance_ns", "ns"},
    {"sim.interactions_per_mn_tick", "count"},
    {"serve.wire.encode_ns", "ns"},
    {"serve.wire.decode_ns", "ns"},
    {"serve.ingest.submit_ns", "ns"},
    {"serve.wal.append_ns", "ns"},
    {"serve.wal.bytes_per_lu", "bytes"},
    {"serve.ingest.flush_ms", "ms"},
    {"serve.ingest.lus_per_batch", "count"},
    {"serve.wal.append_tick_us", "us"},
    {"serve.directory.advance_ms", "ms"},
    {"serve.directory.estimates_per_tick", "count"},
    {"serve.directory.apply_batch_ns_per_lu", "ns"},
    {"serve.directory.lookup_ns", "ns"},
    {"serve.directory.region_us", "us"},
    {"serve.directory.knn_us", "us"},
    {"cluster.router.submit_ns", "ns"},
    {"cluster.ring.owner_ns", "ns"},
    {"cluster.router.lus_per_batch", "count"},
    {"cluster.router.tick_ms", "ms"},
    {"cluster.replication.on_lu_ns", "ns"},
    {"cluster.replication.bytes_per_lu", "bytes"},
    {"cluster.replication.lag_ticks_p99", "ticks"},
    {"serve.ingest.rejected", "count"},
    {"cluster.router.dropped", "count"},
    {"cluster.lu_server.bad_frames", "count"},
    {"gen.lag_p99_ms", "ms"},
    {"gen.emit_share", "ratio"},
    {"trace_overhead_frac", "ratio"},
    {"ledger.e2e_ns_per_lu", "ns"},
    {"ledger.explained_ns_per_lu", "ns"},
    {"ledger.residual_frac", "ratio"},
}};

class PerLayer {
 public:
  void set(const std::string& name, double value, std::uint64_t samples) {
    const bool known = std::any_of(kPerLayer.begin(), kPerLayer.end(),
                                   [&](const auto& m) { return name == m.first; });
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
    values_[name] = {value, samples};
  }
  /// ns (or `scale`-divided ns) per call of a traced layer.
  void set_layer(const std::string& name, const LayerStat& stat,
                 double scale = 1.0) {
    set(name, stat.ns_per_call() / scale, stat.calls);
  }
  void emit(Report& report) const {
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = values_.find(name);
      const auto [value, samples] =
          it == values_.end() ? std::pair<double, std::uint64_t>{0.0, 0}
                              : it->second;
      report.add(name, value, unit, samples);
    }
  }

 private:
  std::map<std::string, std::pair<double, std::uint64_t>> values_;
};

/// Σ(layer ns × calls per LU) against the end-to-end ns per LU. Rows marked
/// additive run on the thread whose wall time `e2e_ns_per_lu` is; the others
/// run elsewhere (workers, shards) and are shown for attribution only.
void set_ledger(Report& report, PerLayer& per_layer, double e2e_ns_per_lu,
                std::vector<LedgerRow> rows) {
  double explained = 0.0;
  for (const LedgerRow& row : rows) {
    if (row.additive) explained += row.ns_per_call * row.calls_per_lu;
  }
  report.ledger = std::move(rows);
  report.ledger_e2e_ns_per_lu = e2e_ns_per_lu;
  per_layer.set("ledger.e2e_ns_per_lu", e2e_ns_per_lu, 1);
  per_layer.set("ledger.explained_ns_per_lu", explained, 1);
  per_layer.set("ledger.residual_frac",
                e2e_ns_per_lu > 0.0 ? 1.0 - explained / e2e_ns_per_lu : 0.0, 1);
}

LedgerRow traced_row(const Layers& layers, Layer layer, std::uint64_t lus,
                     bool additive = true) {
  return {kLayerName[layer], layers[layer].ns_per_call(),
          ratio(static_cast<double>(layers[layer].calls),
                static_cast<double>(lus)),
          additive};
}

// ---------------------------------------------------------------------------
// Serving workloads: the common run, isolated replays, quiet reads
// ---------------------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string work_dir = ".";
  std::string trace_out;
};

struct ServingRun {
  std::vector<double> setup_s;
  /// Sampled when the load ends, before the correctness checks allocate.
  double peak_rss_mb = 0.0;
  Ops ops;
  OpenLoopSamples open;
  Layers open_layers{};
  Layers closed_traced{};
  /// LU/s of each closed-loop block, untraced and traced.
  std::vector<double> untraced_rates, traced_rates;
  std::int64_t traced_ns = 0;
  std::uint64_t traced_lus = 0;
  std::uint64_t last_tick = 0;
};

/// Set-up (a restart from the bootstrap snapshot), warm-up (untimed), then
/// rounds of extra timed set-ups, one open-loop segment and one closed-loop
/// block, so every phase samples the whole run rather than one window of a
/// noisy host. In trace mode the open segments are traced and the closed
/// blocks alternate untraced and traced, which measures the tracing
/// overhead. `make(image, i)` builds stack i from a snapshot image.
template <typename Make>
auto drive_serving(const RunArgs& args, const ServePlan& plan, Make&& make,
                   Probe& probe, ServingRun& run, Report& report) {
  LuStream stream(args.seed, plan.nodes, plan.side);
  const std::vector<std::uint8_t> image = bootstrap_image(plan, stream);
  const auto make_from_image = [&](std::uint64_t i) { return make(image, i); };
  const std::int64_t start = now_ns();
  auto stack = make_from_image(plan.setups);
  run.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - start));
  std::uint64_t k = plan.bootstrap_ticks + 1;
  run_closed(*stack, stream, probe, k, plan.warmup_ticks, run.ops);
  k += plan.warmup_ticks;

  const std::uint64_t rounds =
      std::max<std::uint64_t>(2, plan.closed_ticks / plan.block_ticks);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    time_setups(plan.setups * r / rounds, plan.setups * (r + 1) / rounds,
                make_from_image, run.setup_s);
    const std::uint64_t open_ticks =
        plan.open_ticks * (r + 1) / rounds - plan.open_ticks * r / rounds;
    probe.on = args.trace;
    Layers before = probe.layers;
    run_open(*stack, stream, probe, plan, args.seed, r, k, open_ticks, run.ops,
             run.open);
    k += open_ticks;
    accumulate(run.open_layers, minus(probe.layers, before));

    const bool traced = args.trace && r % 2 == 1;
    probe.on = traced;
    before = probe.layers;
    const std::uint64_t lus_before = run.ops.lus;
    const std::int64_t ns =
        run_closed(*stack, stream, probe, k, plan.block_ticks, run.ops);
    k += plan.block_ticks;
    const std::uint64_t lus = run.ops.lus - lus_before;
    const double rate =
        ratio(static_cast<double>(lus), 1e-9 * static_cast<double>(ns));
    if (traced) {
      accumulate(run.closed_traced, minus(probe.layers, before));
      run.traced_rates.push_back(rate);
      run.traced_ns += ns;
      run.traced_lus += lus;
    } else {
      run.untraced_rates.push_back(rate);
    }
  }
  probe.on = false;
  run.peak_rss_mb = peak_rss_mb();
  run.last_tick = k - 1;
  report.digest = stream.digest();
  report.digest_of = "LU stream, ticks 1.." + std::to_string(run.last_tick);
  std::cerr << args.workload << ": LU stream digest " << std::hex
            << report.digest << std::dec << " over " << run.last_tick
            << " ticks, " << run.ops.lus << " LUs\n";
  return stack;
}

/// End-to-end metrics and operation checks common to serve and cluster.
void add_serving_metrics(Report& report, const ServingRun& run) {
  const Ops& ops = run.ops;
  report.attempted += ops.lus + ops.ticks + ops.queries;
  report.check(ops.lus_rejected == 0,
               std::to_string(ops.lus_rejected) + " LUs rejected",
               ops.lus_rejected);
  report.check(ops.ticks_failed == 0,
               std::to_string(ops.ticks_failed) + " tick barriers failed",
               ops.ticks_failed);
  report.check(ops.queries_failed == 0,
               std::to_string(ops.queries_failed) + " queries failed",
               ops.queries_failed);
  report.add("setup_s", median(run.setup_s), "s", run.setup_s.size());
  report.add("peak_rss_mb", run.peak_rss_mb, "MB", 1);
  // Median over the closed-loop blocks spread through the run.
  report.add("ingest_lu_s", median(run.untraced_rates), "1/s",
             run.untraced_rates.size());
  add_open_loop_metrics(report, run.open);
}

/// Generator-side per-layer metrics and the generator-thread ledger.
void add_generator_layers(Report& report, PerLayer& per_layer,
                          const ServingRun& run,
                          const std::vector<LedgerRow>& off_thread,
                          std::initializer_list<Layer> on_thread) {
  const Layers& open = run.open_layers;
  double emit_ns = 0.0;
  for (const Layer l : {kGenerate, kEncode, kDecode, kSubmit, kRouterSubmit}) {
    emit_ns += static_cast<double>(open[l].ns);
  }
  per_layer.set("gen.emit_share",
                ratio(emit_ns, static_cast<double>(run.open.wall_ns)),
                open[kGenerate].calls);
  per_layer.set("gen.lag_p99_ms", percentile(run.open.lag_ms, 0.99),
                run.open.lag_ms.size());
  const double untraced = median(run.untraced_rates);
  per_layer.set("trace_overhead_frac",
                untraced > 0.0 ? 1.0 - median(run.traced_rates) / untraced
                               : 0.0,
                run.traced_rates.size());
  std::vector<LedgerRow> rows;
  for (const Layer l : on_thread) {
    rows.push_back(traced_row(run.closed_traced, l, run.traced_lus));
  }
  rows.insert(rows.end(), off_thread.begin(), off_thread.end());
  set_ledger(report, per_layer,
             ratio(static_cast<double>(run.traced_ns),
                   static_cast<double>(run.traced_lus)),
             std::move(rows));
}

/// Times, in isolation and on the same generated inputs, the layers the
/// serving loop reaches only indirectly (worker-thread apply, WAL append,
/// and for the cluster the codec, ring lookup and replication tap).
struct ReplayedLayers {
  Layers layers{};
  std::uint64_t lus = 0;
};

ReplayedLayers replay_serving_layers(const ServePlan& plan, std::uint64_t seed,
                                     const std::string& wal_path,
                                     bool cluster_layers) {
  ReplayedLayers out;
  Probe probe;
  probe.on = true;
  serve::ShardedDirectory directory(serve::DirectoryOptions{}, brown_polar());
  std::optional<serve::WalWriter> wal;
  wal.emplace(wal_path, serve::FsyncPolicy::kNever);
  cluster::HashRing ring;
  ring.add_node("shard-0");
  ring.add_node("shard-1");
  std::optional<cluster::ReplicationHub> hub;
  if (cluster_layers) hub.emplace(directory);
  LuStream stream(seed, plan.nodes, plan.side);
  std::vector<wire::LuMsg> lus;
  std::vector<serve::ShardedDirectory::LuApply> batch;
  std::vector<std::uint8_t> frame;
  const std::size_t batch_size = serve::IngestOptions{}.batch_size;
  for (std::uint64_t k = 1; k <= plan.replay_ticks; ++k) {
    stream.tick(k, lus);
    out.lus += lus.size();
    for (std::size_t i = 0; i < lus.size(); i += batch_size) {
      batch.clear();
      for (std::size_t j = i; j < std::min(lus.size(), i + batch_size); ++j) {
        const wire::LuMsg& lu = lus[j];
        batch.push_back({lu.mn, lu.t, {lu.x, lu.y}, {lu.vx, lu.vy}});
      }
      probe.time(kApplyBatch, [&] { return directory.apply_batch(batch); });
    }
    for (const wire::LuMsg& lu : lus) {
      probe.time(kWalAppend, [&] { return wal->append(lu); }, kSpanSample);
      if (!cluster_layers) continue;
      frame.clear();
      probe.time(kEncode, [&] { return wire::encode(frame, lu); }, kSpanSample);
      probe.time(kDecode, [&] { return wire::decode_frame(frame); },
                 kSpanSample);
      probe.time(kRingOwner, [&] { return &ring.owner(lu.mn); }, kSpanSample);
      probe.time(kHubOnLu, [&] {
        hub->on_lu(lu);
        return true;
      }, kSpanSample);
    }
    directory.advance_estimates(static_cast<double>(k));
    if (hub) hub->on_tick(static_cast<double>(k), k, 0);
  }
  if (hub) hub->stop();
  wal.reset();
  std::error_code ignored;
  std::filesystem::remove(wal_path, ignored);
  out.layers = probe.layers;
  return out;
}

/// Read-path layers on a quiet directory (no concurrent writes): their gap
/// to the open-loop read latencies is the cost of contention.
void quiet_reads(const serve::ShardedDirectory& directory,
                 const ServePlan& plan, std::uint64_t seed,
                 PerLayer& per_layer) {
  Probe probe;
  probe.on = true;
  QuerySchedule q(plan, seed ^ 0x51, 0);
  const std::size_t lookups = 200 * plan.replay_ticks;
  for (std::size_t i = 0; i < lookups; ++i) {
    const std::uint32_t mn = q.mn();
    probe.time(kLookup, [&] { return directory.lookup(mn); }, kSpanSample);
  }
  for (std::size_t i = 0; i < lookups / 10; ++i) {
    const geo::Vec2 a = q.point();
    const geo::Vec2 b = q.point();
    probe.time(kRegion, [&] {
      return directory.query_region(a, kRegionRadius).size();
    }, kSpanSample);
    probe.time(kKnn, [&] { return directory.k_nearest(b, kNeighbors).size(); },
               kSpanSample);
  }
  per_layer.set_layer("serve.directory.lookup_ns", probe.layers[kLookup]);
  per_layer.set_layer("serve.directory.region_us", probe.layers[kRegion], 1e3);
  per_layer.set_layer("serve.directory.knn_us", probe.layers[kKnn], 1e3);
}

/// Isolated-replay rows shared by serve and cluster ledgers.
void add_replayed_layers(PerLayer& per_layer, const ReplayedLayers& replayed,
                         bool cluster_layers, std::vector<LedgerRow>& rows) {
  const Layers& l = replayed.layers;
  const double apply_per_lu = ratio(static_cast<double>(l[kApplyBatch].ns),
                                    static_cast<double>(replayed.lus));
  per_layer.set("serve.directory.apply_batch_ns_per_lu", apply_per_lu,
                replayed.lus);
  per_layer.set_layer("serve.wal.append_ns", l[kWalAppend]);
  rows.push_back({"directory.apply_batch (per LU)", apply_per_lu, 1.0, false});
  rows.push_back(traced_row(l, kWalAppend, replayed.lus, false));
  if (!cluster_layers) return;
  per_layer.set_layer("serve.wire.encode_ns", l[kEncode]);
  per_layer.set_layer("serve.wire.decode_ns", l[kDecode]);
  per_layer.set_layer("cluster.ring.owner_ns", l[kRingOwner]);
  per_layer.set_layer("cluster.replication.on_lu_ns", l[kHubOnLu]);
  for (const Layer layer : {kEncode, kDecode, kRingOwner, kHubOnLu}) {
    rows.push_back(traced_row(l, layer, replayed.lus, false));
  }
}

// ---------------------------------------------------------------------------
// serve_standalone and cluster_2shard
// ---------------------------------------------------------------------------

/// 8,000 MNs on a 2 km square: 50 warm-up ticks, an open loop of one tick
/// per 60 ms (~4,500 LUs each, ~75k LU/s) with 20k lookups/s and 1k region
/// and 1k kNN queries/s, then closed-loop saturation. The open-loop rate is
/// under half the closed-loop ingest rate (~170k LU/s on 4 cores), so the
/// open loop measures latency below saturation.
ServePlan serve_plan(const RunArgs& args) {
  ServePlan plan;
  if (args.toy) {
    plan = {200, 316.0, 5, 10, 6, 0.01, 2000.0, 100.0, 100.0, 3, 5, 1, 3};
    return plan;
  }
  plan.nodes = 8000;
  plan.side = 2000.0;
  plan.warmup_ticks = 50;
  plan.period = 0.060;
  plan.open_ticks = static_cast<std::uint64_t>(
      std::llround(0.65 * args.seconds / plan.period));
  plan.block_ticks = 10;
  plan.closed_ticks = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::llround(1.2 * args.seconds))) *
      plan.block_ticks;
  plan.lookup_rate = 20000.0;
  plan.region_rate = 1000.0;
  plan.knn_rate = 1000.0;
  plan.replay_ticks = 100;
  plan.setups = 101;
  plan.bootstrap_ticks = 20;
  return plan;
}

/// 2,000 MNs on a 1 km square (the serve density): an open loop of one
/// tick per 10 ms (~1,000 LUs each, ~100k LU/s) with 2k lookups/s and 200
/// region and 200 kNN queries/s through the router, then saturation.
ServePlan cluster_plan(const RunArgs& args) {
  ServePlan plan;
  if (args.toy) {
    plan = {200, 316.0, 5, 10, 6, 0.01, 500.0, 50.0, 50.0, 3, 5, 1, 3};
    return plan;
  }
  plan.nodes = 2000;
  plan.side = 1000.0;
  plan.warmup_ticks = 50;
  plan.period = 0.010;
  plan.open_ticks = static_cast<std::uint64_t>(
      std::llround(0.6 * args.seconds / plan.period));
  plan.block_ticks = 50;
  plan.closed_ticks = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::llround(2.0 * args.seconds))) *
      plan.block_ticks;
  plan.lookup_rate = 2000.0;
  plan.region_rate = 200.0;
  plan.knn_rate = 200.0;
  plan.replay_ticks = 100;
  plan.setups = 31;
  plan.bootstrap_ticks = 20;
  return plan;
}

std::string scratch_path(const RunArgs& args, const std::string& what) {
  return args.work_dir + "/" + args.workload + "-" + std::to_string(getpid()) +
         "-" + what;
}

Report run_serve(const RunArgs& args, Probe& probe) {
  const ServePlan plan = serve_plan(args);
  Report report;
  report.workload = args.workload;
  ServingRun run;
  std::unique_ptr<StandaloneStack> stack = drive_serving(
      args, plan,
      [&](const std::vector<std::uint8_t>& image, std::uint64_t i) {
        return std::make_unique<StandaloneStack>(
            scratch_path(args, std::to_string(i) + ".wal"), image);
      },
      probe, run, report);

  const std::uint64_t bad =
      snapshot_mismatches(stack->directory().snapshot(),
                          serial_reference(plan, args.seed, run.last_tick));
  report.check(bad == 0,
               std::to_string(bad) +
                   " MNs differ between the directory and the serial reference",
               bad);
  const serve::IngestStats ingest = stack->pipeline().stats();
  const std::uint64_t rejected = ingest.rejected_full + ingest.rejected_stale;
  report.check(rejected == 0, std::to_string(rejected) + " LUs rejected by ingest",
               rejected);
  report.check(ingest.applied + run.ops.lus_rejected == run.ops.lus,
               "applied LUs != submitted LUs");
  add_serving_metrics(report, run);
  if (!args.trace) return report;

  PerLayer per_layer;
  const Layers& all = probe.layers;
  per_layer.set_layer("serve.wire.encode_ns", all[kEncode]);
  per_layer.set_layer("serve.wire.decode_ns", all[kDecode]);
  per_layer.set_layer("serve.ingest.submit_ns", all[kSubmit]);
  per_layer.set_layer("serve.ingest.flush_ms", all[kFlush], 1e6);
  per_layer.set_layer("serve.wal.append_tick_us", all[kAppendTick], 1e3);
  per_layer.set_layer("serve.directory.advance_ms", all[kAdvance], 1e6);
  per_layer.set("serve.wal.bytes_per_lu",
                ratio(static_cast<double>(stack->wal().bytes_appended()),
                      static_cast<double>(run.ops.lus)),
                run.ops.lus);
  per_layer.set("serve.ingest.lus_per_batch",
                ratio(static_cast<double>(ingest.applied),
                      static_cast<double>(ingest.batches)),
                ingest.batches);
  per_layer.set("serve.directory.estimates_per_tick",
                ratio(static_cast<double>(stack->estimates()),
                      static_cast<double>(run.ops.ticks)),
                run.ops.ticks);
  per_layer.set("serve.ingest.rejected", static_cast<double>(rejected), 1);
  quiet_reads(stack->directory(), plan, args.seed, per_layer);
  stack.reset();

  std::vector<LedgerRow> off_thread;
  add_replayed_layers(
      per_layer,
      replay_serving_layers(plan, args.seed, scratch_path(args, "replay.wal"),
                            false),
      false, off_thread);
  add_generator_layers(report, per_layer, run, off_thread,
                       {kGenerate, kEncode, kDecode, kSubmit, kFlush,
                        kAppendTick, kAdvance});
  per_layer.emit(report);
  return report;
}

Report run_cluster(const RunArgs& args, Probe& probe) {
  const ServePlan plan = cluster_plan(args);
  Report report;
  report.workload = args.workload;
  ServingRun run;
  std::unique_ptr<ClusterStack> stack = drive_serving(
      args, plan,
      [&](const std::vector<std::uint8_t>& image, std::uint64_t i) {
        return std::make_unique<ClusterStack>(
            scratch_path(args, std::to_string(i)), image);
      },
      probe, run, report);

  stack->verify(report, serial_reference(plan, args.seed, run.last_tick));
  const cluster::RouterStats router = stack->router_stats();
  report.check(router.lus_dropped == 0,
               std::to_string(router.lus_dropped) + " LUs dropped by the router",
               router.lus_dropped);
  report.check(router.tick_failures + router.query_failures == 0,
               "router tick/query failures", router.tick_failures + router.query_failures);
  std::uint64_t rejected = 0, bad_frames = 0, applied = 0, batches = 0,
                wal_bytes = 0;
  for (std::size_t i = 0; i < ClusterStack::kShards; ++i) {
    ShardNode& shard = stack->shard(i);
    const serve::IngestStats ingest = shard.pipeline().stats();
    const cluster::LuServerStats server = shard.server().stats();
    rejected += ingest.rejected_full + ingest.rejected_stale + server.lus_rejected;
    bad_frames += server.bad_frames;
    applied += ingest.applied;
    batches += ingest.batches;
    wal_bytes += shard.wal().bytes_appended();
  }
  report.check(rejected == 0, std::to_string(rejected) + " LUs rejected by shards",
               rejected);
  report.check(bad_frames == 0, std::to_string(bad_frames) + " bad frames",
               bad_frames);
  report.check(applied == run.ops.lus, "shards applied != LUs submitted");
  add_serving_metrics(report, run);
  if (!args.trace) return report;

  PerLayer per_layer;
  const Layers& all = probe.layers;
  per_layer.set_layer("cluster.router.submit_ns", all[kRouterSubmit]);
  per_layer.set_layer("cluster.router.tick_ms", all[kRouterTick], 1e6);
  per_layer.set("cluster.router.lus_per_batch",
                ratio(static_cast<double>(router.lus_forwarded),
                      static_cast<double>(router.batches_sent)),
                router.batches_sent);
  const cluster::ReplicationHub::Stats hub = stack->shard(0).hub()->stats();
  per_layer.set("cluster.replication.bytes_per_lu",
                ratio(static_cast<double>(hub.bytes_streamed),
                      static_cast<double>(hub.lus_streamed)),
                hub.lus_streamed);
  per_layer.set("cluster.replication.lag_ticks_p99",
                percentile(stack->lag_ticks(), 0.99), stack->lag_ticks().size());
  per_layer.set("serve.ingest.lus_per_batch",
                ratio(static_cast<double>(applied), static_cast<double>(batches)),
                batches);
  per_layer.set("serve.wal.bytes_per_lu",
                ratio(static_cast<double>(wal_bytes),
                      static_cast<double>(run.ops.lus)),
                run.ops.lus);
  per_layer.set("serve.ingest.rejected", static_cast<double>(rejected), 1);
  per_layer.set("cluster.router.dropped", static_cast<double>(router.lus_dropped), 1);
  per_layer.set("cluster.lu_server.bad_frames", static_cast<double>(bad_frames), 1);
  quiet_reads(stack->shard(0).directory(), plan, args.seed, per_layer);
  stack.reset();

  std::vector<LedgerRow> off_thread;
  add_replayed_layers(
      per_layer,
      replay_serving_layers(plan, args.seed, scratch_path(args, "replay.wal"),
                            true),
      true, off_thread);
  add_generator_layers(report, per_layer, run, off_thread,
                       {kGenerate, kRouterSubmit, kRouterTick});
  per_layer.emit(report);
  return report;
}

// ---------------------------------------------------------------------------
// campus_paper and campus_city
// ---------------------------------------------------------------------------

struct CampusPlan {
  std::size_t blocks = 0;  ///< 0 = the paper campus; N = N x N block grid.
  double duration = 0.0;   ///< Simulated seconds per experiment.
  std::uint64_t experiments = 0;  ///< run_experiment over seed..seed+n-1.
  std::uint64_t replays = 0;  ///< Traced kernel replays, seed..seed+n-1.
  std::uint64_t setups = 0;   ///< Spread between the experiments.
};

/// campus_paper: ~0.42 s per 1800 s run on the reference machine, so
/// 2.4 runs per measured second; campus_city: ~2.6 s per 600 s run.
CampusPlan campus_plan(const RunArgs& args, bool city) {
  if (args.toy) return {city ? 10u : 0u, 60.0, 1, 1, 1};
  const double per_second = city ? 0.4 : 2.4;
  const auto experiments = static_cast<std::uint64_t>(
      std::max<long long>(1, std::llround(per_second * args.seconds)));
  return {city ? 10u : 0u, city ? 600.0 : 1800.0, experiments,
          city ? 2u : 1u, 31};
}

geo::CampusMap make_campus(std::size_t blocks) {
  return blocks > 0 ? geo::CampusMap::grid_campus(blocks, blocks)
                    : geo::CampusMap::default_campus();
}

/// What run_experiment builds before the federation starts.
struct CampusSetup {
  CampusSetup(std::size_t blocks, std::uint64_t seed)
      : campus(make_campus(blocks)),
        workload(campus, scenario::WorkloadParams{}, util::RngRegistry(seed)) {}
  geo::CampusMap campus;
  scenario::Workload workload;
};

struct CampusReplay {
  std::uint64_t samples = 0, transmitted = 0, mn_ticks = 0;
  std::int64_t wall_ns = 0;
};

/// The paper's per-tick broker kernel over seeds seed..seed+replays-1,
/// driven through public calls: every tick steps the population (10 x
/// 0.1 s, as the federation does), runs each MN's sample through the ADF,
/// applies the transmitted LUs to the broker's location DB and advances the
/// stale tracks' estimates. No sim, net or scenario layer runs, so its
/// layers can be set against run_experiment's wall time.
CampusReplay replay_campus(const CampusPlan& plan, std::uint64_t seed,
                           Probe& probe) {
  CampusReplay r;
  for (std::uint64_t i = 0; i < plan.replays; ++i) {
    const geo::CampusMap campus = make_campus(plan.blocks);
    const util::RngRegistry rng(seed + i);
    scenario::Workload workload(campus, scenario::WorkloadParams{}, rng);
    core::AdaptiveDistanceFilter adf{core::AdfParams{}};
    const auto prototype = brown_polar();
    broker::LocationDb db(128, prototype.get());
    const auto filter = [&](double t) {
      for (const mobility::MobileNode& node : workload.nodes()) {
        const geo::Vec2 p = node.position();
        const geo::Vec2 v = node.velocity();
        ++r.samples;
        const core::FilterDecision decision = probe.time(
            kAdf, [&] { return adf.process(node.id(), t, p); }, kSpanSample);
        if (!decision.transmit) continue;
        ++r.transmitted;
        probe.time(kApplyUpdate,
                   [&] { return db.record_update(node.id(), t, p, v); },
                   kSpanSample);
      }
    };
    const std::int64_t start = now_ns();
    filter(0.0);  // the initial sample
    for (std::uint64_t k = 1; k <= static_cast<std::uint64_t>(plan.duration);
         ++k) {
      const auto t = static_cast<double>(k);
      probe.begin_tick(k);
      for (int step = 0; step < 10; ++step) {
        probe.time(kStep, [&] {
          workload.step_all(0.1);
          return true;
        });
      }
      filter(t);
      probe.time(kDbAdvance, [&] { return db.advance_estimates(t); });
      r.mn_ticks += workload.size();
      probe.end_tick();
    }
    r.wall_ns += now_ns() - start;
  }
  return r;
}

/// Times the ADF's parts on their own, on the same samples the kernel
/// replay sees: classifier, BSAS clusterer, distance filter and the
/// estimator the broker runs per MN.
void time_campus_components(const CampusPlan& plan, std::uint64_t seed,
                            PerLayer& per_layer) {
  const geo::CampusMap campus = make_campus(plan.blocks);
  const util::RngRegistry rng(seed);
  scenario::Workload workload(campus, scenario::WorkloadParams{}, rng);
  const core::AdfParams params;
  core::AdaptiveDistanceFilter adf(params);
  core::MobilityClassifier classifier(params.classifier);
  core::SequentialClusterer clusterer(params.clustering);
  core::DistanceFilter distance;
  const auto prototype = brown_polar();
  std::vector<std::unique_ptr<estimation::LocationEstimator>> estimators(
      workload.size());
  std::vector<bool> fresh(workload.size(), false);
  Probe probe;
  probe.on = true;
  const auto rebuild_every =
      static_cast<std::uint64_t>(params.recluster_interval);
  const auto ticks = static_cast<std::uint64_t>(plan.duration);
  for (std::uint64_t k = 0; k <= ticks; ++k) {
    const auto t = static_cast<double>(k);
    if (k > 0) {
      for (int step = 0; step < 10; ++step) workload.step_all(0.1);
    }
    for (std::size_t i = 0; i < workload.size(); ++i) {
      const mobility::MobileNode& node = workload.nodes()[i];
      const MnId id = node.id();
      const geo::Vec2 p = node.position();
      const geo::Vec2 v = node.velocity();
      const core::FilterDecision decision = adf.process(id, t, p);
      const auto pattern = probe.time(kClassify, [&] {
        classifier.observe(id, t, p);
        return classifier.classify(id);
      }, kSpanSample);
      if (pattern == mobility::MobilityPattern::kStop) {
        clusterer.remove(id);
      } else {
        const core::MotionFeatures features = classifier.features(id);
        probe.time(kAssign, [&] { return clusterer.assign(id, features); },
                   kSpanSample);
      }
      probe.time(kDistance,
                 [&] { return distance.apply(id, p, decision.dth); },
                 kSpanSample);
      fresh[i] = decision.transmit;
      if (!decision.transmit) continue;
      if (!estimators[i]) estimators[i] = prototype->clone();
      probe.time(kObserve, [&] {
        estimators[i]->observe(t, p, v);
        return true;
      }, kSpanSample);
    }
    if (rebuild_every > 0 && k > 0 && k % rebuild_every == 0) {
      probe.time(kRebuild, [&] {
        clusterer.rebuild();
        return true;
      });
    }
    for (std::size_t i = 0; i < workload.size(); ++i) {
      if (!estimators[i] || fresh[i]) continue;
      probe.time(kEstimate, [&] { return estimators[i]->estimate(t); },
                 kSpanSample);
    }
  }
  const Layers& l = probe.layers;
  per_layer.set_layer("core.classify_ns", l[kClassify]);
  per_layer.set_layer("core.cluster_assign_ns", l[kAssign]);
  per_layer.set_layer("core.cluster_rebuild_us", l[kRebuild], 1e3);
  per_layer.set_layer("core.distance_filter_ns", l[kDistance]);
  per_layer.set_layer("estimation.observe_ns", l[kObserve]);
  per_layer.set_layer("estimation.estimate_ns", l[kEstimate]);
}

Report run_campus(const RunArgs& args, Probe& probe, bool city) {
  const CampusPlan plan = campus_plan(args, city);
  Report report;
  report.workload = args.workload;

  // Set-up: what run_experiment builds before the federation starts. The
  // set-ups are spread between the experiments, so their median samples the
  // whole run rather than its first milliseconds.
  std::vector<double> setup_s;
  const auto make_setup = [&](std::uint64_t) {
    return std::make_unique<CampusSetup>(plan.blocks, args.seed);
  };

  // The paper's experiment over the seed list. A tick is one simulated
  // second, so an experiment's tick time is its wall time per simulated
  // second.
  Fnv1a digest;
  digest.add(plan.blocks);
  digest.add(plan.duration);
  std::vector<double> rates, tick_ms;
  std::int64_t fed_ns = 0;
  std::uint64_t attempted = 0, interactions = 0, fed_transmitted = 0;
  double reduction_pct = 0.0, rmse = 0.0;
  for (std::uint64_t i = 0; i < plan.experiments; ++i) {
    time_setups(plan.setups * i / plan.experiments,
                plan.setups * (i + 1) / plan.experiments, make_setup, setup_s);
    scenario::ExperimentOptions options;
    options.duration = plan.duration;
    options.seed = args.seed + i;
    options.filter = scenario::FilterKind::kAdf;
    options.dth_factor = 1.0;
    options.estimator = "brown_polar";
    options.campus_blocks = plan.blocks;
    options.mode = sim::ExecutionMode::kSequential;
    digest.add(options.seed);
    const std::int64_t start = now_ns();
    const scenario::ExperimentResult result = scenario::run_experiment(options);
    const std::int64_t ns = now_ns() - start;
    fed_ns += ns;
    rates.push_back(ratio(static_cast<double>(result.total_attempted),
                          1e-9 * static_cast<double>(ns)));
    tick_ms.push_back(1e-6 * static_cast<double>(ns) / plan.duration);

    // One sampled LU per MN per federation step (t = 1..duration).
    const auto expected = static_cast<std::uint64_t>(
        result.node_count * static_cast<std::uint64_t>(plan.duration));
    const std::string tag = " (seed " + std::to_string(options.seed) + ")";
    report.check(result.total_transmitted + result.lus_suppressed ==
                     result.total_attempted,
                 "transmitted + suppressed != attempted" + tag);
    report.check(result.total_attempted == expected,
                 "attempted " + std::to_string(result.total_attempted) +
                     " != nodes x ticks " + std::to_string(expected) + tag);
    report.check(result.uplink_messages == result.total_attempted,
                 "uplink messages != attempted" + tag);
    attempted += result.total_attempted;
    interactions += result.federation_stats.interactions_delivered;
    reduction_pct +=
        100.0 * (1.0 - ratio(static_cast<double>(result.total_transmitted),
                             static_cast<double>(result.total_attempted)));
    rmse += result.rmse_overall;
    if (i < plan.replays) fed_transmitted += result.total_transmitted;
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.digest = digest.value();
  report.digest_of = "campus, duration and seeds " + std::to_string(args.seed) +
                     ".." + std::to_string(args.seed + plan.experiments - 1);
  report.attempted += attempted;

  const double experiments = static_cast<double>(plan.experiments);
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("ingest_lu_s", median(rates), "1/s", rates.size());
  report.add("tick_p50_ms", median(tick_ms), "ms", tick_ms.size());  report.add("fed_ms_per_sim_s",
             1e-6 * static_cast<double>(fed_ns) / (experiments * plan.duration),
             "ms", plan.experiments);
  report.add("lu_reduction_pct", reduction_pct / experiments, "%",
             plan.experiments);
  report.add("rmse_le_m", rmse / experiments, "m", plan.experiments);
  if (!args.trace) return report;

  // Untraced and traced kernel replays back to back: the tracing overhead,
  // then the per-layer costs from the traced one.
  const CampusReplay untraced = replay_campus(plan, args.seed, probe);
  probe.on = true;
  const CampusReplay traced = replay_campus(plan, args.seed, probe);
  probe.on = false;
  report.attempted += untraced.samples + traced.samples;
  // The federation's and the replay's transmitted LUs on the same seeds
  // (they differ by what sim and net add: sample timing, channel).
  report.add("fed_transmitted", static_cast<double>(fed_transmitted), "count",
             plan.replays);
  report.add("replay_transmitted", static_cast<double>(traced.transmitted),
             "count", plan.replays);
  PerLayer per_layer;
  const Layers& l = probe.layers;
  const auto mn_ticks = static_cast<double>(traced.mn_ticks);
  per_layer.set("trace_overhead_frac",
                ratio(static_cast<double>(traced.wall_ns),
                      static_cast<double>(untraced.wall_ns)) - 1.0,
                plan.replays);
  per_layer.set("mobility.step_ns_per_mn",
                ratio(static_cast<double>(l[kStep].ns), mn_ticks),
                traced.mn_ticks);
  per_layer.set_layer("core.adf_process_ns", l[kAdf]);
  per_layer.set("core.tx_ratio",
                ratio(static_cast<double>(traced.transmitted),
                      static_cast<double>(traced.samples)),
                traced.samples);
  per_layer.set_layer("broker.apply_update_ns", l[kApplyUpdate]);
  per_layer.set("broker.advance_ns",
                ratio(static_cast<double>(l[kDbAdvance].ns), mn_ticks),
                traced.mn_ticks);
  per_layer.set("sim.interactions_per_mn_tick",
                ratio(static_cast<double>(interactions),
                      static_cast<double>(attempted)),
                attempted);
  time_campus_components(plan, args.seed, per_layer);

  // Per sampled LU: the kernel layers against the federation's wall time;
  // the residual is what sim, net and scenario cost on top.
  const auto per_sample = [&](Layer layer) {
    return traced_row(l, layer, traced.samples);
  };
  set_ledger(report, per_layer,
             ratio(static_cast<double>(fed_ns), static_cast<double>(attempted)),
             {per_sample(kStep), per_sample(kAdf), per_sample(kApplyUpdate),
              per_sample(kDbAdvance)});
  per_layer.emit(report);
  return report;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Report run_workload(const RunArgs& args, Probe& probe) {
  if (args.workload == "campus_paper") return run_campus(args, probe, false);
  if (args.workload == "campus_city") return run_campus(args, probe, true);
  if (args.workload == "serve_standalone") return run_serve(args, probe);
  if (args.workload == "cluster_2shard") return run_cluster(args, probe);
  throw std::invalid_argument("unknown workload " + args.workload);
}

Report run_one(const RunArgs& args) {
  std::filesystem::create_directories(args.work_dir);
  Probe probe;
  Report report = run_workload(args, probe);
  report.add("failed_ops_frac",
             ratio(static_cast<double>(report.failed),
                   static_cast<double>(report.attempted)),
             "ratio", report.attempted);
  if (args.trace && !args.trace_out.empty()) {
    probe.write_chrome(args.trace_out, args.workload);
    std::cerr << args.workload << ": " << probe.span_count()
              << " spans -> " << args.trace_out << '\n';
  }
  return report;
}

RunArgs parse_args(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument(
        "usage: bench_ledger <workload|smoke> [seed=N] [seconds=S] "
        "[trace=0|1] [work_dir=DIR] [trace_out=PATH]");
  }
  RunArgs args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("bad argument " + arg);
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "seed") args.seed = std::stoull(value);
    else if (key == "seconds") args.seconds = std::stod(value);
    else if (key == "trace") args.trace = value == "1";
    else if (key == "work_dir") args.work_dir = value;
    else if (key == "trace_out") args.trace_out = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    RunArgs args = parse_args(argc, argv);
    if (args.workload != "smoke") {
      const Report report = run_one(args);
      std::cout << to_json(report) << std::endl;
      return report.failed == 0 ? 0 : 1;
    }
    // Every workload at toy size, traced, correctness only.
    bool ok = true;
    for (const char* workload :
         {"campus_paper", "campus_city", "serve_standalone", "cluster_2shard"}) {
      RunArgs toy = args;
      toy.workload = workload;
      toy.toy = true;
      toy.trace = true;
      const Report report = run_one(toy);
      std::cout << workload << ": " << (report.failed == 0 ? "ok" : "FAILED")
                << " (" << report.attempted << " ops, " << report.failed
                << " failed)" << std::endl;
      ok = ok && report.failed == 0;
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_ledger: " << e.what() << '\n';
    return 2;
  }
}
