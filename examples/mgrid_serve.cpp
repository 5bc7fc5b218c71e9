// Online serving-layer driver: replays a recorded per-LU event log (or a
// synthetic open-loop workload) through the mgrid-lu-v1 wire codec, the
// batched ingestion pipeline and the sharded location directory, then
// reports throughput and answers a few spatial queries.
//
// Replay mode re-creates the recording federation's broker state tick by
// tick; with `result=` it cross-checks the directory's final per-MN views
// against the run's JSON report to 1e-9 and exits non-zero on any mismatch.
//
//   mgrid_serve eventlog=run.jsonl result=run.json shards=8 workers=4
//   mgrid_serve mode=synthetic nodes=500 ticks=120 estimator=brown_polar
//   mgrid_serve mode=shard port=0 admin_port=0 estimator=brown_polar
//   mgrid_serve mode=follower primary=127.0.0.1:7001 estimator=brown_polar
//
// Cluster modes (see src/cluster/):
//   mode=shard opens an mgrid-lu-v1 TCP listener (prints "lu server
//   listening on 127.0.0.1:PORT") and serves LUs/ticks/queries pushed by an
//   mgrid_router; followers may subscribe for replication. Runs until
//   /quitz or SIGINT/SIGTERM, then writes final_out. Keys: port [0 =
//   ephemeral], plus the directory/ingest/durability knobs below.
//   mode=follower connects to primary=host:port, bootstraps from the
//   primary's snapshot and replays its LU substream until the primary
//   closes (clean exit) or a signal arrives, then writes final_out. The
//   estimator/shards knobs must match the primary's, or the snapshot
//   restore fails.
//
// Keys (defaults in brackets; flag spellings like --final-out accepted):
//   eventlog [path: mgrid-eventlog-v1 JSONL; switches on replay mode]
//   result   [path: run_experiment JSON report to cross-check against]
//   final_out [path: deterministic JSON snapshot of the final directory
//             state — byte-identical for any workers=/sources= value]
//   shards [8] workers [2] sources [8] batch [256]
//   cell [50]
//   mode [replay when eventlog= is set, else synthetic]
//   nodes [500] ticks [120] estimator [""] alpha [0]  (synthetic mode;
//             ticks=0 runs until /quitz or SIGINT/SIGTERM)
//   seed [42] speed [1.5] pace_ms [0: sleep per tick]  (synthetic mode)
//   metrics_out [path: registry snapshot; enables per-op latency histograms]
//   admin_port [presence starts the HTTP admin plane on 127.0.0.1; 0 =
//             ephemeral — the bound port is printed as
//             "admin server listening on 127.0.0.1:PORT". Serves /metrics,
//             /healthz, /readyz, /statusz, /varz, /tracez, /profilez and
//             /quitz, and enables telemetry + the SLO monitor + per-LU
//             latency attribution.]
//   span_period [64: deterministic span sampling period — LU spans with
//             trace_id % span_period == 0 get a queue/wal/apply/visible
//             stage breakdown on /tracez; 0 disables sampling]
//
// Durability (synthetic mode):
//   wal_dir  [directory for the write-ahead log + snapshots; enables both]
//   fsync    [never|every_tick|every_record; default every_tick]
//   snapshot_every [ticks between mgrid-snap-v2 directory snapshots; 0 =
//             WAL only. Recovery refuses an older-version snapshot and
//             falls back to the next-older one or a full WAL replay.]
//   recover  [1: rebuild state from wal_dir (newest valid snapshot + WAL
//             tail to the last complete tick), fast-forward the synthetic
//             workload to the recovered tick and continue. /readyz serves
//             503 "recovering" until the rebuild completes.]
//   recover_pause_ms [artificial delay before recovery starts, so an
//             external prober can observe the 503 -> 200 transition]
//
// Overload admission control (synthetic mode):
//   queue_cap [per-source ingest queue capacity; 0 = unbounded]
//   shed_watermark [fraction of queue_cap at which low-information LUs
//             (displacement below shed_min_disp) are shed; 0 = disabled]
//   shed_min_disp [metres; default 5]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mobilegrid/mobilegrid.h"

using namespace mgrid;

namespace {

/// Set by /quitz and by SIGINT/SIGTERM; synthetic mode's tick loop polls it.
std::atomic<bool> g_quit{false};

void request_quit(int) { g_quit.store(true, std::memory_order_release); }

/// Starts the admin plane when `admin_port` is configured (nullptr
/// otherwise). The hooks' state pointers must outlive the server (or be
/// swapped out with rebind() before they die).
std::unique_ptr<serve::AdminServer> start_admin(const util::Config& config,
                                                serve::AdminHooks hooks) {
  if (!config.contains("admin_port")) return nullptr;
  serve::AdminOptions options;
  options.http.port =
      static_cast<std::uint16_t>(config.get_int("admin_port", 0));
  options.build_info = "mgrid_serve";
  hooks.registry = &obs::MetricsRegistry::global();
  if (!hooks.on_quit) {
    hooks.on_quit = [] { g_quit.store(true, std::memory_order_release); };
  }
  auto server =
      std::make_unique<serve::AdminServer>(std::move(options), std::move(hooks));
  server->start();
  std::cout << "admin server listening on 127.0.0.1:" << server->port()
            << std::endl;
  return server;
}

struct Knobs {
  serve::DirectoryOptions directory;
  serve::IngestOptions ingest;
};

Knobs read_knobs(const util::Config& config) {
  Knobs knobs;
  knobs.directory.shards =
      static_cast<std::size_t>(config.get_int("shards", 8));
  knobs.directory.cell_size = config.get_double("cell", 50.0);
  knobs.ingest.sources = static_cast<std::size_t>(config.get_int("sources", 8));
  knobs.ingest.workers = static_cast<std::size_t>(config.get_int("workers", 2));
  knobs.ingest.batch_size =
      static_cast<std::size_t>(config.get_int("batch", 256));
  knobs.ingest.queue_capacity =
      static_cast<std::size_t>(config.get_int("queue_cap", 0));
  knobs.ingest.shed_watermark = config.get_double("shed_watermark", 0.0);
  knobs.ingest.shed_min_displacement = config.get_double("shed_min_disp", 5.0);
  return knobs;
}

serve::FsyncPolicy read_fsync_policy(const util::Config& config) {
  const std::string name = config.get_string("fsync", "every_tick");
  if (name == "never") return serve::FsyncPolicy::kNever;
  if (name == "every_tick") return serve::FsyncPolicy::kEveryTick;
  if (name == "every_record") return serve::FsyncPolicy::kEveryRecord;
  throw util::ConfigError("fsync must be never|every_tick|every_record, got " +
                          name);
}

/// Deterministic JSON snapshot of the directory (sorted by MN id), used by
/// CI to assert that worker/source counts do not change the final state.
void write_final_state(const std::string& path,
                       const serve::ShardedDirectory& directory) {
  util::JsonWriter json;
  json.begin_object();
  json.field("schema", "mgrid-serve-final-v1");
  json.key("entries").begin_array();
  for (const serve::DirectoryEntry& entry : directory.snapshot()) {
    json.begin_object();
    json.field("mn", static_cast<std::uint64_t>(entry.mn));
    json.field("t", entry.t);
    json.field("x", entry.position.x);
    json.field("y", entry.position.y);
    json.field("estimated", entry.estimated);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::ConfigError("cannot write final state: " + path);
  out << json.str() << '\n';
  std::cout << "final state written to " << path << '\n';
}

/// Compares the directory's final views against the recording run's JSON
/// report. Returns the number of mismatches (0 = exact to 1e-9).
std::size_t cross_check(const serve::ShardedDirectory& directory,
                        const scenario::ExperimentResult& recorded) {
  constexpr double kTol = 1e-9;
  const std::vector<serve::DirectoryEntry> entries = directory.snapshot();
  std::size_t mismatches = 0;
  double max_deviation = 0.0;
  if (entries.size() != recorded.final_positions.size()) {
    std::cerr << "cross-check: directory has " << entries.size()
              << " MNs, recorded run has " << recorded.final_positions.size()
              << '\n';
    ++mismatches;
  }
  const std::size_t n =
      std::min(entries.size(), recorded.final_positions.size());
  for (std::size_t i = 0; i < n; ++i) {
    const serve::DirectoryEntry& got = entries[i];
    const scenario::FinalPosition& want = recorded.final_positions[i];
    if (got.mn != want.mn) {
      std::cerr << "cross-check: entry " << i << " is MN " << got.mn
                << ", recorded MN " << want.mn << '\n';
      ++mismatches;
      continue;
    }
    const double deviation =
        std::max({std::abs(got.position.x - want.x),
                  std::abs(got.position.y - want.y), std::abs(got.t - want.t)});
    max_deviation = std::max(max_deviation, deviation);
    if (deviation > kTol || got.estimated != want.estimated) {
      if (++mismatches <= 5) {
        std::cerr << "cross-check: MN " << got.mn << " deviates by "
                  << deviation << " m (replay " << got.position.x << ","
                  << got.position.y << " @ " << got.t << " vs recorded "
                  << want.x << "," << want.y << " @ " << want.t << ")\n";
      }
    }
  }
  std::cout << "cross-check: " << n << " MNs compared, max deviation "
            << max_deviation << " m -> "
            << (mismatches == 0 ? "EXACT (<= 1e-9)" : "MISMATCH") << '\n';
  return mismatches;
}

void print_queries(const serve::ShardedDirectory& directory) {
  // Centre the probes on the directory's own centroid so they exercise the
  // region/k-nearest paths on any campus geometry.
  const std::vector<serve::DirectoryEntry> entries = directory.snapshot();
  if (entries.empty()) return;
  geo::Vec2 center{0.0, 0.0};
  for (const serve::DirectoryEntry& entry : entries) {
    center.x += entry.position.x;
    center.y += entry.position.y;
  }
  center.x /= static_cast<double>(entries.size());
  center.y /= static_cast<double>(entries.size());

  const std::vector<serve::Neighbor> in_region =
      directory.query_region(center, 100.0);
  const std::vector<serve::Neighbor> nearest = directory.k_nearest(center, 5);
  std::cout << "queries: " << in_region.size() << " MNs within 100 m of ("
            << stats::format_double(center.x, 1) << ", "
            << stats::format_double(center.y, 1) << ")";
  if (!nearest.empty()) {
    std::cout << "; nearest: ";
    for (std::size_t i = 0; i < nearest.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << "MN " << nearest[i].mn << " @ "
                << stats::format_double(nearest[i].distance, 1) << " m";
    }
  }
  std::cout << '\n';
}

int run_replay(const util::Config& config) {
  const std::string eventlog_path = config.require_string("eventlog");
  const serve::ReplayLog log = serve::load_eventlog(eventlog_path);
  std::cout << "replaying " << eventlog_path << ": " << log.lus.size()
            << " delivered LUs / " << log.records << " records, filter "
            << log.run.filter << ", estimator "
            << (log.run.estimator.empty() ? "(none)" : log.run.estimator)
            << ", duration " << log.run.duration << " s\n";

  std::string why;
  const bool exact = serve::replay_is_exact(log, &why);
  if (!exact) std::cout << "note: replay is approximate (" << why << ")\n";

  Knobs knobs = read_knobs(config);
  serve::ShardedDirectory directory(knobs.directory,
                                    serve::make_replay_estimator(log.run));
  serve::ReplayReport report;
  double wall_seconds = 0.0;
  {
    // Replay is wall-clock driven for the SLO monitor: the backpressure hook
    // both feeds the update-latency SLI and rolls the epoch ring (advance()
    // is thread-safe and clamps non-monotonic times).
    obs::SloMonitor slo;
    obs::SpanTracerOptions span_options;
    span_options.sample_period =
        static_cast<std::uint64_t>(config.get_int("span_period", 64));
    obs::SpanTracer tracer(span_options);
    const auto wall_start = std::chrono::steady_clock::now();
    if (config.contains("admin_port")) {
      slo.bind_registry(obs::MetricsRegistry::global());
      tracer.set_enabled(true);
      knobs.ingest.spans = &tracer;
      knobs.ingest.backpressure_hook = [&slo, wall_start](std::size_t,
                                                          double seconds) {
        slo.observe_update(seconds);
        slo.advance(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count());
      };
    }
    serve::IngestPipeline pipeline(directory, knobs.ingest);
    serve::AdminHooks admin_hooks;
    admin_hooks.directory = &directory;
    admin_hooks.pipeline = &pipeline;
    admin_hooks.slo = &slo;
    admin_hooks.spans = &tracer;
    admin_hooks.extra_status = [&](util::JsonWriter& json) {
      json.field("mode", "replay");
      json.field("eventlog", eventlog_path);
      json.field("log_lus", static_cast<std::uint64_t>(log.lus.size()));
    };
    const std::unique_ptr<serve::AdminServer> admin =
        start_admin(config, std::move(admin_hooks));
    const auto start = std::chrono::steady_clock::now();
    report = serve::replay_eventlog(log, directory, pipeline);
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    pipeline.stop();
  }

  std::cout << "replayed " << report.ticks << " ticks, "
            << report.lus_submitted << " LUs, " << report.estimates
            << " estimates in " << stats::format_double(wall_seconds, 3)
            << " s ("
            << stats::format_double(
                   wall_seconds > 0.0
                       ? static_cast<double>(report.lus_submitted) /
                             wall_seconds
                       : 0.0,
                   0)
            << " LU/s) across " << directory.shard_count() << " shard(s), "
            << knobs.ingest.workers << " worker(s)\n";
  if (report.lus_dropped_wire > 0) {
    std::cerr << "ERROR: " << report.lus_dropped_wire
              << " LUs failed the wire round-trip\n";
    return 1;
  }
  print_queries(directory);

  const std::string final_out = config.get_string("final_out", "");
  if (!final_out.empty()) write_final_state(final_out, directory);

  const std::string result_path = config.get_string("result", "");
  if (!result_path.empty()) {
    if (!exact) {
      std::cerr << "cross-check requested but the log cannot replay "
                   "exactly: "
                << why << '\n';
      return 1;
    }
    const scenario::ExperimentResult recorded =
        scenario::load_result_json(result_path);
    if (cross_check(directory, recorded) != 0) return 1;
  }
  return 0;
}

int run_synthetic(const util::Config& config) {
  const auto nodes = static_cast<std::uint32_t>(config.get_int("nodes", 500));
  const auto ticks = static_cast<std::size_t>(config.get_int("ticks", 120));
  const double speed = config.get_double("speed", 1.5);
  const std::string estimator_name = config.get_string("estimator", "");
  const double alpha = config.get_double("alpha", 0.0);
  const auto pace_ms = config.get_int("pace_ms", 0);
  const bool admin_enabled = config.contains("admin_port");

  // Durability knobs. wal_dir= turns on the write-ahead log; recover=1
  // rebuilds state from it before serving.
  const std::string wal_dir = config.get_string("wal_dir", "");
  const auto snapshot_every =
      static_cast<std::size_t>(config.get_int("snapshot_every", 0));
  const bool recover = config.get_int("recover", 0) != 0;
  const auto recover_pause_ms = config.get_int("recover_pause_ms", 0);
  if (wal_dir.empty() && (recover || snapshot_every > 0)) {
    throw util::ConfigError("recover=/snapshot_every= require wal_dir=");
  }

  Knobs knobs = read_knobs(config);
  const auto make_directory = [&]() {
    std::unique_ptr<estimation::LocationEstimator> prototype;
    if (!estimator_name.empty() && estimator_name != "none") {
      prototype = estimation::make_estimator(estimator_name, alpha, 1.0);
    }
    return std::make_unique<serve::ShardedDirectory>(knobs.directory,
                                                     std::move(prototype));
  };

  // Synthetic mode drives the SLO monitor on the sim clock (one epoch per
  // tick by default): update latencies arrive per batch via the pipeline's
  // backpressure hook, lookup latencies from timed probes each tick, and
  // staleness from the directory's per-MN freshness summary.
  obs::SloMonitor slo;
  obs::SpanTracerOptions span_options;
  span_options.sample_period =
      static_cast<std::uint64_t>(config.get_int("span_period", 64));
  obs::SpanTracer tracer(span_options);
  if (admin_enabled) {
    slo.bind_registry(obs::MetricsRegistry::global());
    tracer.set_enabled(true);
    knobs.ingest.spans = &tracer;
    knobs.ingest.backpressure_hook = [&slo](std::size_t, double seconds) {
      slo.observe_update(seconds);
    };
  }

  // When recovering, the admin plane comes up FIRST with no state hooks and
  // a 503 "recovering" readiness, so an external prober sees the recovery
  // window; rebind() attaches the rebuilt state once it is ready.
  std::atomic<bool> recovering{recover};
  std::atomic<std::uint64_t> ticks_done{0};
  std::atomic<double> sim_now{0.0};
  serve::AdminHooks admin_hooks;
  admin_hooks.slo = &slo;
  admin_hooks.spans = &tracer;
  admin_hooks.ready = [&recovering](std::string* reason) {
    if (recovering.load(std::memory_order_acquire)) {
      if (reason != nullptr) *reason = "recovering from WAL";
      return false;
    }
    return true;
  };
  admin_hooks.sim_now = [&sim_now] {
    return sim_now.load(std::memory_order_relaxed);
  };
  admin_hooks.extra_status = [&](util::JsonWriter& json) {
    json.field("mode", "synthetic");
    json.field("nodes", static_cast<std::uint64_t>(nodes));
    json.field("ticks_configured", static_cast<std::uint64_t>(ticks));
    json.field("ticks_done", ticks_done.load(std::memory_order_relaxed));
    json.field("recovering", recovering.load(std::memory_order_acquire));
  };
  const std::unique_ptr<serve::AdminServer> admin =
      start_admin(config, admin_hooks);

  // Crash recovery: newest valid snapshot + WAL tail, then truncate the WAL
  // to the consistent cut so appending resumes without torn or partial-tick
  // records.
  std::unique_ptr<serve::ShardedDirectory> directory_owner;
  std::uint64_t resume_tick = 0;
  std::uint64_t wal_base_records = 0;
  if (recover) {
    if (recover_pause_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(recover_pause_ms));
    }
    serve::RecoverOptions recover_options;
    recover_options.wal_dir = wal_dir;
    serve::RecoverReport report;
    directory_owner =
        serve::recover_directory(recover_options, make_directory, report);
    if (report.wal_found) {
      serve::truncate_wal(wal_dir + "/" + recover_options.wal_file,
                          report.consistent_bytes);
    }
    resume_tick = report.has_barrier ? report.last_tick : 0;
    wal_base_records = report.consistent_records;
    std::cout << "recovery: " << (report.wal_found ? "WAL found" : "no WAL")
              << ", snapshot "
              << (report.snapshot_loaded ? report.snapshot_path : "(none)")
              << " (" << report.snapshots_rejected << " rejected), "
              << report.wal_records_skipped << " records covered, "
              << report.lus_applied << " LUs replayed, "
              << report.ticks_replayed << " ticks replayed, "
              << report.trailing_lus_dropped << " trailing LUs dropped (tail "
              << serve::to_string(report.tail_status) << "), resuming at tick "
              << resume_tick << '\n';
  } else {
    directory_owner = make_directory();
  }
  serve::ShardedDirectory& directory = *directory_owner;

  std::unique_ptr<serve::WalWriter> wal;
  if (!wal_dir.empty()) {
    std::filesystem::create_directories(wal_dir);
    wal = std::make_unique<serve::WalWriter>(wal_dir + "/wal.log",
                                             read_fsync_policy(config));
    knobs.ingest.wal = wal.get();
  }
  serve::IngestPipeline pipeline(directory, knobs.ingest);
  if (admin != nullptr) {
    admin->rebind(&directory, &pipeline, wal.get());
  }
  recovering.store(false, std::memory_order_release);

  // Deterministic per-MN random walk on a 1 km square (no shared RNG so the
  // workload is independent of submission order).
  util::RngRegistry rng(static_cast<std::uint64_t>(config.get_int("seed", 42)));
  std::vector<geo::Vec2> position(nodes);
  std::vector<geo::Vec2> velocity(nodes);
  for (std::uint32_t mn = 0; mn < nodes; ++mn) {
    util::RngStream stream = rng.stream("serve_synthetic", mn);
    position[mn] = {stream.uniform(0.0, 1000.0), stream.uniform(0.0, 1000.0)};
    const double heading = stream.uniform(0.0, 6.283185307179586);
    velocity[mn] = {speed * std::cos(heading), speed * std::sin(heading)};
  }
  // The walk is a pure function of (seed, tick): fast-forward it to the
  // recovered tick so the resumed run emits exactly the LUs the killed
  // process would have from tick resume_tick + 1 on.
  for (std::uint64_t k = 1; k <= resume_tick; ++k) {
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      position[mn].x += velocity[mn].x;
      position[mn].y += velocity[mn].y;
      if (position[mn].x < 0.0 || position[mn].x > 1000.0) {
        velocity[mn].x = -velocity[mn].x;
      }
      if (position[mn].y < 0.0 || position[mn].y > 1000.0) {
        velocity[mn].y = -velocity[mn].y;
      }
    }
  }
  sim_now.store(static_cast<double>(resume_tick), std::memory_order_relaxed);
  ticks_done.store(resume_tick, std::memory_order_relaxed);

  std::uint64_t submitted = 0;
  std::uint64_t wire_rejected = 0;
  bool wal_failed = false;
  const auto start = std::chrono::steady_clock::now();
  // ticks == 0 runs until /quitz or a signal requests shutdown.
  for (std::size_t k = static_cast<std::size_t>(resume_tick) + 1;
       (ticks == 0 || k <= ticks) && !g_quit.load(std::memory_order_acquire);
       ++k) {
    const double t = static_cast<double>(k);
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      position[mn].x += velocity[mn].x;
      position[mn].y += velocity[mn].y;
      if (position[mn].x < 0.0 || position[mn].x > 1000.0) {
        velocity[mn].x = -velocity[mn].x;
      }
      if (position[mn].y < 0.0 || position[mn].y > 1000.0) {
        velocity[mn].y = -velocity[mn].y;
      }
      serve::wire::LuMsg lu;
      lu.mn = mn;
      lu.seq = static_cast<std::uint32_t>(k);
      lu.t = t;
      lu.x = position[mn].x;
      lu.y = position[mn].y;
      lu.vx = velocity[mn].x;
      lu.vy = velocity[mn].y;
      // Round-trip through the codec so the full serving path is exercised.
      std::vector<std::uint8_t> frame;
      serve::wire::encode(frame, lu);
      const serve::wire::Decoded decoded = serve::wire::decode_frame(frame);
      if (!decoded.ok() ||
          !pipeline.submit(std::get<serve::wire::LuMsg>(decoded.msg))) {
        ++wire_rejected;
        continue;
      }
      ++submitted;
    }
    pipeline.flush();
    // Tick barrier: every accepted LU of tick k is already in the WAL's
    // buffer (the pipeline appends under the queue lock before flush()
    // returns), and append_tick writes that buffer with the tick record
    // behind it, so the file ends on a consistent cut; a crash after it
    // recovers forward. A barrier the WAL cannot write ends the run.
    if (wal != nullptr && !wal->append_tick(t, k)) {
      std::cerr << "error: WAL write failed at tick " << k << ": "
                << wal->path() << '\n';
      wal_failed = true;
      break;
    }
    directory.advance_estimates(t);
    if (wal != nullptr && snapshot_every > 0 && k % snapshot_every == 0) {
      const std::uint64_t covered =
          wal_base_records + wal->records_appended();
      if (serve::write_snapshot(directory, wal_dir, covered, t)) {
        std::cout << "snapshot snap-" << covered << " @ tick " << k << '\n';
      } else {
        std::cerr << "warning: snapshot at tick " << k << " failed\n";
      }
    }
    sim_now.store(t, std::memory_order_relaxed);
    ticks_done.store(k, std::memory_order_relaxed);
    if (admin != nullptr) {
      // Timed lookup probes feed the read-path SLI; the staleness SLI gets
      // the tail of the directory's per-MN freshness distribution.
      for (std::uint32_t probe = 0; probe < 8; ++probe) {
        const std::uint32_t mn =
            static_cast<std::uint32_t>(k * 17 + probe * 131) % nodes;
        const auto probe_start = std::chrono::steady_clock::now();
        (void)directory.lookup(mn);
        slo.observe_lookup(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - probe_start)
                               .count());
      }
      const serve::ShardedDirectory::StalenessSummary staleness =
          directory.staleness_summary(t);
      if (staleness.tracked > 0) {
        slo.observe_staleness(staleness.p99_seconds);
        slo.observe_staleness(staleness.max_seconds);
      }
      slo.advance(t);
    }
    if (pace_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pipeline.stop();
  if (wal_failed) return 1;
  const serve::IngestStats ingest_stats = pipeline.stats();

  std::cout << "synthetic: " << nodes << " MNs x "
            << ticks_done.load(std::memory_order_relaxed) << " ticks = "
            << submitted << " LUs in "
            << stats::format_double(wall_seconds, 3) << " s ("
            << stats::format_double(
                   wall_seconds > 0.0
                       ? static_cast<double>(submitted) / wall_seconds
                       : 0.0,
                   0)
            << " LU/s), " << ingest_stats.batches << " batches, "
            << ingest_stats.rejected_stale << " stale, " << wire_rejected
            << " rejected\n";
  print_queries(directory);

  const std::string final_out = config.get_string("final_out", "");
  if (!final_out.empty()) write_final_state(final_out, directory);
  return ingest_stats.applied == submitted ? 0 : 1;
}

std::unique_ptr<serve::ShardedDirectory> make_cluster_directory(
    const util::Config& config, const Knobs& knobs) {
  const std::string estimator_name = config.get_string("estimator", "");
  const double alpha = config.get_double("alpha", 0.0);
  std::unique_ptr<estimation::LocationEstimator> prototype;
  if (!estimator_name.empty() && estimator_name != "none") {
    prototype = estimation::make_estimator(estimator_name, alpha, 1.0);
  }
  return std::make_unique<serve::ShardedDirectory>(knobs.directory,
                                                   std::move(prototype));
}

/// One shard node of a cluster: LU listener + ingest + optional WAL +
/// replication hub, driven entirely by a router over TCP.
int run_shard(const util::Config& config) {
  Knobs knobs = read_knobs(config);
  const std::string wal_dir = config.get_string("wal_dir", "");
  const auto snapshot_every =
      static_cast<std::size_t>(config.get_int("snapshot_every", 0));
  if (wal_dir.empty() && snapshot_every > 0) {
    throw util::ConfigError("snapshot_every= requires wal_dir=");
  }

  const std::unique_ptr<serve::ShardedDirectory> directory =
      make_cluster_directory(config, knobs);
  std::unique_ptr<serve::WalWriter> wal;
  if (!wal_dir.empty()) {
    std::filesystem::create_directories(wal_dir);
    wal = std::make_unique<serve::WalWriter>(wal_dir + "/wal.log",
                                             read_fsync_policy(config));
    knobs.ingest.wal = wal.get();
  }
  cluster::ReplicationHub hub(*directory);
  // Cluster traces: spans propagated from the router (kTracedLu) record
  // here with router_batch/net stages attached; the tap hands the hub each
  // LU with its trace context, so the follower joins the trace too.
  obs::SpanTracerOptions span_options;
  span_options.sample_period =
      static_cast<std::uint64_t>(config.get_int("span_period", 64));
  obs::SpanTracer tracer(span_options);
  tracer.set_enabled(true);
  knobs.ingest.spans = &tracer;
  knobs.ingest.lu_tap = [&hub](const serve::wire::LuMsg& lu) {
    hub.on_lu(lu);
  };
  serve::IngestPipeline pipeline(*directory, knobs.ingest);

  std::atomic<std::uint64_t> ticks_done{0};
  std::atomic<double> sim_now{0.0};
  cluster::LuServerOptions server_options;
  server_options.port =
      static_cast<std::uint16_t>(config.get_int("port", 0));
  cluster::LuServerHooks server_hooks;
  server_hooks.directory = directory.get();
  server_hooks.pipeline = &pipeline;
  server_hooks.wal = wal.get();
  server_hooks.replication = &hub;
  server_hooks.on_tick = [&](double t, std::uint64_t tick) {
    ticks_done.store(tick, std::memory_order_relaxed);
    sim_now.store(t, std::memory_order_relaxed);
    if (wal != nullptr && snapshot_every > 0 && tick % snapshot_every == 0) {
      // Runs inside the tick barrier, so the snapshot is an exact cut.
      serve::write_snapshot(*directory, wal_dir, wal->records_appended(), t);
    }
  };
  cluster::LuServer server(server_options, server_hooks);
  server.start();
  std::cout << "lu server listening on 127.0.0.1:" << server.port()
            << std::endl;

  serve::AdminHooks admin_hooks;
  admin_hooks.directory = directory.get();
  admin_hooks.pipeline = &pipeline;
  admin_hooks.wal = wal.get();
  admin_hooks.spans = &tracer;
  admin_hooks.sim_now = [&sim_now] {
    return sim_now.load(std::memory_order_relaxed);
  };
  admin_hooks.extra_status = [&](util::JsonWriter& json) {
    json.field("mode", "shard");
    json.field("lu_port", static_cast<std::uint64_t>(server.port()));
    json.field("ticks_done", ticks_done.load(std::memory_order_relaxed));
  };
  admin_hooks.cluster_status = [&](util::JsonWriter& json) {
    const cluster::LuServerStats stats = server.stats();
    const cluster::ReplicationHub::Stats repl = hub.stats();
    json.field("lus", stats.lus);
    json.field("lus_rejected", stats.lus_rejected);
    json.field("ticks", stats.ticks);
    // Tick cursor for the router's federation collector: how far this
    // shard has applied, in tick time (the replication-lag SLI minuend).
    json.field("last_tick", ticks_done.load(std::memory_order_relaxed));
    json.field("last_tick_t", sim_now.load(std::memory_order_relaxed));
    json.field("bad_frames", stats.bad_frames);
    json.field("subscribers", repl.subscribers);
    json.field("replication_lus_streamed", repl.lus_streamed);
    json.field("replication_bytes_streamed", repl.bytes_streamed);
    json.field("replication_dropped_slow", repl.dropped_slow);
    json.field("replication_lag_records", repl.subscriber_lag_records);
  };
  const std::unique_ptr<serve::AdminServer> admin =
      start_admin(config, std::move(admin_hooks));

  while (!g_quit.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Deliver the stream's tail to any follower before tearing down, so a
  // follower that outlives this shard holds the exact final state.
  hub.drain();
  server.stop();
  hub.stop();
  pipeline.stop();

  const serve::IngestStats ingest_stats = pipeline.stats();
  std::cout << "shard: " << ingest_stats.applied << " LUs applied, "
            << ticks_done.load(std::memory_order_relaxed) << " ticks, "
            << directory->size() << " MNs tracked\n";
  const std::string final_out = config.get_string("final_out", "");
  if (!final_out.empty()) write_final_state(final_out, *directory);
  return 0;
}

/// A replication follower: mirrors one primary shard's directory by
/// replaying its LU substream (see cluster/replication.h).
int run_follower(const util::Config& config) {
  const Knobs knobs = read_knobs(config);
  const std::string primary = config.require_string("primary");
  const std::size_t colon = primary.rfind(':');
  if (colon == std::string::npos) {
    throw util::ConfigError("primary must be host:port, got " + primary);
  }
  cluster::FollowerOptions follower_options;
  follower_options.host = primary.substr(0, colon);
  follower_options.port =
      static_cast<std::uint16_t>(std::stoi(primary.substr(colon + 1)));

  // Traced LUs on the replication stream record follower_apply spans under
  // their propagated cluster trace id.
  obs::SpanTracerOptions span_options;
  span_options.sample_period =
      static_cast<std::uint64_t>(config.get_int("span_period", 64));
  obs::SpanTracer tracer(span_options);
  tracer.set_enabled(true);
  follower_options.spans = &tracer;

  const std::unique_ptr<serve::ShardedDirectory> directory =
      make_cluster_directory(config, knobs);
  cluster::Follower follower(*directory, follower_options);
  std::string error;
  if (!follower.connect(&error)) {
    std::cerr << "follower: cannot reach primary " << primary << ": " << error
              << '\n';
    return 1;
  }
  std::cout << "follower: subscribed to " << primary << std::endl;

  serve::AdminHooks admin_hooks;
  admin_hooks.directory = directory.get();
  admin_hooks.spans = &tracer;
  admin_hooks.ready = [&follower](std::string* reason) {
    if (!follower.stats().snapshot_loaded) {
      if (reason != nullptr) *reason = "bootstrapping from primary snapshot";
      return false;
    }
    return true;
  };
  admin_hooks.extra_status = [&](util::JsonWriter& json) {
    json.field("mode", "follower");
    json.field("primary", primary);
  };
  admin_hooks.cluster_status = [&](util::JsonWriter& json) {
    const cluster::Follower::Stats stats = follower.stats();
    json.field("snapshot_loaded", stats.snapshot_loaded);
    json.field("tracks_restored", stats.tracks_restored);
    json.field("lus_applied", stats.lus_applied);
    json.field("ticks_applied", stats.ticks_applied);
    json.field("last_tick", stats.last_tick);
    json.field("last_tick_t", stats.last_tick_t);
  };
  const std::unique_ptr<serve::AdminServer> admin =
      start_admin(config, std::move(admin_hooks));

  std::atomic<bool> done{false};
  bool clean = false;
  std::thread runner([&] {
    clean = follower.run();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire) &&
         !g_quit.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const bool stopped_by_signal = !done.load(std::memory_order_acquire);
  follower.stop();
  runner.join();

  const cluster::Follower::Stats stats = follower.stats();
  std::cout << "follower: snapshot "
            << (stats.snapshot_loaded ? "loaded" : "missing") << " ("
            << stats.tracks_restored << " tracks), " << stats.lus_applied
            << " LUs replayed, " << stats.ticks_applied
            << " ticks, last tick " << stats.last_tick << " -> "
            << (clean ? "clean end of stream"
                      : (stopped_by_signal ? "stopped"
                                           : follower.last_error()))
            << '\n';
  const std::string final_out = config.get_string("final_out", "");
  if (!final_out.empty()) write_final_state(final_out, *directory);
  return clean || stopped_by_signal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config config = util::Config::from_argv(argc, argv);

    const std::string mode = config.get_string(
        "mode", config.contains("eventlog") ? "replay" : "synthetic");
    // The role label on mgrid_build_info is captured at registry
    // construction, so it must be set before any telemetry comes up.
    if (mode == "shard" || mode == "follower") obs::set_role(mode);

    const std::string metrics_out = config.get_string("metrics_out", "");
    if (!metrics_out.empty()) obs::set_enabled(true);
    if (config.contains("admin_port") || mode == "shard" ||
        mode == "follower") {
      obs::set_enabled(true);
      std::signal(SIGINT, request_quit);
      std::signal(SIGTERM, request_quit);
    }

    int exit_code = 0;
    if (mode == "replay") {
      exit_code = run_replay(config);
    } else if (mode == "synthetic") {
      exit_code = run_synthetic(config);
    } else if (mode == "shard") {
      exit_code = run_shard(config);
    } else if (mode == "follower") {
      exit_code = run_follower(config);
    } else {
      std::cerr << "unknown mode: " << mode
                << " (replay|synthetic|shard|follower)\n";
      return 2;
    }

    if (!metrics_out.empty()) {
      obs::write_metrics_file(metrics_out,
                              obs::MetricsRegistry::global().snapshot());
      std::cout << "metrics snapshot written to " << metrics_out << '\n';
    }
    return exit_code;
  } catch (const std::exception& error) {
    std::cerr << "mgrid_serve: " << error.what() << '\n';
    return 2;
  }
}
