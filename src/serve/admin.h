// Admin/observability surface for the serving layer.
//
// Binds an obs::http::Server to the operational state of a running broker
// service and exposes the scrape endpoints a production location service
// needs:
//
//   GET /metrics  Prometheus text exposition of the bound MetricsRegistry
//   GET /healthz  liveness: 200 "ok" while the process serves requests
//   GET /readyz   readiness: 200 once ingest is caught up (pipeline
//                 backlog at or under ready_max_pending and the driver's
//                 ready predicate, when set, agrees); 503 with the reason
//                 otherwise — "wal failed: <path>" once the WAL has failed
//   GET /statusz  JSON snapshot (mgrid-statusz-v1): build info, process
//                 role, uptime, directory shard occupancy,
//                 ingest/backpressure counters and per-source queue depths,
//                 SLO report, a cluster block on router/shard/follower
//                 nodes, plus any driver-provided progress fields
//   GET /varz     raw counter dump, one `name{labels} value` per line
//   GET /clusterz federated cluster view on routers (mgrid-clusterz-v1
//                 JSON; ?format=prom re-exports every scraped target's
//                 metrics with shard=/role= labels) — present only when a
//                 FederationCollector is hooked in
//   GET /tracez   latency attribution (mgrid-tracez-v1): per-SLI histogram
//                 exemplars and the top-K slowest sampled LU spans with
//                 their queue/wal/apply/visible stage breakdown; ?k=N
//                 bounds the slowest list
//   GET /profilez runs the in-process sampling CPU profiler for
//                 ?seconds=N (default 2, clamped to [0.1, 30]) and returns
//                 collapsed "folded" stacks as text/plain — feed straight
//                 into flamegraph.pl. 503 while a profile is already
//                 running; blocks one HTTP worker for the duration
//   GET /quitz    requests driver shutdown (fires the on_quit hook; the
//                 driver loop exits and stops the server — /quitz never
//                 blocks on the shutdown itself)
//
// Every hook is optional: a driver with no pipeline simply loses the
// ingest block and readiness falls back to the ready predicate (or always
// ready). handle() is exposed directly so tests can exercise routing
// without sockets.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "util/json.h"

namespace mgrid::serve {

struct AdminOptions {
  obs::http::ServerOptions http;
  /// Readiness: the pipeline is "caught up" while pending() <= this.
  std::uint64_t ready_max_pending = 1024;
  /// Free-form build/version string surfaced in /statusz.
  std::string build_info = "mgrid";
};

struct AdminHooks {
  /// Registry scraped by /metrics and /varz; nullptr = the registry that
  /// is current on the constructing thread.
  obs::MetricsRegistry* registry = nullptr;
  ShardedDirectory* directory = nullptr;    ///< Optional.
  IngestPipeline* pipeline = nullptr;       ///< Optional.
  obs::SloMonitor* slo = nullptr;           ///< Optional.
  /// Optional: /statusz wal block; a failed WAL holds /readyz at 503.
  WalWriter* wal = nullptr;
  /// Optional: /tracez exemplars + slowest spans, /statusz spans block.
  obs::SpanTracer* spans = nullptr;
  /// Current sim-time, for the /statusz staleness block (with directory).
  std::function<double()> sim_now;
  /// Extra readiness predicate; fill `*reason` when returning false.
  std::function<bool(std::string* reason)> ready;
  /// Appends driver-specific fields inside /statusz's "driver" object.
  std::function<void(util::JsonWriter&)> extra_status;
  /// Appends cluster-plane fields (ring version, shard epochs,
  /// forward/merge counters) inside /statusz's "cluster" object — wired by
  /// router/shard/follower drivers (see cluster/router.h). Absent on
  /// standalone nodes, and so is the block.
  std::function<void(util::JsonWriter&)> cluster_status;
  /// Serves GET /clusterz (the router's federation plane — see
  /// cluster/federation.h). Absent => /clusterz is 404.
  std::function<obs::http::Response(const obs::http::Request&)> clusterz;
  /// Fired by /quitz (e.g. set an atomic the driver loop polls).
  std::function<void()> on_quit;
};

class AdminServer {
 public:
  AdminServer(AdminOptions options, AdminHooks hooks);
  ~AdminServer();  ///< Implies stop().

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds and starts serving. Throws std::runtime_error on bind failure.
  void start();
  /// Graceful shutdown (idempotent).
  void stop();

  /// Swaps the optional state hooks while serving — a recovering driver
  /// starts the admin plane first (so /readyz can report 503 "recovering")
  /// and attaches the rebuilt directory, pipeline and WAL once recovery
  /// completes. Thread-safe with respect to handle().
  void rebind(ShardedDirectory* directory, IngestPipeline* pipeline,
              WalWriter* wal);

  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] obs::http::ServerStats http_stats() const;

  /// Route one request (the HTTP server's handler; public for tests).
  [[nodiscard]] obs::http::Response handle(const obs::http::Request& request);

 private:
  [[nodiscard]] obs::http::Response metrics() const;
  [[nodiscard]] obs::http::Response varz() const;
  [[nodiscard]] obs::http::Response readyz() const;
  [[nodiscard]] obs::http::Response statusz() const;
  [[nodiscard]] obs::http::Response tracez(
      const obs::http::Request& request) const;
  [[nodiscard]] obs::http::Response profilez(
      const obs::http::Request& request) const;
  [[nodiscard]] bool is_ready(std::string* reason) const;

  AdminOptions options_;
  AdminHooks hooks_;
  /// Guards the rebindable hook pointers (directory/pipeline/wal) against
  /// concurrent handle() calls.
  mutable std::mutex rebind_mutex_;
  obs::http::Server server_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> quit_requests_{0};
};

}  // namespace mgrid::serve
