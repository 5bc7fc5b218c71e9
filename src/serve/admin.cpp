#include "serve/admin.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/export.h"
#include "obs/prof.h"

namespace mgrid::serve {

namespace {

/// `name{k="v",...}` for /varz lines (labels are registry-sorted already).
std::string varz_series_name(const obs::MetricSample& sample) {
  if (sample.labels.empty()) return sample.name;
  std::string out = sample.name;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : sample.labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += util::json_escape(value);
    out += '"';
  }
  out += '}';
  return out;
}

/// Value of `name` in a query string ("a=1&b=2"), "" when absent.
std::string query_param(std::string_view query, std::string_view name) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(pos, end - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
      return std::string(pair.substr(eq + 1));
    }
    pos = end + 1;
  }
  return {};
}

/// 64-bit trace ids travel as fixed-width hex strings: JSON numbers are
/// doubles and would silently corrupt ids above 2^53.
std::string hex_trace_id(std::uint64_t id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return buffer;
}

void write_span(util::JsonWriter& json, const obs::LuSpan& span) {
  json.begin_object();
  json.field("trace_id", hex_trace_id(span.trace_id));
  json.field("mn", static_cast<std::uint64_t>(span.mn));
  json.field("seq", static_cast<std::uint64_t>(span.seq));
  json.field("source", static_cast<std::uint64_t>(span.source));
  json.field("tid", static_cast<std::uint64_t>(span.tid));
  json.field("wall_us", span.wall_us);
  json.field("total_seconds", span.total_seconds);
  json.key("stages").begin_object();
  for (std::size_t i = 0; i < obs::kLuStageCount; ++i) {
    json.field(obs::lu_stage_name(static_cast<obs::LuStage>(i)),
               span.stage_seconds[i]);
  }
  json.end_object();
  json.end_object();
}

void write_window(util::JsonWriter& json, const char* name,
                  const obs::SloWindowStats& window,
                  const obs::SloObjective& objective) {
  json.key(name).begin_object();
  json.field("count", window.count);
  json.field("bad", window.bad);
  json.field("bad_fraction", window.bad_fraction());
  json.field("burn_rate", window.burn_rate(objective));
  json.field("p50", window.p50);
  json.field("p95", window.p95);
  json.field("p99", window.p99);
  json.field("max", window.max);
  json.end_object();
}

}  // namespace

AdminServer::AdminServer(AdminOptions options, AdminHooks hooks)
    : options_(std::move(options)),
      hooks_(std::move(hooks)),
      server_(options_.http, [this](const obs::http::Request& request) {
        return handle(request);
      }) {
  if (hooks_.registry == nullptr) {
    hooks_.registry = &obs::current_registry();
  }
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::start() {
  started_ = std::chrono::steady_clock::now();
  server_.start();
}

void AdminServer::stop() { server_.stop(); }

void AdminServer::rebind(ShardedDirectory* directory, IngestPipeline* pipeline,
                         WalWriter* wal) {
  const std::lock_guard<std::mutex> lock(rebind_mutex_);
  hooks_.directory = directory;
  hooks_.pipeline = pipeline;
  hooks_.wal = wal;
}

std::uint16_t AdminServer::port() const noexcept { return server_.port(); }

bool AdminServer::running() const noexcept { return server_.running(); }

obs::http::ServerStats AdminServer::http_stats() const {
  return server_.stats();
}

obs::http::Response AdminServer::handle(const obs::http::Request& request) {
  if (request.method != "GET" && request.method != "HEAD") {
    return obs::http::Response::text(405, "method not allowed\n");
  }
  if (request.path == "/metrics") return metrics();
  if (request.path == "/healthz") {
    return obs::http::Response::text(200, "ok\n");
  }
  if (request.path == "/readyz") return readyz();
  if (request.path == "/statusz") return statusz();
  if (request.path == "/varz") return varz();
  if (request.path == "/tracez") return tracez(request);
  if (request.path == "/clusterz") {
    if (hooks_.clusterz) return hooks_.clusterz(request);
    return obs::http::Response::text(404, "no federation collector attached\n");
  }
  if (request.path == "/profilez") return profilez(request);
  if (request.path == "/quitz") {
    quit_requests_.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.on_quit) hooks_.on_quit();
    return obs::http::Response::text(200, "shutting down\n");
  }
  if (request.path == "/") {
    return obs::http::Response::text(
        200,
        "mgrid admin\n"
        "  /metrics /healthz /readyz /statusz /varz /tracez /clusterz"
        " /profilez /quitz\n");
  }
  return obs::http::Response::not_found();
}

obs::http::Response AdminServer::metrics() const {
  return obs::http::Response::text(
      200, obs::to_prometheus(hooks_.registry->snapshot()));
}

obs::http::Response AdminServer::varz() const {
  const obs::MetricsSnapshot snapshot = hooks_.registry->snapshot();
  std::string body;
  for (const obs::MetricSample& sample : snapshot.samples) {
    body += varz_series_name(sample);
    body += ' ';
    if (sample.kind == obs::MetricKind::kHistogram) {
      body += "count=" + std::to_string(sample.count);
      body += " sum=" + std::to_string(sample.sum);
      body += " mean=" + std::to_string(sample.mean);
      body += " max=" + std::to_string(sample.max);
    } else {
      body += std::to_string(sample.value);
    }
    body += '\n';
  }
  return obs::http::Response::text(200, body);
}

bool AdminServer::is_ready(std::string* reason) const {
  IngestPipeline* pipeline = nullptr;
  WalWriter* wal = nullptr;
  {
    const std::lock_guard<std::mutex> lock(rebind_mutex_);
    pipeline = hooks_.pipeline;
    wal = hooks_.wal;
  }
  if (wal != nullptr && wal->failed()) {
    if (reason != nullptr) *reason = "wal failed: " + wal->path();
    return false;
  }
  if (pipeline != nullptr) {
    const std::uint64_t pending = pipeline->pending();
    if (pending > options_.ready_max_pending) {
      if (reason != nullptr) {
        *reason = "ingest backlog: " + std::to_string(pending) +
                  " pending > " + std::to_string(options_.ready_max_pending);
      }
      return false;
    }
  }
  if (hooks_.ready && !hooks_.ready(reason)) {
    if (reason != nullptr && reason->empty()) *reason = "driver not ready";
    return false;
  }
  return true;
}

obs::http::Response AdminServer::tracez(
    const obs::http::Request& request) const {
  if (hooks_.spans == nullptr) {
    return obs::http::Response::text(404, "no span tracer attached\n");
  }
  std::size_t top_k = hooks_.spans->options().top_k;
  const std::string k_param = query_param(request.query, "k");
  if (!k_param.empty()) {
    try {
      top_k = std::min<std::size_t>(top_k, std::stoul(k_param));
    } catch (...) {
      return obs::http::Response::text(400, "bad k parameter\n");
    }
  }

  const obs::SpanSnapshot spans = hooks_.spans->snapshot();
  // Join each SLI against its SLO objective when a monitor is attached, so
  // a /tracez page shows the threshold the slow traces violated.
  obs::SloReport slo_report;
  if (hooks_.slo != nullptr) slo_report = hooks_.slo->report();

  util::JsonWriter json;
  json.begin_object();
  json.field("schema", "mgrid-tracez-v1");
  json.field("enabled", hooks_.spans->enabled());
  json.field("sample_period", spans.sample_period);
  json.field("sampled", spans.sampled);
  json.field("dropped", spans.dropped);
  json.key("slis").begin_array();
  for (const obs::SliSpans& sli : spans.slis) {
    json.begin_object();
    json.field("name", sli.name);
    json.field("recorded", sli.recorded);
    json.field("lo", sli.lo);
    json.field("hi", sli.hi);
    json.field("buckets", static_cast<std::uint64_t>(sli.buckets));
    if (const obs::SloSliReport* objective = slo_report.find(sli.name)) {
      json.key("objective").begin_object();
      json.field("threshold", objective->objective.threshold);
      json.field("target_fraction", objective->objective.target_fraction);
      json.field("state", obs::slo_state_name(objective->state));
      json.end_object();
    }
    json.key("exemplars").begin_array();
    for (const obs::BucketExemplar& exemplar : sli.exemplars) {
      json.begin_object();
      json.field("bucket", static_cast<std::uint64_t>(exemplar.bucket));
      if (std::isinf(exemplar.le)) {
        json.field("le", "+Inf");
      } else {
        json.field("le", exemplar.le);
      }
      json.key("trace");
      write_span(json, exemplar.span);
      json.end_object();
    }
    json.end_array();
    json.key("slowest").begin_array();
    const std::size_t count = std::min(top_k, sli.slowest.size());
    for (std::size_t i = 0; i < count; ++i) {
      write_span(json, sli.slowest[i]);
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return obs::http::Response::json(200, json.str());
}

obs::http::Response AdminServer::profilez(
    const obs::http::Request& request) const {
  double seconds = 2.0;
  const std::string seconds_param = query_param(request.query, "seconds");
  if (!seconds_param.empty()) {
    try {
      seconds = std::stod(seconds_param);
    } catch (...) {
      return obs::http::Response::text(400, "bad seconds parameter\n");
    }
  }
  seconds = std::clamp(seconds, 0.1, 30.0);
  if (obs::CpuProfiler::running()) {
    return obs::http::Response::text(503, "profiler already running\n");
  }
  if (!obs::CpuProfiler::start()) {
    return obs::http::Response::text(503, "profiler unavailable\n");
  }
  // Deliberately synchronous: one HTTP worker sleeps for the window while
  // the process runs; the pool has another worker for health checks.
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const obs::ProfileReport report = obs::CpuProfiler::stop();
  std::string body = "# mgrid cpu profile: ";
  body += std::to_string(report.samples) + " samples @ " +
          std::to_string(report.hz) + " Hz over " +
          std::to_string(report.duration_seconds) + "s, " +
          std::to_string(report.threads) + " threads, " +
          std::to_string(report.dropped) + " dropped\n";
  body += report.folded;
  return obs::http::Response::text(200, body);
}

obs::http::Response AdminServer::readyz() const {
  std::string reason;
  if (is_ready(&reason)) return obs::http::Response::text(200, "ready\n");
  return obs::http::Response::text(503, "not ready: " + reason + "\n");
}

obs::http::Response AdminServer::statusz() const {
  ShardedDirectory* directory = nullptr;
  IngestPipeline* pipeline = nullptr;
  WalWriter* wal = nullptr;
  {
    const std::lock_guard<std::mutex> lock(rebind_mutex_);
    directory = hooks_.directory;
    pipeline = hooks_.pipeline;
    wal = hooks_.wal;
  }
  util::JsonWriter json;
  json.begin_object();
  json.field("schema", "mgrid-statusz-v1");
  json.field("build", options_.build_info);
  json.field("role", obs::role());
  json.field("uptime_seconds",
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           started_)
                 .count());
  std::string not_ready_reason;
  const bool ready = is_ready(&not_ready_reason);
  json.field("ready", ready);
  if (!ready) json.field("not_ready_reason", not_ready_reason);
  json.field("quit_requests",
             quit_requests_.load(std::memory_order_relaxed));

  const obs::http::ServerStats http = server_.stats();
  json.key("http").begin_object();
  json.field("accepted", http.accepted);
  json.field("served", http.served);
  json.field("rejected_busy", http.rejected_busy);
  json.field("bad_requests", http.bad_requests);
  json.field("io_errors", http.io_errors);
  json.field("requests", http.requests);
  json.end_object();

  if (directory != nullptr) {
    json.key("directory").begin_object();
    json.field("size", static_cast<std::uint64_t>(directory->size()));
    json.field("shards",
               static_cast<std::uint64_t>(directory->shard_count()));
    json.field("degraded", directory->degraded());
    json.key("shard_sizes").begin_array();
    for (const std::size_t size : directory->shard_sizes()) {
      json.value(static_cast<std::uint64_t>(size));
    }
    json.end_array();
    if (hooks_.sim_now) {
      const ShardedDirectory::StalenessSummary staleness =
          directory->staleness_summary(hooks_.sim_now());
      json.key("staleness").begin_object();
      json.field("tracked", static_cast<std::uint64_t>(staleness.tracked));
      json.field("mean_seconds", staleness.mean_seconds);
      json.field("p99_seconds", staleness.p99_seconds);
      json.field("max_seconds", staleness.max_seconds);
      json.end_object();
    }
    json.end_object();
  }

  if (wal != nullptr) {
    json.key("wal").begin_object();
    json.field("path", wal->path());
    json.field("fsync", to_string(wal->policy()));
    json.field("records_appended", wal->records_appended());
    json.field("bytes_appended", wal->bytes_appended());
    json.field("failed", wal->failed());
    json.end_object();
  }

  if (pipeline != nullptr) {
    const IngestStats stats = pipeline->stats();
    json.key("ingest").begin_object();
    json.field("accepted", stats.accepted);
    json.field("applied", stats.applied);
    json.field("rejected_full", stats.rejected_full);
    json.field("rejected_stale", stats.rejected_stale);
    json.field("shed_low_info", stats.shed_low_info);
    json.field("batches", stats.batches);
    json.field("pending", pipeline->pending());
    json.field("workers",
               static_cast<std::uint64_t>(pipeline->worker_count()));
    json.key("queue_depths").begin_array();
    for (const std::size_t depth : pipeline->queue_depths()) {
      json.value(static_cast<std::uint64_t>(depth));
    }
    json.end_array();
    json.end_object();
  }

  if (hooks_.slo != nullptr) {
    const obs::SloReport report = hooks_.slo->report();
    json.key("slo").begin_object();
    json.field("now", report.now);
    json.field("epoch_seconds", report.epoch_seconds);
    json.field("epochs_filled",
               static_cast<std::uint64_t>(report.epochs_filled));
    json.field("overall", obs::slo_state_name(report.overall));
    json.key("slis").begin_array();
    for (const obs::SloSliReport& sli : report.slis) {
      json.begin_object();
      json.field("name", sli.name);
      json.field("state", obs::slo_state_name(sli.state));
      json.key("objective").begin_object();
      json.field("threshold", sli.objective.threshold);
      json.field("target_fraction", sli.objective.target_fraction);
      json.end_object();
      write_window(json, "short_window", sli.short_window, sli.objective);
      write_window(json, "long_window", sli.long_window, sli.objective);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  if (hooks_.spans != nullptr) {
    const obs::SpanSnapshot spans = hooks_.spans->snapshot();
    json.key("spans").begin_object();
    json.field("enabled", hooks_.spans->enabled());
    json.field("sample_period", spans.sample_period);
    json.field("sampled", spans.sampled);
    json.field("dropped", spans.dropped);
    json.end_object();
  }

  if (hooks_.cluster_status) {
    json.key("cluster").begin_object();
    hooks_.cluster_status(json);
    json.end_object();
  }

  if (hooks_.extra_status) {
    json.key("driver").begin_object();
    hooks_.extra_status(json);
    json.end_object();
  }

  json.end_object();
  return obs::http::Response::json(200, json.str());
}

}  // namespace mgrid::serve
