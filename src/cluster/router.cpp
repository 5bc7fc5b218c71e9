#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "obs/http.h"

namespace mgrid::cluster {

namespace {

/// Merge order of spatial-query results — the (distance, mn) total order
/// ShardedDirectory sorts by, so a clustered merge is indistinguishable
/// from a single directory's output.
bool neighbor_less(const wire::NeighborMsg& a, const wire::NeighborMsg& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.mn < b.mn;
}

}  // namespace

Router::Shard::Shard(const RouterShardConfig& cfg, const RouterOptions& opts)
    : config(cfg),
      client(ShardClientOptions{cfg.name, cfg.host, cfg.lu_port,
                                opts.connect_timeout_seconds,
                                opts.io_timeout_seconds}),
      forwarded(obs::current_registry().counter(
          "mgrid_router_forwarded_lus_total", {{"shard", cfg.name}},
          "LUs forwarded to this shard by the router")) {
  batch.reserve(opts.batch_size);
}

Router::Router(RouterOptions options, std::vector<RouterShardConfig> shards)
    : options_(options), ring_(RingOptions{options.vnodes, options.probes}) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  for (const RouterShardConfig& config : shards) {
    if (!ring_.add_node(config.name)) continue;  // duplicate name
    shards_.push_back(std::make_unique<Shard>(config, options_));
    health_[config.name].name = config.name;
  }
  reindex_locked();
  ring_version_gauge_ = obs::current_registry().gauge(
      "mgrid_cluster_ring_version", {},
      "Monotonic version of the router's consistent-hash ring");
  ring_version_gauge_.set(static_cast<double>(ring_.version()));
}

Router::~Router() { stop(); }

bool Router::start(std::string* error) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& shard : shards_) {
      std::string connect_error;
      if (!shard->client.connect(&connect_error)) {
        if (error != nullptr) {
          *error = shard->config.name + ": " + connect_error;
        }
        return false;
      }
    }
  }
  if (options_.health_period_seconds > 0.0) {
    health_thread_ = std::thread([this] { health_main(); });
  }
  started_ = true;
  return true;
}

void Router::stop() {
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& shard : shards_) shard->client.close();
}

bool Router::submit(const wire::LuMsg& msg) {
  wire::LuMsg entry = msg;
  if (options_.spans != nullptr &&
      options_.spans->sampled(obs::kClusterTraceSource, msg.mn, msg.seq)) {
    entry.trace.trace_id =
        obs::SpanTracer::trace_id(obs::kClusterTraceSource, msg.mn, msg.seq);
    entry.trace.origin_us = obs::span_now_us();
    entry.trace.parent_stage = static_cast<std::uint32_t>(obs::LuStage::kNet);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shards_.empty()) return false;
  Shard& shard = *by_ring_index_[owner_index_locked(msg.mn)];
  shard.batch.push_back(entry);
  if (shard.batch.size() >= options_.batch_size) {
    return send_batch_locked(shard);
  }
  return true;
}

bool Router::flush_locked() {
  bool ok = true;
  for (auto& shard : shards_) {
    if (!shard->batch.empty()) ok = send_batch_locked(*shard) && ok;
  }
  return ok;
}

template <typename Send, typename Await>
std::size_t Router::fan_out_locked(const Send& send, const Await& await) {
  std::size_t failures = 0;
  awaiting_.clear();
  for (auto& shard : shards_) {
    ShardClient& client = shard->client;
    if ((!client.connected() && !client.connect()) || !send(client)) {
      ++failures;
      continue;
    }
    awaiting_.push_back(&client);
  }
  // A failed reply closes only its own connection (ShardClient), so every
  // other shard sent to is still read here and no reply is left unread.
  for (ShardClient* client : awaiting_) {
    if (!await(*client)) ++failures;
  }
  return failures;
}

template <typename Query>
std::vector<wire::NeighborMsg> Router::merged_query_locked(const Query& query,
                                                           std::size_t limit) {
  flush_locked();
  std::vector<wire::NeighborMsg> merged;
  query_failures_.fetch_add(
      fan_out_locked(
          [&](ShardClient& client) { return client.send_query(query); },
          [&](ShardClient& client) {
            return client.read_neighbor_stream(merged);
          }),
      std::memory_order_relaxed);
  std::sort(merged.begin(), merged.end(), neighbor_less);
  neighbors_merged_.fetch_add(merged.size(), std::memory_order_relaxed);
  if (merged.size() > limit) merged.resize(limit);
  return merged;
}

bool Router::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return flush_locked();
}

bool Router::tick(double t, std::uint64_t tick) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool flushed = flush_locked();
  // Every shard gets its kTick before any ack is read, so the shards run
  // their barriers concurrently and the wait is the slowest one's.
  const std::size_t failures = fan_out_locked(
      [&](ShardClient& client) { return client.send_tick(t, tick); },
      [&](ShardClient& client) { return client.await_tick_ack(t); });
  const bool ok = flushed && failures == 0;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) tick_failures_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

std::optional<wire::LookupReplyMsg> Router::lookup(std::uint32_t mn,
                                                   double t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shards_.empty()) return std::nullopt;
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard* shard = by_ring_index_[owner_index_locked(mn)];
  // A lookup must see every LU forwarded before it, so the owner's pending
  // batch goes first.
  if (!shard->batch.empty() && !send_batch_locked(*shard)) {
    return std::nullopt;
  }
  if (!shard->client.connected() && !shard->client.connect()) {
    return std::nullopt;
  }
  return shard->client.lookup(mn, t);
}

std::vector<wire::NeighborMsg> Router::query_region(double x, double y,
                                                    double radius,
                                                    std::uint32_t max_results) {
  const std::lock_guard<std::mutex> lock(mutex_);
  region_queries_.fetch_add(1, std::memory_order_relaxed);
  // Every shard may return up to max_results of its own; the merged
  // truncation cuts across shards.
  return merged_query_locked(wire::RegionQueryMsg{x, y, radius, max_results},
                             max_results > 0 ? max_results : SIZE_MAX);
}

std::vector<wire::NeighborMsg> Router::k_nearest(double x, double y,
                                                 std::uint32_t k) {
  const std::lock_guard<std::mutex> lock(mutex_);
  nearest_queries_.fetch_add(1, std::memory_order_relaxed);
  return merged_query_locked(wire::NearestQueryMsg{x, y, k}, k);
}

bool Router::add_shard(const RouterShardConfig& config, std::string* error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.add_node(config.name)) {
    if (error != nullptr) *error = "duplicate shard " + config.name;
    return false;
  }
  auto shard = std::make_unique<Shard>(config, options_);
  std::string connect_error;
  if (!shard->client.connect(&connect_error)) {
    ring_.remove_node(config.name);
    if (error != nullptr) *error = config.name + ": " + connect_error;
    return false;
  }
  shards_.push_back(std::move(shard));
  reindex_locked();
  ring_version_gauge_.set(static_cast<double>(ring_.version()));
  const std::lock_guard<std::mutex> health_lock(health_mutex_);
  health_[config.name].name = config.name;
  return true;
}

bool Router::remove_shard(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.remove_node(name)) return false;
  ring_version_gauge_.set(static_cast<double>(ring_.version()));
  for (auto it = shards_.begin(); it != shards_.end(); ++it) {
    if ((*it)->config.name == name) {
      (*it)->client.close();
      shards_.erase(it);
      break;
    }
  }
  reindex_locked();
  const std::lock_guard<std::mutex> health_lock(health_mutex_);
  health_.erase(name);
  return true;
}

bool Router::all_ready() const {
  std::vector<RouterShardConfig> configs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shards_.empty()) return false;
    for (const auto& shard : shards_) {
      configs.push_back(shard->config);
      if (options_.health_period_seconds <= 0.0 &&
          !shard->client.connected()) {
        return false;
      }
    }
  }
  if (options_.health_period_seconds <= 0.0) return true;
  const std::lock_guard<std::mutex> lock(health_mutex_);
  for (const RouterShardConfig& config : configs) {
    if (config.admin_port == 0) continue;  // no probe surface; trust the fd
    const auto it = health_.find(config.name);
    if (it == health_.end() || !it->second.up) return false;
  }
  return true;
}

std::vector<ShardHealth> Router::health() const {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<ShardHealth> out;
  out.reserve(health_.size());
  for (const auto& [name, state] : health_) out.push_back(state);
  std::sort(out.begin(), out.end(),
            [](const ShardHealth& a, const ShardHealth& b) {
              return a.name < b.name;
            });
  return out;
}

RouterStats Router::stats() const {
  RouterStats s;
  s.lus_forwarded = lus_forwarded_.load(std::memory_order_relaxed);
  s.lus_dropped = lus_dropped_.load(std::memory_order_relaxed);
  s.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  s.ticks = ticks_.load(std::memory_order_relaxed);
  s.tick_failures = tick_failures_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.region_queries = region_queries_.load(std::memory_order_relaxed);
  s.nearest_queries = nearest_queries_.load(std::memory_order_relaxed);
  s.neighbors_merged = neighbors_merged_.load(std::memory_order_relaxed);
  s.query_failures = query_failures_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.ring_version = ring_.version();
  }
  return s;
}

std::string Router::owner(std::uint32_t mn) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.nodes()[owner_index_locked(mn)];
}

std::vector<std::string> Router::shard_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.nodes();
}

void Router::write_cluster_status(util::JsonWriter& json) const {
  const RouterStats s = stats();
  json.field("ring_version", s.ring_version);
  json.key("shards").begin_array();
  for (const ShardHealth& shard : health()) {
    json.begin_object();
    json.field("name", shard.name);
    json.field("up", shard.up);
    json.field("epoch", shard.epoch);
    json.field("probes", shard.probes);
    json.field("probe_failures", shard.probe_failures);
    json.end_object();
  }
  json.end_array();
  json.key("forward").begin_object();
  json.field("lus", s.lus_forwarded);
  json.field("lus_dropped", s.lus_dropped);
  json.field("batches", s.batches_sent);
  json.field("ticks", s.ticks);
  json.field("tick_failures", s.tick_failures);
  json.field("reconnects", s.reconnects);
  json.end_object();
  json.key("merge").begin_object();
  json.field("lookups", s.lookups);
  json.field("region_queries", s.region_queries);
  json.field("nearest_queries", s.nearest_queries);
  json.field("neighbors_merged", s.neighbors_merged);
  json.field("query_failures", s.query_failures);
  json.end_object();
}

void Router::reindex_locked() {
  const std::vector<std::string>& names = ring_.nodes();
  by_ring_index_.assign(names.size(), nullptr);
  for (auto& shard : shards_) {
    const auto it =
        std::lower_bound(names.begin(), names.end(), shard->config.name);
    by_ring_index_[static_cast<std::size_t>(it - names.begin())] = shard.get();
  }
  owner_table_.clear();
}

std::size_t Router::owner_index_locked(std::uint32_t mn) const {
  if (mn >= kOwnerTableLimit || ring_.node_count() > kUnknownOwner) {
    return ring_.owner_index(mn);
  }
  if (mn >= owner_table_.size()) {
    owner_table_.resize(std::size_t{mn} + 1, kUnknownOwner);
  }
  std::uint8_t& owner = owner_table_[mn];
  if (owner == kUnknownOwner) {
    owner = static_cast<std::uint8_t>(ring_.owner_index(mn));
  }
  return owner;
}

bool Router::send_batch_locked(Shard& shard) {
  const std::size_t count = shard.batch.size();
  if (count == 0) return true;
  if (!shard.client.connected()) {
    // Reconnect eagerly only when the shard looks alive (health view, or
    // no probing configured) — a dead shard must not stall the data path
    // for a connect timeout on every batch.
    bool try_connect = options_.health_period_seconds <= 0.0 ||
                       shard.config.admin_port == 0;
    if (!try_connect) {
      const std::lock_guard<std::mutex> lock(health_mutex_);
      const auto it = health_.find(shard.config.name);
      try_connect = it != health_.end() && it->second.up;
    }
    if (!try_connect || !shard.client.connect()) {
      shard.batch.clear();
      lus_dropped_.fetch_add(count, std::memory_order_relaxed);
      return false;
    }
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  const bool ok = shard.client.send_lus(shard.batch);
  shard.batch.clear();
  if (ok) {
    lus_forwarded_.fetch_add(count, std::memory_order_relaxed);
    batches_sent_.fetch_add(1, std::memory_order_relaxed);
    shard.forwarded.inc(count);
  } else {
    lus_dropped_.fetch_add(count, std::memory_order_relaxed);
  }
  return ok;
}

void Router::health_main() {
  for (;;) {
    std::vector<RouterShardConfig> configs;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& shard : shards_) configs.push_back(shard->config);
    }
    for (const RouterShardConfig& config : configs) {
      if (config.admin_port == 0) continue;
      const obs::http::ClientResponse response =
          obs::http::http_get(config.host, config.admin_port, "/readyz",
                              options_.health_timeout_seconds);
      const bool up = response.ok && response.status == 200;
      const std::lock_guard<std::mutex> lock(health_mutex_);
      ShardHealth& state = health_[config.name];
      state.name = config.name;
      ++state.probes;
      if (!up) ++state.probe_failures;
      if (up && !state.up) ++state.epoch;
      state.up = up;
    }
    std::unique_lock<std::mutex> lock(health_mutex_);
    if (health_cv_.wait_for(
            lock,
            std::chrono::duration<double>(options_.health_period_seconds),
            [this] { return health_stop_; })) {
      return;
    }
  }
}

}  // namespace mgrid::cluster
