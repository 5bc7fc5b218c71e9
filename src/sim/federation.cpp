#include "sim/federation.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/eventlog.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace mgrid::sim {

namespace {

struct FederationMetrics {
  obs::Counter sent;
  obs::Counter delivered;
  obs::Counter cycles;

  explicit FederationMetrics(obs::MetricsRegistry& registry) {
    sent = registry.counter("mgrid_federation_interactions_sent_total", {},
                            "Interactions submitted by federates");
    delivered =
        registry.counter("mgrid_federation_interactions_delivered_total", {},
                         "Interactions delivered to subscriber inboxes");
    cycles = registry.counter("mgrid_federation_cycles_total", {},
                              "Completed federation time-grant cycles");
  }
};

FederationMetrics& federation_metrics() {
  return obs::instruments<FederationMetrics>();
}

/// Installs the federation grant time as the sim clock for the logger and
/// this thread's trace recorder for the duration of a run (restored on
/// scope exit, exception-safe). The clock is cleared on the same recorder
/// it was installed on even if the thread's override changes underneath.
class ScopedSimClock {
 public:
  explicit ScopedSimClock(const SimTime* grant)
      : tracer_(&obs::current_trace_recorder()) {
    util::Logger::instance().set_clock([grant] { return *grant; });
    tracer_->set_clock([grant] { return *grant; });
  }
  ~ScopedSimClock() {
    util::Logger::instance().set_clock(nullptr);
    tracer_->set_clock(nullptr);
  }
  ScopedSimClock(const ScopedSimClock&) = delete;
  ScopedSimClock& operator=(const ScopedSimClock&) = delete;

 private:
  obs::TraceRecorder* tracer_;
};

}  // namespace

FederateId Federation::join(std::shared_ptr<Federate> federate) {
  if (!federate) throw std::invalid_argument("Federation::join: null");
  if (federate->joined()) {
    throw std::logic_error("Federation::join: federate '" + federate->name() +
                           "' already joined a federation");
  }
  if (running_) {
    throw std::logic_error("Federation::join: federation is running");
  }
  const FederateId id{static_cast<FederateId::value_type>(federates_.size())};
  federate->id_ = id;
  federate->federation_ = this;
  FederateSlot slot;
  slot.federate = federate;
  slot.step_seconds = obs::current_registry().histogram(
      "mgrid_federation_step_seconds", 0.0, 0.1, 50,
      {{"federate", federate->name()}},
      "Wall-clock seconds per federate cycle (deliver + tick)");
  federates_.push_back(std::move(slot));
  federate->on_join();
  return id;
}

const Federate& Federation::federate(FederateId id) const {
  if (!id.valid() || id.value() >= federates_.size()) {
    throw std::out_of_range("Federation::federate: bad id");
  }
  return *federates_[id.value()].federate;
}

SimTime Federation::lbts() const noexcept {
  Duration min_lookahead = 0.0;
  bool first = true;
  for (const FederateSlot& slot : federates_) {
    const Duration la = slot.federate->lookahead();
    if (first || la < min_lookahead) {
      min_lookahead = la;
      first = false;
    }
  }
  return current_grant_ + min_lookahead;
}

TopicId Federation::topic(std::string_view name) {
  std::lock_guard lock(topics_mutex_);
  const auto it = topic_ids_.find(name);
  if (it != topic_ids_.end()) return it->second;
  const TopicId id{static_cast<TopicId::value_type>(topic_ids_.size())};
  topic_ids_.emplace(std::string(name), id);
  return id;
}

void Federation::submit(Federate& sender, TopicId topic, SimTime timestamp,
                        std::shared_ptr<const InteractionPayload> payload) {
  if (!topic.valid()) {
    throw std::invalid_argument("Federate '" + sender.name() +
                                "' sent on an invalid topic");
  }
  // Time regulation: a federate at grant t may not send below t + lookahead.
  const SimTime floor = current_grant_ + sender.lookahead();
  if (timestamp < floor) {
    throw std::logic_error(
        "Federate '" + sender.name() + "' violated lookahead: timestamp " +
        std::to_string(timestamp) + " < " + std::to_string(floor));
  }
  FederateSlot& slot = federates_[sender.id().value()];
  slot.outbox.push_back(Interaction{topic, sender.id(), timestamp,
                                    slot.send_sequence++, std::move(payload)});
}

TopicId Federation::subscribe(Federate& subscriber, std::string_view name) {
  if (running_) {
    throw std::logic_error("Federation::subscribe: federation is running");
  }
  const TopicId id = topic(name);
  if (subscribers_.size() <= id.value()) subscribers_.resize(id.value() + 1);
  std::vector<FederateId>& subs = subscribers_[id.value()];
  if (std::find(subs.begin(), subs.end(), subscriber.id()) == subs.end()) {
    subs.push_back(subscriber.id());
  }
  return id;
}

void Federation::merge_staged() {
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(due_));
  due_ = 0;
  // Outboxes in federate order are the batch in (sender, sequence) order.
  const std::size_t kept = pending_.size();
  for (FederateSlot& slot : federates_) {
    pending_.insert(pending_.end(),
                    std::make_move_iterator(slot.outbox.begin()),
                    std::make_move_iterator(slot.outbox.end()));
    slot.outbox.clear();
  }
  const std::size_t sent = pending_.size() - kept;
  if (sent == 0) return;
  stats_.interactions_sent += sent;
  if (obs::enabled()) federation_metrics().sent.inc(sent);

  // A stable sort by timestamp alone completes InteractionOrder within the
  // batch; most cycles send at one timestamp and skip it.
  const auto batch = pending_.begin() + static_cast<std::ptrdiff_t>(kept);
  const auto by_timestamp = [](const Interaction& a, const Interaction& b) {
    return a.timestamp < b.timestamp;
  };
  if (!std::is_sorted(batch, pending_.end(), by_timestamp)) {
    std::stable_sort(batch, pending_.end(), by_timestamp);
  }
  if (kept > 0 && InteractionOrder{}(*batch, *(batch - 1))) {
    std::inplace_merge(pending_.begin(), batch, pending_.end(),
                       InteractionOrder{});
  }
  stats_.max_pending = std::max(stats_.max_pending, pending_.size());
}

void Federation::prepare_inboxes(SimTime grant) {
  // pending_ is sorted; its prefix due at this grant is delivered in place
  // and dropped by the next merge_staged().
  for (FederateSlot& slot : federates_) slot.inbox.clear();
  const auto due_end = std::find_if(
      pending_.begin(), pending_.end(),
      [grant](const Interaction& i) { return i.timestamp > grant; });
  due_ = static_cast<std::size_t>(due_end - pending_.begin());
  for (std::size_t k = 0; k < due_; ++k) {
    const Interaction& interaction = pending_[k];
    const TopicId::value_type topic = interaction.topic.value();
    if (topic >= subscribers_.size()) continue;
    for (FederateId id : subscribers_[topic]) {
      federates_[id.value()].inbox.push_back(&interaction);
    }
  }
}

void Federation::run_cycle_for(FederateSlot& slot, SimTime grant,
                               std::uint64_t* delivered_out) {
  // Thread-safe: called concurrently by the threaded executor's workers
  // (histogram shards + tracer handle their own synchronisation).
  const bool instrumented = obs::enabled();
  obs::TraceRecorder& tracer = obs::current_trace_recorder();
  const bool tracing = tracer.enabled();
  const std::uint64_t trace_start = tracing ? tracer.now_us() : 0;
  const auto start = instrumented ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  for (const Interaction* interaction : slot.inbox) {
    slot.federate->receive(*interaction);
  }
  *delivered_out += slot.inbox.size();
  if (instrumented) {
    federation_metrics().delivered.inc(slot.inbox.size());
  }
  slot.inbox.clear();
  slot.federate->on_time_grant(grant);
  if (instrumented) {
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    slot.step_seconds.observe(seconds);
  }
  if (tracing) {
    tracer.complete(slot.federate->name(), "federation", trace_start,
                    tracer.now_us() - trace_start);
  }
}

void Federation::run(SimTime t0, SimTime end, Duration step,
                     ExecutionMode mode) {
  if (!(step > 0.0)) {
    throw std::invalid_argument("Federation::run: step must be > 0");
  }
  if (end < t0) throw std::invalid_argument("Federation::run: end < t0");
  const double cycles_exact = (end - t0) / step;
  const auto cycles = static_cast<std::uint64_t>(std::llround(cycles_exact));
  if (std::abs(cycles_exact - static_cast<double>(cycles)) > 1e-6) {
    throw std::invalid_argument(
        "Federation::run: (end - t0) must be an integer multiple of step");
  }
  running_ = true;
  current_grant_ = t0;
  // While the run is in flight, log lines and trace events carry the
  // federation grant time as their sim timestamp.
  ScopedSimClock sim_clock(&current_grant_);
  util::log_debug("federation: run start, ", federates_.size(),
                  " federates, ", cycles, " cycles of ", step, " s");
  for (FederateSlot& slot : federates_) slot.federate->on_start(t0);
  merge_staged();

  if (mode == ExecutionMode::kSequential) {
    run_sequential(t0, cycles, step);
  } else {
    run_threaded(t0, cycles, step);
  }

  for (FederateSlot& slot : federates_) slot.federate->on_stop(current_grant_);
  merge_staged();  // counts (and queues) what on_stop() sent
  util::log_debug("federation: run complete, ",
                  stats_.interactions_delivered, " interactions delivered");
  running_ = false;
  stats_.cycles += cycles;
  if (obs::enabled()) federation_metrics().cycles.inc(cycles);
}

void Federation::run_sequential(SimTime t0, std::uint64_t cycles,
                                Duration step) {
  for (std::uint64_t k = 1; k <= cycles; ++k) {
    const SimTime grant = t0 + static_cast<double>(k) * step;
    prepare_inboxes(grant);
    current_grant_ = grant;
    for (FederateSlot& slot : federates_) {
      run_cycle_for(slot, grant, &stats_.interactions_delivered);
    }
    merge_staged();
  }
}

void Federation::run_threaded(SimTime t0, std::uint64_t cycles,
                              Duration step) {
  if (federates_.empty()) return;
  const std::size_t n = federates_.size();
  // Two barrier phases per cycle: (a) after the coordinator prepared
  // inboxes, workers deliver+tick; (b) after all workers finished, the
  // coordinator merges staged sends and advances the clock.
  std::barrier sync(static_cast<std::ptrdiff_t>(n) + 1);
  std::atomic<SimTime> grant_time{t0};
  std::atomic<bool> done{false};
  // A federate callback throwing in a worker thread must reach the caller,
  // not std::terminate: the first exception is captured, the run winds
  // down cooperatively, and the coordinator rethrows after joining.
  std::atomic<bool> failed{false};
  std::exception_ptr first_exception;
  std::mutex exception_mutex;
  // stats_.interactions_delivered is coordinator-only in this mode; workers
  // accumulate their own counts and the coordinator folds them in at the end.
  std::vector<std::uint64_t> delivered(n, 0);

  // Telemetry destinations and log sim-clock are thread-scoped; workers
  // inherit the coordinator's registry, trace recorder and event log (all
  // per-experiment when the sweep engine injected them) and stamp their log
  // lines with this federation's grant.
  obs::MetricsRegistry& parent_registry = obs::current_registry();
  obs::TraceRecorder& parent_tracer = obs::current_trace_recorder();
  obs::EventLog* parent_event_log = obs::current_event_log();
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers.emplace_back([this, i, &sync, &grant_time, &done, &delivered,
                          &failed, &first_exception, &exception_mutex,
                          &parent_registry, &parent_tracer, parent_event_log] {
      obs::ScopedRegistry scoped_registry(parent_registry);
      obs::ScopedTraceRecorder scoped_tracer(parent_tracer);
      std::optional<obs::ScopedEventLog> scoped_event_log;
      if (parent_event_log != nullptr) {
        scoped_event_log.emplace(*parent_event_log);
      }
      util::Logger::instance().set_clock(
          [&grant_time] { return grant_time.load(std::memory_order_acquire); });
      while (true) {
        sync.arrive_and_wait();  // wait for inboxes
        if (done.load(std::memory_order_acquire)) return;
        if (!failed.load(std::memory_order_acquire)) {
          try {
            run_cycle_for(federates_[i],
                          grant_time.load(std::memory_order_acquire),
                          &delivered[i]);
          } catch (...) {
            std::lock_guard lock(exception_mutex);
            if (!first_exception) first_exception = std::current_exception();
            failed.store(true, std::memory_order_release);
          }
        }
        sync.arrive_and_wait();  // cycle complete
      }
    });
  }

  for (std::uint64_t k = 1; k <= cycles; ++k) {
    const SimTime grant = t0 + static_cast<double>(k) * step;
    prepare_inboxes(grant);
    current_grant_ = grant;
    grant_time.store(grant, std::memory_order_release);
    sync.arrive_and_wait();  // release workers
    sync.arrive_and_wait();  // wait for workers
    merge_staged();
    if (failed.load(std::memory_order_acquire)) break;
  }
  done.store(true, std::memory_order_release);
  sync.arrive_and_wait();  // let workers observe `done` and exit
  for (std::thread& t : workers) t.join();
  for (std::uint64_t d : delivered) stats_.interactions_delivered += d;
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace mgrid::sim
