// HLA-lite federation: topic-based publish/subscribe with conservative,
// deterministic time management.
//
// Replaces the DMSO RTI 1.3 the paper used. The execution is time-stepped:
// the federation grants every federate the same sequence of times
// t0 + k*step; before each grant it delivers all interactions with
// timestamp <= grant to every subscriber, in (timestamp, sender, sequence)
// order. Interactions sent during a cycle are staged and only become
// deliverable at the next cycle — combined with the per-federate lookahead
// check this implements a conservative LBTS: no federate ever observes a
// message "from the past".
//
// Transport: topic names are interned to dense TopicIds once, so routing is
// a vector index. Each federate stages its sends in its own outbox; after a
// cycle the outboxes are concatenated in federate order — already
// (sender, sequence) order — stable-sorted by timestamp only when that batch
// is out of order, and merged into the pending queue. Inboxes hold pointers
// into the queue's due prefix, which is dropped once the cycle is over.
//
// Two executors produce bit-identical results:
//   kSequential — single thread, federates ticked in join order.
//   kThreaded   — one worker per federate, barrier-synchronised per cycle;
//                 a worker writes only its own federate's outbox, so
//                 staging needs no lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/federate.h"
#include "sim/interaction.h"
#include "util/types.h"

namespace mgrid::sim {

enum class ExecutionMode { kSequential, kThreaded };

/// Aggregate statistics for a completed run.
struct FederationStats {
  std::uint64_t interactions_sent = 0;
  std::uint64_t interactions_delivered = 0;
  std::uint64_t cycles = 0;
  std::size_t max_pending = 0;
};

class Federation {
 public:
  Federation() = default;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Joins a federate; calls its on_join(). The federation keeps the
  /// federate alive for its own lifetime.
  FederateId join(std::shared_ptr<Federate> federate);

  [[nodiscard]] std::size_t federate_count() const noexcept {
    return federates_.size();
  }
  [[nodiscard]] const Federate& federate(FederateId id) const;

  /// Interns a topic name: the same name always gives the same id. Safe to
  /// call from federate callbacks under either executor.
  [[nodiscard]] TopicId topic(std::string_view name);

  /// Lower Bound Time Stamp: smallest timestamp any federate could still
  /// send, i.e. current grant + min lookahead. Before the run starts this is
  /// t0 + min lookahead.
  [[nodiscard]] SimTime lbts() const noexcept;

  /// Runs the federation from t0 to end with fixed time step `step` (> 0).
  /// Grant times are t0 + k*step for k = 1..N where N = round((end-t0)/step);
  /// end must be (approximately) t0 + N*step.
  void run(SimTime t0, SimTime end, Duration step,
           ExecutionMode mode = ExecutionMode::kSequential);

  [[nodiscard]] const FederationStats& stats() const noexcept {
    return stats_;
  }

 private:
  friend class Federate;

  struct FederateSlot {
    std::shared_ptr<Federate> federate;
    /// Interactions this federate sent since the last merge, in sequence
    /// order.
    std::vector<Interaction> outbox;
    std::uint64_t send_sequence = 0;
    /// Due interactions for this cycle: pointers into pending_'s due prefix.
    std::vector<const Interaction*> inbox;
    /// Wall-clock seconds per cycle (deliver + tick), labelled by federate.
    obs::HistogramMetric step_seconds;
  };

  /// Called by Federate::send(); a federate only ever writes its own
  /// outbox, so concurrent senders under kThreaded do not contend.
  void submit(Federate& sender, TopicId topic, SimTime timestamp,
              std::shared_ptr<const InteractionPayload> payload);
  /// Called by Federate::subscribe().
  TopicId subscribe(Federate& subscriber, std::string_view topic);

  /// Drops the prefix delivered by the last prepare_inboxes() and moves
  /// every outbox into the pending queue (keeps total order).
  void merge_staged();
  /// Fills every subscriber's inbox with interactions due at `grant`.
  void prepare_inboxes(SimTime grant);
  /// Delivers one federate's inbox and ticks it, accumulating the delivered
  /// count into *delivered_out (callers own their counter so the threaded
  /// executor's workers never contend on stats_).
  void run_cycle_for(FederateSlot& slot, SimTime grant,
                     std::uint64_t* delivered_out);

  void run_sequential(SimTime t0, std::uint64_t cycles, Duration step);
  void run_threaded(SimTime t0, std::uint64_t cycles, Duration step);

  std::vector<FederateSlot> federates_;

  // Interned topic names (guarded by topics_mutex_: a federate may intern
  // from a worker thread) and, by TopicId, each topic's subscribers. Topics
  // interned after the last subscribe() have no entry in subscribers_.
  std::mutex topics_mutex_;
  std::map<std::string, TopicId, std::less<>> topic_ids_;
  std::vector<std::vector<FederateId>> subscribers_;

  // Interactions ordered for delivery (sorted by InteractionOrder); the
  // first due_ of them are being delivered this cycle.
  std::vector<Interaction> pending_;
  std::size_t due_ = 0;

  SimTime current_grant_ = 0.0;
  bool running_ = false;
  FederationStats stats_;
};

}  // namespace mgrid::sim
