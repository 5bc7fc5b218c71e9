// Federate: a time-regulating, time-constrained participant in the
// federation (HLA-lite).
//
// Lifecycle per run:
//   on_join      — subscribe to interaction topics and resolve the ids of
//                  the topics it sends on
//   on_start(t0) — initialise state at simulation start
//   [per grant cycle]
//     receive(i)        — all due interactions, in total delivery order
//     on_time_grant(t)  — local work; may send() future interactions
//   on_stop(t_end)
//
// Time regulation: an interaction sent while the federate is at grant time t
// must carry a timestamp >= t + lookahead(). The federation enforces this —
// it is what makes conservative synchronisation sound (no federate can
// retroactively inject a message below the LBTS).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "sim/interaction.h"
#include "util/types.h"

namespace mgrid::sim {

class Federation;

class Federate {
 public:
  /// `lookahead` must be >= 0.
  explicit Federate(std::string name, Duration lookahead = 0.0);
  virtual ~Federate() = default;

  Federate(const Federate&) = delete;
  Federate& operator=(const Federate&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  /// Valid after the federate joined a federation.
  [[nodiscard]] FederateId id() const noexcept { return id_; }
  [[nodiscard]] bool joined() const noexcept { return federation_ != nullptr; }

  // --- callbacks (override in concrete federates) -------------------------
  virtual void on_join() {}
  virtual void on_start(SimTime /*t0*/) {}
  virtual void receive(const Interaction& /*interaction*/) {}
  virtual void on_time_grant(SimTime /*t*/) {}
  virtual void on_stop(SimTime /*t_end*/) {}

 protected:
  /// Publishes an interaction. Only valid inside federation callbacks.
  /// Throws std::logic_error when not joined or when `timestamp` violates
  /// the lookahead constraint, std::invalid_argument for an invalid topic.
  void send(TopicId topic, SimTime timestamp,
            std::shared_ptr<const InteractionPayload> payload);

  /// Subscribes this federate to a topic (call from on_join()) and returns
  /// the topic's id.
  TopicId subscribe(std::string_view topic);

  /// Id of a topic this federate sends on (Federation::topic); resolve it
  /// in on_join() and keep it.
  [[nodiscard]] TopicId topic(std::string_view name) const;

  /// The federation's current grant time (t0 before the first grant).
  /// Valid inside receive()/on_time_grant() callbacks.
  [[nodiscard]] SimTime granted_time() const;

  /// The federation this federate joined; throws std::logic_error if none.
  [[nodiscard]] Federation& federation() const;

 private:
  friend class Federation;

  std::string name_;
  Duration lookahead_;
  FederateId id_;
  Federation* federation_ = nullptr;
};

}  // namespace mgrid::sim
