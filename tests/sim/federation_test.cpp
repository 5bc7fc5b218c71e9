#include "sim/federation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace mgrid::sim {
namespace {

struct IntPayload final : InteractionPayload {
  explicit IntPayload(int v) : value(v) {}
  int value;
};

/// Sends `value + k` on topic "numbers" at every grant k.
class Producer final : public Federate {
 public:
  Producer(std::string name, int base, Duration lookahead = 0.0)
      : Federate(std::move(name), lookahead), base_(base) {}

  void on_join() override { numbers_ = topic("numbers"); }
  void on_time_grant(SimTime t) override {
    send(numbers_, t + lookahead(), make_payload<IntPayload>(base_++));
  }

 private:
  int base_;
  TopicId numbers_;
};

/// Records everything it receives.
class Recorder final : public Federate {
 public:
  explicit Recorder(std::string topic = "numbers")
      : Federate("recorder"), topic_(std::move(topic)) {}

  void on_join() override { subscribe(topic_); }
  void on_start(SimTime t0) override { start_time_ = t0; }
  void receive(const Interaction& interaction) override {
    received_.push_back(interaction);
  }
  void on_time_grant(SimTime t) override { grants_.push_back(t); }
  void on_stop(SimTime t) override { stop_time_ = t; }

  std::string topic_;
  std::vector<Interaction> received_;
  std::vector<SimTime> grants_;
  SimTime start_time_ = -1.0;
  SimTime stop_time_ = -1.0;
};

TEST(Federation, JoinAssignsIdsAndCallsOnJoin) {
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  const FederateId id = federation.join(recorder);
  EXPECT_TRUE(id.valid());
  EXPECT_TRUE(recorder->joined());
  EXPECT_EQ(&federation.federate(id), recorder.get());
  EXPECT_EQ(federation.federate_count(), 1u);
}

TEST(Federation, RejectsNullAndDoubleJoin) {
  Federation federation;
  EXPECT_THROW((void)federation.join(nullptr), std::invalid_argument);
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  Federation other;
  EXPECT_THROW((void)other.join(recorder), std::logic_error);
}

TEST(Federation, RunValidation) {
  Federation federation;
  federation.join(std::make_shared<Recorder>());
  EXPECT_THROW(federation.run(0.0, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(federation.run(10.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(federation.run(0.0, 10.5, 1.0), std::invalid_argument);
}

TEST(Federation, LifecycleCallbacksFire) {
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(0.0, 5.0, 1.0);
  EXPECT_EQ(recorder->start_time_, 0.0);
  EXPECT_EQ(recorder->stop_time_, 5.0);
  EXPECT_EQ(recorder->grants_,
            (std::vector<SimTime>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(Federation, DeliversPublishedInteractionsNextCycle) {
  Federation federation;
  auto producer = std::make_shared<Producer>("p", 100);
  auto recorder = std::make_shared<Recorder>();
  federation.join(producer);
  federation.join(recorder);
  federation.run(0.0, 3.0, 1.0);
  // Sent at grants 1, 2, 3 with ts == grant; the grant-3 send is still in
  // flight when the run ends.
  ASSERT_EQ(recorder->received_.size(), 2u);
  EXPECT_EQ(recorder->received_[0].payload_as<IntPayload>()->value, 100);
  EXPECT_EQ(recorder->received_[0].timestamp, 1.0);
  EXPECT_EQ(recorder->received_[1].payload_as<IntPayload>()->value, 101);
}

TEST(Federation, NonSubscribersDoNotReceive) {
  Federation federation;
  auto producer = std::make_shared<Producer>("p", 0);
  auto recorder = std::make_shared<Recorder>("other_topic");
  federation.join(producer);
  federation.join(recorder);
  federation.run(0.0, 3.0, 1.0);
  EXPECT_TRUE(recorder->received_.empty());
}

TEST(Federation, LookaheadViolationThrows) {
  // A federate with lookahead 2 must not send at its current grant.
  class Violator final : public Federate {
   public:
    Violator() : Federate("violator", /*lookahead=*/2.0) {}
    void on_time_grant(SimTime t) override {
      send(topic("x"), t + 1.0, make_payload<IntPayload>(0));  // < t + 2
    }
  };
  Federation federation;
  federation.join(std::make_shared<Violator>());
  EXPECT_THROW(federation.run(0.0, 2.0, 1.0), std::logic_error);
}

TEST(Federation, LookaheadDelaysDelivery) {
  Federation federation;
  auto producer = std::make_shared<Producer>("p", 0, /*lookahead=*/2.0);
  auto recorder = std::make_shared<Recorder>();
  federation.join(producer);
  federation.join(recorder);
  federation.run(0.0, 4.0, 1.0);
  // Sent at grant 1 with ts 3 -> delivered at grant 3; grant 2 send (ts 4)
  // delivered at grant 4.
  ASSERT_EQ(recorder->received_.size(), 2u);
  EXPECT_EQ(recorder->received_[0].timestamp, 3.0);
  EXPECT_EQ(recorder->received_[1].timestamp, 4.0);
}

TEST(Federation, DeliveryOrderIsTimestampSenderSequence) {
  // Two producers with the same topic; the recorder must see interactions
  // sorted by (timestamp, sender, sequence).
  Federation federation;
  auto p1 = std::make_shared<Producer>("p1", 0);
  auto p2 = std::make_shared<Producer>("p2", 1000);
  auto recorder = std::make_shared<Recorder>();
  federation.join(p1);  // lower FederateId
  federation.join(p2);
  federation.join(recorder);
  federation.run(0.0, 3.0, 1.0);
  ASSERT_GE(recorder->received_.size(), 4u);
  for (std::size_t i = 1; i < recorder->received_.size(); ++i) {
    const Interaction& a = recorder->received_[i - 1];
    const Interaction& b = recorder->received_[i];
    const bool ordered =
        a.timestamp < b.timestamp ||
        (a.timestamp == b.timestamp &&
         (a.sender < b.sender ||
          (a.sender == b.sender && a.sequence < b.sequence)));
    EXPECT_TRUE(ordered) << "at index " << i;
  }
}

TEST(Federation, StatsCountTraffic) {
  Federation federation;
  federation.join(std::make_shared<Producer>("p", 0));
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(0.0, 5.0, 1.0);
  EXPECT_EQ(federation.stats().cycles, 5u);
  EXPECT_EQ(federation.stats().interactions_sent, 5u);
  EXPECT_EQ(federation.stats().interactions_delivered, 4u);
}

TEST(Federation, LbtsIsGrantPlusMinLookahead) {
  Federation federation;
  federation.join(std::make_shared<Producer>("a", 0, 3.0));
  federation.join(std::make_shared<Producer>("b", 0, 1.0));
  EXPECT_EQ(federation.lbts(), 1.0);  // before run: grant 0 + min lookahead
}

// The key determinism property: the threaded executor produces exactly the
// same delivery sequence as the sequential one.
TEST(Federation, ThreadedMatchesSequential) {
  auto run_once = [](ExecutionMode mode) {
    Federation federation;
    auto p1 = std::make_shared<Producer>("p1", 0);
    auto p2 = std::make_shared<Producer>("p2", 500);
    auto recorder = std::make_shared<Recorder>();
    federation.join(p1);
    federation.join(p2);
    federation.join(recorder);
    federation.run(0.0, 20.0, 1.0, mode);
    std::vector<std::tuple<double, unsigned, int>> log;
    for (const Interaction& i : recorder->received_) {
      log.emplace_back(i.timestamp, i.sender.value(),
                       i.payload_as<IntPayload>()->value);
    }
    return log;
  };
  const auto sequential = run_once(ExecutionMode::kSequential);
  const auto threaded = run_once(ExecutionMode::kThreaded);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, threaded);
}

TEST(Federation, ThreadedExecutorPropagatesFederateExceptions) {
  // A federate that throws mid-run in a worker thread must surface the
  // exception to the run() caller, not std::terminate the process.
  class Bomb final : public Federate {
   public:
    Bomb() : Federate("bomb") {}
    void on_time_grant(SimTime t) override {
      if (t >= 3.0) throw std::runtime_error("boom");
    }
  };
  Federation federation;
  federation.join(std::make_shared<Bomb>());
  federation.join(std::make_shared<Recorder>());
  EXPECT_THROW(federation.run(0.0, 10.0, 1.0, ExecutionMode::kThreaded),
               std::runtime_error);
}

TEST(Federation, ZeroCycleRunOnlyStartsAndStops) {
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(5.0, 5.0, 1.0);
  EXPECT_EQ(recorder->start_time_, 5.0);
  EXPECT_EQ(recorder->stop_time_, 5.0);
  EXPECT_TRUE(recorder->grants_.empty());
}

TEST(Federation, TopicsInternOnce) {
  Federation federation;
  const TopicId numbers = federation.topic("numbers");
  EXPECT_TRUE(numbers.valid());
  EXPECT_EQ(federation.topic("numbers"), numbers);
  EXPECT_NE(federation.topic("other"), numbers);

  // subscribe() and topic() hand a federate the same id for one name.
  class Resolver final : public Federate {
   public:
    Resolver() : Federate("resolver") {}
    void on_join() override {
      subscribed_ = subscribe("numbers");
      resolved_ = topic("numbers");
      send_only_ = topic("alarm");
    }
    TopicId subscribed_, resolved_, send_only_;
  };
  auto resolver = std::make_shared<Resolver>();
  federation.join(resolver);
  EXPECT_EQ(resolver->subscribed_, numbers);
  EXPECT_EQ(resolver->resolved_, numbers);
  EXPECT_EQ(resolver->send_only_, federation.topic("alarm"));
}

TEST(Federation, UnsubscribedTopicIsCountedButNeverDelivered) {
  class Shouter final : public Federate {
   public:
    Shouter() : Federate("shouter") {}
    void on_join() override { void_ = topic("void"); }
    void on_time_grant(SimTime t) override {
      send(void_, t, make_payload<IntPayload>(1));
    }
    TopicId void_;
  };
  Federation federation;
  federation.join(std::make_shared<Shouter>());
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(0.0, 4.0, 1.0);
  EXPECT_EQ(federation.stats().interactions_sent, 4u);
  EXPECT_EQ(federation.stats().interactions_delivered, 0u);
  EXPECT_TRUE(recorder->received_.empty());
}

TEST(Federation, SendOnAnInvalidTopicThrows) {
  class Careless final : public Federate {
   public:
    Careless() : Federate("careless") {}
    void on_time_grant(SimTime t) override {
      send(TopicId{}, t, make_payload<IntPayload>(0));
    }
  };
  Federation federation;
  federation.join(std::make_shared<Careless>());
  EXPECT_THROW(federation.run(0.0, 1.0, 1.0), std::invalid_argument);
}

TEST(Interaction, PayloadAsMatchesTheExactTypeOnly) {
  struct OtherPayload final : InteractionPayload {};
  Interaction interaction;
  EXPECT_EQ(interaction.payload_as<IntPayload>(), nullptr);  // no payload
  interaction.payload = make_payload<IntPayload>(7);
  ASSERT_NE(interaction.payload_as<IntPayload>(), nullptr);
  EXPECT_EQ(interaction.payload_as<IntPayload>()->value, 7);
  EXPECT_EQ(interaction.payload_as<OtherPayload>(), nullptr);
}

TEST(Federation, LookaheadViolationThrowsUnderBothExecutors) {
  class Violator final : public Federate {
   public:
    Violator() : Federate("violator", /*lookahead=*/1.0) {}
    void on_time_grant(SimTime t) override {
      send(topic("x"), t + 0.5, make_payload<IntPayload>(0));  // < t + 1
    }
  };
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreaded}) {
    Federation federation;
    federation.join(std::make_shared<Violator>());
    federation.join(std::make_shared<Recorder>());
    EXPECT_THROW(federation.run(0.0, 3.0, 1.0, mode), std::logic_error);
  }
}

// Sends every grant a burst whose timestamps run backwards and interleave
// with the other scrambler's, so each merged batch is out of timestamp
// order and must be sorted and merged with leftovers from earlier cycles.
// The batch (48 interactions) is long enough that an unstable sort would
// reorder equal timestamps.
constexpr std::array<double, 6> kScrambledOffsets{3.0, 0.0, 2.5,
                                                  1.0, 0.0, 2.0};
constexpr int kScrambledRounds = 4;

class Scrambler final : public Federate {
 public:
  Scrambler(std::string name, int base)
      : Federate(std::move(name)), base_(base) {}
  void on_join() override { numbers_ = topic("numbers"); }
  void on_time_grant(SimTime t) override {
    for (int round = 0; round < kScrambledRounds; ++round) {
      for (const double offset : kScrambledOffsets) {
        send(numbers_, t + offset, make_payload<IntPayload>(base_++));
      }
    }
  }

 private:
  int base_;
  TopicId numbers_;
};

TEST(Federation, OutOfOrderSendsDeliverIdenticallyUnderBothExecutors) {
  using Log = std::vector<std::tuple<double, unsigned, std::uint64_t, int>>;
  auto run_once = [](ExecutionMode mode) {
    Federation federation;
    federation.join(std::make_shared<Scrambler>("s1", 0));
    auto first = std::make_shared<Recorder>();
    federation.join(first);
    federation.join(std::make_shared<Scrambler>("s2", 1000));
    auto second = std::make_shared<Recorder>();
    federation.join(second);
    federation.run(0.0, 12.0, 1.0, mode);
    std::vector<Log> logs;
    for (const auto& recorder : {first, second}) {
      Log log;
      for (std::size_t i = 0; i < recorder->received_.size(); ++i) {
        const Interaction& interaction = recorder->received_[i];
        // A cycle delivers in (timestamp, sender, sequence) order; across
        // cycles timestamps still never go back, and one sender's
        // interactions keep their send order.
        if (i > 0) {
          const Interaction& prev = recorder->received_[i - 1];
          EXPECT_LE(prev.timestamp, interaction.timestamp) << "at " << i;
          if (prev.sender == interaction.sender &&
              prev.timestamp == interaction.timestamp) {
            EXPECT_LT(prev.sequence, interaction.sequence) << "at " << i;
          }
        }
        log.emplace_back(interaction.timestamp, interaction.sender.value(),
                         interaction.sequence,
                         interaction.payload_as<IntPayload>()->value);
      }
      logs.push_back(std::move(log));
    }
    return logs;
  };
  const std::vector<Log> sequential = run_once(ExecutionMode::kSequential);
  const std::vector<Log> threaded = run_once(ExecutionMode::kThreaded);

  // Expected stream, from the delivery rule itself: an interaction sent at
  // grant k with timestamp ts is delivered at the first grant g > k with
  // g >= ts, and each cycle delivers in (timestamp, sender, sequence) order.
  std::vector<std::tuple<int, double, unsigned, std::uint64_t, int>> due;
  for (const auto& [sender, base] : {std::pair{0u, 0}, std::pair{2u, 1000}}) {
    std::uint64_t sequence = 0;
    for (int k = 1; k <= 12; ++k) {
      for (int round = 0; round < kScrambledRounds; ++round) {
        for (const double offset : kScrambledOffsets) {
          const int g = k + std::max(1, static_cast<int>(std::ceil(offset)));
          if (g <= 12) {
            due.emplace_back(g, k + offset, sender, sequence,
                             base + static_cast<int>(sequence));
          }
          ++sequence;
        }
      }
    }
  }
  std::sort(due.begin(), due.end());
  Log expected;
  for (const auto& [g, ts, sender, sequence, value] : due) {
    expected.emplace_back(ts, sender, sequence, value);
  }

  ASSERT_EQ(sequential.size(), 2u);
  EXPECT_EQ(sequential[0], expected);
  EXPECT_EQ(sequential[1], expected);
  EXPECT_EQ(threaded[0], expected);
  EXPECT_EQ(threaded[1], expected);
}

TEST(Federate, SendWithoutJoiningThrows) {
  class Loner final : public Federate {
   public:
    Loner() : Federate("loner") {}
    void poke() { send(TopicId{0}, 0.0, make_payload<IntPayload>(1)); }
  };
  Loner loner;
  EXPECT_THROW(loner.poke(), std::logic_error);
}

TEST(Federate, RejectsNegativeLookahead) {
  class Bad final : public Federate {
   public:
    Bad() : Federate("bad", -1.0) {}
  };
  EXPECT_THROW(Bad{}, std::invalid_argument);
}

}  // namespace
}  // namespace mgrid::sim
