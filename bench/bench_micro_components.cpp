// Micro-benchmarks (google-benchmark) of every hot component: the distance
// filter, classifier, clusterer, estimators, the serving directory's
// per-tick estimate sweep, event queue, region lookup, Dijkstra routing,
// the federation transport, the mobility federate's per-MN-tick glue and a
// full federation cycle. These quantify the ADF's
// processing cost — the overhead budget a real deployment would pay per LU.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/adf.h"
#include "core/baselines.h"
#include "core/classifier.h"
#include "core/clustering.h"
#include "core/distance_filter.h"
#include "estimation/ar_estimator.h"
#include "estimation/brown_estimator.h"
#include "estimation/estimator.h"
#include "geo/campus.h"
#include "net/gateway.h"
#include "scenario/experiment.h"
#include "scenario/federates.h"
#include "scenario/workload.h"
#include "serve/directory.h"
#include "sim/event_queue.h"
#include "sim/federation.h"
#include "util/rng.h"

using namespace mgrid;

namespace {

void BM_DistanceFilterApply(benchmark::State& state) {
  core::DistanceFilter filter;
  util::RngStream rng(1);
  geo::Vec2 p{0, 0};
  for (auto _ : state) {
    p.x += rng.uniform(0.0, 2.0);
    benchmark::DoNotOptimize(filter.apply(MnId{1}, p, 1.5));
  }
}
BENCHMARK(BM_DistanceFilterApply);

void BM_ClassifierObserveClassify(benchmark::State& state) {
  core::MobilityClassifier classifier;
  util::RngStream rng(2);
  geo::Vec2 p{0, 0};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    p += geo::from_polar(rng.uniform(-3.14, 3.14), rng.uniform(0.0, 2.0));
    classifier.observe(MnId{1}, t, p);
    benchmark::DoNotOptimize(classifier.classify(MnId{1}));
  }
}
BENCHMARK(BM_ClassifierObserveClassify);

void BM_ClassifierFeatures(benchmark::State& state) {
  // One full window of a walker that turns and pauses now and then.
  core::MobilityClassifier classifier;
  util::RngStream rng(12);
  geo::Vec2 p{0, 0};
  for (int i = 1; i <= 32; ++i) {
    const double speed = i % 5 == 0 ? 0.0 : rng.uniform(0.5, 1.8);
    p += geo::from_polar(rng.uniform(-3.14, 3.14), speed);
    classifier.observe(MnId{1}, i, p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.features(MnId{1}));
  }
}
BENCHMARK(BM_ClassifierFeatures);

void BM_ClustererAssign(benchmark::State& state) {
  const auto population = static_cast<unsigned>(state.range(0));
  core::SequentialClusterer clusterer;
  util::RngStream rng(3);
  unsigned next = 0;
  for (auto _ : state) {
    core::MotionFeatures f;
    f.mean_speed = rng.uniform(0.0, 10.0);
    f.heading = rng.uniform(-3.14, 3.14);
    f.samples = 8;
    benchmark::DoNotOptimize(
        clusterer.assign(MnId{next % population}, f));
    ++next;
  }
}
BENCHMARK(BM_ClustererAssign)->Arg(10)->Arg(140)->Arg(1000);

void BM_AdfProcess(benchmark::State& state) {
  const auto population = static_cast<unsigned>(state.range(0));
  core::AdaptiveDistanceFilter adf;
  util::RngStream rng(4);
  std::vector<geo::Vec2> positions(population);
  double t = 0.0;
  unsigned next = 0;
  for (auto _ : state) {
    const unsigned n = next % population;
    if (n == 0) t += 1.0;
    positions[n] += geo::from_polar(rng.uniform(-3.14, 3.14),
                                    rng.uniform(0.0, 2.0));
    benchmark::DoNotOptimize(adf.process(MnId{n}, t, positions[n]));
    ++next;
  }
}
BENCHMARK(BM_AdfProcess)->Arg(140)->Arg(1000);

void BM_AdfProcessCampusMix(benchmark::State& state) {
  // Per-sample ADF cost over a campus-like population, one sample per MN
  // per second: a quarter parked, most walking with turns, a few in
  // vehicles. Arg = population (140 = the paper's, 1720 = the 10x10 city).
  const auto population = static_cast<unsigned>(state.range(0));
  core::AdaptiveDistanceFilter adf;
  util::RngStream rng(13);
  std::vector<geo::Vec2> positions(population);
  std::vector<double> headings(population, 0.0);
  double t = 0.0;
  unsigned next = 0;
  for (auto _ : state) {
    const unsigned n = next % population;
    if (n == 0) t += 1.0;
    double speed = 0.0;
    if (n % 4 != 0) {
      headings[n] += rng.uniform(-0.6, 0.6);
      speed = n % 16 == 1 ? rng.uniform(5.0, 10.0) : rng.uniform(0.5, 1.8);
    }
    positions[n] += geo::from_polar(headings[n], speed);
    benchmark::DoNotOptimize(adf.process(MnId{n}, t, positions[n]));
    ++next;
  }
}
BENCHMARK(BM_AdfProcessCampusMix)->Arg(140)->Arg(1720);

void BM_BrownPolarObserveEstimate(benchmark::State& state) {
  estimation::BrownPolarEstimator estimator;
  util::RngStream rng(5);
  geo::Vec2 p{0, 0};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    p += geo::Vec2{rng.uniform(0.0, 2.0), rng.uniform(-0.2, 0.2)};
    estimator.observe(t, p);
    benchmark::DoNotOptimize(estimator.estimate(t + 3.0));
  }
}
BENCHMARK(BM_BrownPolarObserveEstimate);

void BM_ArEstimate(benchmark::State& state) {
  estimation::ArEstimator estimator;
  util::RngStream rng(6);
  geo::Vec2 p{0, 0};
  double t = 0.0;
  for (int i = 0; i < 64; ++i) {
    t += 1.0;
    p.x += rng.uniform(0.5, 1.5);
    estimator.observe(t, p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(t + 3.0));
  }
}
BENCHMARK(BM_ArEstimate);

void BM_DirectoryAdvance(benchmark::State& state) {
  // The broker's per-tick location estimation as the serving directory
  // runs it: 8000 MNs with brown_polar, about 44% of them silent each tick
  // (the share ADF 1.0 av filters on serve_standalone), so each sweep
  // forecasts ~3500 tracks and moves them in the region index. Between
  // timed sweeps an untimed pass applies the tick's LUs. The argument is
  // the shard count: 8 sweeps on parked helpers as serve_standalone does,
  // 1 sweeps on the calling thread alone (the serial cost per forecast).
  constexpr std::uint32_t kMns = 8000;
  constexpr double kStaleShare = 0.44;
  serve::DirectoryOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  serve::ShardedDirectory directory(options,
                                    estimation::make_estimator("brown_polar"));
  util::RngStream rng(8);
  std::vector<geo::Vec2> position(kMns);
  std::vector<geo::Vec2> velocity(kMns);
  for (std::uint32_t mn = 0; mn < kMns; ++mn) {
    position[mn] = {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    velocity[mn] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    directory.update(mn, 0.0, position[mn], velocity[mn]);
  }
  SimTime t = 0.0;
  std::size_t estimates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    t += 1.0;
    for (std::uint32_t mn = 0; mn < kMns; ++mn) {
      velocity[mn] += geo::Vec2{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)};
      position[mn] += velocity[mn];
      if (rng.uniform(0.0, 1.0) >= kStaleShare) {
        directory.update(mn, t, position[mn], velocity[mn]);
      }
    }
    state.ResumeTiming();
    estimates += directory.advance_estimates(t);
  }
  state.counters["estimates_per_tick"] =
      static_cast<double>(estimates) / static_cast<double>(state.iterations());
  state.counters["ns_per_estimate"] = benchmark::Counter(
      static_cast<double>(estimates),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DirectoryAdvance)
    ->Arg(8)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  util::RngStream rng(7);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(rng.uniform(0.0, 100.0), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_CampusLocate(benchmark::State& state, const geo::CampusMap& campus) {
  // Half the probes inside a region (where precedence is decided), half
  // anywhere on the map (mostly open ground).
  util::RngStream rng(9);
  const geo::Rect bounds = campus.bounds();
  std::vector<geo::Vec2> probes;
  for (int i = 0; i < 4096; ++i) {
    if (i % 2 == 0) {
      probes.push_back(campus.regions()[rng.index(campus.region_count())]
                           .sample(rng));
    } else {
      probes.push_back({rng.uniform(bounds.min().x, bounds.max().x),
                        rng.uniform(bounds.min().y, bounds.max().y)});
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(campus.locate(probes[i++ % probes.size()]));
  }
}
BENCHMARK_CAPTURE(BM_CampusLocate, paper, geo::CampusMap::default_campus());
BENCHMARK_CAPTURE(BM_CampusLocate, city_10x10,
                  geo::CampusMap::grid_campus(10, 10));

void BM_CampusDijkstra(benchmark::State& state) {
  const geo::CampusMap campus = geo::CampusMap::default_campus();
  util::RngStream rng(8);
  const auto n = static_cast<geo::NodeIndex>(campus.graph().node_count());
  for (auto _ : state) {
    const auto from = static_cast<geo::NodeIndex>(rng.index(n));
    const auto to = static_cast<geo::NodeIndex>(rng.index(n));
    benchmark::DoNotOptimize(campus.graph().shortest_path(from, to));
  }
}
BENCHMARK(BM_CampusDijkstra);

struct DispatchPayload final : sim::InteractionPayload {
  std::uint32_t sender = 0;
};

/// Sends one interaction per simulated sender every grant, like the
/// mobility federate's LU stream.
class DispatchSource final : public sim::Federate {
 public:
  explicit DispatchSource(std::uint32_t senders) : Federate("source") {
    for (std::uint32_t i = 0; i < senders; ++i) {
      auto payload = std::make_shared<DispatchPayload>();
      payload->sender = i;
      payloads_.push_back(std::move(payload));
    }
  }
  void on_join() override { out_ = topic("dispatch.in"); }
  void on_time_grant(SimTime t) override {
    for (const auto& payload : payloads_) send(out_, t, payload);
  }

 private:
  std::vector<std::shared_ptr<const sim::InteractionPayload>> payloads_;
  sim::TopicId out_;
};

/// Forwards every interaction it receives, like the ADF relaying an LU.
class DispatchRelay final : public sim::Federate {
 public:
  DispatchRelay() : Federate("relay") {}
  void on_join() override {
    subscribe("dispatch.in");
    out_ = topic("dispatch.out");
  }
  void receive(const sim::Interaction& interaction) override {
    if (interaction.payload_as<DispatchPayload>() != nullptr) {
      send(out_, granted_time(), interaction.payload);
    }
  }

 private:
  sim::TopicId out_;
};

/// Receives every forwarded interaction, like the broker.
class DispatchSink final : public sim::Federate {
 public:
  explicit DispatchSink(std::vector<std::string> topics)
      : Federate("sink"), topics_(std::move(topics)) {}
  void on_join() override {
    for (const std::string& name : topics_) subscribe(name);
  }
  void receive(const sim::Interaction& interaction) override {
    received_ += interaction.payload != nullptr ? 1 : 0;
  }
  std::uint64_t received_ = 0;

 private:
  std::vector<std::string> topics_;
};

void BM_FederationDispatch(benchmark::State& state) {
  // The transport alone: per interaction, send -> merge into the pending
  // queue -> route to subscribers -> receive, on 3 federates with 1720
  // simulated senders (the 10x10 campus population). One iteration is 10
  // grants of a long run.
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  sim::Federation federation;
  federation.join(std::make_shared<DispatchSource>(senders));
  federation.join(std::make_shared<DispatchRelay>());
  auto sink = std::make_shared<DispatchSink>(
      std::vector<std::string>{"dispatch.out"});
  federation.join(sink);
  SimTime t = 0.0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const std::uint64_t before = federation.stats().interactions_delivered;
    federation.run(t, t + 10.0, 1.0);
    t += 10.0;
    delivered += federation.stats().interactions_delivered - before;
  }
  benchmark::DoNotOptimize(sink->received_);
  state.counters["ns_per_interaction"] = benchmark::Counter(
      static_cast<double>(delivered),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FederationDispatch)->Arg(1720)->Unit(benchmark::kMicrosecond);

void BM_PublishSamples(benchmark::State& state) {
  // The mobility federate's per-MN-tick glue on the 10x10 campus (1720
  // MNs): region lookup, gateway association, truth and LU payloads,
  // battery, channel draw and send. Between timed calls an untimed
  // federation cycle delivers what was sent and moves the nodes.
  const geo::CampusMap campus = geo::CampusMap::grid_campus(10, 10);
  const util::RngRegistry rng(1);
  scenario::Workload workload(campus, scenario::WorkloadParams{}, rng);
  net::GatewayNetwork gateways(campus);
  auto mobility = std::make_shared<scenario::MobilityFederate>(
      workload, gateways, scenario::MobilityConfig{}, rng.stream("channel"));
  sim::Federation federation;
  federation.join(mobility);
  federation.join(std::make_shared<DispatchSink>(std::vector<std::string>{
      std::string(net::kTopicLocationUpdate),
      std::string(scenario::kTopicTruth)}));
  SimTime t = 0.0;
  for (auto _ : state) {
    mobility->publish_samples(t);
    state.PauseTiming();
    federation.run(t, t + 1.0, 1.0);
    t += 1.0;
    state.ResumeTiming();
  }
  state.counters["ns_per_mn_tick"] = benchmark::Counter(
      static_cast<double>(state.iterations() * workload.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PublishSamples)->Unit(benchmark::kMicrosecond);

void BM_FullExperimentSecond(benchmark::State& state) {
  // Cost of one simulated second of the full 140-node federation pipeline
  // (amortised over a 60 s run).
  for (auto _ : state) {
    scenario::ExperimentOptions options;
    options.duration = 60.0;
    options.filter = scenario::FilterKind::kAdf;
    benchmark::DoNotOptimize(scenario::run_experiment(options));
  }
  state.SetItemsProcessed(state.iterations() * 60);
}
BENCHMARK(BM_FullExperimentSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
