// serve::AdminServer — routing, readiness semantics, /statusz JSON schema
// and the full-stack scrape path over a live directory + ingest pipeline.
#include "serve/admin.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "file_size_limit.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "util/json.h"
#include "../scratch_path.h"

namespace mgrid::serve {
namespace {

obs::http::Request get(std::string target) {
  obs::http::Request request;
  request.method = "GET";
  request.target = target;
  const std::size_t question = target.find('?');
  if (question == std::string::npos) {
    request.path = std::move(target);
  } else {
    request.path = target.substr(0, question);
    request.query = target.substr(question + 1);
  }
  request.version = "HTTP/1.1";
  return request;
}

AdminOptions ephemeral_options() {
  AdminOptions options;
  options.http.port = 0;
  return options;
}

wire::LuMsg lu(std::uint32_t mn, double t, double x, double y) {
  wire::LuMsg msg;
  msg.mn = mn;
  msg.t = t;
  msg.x = x;
  msg.y = y;
  return msg;
}

TEST(AdminServer, RoutesWithoutSockets) {
  obs::MetricsRegistry registry;
  AdminHooks hooks;
  hooks.registry = &registry;
  AdminServer admin(ephemeral_options(), hooks);  // never started

  EXPECT_EQ(admin.handle(get("/healthz")).status, 200);
  EXPECT_EQ(admin.handle(get("/healthz")).body, "ok\n");
  EXPECT_EQ(admin.handle(get("/")).status, 200);
  EXPECT_EQ(admin.handle(get("/nope")).status, 404);

  obs::http::Request post = get("/metrics");
  post.method = "POST";
  EXPECT_EQ(admin.handle(post).status, 405);
}

TEST(AdminServer, DefaultsToTheConstructingThreadsRegistry) {
  obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);
  registry.counter("admin_default_registry_checks_total").inc(3);

  AdminServer admin(ephemeral_options(), AdminHooks{});  // registry = nullptr
  const obs::http::Response metrics = admin.handle(get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("admin_default_registry_checks_total 3"),
            std::string::npos);
}

TEST(AdminServer, ReadyzTracksIngestBacklog) {
  obs::MetricsRegistry registry;
  ShardedDirectory directory(DirectoryOptions{});
  IngestOptions ingest_options;
  ingest_options.start_paused = true;  // let the backlog build
  IngestPipeline pipeline(directory, ingest_options);

  AdminOptions options = ephemeral_options();
  options.ready_max_pending = 4;
  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.pipeline = &pipeline;
  AdminServer admin(std::move(options), std::move(hooks));

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipeline.submit(lu(static_cast<std::uint32_t>(i), 1.0, 0.0,
                                   0.0)));
  }
  const obs::http::Response behind = admin.handle(get("/readyz"));
  EXPECT_EQ(behind.status, 503);
  EXPECT_NE(behind.body.find("ingest backlog"), std::string::npos);

  pipeline.flush();
  const obs::http::Response caught_up = admin.handle(get("/readyz"));
  EXPECT_EQ(caught_up.status, 200);
  EXPECT_EQ(caught_up.body, "ready\n");
  pipeline.stop();
}

TEST(AdminServer, ReadyzHonoursTheDriverPredicate) {
  obs::MetricsRegistry registry;
  bool driver_ready = false;
  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.ready = [&driver_ready](std::string* reason) {
    if (!driver_ready && reason != nullptr) *reason = "warming up";
    return driver_ready;
  };
  AdminServer admin(ephemeral_options(), std::move(hooks));

  const obs::http::Response warming = admin.handle(get("/readyz"));
  EXPECT_EQ(warming.status, 503);
  EXPECT_NE(warming.body.find("warming up"), std::string::npos);
  driver_ready = true;
  EXPECT_EQ(admin.handle(get("/readyz")).status, 200);
}

TEST(AdminServer, ReadyzReportsAFailedWal) {
  const std::string path = test::scratch_path("admin_readyz_wal_test.log");
  std::remove(path.c_str());
  {
    obs::MetricsRegistry registry;
    WalWriter wal(path, FsyncPolicy::kNever);
    AdminHooks hooks;
    hooks.registry = &registry;
    hooks.wal = &wal;
    AdminServer admin(ephemeral_options(), std::move(hooks));
    EXPECT_EQ(admin.handle(get("/readyz")).status, 200);

    {
      // No room past the header: the barrier's write fails.
      const test::FileSizeLimit limit(sizeof(kWalHeader));
      ASSERT_TRUE(wal.append(lu(1, 1.0, 0.0, 0.0)));
      ASSERT_FALSE(wal.append_tick(1.0, 1));
    }
    const obs::http::Response failed = admin.handle(get("/readyz"));
    EXPECT_EQ(failed.status, 503);
    EXPECT_NE(failed.body.find("wal failed: " + path), std::string::npos)
        << failed.body;
  }
  std::remove(path.c_str());
}

TEST(AdminServer, QuitzFiresTheHookAndCounts) {
  obs::MetricsRegistry registry;
  int quits = 0;
  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.on_quit = [&quits] { ++quits; };
  AdminServer admin(ephemeral_options(), std::move(hooks));

  EXPECT_EQ(admin.handle(get("/quitz")).status, 200);
  EXPECT_EQ(admin.handle(get("/quitz")).status, 200);
  EXPECT_EQ(quits, 2);

  const obs::http::Response status = admin.handle(get("/statusz"));
  const util::JsonValue parsed = util::JsonValue::parse(status.body);
  EXPECT_DOUBLE_EQ(parsed.at("quit_requests").as_double(), 2.0);
}

TEST(AdminServer, StatuszReportsEverySubsystem) {
  obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);

  DirectoryOptions directory_options;
  directory_options.shards = 4;
  ShardedDirectory directory(directory_options);
  IngestPipeline pipeline(directory, IngestOptions{});
  obs::SloMonitor slo;
  slo.bind_registry(registry);

  for (std::uint32_t mn = 0; mn < 40; ++mn) {
    ASSERT_TRUE(pipeline.submit(lu(mn, 1.0, static_cast<double>(mn), 0.0)));
  }
  pipeline.flush();
  slo.observe_lookup(1e-4);
  slo.advance(1.0);

  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.directory = &directory;
  hooks.pipeline = &pipeline;
  hooks.slo = &slo;
  hooks.extra_status = [](util::JsonWriter& json) {
    json.field("mode", "test");
  };
  AdminServer admin(ephemeral_options(), std::move(hooks));

  const obs::http::Response response = admin.handle(get("/statusz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  const util::JsonValue status = util::JsonValue::parse(response.body);

  EXPECT_EQ(status.at("schema").as_string(), "mgrid-statusz-v1");
  EXPECT_TRUE(status.at("ready").as_bool());

  const util::JsonValue& dir = status.at("directory");
  EXPECT_DOUBLE_EQ(dir.at("size").as_double(), 40.0);
  EXPECT_DOUBLE_EQ(dir.at("shards").as_double(), 4.0);
  ASSERT_EQ(dir.at("shard_sizes").as_array().size(), 4u);
  double shard_total = 0.0;
  for (const util::JsonValue& size : dir.at("shard_sizes").as_array()) {
    shard_total += size.as_double();
  }
  EXPECT_DOUBLE_EQ(shard_total, 40.0);

  const util::JsonValue& ingest = status.at("ingest");
  EXPECT_DOUBLE_EQ(ingest.at("accepted").as_double(), 40.0);
  EXPECT_DOUBLE_EQ(ingest.at("applied").as_double(), 40.0);
  EXPECT_DOUBLE_EQ(ingest.at("pending").as_double(), 0.0);
  EXPECT_FALSE(ingest.at("queue_depths").as_array().empty());

  const util::JsonValue& slo_block = status.at("slo");
  EXPECT_EQ(slo_block.at("overall").as_string(), "ok");
  ASSERT_EQ(slo_block.at("slis").as_array().size(), 3u);
  const util::JsonValue& lookup = slo_block.at("slis").as_array()[0];
  EXPECT_EQ(lookup.at("name").as_string(), "lookup_latency");
  EXPECT_DOUBLE_EQ(
      lookup.at("long_window").at("count").as_double(), 1.0);

  EXPECT_EQ(status.at("driver").at("mode").as_string(), "test");
  pipeline.stop();
}

TEST(AdminServer, TracezWithoutATracerIs404) {
  obs::MetricsRegistry registry;
  AdminHooks hooks;
  hooks.registry = &registry;
  AdminServer admin(ephemeral_options(), std::move(hooks));
  const obs::http::Response response = admin.handle(get("/tracez"));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("no span tracer"), std::string::npos);
}

TEST(AdminServer, TracezReportsSampledSpansWithTiledStages) {
  obs::MetricsRegistry registry;
  obs::SpanTracerOptions span_options;
  span_options.sample_period = 1;  // sample everything: deterministic count
  span_options.emit_trace_events = false;
  obs::SpanTracer tracer(span_options);
  tracer.set_enabled(true);

  ShardedDirectory directory(DirectoryOptions{});
  IngestOptions ingest_options;
  ingest_options.spans = &tracer;
  IngestPipeline pipeline(directory, ingest_options);
  for (std::uint32_t mn = 0; mn < 50; ++mn) {
    ASSERT_TRUE(pipeline.submit(lu(mn, 1.0, 0.0, 0.0)));
  }
  pipeline.flush();

  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.pipeline = &pipeline;
  hooks.spans = &tracer;
  AdminServer admin(ephemeral_options(), std::move(hooks));

  const obs::http::Response response = admin.handle(get("/tracez"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  const util::JsonValue tracez = util::JsonValue::parse(response.body);
  EXPECT_EQ(tracez.at("schema").as_string(), "mgrid-tracez-v1");
  EXPECT_TRUE(tracez.at("enabled").as_bool());
  EXPECT_DOUBLE_EQ(tracez.at("sample_period").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(tracez.at("sampled").as_double(), 50.0);

  const auto& slis = tracez.at("slis").as_array();
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_EQ(slis[0].at("name").as_string(), "update_latency");
  EXPECT_DOUBLE_EQ(slis[0].at("recorded").as_double(), 50.0);

  const auto& exemplars = slis[0].at("exemplars").as_array();
  ASSERT_FALSE(exemplars.empty());
  for (const util::JsonValue& exemplar : exemplars) {
    const util::JsonValue& trace = exemplar.at("trace");
    const util::JsonValue& stages = trace.at("stages");
    const double total = trace.at("total_seconds").as_double();
    const double sum = stages.at("queue").as_double() +
                       stages.at("wal").as_double() +
                       stages.at("apply").as_double() +
                       stages.at("visible").as_double();
    EXPECT_GT(total, 0.0);
    // The acceptance bar is 5%; by construction the stages tile exactly,
    // so the JSON round trip only has to preserve the doubles.
    EXPECT_NEAR(sum, total, 0.05 * total);
    EXPECT_EQ(trace.at("trace_id").as_string().size(), 16u);
  }

  const auto& slowest = slis[0].at("slowest").as_array();
  EXPECT_FALSE(slowest.empty());
  EXPECT_LE(slowest.size(), tracer.options().top_k);
  // Descending total_seconds.
  for (std::size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].at("total_seconds").as_double(),
              slowest[i].at("total_seconds").as_double());
  }

  // ?k= caps the slowest list; a bad k is a 400.
  const obs::http::Response capped = admin.handle(get("/tracez?k=1"));
  const util::JsonValue capped_json = util::JsonValue::parse(capped.body);
  EXPECT_EQ(
      capped_json.at("slis").as_array()[0].at("slowest").as_array().size(),
      1u);
  EXPECT_EQ(admin.handle(get("/tracez?k=banana")).status, 400);
  pipeline.stop();
}

TEST(AdminServer, StatuszReportsSpanCountersWhenWired) {
  obs::MetricsRegistry registry;
  obs::SpanTracerOptions span_options;
  span_options.sample_period = 1;
  span_options.emit_trace_events = false;
  obs::SpanTracer tracer(span_options);
  tracer.set_enabled(true);

  ShardedDirectory directory(DirectoryOptions{});
  IngestOptions ingest_options;
  ingest_options.spans = &tracer;
  IngestPipeline pipeline(directory, ingest_options);
  for (std::uint32_t mn = 0; mn < 8; ++mn) {
    ASSERT_TRUE(pipeline.submit(lu(mn, 1.0, 0.0, 0.0)));
  }
  pipeline.flush();

  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.pipeline = &pipeline;
  hooks.spans = &tracer;
  AdminServer admin(ephemeral_options(), std::move(hooks));
  const obs::http::Response response = admin.handle(get("/statusz"));
  const util::JsonValue status = util::JsonValue::parse(response.body);
  EXPECT_TRUE(status.at("spans").at("enabled").as_bool());
  EXPECT_DOUBLE_EQ(status.at("spans").at("sampled").as_double(), 8.0);
  EXPECT_DOUBLE_EQ(status.at("spans").at("sample_period").as_double(), 1.0);
  pipeline.stop();
}

TEST(AdminServer, ProfilezRunsAShortSession) {
  obs::MetricsRegistry registry;
  AdminHooks hooks;
  hooks.registry = &registry;
  AdminServer admin(ephemeral_options(), std::move(hooks));

  const obs::http::Response response =
      admin.handle(get("/profilez?seconds=0.2"));
  if (response.status == 503) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.rfind("# mgrid cpu profile:", 0), 0u);
  EXPECT_EQ(admin.handle(get("/profilez?seconds=nope")).status, 400);
}

TEST(AdminServer, FullStackScrapeOverHttp) {
  obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);

  ShardedDirectory directory(DirectoryOptions{});
  IngestPipeline pipeline(directory, IngestOptions{});
  for (std::uint32_t mn = 0; mn < 25; ++mn) {
    ASSERT_TRUE(pipeline.submit(lu(mn, 2.0, 1.0, 1.0)));
  }
  pipeline.flush();

  AdminHooks hooks;
  hooks.registry = &registry;
  hooks.directory = &directory;
  hooks.pipeline = &pipeline;
  AdminServer admin(ephemeral_options(), std::move(hooks));
  admin.start();
  ASSERT_GT(admin.port(), 0);
  ASSERT_TRUE(admin.running());

  const obs::http::ClientResponse metrics =
      obs::http::http_get("127.0.0.1", admin.port(), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("mgrid_ingest_accepted_total 25"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE mgrid_ingest_queue_depth gauge"),
            std::string::npos);

  const obs::http::ClientResponse varz =
      obs::http::http_get("127.0.0.1", admin.port(), "/varz");
  ASSERT_TRUE(varz.ok);
  EXPECT_NE(varz.body.find("mgrid_ingest_accepted_total"),
            std::string::npos);

  const obs::http::ClientResponse health =
      obs::http::http_get("127.0.0.1", admin.port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);

  const obs::http::ClientResponse status =
      obs::http::http_get("127.0.0.1", admin.port(), "/statusz");
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(status.content_type, "application/json");
  const util::JsonValue parsed = util::JsonValue::parse(status.body);
  EXPECT_DOUBLE_EQ(parsed.at("ingest").at("applied").as_double(), 25.0);
  // The scrapes themselves show up in the server's own stats.
  EXPECT_GE(parsed.at("http").at("served").as_double(), 3.0);

  admin.stop();
  EXPECT_FALSE(admin.running());
  pipeline.stop();
}

}  // namespace
}  // namespace mgrid::serve
