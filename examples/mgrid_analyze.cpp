// Offline event-log analyzer: reads a mgrid-eventlog-v1 JSONL document
// (run_experiment --eventlog-out, campus_watch, or one sweep job's log) and
// reports what the filter pipeline actually did, LU by LU.
//
//   mgrid_analyze eventlog=run.jsonl
//   mgrid_analyze eventlog=run.jsonl result=run.json       # cross-check
//   mgrid_analyze eventlog=run.jsonl node=17 top=5
//
// Outputs:
//   * header echo (schema, run parameters, record/drop counts)
//   * decision x reason breakdown of every sampled LU
//   * per-cluster DTH evolution (samples, time range, DTH mean/min/max,
//     mean cluster speed)
//   * optional per-node timeline (node=ID, capped by timeline_max)
//   * a summary recomputed from the records alone: traffic totals,
//     transmission rates, mean LU/bucket, RMSE/MAE overall and per region
//
// With result=path/to/run.json (run_experiment's json= artifact) the
// recomputed summary is cross-checked against the recorded
// ExperimentResult within 1e-9 relative tolerance; any mismatch exits 1.
// The cross-check refuses sampled (sample_every > 1) or truncated
// (dropped > 0) logs — those cannot reproduce the full-run totals. A
// complete log with zero decision records is "nothing to check", not a
// mismatch: the cross-check is skipped with a note and the exit code is 0.
//
// Keys: eventlog=PATH [result=PATH] [node=ID] [top=10] [timeline_max=40]
//       [summary_out=PATH]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mobilegrid/mobilegrid.h"

using namespace mgrid;

namespace {

/// One parsed record line (absent fields keep their unset defaults).
struct Rec {
  std::uint32_t mn = 0;
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  std::string region = "unknown";
  std::string state;
  std::int64_t gateway = -1;
  bool handover = false;
  std::int64_t cluster = -1;
  double cluster_speed = 0.0;
  double dth = 0.0;
  double moved = 0.0;
  std::string decision = "none";
  std::string reason = "none";
  std::string channel;
  bool scored = false;
  double err = 0.0;
};

std::string string_or(const util::JsonValue& object, std::string_view key,
                      std::string fallback) {
  const util::JsonValue* member = object.find(key);
  return member == nullptr ? std::move(fallback) : member->as_string();
}

Rec parse_record(const util::JsonValue& line) {
  Rec rec;
  rec.mn = static_cast<std::uint32_t>(line.at("mn").as_double());
  rec.t = line.at("t").as_double();
  rec.x = line.at("x").as_double();
  rec.y = line.at("y").as_double();
  rec.region = string_or(line, "region", "unknown");
  rec.state = string_or(line, "state", "");
  rec.gateway = static_cast<std::int64_t>(line.number_or("gw", -1.0));
  if (const util::JsonValue* handover = line.find("handover")) {
    rec.handover = handover->as_bool();
  }
  rec.cluster = static_cast<std::int64_t>(line.number_or("cluster", -1.0));
  rec.cluster_speed = line.number_or("cluster_speed", 0.0);
  rec.dth = line.number_or("dth", 0.0);
  rec.moved = line.number_or("moved", 0.0);
  rec.decision = string_or(line, "decision", "none");
  rec.reason = string_or(line, "reason", "none");
  rec.channel = string_or(line, "channel", "");
  if (const util::JsonValue* err = line.find("err")) {
    rec.scored = true;
    rec.err = err->as_double();
  }
  return rec;
}

/// Summary recomputed from the records alone, mirroring TrafficMetrics /
/// ErrorMetrics arithmetic exactly (same bucket-index formula, same
/// accumulation order — the records are already sorted by (t, mn), which is
/// the order the collectors saw them in).
struct Recomputed {
  std::uint64_t attempted = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t lost_on_air = 0;
  std::uint64_t road_attempted = 0;
  std::uint64_t road_transmitted = 0;
  std::uint64_t building_attempted = 0;
  std::uint64_t building_transmitted = 0;
  std::uint64_t bucket_count = 0;
  double bucket_width = 1.0;
  std::size_t scored = 0;
  double sum_sq = 0.0;
  double sum_abs = 0.0;
  std::size_t road_scored = 0;
  double road_sum_sq = 0.0;
  std::size_t building_scored = 0;
  double building_sum_sq = 0.0;

  [[nodiscard]] static double rate(std::uint64_t tx, std::uint64_t attempts) {
    if (attempts == 0) return 1.0;
    return static_cast<double>(tx) / static_cast<double>(attempts);
  }
  [[nodiscard]] double transmission_rate() const {
    return rate(transmitted, attempted);
  }
  [[nodiscard]] double road_rate() const {
    return rate(road_transmitted, road_attempted);
  }
  [[nodiscard]] double building_rate() const {
    return rate(building_transmitted, building_attempted);
  }
  [[nodiscard]] double mean_lu_per_bucket() const {
    if (bucket_count == 0) return 0.0;
    return static_cast<double>(transmitted) /
           static_cast<double>(bucket_count);
  }
  [[nodiscard]] static double rmse_of(double sum_sq, std::size_t n) {
    if (n == 0) return 0.0;
    return std::sqrt(sum_sq / static_cast<double>(n));
  }
  [[nodiscard]] double rmse() const { return rmse_of(sum_sq, scored); }
  [[nodiscard]] double rmse_road() const {
    return rmse_of(road_sum_sq, road_scored);
  }
  [[nodiscard]] double rmse_building() const {
    return rmse_of(building_sum_sq, building_scored);
  }
  [[nodiscard]] double mae() const {
    if (scored == 0) return 0.0;
    return sum_abs / static_cast<double>(scored);
  }
};

Recomputed recompute(const std::vector<Rec>& records, double bucket_width) {
  Recomputed out;
  out.bucket_width = bucket_width > 0.0 ? bucket_width : 1.0;
  for (const Rec& rec : records) {
    const bool sent = rec.decision == "sent";
    if (sent || rec.decision == "suppressed") {
      ++out.attempted;
      if (rec.region == "road") ++out.road_attempted;
      if (rec.region == "building") ++out.building_attempted;
      if (sent) {
        ++out.transmitted;
        if (rec.region == "road") ++out.road_transmitted;
        if (rec.region == "building") ++out.building_transmitted;
        // stats::TimeSeries::add's index formula, with t0 = 0.
        const double offset = rec.t / out.bucket_width;
        const std::uint64_t index =
            offset <= 0.0 ? 0
                          : static_cast<std::uint64_t>(std::floor(offset));
        out.bucket_count = std::max(out.bucket_count, index + 1);
      }
    }
    if (rec.decision == "lost_on_air") ++out.lost_on_air;
    if (rec.scored) {
      const double magnitude = std::abs(rec.err);
      ++out.scored;
      out.sum_sq += magnitude * magnitude;
      out.sum_abs += magnitude;
      if (rec.region == "road") {
        ++out.road_scored;
        out.road_sum_sq += magnitude * magnitude;
      } else if (rec.region == "building") {
        ++out.building_scored;
        out.building_sum_sq += magnitude * magnitude;
      }
    }
  }
  return out;
}

struct CrossCheck {
  std::string metric;
  double expected = 0.0;
  double recomputed = 0.0;
  bool ok = true;
};

bool close_enough(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config config = util::Config::from_argv(argc, argv);
  const std::string eventlog_path = config.require_string("eventlog");
  const std::string result_path = config.get_string("result", "");
  const std::string summary_out = config.get_string("summary_out", "");
  const std::int64_t node = config.get_int("node", -1);
  const auto top = static_cast<std::size_t>(config.get_int("top", 10));
  const auto timeline_max =
      static_cast<std::size_t>(config.get_int("timeline_max", 40));

  std::ifstream in(eventlog_path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read event log: " << eventlog_path << '\n';
    return 1;
  }
  std::string line;
  if (!std::getline(in, line)) {
    std::cerr << "empty event log: " << eventlog_path << '\n';
    return 1;
  }
  const util::JsonValue header = util::JsonValue::parse(line);
  if (string_or(header, "schema", "") != "mgrid-eventlog-v1") {
    std::cerr << "not a mgrid-eventlog-v1 document: " << eventlog_path << '\n';
    return 1;
  }
  const auto sample_every =
      static_cast<std::uint32_t>(header.number_or("sample_every", 1.0));
  const auto dropped =
      static_cast<std::uint64_t>(header.number_or("dropped", 0.0));
  const util::JsonValue& run = header.at("run");
  const double bucket_width = run.number_or("bucket_width", 1.0);

  std::vector<Rec> records;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(parse_record(util::JsonValue::parse(line)));
  }

  std::cout << "=== event log: " << eventlog_path << " ===\n";
  std::cout << "records " << records.size() << " | dropped " << dropped
            << " | sample_every " << sample_every << '\n';
  std::cout << "run: filter=" << string_or(run, "filter", "?")
            << " estimator=" << string_or(run, "estimator", "")
            << " scoring=" << string_or(run, "scoring", "?")
            << " duration=" << run.number_or("duration", 0.0)
            << "s seed=" << static_cast<std::uint64_t>(
                   run.number_or("seed", 0.0))
            << '\n';

  // --- decision x reason breakdown -----------------------------------------
  std::map<std::string, std::map<std::string, std::uint64_t>> breakdown;
  for (const Rec& rec : records) ++breakdown[rec.decision][rec.reason];
  std::cout << "\n--- decisions ---\n";
  stats::Table decisions({"decision", "reason", "count", "share"});
  for (const auto& [decision, reasons] : breakdown) {
    for (const auto& [reason, count] : reasons) {
      decisions.add_row(
          {decision, reason, std::to_string(count),
           stats::format_double(100.0 * static_cast<double>(count) /
                                    static_cast<double>(records.size()),
                                2) +
               "%"});
    }
  }
  decisions.write_pretty(std::cout);

  // --- per-cluster DTH evolution -------------------------------------------
  struct ClusterStats {
    std::uint64_t samples = 0;
    double t_min = 0.0;
    double t_max = 0.0;
    double dth_min = 0.0;
    double dth_max = 0.0;
    double dth_sum = 0.0;
    double speed_sum = 0.0;
  };
  std::map<std::int64_t, ClusterStats> clusters;
  for (const Rec& rec : records) {
    if (rec.cluster < 0 || rec.dth <= 0.0) continue;
    auto [it, inserted] = clusters.try_emplace(rec.cluster);
    ClusterStats& entry = it->second;
    if (inserted) {
      entry.t_min = entry.t_max = rec.t;
      entry.dth_min = entry.dth_max = rec.dth;
    }
    entry.t_min = std::min(entry.t_min, rec.t);
    entry.t_max = std::max(entry.t_max, rec.t);
    entry.dth_min = std::min(entry.dth_min, rec.dth);
    entry.dth_max = std::max(entry.dth_max, rec.dth);
    entry.dth_sum += rec.dth;
    entry.speed_sum += rec.cluster_speed;
    ++entry.samples;
  }
  if (!clusters.empty()) {
    std::vector<std::pair<std::int64_t, ClusterStats>> ranked(
        clusters.begin(), clusters.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.samples != b.second.samples) {
        return a.second.samples > b.second.samples;
      }
      return a.first < b.first;
    });
    std::cout << "\n--- cluster DTH evolution (top " << top << " of "
              << ranked.size() << ") ---\n";
    stats::Table table({"cluster", "samples", "t range", "dth mean",
                        "dth min", "dth max", "mean speed"});
    for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
      const auto& [id, entry] = ranked[i];
      const double n = static_cast<double>(entry.samples);
      table.add_row({std::to_string(id), std::to_string(entry.samples),
                     stats::format_double(entry.t_min, 0) + ".." +
                         stats::format_double(entry.t_max, 0) + "s",
                     stats::format_double(entry.dth_sum / n, 2),
                     stats::format_double(entry.dth_min, 2),
                     stats::format_double(entry.dth_max, 2),
                     stats::format_double(entry.speed_sum / n, 2)});
    }
    table.write_pretty(std::cout);
  }

  // --- per-node timeline ---------------------------------------------------
  if (node >= 0) {
    std::cout << "\n--- timeline for MN " << node << " ---\n";
    stats::Table timeline({"t", "pos", "region", "state", "cluster", "dth",
                           "moved", "decision", "err"});
    std::size_t shown = 0;
    std::size_t total = 0;
    for (const Rec& rec : records) {
      if (rec.mn != static_cast<std::uint32_t>(node)) continue;
      ++total;
      if (shown >= timeline_max) continue;
      ++shown;
      timeline.add_row(
          {stats::format_double(rec.t, 0),
           std::string("(").append(stats::format_double(rec.x, 1)) + "," +
               stats::format_double(rec.y, 1) + ")",
           rec.region, rec.state.empty() ? "-" : rec.state,
           rec.cluster < 0 ? "-" : std::to_string(rec.cluster),
           rec.dth > 0.0 ? stats::format_double(rec.dth, 2) : "-",
           stats::format_double(rec.moved, 2), rec.decision + "/" + rec.reason,
           rec.scored ? stats::format_double(rec.err, 3) : "-"});
    }
    timeline.write_pretty(std::cout);
    if (total > shown) {
      std::cout << "(showing " << shown << " of " << total
                << " ticks; raise timeline_max= to see more)\n";
    }
  }

  // --- recomputed summary --------------------------------------------------
  const Recomputed summary = recompute(records, bucket_width);
  std::cout << "\n--- recomputed summary ---\n";
  stats::Table report({"metric", "value"});
  report.add_row({"LUs attempted", std::to_string(summary.attempted)});
  report.add_row({"LUs transmitted", std::to_string(summary.transmitted)});
  report.add_row({"LUs lost on air", std::to_string(summary.lost_on_air)});
  report.add_row({"transmission rate",
                  stats::format_double(summary.transmission_rate(), 4)});
  report.add_row(
      {"  roads", stats::format_double(summary.road_rate(), 4)});
  report.add_row(
      {"  buildings", stats::format_double(summary.building_rate(), 4)});
  report.add_row({"mean LU/bucket",
                  stats::format_double(summary.mean_lu_per_bucket(), 3)});
  report.add_row({"scored samples", std::to_string(summary.scored)});
  report.add_row({"RMSE (m)", stats::format_double(summary.rmse(), 3)});
  report.add_row({"  roads", stats::format_double(summary.rmse_road(), 3)});
  report.add_row(
      {"  buildings", stats::format_double(summary.rmse_building(), 3)});
  report.add_row({"MAE (m)", stats::format_double(summary.mae(), 3)});
  report.write_pretty(std::cout);

  // --- cross-check against the run's ExperimentResult ----------------------
  std::vector<CrossCheck> checks;
  bool checked = false;
  bool check_ok = true;
  if (!result_path.empty()) {
    if (sample_every > 1 || dropped > 0) {
      std::cerr << "cross-check refused: the log is "
                << (sample_every > 1 ? "sampled" : "truncated")
                << " (sample_every=" << sample_every
                << ", dropped=" << dropped
                << ") and cannot reproduce full-run totals\n";
      return 1;
    }
  }
  // An empty-but-complete log means the run genuinely produced no LU
  // decisions (e.g. zero nodes or zero duration). That is "nothing to
  // check", not a mismatch — exit 0 so CI can distinguish it from a real
  // divergence.
  if (!result_path.empty() && records.empty()) {
    std::cout << "\ncross-check skipped: no records sampled (the log is "
                 "complete but carries zero decision records)\n";
  } else if (!result_path.empty()) {
    std::ifstream result_in(result_path, std::ios::binary);
    if (!result_in) {
      std::cerr << "cannot read result JSON: " << result_path << '\n';
      return 1;
    }
    std::ostringstream text;
    text << result_in.rdbuf();
    const util::JsonValue result = util::JsonValue::parse(text.str());
    const util::JsonValue& traffic = result.at("traffic");
    const util::JsonValue& error = result.at("error");

    auto check = [&checks](std::string metric, double expected,
                           double recomputed) {
      checks.push_back({std::move(metric), expected, recomputed,
                        close_enough(expected, recomputed)});
    };
    check("traffic.total_transmitted",
          traffic.at("total_transmitted").as_double(),
          static_cast<double>(summary.transmitted));
    check("traffic.total_attempted", traffic.at("total_attempted").as_double(),
          static_cast<double>(summary.attempted));
    check("traffic.transmission_rate",
          traffic.at("transmission_rate").as_double(),
          summary.transmission_rate());
    check("traffic.road_transmission_rate",
          traffic.at("road_transmission_rate").as_double(),
          summary.road_rate());
    check("traffic.building_transmission_rate",
          traffic.at("building_transmission_rate").as_double(),
          summary.building_rate());
    check("traffic.mean_lu_per_bucket",
          traffic.at("mean_lu_per_bucket").as_double(),
          summary.mean_lu_per_bucket());
    check("traffic.lus_lost_on_air", traffic.at("lus_lost_on_air").as_double(),
          static_cast<double>(summary.lost_on_air));
    check("error.rmse", error.at("rmse").as_double(), summary.rmse());
    check("error.rmse_road", error.at("rmse_road").as_double(),
          summary.rmse_road());
    check("error.rmse_building", error.at("rmse_building").as_double(),
          summary.rmse_building());
    check("error.mae", error.at("mae").as_double(), summary.mae());

    checked = true;
    std::cout << "\n--- cross-check vs " << result_path << " ---\n";
    stats::Table table({"metric", "result", "recomputed", "status"});
    for (const CrossCheck& c : checks) {
      if (!c.ok) check_ok = false;
      table.add_row({c.metric, stats::format_double(c.expected, 9),
                     stats::format_double(c.recomputed, 9),
                     c.ok ? "ok" : "MISMATCH"});
    }
    table.write_pretty(std::cout);
    std::cout << (check_ok ? "cross-check PASSED\n" : "cross-check FAILED\n");
  }

  if (!summary_out.empty()) {
    util::JsonWriter json;
    json.begin_object()
        .field("schema", "mgrid-analyze-v1")
        .field("eventlog", eventlog_path)
        .field("records", static_cast<std::uint64_t>(records.size()))
        .field("dropped", dropped)
        .field("sample_every", static_cast<std::uint64_t>(sample_every));
    json.key("traffic").begin_object();
    json.field("total_transmitted", summary.transmitted)
        .field("total_attempted", summary.attempted)
        .field("transmission_rate", summary.transmission_rate())
        .field("road_transmission_rate", summary.road_rate())
        .field("building_transmission_rate", summary.building_rate())
        .field("mean_lu_per_bucket", summary.mean_lu_per_bucket())
        .field("lus_lost_on_air", summary.lost_on_air)
        .end_object();
    json.key("error").begin_object();
    json.field("rmse", summary.rmse())
        .field("rmse_road", summary.rmse_road())
        .field("rmse_building", summary.rmse_building())
        .field("mae", summary.mae())
        .field("scored", static_cast<std::uint64_t>(summary.scored))
        .end_object();
    json.key("crosscheck").begin_object();
    json.field("checked", checked).field("ok", checked && check_ok);
    json.key("mismatches").begin_array();
    for (const CrossCheck& c : checks) {
      if (c.ok) continue;
      json.begin_object()
          .field("metric", c.metric)
          .field("result", c.expected)
          .field("recomputed", c.recomputed)
          .end_object();
    }
    json.end_array().end_object().end_object();
    std::ofstream out(summary_out, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write summary: " << summary_out << '\n';
      return 1;
    }
    out << json.str() << '\n';
    std::cout << "\nsummary written to " << summary_out << '\n';
  }

  return checked && !check_ok ? 1 : 0;
}
