// The perfbench binary: runs one workload for a fixed time, checks the
// engines' outputs, and prints the metrics as one JSON line (the last line
// of stdout). Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--bound <metric>=<share>]...
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// splits the time between an untraced run and a traced replay of the same
// work (same seed, same unit count), prints the per-layer metrics from the
// replay's spans, and checks that tracing did not change the outcome.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Set-ups per run (at least the minimum, more while they take under the
/// time budget); setup_s reports their median.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 2001;
constexpr double kSetupBudgetSeconds = 0.25;
/// Arms whose encode time the traced run reports separately: the dominant
/// arms of the four workloads.
constexpr const char* kReportedArms[] = {"fft", "pla", "sprintz", "zlib-9",
                                         "paa"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
  std::map<std::string, double> bounds;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<online_knn|online_rforest|fleet_lowentropy|offline_budget> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--bound <metric>=<share>]...\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--bound") {
      size_t eq = value.find('=');
      if (eq == std::string::npos) Usage("--bound takes <metric>=<share>");
      args.bounds[value.substr(0, eq)] =
          std::strtod(value.c_str() + eq + 1, nullptr);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "online_knn") {
    return MakeOnlineWorkload("knn", args.seed);
  }
  if (args.workload == "online_rforest") {
    return MakeOnlineWorkload("rforest", args.seed);
  }
  if (args.workload == "fleet_lowentropy") return MakeFleetWorkload(args.seed);
  if (args.workload == "offline_budget") return MakeOfflineWorkload(args.seed);
  Usage(("unknown workload " + args.workload).c_str());
}

/// An ordered name -> (value, unit) list, printed as the JSON "metrics".
struct Metrics {
  std::vector<Counter> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, value, unit});
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintChecks(const char* run, const RunResult& r) {
  for (const Check& c : r.checks) {
    std::printf("# check [%s] %s: %s%s%s\n", run, c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.empty() ? "" : " -- ",
                c.detail.c_str());
  }
}

/// End-to-end metrics of one run: medians over its windows of the
/// throughput and of the latency percentiles. Latency is per Ingest call
/// (online, offline) or per batch emission (fleet).
Metrics EndToEnd(const RunResult& r, double setup_s) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const Window& w : r.windows) {
    if (w.seconds > 0.0) {
      rates.push_back(static_cast<double>(w.points) / w.seconds);
    }
    std::vector<double> samples(r.latency_us.begin() + w.begin,
                                r.latency_us.begin() + w.end);
    p50s.push_back(Percentile(samples, 0.50));
    p99s.push_back(Percentile(std::move(samples), 0.99));
  }
  if (rates.empty() && r.wall_s > 0.0) {
    rates.push_back(static_cast<double>(r.points) / r.wall_s);
  }
  Metrics m;
  m.Add("points_per_s", Median(rates), "1/s");
  m.Add("latency_p50_us", Median(p50s), "us");
  m.Add("latency_p99_us", Median(p99s), "us");
  m.Add("bytes_ratio", r.bytes_ratio, "ratio");
  m.Add("task_accuracy", r.task_accuracy, "ratio");
  m.Add("setup_s", setup_s, "s");
  return m;
}

/// Fewest latency samples any window has above its own p99.
size_t MinAboveP99(const RunResult& r) {
  size_t fewest = r.windows.empty() ? 0 : SIZE_MAX;
  for (const Window& w : r.windows) {
    std::vector<double> samples(r.latency_us.begin() + w.begin,
                                r.latency_us.begin() + w.end);
    fewest = std::min(fewest, CountAbove(samples, 0.99));
  }
  return fewest;
}

double CounterOr(const RunResult& r, const std::string& name) {
  for (const Counter& c : r.counters) {
    if (c.name == name) return c.value;
  }
  return 0.0;
}

/// Per-layer metrics from the traced replay's spans and engine counters.
/// `base` is the untraced run (its query latencies carry no span cost).
Metrics PerLayer(const std::string& workload, const RunResult& base,
                 const RunResult& traced) {
  Tracer& tracer = Tracer::Get();
  std::vector<SpanTotals> totals = tracer.Totals();
  auto by_name = [&](const std::string& name) {
    for (int i = 0; i < tracer.NameCount(); ++i) {
      if (tracer.Name(i) == name) return totals[static_cast<size_t>(i)];
    }
    return SpanTotals{};
  };
  auto by_prefix = [&](const std::string& prefix) {
    SpanTotals sum;
    for (int i = 0; i < tracer.NameCount(); ++i) {
      if (tracer.Name(i).rfind(prefix, 0) != 0) continue;
      sum.calls += totals[static_cast<size_t>(i)].calls;
      sum.busy_s += totals[static_cast<size_t>(i)].busy_s;
      sum.self_s += totals[static_cast<size_t>(i)].self_s;
    }
    return sum;
  };
  auto per = [](double n, uint64_t d) {
    return d > 0 ? n / static_cast<double>(d) : 0.0;
  };

  Metrics m;
  SpanTotals predict = by_name("ml.predict");
  m.Add("ml.predict.calls", static_cast<double>(predict.calls), "count");
  m.Add("ml.predict.busy_s", predict.busy_s, "s");
  m.Add("ml.predict.per_lossy_segment",
        per(static_cast<double>(predict.calls), traced.lossy_segments),
        "ratio");
  SpanTotals encode = by_prefix("compress.encode.");
  SpanTotals decode = by_prefix("compress.decode.");
  m.Add("compress.encode.calls", static_cast<double>(encode.calls), "count");
  m.Add("compress.encode.busy_s", encode.busy_s, "s");
  m.Add("compress.encode.per_segment",
        per(static_cast<double>(encode.calls), traced.segments), "ratio");
  m.Add("compress.decode.calls", static_cast<double>(decode.calls), "count");
  m.Add("compress.decode.busy_s", decode.busy_s, "s");
  for (const char* arm : kReportedArms) {
    m.Add(std::string("compress.encode.") + arm + ".busy_s",
          by_name(std::string("compress.encode.") + arm).busy_s, "s");
  }
  // Ingest span minus its codec and model child spans: features, bandit
  // lock, evaluation arithmetic, copies and (offline) recoding that runs
  // through the codec registry.
  m.Add("core.ingest.self_s", by_name("core.ingest").self_s, "s");

  bool fleet = workload == "fleet_lowentropy";
  m.Add("core.fleet.ingest.busy_s", by_name("core.fleet.ingest").busy_s, "s");
  // Emission latency minus the mean batch service time (codec work per
  // batch): time a batch spent queued or waiting for the consumer.
  double service_us =
      per((encode.busy_s + decode.busy_s) * 1e6, traced.segments);
  m.Add("core.fleet.queue_wait_us",
        fleet ? Percentile(traced.latency_us, 0.5) - service_us : 0.0, "us");
  m.Add("core.fleet.batches", CounterOr(traced, "core.fleet.batches"),
        "count");
  m.Add("core.fleet.merges", CounterOr(traced, "core.fleet.merges"), "count");

  m.Add("core.offline.drain_s", by_name("core.offline.drain").busy_s, "s");
  m.Add("core.offline.recode_ops", CounterOr(traced, "core.offline.recode_ops"),
        "count");
  m.Add("core.offline.deferred_recodes",
        CounterOr(traced, "core.offline.deferred_recodes"), "count");
  m.Add("core.store.peak_utilization",
        CounterOr(traced, "core.store.peak_utilization"), "ratio");
  m.Add("core.range_query.in_situ_share",
        CounterOr(traced, "core.range_query.in_situ_share"), "ratio");
  m.Add("core.range_query.p50_us", Percentile(base.query_us, 0.50), "us");
  m.Add("core.range_query.p99_us", Percentile(base.query_us, 0.99), "us");

  m.Add("bandit.lossy_share", CounterOr(traced, "bandit.lossy_share"),
        "ratio");
  m.Add("sim.egress.spilled", CounterOr(traced, "sim.egress.spilled"),
        "count");
  m.Add("harness.generator_lag_p99_us",
        Percentile(base.generator_lag_us, 0.99), "us");
  // Extra CPU time per unit of work under tracing. CPU rather than wall
  // time: the open-loop fleet's wall time is fixed by its offered rate.
  double overhead = 0.0;
  if (base.units > 0 && traced.units > 0 && base.cpu_s > 0.0) {
    overhead = (traced.cpu_s / static_cast<double>(traced.units)) /
                   (base.cpu_s / static_cast<double>(base.units)) -
               1.0;
  }
  m.Add("harness.tracing_overhead", overhead, "ratio");
  return m;
}

/// Tracing must not change what the engines decide: exact equality for a
/// deterministic (serial, timing-free) workload, agreement within the
/// benchmark's bounds otherwise.
void CheckTracedQuality(bool deterministic, const RunResult& base,
                        const RunResult& traced,
                        const std::map<std::string, double>& bounds,
                        RunResult& out) {
  auto within = [&](const char* metric, double a, double b) {
    if (deterministic) return a == b;
    auto it = bounds.find(metric);
    double bound = it != bounds.end() ? it->second : 0.0;
    return std::fabs(a - b) <= bound * std::fabs(a);
  };
  char detail[160];
  std::snprintf(detail, sizeof(detail), "untraced %.17g traced %.17g",
                base.bytes_ratio, traced.bytes_ratio);
  out.AddCheck("traced_bytes_ratio_matches",
               within("bytes_ratio", base.bytes_ratio, traced.bytes_ratio),
               detail);
  std::snprintf(detail, sizeof(detail), "untraced %.17g traced %.17g",
                base.task_accuracy, traced.task_accuracy);
  out.AddCheck(
      "traced_task_accuracy_matches",
      within("task_accuracy", base.task_accuracy, traced.task_accuracy),
      detail);
  if (deterministic) {
    out.AddCheck("traced_arm_counts_match",
                 base.arm_pulls == traced.arm_pulls);
    return;
  }
  // Threaded engines: each arm's share of all pulls may move by at most
  // the bytes_ratio bound.
  auto shares = [](const RunResult& r) {
    double total = 0.0;
    for (const auto& [arm, n] : r.arm_pulls) total += static_cast<double>(n);
    std::map<std::string, double> s;
    for (const auto& [arm, n] : r.arm_pulls) {
      s[arm] = total > 0.0 ? static_cast<double>(n) / total : 0.0;
    }
    return s;
  };
  std::map<std::string, double> a = shares(base);
  std::map<std::string, double> b = shares(traced);
  double worst = 0.0;
  std::string worst_arm;
  for (const auto& [arm, share] : a) {
    double diff = std::fabs(share - (b.count(arm) ? b[arm] : 0.0));
    if (diff > worst) {
      worst = diff;
      worst_arm = arm;
    }
  }
  auto it = bounds.find("bytes_ratio");
  double bound = it != bounds.end() ? it->second : 0.0;
  std::snprintf(detail, sizeof(detail), "largest share change %.4f (%s)",
                worst, worst_arm.c_str());
  out.AddCheck("traced_arm_shares_match", worst <= bound, detail);
}

void PrintMetrics(const char* heading, const Metrics& m) {
  for (const Counter& c : m.items) {
    std::printf("# %s %-34s %.6g %s\n", heading, c.name.c_str(), c.value,
                c.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  RunResult checks;  // run-level checks beyond the workload's own
  std::vector<double> setups;
  Clock::time_point setup_start = Clock::now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups &&
          SecondsSince(setup_start) < kSetupBudgetSeconds)) {
    setups.push_back(workload->SetupOnce());
  }
  double setup_s = Median(setups);
  checks.AddCheck("setup_ok", *std::min_element(setups.begin(),
                                                setups.end()) >= 0.0);

  RunOptions options;
  options.seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  options.workdir = args.workdir;
  RunResult base = workload->Run(options);
  PrintChecks("untraced", base);
  Metrics e2e = EndToEnd(base, setup_s);
  PrintMetrics("end_to_end", e2e);
  std::printf("# setup: %zu set-ups, median %.6g s\n", setups.size(),
              setup_s);
  std::printf("# samples: latency=%zu in %zu windows (fewest above a "
              "window's p99: %zu) queries=%zu; attempted=%llu failed=%llu "
              "failed_frac=%.6g\n",
              base.latency_us.size(), base.windows.size(), MinAboveP99(base),
              base.query_us.size(),
              static_cast<unsigned long long>(base.attempted),
              static_cast<unsigned long long>(base.failed),
              base.attempted > 0 ? static_cast<double>(base.failed) /
                                       static_cast<double>(base.attempted)
                                 : 1.0);
  std::printf("# arm pulls:");
  for (const auto& [arm, n] : base.arm_pulls) {
    if (n > 0) std::printf(" %s=%llu", arm.c_str(),
                           static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  checks.AddCheck("ten_samples_above_p99", MinAboveP99(base) >= 10);
  if (!base.query_us.empty()) {
    checks.AddCheck("ten_query_samples_above_p99",
                    CountAbove(base.query_us, 0.99) >= 10);
  }

  uint64_t attempted = base.attempted;
  uint64_t failed = base.failed;
  bool correct = base.AllChecksPassed();
  Metrics reported = e2e;

  if (args.trace) {
    Tracer& tracer = Tracer::Get();
    tracer.Reset();
    tracer.Enable(true);
    RunOptions replay = options;
    replay.traced = true;
    replay.max_units = base.units;
    // The replay is bounded by the unit count; the time cap only guards
    // against a stalled engine (a cut replay fails the quality checks).
    replay.seconds = options.seconds * 3.0;
    RunResult traced = workload->Run(replay);
    tracer.Enable(false);
    PrintChecks("traced", traced);
    CheckTracedQuality(workload->Deterministic(), base, traced, args.bounds,
                       checks);
    reported = PerLayer(args.workload, base, traced);
    PrintMetrics("per_layer", reported);
    std::printf(
        "# note: offline recode work that goes through the codec registry "
        "(Segment::RecodeInPlace, TranscodeDirect, Materialize) is not "
        "visible to the codec decorators; it is counted in "
        "core.offline.drain_s and the core.ingest spans only.\n");
    std::string spans_path = args.workdir + "/spans-" + args.workload +
                             "-" + std::to_string(args.seed) + ".jsonl";
    long written = tracer.WriteSpans(spans_path);
    checks.AddCheck("spans_written", written >= 0, spans_path);
    std::printf("# spans: %ld written to %s, %llu beyond the retention cap\n",
                written, spans_path.c_str(),
                static_cast<unsigned long long>(tracer.DroppedSpans()));
    attempted += traced.attempted;
    failed += traced.failed;
    correct = correct && traced.AllChecksPassed();
  }
  bool finite = true;
  for (const Counter& c : reported.items) {
    finite = finite && std::isfinite(c.value);
  }
  checks.AddCheck("metrics_finite", finite);
  PrintChecks("run", checks);
  correct = correct && checks.AllChecksPassed() && failed == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.items.size(); ++i) {
    const Counter& c = reported.items[i];
    if (i > 0) json += ", ";
    json += JsonString(c.name) + ": {\"value\": " + JsonNumber(c.value) +
            ", \"unit\": " + JsonString(c.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
