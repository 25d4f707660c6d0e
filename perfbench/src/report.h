#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Types shared by the workloads and main.cc: run options, the result
// of one measured run, output checks, and the percentile helpers.

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <span>
#include <vector>

#include "adaedge/compress/codec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds consumed so far by the whole process / the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// CBF segments as the paper streams them: 1024 points = 8 instances of
/// 128, rounded to 4 decimals.
inline constexpr size_t kSegmentLength = 1024;
inline constexpr size_t kInstanceLength = 128;
inline constexpr int kPrecision = 4;

struct RunOptions {
  /// Measurement budget: a run stops taking new work after this long.
  double seconds = 10.0;
  /// A run also stops after this many work units (segments, signals or
  /// episodes, per workload): the traced run replays exactly the units
  /// its untraced twin measured.
  uint64_t max_units = std::numeric_limits<uint64_t>::max();
  /// Decorate codecs and models and span the engine calls.
  bool traced = false;
  /// Directory for files a run writes (spill files).
  std::string workdir;
};

/// One named output check; any failed check fails the run.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// A count or measurement a workload reads from the engines (not from
/// spans): "sim.egress.spilled", "core.offline.recode_ops", ...
struct Counter {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A stretch of a run over which the end-to-end timings are taken: the
/// latency samples [begin, end) and, for closed loops, the points carried
/// and wall seconds spent in it. A run reports the median over its
/// windows, so a burst of interference from outside the process moves
/// a few windows rather than the whole result.
struct Window {
  size_t begin = 0;
  size_t end = 0;
  uint64_t points = 0;
  double seconds = 0.0;  // 0: the run's throughput is taken as a whole
};

struct RunResult {
  /// Work units done (see RunOptions::max_units) and raw points carried.
  uint64_t units = 0;
  uint64_t points = 0;
  /// Timed wall seconds: from the first operation until the work drained.
  double wall_s = 0.0;
  /// CPU seconds the process spent over the timed region (harness spinning
  /// excluded); the traced/untraced ratio per unit is the tracing overhead.
  double cpu_s = 0.0;
  /// Per-operation latencies in microseconds (Ingest calls, or batch
  /// emission for the open-loop fleet) and AggregateRange latencies.
  std::vector<double> latency_us;
  std::vector<Window> windows;
  std::vector<double> query_us;
  /// Producer lateness against its schedule (open loop only).
  std::vector<double> generator_lag_us;
  double bytes_ratio = 0.0;
  double task_accuracy = 0.0;
  /// Operations attempted and failed: non-OK statuses, decode mismatches
  /// and query errors.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Segments (or batches) the engine compressed lossily / in total, for
  /// the per-segment span ratios.
  uint64_t lossy_segments = 0;
  uint64_t segments = 0;
  /// Bandit pulls per arm, compared between traced and untraced runs.
  std::map<std::string, uint64_t> arm_pulls;
  std::vector<Counter> counters;
  std::vector<Check> checks;

  void AddCheck(std::string name, bool ok, std::string detail = "");
  void AddCounter(std::string name, double value, std::string unit);
  /// Adds an engine's "name:count" ArmCounts() lines to arm_pulls, each
  /// name prefixed by `prefix`.
  void AddArmCounts(const std::vector<std::string>& counts,
                    const std::string& prefix = "");
  bool AllChecksPassed() const;
};

/// A benchmark workload: one engine, one input family, one load shape.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One timed set-up as a user pays it (model training, node
  /// construction and start); returns wall seconds.
  virtual double SetupOnce() = 0;
  /// Drives the engine under `options` and checks its outputs.
  virtual RunResult Run(const RunOptions& options) = 0;
  /// True when a seeded run is deterministic (serial engine, no timing in
  /// the reward), so a traced replay must match its untraced twin exactly.
  virtual bool Deterministic() const = 0;
};

std::unique_ptr<Workload> MakeOnlineWorkload(const std::string& model,
                                             uint64_t seed);
std::unique_ptr<Workload> MakeFleetWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeOfflineWorkload(uint64_t seed);

/// True when a lossless codec restored `original`: bit for bit, or, for
/// the quantizing codecs (BUFF, Sprintz) whose documented contract is
/// exactness at their decimal precision, equal at `precision` digits.
bool LosslessMatch(adaedge::compress::CodecId codec, int precision,
                   std::span<const double> decoded,
                   std::span<const double> original);

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the q-th percentile.
size_t CountAbove(const std::vector<double>& samples, double q);

double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
