// fleet_lowentropy: a FleetNode of 2 shards x 1 worker fed 16-point
// low-entropy signals from 4096 sensors by ONE open-loop producer at a
// fixed offered rate, with ONE consumer popping compressed batches.

#include <thread>

#include "adaedge/compress/registry.h"
#include "adaedge/core/fleet.h"
#include "adaedge/data/generators.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace ae = adaedge;

constexpr size_t kSignalLength = 16;
constexpr uint64_t kSensors = 4096;
constexpr size_t kPoolSignals = 65536;
constexpr size_t kBatchSignals = 64;
constexpr int kShards = 2;
constexpr size_t kWindowBatches = 1024;
/// Offered load, well below the 2-shard capacity (about 0.4-0.6 M
/// signals/s closed loop on a 4-core x86 host), so queues stay short and
/// the emission latency reflects service time rather than a backlog.
constexpr double kSignalsPerSec = 200000.0;
/// Lossless-feasible: DEFLATE crushes the repeating pattern far below it.
constexpr double kTargetRatio = 0.5;

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(uint64_t seed) : seed_(seed) {
    ae::data::LowEntropyStream stream(seed_, kPrecision);
    pool_.resize(kPoolSignals);
    for (auto& signal : pool_) {
      signal.resize(kSignalLength);
      stream.Fill(signal);
    }
  }

  double SetupOnce() override {
    Clock::time_point start = Clock::now();
    auto fleet = ae::core::FleetNode::Create(Config(false), Target());
    if (!fleet.ok()) return -1.0;
    fleet.value()->Start();
    double seconds = SecondsSince(start);
    fleet.value()->Stop();
    return seconds;
  }

  // Shard workers race the cross-shard policy merges.
  bool Deterministic() const override { return false; }

  RunResult Run(const RunOptions& options) override;

 private:
  static ae::core::TargetSpec Target() {
    return ae::core::TargetSpec::AggAccuracy(ae::query::AggKind::kSum);
  }

  ae::core::FleetConfig Config(bool traced) const {
    ae::core::FleetConfig config;
    config.shards = kShards;
    config.threads_per_shard = 1;
    config.batch_segments = kBatchSignals;
    config.queue_capacity = 64;
    config.block_on_full = true;
    config.merge_interval_batches = 64;
    config.online.target_ratio = kTargetRatio;
    config.online.precision = kPrecision;
    auto lossless = ae::compress::DefaultLosslessArms(kPrecision);
    auto lossy = ae::compress::DefaultLossyArms(kPrecision);
    config.online.lossless_arms = traced ? TraceArms(lossless) : lossless;
    config.online.lossy_arms = traced ? TraceArms(lossy) : lossy;
    return config;
  }

  uint64_t seed_;
  std::vector<std::vector<double>> pool_;
};

RunResult FleetWorkload::Run(const RunOptions& options) {
  RunResult result;
  auto created = ae::core::FleetNode::Create(Config(options.traced), Target());
  if (!created.ok()) {
    result.AddCheck("fleet_create", false, created.status().ToString());
    result.attempted = 1;
    result.failed = 1;
    return result;
  }
  ae::core::FleetNode& fleet = *created.value();
  const int ingest_span = Tracer::Get().Intern("core.fleet.ingest");
  const int drain_span = Tracer::Get().Intern("core.fleet.drain");

  // Open loop: signal i is due at start + i / rate whatever the fleet's
  // state, and `now` carries its due time, so a batch's ingest_time is the
  // due time of its newest signal. Emission latency runs from there to the
  // consumer's PopCompressed.
  uint64_t signals = static_cast<uint64_t>(options.seconds * kSignalsPerSec);
  signals = std::min(signals, options.max_units);
  const double period_s = 1.0 / kSignalsPerSec;
  std::vector<ae::core::FleetNode::CompressedBatch> batches;
  std::vector<double> emission_us;
  batches.reserve(signals / kBatchSignals + kSensors);
  emission_us.reserve(signals / kBatchSignals + kSensors);

  fleet.Start();
  double cpu_start = ProcessCpuSeconds();
  double producer_cpu_start = ThreadCpuSeconds();
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::thread consumer([&] {
    while (auto batch = fleet.PopCompressed()) {
      Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          batch->segment.meta().ingest_time));
      emission_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      batches.push_back(std::move(*batch));
    }
  });

  std::string first_error;
  result.generator_lag_us.reserve(signals);
  for (uint64_t i = 0; i < signals; ++i) {
    double due_s = static_cast<double>(i) * period_s;
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
    Clock::time_point now = Clock::now();
    while (now < due) now = Clock::now();
    result.generator_lag_us.push_back(
        std::chrono::duration<double, std::micro>(now - due).count());
    ae::util::Status status = [&] {
      Tracer::Span span(ingest_span);
      return fleet.Ingest(i % kSensors, pool_[i % pool_.size()], due_s);
    }();
    if (!status.ok()) {
      ++result.failed;
      if (first_error.empty()) first_error = status.ToString();
    }
  }
  ae::util::Status flushed = [&] {
    Tracer::Span span(drain_span);
    ae::util::Status s = fleet.Flush();
    fleet.Stop();
    return s;
  }();
  consumer.join();
  result.wall_s = SecondsSince(start);
  // The producer mostly spins waiting for due times; leave it out so the
  // CPU figure is the engine's (workers, consumer, and little else).
  result.cpu_s = (ProcessCpuSeconds() - cpu_start) -
                 (ThreadCpuSeconds() - producer_cpu_start);
  result.latency_us = std::move(emission_us);
  // The offered rate fixes the throughput, so windows only group the
  // emission latencies (in pop order); the last partial window is left out.
  for (size_t b = kWindowBatches; b <= result.latency_us.size();
       b += kWindowBatches) {
    result.windows.push_back({b - kWindowBatches, b, 0, 0.0});
  }

  result.units = signals;
  result.attempted = signals + 1;
  if (!flushed.ok()) {
    ++result.failed;
    if (first_error.empty()) first_error = flushed.ToString();
  }
  result.AddCheck("ingest_status_ok", result.failed == 0, first_error);

  uint64_t in = fleet.signals_in();
  uint64_t out = fleet.signals_out();
  uint64_t rejected = fleet.signals_rejected();
  uint64_t popped = 0;
  for (const auto& batch : batches) popped += batch.entries.size();
  uint64_t dropped = out - std::min(out, popped);
  result.AddCheck("in_eq_out_rejected_dropped",
                  in == signals && in == out + rejected && dropped == 0,
                  "in=" + std::to_string(in) + " out=" + std::to_string(out) +
                      " rejected=" + std::to_string(rejected) +
                      " popped=" + std::to_string(popped));
  bool pulls_settled = true;
  for (int s = 0; s < fleet.NumShards(); ++s) {
    pulls_settled =
        pulls_settled && fleet.shard_selector(s).PendingPulls() == 0;
  }
  result.AddCheck("pending_pulls_zero", pulls_settled);

  // Decode side: every batch splits back into its sensors' signals. A
  // sensor always routes to one shard, whose single worker emits batches
  // in order, so the k-th signal seen for sensor s is input s + k*kSensors.
  std::vector<uint64_t> seen(kSensors, 0);
  uint64_t exact = 0;
  uint64_t split_failures = 0;
  for (const auto& batch : batches) {
    ++result.attempted;
    auto split = ae::core::FleetNode::SplitBatch(batch);
    if (!split.ok() || split.value().size() != batch.entries.size()) {
      ++split_failures;
      continue;
    }
    for (const auto& sensor : split.value()) {
      uint64_t k = seen[sensor.sensor_id % kSensors]++;
      uint64_t input = sensor.sensor_id + k * kSensors;
      const std::vector<double>& original = pool_[input % pool_.size()];
      if (LosslessMatch(batch.segment.meta().codec,
                        batch.segment.meta().params.precision, sensor.values,
                        original)) {
        ++exact;
      }
    }
  }
  result.failed += split_failures + (popped - std::min(popped, exact));
  result.AddCheck("split_batch_equals_inputs",
                  split_failures == 0 && exact == popped && popped == signals,
                  std::to_string(exact) + " of " + std::to_string(signals) +
                      " signals exact");

  result.points = popped * kSignalLength;
  result.segments = fleet.batches_out();
  result.task_accuracy =
      signals > 0 ? static_cast<double>(exact) / static_cast<double>(signals)
                  : 0.0;
  result.bytes_ratio =
      fleet.bytes_in() > 0 ? static_cast<double>(fleet.bytes_out()) /
                                 static_cast<double>(fleet.bytes_in())
                           : 0.0;
  for (int s = 0; s < fleet.NumShards(); ++s) {
    result.AddArmCounts(fleet.shard_selector(s).ArmCounts(),
                        "shard" + std::to_string(s) + ".");
  }
  uint64_t lossy = 0;
  for (const auto& batch : batches) {
    if (batch.segment.meta().state == ae::core::SegmentState::kLossy) ++lossy;
  }
  result.lossy_segments = lossy;
  result.AddCounter("core.fleet.batches",
                    static_cast<double>(fleet.batches_out()), "count");
  result.AddCounter("core.fleet.merges", static_cast<double>(fleet.merges()),
                    "count");
  result.AddCounter("bandit.lossy_share",
                    batches.empty() ? 0.0
                                    : static_cast<double>(lossy) /
                                          static_cast<double>(batches.size()),
                    "ratio");
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeFleetWorkload(uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed);
}

}  // namespace perfbench
