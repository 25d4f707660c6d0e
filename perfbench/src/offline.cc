// offline_budget: an OfflineNode with 2 background recode threads and a
// sum-aggregate target, fed CBF segments by a closed-loop producer that
// overcommits a 1 MiB budget about 50x per episode, with an AggregateRange
// over the recent window every few segments, concurrent with the recoding.

#include <cmath>
#include <map>

#include "adaedge/compress/registry.h"
#include "adaedge/core/offline_node.h"
#include "adaedge/core/range_query.h"
#include "adaedge/data/generators.h"
#include "adaedge/query/aggregate.h"
#include "adaedge/util/rng.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace ae = adaedge;

constexpr size_t kBudgetBytes = size_t{1} << 20;
/// Raw bytes per episode = 50 x the budget: 6400 segments of 8 KiB.
constexpr uint64_t kEpisodeSegments = 50 * kBudgetBytes /
                                      (kSegmentLength * sizeof(double));
constexpr size_t kPoolSegments = 2048;
constexpr uint64_t kQueryEvery = 16;
constexpr uint64_t kQueryWindowSegments = 64;
/// Ranges checked against the decompress-and-aggregate reference at the
/// end of each episode, once recoding is idle.
constexpr int kReferenceQueries = 32;
constexpr double kIngestPointsPerSec = 1.0e6;
constexpr ae::query::AggKind kAgg = ae::query::AggKind::kSum;

class OfflineWorkload final : public Workload {
 public:
  explicit OfflineWorkload(uint64_t seed) : seed_(seed) {
    ae::data::CbfStream stream(seed_, kInstanceLength, kPrecision);
    pool_.resize(kPoolSegments);
    for (auto& segment : pool_) {
      segment.resize(kSegmentLength);
      stream.Fill(segment);
    }
  }

  double SetupOnce() override {
    Clock::time_point start = Clock::now();
    auto node = ae::core::OfflineNode::Create(Config(false), Target());
    double seconds = SecondsSince(start);
    return node.ok() ? seconds : -1.0;
  }

  // The recode pool races the ingest thread.
  bool Deterministic() const override { return false; }

  RunResult Run(const RunOptions& options) override;

 private:
  static ae::core::TargetSpec Target() {
    return ae::core::TargetSpec::AggAccuracy(kAgg);
  }

  ae::core::OfflineConfig Config(bool traced) const {
    ae::core::OfflineConfig config;
    config.storage_budget_bytes = kBudgetBytes;
    config.precision = kPrecision;
    config.recode_threads = 2;
    auto lossless = ae::compress::DefaultLosslessArms(kPrecision);
    auto lossy = ae::compress::DefaultLossyArms(kPrecision);
    config.lossless_arms = traced ? TraceArms(lossless) : lossless;
    config.lossy_arms = traced ? TraceArms(lossy) : lossy;
    return config;
  }

  const std::vector<double>& Input(uint64_t episode, uint64_t k) const {
    return pool_[(episode * kEpisodeSegments + k) % pool_.size()];
  }

  /// Checks the quiescent store of one episode; returns the mean
  /// aggregate accuracy of the retained segments against the inputs.
  double CheckStore(ae::core::OfflineNode& node, uint64_t episode,
                    uint64_t ingested, RunResult& result,
                    std::map<std::string, uint64_t>& bad) const;

  uint64_t seed_;
  std::vector<std::vector<double>> pool_;
};

RunResult OfflineWorkload::Run(const RunOptions& options) {
  RunResult result;
  const int ingest_span = Tracer::Get().Intern("core.ingest");
  const int query_span = Tracer::Get().Intern("core.range_query");
  const int drain_span = Tracer::Get().Intern("core.offline.drain");

  std::map<std::string, uint64_t> bad;  // failed operations by kind
  std::string first_error;
  auto fail = [&](const std::string& kind, const std::string& detail) {
    ++bad[kind];
    ++result.failed;
    if (first_error.empty()) first_error = kind + ": " + detail;
  };

  double accuracy_sum = 0.0;
  double bytes_ratio_sum = 0.0;
  double peak_utilization = 0.0;
  uint64_t recode_ops = 0;
  uint64_t deferred = 0;
  uint64_t in_situ = 0;
  uint64_t decompressed = 0;
  uint64_t episode = 0;
  for (; episode < options.max_units && result.wall_s < options.seconds;
       ++episode) {
    auto created = ae::core::OfflineNode::Create(Config(options.traced),
                                                 Target());
    ++result.attempted;
    if (!created.ok()) {
      fail("create", created.status().ToString());
      break;
    }
    ae::core::OfflineNode& node = *created.value();
    size_t first_sample = result.latency_us.size();
    double cpu_start = ProcessCpuSeconds();
    Clock::time_point start = Clock::now();
    for (uint64_t k = 0; k < kEpisodeSegments; ++k) {
      double now = static_cast<double>(k * kSegmentLength) /
                   kIngestPointsPerSec;
      Clock::time_point call = Clock::now();
      ae::util::Status status = [&] {
        Tracer::Span span(ingest_span);
        return node.Ingest(k, now, Input(episode, k));
      }();
      result.latency_us.push_back(SecondsSince(call) * 1e6);
      ++result.attempted;
      if (!status.ok()) fail("ingest", status.ToString());
      size_t used = node.store().total_bytes();
      peak_utilization = std::max(
          peak_utilization,
          static_cast<double>(used) / static_cast<double>(kBudgetBytes));
      if (used > kBudgetBytes) {
        fail("budget", std::to_string(used) + " bytes stored");
      }
      if ((k + 1) % kQueryEvery == 0) {
        uint64_t to = (k + 1) * kSegmentLength;
        uint64_t from = (k + 1 > kQueryWindowSegments)
                            ? to - kQueryWindowSegments * kSegmentLength
                            : 0;
        Clock::time_point q = Clock::now();
        auto range = [&] {
          Tracer::Span span(query_span);
          return ae::core::AggregateRange(node.store(), kAgg, from, to);
        }();
        result.query_us.push_back(SecondsSince(q) * 1e6);
        ++result.attempted;
        if (!range.ok()) {
          fail("query", range.status().ToString());
        } else if (range.value().count != to - from ||
                   !std::isfinite(range.value().value)) {
          fail("query", "covered " + std::to_string(range.value().count) +
                            " of " + std::to_string(to - from) + " values");
        } else {
          in_situ += range.value().in_situ_segments;
          decompressed += range.value().decompressed_segments;
        }
      }
    }
    ae::util::Status idle = [&] {
      Tracer::Span span(drain_span);
      return node.WaitForRecodingIdle();
    }();
    double seconds = SecondsSince(start);
    result.wall_s += seconds;
    result.cpu_s += ProcessCpuSeconds() - cpu_start;
    result.windows.push_back({first_sample, result.latency_us.size(),
                              kEpisodeSegments * kSegmentLength, seconds});
    ++result.attempted;
    if (!idle.ok()) fail("drain", idle.ToString());
    result.points += kEpisodeSegments * kSegmentLength;
    result.segments += kEpisodeSegments;

    if (node.PendingPulls() != 0) fail("pending_pulls", "nonzero at idle");
    accuracy_sum += CheckStore(node, episode, kEpisodeSegments, result, bad);
    bytes_ratio_sum +=
        static_cast<double>(node.store().total_bytes()) /
        static_cast<double>(kEpisodeSegments * kSegmentLength *
                            sizeof(double));
    recode_ops += node.recode_ops();
    deferred += node.deferred_recodes();
    result.AddArmCounts(node.ArmCounts());
  }
  result.units = episode;
  auto check = [&](const std::string& name,
                   std::initializer_list<const char*> kinds) {
    uint64_t n = 0;
    for (const char* kind : kinds) n += bad.count(kind) ? bad[kind] : 0;
    result.AddCheck(name, n == 0,
                    n == 0 ? "" : std::to_string(n) + " failed; first: " +
                                      first_error);
  };
  check("ingest_status_ok", {"create", "ingest"});
  check("store_within_budget_after_every_ingest", {"budget"});
  check("range_queries_ok", {"query"});
  check("recoding_idle", {"drain"});
  check("pending_pulls_zero", {"pending_pulls"});
  check("stored_segments_decode", {"decode"});
  check("aggregate_range_equals_reference", {"reference"});

  double episodes = static_cast<double>(std::max<uint64_t>(episode, 1));
  result.task_accuracy = accuracy_sum / episodes;
  result.bytes_ratio = bytes_ratio_sum / episodes;
  result.AddCounter("core.offline.recode_ops",
                    static_cast<double>(recode_ops), "count");
  result.AddCounter("core.offline.deferred_recodes",
                    static_cast<double>(deferred), "count");
  result.AddCounter("core.store.peak_utilization", peak_utilization, "ratio");
  result.AddCounter(
      "core.range_query.in_situ_share",
      in_situ + decompressed > 0
          ? static_cast<double>(in_situ) /
                static_cast<double>(in_situ + decompressed)
          : 0.0,
      "ratio");
  return result;
}

double OfflineWorkload::CheckStore(ae::core::OfflineNode& node,
                                   uint64_t episode, uint64_t ingested,
                                   RunResult& result,
                                   std::map<std::string, uint64_t>& bad) const {
  const ae::core::SegmentStore& store = node.store();
  std::vector<uint64_t> ids = store.AllIds();
  std::vector<std::vector<double>> stored;
  stored.reserve(ids.size());
  double accuracy = 0.0;
  for (uint64_t id : ids) {
    ++result.attempted;
    auto segment = store.Peek(id);
    bool ok = segment.ok() &&
              segment.value().meta().value_count == kSegmentLength;
    auto values = ok ? segment.value().Materialize()
                     : ae::util::Result<std::vector<double>>(
                           ae::util::Status::Corruption("unreadable"));
    if (!values.ok() || values.value().size() != kSegmentLength) {
      ++bad["decode"];
      ++result.failed;
      stored.emplace_back(kSegmentLength, 0.0);
      continue;
    }
    accuracy += ae::query::RelativeAggAccuracy(kAgg, Input(episode, id),
                                               values.value());
    stored.push_back(std::move(values).value());
  }
  if (ids.size() != ingested) {
    ++bad["decode"];
    ++result.failed;
  }

  // AggregateRange against decompress-and-aggregate over random ranges,
  // partial edge segments included.
  ae::util::Rng rng(seed_ ^ (episode + 1));
  const uint64_t total = stored.size() * kSegmentLength;
  for (int q = 0; q < kReferenceQueries && total > 0; ++q) {
    uint64_t from = rng.NextBelow(total);
    uint64_t to = from + 1 + rng.NextBelow(std::min<uint64_t>(
                                 total - from, 200 * kSegmentLength));
    ++result.attempted;
    auto range = ae::core::AggregateRange(store, kAgg, from, to);
    double reference = 0.0;
    double magnitude = 0.0;
    for (uint64_t v = from; v < to; ++v) {
      double x = stored[v / kSegmentLength][v % kSegmentLength];
      reference += x;
      magnitude += std::fabs(x);
    }
    if (!range.ok() || range.value().count != to - from ||
        std::fabs(range.value().value - reference) >
            1e-9 * (1.0 + magnitude)) {
      ++bad["reference"];
      ++result.failed;
    }
  }
  return ids.empty() ? 0.0 : accuracy / static_cast<double>(ids.size());
}

}  // namespace

std::unique_ptr<Workload> MakeOfflineWorkload(uint64_t seed) {
  return std::make_unique<OfflineWorkload>(seed);
}

}  // namespace perfbench
