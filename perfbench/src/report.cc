#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>

namespace perfbench {

namespace {

double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() {
  return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

void RunResult::AddCheck(std::string name, bool ok, std::string detail) {
  checks.push_back({std::move(name), ok, std::move(detail)});
}

void RunResult::AddCounter(std::string name, double value,
                           std::string unit) {
  counters.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::AddArmCounts(const std::vector<std::string>& counts,
                             const std::string& prefix) {
  for (const std::string& line : counts) {
    size_t colon = line.rfind(':');
    if (colon == std::string::npos) continue;
    arm_pulls[prefix + line.substr(0, colon)] +=
        std::stoull(line.substr(colon + 1));
  }
}

bool RunResult::AllChecksPassed() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

bool LosslessMatch(adaedge::compress::CodecId codec, int precision,
                   std::span<const double> decoded,
                   std::span<const double> original) {
  if (decoded.size() != original.size()) return false;
  if (std::memcmp(decoded.data(), original.data(),
                  decoded.size() * sizeof(double)) == 0) {
    return true;
  }
  if (codec != adaedge::compress::CodecId::kSprintz &&
      codec != adaedge::compress::CodecId::kBuff) {
    return false;
  }
  const double scale = std::pow(10.0, precision);
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (std::llround(decoded[i] * scale) != std::llround(original[i] * scale)) {
      return false;
    }
  }
  return true;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  index = std::min(index, samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

size_t CountAbove(const std::vector<double>& samples, double q) {
  double threshold = Percentile(samples, q);
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [threshold](double v) { return v > threshold; }));
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

}  // namespace perfbench
