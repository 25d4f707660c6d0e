#include "trace.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>

namespace perfbench {

namespace ac = adaedge::compress;

namespace {

/// Spans each thread keeps for the span file; totals cover every span.
constexpr size_t kRetainedSpansPerThread = 200000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Tracer::ThreadLog {
  struct Open {
    int name;
    uint64_t id;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Closed {
    int name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  int thread_index = 0;
  uint64_t next_id = 0;
  uint64_t dropped = 0;
  std::vector<Open> stack;
  std::vector<Closed> spans;
  std::vector<SpanTotals> totals;
};

struct Tracer::Registry {
  std::mutex mu;
  std::deque<std::string> names;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Tracer::Registry& Tracer::GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int Tracer::Intern(std::string_view name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return static_cast<int>(i);
  }
  r.names.emplace_back(name);
  return static_cast<int>(r.names.size() - 1);
}

const std::string& Tracer::Name(int id) const {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.names[static_cast<size_t>(id)];
}

int Tracer::NameCount() const {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return static_cast<int>(r.names.size());
}

Tracer::ThreadLog& Tracer::Local() {
  // Logs are owned by the registry and outlive their threads, so spans of
  // joined worker threads stay readable.
  thread_local ThreadLog* local = nullptr;
  if (local == nullptr) {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto log = std::make_unique<ThreadLog>();
    log->thread_index = static_cast<int>(r.logs.size());
    local = log.get();
    r.logs.push_back(std::move(log));
  }
  return *local;
}

void Tracer::Reset() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& log : r.logs) {
    log->stack.clear();
    log->spans.clear();
    log->totals.clear();
    log->dropped = 0;
  }
}

std::vector<SpanTotals> Tracer::Totals() const {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanTotals> merged(r.names.size());
  for (const auto& log : r.logs) {
    for (size_t i = 0; i < log->totals.size(); ++i) {
      merged[i].calls += log->totals[i].calls;
      merged[i].busy_s += log->totals[i].busy_s;
      merged[i].self_s += log->totals[i].self_s;
    }
  }
  return merged;
}

uint64_t Tracer::DroppedSpans() const {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  uint64_t dropped = 0;
  for (const auto& log : r.logs) dropped += log->dropped;
  return dropped;
}

long Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  long written = 0;
  for (const auto& log : r.logs) {
    for (const ThreadLog::Closed& s : log->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"thread\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   r.names[static_cast<size_t>(s.name)].c_str(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   log->thread_index, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      ++written;
    }
  }
  bool ok = std::ferror(f) == 0;
  ok = std::fclose(f) == 0 && ok;
  return ok ? written : -1;
}

Tracer::Span::Span(int name_id) : active_(Tracer::Get().enabled()) {
  if (!active_) return;
  ThreadLog& log = Tracer::Get().Local();
  uint64_t id = (static_cast<uint64_t>(log.thread_index) << 40) |
                ++log.next_id;
  log.stack.push_back({name_id, id, NowNs(), 0});
}

Tracer::Span::~Span() {
  if (!active_) return;
  int64_t end_ns = NowNs();
  ThreadLog& log = Tracer::Get().Local();
  ThreadLog::Open open = log.stack.back();
  log.stack.pop_back();
  int64_t duration = end_ns - open.start_ns;
  uint64_t parent = 0;
  if (!log.stack.empty()) {
    log.stack.back().child_ns += duration;
    parent = log.stack.back().id;
  }
  if (static_cast<size_t>(open.name) >= log.totals.size()) {
    log.totals.resize(static_cast<size_t>(open.name) + 1);
  }
  SpanTotals& totals = log.totals[static_cast<size_t>(open.name)];
  ++totals.calls;
  totals.busy_s += static_cast<double>(duration) * 1e-9;
  totals.self_s += static_cast<double>(duration - open.child_ns) * 1e-9;
  if (log.spans.size() < kRetainedSpansPerThread) {
    log.spans.push_back({open.name, open.id, parent, open.start_ns, end_ns});
  } else {
    ++log.dropped;
  }
}

TracedCodec::TracedCodec(std::shared_ptr<const ac::Codec> inner,
                         const std::string& arm_name)
    : inner_(std::move(inner)),
      encode_span_(Tracer::Get().Intern("compress.encode." + arm_name)),
      decode_span_(Tracer::Get().Intern("compress.decode." + arm_name)),
      recode_span_(Tracer::Get().Intern("compress.recode." + arm_name)) {}

ac::CodecId TracedCodec::id() const { return inner_->id(); }

ac::CodecKind TracedCodec::kind() const { return inner_->kind(); }

adaedge::util::Result<std::vector<uint8_t>> TracedCodec::Compress(
    std::span<const double> values, const ac::CodecParams& params) const {
  Tracer::Span span(encode_span_);
  return inner_->Compress(values, params);
}

size_t TracedCodec::MaxCompressedSize(size_t value_count) const {
  return inner_->MaxCompressedSize(value_count);
}

adaedge::util::Status TracedCodec::CompressInto(
    std::span<const double> values, const ac::CodecParams& params,
    std::vector<uint8_t>& out) const {
  Tracer::Span span(encode_span_);
  return inner_->CompressInto(values, params, out);
}

adaedge::util::Result<std::vector<double>> TracedCodec::Decompress(
    std::span<const uint8_t> payload) const {
  Tracer::Span span(decode_span_);
  return inner_->Decompress(payload);
}

bool TracedCodec::SupportsRatio(double ratio, size_t value_count) const {
  return inner_->SupportsRatio(ratio, value_count);
}

adaedge::util::Result<std::vector<uint8_t>> TracedCodec::Recode(
    std::span<const uint8_t> payload, double new_target_ratio) const {
  Tracer::Span span(recode_span_);
  return inner_->Recode(payload, new_target_ratio);
}

bool TracedCodec::SupportsRecode() const { return inner_->SupportsRecode(); }

adaedge::util::Result<double> TracedCodec::AggregateDirect(
    adaedge::query::AggKind kind, std::span<const uint8_t> payload) const {
  return inner_->AggregateDirect(kind, payload);
}

bool TracedCodec::SupportsDirectAggregate(
    adaedge::query::AggKind kind) const {
  return inner_->SupportsDirectAggregate(kind);
}

adaedge::util::Result<double> TracedCodec::ValueAt(
    std::span<const uint8_t> payload, uint64_t index) const {
  return inner_->ValueAt(payload, index);
}

bool TracedCodec::SupportsRandomAccess() const {
  return inner_->SupportsRandomAccess();
}

TracedModel::TracedModel(std::shared_ptr<const adaedge::ml::Model> inner)
    : inner_(std::move(inner)),
      predict_span_(Tracer::Get().Intern("ml.predict")) {}

adaedge::ml::ModelKind TracedModel::kind() const { return inner_->kind(); }

size_t TracedModel::num_features() const { return inner_->num_features(); }

int TracedModel::Predict(std::span<const double> features) const {
  Tracer::Span span(predict_span_);
  return inner_->Predict(features);
}

void TracedModel::SerializeBody(adaedge::util::ByteWriter& writer) const {
  inner_->SerializeBody(writer);
}

std::vector<ac::CodecArm> TraceArms(const std::vector<ac::CodecArm>& arms) {
  std::vector<ac::CodecArm> traced = arms;
  for (ac::CodecArm& arm : traced) {
    arm.codec = std::make_shared<TracedCodec>(arm.codec, arm.name);
  }
  return traced;
}

}  // namespace perfbench
