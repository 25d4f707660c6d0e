#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recording for the traced benchmark run. Spans are recorded only
// from the benchmark's own files: decorators around the library's public
// interfaces (compress::Codec, ml::Model) and scoped spans around the
// engine entry points. The library itself carries no instrumentation.
//
// Each thread keeps a stack of open spans; a span's parent is the span
// open below it on the same thread. Closing a span adds its duration to
// its parent's child time, so self time (duration minus the part covered
// by child spans) is computed as spans close. Per-name totals cover every
// span; the individual spans are kept in memory up to a per-thread cap and
// written out at the end of the run.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adaedge/compress/codec.h"
#include "adaedge/ml/model.h"

namespace perfbench {

/// Totals over every closed span of one name.
struct SpanTotals {
  uint64_t calls = 0;
  double busy_s = 0.0;  // summed durations
  double self_s = 0.0;  // summed durations minus child-span time
};

class Tracer {
 public:
  /// The process-wide recorder (spans from every thread land here).
  static Tracer& Get();

  /// Returns the id of `name`, registering it on first use. Call outside
  /// hot loops; span names are interned once by their owners.
  int Intern(std::string_view name);

  /// Recording is off until enabled; a Span of a disabled tracer does
  /// nothing.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded span and total (names stay interned). Call only
  /// while no other thread records.
  void Reset();

  /// Per-name totals merged over all threads, indexed by name id. Call
  /// only after every recording thread has been joined or is idle.
  std::vector<SpanTotals> Totals() const;
  const std::string& Name(int id) const;
  int NameCount() const;

  /// Writes the retained spans as JSON lines
  /// {"name","id","parent","thread","start_ns","end_ns"}; returns the
  /// number of spans written, or -1 when the file cannot be written.
  long WriteSpans(const std::string& path) const;

  /// Spans recorded but not retained because a thread hit its cap.
  uint64_t DroppedSpans() const;

  /// Scoped span: opens on construction, closes on destruction.
  class Span {
   public:
    explicit Span(int name_id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    bool active_;
  };

 private:
  struct ThreadLog;
  struct Registry;
  Tracer() = default;
  static Registry& GetRegistry();
  ThreadLog& Local();

  std::atomic<bool> enabled_{false};
};

/// compress::Codec decorator: forwards every virtual method to `inner`
/// unchanged, recording "compress.encode.<arm>" around Compress /
/// CompressInto, "compress.decode.<arm>" around Decompress and
/// "compress.recode.<arm>" around Recode.
class TracedCodec final : public adaedge::compress::Codec {
 public:
  TracedCodec(std::shared_ptr<const adaedge::compress::Codec> inner,
              const std::string& arm_name);

  adaedge::compress::CodecId id() const override;
  adaedge::compress::CodecKind kind() const override;
  adaedge::util::Result<std::vector<uint8_t>> Compress(
      std::span<const double> values,
      const adaedge::compress::CodecParams& params) const override;
  size_t MaxCompressedSize(size_t value_count) const override;
  adaedge::util::Status CompressInto(
      std::span<const double> values,
      const adaedge::compress::CodecParams& params,
      std::vector<uint8_t>& out) const override;
  adaedge::util::Result<std::vector<double>> Decompress(
      std::span<const uint8_t> payload) const override;
  bool SupportsRatio(double ratio, size_t value_count) const override;
  adaedge::util::Result<std::vector<uint8_t>> Recode(
      std::span<const uint8_t> payload,
      double new_target_ratio) const override;
  bool SupportsRecode() const override;
  adaedge::util::Result<double> AggregateDirect(
      adaedge::query::AggKind kind,
      std::span<const uint8_t> payload) const override;
  bool SupportsDirectAggregate(adaedge::query::AggKind kind) const override;
  adaedge::util::Result<double> ValueAt(std::span<const uint8_t> payload,
                                        uint64_t index) const override;
  bool SupportsRandomAccess() const override;

 private:
  std::shared_ptr<const adaedge::compress::Codec> inner_;
  int encode_span_;
  int decode_span_;
  int recode_span_;
};

/// ml::Model decorator: forwards every virtual method to `inner`,
/// recording "ml.predict" around Predict.
class TracedModel final : public adaedge::ml::Model {
 public:
  explicit TracedModel(std::shared_ptr<const adaedge::ml::Model> inner);

  adaedge::ml::ModelKind kind() const override;
  size_t num_features() const override;
  int Predict(std::span<const double> features) const override;
  void SerializeBody(adaedge::util::ByteWriter& writer) const override;

 private:
  std::shared_ptr<const adaedge::ml::Model> inner_;
  int predict_span_;
};

/// The arm list with every codec wrapped in a TracedCodec (same order,
/// names and parameters).
std::vector<adaedge::compress::CodecArm> TraceArms(
    const std::vector<adaedge::compress::CodecArm>& arms);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
