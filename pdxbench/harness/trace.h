// The traced run's span recorder. Spans are recorded by the harness
// around its calls into each library layer (nothing inside the library
// is instrumented): name, start, end, parent span and op id, kept in
// memory and written out once at the end of the run.
//
// Layers called once per op (artifact load, cache construction,
// selector.Run, a daemon round trip) get real spans. Layers called per
// cell (the what-if cache and the live optimizer beneath it) are timed by
// a TimingCostSource and recorded as one aggregate span per op under the
// span that drove them: its duration is the layer's summed busy time,
// its start the parent's start. A daemon reply's server-side wall_ms is
// recorded the same way under its round-trip span. Self time is a span's duration minus the
// durations of its children, so every op's layer rows add up to the op's
// wall time.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pdxbench {

class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  struct Span {
    const char* name = "";
    uint64_t op = 0;
    int32_t parent = kNoParent;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /// Per-call layer summed over the op (see header comment).
    bool aggregate = false;
    /// Calls folded into an aggregate span (1 for a real span).
    uint64_t calls = 1;
  };

  /// Opens a span; returns its id.
  int32_t Begin(const char* name, uint64_t op, int32_t parent);
  void End(int32_t id);
  /// Records a per-call layer's summed busy time under `parent`; returns
  /// its id, so a layer beneath it can nest.
  int32_t Aggregate(const char* name, uint64_t op, int32_t parent,
                    uint64_t busy_ns, uint64_t calls);

  struct LayerRow {
    double total_ms = 0.0;  // summed span durations
    double self_ms = 0.0;   // summed self time
    uint64_t spans = 0;
    uint64_t calls = 0;
  };
  /// Per span name: summed total and self time over the whole run.
  std::map<std::string, LayerRow> Layers() const;

  /// Writes the spans as a JSON array of objects, preceded by `stamp`
  /// (a JSON object literal), to `path`. Returns false on I/O failure.
  bool WriteJson(const std::string& path, const std::string& stamp) const;

  /// Prints the per-layer self-time table, per op, with each row's share
  /// of the op wall time.
  void PrintLayerTable() const;

 private:
  /// Number of distinct op ids with a root span, and their summed wall.
  uint64_t NumOps() const;
  double RootWallMs() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op, so untraced ops pay one
/// pointer test per layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op,
             int32_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, op, parent)
                              : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace pdxbench
