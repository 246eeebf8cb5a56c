// Shared machinery of the two single-client workloads (cli-compare and
// select-skewed): the per-op what-if stack, the timed closed loop, the
// correctness gate over batch references, and the metrics both report.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common.h"
#include "trace.h"

namespace pdxbench {

/// What one op leaves behind for the metrics and the correctness gate.
struct OpRecord {
  uint64_t seed = 0;
  bool traced = false;
  bool ok = false;
  double ms = 0.0;
  pdx::SelectionResult result;
  uint64_t whatif_calls = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
};

/// Per-layer accumulators over the traced ops.
struct LayerTotals {
  uint64_t ops = 0;
  double load_schema_ms = 0.0;
  double load_workload_ms = 0.0;
  double load_configs_ms = 0.0;
  double cache_construct_ms = 0.0;
  double run_ms = 0.0;
  uint64_t whatif_calls = 0;
  uint64_t whatif_busy_ns = 0;
  uint64_t cache_busy_ns = 0;
};

/// The what-if stack of one op — live source under the default exact
/// cache — and, in a traced op, timing sources beneath and above the
/// cache. Construction is the op's cache-construction layer.
class CacheStack {
 public:
  CacheStack(const pdx::WhatIfOptimizer& optimizer,
             const pdx::Workload& workload,
             std::vector<pdx::Configuration> configs, bool traced);
  CacheStack(const CacheStack&) = delete;
  CacheStack& operator=(const CacheStack&) = delete;

  /// Runs one selection at `seed` under a core.selector.run span, then
  /// records the cache and what-if layers beneath it (traced ops only)
  /// and the op's call accounting into `rec`.
  void Select(uint64_t seed, Tracer* tracer, uint64_t op, int32_t parent,
              LayerTotals* layers, OpRecord* rec);

 private:
  pdx::WhatIfCostSource live_;
  std::optional<TimingCostSource> below_;
  std::optional<pdx::CachingCostSource> cache_;
  std::optional<TimingCostSource> above_;
};

struct LoopSpec {
  /// Untimed ops run first, so the timed ops start with warm caches and
  /// a grown heap.
  uint64_t warmup_ops = 2;
  /// Ops always timed, whatever the time budget; the deterministic
  /// counts (calls, samples, correct selections) are taken over exactly
  /// these, so they repeat at a fixed seed.
  uint64_t min_ops = 0;
};

/// One op at `seed`; a non-null tracer makes it a traced op.
using OpFn = std::function<OpRecord(uint64_t seed, uint64_t op,
                                    Tracer* tracer)>;
/// Fingerprint of a fresh batch construction at `seed`.
using ReferenceFn = std::function<std::string(uint64_t seed)>;

/// Runs the timed closed loop (every other op traced in the traced run,
/// so the untraced ops give that run's baseline for the overhead), then
/// the correctness gate — every op's selection against its batch
/// reference, computed in parallel outside timing — and reports the
/// end-to-end metrics. `totals` are the candidates' exact totals.
std::vector<OpRecord> RunSingleClient(const Args& args, const LoopSpec& spec,
                                      Tracer* tracer, const OpFn& op,
                                      const ReferenceFn& reference,
                                      const std::vector<double>& totals,
                                      Report* report);

/// Per-layer metrics of the cache, what-if and selector layers over the
/// traced ops.
void ReportSelectionLayers(const LayerTotals& layers,
                           const std::vector<OpRecord>& ops, Report* report);

}  // namespace pdxbench
