// Copyright (c) the pdexplore authors.
// Structured tracing of a selection run (ISSUE 3). A TraceSink observes
// the events Algorithm 1 produces — per-round Pr(CS) state, eliminations,
// stratification splits, incumbent changes — without perturbing the run:
// the selector draws no randomness and makes no optimizer calls on behalf
// of the sink, so a traced run is byte-identical to an untraced one.
//
// Cost discipline: a null sink is the disabled state and costs exactly one
// pointer test per event site; event structs are only materialized inside
// that branch. The JSONL sink serializes each event to one JSON line and
// emits it with a single locked write, so it is safe to share across
// ThreadPool workers (e.g. one traced trial inside a parallel Monte-Carlo
// sweep).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/types.h"
#include "common/span.h"
#include "common/status.h"

namespace pdx {

/// Shared obs-histogram names for per-call what-if latency, attributed to
/// the cache outcome of the call (see core/cost_source.cc). The trace's
/// whatif_latency summary events read these back.
inline constexpr char kWhatIfColdNsMetric[] = "pdx_whatif_cold_ns";
inline constexpr char kWhatIfSignatureHitNsMetric[] =
    "pdx_whatif_signature_hit_ns";
inline constexpr char kWhatIfExactHitNsMetric[] = "pdx_whatif_exact_hit_ns";

/// Per-pair Pr(CS) state within a round event. `gap` is the observed cost
/// gap in the direction that favors the incumbent (positive = incumbent
/// ahead), `se` the standard error of the gap estimator; both are 0 for
/// pairs frozen by elimination (their Pr(CS) is the frozen value).
struct TracePair {
  ConfigId config = 0;
  double pr_cs = 0.0;
  double gap = 0.0;
  double se = 0.0;
  bool active = true;
};

/// Emitted once when a selection run begins.
struct TraceRunStart {
  const char* scheme = "delta";  // "delta" | "independent"
  uint64_t num_configs = 0;
  uint64_t num_templates = 0;
  uint64_t workload_size = 0;
  double alpha = 0.0;
  double delta = 0.0;
  uint32_t n_min = 0;
  bool stratify = false;
  double elimination_threshold = 1.0;
};

/// Emitted once per selection-loop round, after the Bonferroni bound is
/// evaluated. `samples`/`optimizer_calls` are cumulative for the run.
struct TraceRound {
  uint64_t round = 0;
  uint64_t samples = 0;
  uint64_t optimizer_calls = 0;
  ConfigId incumbent = 0;
  double bonferroni = 0.0;
  uint32_t active_configs = 0;
  uint32_t num_strata = 0;
  std::vector<TracePair> pairs;
};

/// A configuration frozen out by elimination.
struct TraceElimination {
  uint64_t round = 0;
  ConfigId config = 0;
  double pr_cs = 0.0;
  double threshold = 0.0;
  std::string reason;
};

/// A stratification split accepted by Algorithm 2. `config` is the
/// configuration whose stratification split (kSharedStratification for
/// Delta Sampling's shared one). `neyman` is the post-split Neyman
/// allocation of the estimated required sample total over all strata.
struct TraceSplit {
  static constexpr int32_t kSharedStratification = -1;

  uint64_t round = 0;
  int32_t config = kSharedStratification;
  uint32_t stratum = 0;
  uint32_t new_stratum = 0;
  std::vector<TemplateId> part1;
  uint64_t est_total_samples = 0;
  std::vector<double> neyman;
};

/// Incumbent-best change between rounds.
struct TraceIncumbent {
  uint64_t round = 0;
  ConfigId from = 0;
  ConfigId to = 0;
};

/// Emitted once when the run terminates; mirrors SelectionResult.
struct TraceRunEnd {
  ConfigId best = 0;
  double pr_cs = 0.0;
  bool reached_target = false;
  uint64_t rounds = 0;
  uint64_t samples = 0;
  uint64_t optimizer_calls = 0;
  uint32_t active_configs = 0;
};

/// Per-call what-if latency summary for one cache bucket ("cold",
/// "signature_hit", "exact_hit"), read from the obs histograms.
struct TraceWhatIfLatency {
  std::string bucket;
  uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
};

/// A failed, timed-out, or degraded what-if call (ISSUE 4). `kind` is
/// "failure" or "timeout" for an individual erroring attempt, "degraded"
/// when a cell exhausted its retries and fell back to the §6 cost-bound
/// interval [bound_low, bound_high] (only then are the bounds non-zero).
struct TraceWhatIfError {
  std::string kind;
  QueryId query = 0;
  ConfigId config = 0;
  uint32_t attempt = 0;
  double latency_ms = 0.0;
  double bound_low = 0.0;
  double bound_high = 0.0;
};

/// One BudgetManager round. `action` is "refine" (a chunk of free bounds
/// was refined) or "sample" (nothing left to refine, or the provider is
/// priced); `refined_queries` and `dominated` are this round's counts.
/// The event's "bound_calls" field is written as 0: refinement reads only
/// free providers (traces from older builds may carry other values).
struct TraceBudgetDecision {
  uint64_t round = 0;
  std::string action;
  uint64_t refined_queries = 0;
  uint64_t dominated = 0;
};

/// One closed self-profiling span (ISSUE 8), drained from the per-thread
/// span buffers at the end of a run. `id`/`parent` link the hierarchy
/// within a thread (`parent` 0 = root); `counter` names the tracked
/// registry counter whose growth over the span is `counter_delta` (empty
/// when none was tracked).
struct TraceSpan {
  std::string name;
  std::string category;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  std::string counter;
  uint64_t counter_delta = 0;
};

/// Observer interface. All methods default to no-ops, so sinks override
/// only what they consume. Implementations must be thread-safe: a sink
/// can be shared by concurrent selection runs.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void RunStart(const TraceRunStart&) {}
  virtual void Round(const TraceRound&) {}
  virtual void Elimination(const TraceElimination&) {}
  virtual void Split(const TraceSplit&) {}
  virtual void Incumbent(const TraceIncumbent&) {}
  virtual void RunEnd(const TraceRunEnd&) {}
  virtual void WhatIfLatency(const TraceWhatIfLatency&) {}
  virtual void WhatIfError(const TraceWhatIfError&) {}
  virtual void BudgetDecision(const TraceBudgetDecision&) {}
  virtual void Span(const TraceSpan&) {}
  virtual void Flush() {}
};

/// Enabled-but-discarding sink: exercises the full event-construction
/// path with zero output. Used by the overhead microbenchmarks.
class NoopTraceSink : public TraceSink {};

/// JSONL file sink: one event per line, `{"ev":"<type>",...}`. Doubles
/// are printed with %.17g so the recorded values round-trip bit-exactly.
/// Each line is assembled fully and written under one mutex-held fwrite —
/// no torn lines under concurrent writers.
class JsonlTraceSink : public TraceSink {
 public:
  /// Opens (truncates) `path` for writing.
  static Result<std::unique_ptr<JsonlTraceSink>> Open(const std::string& path);
  ~JsonlTraceSink() override;

  void RunStart(const TraceRunStart& e) override;
  void Round(const TraceRound& e) override;
  void Elimination(const TraceElimination& e) override;
  void Split(const TraceSplit& e) override;
  void Incumbent(const TraceIncumbent& e) override;
  void RunEnd(const TraceRunEnd& e) override;
  void WhatIfLatency(const TraceWhatIfLatency& e) override;
  void WhatIfError(const TraceWhatIfError& e) override;
  void BudgetDecision(const TraceBudgetDecision& e) override;
  void Span(const TraceSpan& e) override;
  void Flush() override;

 private:
  explicit JsonlTraceSink(std::FILE* f) : file_(f) {}

  void WriteLine(const std::string& line);

  std::FILE* file_;
  std::mutex mu_;
};

/// The PDX_TRACE environment fallback (the --trace flag's sibling,
/// mirroring the PDX_CACHE / PDX_THREADS convention). Returns an empty
/// string when unset.
std::string TracePathFromEnv();

/// Emits one whatif_latency summary event per non-empty cache bucket
/// (cold / signature_hit / exact_hit), reading the shared obs histograms.
/// No-op when `sink` is null or obs timing never ran.
void EmitWhatIfLatencySummary(TraceSink* sink);

/// Emits one `span` event per record. No-op when `sink` is null.
void EmitSpans(TraceSink* sink, const std::vector<obs::SpanRecord>& records);

/// Drains the process span buffers and emits every closed span to `sink`
/// (obs::DrainSpans + EmitSpans). Returns the drained snapshot so the
/// caller can also roll it up into a run-ledger manifest. When `sink` is
/// null the buffers are still drained.
obs::SpanSnapshot DrainSpansToSink(TraceSink* sink);

// ---------------------------------------------------------------------------
// Trace reading (pdx_tool report)

/// One convergence-table row recovered from a "round" trace event.
struct TraceConvergenceRow {
  uint64_t round = 0;
  uint64_t samples = 0;
  uint64_t optimizer_calls = 0;
  double pr_cs = 0.0;
  uint32_t active_configs = 0;
  uint32_t num_strata = 0;
};

/// Aggregate view of one JSONL trace file.
struct TraceReport {
  std::string scheme;
  uint64_t num_configs = 0;
  double alpha = 0.0;
  std::vector<TraceConvergenceRow> rounds;
  std::vector<TraceElimination> eliminations;
  uint64_t num_splits = 0;
  uint64_t num_incumbent_changes = 0;
  bool has_run_end = false;
  TraceRunEnd end;
  std::vector<TraceWhatIfLatency> whatif;
  /// whatif_error event counts by kind (ISSUE 4 fault tolerance).
  uint64_t whatif_failures = 0;
  uint64_t whatif_timeouts = 0;
  uint64_t whatif_degraded = 0;
  /// budget_decision aggregates. Counts are over all events;
  /// budget_bound_calls is the last event's cumulative value.
  uint64_t budget_decisions = 0;
  uint64_t budget_refine_rounds = 0;
  uint64_t budget_refined_queries = 0;
  uint64_t budget_bound_calls = 0;
  uint64_t budget_dominated = 0;
  /// span event rollup (ISSUE 8): aggregated by (category, name), ordered
  /// by total_ns descending — independent of the event order in the file,
  /// so traces with spans interleaved across threads roll up identically.
  uint64_t num_spans = 0;
  std::vector<obs::SpanRollupRow> span_rollup;
};

/// Parses a JSONL trace written by JsonlTraceSink. Fails (with the line
/// number) on unreadable files, malformed lines — torn/truncated JSON
/// objects, a trailing fragment missing its newline, a line without the
/// "ev" discriminator — while *unknown* event types (a complete object
/// with an unrecognized "ev") are skipped for forward compatibility.
Result<TraceReport> ReadTraceReport(const std::string& path);

/// Converts the `span` events of a JSONL trace into Chrome trace-event
/// JSON (the chrome://tracing / Perfetto "traceEvents" array of complete
/// "X" events; timestamps in microseconds, one track per recording
/// thread). Returns the number of spans written; fails on unreadable
/// input, malformed lines, or an unwritable output path.
Result<uint64_t> WriteChromeTrace(const std::string& trace_path,
                                  const std::string& out_path);

}  // namespace pdx
