#include "single_client.h"

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "optimizer/what_if.h"

namespace pdxbench {

CacheStack::CacheStack(const pdx::WhatIfOptimizer& optimizer,
                       const pdx::Workload& workload,
                       std::vector<pdx::Configuration> configs, bool traced)
    : live_(optimizer, workload, std::move(configs)) {
  pdx::CostSource* inner = &live_;
  if (traced) inner = &below_.emplace(&live_);
  cache_.emplace(inner);
  if (traced) above_.emplace(&*cache_);
}

void CacheStack::Select(uint64_t seed, Tracer* tracer, uint64_t op,
                        int32_t parent, LayerTotals* layers, OpRecord* rec) {
  pdx::CostSource* top = above_ ? static_cast<pdx::CostSource*>(&*above_)
                                : static_cast<pdx::CostSource*>(&*cache_);
  {
    ScopedSpan run(tracer, "core.selector.run", op, parent);
    const uint64_t t0 = NowNs();
    pdx::ConfigurationSelector selector(top, pdx::SelectorOptions());
    pdx::Rng rng(seed);
    rec->result = selector.Run(&rng);
    if (tracer != nullptr && above_) {
      layers->run_ms += MsSince(t0);
      const int32_t c = tracer->Aggregate("core.cache", op, run.id(),
                                          above_->busy_ns(), above_->cells());
      tracer->Aggregate("optimizer.whatif", op, c, below_->busy_ns(),
                        below_->cells());
      layers->cache_busy_ns += above_->busy_ns();
      layers->whatif_busy_ns += below_->busy_ns();
    }
  }
  rec->cache_hits = cache_->num_hits();
  rec->cache_lookups = cache_->num_hits() + cache_->num_misses();
  rec->whatif_calls = cache_->num_misses();
  if (tracer != nullptr) layers->whatif_calls += rec->whatif_calls;
}

std::vector<OpRecord> RunSingleClient(const Args& args, const LoopSpec& spec,
                                      Tracer* tracer, const OpFn& op,
                                      const ReferenceFn& reference,
                                      const std::vector<double>& totals,
                                      Report* report) {
  for (uint64_t w = 0; w < spec.warmup_ops; ++w) {
    op(OpSeed(args.seed, ~w), ~w, nullptr);
  }
  std::vector<OpRecord> ops;
  RssSampler rss;
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0;
       i < spec.min_ops || MsSince(t0) < args.seconds * 1e3; ++i) {
    Tracer* t = tracer != nullptr && i % 2 == 1 ? tracer : nullptr;
    ops.push_back(op(OpSeed(args.seed, i), i, t));
  }
  const double elapsed_s = MsSince(t0) / 1e3;
  report->Set("peak_rss_mb", rss.Stop(), "MB");

  std::vector<std::string> want(ops.size());
  pdx::GlobalThreadPool().ParallelFor(
      0, ops.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (ops[i].ok) want[i] = reference(ops[i].seed);
        }
      });
  if (args.corrupt_reference && !want.empty()) want[0] = "corrupted";

  uint64_t correct = 0, samples = 0, calls = 0;
  std::vector<double> untraced_ms, traced_ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& rec = ops[i];
    ++report->attempted;
    if (!rec.ok) {
      ++report->failed;
      report->Fail(pdx::StringFormat("op %zu failed", i));
      continue;
    }
    (rec.traced ? traced_ms : untraced_ms).push_back(rec.ms);
    report->Check(FingerprintHex(rec.result) == want[i],
                  pdx::StringFormat(
                      "op %zu (seed %llu, %s): selection differs from its "
                      "batch reference",
                      i, static_cast<unsigned long long>(rec.seed),
                      rec.traced ? "traced" : "untraced"));
    report->Check(rec.result.pr_cs >= 0.0 && rec.result.pr_cs <= 1.0,
                  pdx::StringFormat("op %zu: Pr(CS) outside [0,1]", i));
    if (i < spec.min_ops) {
      correct += WithinTolerance(totals, rec.result.best) ? 1 : 0;
      samples += rec.result.queries_sampled;
      calls += rec.whatif_calls;
    }
  }
  const double n = static_cast<double>(spec.min_ops);
  ReportLatency(report, "compare_ms", untraced_ms);
  report->Set("ops_per_s", static_cast<double>(ops.size()) / elapsed_s,
              "ops/s");
  report->Set("whatif_calls_per_op", static_cast<double>(calls) / n, "calls");
  report->Set("samples_per_compare", static_cast<double>(samples) / n,
              "queries");
  report->Set("correct_selection_rate", static_cast<double>(correct) / n,
              "fraction");
  if (tracer != nullptr) {
    report->Set("bench.trace.overhead_ms",
                Percentile(traced_ms, 0.5) - Percentile(untraced_ms, 0.5),
                "ms");
  }
  return ops;
}

void ReportSelectionLayers(const LayerTotals& layers,
                           const std::vector<OpRecord>& ops, Report* report) {
  if (layers.ops == 0) return;
  const double k = static_cast<double>(layers.ops);
  const double whatif_ms = static_cast<double>(layers.whatif_busy_ns) / 1e6;
  const double cache_ms = static_cast<double>(layers.cache_busy_ns) / 1e6;
  report->Set("core.cache.construct_ms", layers.cache_construct_ms / k, "ms");
  report->Set("core.selector.run_ms", layers.run_ms / k, "ms");
  report->Set("core.selector.self_ms", (layers.run_ms - cache_ms) / k, "ms");
  report->Set("core.cache.self_ms", (cache_ms - whatif_ms) / k, "ms");
  report->Set("optimizer.whatif.calls",
              static_cast<double>(layers.whatif_calls) / k, "calls");
  report->Set("optimizer.whatif.busy_ms", whatif_ms / k, "ms");
  report->Set("optimizer.whatif.us_per_call",
              layers.whatif_calls > 0
                  ? 1e3 * whatif_ms / static_cast<double>(layers.whatif_calls)
                  : 0.0,
              "us");
  uint64_t lookups = 0, hits = 0, rounds = 0, elim = 0, strata = 0;
  for (const OpRecord& rec : ops) {
    if (!rec.traced || !rec.ok) continue;
    lookups += rec.cache_lookups;
    hits += rec.cache_hits;
    rounds += rec.result.rounds;
    for (uint32_t at : rec.result.eliminated_at) elim += at > 0 ? 1 : 0;
    for (uint32_t s : rec.result.final_strata) strata += s;
  }
  report->Set("core.cache.lookups", static_cast<double>(lookups) / k, "count");
  report->Set("core.cache.hit_ratio",
              lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
              "fraction");
  report->Set("core.selector.rounds", static_cast<double>(rounds) / k, "count");
  report->Set("core.selector.eliminations", static_cast<double>(elim) / k,
              "count");
  report->Set("core.selector.final_strata", static_cast<double>(strata) / k,
              "count");
}

}  // namespace pdxbench
