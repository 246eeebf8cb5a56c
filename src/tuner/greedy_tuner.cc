#include "tuner/greedy_tuner.h"

#include <algorithm>
#include <memory>

#include "common/obs.h"
#include "common/span.h"

namespace pdx {

namespace {

struct TunerMetrics {
  obs::Counter* rounds;
  obs::Counter* structures_added;
  obs::Histogram* round_ns;
};

TunerMetrics& TMetrics() {
  static TunerMetrics m = [] {
    obs::Registry& r = obs::Registry::Global();
    return TunerMetrics{r.GetCounter("pdx_tuner_rounds_total"),
                        r.GetCounter("pdx_tuner_structures_added_total"),
                        r.GetHistogram("pdx_tuner_round_ns")};
  }();
  return m;
}

// CostSource over a workload subset and a per-round configuration set.
class SubsetCostSource : public CostSource {
 public:
  SubsetCostSource(const WhatIfOptimizer& optimizer, const Workload& workload,
                   const std::vector<QueryId>& ids,
                   const std::vector<Configuration>& configs)
      : optimizer_(optimizer),
        workload_(workload),
        ids_(ids),
        configs_(configs) {}

  double Cost(QueryId q, ConfigId c) override {
    PDX_CHECK(q < ids_.size());
    PDX_CHECK(c < configs_.size());
    calls_ += 1;
    return optimizer_.Cost(workload_.query(ids_[q]), configs_[c]);
  }
  size_t num_queries() const override { return ids_.size(); }
  size_t num_configs() const override { return configs_.size(); }
  TemplateId TemplateOf(QueryId q) const override {
    return workload_.query(ids_[q]).template_id;
  }
  size_t num_templates() const override { return workload_.num_templates(); }
  double OptimizeOverhead(QueryId q) const override {
    return workload_.query(ids_[q]).optimize_overhead;
  }
  uint64_t num_calls() const override { return calls_; }
  void ResetCallCounter() override { calls_ = 0; }

 private:
  const WhatIfOptimizer& optimizer_;
  const Workload& workload_;
  const std::vector<QueryId>& ids_;
  const std::vector<Configuration>& configs_;
  uint64_t calls_ = 0;
};

}  // namespace

double WeightedCost(const WhatIfOptimizer& optimizer, const Workload& workload,
                    const std::vector<QueryId>& query_ids,
                    const std::vector<double>& weights,
                    const Configuration& config) {
  PDX_CHECK(weights.empty() || weights.size() == query_ids.size());
  double total = 0.0;
  for (size_t i = 0; i < query_ids.size(); ++i) {
    double w = weights.empty() ? 1.0 : weights[i];
    total += w * optimizer.Cost(workload.query(query_ids[i]), config);
  }
  return total;
}

TuneResult GreedyTune(const WhatIfOptimizer& optimizer,
                      const Workload& workload,
                      const std::vector<QueryId>& query_ids,
                      const std::vector<double>& weights,
                      const TunerOptions& options, Rng* rng) {
  PDX_CHECK(rng != nullptr);
  PDX_CHECK(!query_ids.empty());
  const Schema& schema = workload.schema();
  const uint64_t budget = options.storage_budget_bytes > 0
                              ? options.storage_budget_bytes
                              : schema.TotalHeapBytes() * 2 / 5;
  const uint64_t calls_before = optimizer.num_calls();

  TuneResult result;
  result.config = options.base_config;
  result.config.set_name("tuned");
  result.initial_cost =
      WeightedCost(optimizer, workload, query_ids, weights, result.config);

  // Candidate pool: per-query candidates of the subset, deduplicated and
  // pre-scored by standalone benefit on the subset (beam pruning).
  CandidateGenerator gen(schema, options.candidates);
  std::vector<ScoredStructure> pool;
  {
    std::unordered_map<uint64_t, size_t> seen;
    for (QueryId qid : query_ids) {
      QueryCandidates qc = gen.ForQuery(workload.query(qid));
      for (Index& idx : qc.indexes) {
        uint64_t h = idx.Hash();
        if (seen.emplace(h, pool.size()).second) {
          ScoredStructure s;
          s.is_view = false;
          s.index = std::move(idx);
          s.storage_bytes = s.index.StorageBytes(schema);
          pool.push_back(std::move(s));
        }
      }
      for (MaterializedView& v : qc.views) {
        uint64_t h = v.Hash();
        if (seen.emplace(h, pool.size()).second) {
          ScoredStructure s;
          s.is_view = true;
          s.view = std::move(v);
          s.storage_bytes = s.view.StorageBytes(schema);
          pool.push_back(std::move(s));
        }
      }
    }
  }
  // Scoring set: the full tuning set, or a uniform subsample of it.
  std::vector<QueryId> scoring_ids = query_ids;
  std::vector<double> scoring_weights = weights;
  if (options.scoring_sample_size > 0 &&
      options.scoring_sample_size < query_ids.size()) {
    std::vector<uint32_t> picks = rng->SampleWithoutReplacement(
        query_ids.size(), options.scoring_sample_size);
    scoring_ids.clear();
    scoring_weights.clear();
    for (uint32_t i : picks) {
      scoring_ids.push_back(query_ids[i]);
      if (!weights.empty()) scoring_weights.push_back(weights[i]);
    }
  }
  double scoring_base_cost;
  if (options.cache == WhatIfCacheMode::kSignature) {
    // One signature source over [base, base+s_0, base+s_1, ...]: the
    // scoring configurations differ from the base by a single structure,
    // so for every query that structure can't influence, the base's
    // optimizer call is reused. Sums run in the same per-query order as
    // WeightedCost, so the benefits are bit-identical to the direct path.
    std::vector<Configuration> scoring_configs;
    scoring_configs.reserve(pool.size() + 1);
    scoring_configs.push_back(options.base_config);
    for (const ScoredStructure& s : pool) {
      Configuration single = options.base_config;
      if (s.is_view) {
        single.AddView(s.view);
      } else {
        single.AddIndex(s.index);
      }
      scoring_configs.push_back(std::move(single));
    }
    SignatureCachingCostSource scorer(optimizer, workload,
                                      std::move(scoring_configs), scoring_ids);
    std::vector<QueryId> batch_qids(scoring_ids.size());
    for (size_t i = 0; i < batch_qids.size(); ++i) {
      batch_qids[i] = static_cast<QueryId>(i);
    }
    std::vector<double> batch_costs(scoring_ids.size(), 0.0);
    auto weighted = [&](ConfigId c) {
      // One batched sweep per candidate; the weighted sum runs in the same
      // per-query order as the scalar loop, so totals are bit-identical.
      scorer.CostMany(batch_qids, c, batch_costs);
      double total = 0.0;
      for (size_t i = 0; i < batch_costs.size(); ++i) {
        double w = scoring_weights.empty() ? 1.0 : scoring_weights[i];
        total += w * batch_costs[i];
      }
      return total;
    };
    scoring_base_cost = weighted(0);
    for (size_t s = 0; s < pool.size(); ++s) {
      pool[s].benefit =
          scoring_base_cost - weighted(static_cast<ConfigId>(s + 1));
    }
  } else {
    scoring_base_cost = WeightedCost(optimizer, workload, scoring_ids,
                                     scoring_weights, result.config);
    for (ScoredStructure& s : pool) {
      // Standalone benefit on top of the deployed base configuration.
      Configuration single = options.base_config;
      if (s.is_view) {
        single.AddView(s.view);
      } else {
        single.AddIndex(s.index);
      }
      s.benefit = scoring_base_cost - WeightedCost(optimizer, workload,
                                                   scoring_ids,
                                                   scoring_weights, single);
    }
  }
  std::sort(pool.begin(), pool.end(),
            [](const ScoredStructure& a, const ScoredStructure& b) {
              return a.benefit > b.benefit;
            });
  if (pool.size() > options.beam_width) pool.resize(options.beam_width);

  // §6.1 interval source for fault degradation and the dynamic budget:
  // one deriver per tune. base must be contained in every
  // compared configuration and rich must contain every structure any of
  // them may use; the greedy rounds only ever add pool structures on top
  // of base, so base/base+pool brackets all of them.
  std::unique_ptr<CostBoundsDeriver> bounds_deriver;
  const bool dynamic_budget =
      options.selector.budget_policy == BudgetPolicy::kDynamic;
  if (options.use_comparison_primitive &&
      (options.faults.enabled() || dynamic_budget)) {
    Configuration rich = options.base_config;
    for (const ScoredStructure& s : pool) {
      if (s.is_view) {
        rich.AddView(s.view);
      } else {
        rich.AddIndex(s.index);
      }
    }
    bounds_deriver = std::make_unique<CostBoundsDeriver>(
        optimizer, workload, options.base_config, std::move(rich));
  }

  double current_cost = result.initial_cost;
  std::vector<bool> used(pool.size(), false);
  uint64_t used_bytes = 0;

  for (uint32_t round = 0; round < options.max_structures; ++round) {
    TMetrics().rounds->Add();
    obs::ScopedTimer round_timer(TMetrics().round_ns);
    obs::SpanScope round_span("round", "tuner");
    // Collect feasible extensions.
    std::vector<size_t> feasible;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!used[i] && used_bytes + pool[i].storage_bytes <= budget) {
        feasible.push_back(i);
      }
    }
    if (feasible.empty()) break;

    auto extend = [&](size_t i) {
      Configuration ext = result.config;
      if (pool[i].is_view) {
        ext.AddView(pool[i].view);
      } else {
        ext.AddIndex(pool[i].index);
      }
      return ext;
    };

    int64_t winner = -1;
    double winner_cost = current_cost;
    if (options.use_comparison_primitive) {
      PDX_CHECK_MSG(weights.empty(),
                    "comparison-primitive tuning requires unit weights");
      // Configs: current (index 0) plus each extension; the primitive
      // picks the best with probabilistic guarantees.
      std::vector<Configuration> round_configs;
      round_configs.push_back(result.config);
      for (size_t i : feasible) round_configs.push_back(extend(i));
      // The round's extensions differ from the current configuration by
      // one structure each: signature caching collapses the per-round
      // what-if matrix down to the queries each structure can touch.
      // Costs are bit-identical across tiers, so the selection (driven by
      // the shared rng) is too — only the call count changes.
      std::unique_ptr<SubsetCostSource> subset;
      std::unique_ptr<CachingCostSource> exact;
      std::unique_ptr<SignatureCachingCostSource> sig;
      CostSource* source = nullptr;
      if (options.cache == WhatIfCacheMode::kSignature) {
        sig = std::make_unique<SignatureCachingCostSource>(
            optimizer, workload, round_configs, query_ids);
        source = sig.get();
      } else {
        subset = std::make_unique<SubsetCostSource>(optimizer, workload,
                                                    query_ids, round_configs);
        if (options.cache == WhatIfCacheMode::kExact) {
          exact = std::make_unique<CachingCostSource>(subset.get());
          source = exact.get();
        } else {
          source = subset.get();
        }
      }
      std::unique_ptr<FaultInjectingCostSource> injector;
      std::unique_ptr<WorkloadBoundsCache> bounds_cache;
      SelectorOptions sel_opts = options.selector;
      if (options.faults.enabled()) {
        // Mix the round index into the seed so each round's schedule is an
        // independent draw while the whole tune stays reproducible.
        FaultSpec spec = options.faults;
        spec.seed ^= 0x9E3779B97F4A7C15ULL * (round + 1);
        injector = std::make_unique<FaultInjectingCostSource>(source, spec);
        injector->set_deadline_ms(sel_opts.exec.retry.deadline_ms);
        source = injector.get();
        sel_opts.exec.enabled = true;
        sel_opts.exec.seed ^= spec.seed;
      }
      if (bounds_deriver != nullptr) {
        // Shared by fault degradation and the dynamic budget; the lazy
        // sharded cache fills each piece at most once per round.
        bounds_cache = std::make_unique<WorkloadBoundsCache>(
            bounds_deriver.get(), &round_configs, query_ids);
        sel_opts.bounds = bounds_cache.get();
      }
      ConfigurationSelector selector(source, sel_opts);
      SelectionResult sel = selector.Run(rng);
      result.whatif_retries += sel.whatif_retries;
      result.whatif_timeouts += sel.whatif_timeouts;
      result.whatif_failures += sel.whatif_failures;
      result.degraded_cells += sel.degraded_cells;
      result.dominance_eliminations += sel.dominance_eliminations;
      result.refined_queries += sel.refined_queries;
      if (sel.best == 0) break;  // keeping the current configuration wins
      winner = static_cast<int64_t>(feasible[sel.best - 1]);
      winner_cost = WeightedCost(optimizer, workload, query_ids, weights,
                                 round_configs[sel.best]);
    } else {
      for (size_t i : feasible) {
        double c =
            WeightedCost(optimizer, workload, query_ids, weights, extend(i));
        if (c < winner_cost) {
          winner_cost = c;
          winner = static_cast<int64_t>(i);
        }
      }
    }

    if (winner < 0 || winner_cost >= current_cost) break;
    size_t w = static_cast<size_t>(winner);
    if (pool[w].is_view) {
      result.config.AddView(pool[w].view);
    } else {
      result.config.AddIndex(pool[w].index);
    }
    used[w] = true;
    used_bytes += pool[w].storage_bytes;
    current_cost = winner_cost;
    TMetrics().structures_added->Add();
  }

  result.final_cost = current_cost;
  result.optimizer_calls = optimizer.num_calls() - calls_before;
  return result;
}

}  // namespace pdx
