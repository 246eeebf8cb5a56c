#include "core/fixed_budget.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "common/normal.h"

namespace pdx {

namespace {

// Builds a BudgetManager when the options ask for dynamic reallocation in
// an allocation policy that supports it (variance-guided / fine); null
// otherwise, which keeps the static paths byte-identical.
std::unique_ptr<BudgetManager> MaybeBudget(const FixedBudgetOptions& options,
                                           size_t k,
                                           const std::vector<uint64_t>& pops) {
  if (options.budget_policy != BudgetPolicy::kDynamic || k < 2) return nullptr;
  if (options.allocation != AllocationPolicy::kVarianceGuided &&
      options.allocation != AllocationPolicy::kFinePerTemplate) {
    return nullptr;
  }
  PDX_CHECK_MSG(options.bounds != nullptr,
                "BudgetPolicy::kDynamic requires FixedBudgetOptions::bounds");
  const uint64_t N = std::accumulate(pops.begin(), pops.end(), uint64_t{0});
  // Fixed-budget runs emit no trace events by contract; the budget
  // counters surface on FixedBudgetResult instead.
  return std::make_unique<BudgetManager>(k, N, options.bounds,
                                         options.budget_model, nullptr);
}

// Splits the single-stratum stratification into one stratum per template.
void MakeFineStrata(Stratification* strat) {
  while (true) {
    bool split_any = false;
    for (uint32_t h = 0; h < strat->num_strata(); ++h) {
      const std::vector<TemplateId>& members = strat->TemplatesOf(h);
      if (members.size() > 1) {
        strat->Split(h, {members.front()});
        split_any = true;
        break;
      }
    }
    if (!split_any) return;
  }
}

// Lowest estimate among still-active configurations: a dominance-
// eliminated configuration is proven non-best by its envelope even when
// its (partial-sample) estimate happens to undercut the winner's.
ConfigId ArgMin(const std::vector<double>& estimates,
                const std::vector<bool>& active) {
  ConfigId best = 0;
  double best_est = std::numeric_limits<double>::infinity();
  for (ConfigId c = 0; c < estimates.size(); ++c) {
    if (!active[c]) continue;
    if (estimates[c] < best_est) {
      best_est = estimates[c];
      best = c;
    }
  }
  return best;
}

FixedBudgetResult RunDeltaFixed(CostSource* source, uint64_t query_budget,
                                const FixedBudgetOptions& options, Rng* rng) {
  const size_t k = source->num_configs();
  const size_t T = source->num_templates();
  const uint64_t calls_before = source->num_calls();
  std::vector<uint64_t> pops = TemplatePopulationsOf(*source);

  Stratification strat(pops);
  if (options.allocation == AllocationPolicy::kEqualPerTemplate ||
      options.allocation == AllocationPolicy::kFinePerTemplate) {
    MakeFineStrata(&strat);
  }
  StratifiedSamplePool pool(*source, rng);
  DeltaEstimator est(k, T, pops);
  std::vector<bool> active(k, true);
  std::vector<double> overheads =
      options.overhead_aware ? PerTemplateOverheads(*source, pops)
                             : std::vector<double>();

  // Hot-loop buffers, allocated once per run (the estimator no-allocation
  // rule). Under the static policy every sweep covers all k configurations
  // in ascending order — the scalar visit order; the dynamic policy prices
  // only the still-active ones (dominated configurations need no calls).
  std::unique_ptr<BudgetManager> budget = MaybeBudget(options, k, pops);
  std::vector<double> estimates_buf(k, 0.0);
  std::vector<double> diffs_buf(k, 0.0);
  std::vector<double> vars_buf(k, 0.0);
  std::vector<double> costs_buf(k, 0.0);
  std::vector<double> batch_vals(k, 0.0);
  std::vector<double> uncert_vals(k, 0.0);
  std::vector<double> pair_prcs_zero(k, 0.0);
  std::vector<ConfigId> all_ids(k);
  std::vector<ConfigId> batch_ids;
  batch_ids.reserve(k);
  for (ConfigId c = 0; c < k; ++c) all_ids[c] = c;

  auto evaluate = [&](QueryId q) {
    if (!budget) {
      source->CostAcross(q, all_ids, costs_buf);
      est.Add(q, source->TemplateOf(q), costs_buf);
      return;
    }
    batch_ids.clear();
    for (ConfigId c = 0; c < k; ++c) {
      if (active[c]) batch_ids.push_back(c);
    }
    std::fill(costs_buf.begin(), costs_buf.end(),
              std::numeric_limits<double>::quiet_NaN());
    std::span<double> vals(batch_vals.data(), batch_ids.size());
    source->CostAcross(q, batch_ids, vals);
    for (size_t i = 0; i < batch_ids.size(); ++i) {
      costs_buf[batch_ids[i]] = vals[i];
    }
    // Degraded cells (a fault-tolerant source) must enter the envelope as
    // interval mass, never as exact costs.
    std::span<double> uncerts(uncert_vals.data(), batch_ids.size());
    source->CostUncertaintyAcross(q, batch_ids, uncerts);
    est.Add(q, source->TemplateOf(q), costs_buf);
    for (size_t i = 0; i < batch_ids.size(); ++i) {
      budget->ObserveSample(q, batch_ids[i], vals[i], uncerts[i]);
    }
  };

  uint64_t drawn = 0;
  auto draw_from = [&](uint32_t h) {
    std::optional<QueryId> q = pool.Draw(strat, h, rng);
    if (!q) q = pool.DrawGlobal(rng);
    if (!q) return false;
    evaluate(*q);
    ++drawn;
    return true;
  };

  switch (options.allocation) {
    case AllocationPolicy::kUniform: {
      while (drawn < query_budget) {
        std::optional<QueryId> q = pool.DrawGlobal(rng);
        if (!q) break;
        evaluate(*q);
        ++drawn;
      }
      break;
    }
    case AllocationPolicy::kEqualPerTemplate: {
      // Round-robin over strata (= templates).
      bool progressed = true;
      while (drawn < query_budget && progressed) {
        progressed = false;
        for (uint32_t h = 0; h < strat.num_strata() && drawn < query_budget;
             ++h) {
          std::optional<QueryId> q = pool.Draw(strat, h, rng);
          if (!q) continue;
          evaluate(*q);
          ++drawn;
          progressed = true;
        }
      }
      break;
    }
    case AllocationPolicy::kFinePerTemplate:
    case AllocationPolicy::kVarianceGuided: {
      const bool fine =
          options.allocation == AllocationPolicy::kFinePerTemplate;
      // Pilot.
      if (fine) {
        // One pass of round-robin so each stratum has an estimate seed.
        for (uint32_t h = 0; h < strat.num_strata() && drawn < query_budget;
             ++h) {
          draw_from(h);
        }
      }
      while (drawn < query_budget && pool.RemainingTotal() > 0 &&
             drawn < options.n_min && !fine) {
        std::optional<QueryId> q = pool.DrawGlobal(rng);
        if (!q) break;
        evaluate(*q);
        ++drawn;
      }
      // Variance-guided allocation, with progressive splits when enabled.
      uint64_t iteration = 0;
      while (drawn < query_budget && pool.RemainingTotal() > 0) {
        ++iteration;
        ConfigId best = 0;
        double best_est = std::numeric_limits<double>::infinity();
        est.Estimates(strat, estimates_buf);
        for (ConfigId c = 0; c < k; ++c) {
          if (estimates_buf[c] < best_est) {
            best_est = estimates_buf[c];
            best = c;
          }
        }
        est.SetReference(best);

        // Dynamic budget reallocation: fixed-budget mode has no Pr(CS)
        // machinery, so the VOI gain is priced with the conservative
        // zero-confidence pair weights; a dominated configuration stops
        // being priced and its budget share flows to the live pairs.
        if (budget) {
          std::vector<ConfigId> dominated = budget->DecideRound(
              iteration, best, active, pair_prcs_zero, 0.0);
          for (ConfigId j : dominated) active[j] = false;
        }

        if (!fine && options.stratify) {
          // Target variance: what would make the weakest pair confident at
          // a nominal 95% level (budget mode has no alpha).
          double z = NormalQuantile(0.975);
          double target_se = std::numeric_limits<double>::infinity();
          est.DiffStats(strat, diffs_buf, vars_buf);
          for (ConfigId j = 0; j < k; ++j) {
            if (j == best) continue;
            double gap = -diffs_buf[j];
            double se = std::sqrt(std::max(0.0, vars_buf[j]));
            gap = std::max(gap, 0.25 * se);
            if (gap > 0.0) target_se = std::min(target_se, gap / z);
          }
          if (std::isfinite(target_se) && target_se > 0.0) {
            SplitDecision dec = FindBestSplit(
                strat, est.AveragedDiffTemplateStats(active),
                target_se * target_se, options.n_min,
                options.min_template_observations);
            if (dec.beneficial) {
              uint32_t old_stratum = dec.stratum;
              strat.Split(old_stratum, dec.part1);
              uint32_t new_stratum =
                  static_cast<uint32_t>(strat.num_strata() - 1);
              for (uint32_t h : {old_stratum, new_stratum}) {
                while (est.SamplesIn(strat, h) < options.n_min &&
                       drawn < query_budget) {
                  if (!draw_from(h)) break;
                }
              }
            }
          }
        }
        if (drawn >= query_budget) break;

        uint32_t chosen = 0;
        double best_score = -1.0;
        for (uint32_t h = 0; h < strat.num_strata(); ++h) {
          if (pool.RemainingInStratum(strat, h) == 0) continue;
          double red = est.VarianceReductionForNext(strat, h, active);
          if (options.overhead_aware) {
            red /= StratumMeanOverhead(strat, h, overheads, pops);
          }
          if (red > best_score) {
            best_score = red;
            chosen = h;
          }
        }
        if (!draw_from(chosen)) break;
      }
      break;
    }
  }

  FixedBudgetResult out;
  out.estimates.resize(k);
  est.Estimates(strat, out.estimates);
  out.best = ArgMin(out.estimates, active);
  out.queries_sampled = est.TotalSamples();
  out.optimizer_calls = source->num_calls() - calls_before;
  if (budget) {
    const BudgetStats& bs = budget->stats();
    out.optimizer_calls += bs.bound_refinement_calls;
    out.bound_refinement_calls = bs.bound_refinement_calls;
    out.dominance_eliminations = bs.dominance_eliminations;
    out.refined_queries = bs.refined_queries;
  }
  return out;
}

FixedBudgetResult RunIndependentFixed(CostSource* source,
                                      uint64_t query_budget,
                                      const FixedBudgetOptions& options,
                                      Rng* rng) {
  const size_t k = source->num_configs();
  const size_t T = source->num_templates();
  const uint64_t calls_before = source->num_calls();
  std::vector<uint64_t> pops = TemplatePopulationsOf(*source);

  std::vector<Stratification> strat;
  std::vector<StratifiedSamplePool> pools;
  for (size_t c = 0; c < k; ++c) {
    strat.emplace_back(pops);
    pools.emplace_back(*source, rng);
    if (options.allocation == AllocationPolicy::kEqualPerTemplate ||
        options.allocation == AllocationPolicy::kFinePerTemplate) {
      MakeFineStrata(&strat.back());
    }
  }
  IndependentEstimator est(k, T, pops);
  std::vector<bool> active(k, true);
  std::unique_ptr<BudgetManager> budget = MaybeBudget(options, k, pops);
  std::vector<double> pair_prcs_zero(k, 0.0);
  uint64_t drawn = 0;

  auto draw_for = [&](ConfigId c, uint32_t h) {
    std::optional<QueryId> q = pools[c].Draw(strat[c], h, rng);
    if (!q) q = pools[c].DrawGlobal(rng);
    if (!q) return false;
    double cost = source->Cost(*q, c);
    est.Add(c, source->TemplateOf(*q), cost);
    if (budget) {
      budget->ObserveSample(*q, c, cost, source->CostUncertainty(*q, c));
    }
    ++drawn;
    return true;
  };

  switch (options.allocation) {
    case AllocationPolicy::kUniform: {
      ConfigId c = 0;
      while (drawn < query_budget) {
        std::optional<QueryId> q = pools[c].DrawGlobal(rng);
        if (!q) break;
        est.Add(c, source->TemplateOf(*q), source->Cost(*q, c));
        ++drawn;
        c = static_cast<ConfigId>((c + 1) % k);
      }
      break;
    }
    case AllocationPolicy::kEqualPerTemplate: {
      bool progressed = true;
      while (drawn < query_budget && progressed) {
        progressed = false;
        for (ConfigId c = 0; c < k && drawn < query_budget; ++c) {
          for (uint32_t h = 0;
               h < strat[c].num_strata() && drawn < query_budget; ++h) {
            std::optional<QueryId> q = pools[c].Draw(strat[c], h, rng);
            if (!q) continue;
            est.Add(c, source->TemplateOf(*q), source->Cost(*q, c));
            ++drawn;
            progressed = true;
          }
        }
      }
      break;
    }
    case AllocationPolicy::kFinePerTemplate:
    case AllocationPolicy::kVarianceGuided: {
      const bool fine =
          options.allocation == AllocationPolicy::kFinePerTemplate;
      if (fine) {
        for (ConfigId c = 0; c < k; ++c) {
          for (uint32_t h = 0;
               h < strat[c].num_strata() && drawn < query_budget; ++h) {
            draw_for(c, h);
          }
        }
      } else {
        // Pilot: n_min per configuration, round-robin.
        for (uint32_t i = 0; i < options.n_min && drawn < query_budget; ++i) {
          for (ConfigId c = 0; c < k && drawn < query_budget; ++c) {
            std::optional<QueryId> q = pools[c].DrawGlobal(rng);
            if (!q) continue;
            double cost = source->Cost(*q, c);
            est.Add(c, source->TemplateOf(*q), cost);
            if (budget) {
              budget->ObserveSample(*q, c, cost,
                                    source->CostUncertainty(*q, c));
            }
            ++drawn;
          }
        }
      }
      uint64_t stale_guard = 0;
      uint64_t iteration = 0;
      while (drawn < query_budget) {
        ++iteration;
        // Dynamic budget reallocation; see the Delta path.
        if (budget) {
          ConfigId inc = 0;
          double inc_est = std::numeric_limits<double>::infinity();
          for (ConfigId c = 0; c < k; ++c) {
            if (!active[c]) continue;
            double e = est.Estimate(c, strat[c]);
            if (e < inc_est) {
              inc_est = e;
              inc = c;
            }
          }
          std::vector<ConfigId> dominated = budget->DecideRound(
              iteration, inc, active, pair_prcs_zero, 0.0);
          for (ConfigId j : dominated) active[j] = false;
        }
        // Progressive split for the configuration with the highest
        // variance (cheap surrogate for "last sampled" in budget mode).
        if (!fine && options.stratify) {
          ConfigId target = 0;
          double worst = -1.0;
          for (ConfigId c = 0; c < k; ++c) {
            if (!active[c]) continue;  // all true under the static policy
            double v = est.Variance(c, strat[c]);
            if (v > worst) {
              worst = v;
              target = c;
            }
          }
          double z = NormalQuantile(0.975);
          double var = est.Variance(target, strat[target]);
          double target_var = var / (z * z * 4.0);
          SplitDecision dec = FindBestSplit(
              strat[target], est.TemplateStatsFor(target), target_var,
              options.n_min, options.min_template_observations);
          if (dec.beneficial) {
            uint32_t old_stratum = dec.stratum;
            strat[target].Split(old_stratum, dec.part1);
            uint32_t new_stratum =
                static_cast<uint32_t>(strat[target].num_strata() - 1);
            for (uint32_t h : {old_stratum, new_stratum}) {
              while (est.SamplesIn(target, strat[target], h) < options.n_min &&
                     drawn < query_budget) {
                if (!draw_for(target, h)) break;
              }
            }
          }
        }
        if (drawn >= query_budget) break;

        ConfigId chosen_c = 0;
        uint32_t chosen_h = 0;
        double best_score = -1.0;
        for (ConfigId c = 0; c < k; ++c) {
          if (!active[c]) continue;  // all true under the static policy
          for (uint32_t h = 0; h < strat[c].num_strata(); ++h) {
            if (pools[c].RemainingInStratum(strat[c], h) == 0) continue;
            double red = est.VarianceReductionForNext(c, strat[c], h);
            if (red > best_score) {
              best_score = red;
              chosen_c = c;
              chosen_h = h;
            }
          }
        }
        if (best_score < 0.0) break;  // all pools exhausted
        if (!draw_for(chosen_c, chosen_h)) {
          if (++stale_guard > k) break;
        } else {
          stale_guard = 0;
        }
      }
      break;
    }
  }

  FixedBudgetResult out;
  out.estimates.resize(k);
  for (ConfigId c = 0; c < k; ++c) {
    out.estimates[c] = est.Estimate(c, strat[c]);
  }
  out.best = ArgMin(out.estimates, active);
  uint64_t total = 0;
  for (ConfigId c = 0; c < k; ++c) total += est.TotalSamples(c);
  out.queries_sampled = total;
  out.optimizer_calls = source->num_calls() - calls_before;
  if (budget) {
    const BudgetStats& bs = budget->stats();
    out.optimizer_calls += bs.bound_refinement_calls;
    out.bound_refinement_calls = bs.bound_refinement_calls;
    out.dominance_eliminations = bs.dominance_eliminations;
    out.refined_queries = bs.refined_queries;
  }
  return out;
}

}  // namespace

FixedBudgetResult FixedBudgetSelect(CostSource* source, uint64_t query_budget,
                                    const FixedBudgetOptions& options,
                                    Rng* rng) {
  PDX_CHECK(source != nullptr && rng != nullptr);
  PDX_CHECK(query_budget >= 1);
  if (options.exec.enabled) {
    // Interpose the retry/degrade layer and recurse with it disabled. The
    // wrapper forwards num_calls, so the inner run's optimizer accounting
    // is unchanged; degraded cells feed bound midpoints into the
    // estimates.
    FaultTolerantCostSource executor(source, options.exec, options.bounds,
                                     options.trace);
    FixedBudgetOptions inner = options;
    inner.exec.enabled = false;
    FixedBudgetResult out =
        FixedBudgetSelect(&executor, query_budget, inner, rng);
    out.degraded_cells = executor.num_degraded_cells();
    out.whatif_retries = executor.num_retries();
    out.whatif_timeouts = executor.num_timeouts();
    out.whatif_failures = executor.num_failures();
    return out;
  }
  if (options.scheme == SamplingScheme::kDelta) {
    return RunDeltaFixed(source, query_budget, options, rng);
  }
  return RunIndependentFixed(source, query_budget, options, rng);
}

}  // namespace pdx
