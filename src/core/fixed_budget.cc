#include "core/fixed_budget.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "common/normal.h"
#include "core/sampling_state.h"

namespace pdx {

namespace {

// The fixed-budget split target (budget mode has no alpha): the stream
// to split and its target variance, or nullopt for no split this round.
struct SplitTarget {
  uint32_t stream = 0;
  double variance = 0.0;
};

// Delta: what would make the weakest pair, over every configuration,
// confident at a nominal 95% level.
std::optional<SplitTarget> FixedSplitTarget(const DeltaSampling& state,
                                            ConfigId best,
                                            std::vector<double>* diffs,
                                            std::vector<double>* vars) {
  const double z = NormalQuantile(0.975);
  double target_se = std::numeric_limits<double>::infinity();
  state.estimator().DiffStats(state.strat(0), *diffs, *vars);
  for (ConfigId j = 0; j < diffs->size(); ++j) {
    if (j == best) continue;
    const double se = std::sqrt(std::max(0.0, (*vars)[j]));
    const double gap = std::max(-(*diffs)[j], 0.25 * se);
    if (gap > 0.0) target_se = std::min(target_se, gap / z);
  }
  if (!std::isfinite(target_se) || target_se <= 0.0) return std::nullopt;
  return SplitTarget{0, target_se * target_se};
}

// Independent: the highest-variance active configuration (a cheap
// surrogate for "last sampled" in budget mode), at a quarter of its
// variance over z^2.
std::optional<SplitTarget> FixedSplitTarget(const IndependentSampling& state,
                                            ConfigId /*best*/,
                                            std::vector<double>* /*diffs*/,
                                            std::vector<double>* /*vars*/) {
  ConfigId target = 0;
  double worst = -1.0;
  for (ConfigId c = 0; c < state.active().size(); ++c) {
    if (state.active()[c] && state.variance(c) > worst) {
      worst = state.variance(c);
      target = c;
    }
  }
  const double z = NormalQuantile(0.975);
  const double var = state.estimator().Variance(target, state.strat(target));
  return SplitTarget{target, var / (z * z * 4.0)};
}

// The §7 comparisons: one selection spending at most `query_budget` draws.
// The variance-guided and fine allocations run Algorithm 1's machinery
// truncated at the budget (DESIGN.md §16 lists where it departs from the
// selector's loop); uniform and equal allocation are plain baselines.
template <class State>
FixedBudgetResult RunFixed(CostSource* source, uint64_t query_budget,
                           const FixedBudgetOptions& options, Rng* rng) {
  const size_t k = source->num_configs();
  const uint64_t calls_before = source->num_calls();
  const std::vector<uint64_t> pops = TemplatePopulationsOf(*source);
  const bool fine = options.allocation == AllocationPolicy::kFinePerTemplate;
  // Dynamic budget reallocation engages only in the variance-guided and
  // fine allocations, which keeps the baselines byte-identical. Fixed-
  // budget runs emit no trace events by contract; the budget counters
  // surface on FixedBudgetResult instead.
  std::unique_ptr<BudgetManager> budget;
  if (options.budget_policy == BudgetPolicy::kDynamic && k > 1 &&
      (fine || options.allocation == AllocationPolicy::kVarianceGuided)) {
    PDX_CHECK_MSG(options.bounds != nullptr,
                  "BudgetPolicy::kDynamic requires FixedBudgetOptions::bounds");
    budget = std::make_unique<BudgetManager>(
        k, std::accumulate(pops.begin(), pops.end(), uint64_t{0}),
        options.bounds, options.budget_model, nullptr);
  }
  State state(source, pops, rng, budget.get(), /*feed_uncertainty=*/false);
  if (fine || options.allocation == AllocationPolicy::kEqualPerTemplate) {
    state.SplitPerTemplate();
  }
  const std::vector<double> overheads =
      options.overhead_aware ? PerTemplateOverheads(*source, pops)
                             : std::vector<double>();
  auto spent = [&] { return state.samples() >= query_budget; };
  auto draw = [&](uint32_t s, uint32_t h, bool global_fallback) {
    std::optional<QueryId> q = state.Draw(s, h, global_fallback);
    if (!q) return false;
    state.Evaluate(s, *q, /*span=*/false);
    return true;
  };

  if (options.allocation == AllocationPolicy::kUniform) {
    // Uniform draws, round-robin over the streams.
    for (uint32_t s = 0; !spent(); s = (s + 1) % state.num_streams()) {
      std::optional<QueryId> q = state.DrawGlobal(s);
      if (!q) break;
      state.Evaluate(s, *q, /*span=*/false);
    }
  } else if (options.allocation == AllocationPolicy::kEqualPerTemplate) {
    // Round-robin over every stream's strata (= templates).
    bool progressed = true;
    while (!spent() && progressed) {
      progressed = false;
      for (uint32_t s = 0; s < state.num_streams() && !spent(); ++s) {
        for (uint32_t h = 0; h < state.strat(s).num_strata() && !spent();
             ++h) {
          progressed |= draw(s, h, false);
        }
      }
    }
  } else {
    // Pilot: fine allocation seeds every stratum once; otherwise n_min
    // uniform draws per stream, round-robin.
    if (fine) {
      for (uint32_t s = 0; s < state.num_streams(); ++s) {
        for (uint32_t h = 0; h < state.strat(s).num_strata() && !spent();
             ++h) {
          draw(s, h, true);
        }
      }
    } else {
      for (uint32_t i = 0; i < options.n_min && !spent(); ++i) {
        for (uint32_t s = 0; s < state.num_streams() && !spent(); ++s) {
          std::optional<QueryId> q = state.DrawGlobal(s);
          if (q) state.Evaluate(s, *q, /*span=*/false);
        }
      }
    }
    const std::vector<double> no_confidence(k, 0.0);
    std::vector<double> diffs(k, 0.0);
    std::vector<double> vars(k, 0.0);
    uint64_t iteration = 0;
    while (!spent()) {
      if constexpr (State::kShared) {
        if (state.Exhausted()) break;
      }
      ++iteration;
      const ConfigId best = state.Incumbent();
      // Dynamic budget reallocation: fixed-budget mode has no Pr(CS)
      // machinery, so the VOI gain is priced with the conservative
      // zero-confidence pair weights; a dominated configuration stops
      // being priced and its budget share flows to the live pairs.
      if (budget) {
        for (ConfigId j : budget->DecideRound(iteration, best, state.active(),
                                              no_confidence, 0.0)) {
          state.Deactivate(j);
        }
      }
      if (!fine && options.stratify) {
        const std::optional<SplitTarget> target =
            FixedSplitTarget(state, best, &diffs, &vars);
        if (target) {
          const uint32_t s = target->stream;
          SplitDecision dec = FindBestSplit(
              state.strat(s), state.SplitStats(s), target->variance,
              options.n_min, options.min_template_observations);
          if (dec.beneficial) {
            const uint32_t new_stratum = state.Split(s, dec.stratum, dec.part1);
            // Top-up to n_min, truncated by the budget.
            for (uint32_t h : {dec.stratum, new_stratum}) {
              while (state.SamplesIn(s, h) < options.n_min && !spent()) {
                if (!draw(s, h, true)) break;
              }
            }
          }
        }
      }
      if (spent()) break;
      const NextDraw next =
          ChooseNextDraw(state, state.StreamOf(best), overheads, pops);
      if (next.score < 0.0 || !draw(next.stream, next.stratum, true)) break;
    }
  }

  FixedBudgetResult out;
  out.estimates = state.Estimates();
  // A dominance-eliminated configuration is proven non-best by its
  // envelope even when its (partial-sample) estimate undercuts the
  // winner's.
  out.best = state.LowestActive(out.estimates);
  out.queries_sampled = state.samples();
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
    return RunFixed<DeltaSampling>(source, query_budget, options, rng);
  }
  return RunFixed<IndependentSampling>(source, query_budget, options, rng);
}

}  // namespace pdx
