#include "core/selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/normal.h"
#include "common/obs.h"
#include "common/span.h"
#include "core/sampling_state.h"
#include "core/selection_trace.h"

namespace pdx {

namespace {

// When the observed gap between two configurations is not yet positive,
// the target-variance derivation uses this fraction of the current
// standard error as a stand-in gap, keeping Algorithm 2's #Samples
// comparisons meaningful during the ambiguous phase.
constexpr double kGapFloorSeFraction = 0.25;

// Interned metric handles; one registry lookup per process.
struct SelectorMetrics {
  obs::Counter* runs;
  obs::Counter* rounds;
  obs::Counter* eliminations;
  obs::Counter* splits;
  obs::Histogram* run_ns;
  obs::Histogram* split_search_ns;
};

SelectorMetrics& Metrics() {
  static SelectorMetrics m = [] {
    obs::Registry& r = obs::Registry::Global();
    return SelectorMetrics{r.GetCounter("pdx_selector_runs_total"),
                           r.GetCounter("pdx_selector_rounds_total"),
                           r.GetCounter("pdx_selector_eliminations_total"),
                           r.GetCounter("pdx_selector_splits_total"),
                           r.GetHistogram("pdx_selector_run_ns"),
                           r.GetHistogram("pdx_strat_split_search_ns")};
  }();
  return m;
}

// Post-split Neyman allocation over all strata for the trace's split
// event. Pure arithmetic on already-estimated moments — draws nothing,
// calls no optimizer — and only runs when a sink is attached.
std::vector<double> TraceSplitNeyman(const Stratification& strat,
                                     const std::vector<TemplateStats>& stats,
                                     uint64_t est_total_samples,
                                     uint32_t n_min) {
  const size_t H = strat.num_strata();
  std::vector<double> pops(H, 0.0);
  std::vector<double> sds(H, 0.0);
  std::vector<double> lo(H, 0.0);
  for (uint32_t h = 0; h < H; ++h) {
    StratumEstimate e = EstimateStratum(strat.TemplatesOf(h), stats);
    pops[h] = static_cast<double>(e.population);
    sds[h] = std::sqrt(std::max(0.0, e.variance));
    lo[h] = std::min(static_cast<double>(n_min), pops[h]);
  }
  return NeymanAllocation(pops, sds, static_cast<double>(est_total_samples),
                          lo);
}

}  // namespace

ConfigurationSelector::ConfigurationSelector(CostSource* source,
                                             SelectorOptions options)
    : source_(source), options_(options) {
  PDX_CHECK(source != nullptr);
  PDX_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  PDX_CHECK(options_.delta >= 0.0);
  PDX_CHECK(options_.n_min >= 2);
  PDX_CHECK(options_.consecutive_to_stop >= 1);
  PDX_CHECK(options_.stratification_period >= 1);
}

double ConfigurationSelector::RequiredZ(size_t active_pairs) const {
  if (active_pairs == 0) return 0.0;
  double per_pair =
      1.0 - (1.0 - options_.alpha) / static_cast<double>(active_pairs);
  per_pair = std::clamp(per_pair, 0.5 + 1e-12, 1.0 - 1e-12);
  return NormalQuantile(per_pair);
}

double ConfigurationSelector::EffectiveEliminationThreshold(size_t k) const {
  double threshold = options_.elimination_threshold;
  if (threshold >= 1.0 || k < 2) return threshold;
  // A frozen pair keeps contributing (1 - Pr(CS_{l,j})) to the Bonferroni
  // miss budget forever, so its contribution must be negligible relative
  // to (1 - alpha) *per pair*: freezing k-1 pairs at 0.995 each would cap
  // Pr(CS) at 1 - 0.005 (k-1), unreachable for large k. Scale the
  // threshold so all frozen pairs together consume at most half the miss
  // budget.
  double per_pair =
      1.0 - (1.0 - options_.alpha) / (2.0 * static_cast<double>(k - 1));
  return std::max(threshold, per_pair);
}

SelectionResult ConfigurationSelector::Run(Rng* rng) {
  PDX_CHECK(rng != nullptr);
  if (!options_.exec.enabled) return RunScheme(rng);
  // Fault-tolerant execution: interpose the retry/degrade layer for the
  // duration of this run only. The wrapper is deterministic and caches each
  // resolved cell, so the sampling schedule below is unchanged; only the
  // values (and their uncertainty half-widths) can differ when cells
  // degrade to bounds.
  FaultTolerantCostSource executor(source_, options_.exec, options_.bounds,
                                   options_.trace);
  CostSource* const saved = source_;
  source_ = &executor;
  SelectionResult result;
  try {
    result = RunScheme(rng);
  } catch (...) {
    source_ = saved;
    throw;
  }
  source_ = saved;
  result.whatif_retries = executor.num_retries();
  result.whatif_timeouts = executor.num_timeouts();
  result.whatif_failures = executor.num_failures();
  return result;
}

SelectionResult ConfigurationSelector::RunScheme(Rng* rng) {
  if (options_.scheme == SamplingScheme::kIndependent) {
    return RunRounds<IndependentSampling>(rng);
  }
  return RunRounds<DeltaSampling>(rng);
}

// ---------------------------------------------------------------------------
// The round engine (DESIGN.md §16): Algorithm 1 over either sampling state.

template <class State>
SelectionResult ConfigurationSelector::RunRounds(Rng* rng) {
  obs::SpanScope run_span(State::kRunSpan, "selector");
  const size_t k = source_->num_configs();
  const uint64_t calls_before = source_->num_calls();
  TraceSink* const sink = options_.trace;
  Metrics().runs->Add();
  const uint64_t run_t0 = obs::TimerStart();
  const std::vector<uint64_t> pops = TemplatePopulationsOf(*source_);
  const uint64_t N = std::accumulate(pops.begin(), pops.end(), uint64_t{0});
  const std::vector<double> overheads =
      options_.overhead_aware ? PerTemplateOverheads(*source_, pops)
                              : std::vector<double>();

  // Dynamic budget reallocation (DESIGN.md §10): instantiated only under
  // kDynamic, so the static path stays byte-identical to pre-budget runs.
  std::unique_ptr<BudgetManager> budget;
  std::vector<bool> dominance_eliminated;
  if (options_.budget_policy == BudgetPolicy::kDynamic && k > 1) {
    PDX_CHECK_MSG(options_.bounds != nullptr,
                  "BudgetPolicy::kDynamic requires SelectorOptions::bounds");
    budget = std::make_unique<BudgetManager>(k, N, options_.bounds, sink);
    dominance_eliminated.assign(k, false);
  }
  State state(source_, pops, rng, budget.get(), /*feed_uncertainty=*/true);
  const std::vector<bool>& active = state.active();
  std::vector<double> frozen_prcs(k, 1.0);
  std::vector<uint32_t> eliminated_at(k, 0);
  const double elim_threshold = EffectiveEliminationThreshold(k);

  if (sink != nullptr) {
    TraceRunStart ev;
    ev.scheme = State::kScheme;
    ev.num_configs = k;
    ev.num_templates = source_->num_templates();
    ev.workload_size = N;
    ev.alpha = options_.alpha;
    ev.delta = options_.delta;
    ev.n_min = options_.n_min;
    ev.stratify = options_.stratify;
    ev.elimination_threshold = elim_threshold;
    sink->RunStart(ev);
  }

  auto finish = [&](const SelectionResult& res) {
    Metrics().rounds->Add(res.rounds);
    obs::TimerStop(run_t0, Metrics().run_ns);
    if (sink != nullptr) {
      TraceRunEnd ev;
      ev.best = res.best;
      ev.pr_cs = res.pr_cs;
      ev.reached_target = res.reached_target;
      ev.rounds = res.rounds;
      ev.samples = res.queries_sampled;
      ev.optimizer_calls = res.optimizer_calls;
      ev.active_configs = res.active_configs;
      sink->RunEnd(ev);
      sink->Flush();
    }
  };

  SelectionResult result;
  if (k == 1) {
    result.best = 0;
    result.pr_cs = 1.0;
    result.reached_target = true;
    result.active_configs = 1;
    result.final_strata = {1};
    result.estimates = {0.0};
    result.eliminated_at = {0};
    finish(result);
    return result;
  }

  // Pilot sample (Algorithm 1, line 4).
  {
    obs::SpanScope pilot_span("pilot", "selector", WhatIfTracked());
    state.Pilot(options_.n_min);
  }

  // Hot-loop buffers, allocated once per run.
  std::vector<double> gaps(k, 0.0);
  std::vector<double> ses(k, 0.0);
  std::vector<double> pairwise;
  pairwise.reserve(k - 1);

  // Per-round phase spans are decimated (SampledSpanRound); run-level
  // spans above are not.
  bool span_round = false;
  uint32_t consecutive = 0;
  uint64_t iteration = 0;
  uint32_t last_stream = 0;  // the stream that received the last draw
  ConfigId prev_best = static_cast<ConfigId>(k);  // sentinel: no incumbent

  auto eliminate = [&](ConfigId j, double pr_cs, const char* reason) {
    state.Deactivate(j);
    frozen_prcs[j] = pr_cs;
    eliminated_at[j] = static_cast<uint32_t>(iteration);
    Metrics().eliminations->Add();
    if (sink != nullptr) {
      TraceElimination ev;
      ev.round = iteration;
      ev.config = j;
      ev.pr_cs = pr_cs;
      ev.threshold = elim_threshold;
      ev.reason = reason;
      sink->Elimination(ev);
    }
  };

  while (true) {
    ++iteration;
    span_round = obs::SampledSpanRound(iteration - 1);

    ConfigId best = 0;
    {
      obs::SpanScope estimate_span(span_round, "estimate", "selector");
      best = state.Incumbent();
    }

    // Pairwise Pr(CS) and the Bonferroni bound (eq. 3); eliminated pairs
    // keep the Pr(CS) they were frozen at.
    size_t active_pairs = 0;
    double pr = 0.0;
    {
      obs::SpanScope pairwise_span(span_round, "pairwise", "selector");
      state.PairGaps(best, &gaps, &ses);
      pairwise.clear();
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        if (!active[j]) {
          pairwise.push_back(frozen_prcs[j]);
          continue;
        }
        ++active_pairs;
        pairwise.push_back(PairwisePrCs(gaps[j], ses[j], options_.delta));
      }
      pr = BonferroniPrCs(pairwise);
    }

    if (sink != nullptr) {
      if (prev_best != static_cast<ConfigId>(k) && best != prev_best) {
        TraceIncumbent ev;
        ev.round = iteration;
        ev.from = prev_best;
        ev.to = best;
        sink->Incumbent(ev);
      }
      TraceRound ev;
      ev.round = iteration;
      ev.samples = state.samples();
      ev.optimizer_calls = source_->num_calls() - calls_before;
      ev.incumbent = best;
      ev.bonferroni = pr;
      ev.active_configs = static_cast<uint32_t>(
          std::count(active.begin(), active.end(), true));
      for (uint32_t st = 0; st < state.num_streams(); ++st) {
        ev.num_strata += static_cast<uint32_t>(state.strat(st).num_strata());
      }
      ev.pairs.reserve(k - 1);
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        TracePair p;
        p.config = j;
        p.pr_cs = pairwise[p_idx++];
        p.gap = gaps[j];
        p.se = ses[j];
        p.active = active[j];
        ev.pairs.push_back(p);
      }
      sink->Round(ev);
    }
    prev_best = best;

    bool exhausted = false;
    bool capped = false;
    {
      obs::SpanScope termination_span(span_round, "termination", "selector");
      if (pr > options_.alpha) {
        ++consecutive;
      } else {
        consecutive = 0;
      }
      exhausted = state.Exhausted();
      capped = options_.max_samples > 0 &&
               state.samples() >= options_.max_samples;
    }
    if (consecutive >= options_.consecutive_to_stop || exhausted || capped) {
      // Exhausting the sample space only yields an exact census — and thus
      // Pr(CS) = 1 — when every cell was measured exactly; any degraded
      // (bound-interval) cell keeps residual uncertainty in the estimate.
      const bool exact_exhausted = exhausted && state.degraded_cells() == 0;
      result.best = best;
      result.pr_cs = exact_exhausted ? 1.0 : pr;
      result.reached_target = consecutive >= options_.consecutive_to_stop ||
                              (exact_exhausted && options_.alpha < 1.0) ||
                              (exhausted && pr > options_.alpha);
      result.degraded_cells = state.degraded_cells();
      result.queries_sampled = state.samples();
      result.optimizer_calls = source_->num_calls() - calls_before;
      if (budget) {
        const BudgetStats& bs = budget->stats();
        result.dominance_eliminations = bs.dominance_eliminations;
        result.refined_queries = bs.refined_queries;
        result.dominance_eliminated = std::move(dominance_eliminated);
      }
      result.estimator_samples_bytes = state.samples_bytes();
      // Every configuration's estimate, eliminated ones included (from
      // the sample they were frozen with).
      result.estimates = state.Estimates();
      for (uint32_t st = 0; st < state.num_streams(); ++st) {
        result.final_strata.push_back(
            static_cast<uint32_t>(state.strat(st).num_strata()));
      }
      result.active_configs = static_cast<uint32_t>(
          std::count(active.begin(), active.end(), true));
      result.rounds = iteration;
      result.eliminated_at = std::move(eliminated_at);
      finish(result);
      return result;
    }

    // Elimination of clearly-inferior configurations. Gated on template
    // coverage of both samples of the pair: structure-specific cost
    // differences are sparse, and a configuration's entire advantage can
    // hide in templates the sample has not reached yet — eliminating then
    // risks freezing out the true best. The gate allows a small unobserved
    // population share so rare trace templates don't force
    // coupon-collection over the workload.
    const double slack = options_.elimination_coverage_slack;
    if (elim_threshold < 1.0 && state.Covered(best, slack)) {
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        const double p = pairwise[p_idx++];
        if (active[j] && p > elim_threshold && state.Covered(j, slack)) {
          eliminate(j, p, "pr_cs_above_threshold");
        }
      }
    }

    // Dynamic budget (DESIGN.md §10): the manager refines free bounds and
    // returns the configurations proven non-best by interval dominance —
    // frozen at Pr(CS) = 1, which only tightens the Bonferroni bound (the
    // envelope contains the true cost, so a dominated configuration is
    // certainly not the true argmin).
    if (budget) {
      for (ConfigId j : budget->DecideRound(iteration, best, active)) {
        dominance_eliminated[j] = true;
        eliminate(j, 1.0, "interval_dominance");
      }
    }

    // Progressive stratification (Algorithm 2) of the stream that received
    // the previous draw — the only one whose moments changed (§5.1).
    if (options_.stratify && state.Live(last_stream) &&
        iteration % options_.stratification_period == 0) {
      // Fires every stratification_period rounds and usually declines to
      // split, so it is decimated by call index like the round phases.
      thread_local uint64_t stratify_calls = 0;
      obs::SpanScope stratify_span(
          obs::TimingEnabled() && obs::SampledSpanRound(stratify_calls++),
          "stratify", "selector", WhatIfTracked());
      const double z = RequiredZ(std::max<size_t>(1, active_pairs));
      // The SE the pair (best, j) must reach for Pr(CS) at the per-pair z.
      auto se_needed = [&](ConfigId j) {
        const double gap = std::max(gaps[j], kGapFloorSeFraction * ses[j]);
        return (gap + options_.delta) / std::max(z, 1e-9);
      };
      double min_se = std::numeric_limits<double>::infinity();
      for (ConfigId j = 0; j < k; ++j) {
        if (active[j] && j != best) min_se = std::min(min_se, se_needed(j));
      }
      const uint32_t s = last_stream;
      const double target_var =
          state.SplitTargetVariance(s, best, min_se, se_needed(s));
      if (target_var > 0.0) {
        std::vector<TemplateStats> tstats = state.SplitStats(s);
        const uint64_t split_t0 = obs::TimerStart();
        SplitDecision dec =
            FindBestSplit(state.strat(s), tstats, target_var, options_.n_min,
                          options_.min_template_observations);
        obs::TimerStop(split_t0, Metrics().split_search_ns);
        if (dec.beneficial) {
          const uint32_t new_stratum = state.Split(s, dec.stratum, dec.part1);
          Metrics().splits->Add();
          if (sink != nullptr) {
            TraceSplit ev;
            ev.round = iteration;
            ev.config = State::kShared ? TraceSplit::kSharedStratification
                                       : static_cast<int32_t>(s);
            ev.stratum = dec.stratum;
            ev.new_stratum = new_stratum;
            ev.part1 = dec.part1;
            ev.est_total_samples = dec.est_total_samples;
            ev.neyman = TraceSplitNeyman(state.strat(s), tstats,
                                         dec.est_total_samples,
                                         options_.n_min);
            sink->Split(ev);
          }
          // Top-up: every stratum must hold >= n_min samples.
          for (uint32_t h : {dec.stratum, new_stratum}) {
            while (state.SamplesIn(s, h) < options_.n_min) {
              std::optional<QueryId> q = state.Draw(s, h, false);
              if (!q) break;
              state.Evaluate(s, *q, span_round);
            }
          }
        }
      }
    }

    // Next sample (§5.2): the stratum with the largest estimated reduction
    // of the active pairs' variance sum, optionally per unit of optimizer
    // overhead.
    obs::SpanScope sample_span(span_round, "sample", "selector",
                               WhatIfTracked());
    const NextDraw next =
        ChooseNextDraw(state, state.StreamOf(best), overheads, pops);
    std::optional<QueryId> q = state.Draw(next.stream, next.stratum, true);
    if (!q) continue;  // fully exhausted; loop exits at the top
    state.Evaluate(next.stream, *q, span_round);
    last_stream = next.stream;
  }
}

}  // namespace pdx
