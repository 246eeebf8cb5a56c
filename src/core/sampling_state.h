// Copyright (c) the pdexplore authors.
// The two sampling states of the Algorithm-1 round engine (DESIGN.md §16).
//
// Algorithm 1 is one loop with the sampling scheme as a parameter: §4.1
// Independent Sampling gives every configuration its own sample, §4.2
// Delta Sampling shares one sample across all of them. A state owns
// everything scheme-specific — draw streams, estimator, pricing — and
// both round loops (the selector's Pr(CS) stop rule and the fixed-budget
// harness's query budget) are written once as templates over it, so the
// scheme is picked at compile time.
//
// A draw stream is one stratification (Algorithm 2 refines it) plus its
// without-replacement pool. Delta has a single stream shared by every
// configuration; Independent has one per configuration, and stream c is
// configuration c's sample.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "core/budget.h"
#include "core/cost_source.h"
#include "core/estimators.h"
#include "core/stratification.h"

namespace pdx {

/// The counter every "whatif" span tracks: the cost source bumps it on
/// each optimizer invocation, so the span's delta says how many what-if
/// calls the bracketed batch issued.
obs::TrackedCounter WhatIfTracked();

/// Stream bookkeeping shared by both states: the strata and pools, the
/// active-configuration mask, and the sample / degraded-cell tallies.
/// `kPerConfig` is true for Independent Sampling (one stream per
/// configuration).
template <bool kPerConfig>
class SamplingStreams {
 public:
  static constexpr bool kShared = !kPerConfig;

  size_t num_streams() const { return strata_.size(); }
  const Stratification& strat(uint32_t s) const { return strata_[s]; }
  const StratifiedSamplePool& pool(uint32_t s) const { return pools_[s]; }

  /// Configurations still compared (not eliminated). The selector
  /// deactivates; the Delta state prices only active configurations.
  const std::vector<bool>& active() const { return active_; }
  void Deactivate(ConfigId c) { active_[c] = false; }

  /// Whether stream `s` is still drawn from: the shared stream always,
  /// a per-configuration stream while its configuration is active.
  bool Live(uint32_t s) const { return !kPerConfig || active_[s]; }
  /// The active configuration with the lowest of `estimates`.
  ConfigId LowestActive(const std::vector<double>& estimates) const {
    ConfigId best = 0;
    double best_est = std::numeric_limits<double>::infinity();
    for (ConfigId c = 0; c < estimates.size(); ++c) {
      if (active_[c] && estimates[c] < best_est) {
        best_est = estimates[c];
        best = c;
      }
    }
    return best;
  }
  /// The stream that samples configuration `c`.
  uint32_t StreamOf(ConfigId c) const { return kPerConfig ? c : 0; }
  /// True when no live stream has an unsampled query left.
  bool Exhausted() const {
    for (uint32_t s = 0; s < num_streams(); ++s) {
      if (Live(s) && pools_[s].RemainingTotal() > 0) return false;
    }
    return true;
  }

  /// A uniform unsampled query of stratum `h` of stream `s`; when that
  /// stratum is exhausted and `global_fallback` is set, one from anywhere
  /// in the stream.
  std::optional<QueryId> Draw(uint32_t s, uint32_t h, bool global_fallback) {
    std::optional<QueryId> q = pools_[s].Draw(strata_[s], h, rng_);
    if (!q && global_fallback) q = pools_[s].DrawGlobal(rng_);
    return q;
  }
  std::optional<QueryId> DrawGlobal(uint32_t s) {
    return pools_[s].DrawGlobal(rng_);
  }

  /// Applies an Algorithm-2 split to stream `s`; returns the new stratum.
  uint32_t Split(uint32_t s, uint32_t h, const std::vector<TemplateId>& part1) {
    strata_[s].Split(h, part1);
    return static_cast<uint32_t>(strata_[s].num_strata() - 1);
  }
  /// One stratum per template in every stream (the §7 fine and
  /// equal-allocation baselines): repeatedly splits the first template off
  /// the first stratum that holds several.
  void SplitPerTemplate() {
    for (Stratification& strat : strata_) {
      for (uint32_t h = 0; h < strat.num_strata(); ++h) {
        const std::vector<TemplateId>& members = strat.TemplatesOf(h);
        if (members.size() > 1) {
          strat.Split(h, {members.front()});
          h = static_cast<uint32_t>(-1);  // rescan from the first stratum
        }
      }
    }
  }

  /// Evaluations so far: distinct queries (Delta) or draws summed over
  /// configurations (Independent).
  uint64_t samples() const { return samples_; }
  /// Evaluations that consumed a bound-degraded cell.
  uint64_t degraded_cells() const { return degraded_; }

 protected:
  /// `budget` (may be null) observes every evaluated cell. With
  /// `feed_uncertainty` false the estimator treats every cell as exact.
  /// Each pool shuffles with `rng` as it is built, so the construction
  /// order fixes the run's random stream.
  SamplingStreams(CostSource* source, const std::vector<uint64_t>& pops,
                  Rng* rng, BudgetManager* budget, bool feed_uncertainty)
      : source_(source),
        rng_(rng),
        budget_(budget),
        feed_uncertainty_(feed_uncertainty),
        active_(source->num_configs(), true) {
    const size_t streams = kPerConfig ? source->num_configs() : 1;
    strata_.reserve(streams);
    pools_.reserve(streams);
    for (size_t s = 0; s < streams; ++s) {
      strata_.emplace_back(pops);
      pools_.emplace_back(*source, rng);
    }
  }

  CostSource* source_;
  Rng* rng_;
  BudgetManager* budget_;
  bool feed_uncertainty_;
  std::vector<Stratification> strata_;
  std::vector<StratifiedSamplePool> pools_;
  std::vector<bool> active_;
  uint64_t samples_ = 0;
  uint64_t degraded_ = 0;
};

/// §4.2 Delta Sampling: one shared stream, every sampled query priced in
/// all active configurations with one batched CostAcross sweep, pairwise
/// differences against the incumbent from a DeltaEstimator.
class DeltaSampling : public SamplingStreams<false> {
 public:
  static constexpr const char* kScheme = "delta";
  static constexpr const char* kRunSpan = "run_delta";

  DeltaSampling(CostSource* source, const std::vector<uint64_t>& pops,
                Rng* rng, BudgetManager* budget, bool feed_uncertainty);

  /// Prices `q` in every active configuration and records it; `span`
  /// gates the decimated "whatif" span around the pricing sweep.
  void Evaluate(uint32_t stream, QueryId q, bool span);
  /// Algorithm 1's pilot: n_min uniform draws.
  void Pilot(uint32_t n_min);

  /// The lowest-estimate active configuration, which becomes the
  /// reference of the pairwise differences (a dominated configuration is
  /// no longer priced, so it cannot be one).
  ConfigId Incumbent();
  /// Per active j != best: the gap -X_{best,j} and its standard error;
  /// 0 elsewhere.
  void PairGaps(ConfigId best, std::vector<double>* gaps,
                std::vector<double>* ses);
  /// Elimination coverage gate: the shared sample has reached all but
  /// `slack` of the workload population.
  bool Covered(ConfigId /*c*/, double slack) const {
    return est_.UnobservedPopulationShare() <= slack;
  }
  /// Target variance of the Algorithm-2 split search: the tightest
  /// active pair's required SE `min_se`, squared; 0 = no split.
  double SplitTargetVariance(uint32_t /*stream*/, ConfigId /*best*/,
                             double min_se, double /*stream_se*/) const {
    return std::isfinite(min_se) && min_se > 0.0 ? min_se * min_se : 0.0;
  }
  /// Per-template difference stats averaged over active pairs.
  std::vector<TemplateStats> SplitStats(uint32_t /*stream*/) const {
    return est_.AveragedDiffTemplateStats(active_);
  }
  uint64_t SamplesIn(uint32_t /*stream*/, uint32_t h) const {
    return est_.SamplesIn(strata_[0], h);
  }
  /// §5.2: variance reduction over active pairs of one more draw in `h`.
  double Reduction(uint32_t /*stream*/, uint32_t h) const {
    return est_.VarianceReductionForNext(strata_[0], h, active_);
  }

  /// Current estimates of every configuration.
  std::vector<double> Estimates() const;
  size_t samples_bytes() const { return est_.samples_bytes(); }
  const DeltaEstimator& estimator() const { return est_; }

 private:
  DeltaEstimator est_;
  // Hot-loop buffers, allocated once per run. ids_ carries the active
  // configurations in ascending order, so a sweep prices cells in the
  // scalar loop's order.
  std::vector<double> estimates_, diffs_, vars_, costs_, uncerts_, vals_;
  std::vector<ConfigId> ids_;
};

/// §4.1 Independent Sampling: one stream and one sample per
/// configuration, scalar pricing, an IndependentEstimator.
class IndependentSampling : public SamplingStreams<true> {
 public:
  static constexpr const char* kScheme = "independent";
  static constexpr const char* kRunSpan = "run_independent";

  IndependentSampling(CostSource* source, const std::vector<uint64_t>& pops,
                      Rng* rng, BudgetManager* budget, bool feed_uncertainty);

  /// Prices `q` in configuration `stream` and records it.
  void Evaluate(uint32_t stream, QueryId q, bool span);
  /// Algorithm 1's pilot: n_min draws per configuration, drawn first and
  /// then priced in one config-major batch (pricing consumes no
  /// randomness, so the RNG stream is that of scalar pricing).
  void Pilot(uint32_t n_min);

  /// The lowest-estimate active configuration; caches the estimates and
  /// variances of the active ones (0 for the rest).
  ConfigId Incumbent();
  void PairGaps(ConfigId best, std::vector<double>* gaps,
                std::vector<double>* ses);
  /// Coverage gate on configuration `c`'s own sample.
  bool Covered(ConfigId c, double slack) const {
    return est_.UnobservedPopulationShare(c) <= slack;
  }
  /// A pair's variance is Var(X_j) + Var(X_best), so each sample targets
  /// half the pair's: the incumbent's sample the tightest pair's
  /// (`min_se`), any other its own pair's (`stream_se`).
  double SplitTargetVariance(uint32_t stream, ConfigId best, double min_se,
                             double stream_se) const;
  std::vector<TemplateStats> SplitStats(uint32_t stream) const {
    return est_.TemplateStatsFor(stream);
  }
  uint64_t SamplesIn(uint32_t stream, uint32_t h) const {
    return est_.SamplesIn(stream, strata_[stream], h);
  }
  double Reduction(uint32_t stream, uint32_t h) const {
    return est_.VarianceReductionForNext(stream, strata_[stream], h);
  }

  std::vector<double> Estimates() const;
  size_t samples_bytes() const { return 0; }  // running moments only
  const IndependentEstimator& estimator() const { return est_; }
  /// Variance cached by the last Incumbent call.
  double variance(ConfigId c) const { return variances_[c]; }

 private:
  /// Records one priced cell: estimator, budget manager and tallies.
  void Record(ConfigId c, QueryId q, double cost, double uncertainty);

  IndependentEstimator est_;
  std::vector<double> estimates_, variances_;
};

/// §5.2 next draw: the (stream, stratum) with the largest estimated
/// variance reduction among live streams' non-exhausted strata, divided
/// by the stratum's mean optimizer overhead when `overheads` is
/// non-empty. `score` stays -1 when nothing scores; the draw then goes to
/// stratum 0 of `fallback_stream`.
struct NextDraw {
  uint32_t stream = 0;
  uint32_t stratum = 0;
  double score = -1.0;
};

template <class State>
NextDraw ChooseNextDraw(const State& state, uint32_t fallback_stream,
                        const std::vector<double>& overheads,
                        const std::vector<uint64_t>& pops) {
  NextDraw next;
  next.stream = fallback_stream;
  for (uint32_t s = 0; s < state.num_streams(); ++s) {
    if (!state.Live(s)) continue;
    const Stratification& strat = state.strat(s);
    for (uint32_t h = 0; h < strat.num_strata(); ++h) {
      if (state.pool(s).RemainingInStratum(strat, h) == 0) continue;
      double red = state.Reduction(s, h);
      if (!overheads.empty()) {
        red /= StratumMeanOverhead(strat, h, overheads, pops);
      }
      if (red > next.score) next = {s, h, red};
    }
  }
  return next;
}

}  // namespace pdx
