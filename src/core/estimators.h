// Copyright (c) the pdexplore authors.
// Sampling-scheme state (paper §4): per-template running moments, the
// stratified cost estimators, their variances, and the without-replacement
// sample pools. Shared by the Algorithm-1 selector and by the experiment
// harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/running_stats.h"
#include "core/cost_source.h"
#include "core/stratification.h"

namespace pdx {

/// Structure-of-arrays moment storage over flat cells: count / mean / M2
/// / M3 live in separate parallel arrays so the batched per-stratum merge
/// over the config dimension compiles to plain lanewise loops the
/// auto-vectorizer can handle (an array of RunningMoments structs forces
/// strided loads). Counts are stored as doubles — exact up to 2^53, and
/// every Welford/Pébay formula converts them to double anyway — so all
/// four streams share one element type. Every per-cell update replicates
/// RunningMoments' arithmetic operation for operation; materializing a
/// cell with At() yields an accumulator with identical stored values.
struct MomentSoA {
  std::vector<double> n, mean, m2, m3;

  void Assign(size_t cells) {
    n.assign(cells, 0.0);
    mean.assign(cells, 0.0);
    m2.assign(cells, 0.0);
    m3.assign(cells, 0.0);
  }
  void ResetAll() {
    std::fill(n.begin(), n.end(), 0.0);
    std::fill(mean.begin(), mean.end(), 0.0);
    std::fill(m2.begin(), m2.end(), 0.0);
    std::fill(m3.begin(), m3.end(), 0.0);
  }

  /// Bitwise-identical to RunningMoments::Add applied to cell `i`.
  void AddAt(size_t i, double x) {
    const double n1 = n[i];
    const double nx = n1 + 1.0;
    n[i] = nx;
    const double delta = x - mean[i];
    const double delta_n = delta / nx;
    const double term1 = delta * delta_n * n1;
    mean[i] += delta_n;
    m3[i] += term1 * delta_n * (nx - 2.0) - 3.0 * delta_n * m2[i];
    m2[i] += term1;
  }

  /// Materializes cell `i` (same component values as an accumulator that
  /// received the same observations).
  RunningMoments At(size_t i) const {
    return RunningMoments(static_cast<int64_t>(n[i]), mean[i], m2[i], m3[i]);
  }

  double MeanAt(size_t i) const { return n[i] > 0.0 ? mean[i] : 0.0; }
  double VarianceSampleAt(size_t i) const {
    return n[i] > 1.0 ? m2[i] / (n[i] - 1.0) : 0.0;
  }
};

/// Per-template query populations of a cost source.
std::vector<uint64_t> TemplatePopulationsOf(const CostSource& source);

/// Per-template mean optimizer-call overheads (§5.2: optimization times
/// differ across templates; available without optimizer calls).
std::vector<double> PerTemplateOverheads(const CostSource& source,
                                         const std::vector<uint64_t>& pops);

/// Population-weighted mean optimizer overhead of one stratum.
double StratumMeanOverhead(const Stratification& strat, uint32_t stratum,
                           const std::vector<double>& template_overheads,
                           const std::vector<uint64_t>& pops);

/// Without-replacement sampler over a stratified workload. Query ids are
/// bucketed by template (the unit strata are built from), so stratum
/// splits need no re-shuffling: templates move between strata wholesale,
/// and a uniform draw from a stratum picks a member template weighted by
/// its remaining unsampled count.
class StratifiedSamplePool {
 public:
  /// Builds per-template id pools from the source's template mapping and
  /// shuffles each once.
  StratifiedSamplePool(const CostSource& source, Rng* rng);

  /// Draws a uniformly random unsampled query from `stratum` under the
  /// given stratification; nullopt when the stratum is exhausted.
  std::optional<QueryId> Draw(const Stratification& strat, uint32_t stratum,
                              Rng* rng);

  /// Draws from the whole workload (ignoring strata).
  std::optional<QueryId> DrawGlobal(Rng* rng);

  uint64_t RemainingInStratum(const Stratification& strat,
                              uint32_t stratum) const;
  uint64_t RemainingTotal() const { return remaining_total_; }

 private:
  std::vector<std::vector<QueryId>> template_pools_;  // unsampled ids
  uint64_t remaining_total_ = 0;
};

/// Independent Sampling state (paper §4.1): each configuration has its own
/// sample; estimates and variances follow eq. 2 / eq. 5 with sample
/// variances and finite-population correction.
///
/// Degraded measurements (ISSUE 4): a sample may carry an `uncertainty`
/// half-width u > 0 when its cost is a §6 bound-interval midpoint rather
/// than an exact optimizer value. Each observed value can then be off by
/// up to u in either direction, and in the worst case every error points
/// the same way, shifting a stratum's mean-sum estimate by up to
/// (N_h / n_h) * sum(u). Variance() adds the square of that pessimal
/// systematic shift per stratum, so Pr(CS) computed from it stays an
/// underestimate; the term has no finite-population correction — a
/// measurement-error bias does not vanish at n_h == N_h.
class IndependentEstimator {
 public:
  IndependentEstimator(size_t num_configs, size_t num_templates,
                       const std::vector<uint64_t>& template_populations);

  /// Records Cost(q, config) = cost for a query of `tmpl`; `uncertainty`
  /// is the half-width of the measurement's interval (0 = exact).
  void Add(ConfigId config, TemplateId tmpl, double cost,
           double uncertainty = 0.0);

  /// Stratified estimate X_i of Cost(WL, C_i) under `strat`.
  double Estimate(ConfigId config, const Stratification& strat) const;

  /// Estimated Var(X_i) (eq. 5 with sample variances).
  double Variance(ConfigId config, const Stratification& strat) const;

  /// Variance reduction if one more sample were allocated to `stratum`
  /// (assuming moments unchanged — the §5.2 heuristic).
  double VarianceReductionForNext(ConfigId config, const Stratification& strat,
                                  uint32_t stratum) const;

  /// Samples drawn for `config` in `stratum`.
  uint64_t SamplesIn(ConfigId config, const Stratification& strat,
                     uint32_t stratum) const;
  uint64_t TotalSamples(ConfigId config) const;

  /// Minimum sample count over all non-empty templates for `config` (see
  /// DeltaEstimator::MinTemplateCount).
  uint64_t MinTemplateCount(ConfigId config) const;

  /// See DeltaEstimator::UnobservedPopulationShare.
  double UnobservedPopulationShare(ConfigId config) const;

  /// Per-template stats for Algorithm-2 split scoring.
  std::vector<TemplateStats> TemplateStatsFor(ConfigId config) const;

  /// Merged sample moments of a stratum.
  RunningMoments StratumMoments(ConfigId config, const Stratification& strat,
                                uint32_t stratum) const;

 private:
  /// Summed uncertainty half-widths of the templates in one stratum.
  double StratumUncertainty(ConfigId config, const Stratification& strat,
                            uint32_t stratum) const;

  /// Flat cell index of (config, template).
  size_t CellOf(ConfigId config, TemplateId tmpl) const {
    return static_cast<size_t>(config) * num_templates_ + tmpl;
  }

  size_t num_configs_ = 0;
  size_t num_templates_ = 0;
  std::vector<uint64_t> template_populations_;
  /// moments_[config * num_templates_ + t]: one config's per-template
  /// moments are contiguous (flat storage, no per-config row allocations).
  std::vector<RunningMoments> moments_;
  /// Same layout: sum of uncertainty half-widths (0 = all exact).
  std::vector<double> uncertainty_;
};

/// Delta Sampling state (paper §4.2): a single shared sample, every query
/// evaluated in all (active) configurations. Stores raw cost vectors so
/// pairwise difference moments can be rebuilt when the incumbent best
/// configuration changes.
///
/// Per-stratum merged state: the batched outputs (Estimates, DiffStats,
/// VarianceReductionForNext) all read one cache of per-stratum merged
/// moments — each stratum's template cells Pébay-merged in
/// TemplatesOf(h) order, k configuration lanes per stratum, exactly the
/// state the scalar Estimate/DiffEstimate/DiffVariance merge on every
/// call. A round's new sample dirties only its template's stratum, so a
/// sweep re-merges that one stratum and replays the cached stratum
/// totals in stratum order; the outputs are bit-identical to the scalar
/// calls. A full re-merge happens when the reference changes (the diff
/// moments are rebuilt) or when the Stratification passed in carries a
/// different version() (a Split, or another partition). See DESIGN.md
/// §15.
///
/// Thread-safety: single-run, single-thread. The batched const methods
/// refresh the mutable cache, so even concurrent const calls on one
/// estimator race. Every selection run owns its estimator.
class DeltaEstimator {
 public:
  DeltaEstimator(size_t num_configs, size_t num_templates,
                 const std::vector<uint64_t>& template_populations);

  /// Records one sampled query evaluated in all configurations;
  /// `costs[c]` may be NaN for configurations eliminated before this
  /// sample was drawn. `uncertainties` (empty = all exact) carries the
  /// per-configuration measurement half-widths of degraded cells; the
  /// difference (ref - c) inherits u_ref + u_c, folded into DiffVariance
  /// as the pessimal systematic shift (see IndependentEstimator). The
  /// spans are copied into the flat sample arena — callers reuse their
  /// buffers across samples (no per-call allocation).
  void Add(QueryId qid, TemplateId tmpl, std::span<const double> costs,
           std::span<const double> uncertainties = {});
  /// Brace-literal convenience for tests: Add(q, t, {c0, c1}).
  void Add(QueryId qid, TemplateId tmpl, std::initializer_list<double> costs) {
    Add(qid, tmpl, std::span<const double>(costs.begin(), costs.size()));
  }

  /// Sets the reference ("best") configuration for pairwise difference
  /// moments; rebuilds diff moments from stored samples when it changes.
  /// A reference change replays every stored sample against every
  /// configuration — O(samples · num_configs) — so callers should switch
  /// the incumbent only when the ranking actually changes, not per round.
  void SetReference(ConfigId reference);
  ConfigId reference() const { return reference_; }

  /// Stratified estimate of Cost(WL, C_i) from the shared sample.
  double Estimate(ConfigId config, const Stratification& strat) const;

  /// Stratified estimate of X_{ref,j} = Cost(WL, ref) - Cost(WL, C_j).
  double DiffEstimate(ConfigId j, const Stratification& strat) const;

  /// Estimated Var of the X_{ref,j} estimator (eq. 4 / eq. 5 analogue on
  /// the difference distribution).
  double DiffVariance(ConfigId j, const Stratification& strat) const;

  /// Batched DiffEstimate + DiffVariance over ALL configurations:
  /// diff_out[j] and var_out[j] are bit-identical to the scalar calls.
  /// Both spans must have num_configs elements; entries for the reference
  /// or inactive configurations are computed too (harmless — callers
  /// ignore them). Re-merges only the strata whose templates received
  /// samples since the last sweep (see the class comment); allocates only
  /// when the number of strata grows.
  void DiffStats(const Stratification& strat, std::span<double> diff_out,
                 std::span<double> var_out) const;

  /// Batched Estimate over all configurations; out[c] bit-identical to
  /// Estimate(c, strat). Same incremental refresh as DiffStats.
  void Estimates(const Stratification& strat, std::span<double> out) const;

  /// Sum over active pairs (ref, j) of the variance reduction from one
  /// more sample in `stratum` (§5.2 for Delta Sampling), read from the
  /// cached merged diff moments of that stratum.
  double VarianceReductionForNext(const Stratification& strat, uint32_t stratum,
                                  const std::vector<bool>& active) const;

  /// Samples drawn in `stratum` (shared across configs).
  uint64_t SamplesIn(const Stratification& strat, uint32_t stratum) const;
  uint64_t TotalSamples() const { return samples_.size(); }

  /// Bytes retained by the raw sample store (records + the flat cost /
  /// uncertainty arenas). Delta Sampling keeps every sampled cost vector
  /// alive for reference switches, so this is the scheme's dominant
  /// memory cost: num_configs doubles per sample in one contiguous arena
  /// (amortized growth — O(log n) allocations over a run, none per Add).
  size_t samples_bytes() const;

  /// Minimum sample count over all non-empty templates.
  uint64_t MinTemplateCount() const;

  /// Fraction of the workload population living in templates with no
  /// observations yet. Elimination and other high-confidence decisions
  /// should wait until this is small: an unobserved template can hide the
  /// entire advantage of a configuration (structure-specific cost
  /// differences are sparse).
  double UnobservedPopulationShare() const;

  /// Per-template stats of the difference distributions, averaged over
  /// active pairs (the "single ranking" of §5.1's Delta note).
  std::vector<TemplateStats> AveragedDiffTemplateStats(
      const std::vector<bool>& active) const;

 private:
  struct SampleRecord {
    QueryId qid;
    TemplateId tmpl;
  };

  /// Per-stratum merged moments of one MomentSoA family (raw costs or
  /// reference differences). Lane [h * k + c] holds stratum h's merged
  /// count / mean / M2 (and, for differences, summed half-widths) for
  /// configuration c.
  struct StratumMerge {
    std::vector<double> n, mean, m2, usum;
    /// Stratification::version() the lanes were merged under; 0 forces a
    /// full re-merge on the next sweep.
    uint64_t version = 0;
    /// Templates that received samples since the last sweep; `pending_flag`
    /// deduplicates them.
    std::vector<TemplateId> pending;
    std::vector<uint8_t> pending_flag;
    /// Per-stratum re-merge marks of the sweep in progress.
    std::vector<uint8_t> stale;

    void MarkTemplate(TemplateId t) {
      if (pending_flag[t] != 0) return;
      pending_flag[t] = 1;
      pending.push_back(t);
    }
  };

  /// Brings `merged` up to date with `src` (and `uncert`, when non-null)
  /// under `strat`: every stratum when the version differs, else only the
  /// strata holding pending templates.
  void Sync(const Stratification& strat, const MomentSoA& src,
            const std::vector<double>* uncert, StratumMerge* merged) const;

  void RebuildDiffMoments();
  /// Summed (u_ref + u_j) half-widths of the templates in one stratum.
  double StratumDiffUncertainty(ConfigId j, const Stratification& strat,
                                uint32_t stratum) const;

  /// Flat cell index of (template, config): the config dimension is the
  /// contiguous inner axis, so Add's per-config loop and the batched
  /// kernels' per-stratum merges sweep consecutive cells.
  size_t CellOf(TemplateId tmpl, ConfigId c) const {
    return static_cast<size_t>(tmpl) * num_configs_ + c;
  }

  size_t num_configs_;
  std::vector<uint64_t> template_populations_;
  std::vector<SampleRecord> samples_;
  /// Flat sample arenas: sample i's costs live at [i * num_configs_,
  /// (i+1) * num_configs_) of sample_costs_ (NaN = not evaluated).
  /// sample_uncerts_ is either empty (every sample exact) or holds one
  /// num_configs_ row per record — rows of zeros are backfilled the first
  /// time a sample arrives with uncertainties, keeping that invariant.
  std::vector<double> sample_costs_;
  std::vector<double> sample_uncerts_;
  /// raw_[t * num_configs_ + c]: SoA moments of raw costs.
  MomentSoA raw_;
  /// Same layout: SoA moments of (cost_ref - cost_j).
  MomentSoA diff_;
  /// Same layout: sum of (u_ref + u_j) uncertainty half-widths of the
  /// recorded differences; rebuilt alongside diff_.
  std::vector<double> diff_uncertainty_;
  /// Per-template shared sample counts.
  std::vector<uint64_t> template_counts_;
  ConfigId reference_ = 0;
  /// Per-stratum merged state of raw_ and of diff_ (+ diff_uncertainty_),
  /// refreshed lazily by the const batched methods.
  mutable StratumMerge raw_merged_;
  mutable StratumMerge diff_merged_;
};

}  // namespace pdx
