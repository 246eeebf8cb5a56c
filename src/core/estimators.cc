#include "core/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/obs.h"
#include "common/span.h"
#include "core/pr_cs.h"

namespace pdx {

namespace {

obs::Counter* SamplesCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("pdx_estimator_samples_total");
  return c;
}

obs::Counter* ReferenceSwitchCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "pdx_estimator_reference_switches_total");
  return c;
}

/// Square of the pessimal systematic shift a stratum's degraded samples
/// can impose on its mean-sum estimate: every measurement may be off by
/// its half-width, all in the same direction, moving the mean by
/// sum(u)/n and the N-scaled estimate by (N/n) * sum(u). No fpc — a
/// measurement-error bias does not shrink as the sample approaches a
/// census.
double UncertaintyBiasSquared(double uncertainty_sum, uint64_t n, uint64_t N) {
  if (uncertainty_sum <= 0.0 || n == 0) return 0.0;
  double bias = static_cast<double>(N) / static_cast<double>(n) *
                uncertainty_sum;
  return bias * bias;
}

}  // namespace

std::vector<uint64_t> TemplatePopulationsOf(const CostSource& source) {
  std::vector<uint64_t> pops(source.num_templates(), 0);
  for (QueryId q = 0; q < source.num_queries(); ++q) {
    pops[source.TemplateOf(q)] += 1;
  }
  return pops;
}

std::vector<double> PerTemplateOverheads(const CostSource& source,
                                         const std::vector<uint64_t>& pops) {
  std::vector<double> sums(pops.size(), 0.0);
  for (QueryId q = 0; q < source.num_queries(); ++q) {
    sums[source.TemplateOf(q)] += source.OptimizeOverhead(q);
  }
  for (size_t t = 0; t < sums.size(); ++t) {
    if (pops[t] > 0) sums[t] /= static_cast<double>(pops[t]);
  }
  return sums;
}

double StratumMeanOverhead(const Stratification& strat, uint32_t stratum,
                           const std::vector<double>& template_overheads,
                           const std::vector<uint64_t>& pops) {
  double weighted = 0.0;
  uint64_t pop = 0;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    weighted += template_overheads[t] * static_cast<double>(pops[t]);
    pop += pops[t];
  }
  return pop > 0 ? weighted / static_cast<double>(pop) : 1.0;
}

StratifiedSamplePool::StratifiedSamplePool(const CostSource& source,
                                           Rng* rng) {
  PDX_CHECK(rng != nullptr);
  template_pools_.resize(source.num_templates());
  for (QueryId q = 0; q < source.num_queries(); ++q) {
    template_pools_[source.TemplateOf(q)].push_back(q);
  }
  for (auto& pool : template_pools_) {
    rng->Shuffle(&pool);
    remaining_total_ += pool.size();
  }
}

std::optional<QueryId> StratifiedSamplePool::Draw(const Stratification& strat,
                                                  uint32_t stratum, Rng* rng) {
  PDX_CHECK(rng != nullptr);
  const std::vector<TemplateId>& members = strat.TemplatesOf(stratum);
  uint64_t remaining = 0;
  for (TemplateId t : members) remaining += template_pools_[t].size();
  if (remaining == 0) return std::nullopt;
  uint64_t pick = rng->NextBounded(remaining);
  for (TemplateId t : members) {
    uint64_t sz = template_pools_[t].size();
    if (pick < sz) {
      QueryId q = template_pools_[t].back();
      template_pools_[t].pop_back();
      remaining_total_ -= 1;
      return q;
    }
    pick -= sz;
  }
  PDX_CHECK_MSG(false, "stratified draw fell through");
  return std::nullopt;
}

std::optional<QueryId> StratifiedSamplePool::DrawGlobal(Rng* rng) {
  PDX_CHECK(rng != nullptr);
  if (remaining_total_ == 0) return std::nullopt;
  uint64_t pick = rng->NextBounded(remaining_total_);
  for (auto& pool : template_pools_) {
    uint64_t sz = pool.size();
    if (pick < sz) {
      QueryId q = pool.back();
      pool.pop_back();
      remaining_total_ -= 1;
      return q;
    }
    pick -= sz;
  }
  PDX_CHECK_MSG(false, "global draw fell through");
  return std::nullopt;
}

uint64_t StratifiedSamplePool::RemainingInStratum(const Stratification& strat,
                                                  uint32_t stratum) const {
  uint64_t remaining = 0;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    remaining += template_pools_[t].size();
  }
  return remaining;
}

// ---------------------------------------------------------------------------
// IndependentEstimator

IndependentEstimator::IndependentEstimator(
    size_t num_configs, size_t num_templates,
    const std::vector<uint64_t>& template_populations)
    : num_templates_(num_templates),
      template_populations_(template_populations) {
  PDX_CHECK(template_populations_.size() == num_templates);
  num_configs_ = num_configs;
  moments_.assign(num_configs * num_templates, RunningMoments());
  uncertainty_.assign(num_configs * num_templates, 0.0);
}

void IndependentEstimator::Add(ConfigId config, TemplateId tmpl, double cost,
                               double uncertainty) {
  PDX_CHECK(config < num_configs_);
  PDX_CHECK(tmpl < num_templates_);
  PDX_CHECK(uncertainty >= 0.0 && !std::isnan(uncertainty));
  const size_t cell = CellOf(config, tmpl);
  moments_[cell].Add(cost);
  uncertainty_[cell] += uncertainty;
  SamplesCounter()->Add();
}

double IndependentEstimator::StratumUncertainty(ConfigId config,
                                                const Stratification& strat,
                                                uint32_t stratum) const {
  double sum = 0.0;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    sum += uncertainty_[CellOf(config, t)];
  }
  return sum;
}

RunningMoments IndependentEstimator::StratumMoments(
    ConfigId config, const Stratification& strat, uint32_t stratum) const {
  RunningMoments merged;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    merged.Merge(moments_[CellOf(config, t)]);
  }
  return merged;
}

double IndependentEstimator::Estimate(ConfigId config,
                                      const Stratification& strat) const {
  double total = 0.0;
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    RunningMoments m = StratumMoments(config, strat, h);
    if (m.count() == 0) continue;  // unsampled stratum contributes its mean 0
    total += static_cast<double>(strat.PopulationOf(h)) * m.mean();
  }
  return total;
}

double IndependentEstimator::Variance(ConfigId config,
                                      const Stratification& strat) const {
  double var = 0.0;
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    RunningMoments m = StratumMoments(config, strat, h);
    var += StratumVarianceTerm(m.variance_sample(),
                               static_cast<uint64_t>(m.count()),
                               strat.PopulationOf(h));
    var += UncertaintyBiasSquared(StratumUncertainty(config, strat, h),
                                  static_cast<uint64_t>(m.count()),
                                  strat.PopulationOf(h));
  }
  return var;
}

double IndependentEstimator::VarianceReductionForNext(
    ConfigId config, const Stratification& strat, uint32_t stratum) const {
  RunningMoments m = StratumMoments(config, strat, stratum);
  uint64_t n = static_cast<uint64_t>(m.count());
  uint64_t N = strat.PopulationOf(stratum);
  if (n + 1 > N) return 0.0;
  // A stratum with fewer than two samples has an unknown variance and a
  // potentially badly biased estimate; treating its sample variance (0)
  // at face value would starve it forever. Give it top priority, larger
  // strata first.
  if (n < 2) {
    return std::numeric_limits<double>::max() / 2.0 *
           (static_cast<double>(N) / static_cast<double>(strat.total_population()));
  }
  double now = StratumVarianceTerm(m.variance_sample(), n, N);
  double next = StratumVarianceTerm(m.variance_sample(), n + 1, N);
  // An extra (presumed exact) sample also dilutes the degraded samples'
  // pessimal bias from (N/n)U to (N/(n+1))U.
  double u = StratumUncertainty(config, strat, stratum);
  return now - next + UncertaintyBiasSquared(u, n, N) -
         UncertaintyBiasSquared(u, n + 1, N);
}

uint64_t IndependentEstimator::SamplesIn(ConfigId config,
                                         const Stratification& strat,
                                         uint32_t stratum) const {
  uint64_t n = 0;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    n += static_cast<uint64_t>(moments_[CellOf(config, t)].count());
  }
  return n;
}

uint64_t IndependentEstimator::TotalSamples(ConfigId config) const {
  uint64_t n = 0;
  const RunningMoments* row = moments_.data() + CellOf(config, 0);
  for (size_t t = 0; t < num_templates_; ++t) {
    n += static_cast<uint64_t>(row[t].count());
  }
  return n;
}

uint64_t IndependentEstimator::MinTemplateCount(ConfigId config) const {
  uint64_t min_count = UINT64_MAX;
  const RunningMoments* row = moments_.data() + CellOf(config, 0);
  for (TemplateId t = 0; t < num_templates_; ++t) {
    if (template_populations_[t] == 0) continue;
    min_count = std::min(min_count, static_cast<uint64_t>(row[t].count()));
  }
  return min_count == UINT64_MAX ? 0 : min_count;
}

double IndependentEstimator::UnobservedPopulationShare(
    ConfigId config) const {
  uint64_t unobserved = 0;
  uint64_t total = 0;
  const RunningMoments* row = moments_.data() + CellOf(config, 0);
  for (TemplateId t = 0; t < num_templates_; ++t) {
    total += template_populations_[t];
    if (row[t].count() == 0) {
      unobserved += template_populations_[t];
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(unobserved) /
                          static_cast<double>(total);
}

std::vector<TemplateStats> IndependentEstimator::TemplateStatsFor(
    ConfigId config) const {
  std::vector<TemplateStats> out(num_templates_);
  const RunningMoments* row = moments_.data() + CellOf(config, 0);
  for (TemplateId t = 0; t < out.size(); ++t) {
    out[t].population = template_populations_[t];
    out[t].observations = static_cast<uint64_t>(row[t].count());
    out[t].mean = row[t].mean();
    out[t].variance = row[t].variance_sample();
  }
  return out;
}

// ---------------------------------------------------------------------------
// DeltaEstimator

DeltaEstimator::DeltaEstimator(
    size_t num_configs, size_t num_templates,
    const std::vector<uint64_t>& template_populations)
    : num_configs_(num_configs),
      template_populations_(template_populations),
      template_counts_(num_templates, 0) {
  PDX_CHECK(template_populations_.size() == num_templates);
  raw_.Assign(num_templates * num_configs);
  diff_.Assign(num_templates * num_configs);
  diff_uncertainty_.assign(num_templates * num_configs, 0.0);
  raw_merged_.pending_flag.assign(num_templates, 0);
  diff_merged_.pending_flag.assign(num_templates, 0);
  // Sampling is without replacement, so the record store can never exceed
  // the workload population; reserving the (8-byte) records up front caps
  // that vector at exactly the bound. The flat cost arena is NOT
  // pre-reserved — population * num_configs doubles would be tens of MB
  // at Table-2 scale before a single sample lands; doubling growth keeps
  // it at O(log n) allocations over a run.
  uint64_t population = 0;
  for (uint64_t p : template_populations_) population += p;
  samples_.reserve(population);
}

void DeltaEstimator::Add(QueryId qid, TemplateId tmpl,
                         std::span<const double> costs,
                         std::span<const double> uncertainties) {
  PDX_CHECK(costs.size() == num_configs_);
  PDX_CHECK(uncertainties.empty() || uncertainties.size() == num_configs_);
  PDX_CHECK(tmpl < template_counts_.size());
  template_counts_[tmpl] += 1;
  raw_merged_.MarkTemplate(tmpl);
  diff_merged_.MarkTemplate(tmpl);
  double ref_cost = costs[reference_];
  PDX_CHECK_MSG(!std::isnan(ref_cost), "reference config not evaluated");
  double ref_u = uncertainties.empty() ? 0.0 : uncertainties[reference_];
  const size_t base = CellOf(tmpl, 0);
  double* u_row = diff_uncertainty_.data() + base;
  for (ConfigId c = 0; c < num_configs_; ++c) {
    if (std::isnan(costs[c])) continue;
    raw_.AddAt(base + c, costs[c]);
    diff_.AddAt(base + c, ref_cost - costs[c]);
    // The difference against the reference itself is identically 0 —
    // even a degraded measurement cancels against itself — so only the
    // other pairs inherit the summed half-widths.
    if (c != reference_ && !uncertainties.empty()) {
      u_row[c] += ref_u + uncertainties[c];
    }
  }
  // Arena invariant: sample_uncerts_ is empty until the first uncertain
  // sample, then carries one row per record (earlier all-exact records
  // are backfilled with zeros here, once).
  if (!uncertainties.empty() &&
      sample_uncerts_.size() < samples_.size() * num_configs_) {
    sample_uncerts_.resize(samples_.size() * num_configs_, 0.0);
  }
  samples_.push_back({qid, tmpl});
  sample_costs_.insert(sample_costs_.end(), costs.begin(), costs.end());
  if (!uncertainties.empty()) {
    sample_uncerts_.insert(sample_uncerts_.end(), uncertainties.begin(),
                           uncertainties.end());
  } else if (!sample_uncerts_.empty()) {
    sample_uncerts_.resize(sample_uncerts_.size() + num_configs_, 0.0);
  }
  SamplesCounter()->Add();
}

size_t DeltaEstimator::samples_bytes() const {
  return samples_.capacity() * sizeof(SampleRecord) +
         sample_costs_.capacity() * sizeof(double) +
         sample_uncerts_.capacity() * sizeof(double);
}

void DeltaEstimator::SetReference(ConfigId reference) {
  PDX_CHECK(reference < num_configs_);
  if (reference == reference_) return;
  reference_ = reference;
  // A reference switch replays every stored sample (O(samples * configs));
  // the counter makes that cost visible in metric dumps.
  ReferenceSwitchCounter()->Add();
  RebuildDiffMoments();
}

void DeltaEstimator::RebuildDiffMoments() {
  diff_merged_.version = 0;  // every stratum's diff lanes change
  diff_.ResetAll();
  for (auto& u : diff_uncertainty_) u = 0.0;
  const bool have_uncerts = !sample_uncerts_.empty();
  for (size_t i = 0; i < samples_.size(); ++i) {
    const SampleRecord& rec = samples_[i];
    const double* costs = sample_costs_.data() + i * num_configs_;
    const double* uncert =
        have_uncerts ? sample_uncerts_.data() + i * num_configs_ : nullptr;
    double ref_cost = costs[reference_];
    if (std::isnan(ref_cost)) continue;
    double ref_u = uncert == nullptr ? 0.0 : uncert[reference_];
    const size_t base = CellOf(rec.tmpl, 0);
    double* u_row = diff_uncertainty_.data() + base;
    for (ConfigId c = 0; c < num_configs_; ++c) {
      if (std::isnan(costs[c])) continue;
      diff_.AddAt(base + c, ref_cost - costs[c]);
      if (c != reference_ && uncert != nullptr) {
        u_row[c] += ref_u + uncert[c];
      }
    }
  }
}

double DeltaEstimator::StratumDiffUncertainty(ConfigId j,
                                              const Stratification& strat,
                                              uint32_t stratum) const {
  double sum = 0.0;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    sum += diff_uncertainty_[CellOf(t, j)];
  }
  return sum;
}

double DeltaEstimator::Estimate(ConfigId config,
                                const Stratification& strat) const {
  double total = 0.0;
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    RunningMoments merged;
    for (TemplateId t : strat.TemplatesOf(h)) {
      merged.Merge(raw_.At(CellOf(t, config)));
    }
    if (merged.count() == 0) continue;
    total += static_cast<double>(strat.PopulationOf(h)) * merged.mean();
  }
  return total;
}

double DeltaEstimator::DiffEstimate(ConfigId j,
                                    const Stratification& strat) const {
  double total = 0.0;
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    RunningMoments merged;
    for (TemplateId t : strat.TemplatesOf(h)) {
      merged.Merge(diff_.At(CellOf(t, j)));
    }
    if (merged.count() == 0) continue;
    total += static_cast<double>(strat.PopulationOf(h)) * merged.mean();
  }
  return total;
}

double DeltaEstimator::DiffVariance(ConfigId j,
                                    const Stratification& strat) const {
  double var = 0.0;
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    RunningMoments merged;
    for (TemplateId t : strat.TemplatesOf(h)) {
      merged.Merge(diff_.At(CellOf(t, j)));
    }
    var += StratumVarianceTerm(merged.variance_sample(),
                               static_cast<uint64_t>(merged.count()),
                               strat.PopulationOf(h));
    var += UncertaintyBiasSquared(StratumDiffUncertainty(j, strat, h),
                                  static_cast<uint64_t>(merged.count()),
                                  strat.PopulationOf(h));
  }
  return var;
}

namespace {

/// Lanewise Pébay merge of one template row into a stratum's accumulators,
/// over the contiguous config dimension. Per lane this performs exactly
/// the arithmetic of RunningMoments::Merge (same expression trees, same
/// order), with the two empty-side early-outs expressed as selects — the
/// selected values are the unmodified stored components, so results stay
/// bitwise identical while the loop stays branch-free and vectorizable.
/// (M3 is not maintained: the batched kernels only derive means and
/// sample variances.) The general-case formula divides by na + nb, which
/// is 0.0 only in the both-empty lane where the quotient is discarded by
/// the selects; the NaN it produces is harmless.
inline void MergeRowLanewise(const double* src_n, const double* src_mean,
                             const double* src_m2, double* acc_n,
                             double* acc_mean, double* acc_m2, size_t k) {
  for (size_t c = 0; c < k; ++c) {
    const double nb = src_n[c];
    const double na = acc_n[c];
    const double nx = na + nb;
    const double delta = src_mean[c] - acc_mean[c];
    const double mean = acc_mean[c] + delta * nb / nx;
    const double m2 = acc_m2[c] + src_m2[c] + delta * delta * na * nb / nx;
    acc_mean[c] = nb == 0.0 ? acc_mean[c] : (na == 0.0 ? src_mean[c] : mean);
    acc_m2[c] = nb == 0.0 ? acc_m2[c] : (na == 0.0 ? src_m2[c] : m2);
    acc_n[c] = nx;
  }
}

}  // namespace

void DeltaEstimator::Sync(const Stratification& strat, const MomentSoA& src,
                          const std::vector<double>* uncert,
                          StratumMerge* merged) const {
  const size_t num_strata = strat.num_strata();
  if (merged->version == strat.version()) {
    if (merged->pending.empty()) return;
    PDX_CHECK(merged->stale.size() == num_strata);  // versions imply shape
    std::fill(merged->stale.begin(), merged->stale.end(), 0);
    for (TemplateId t : merged->pending) merged->stale[strat.StratumOf(t)] = 1;
  } else {
    // New partition (or invalidated lanes): size for it and re-merge all.
    const size_t lanes = num_strata * num_configs_;
    merged->n.resize(lanes);
    merged->mean.resize(lanes);
    merged->m2.resize(lanes);
    if (uncert != nullptr) merged->usum.resize(lanes);
    merged->stale.assign(num_strata, 1);
    merged->version = strat.version();
  }
  for (TemplateId t : merged->pending) merged->pending_flag[t] = 0;
  merged->pending.clear();

  const size_t k = num_configs_;
  for (uint32_t h = 0; h < num_strata; ++h) {
    if (merged->stale[h] == 0) continue;
    double* acc_n = merged->n.data() + h * k;
    double* acc_mean = merged->mean.data() + h * k;
    double* acc_m2 = merged->m2.data() + h * k;
    double* usum = uncert != nullptr ? merged->usum.data() + h * k : nullptr;
    std::fill_n(acc_n, k, 0.0);
    std::fill_n(acc_mean, k, 0.0);
    std::fill_n(acc_m2, k, 0.0);
    if (usum != nullptr) std::fill_n(usum, k, 0.0);
    // Config-contiguous inner loop, templates in TemplatesOf(h) order —
    // the scalar oracles' merge order, so every lane is bit-identical to
    // their merged RunningMoments.
    for (TemplateId t : strat.TemplatesOf(h)) {
      const size_t base = CellOf(t, 0);
      MergeRowLanewise(src.n.data() + base, src.mean.data() + base,
                       src.m2.data() + base, acc_n, acc_mean, acc_m2, k);
      if (usum != nullptr) {
        const double* u_row = uncert->data() + base;
        for (size_t c = 0; c < k; ++c) usum[c] += u_row[c];
      }
    }
  }
}

void DeltaEstimator::DiffStats(const Stratification& strat,
                               std::span<double> diff_out,
                               std::span<double> var_out) const {
  // Called once per selector round; span decimated by call index (the
  // enclosing "pairwise" round-phase span is decimated the same way).
  thread_local uint64_t diff_stats_calls = 0;
  obs::SpanScope kernel_span(
      obs::TimingEnabled() && obs::SampledSpanRound(diff_stats_calls++),
      "diff_stats", "estimator");
  PDX_CHECK(diff_out.size() == num_configs_);
  PDX_CHECK(var_out.size() == num_configs_);
  Sync(strat, diff_, &diff_uncertainty_, &diff_merged_);
  const size_t k = num_configs_;
  std::fill(diff_out.begin(), diff_out.end(), 0.0);
  std::fill(var_out.begin(), var_out.end(), 0.0);
  // Replay the cached stratum totals in stratum order: the same sums, in
  // the same order, as the scalar DiffEstimate/DiffVariance loops.
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    const double* acc_n = diff_merged_.n.data() + h * k;
    const double* acc_mean = diff_merged_.mean.data() + h * k;
    const double* acc_m2 = diff_merged_.m2.data() + h * k;
    const double* usum = diff_merged_.usum.data() + h * k;
    const double pop = static_cast<double>(strat.PopulationOf(h));
    const uint64_t pop_u = strat.PopulationOf(h);
    for (size_t c = 0; c < k; ++c) {
      const uint64_t n = static_cast<uint64_t>(acc_n[c]);
      if (n > 0) diff_out[c] += pop * acc_mean[c];
      const double s2 = n > 1 ? acc_m2[c] / (acc_n[c] - 1.0) : 0.0;
      var_out[c] += StratumVarianceTerm(s2, n, pop_u);
      var_out[c] += UncertaintyBiasSquared(usum[c], n, pop_u);
    }
  }
}

void DeltaEstimator::Estimates(const Stratification& strat,
                               std::span<double> out) const {
  thread_local uint64_t estimates_calls = 0;  // decimated as in DiffStats
  obs::SpanScope kernel_span(
      obs::TimingEnabled() && obs::SampledSpanRound(estimates_calls++),
      "estimates", "estimator");
  PDX_CHECK(out.size() == num_configs_);
  Sync(strat, raw_, nullptr, &raw_merged_);
  const size_t k = num_configs_;
  std::fill(out.begin(), out.end(), 0.0);
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    const double* acc_n = raw_merged_.n.data() + h * k;
    const double* acc_mean = raw_merged_.mean.data() + h * k;
    const double pop = static_cast<double>(strat.PopulationOf(h));
    for (size_t c = 0; c < k; ++c) {
      if (acc_n[c] > 0.0) out[c] += pop * acc_mean[c];
    }
  }
}

double DeltaEstimator::VarianceReductionForNext(
    const Stratification& strat, uint32_t stratum,
    const std::vector<bool>& active) const {
  PDX_CHECK(active.size() == num_configs_);
  uint64_t N = strat.PopulationOf(stratum);
  // Shared sample: the per-stratum count is the same for every pair.
  uint64_t n = SamplesIn(strat, stratum);
  if (n + 1 > N) return 0.0;
  // Under-sampled strata first (see IndependentEstimator note).
  if (n < 2) {
    return std::numeric_limits<double>::max() / 2.0 *
           (static_cast<double>(N) / static_cast<double>(strat.total_population()));
  }
  Sync(strat, diff_, &diff_uncertainty_, &diff_merged_);
  const size_t lane0 = static_cast<size_t>(stratum) * num_configs_;
  const double* acc_n = diff_merged_.n.data() + lane0;
  const double* acc_m2 = diff_merged_.m2.data() + lane0;
  const double* usum = diff_merged_.usum.data() + lane0;
  double reduction = 0.0;
  for (ConfigId j = 0; j < num_configs_; ++j) {
    if (!active[j] || j == reference_) continue;
    uint64_t nj = static_cast<uint64_t>(acc_n[j]);
    if (nj + 1 > N) continue;
    const double s2 = nj > 1 ? acc_m2[j] / (acc_n[j] - 1.0) : 0.0;
    reduction += StratumVarianceTerm(s2, nj, N) -
                 StratumVarianceTerm(s2, nj + 1, N);
    reduction += UncertaintyBiasSquared(usum[j], nj, N) -
                 UncertaintyBiasSquared(usum[j], nj + 1, N);
  }
  return reduction;
}

uint64_t DeltaEstimator::MinTemplateCount() const {
  uint64_t min_count = UINT64_MAX;
  for (TemplateId t = 0; t < template_counts_.size(); ++t) {
    if (template_populations_[t] == 0) continue;
    min_count = std::min(min_count, template_counts_[t]);
  }
  return min_count == UINT64_MAX ? 0 : min_count;
}

double DeltaEstimator::UnobservedPopulationShare() const {
  uint64_t unobserved = 0;
  uint64_t total = 0;
  for (TemplateId t = 0; t < template_counts_.size(); ++t) {
    total += template_populations_[t];
    if (template_counts_[t] == 0) unobserved += template_populations_[t];
  }
  return total == 0 ? 0.0
                    : static_cast<double>(unobserved) /
                          static_cast<double>(total);
}

uint64_t DeltaEstimator::SamplesIn(const Stratification& strat,
                                   uint32_t stratum) const {
  uint64_t n = 0;
  for (TemplateId t : strat.TemplatesOf(stratum)) {
    n += template_counts_[t];
  }
  return n;
}

std::vector<TemplateStats> DeltaEstimator::AveragedDiffTemplateStats(
    const std::vector<bool>& active) const {
  PDX_CHECK(active.size() == num_configs_);
  size_t T = template_populations_.size();
  std::vector<TemplateStats> out(T);
  size_t num_active_pairs = 0;
  for (ConfigId j = 0; j < num_configs_; ++j) {
    if (active[j] && j != reference_) ++num_active_pairs;
  }
  for (TemplateId t = 0; t < T; ++t) {
    out[t].population = template_populations_[t];
    out[t].observations = template_counts_[t];
    if (num_active_pairs == 0) continue;
    double mean_abs = 0.0;
    double var = 0.0;
    // Config-contiguous row: the active-pair sweep reads consecutive cells.
    const size_t base = CellOf(t, 0);
    for (ConfigId j = 0; j < num_configs_; ++j) {
      if (!active[j] || j == reference_) continue;
      mean_abs += std::abs(diff_.MeanAt(base + j));
      var += diff_.VarianceSampleAt(base + j);
    }
    // Single ranking over the pairs (§5.1): order templates by the average
    // magnitude of their cost differences; score splits by average
    // difference variance.
    out[t].mean = mean_abs / static_cast<double>(num_active_pairs);
    out[t].variance = var / static_cast<double>(num_active_pairs);
  }
  return out;
}

}  // namespace pdx
