#include "core/sampling_state.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/obs.h"

namespace pdx {

namespace {

// Standard error from an estimated variance. NaN variance (possible when a
// degenerate stratum reports an infinite term that cancels badly) must map
// to +inf, not 0: std::max(0.0, NaN) returns 0.0, which would silently turn
// "no information" into "perfect certainty".
double SafeSe(double variance) {
  if (std::isnan(variance)) return std::numeric_limits<double>::infinity();
  return std::sqrt(std::max(0.0, variance));
}

}  // namespace

obs::TrackedCounter WhatIfTracked() {
  static obs::Counter* const calls =
      obs::Registry::Global().GetCounter("pdx_whatif_calls_total");
  return obs::TrackedCounter{calls, "pdx_whatif_calls_total"};
}

// ---------------------------------------------------------------------------
// Delta Sampling (paper §4.2)

DeltaSampling::DeltaSampling(CostSource* source,
                             const std::vector<uint64_t>& pops, Rng* rng,
                             BudgetManager* budget, bool feed_uncertainty)
    : SamplingStreams(source, pops, rng, budget, feed_uncertainty),
      est_(source->num_configs(), source->num_templates(), pops) {
  const size_t k = source->num_configs();
  for (std::vector<double>* buf :
       {&estimates_, &diffs_, &vars_, &costs_, &uncerts_, &vals_}) {
    buf->assign(k, 0.0);
  }
  ids_.reserve(k);
}

void DeltaSampling::Evaluate(uint32_t /*stream*/, QueryId q, bool span) {
  ids_.clear();
  for (ConfigId c = 0; c < active_.size(); ++c) {
    if (active_[c]) ids_.push_back(c);
  }
  std::span<double> vals(vals_.data(), ids_.size());
  std::fill(costs_.begin(), costs_.end(),
            std::numeric_limits<double>::quiet_NaN());
  // One batched sweep prices the query under every active configuration;
  // the uncertainty sweep afterwards is safe to separate from the cost
  // sweep because CostUncertainty is side-effect-free and fixed once the
  // cell is resolved.
  {
    obs::SpanScope whatif_span(span, "whatif", "selector", WhatIfTracked());
    source_->CostAcross(q, ids_, vals);
  }
  for (size_t i = 0; i < ids_.size(); ++i) costs_[ids_[i]] = vals[i];
  source_->CostUncertaintyAcross(q, ids_, vals);
  bool any_uncertain = false;
  std::fill(uncerts_.begin(), uncerts_.end(), 0.0);
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (vals[i] > 0.0) {
      uncerts_[ids_[i]] = vals[i];
      any_uncertain = true;
      ++degraded_;
    }
  }
  est_.Add(q, source_->TemplateOf(q), costs_,
           feed_uncertainty_ && any_uncertain
               ? std::span<const double>(uncerts_)
               : std::span<const double>());
  if (budget_ != nullptr) {
    for (ConfigId c : ids_) {
      budget_->ObserveSample(q, c, costs_[c], uncerts_[c]);
    }
  }
  ++samples_;
}

void DeltaSampling::Pilot(uint32_t n_min) {
  for (uint32_t i = 0; i < n_min; ++i) {
    std::optional<QueryId> q = DrawGlobal(0);
    if (!q) break;
    Evaluate(0, *q, /*span=*/false);
  }
}

ConfigId DeltaSampling::Incumbent() {
  // One batched sweep computes every configuration's estimate
  // (bit-identical to the scalar Estimate calls).
  est_.Estimates(strata_[0], estimates_);
  const ConfigId best = LowestActive(estimates_);
  est_.SetReference(best);
  return best;
}

void DeltaSampling::PairGaps(ConfigId best, std::vector<double>* gaps,
                             std::vector<double>* ses) {
  // Every pair's estimate and variance from one merged-moment sweep.
  // X_{best,j} is negative when best is better; the gap is -X_{best,j}.
  est_.DiffStats(strata_[0], diffs_, vars_);
  for (ConfigId j = 0; j < active_.size(); ++j) {
    const bool pair = active_[j] && j != best;
    (*gaps)[j] = pair ? -diffs_[j] : 0.0;
    (*ses)[j] = pair ? SafeSe(vars_[j]) : 0.0;
  }
}

std::vector<double> DeltaSampling::Estimates() const {
  std::vector<double> out(active_.size(), 0.0);
  est_.Estimates(strata_[0], out);
  return out;
}

// ---------------------------------------------------------------------------
// Independent Sampling (paper §4.1)

IndependentSampling::IndependentSampling(CostSource* source,
                                         const std::vector<uint64_t>& pops,
                                         Rng* rng, BudgetManager* budget,
                                         bool feed_uncertainty)
    : SamplingStreams(source, pops, rng, budget, feed_uncertainty),
      est_(source->num_configs(), source->num_templates(), pops),
      estimates_(source->num_configs(), 0.0),
      variances_(source->num_configs(), 0.0) {}

void IndependentSampling::Evaluate(uint32_t stream, QueryId q, bool span) {
  const ConfigId c = stream;
  double cost;
  {
    obs::SpanScope whatif_span(span, "whatif", "selector", WhatIfTracked());
    cost = source_->Cost(q, c);
  }
  Record(c, q, cost, source_->CostUncertainty(q, c));
}

void IndependentSampling::Record(ConfigId c, QueryId q, double cost,
                                 double uncertainty) {
  if (uncertainty > 0.0) ++degraded_;
  est_.Add(c, source_->TemplateOf(q), cost,
           feed_uncertainty_ ? uncertainty : 0.0);
  if (budget_ != nullptr) budget_->ObserveSample(q, c, cost, uncertainty);
  ++samples_;
}

void IndependentSampling::Pilot(uint32_t n_min) {
  std::vector<QueryId> qbuf;
  std::vector<double> cbuf(n_min, 0.0);
  std::vector<double> ubuf(n_min, 0.0);
  qbuf.reserve(n_min);
  for (ConfigId c = 0; c < active_.size(); ++c) {
    qbuf.clear();
    for (uint32_t i = 0; i < n_min; ++i) {
      std::optional<QueryId> q = DrawGlobal(c);
      if (!q) break;
      qbuf.push_back(*q);
    }
    std::span<double> costs(cbuf.data(), qbuf.size());
    std::span<double> uncerts(ubuf.data(), qbuf.size());
    source_->CostMany(qbuf, c, costs);
    source_->CostUncertaintyMany(qbuf, c, uncerts);
    for (size_t i = 0; i < qbuf.size(); ++i) {
      Record(c, qbuf[i], cbuf[i], ubuf[i]);
    }
  }
}

ConfigId IndependentSampling::Incumbent() {
  for (ConfigId c = 0; c < estimates_.size(); ++c) {
    estimates_[c] = active_[c] ? est_.Estimate(c, strata_[c]) : 0.0;
    variances_[c] = active_[c] ? est_.Variance(c, strata_[c]) : 0.0;
  }
  return LowestActive(estimates_);
}

void IndependentSampling::PairGaps(ConfigId best, std::vector<double>* gaps,
                                   std::vector<double>* ses) {
  for (ConfigId j = 0; j < active_.size(); ++j) {
    const bool pair = active_[j] && j != best;
    (*gaps)[j] = pair ? estimates_[j] - estimates_[best] : 0.0;
    (*ses)[j] = pair ? SafeSe(variances_[j] + variances_[best]) : 0.0;
  }
}

double IndependentSampling::SplitTargetVariance(uint32_t stream,
                                                ConfigId best, double min_se,
                                                double stream_se) const {
  if (stream == best) {
    return std::isfinite(min_se) ? min_se * min_se / 2.0 : 0.0;
  }
  return stream_se * stream_se / 2.0;
}

std::vector<double> IndependentSampling::Estimates() const {
  std::vector<double> out(active_.size(), 0.0);
  for (ConfigId c = 0; c < out.size(); ++c) {
    out[c] = est_.Estimate(c, strata_[c]);
  }
  return out;
}

}  // namespace pdx
