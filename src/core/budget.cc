#include "core/budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/obs.h"
#include "common/span.h"
#include "core/selection_trace.h"

namespace pdx {

namespace {

// Refinement chunks: 64 queries, then as many as are already refined, so
// a full coverage pass needs O(log N) rounds.
constexpr size_t kSeedChunk = 64;

// Interned metric handles; one registry lookup per process.
struct BudgetMetricSet {
  obs::Counter* refine_rounds;
  obs::Counter* refined_queries;
  obs::Counter* dominance_eliminations;
};

BudgetMetricSet& BMetrics() {
  static BudgetMetricSet m = [] {
    auto& r = obs::Registry::Global();
    return BudgetMetricSet{
        r.GetCounter("pdx_budget_refine_rounds_total"),
        r.GetCounter("pdx_budget_refined_queries_total"),
        r.GetCounter("pdx_budget_dominance_eliminations_total")};
  }();
  return m;
}

// Relative-plus-absolute margin that keeps dominance sound under the
// floating-point rounding of the envelope sums (which accumulate across
// the whole workload): a pair must separate by more than the margin
// before its interval evidence is trusted.
double DominanceMargin(double ub) {
  return 1e-9 + 1e-12 * std::abs(ub);
}

}  // namespace

Result<BudgetPolicy> ParseBudgetPolicy(const std::string& text) {
  if (text == "static") return BudgetPolicy::kStatic;
  if (text == "dynamic") return BudgetPolicy::kDynamic;
  return Status::InvalidArgument("--budget must be 'static' or 'dynamic' (got '" +
                                 text + "')");
}

const char* BudgetPolicyName(BudgetPolicy policy) {
  switch (policy) {
    case BudgetPolicy::kStatic:
      return "static";
    case BudgetPolicy::kDynamic:
      return "dynamic";
  }
  return "unknown";
}

BudgetManager::BudgetManager(size_t num_configs, size_t num_queries,
                             CellBoundsProvider* bounds, TraceSink* trace)
    : k_(num_configs),
      num_queries_(num_queries),
      bounds_(bounds),
      trace_(trace),
      sampled_(num_configs * num_queries, false),
      refined_(num_queries, false),
      env_lo_(num_configs, 0.0),
      env_hi_(num_configs, 0.0),
      env_pieces_(num_configs, 0) {
  PDX_CHECK_MSG(bounds != nullptr,
                "BudgetPolicy::kDynamic requires a CellBoundsProvider");
  PDX_CHECK(num_configs >= 1);
}

void BudgetManager::ObserveSample(QueryId q, ConfigId c, double cost,
                                  double uncertainty) {
  PDX_CHECK(q < num_queries_ && c < k_);
  const size_t cell = static_cast<size_t>(c) * num_queries_ + q;
  if (sampled_[cell]) return;  // pools draw without replacement; defensive
  sampled_[cell] = true;
  if (refined_[q]) {
    // The sample supersedes the interval contribution (a free provider's
    // re-read is a lookup).
    CostInterval iv = bounds_->BoundsFor(q, c);
    env_lo_[c] -= iv.low;
    env_hi_[c] -= iv.high;
  } else {
    ++env_pieces_[c];
  }
  // A degraded cell (uncertainty > 0) stays interval mass [cost-u, cost+u]
  // in the envelope — degradation must never fake an exact census.
  env_lo_[c] += cost - uncertainty;
  env_hi_[c] += cost + uncertainty;
}

size_t BudgetManager::RefineChunk(size_t quota, const std::vector<bool>& active) {
  size_t done = 0;
  while (done < quota && refine_cursor_ < num_queries_) {
    const QueryId q = refine_cursor_++;
    if (refined_[q]) continue;
    // A query already priced under every active configuration is covered
    // everywhere it matters; its interval would add nothing.
    bool all_sampled = true;
    for (ConfigId c = 0; c < k_; ++c) {
      if (active[c] && !sampled_[static_cast<size_t>(c) * num_queries_ + q]) {
        all_sampled = false;
        break;
      }
    }
    if (all_sampled) continue;
    refined_[q] = true;
    ++done;
    for (ConfigId c = 0; c < k_; ++c) {
      if (!active[c]) continue;
      if (sampled_[static_cast<size_t>(c) * num_queries_ + q]) continue;
      CostInterval iv = bounds_->BoundsFor(q, c);
      env_lo_[c] += iv.low;
      env_hi_[c] += iv.high;
      ++env_pieces_[c];
    }
  }
  stats_.refined_queries += done;
  BMetrics().refined_queries->Add(done);
  return done;
}

std::vector<ConfigId> BudgetManager::DecideRound(
    uint64_t round, ConfigId best, const std::vector<bool>& active) {
  obs::SpanScope decide_span("decide_round", "budget");
  PDX_CHECK(best < k_ && active.size() == k_);

  // --- Refinement: free providers only, geometric chunks ----------------
  size_t refined_now = 0;
  if (!bounds_->priced() && refine_cursor_ < num_queries_ &&
      std::count(active.begin(), active.end(), true) > 1) {
    refined_now = RefineChunk(
        std::max<uint64_t>(kSeedChunk, stats_.refined_queries), active);
    if (refined_now > 0) BMetrics().refine_rounds->Add();
  }

  // --- Interval dominance over covered envelopes ------------------------
  std::vector<ConfigId> dominated;
  double ub_min = std::numeric_limits<double>::infinity();
  for (ConfigId c = 0; c < k_; ++c) {
    if (active[c] && Covered(c)) ub_min = std::min(ub_min, env_hi_[c]);
  }
  if (std::isfinite(ub_min)) {
    const double margin = DominanceMargin(ub_min);
    for (ConfigId j = 0; j < k_; ++j) {
      // Never eliminate the incumbent: a statistically-ahead but
      // interval-dominated incumbent is left to the statistical race.
      if (j == best || !active[j] || !Covered(j)) continue;
      if (env_lo_[j] > ub_min + margin) dominated.push_back(j);
    }
  }
  stats_.dominance_eliminations += dominated.size();
  if (!dominated.empty()) BMetrics().dominance_eliminations->Add(dominated.size());

  if (trace_ != nullptr) {
    TraceBudgetDecision ev;
    ev.round = round;
    ev.action = refined_now > 0 ? "refine" : "sample";
    ev.refined_queries = refined_now;
    ev.dominated = dominated.size();
    trace_->BudgetDecision(ev);
  }
  return dominated;
}

MatrixRowBoundsProvider::MatrixRowBoundsProvider(
    size_t num_queries, size_t num_configs,
    const std::function<double(QueryId, ConfigId)>& cost)
    : num_queries_(num_queries) {
  PDX_CHECK(num_queries >= 1 && num_configs >= 1);
  rows_.reserve(num_queries);
  for (QueryId q = 0; q < num_queries; ++q) {
    double lo = cost(q, 0);
    double hi = lo;
    for (ConfigId c = 1; c < num_configs; ++c) {
      double v = cost(q, c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    rows_.emplace_back(lo, hi);
  }
  touched_ = std::make_unique<std::atomic<uint8_t>[]>(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    touched_[i].store(0, std::memory_order_relaxed);
  }
}

CostInterval MatrixRowBoundsProvider::BoundsFor(QueryId q, ConfigId c) {
  (void)c;  // row bounds are configuration-independent
  PDX_CHECK(q < num_queries_);
  if (touched_[q].exchange(1, std::memory_order_relaxed) == 0) {
    // Priced the way a live CostBoundsDeriver would charge the row's
    // first derivation: 2 optimizer calls (base + rich).
    derivation_calls_.fetch_add(2, std::memory_order_relaxed);
  }
  return rows_[q];
}

StaleCostBoundsProvider::StaleCostBoundsProvider(
    size_t num_queries, size_t num_configs,
    std::function<double(QueryId, ConfigId)> stale_cost, double drift_eps)
    : num_queries_(num_queries),
      k_(num_configs),
      stale_(std::move(stale_cost)),
      eps_(drift_eps) {
  PDX_CHECK(num_queries >= 1 && num_configs >= 1);
  PDX_CHECK_MSG(drift_eps >= 0.0 && drift_eps < 1.0,
                "drift_eps must lie in [0, 1)");
  PDX_CHECK_MSG(stale_ != nullptr, "stale_cost must be callable");
}

CostInterval StaleCostBoundsProvider::BoundsFor(QueryId q, ConfigId c) {
  PDX_CHECK(q < num_queries_ && c < k_);
  const double v = stale_(q, c);
  const double half = eps_ * std::abs(v);
  return CostInterval(v - half, v + half);
}

}  // namespace pdx
