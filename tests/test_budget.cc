// Dynamic budget (core/budget.h): envelope bookkeeping, interval-dominance
// elimination, the free-vs-priced refinement rule, the validated
// CostInterval constructor, and the WorkloadBoundsCache exactly-once fill
// protocol under concurrency. Run under -DPDX_SANITIZE=thread in CI.
#include "core/budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "core/cost_source.h"
#include "core/selection_trace.h"
#include "core/selector.h"
#include "optimizer/candidate_gen.h"
#include "optimizer/cost_bounds.h"
#include "test_util.h"
#include "tuner/enumerator.h"

namespace pdx {
namespace {

using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;
using testing::SyntheticMatrix;

// --- CostInterval validating constructor (degenerate inputs) --------------

TEST(CostIntervalTest, InvertedEndpointsNormalizeAtConstruction) {
  // Brute-force cross-check over a grid of endpoint pairs: the constructed
  // interval must always satisfy low <= high and contain both inputs.
  const double vals[] = {-3.5, -1.0, 0.0, 1e-12, 2.0, 1e9};
  for (double a : vals) {
    for (double b : vals) {
      CostInterval iv(a, b);
      EXPECT_LE(iv.low, iv.high) << "a=" << a << " b=" << b;
      EXPECT_EQ(iv.low, std::min(a, b));
      EXPECT_EQ(iv.high, std::max(a, b));
      EXPECT_TRUE(iv.Contains(a));
      EXPECT_TRUE(iv.Contains(b));
      EXPECT_EQ(iv.width(), std::max(a, b) - std::min(a, b));
    }
  }
}

TEST(CostIntervalTest, ZeroWidthIsLegalAndExact) {
  CostInterval iv(42.0, 42.0);
  EXPECT_EQ(iv.width(), 0.0);
  EXPECT_TRUE(iv.Contains(42.0));
  EXPECT_FALSE(iv.Contains(42.0 + 1e-9));
}

TEST(CostIntervalDeathTest, NanEndpointAborts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CostInterval(nan, 1.0), "NaN");
  EXPECT_DEATH(CostInterval(1.0, nan), "NaN");
}

TEST(CostIntervalTest, DefaultConstructionStaysAggregateFriendly) {
  // The default constructor must keep the old {} behavior for the many
  // call sites that fill endpoints field-by-field.
  CostInterval iv;
  EXPECT_EQ(iv.low, 0.0);
  EXPECT_EQ(iv.high, 0.0);
}

// --- ParseBudgetPolicy ------------------------------------------------------

TEST(BudgetPolicyTest, ParsesKnownNamesAndRejectsGarbage) {
  ASSERT_TRUE(ParseBudgetPolicy("static").ok());
  EXPECT_EQ(*ParseBudgetPolicy("static"), BudgetPolicy::kStatic);
  ASSERT_TRUE(ParseBudgetPolicy("dynamic").ok());
  EXPECT_EQ(*ParseBudgetPolicy("dynamic"), BudgetPolicy::kDynamic);
  EXPECT_FALSE(ParseBudgetPolicy("adaptive").ok());
  EXPECT_FALSE(ParseBudgetPolicy("").ok());
  EXPECT_STREQ(BudgetPolicyName(BudgetPolicy::kStatic), "static");
  EXPECT_STREQ(BudgetPolicyName(BudgetPolicy::kDynamic), "dynamic");
}

// --- MatrixRowBoundsProvider -------------------------------------------------

TEST(MatrixRowBoundsProviderTest, RowBoundsContainCellsAndChargeTwoCallsOnce) {
  const size_t nq = 10, k = 3;
  auto cost = [](QueryId q, ConfigId c) {
    return 10.0 * (q + 1) + 3.0 * c;
  };
  MatrixRowBoundsProvider provider(nq, k, cost);
  EXPECT_EQ(provider.derivation_calls(), 0u);

  CostInterval iv = provider.BoundsFor(4, 1);
  EXPECT_EQ(provider.derivation_calls(), 2u);
  for (ConfigId c = 0; c < k; ++c) {
    EXPECT_TRUE(iv.Contains(cost(4, c))) << "c=" << c;
  }
  EXPECT_EQ(iv.low, cost(4, 0));
  EXPECT_EQ(iv.high, cost(4, 2));

  // Re-reads of the same row, any configuration: free.
  provider.BoundsFor(4, 0);
  provider.BoundsFor(4, 2);
  EXPECT_EQ(provider.derivation_calls(), 2u);
  // A new row charges again.
  provider.BoundsFor(7, 0);
  EXPECT_EQ(provider.derivation_calls(), 4u);
}

// --- StaleCostBoundsProvider ---------------------------------------------

TEST(StaleCostBoundsTest, BandContainsDriftedTruthAndReadsAreFree) {
  // Warm-cache premise (DESIGN.md §10.3): stale = true * (1 + d) with
  // |d| <= eps / 2 implies |true - stale| <= eps * |stale|, so the +-eps
  // band around every stale value must contain the true cell.
  const size_t nq = 50, k = 4;
  const double eps = 0.02;
  Rng rng(123);
  std::vector<std::vector<double>> truth(k, std::vector<double>(nq));
  std::vector<std::vector<double>> stale(k, std::vector<double>(nq));
  for (ConfigId c = 0; c < k; ++c) {
    for (QueryId q = 0; q < nq; ++q) {
      truth[c][q] = 1.0 + q + 10.0 * c;
      const double d = (rng.NextDouble() - 0.5) * eps;  // |d| <= eps / 2
      stale[c][q] = truth[c][q] * (1.0 + d);
    }
  }
  StaleCostBoundsProvider provider(
      nq, k, [&](QueryId q, ConfigId c) { return stale[c][q]; }, eps);
  for (ConfigId c = 0; c < k; ++c) {
    for (QueryId q = 0; q < nq; ++q) {
      CostInterval iv = provider.BoundsFor(q, c);
      EXPECT_TRUE(iv.Contains(truth[c][q])) << "q=" << q << " c=" << c;
      EXPECT_NEAR(iv.width(), 2.0 * eps * stale[c][q], 1e-9);
    }
  }
  // A memory lookup, not an optimizer call: the provider is free.
  EXPECT_FALSE(provider.priced());
}

TEST(StaleCostBoundsTest, ZeroEpsDegeneratesToExactPoints) {
  StaleCostBoundsProvider provider(
      4, 2, [](QueryId q, ConfigId c) { return 3.0 * (q + 1) + c; }, 0.0);
  CostInterval iv = provider.BoundsFor(2, 1);
  EXPECT_EQ(iv.low, 10.0);
  EXPECT_EQ(iv.high, 10.0);
  EXPECT_EQ(iv.width(), 0.0);
}

TEST(StaleCostBoundsTest, NegativeStaleValuesWidenByMagnitude) {
  // Cached values may be improvement deltas and go negative; the band
  // scales with |stale|, never collapsing or inverting.
  StaleCostBoundsProvider provider(
      1, 1, [](QueryId, ConfigId) { return -200.0; }, 0.1);
  CostInterval iv = provider.BoundsFor(0, 0);
  EXPECT_DOUBLE_EQ(iv.low, -220.0);
  EXPECT_DOUBLE_EQ(iv.high, -180.0);
}

TEST(StaleCostBoundsDeathTest, RejectsOutOfRangeDriftAndBadCells) {
  auto cost = [](QueryId, ConfigId) { return 1.0; };
  EXPECT_DEATH(StaleCostBoundsProvider(4, 2, cost, 1.0), "drift_eps");
  EXPECT_DEATH(StaleCostBoundsProvider(4, 2, cost, -0.01), "drift_eps");
  StaleCostBoundsProvider provider(4, 2, cost, 0.05);
  EXPECT_DEATH(provider.BoundsFor(4, 0), "");
  EXPECT_DEATH(provider.BoundsFor(0, 2), "");
}

// --- BudgetManager envelope bookkeeping -------------------------------------

// Per-row [min, max] over the compared configurations, counting BoundsFor
// calls. Free by default; `priced` makes it stand in for an optimizer-
// backed provider, whose shared derivation meter other sessions may bump.
class RowBounds : public CellBoundsProvider {
 public:
  RowBounds(size_t k, std::function<double(QueryId, ConfigId)> cost,
            bool priced = false)
      : k_(k), cost_(std::move(cost)), priced_(priced) {}

  CostInterval BoundsFor(QueryId q, ConfigId /*c*/) override {
    ++bounds_calls;
    double lo = cost_(q, 0);
    double hi = lo;
    for (ConfigId c = 1; c < k_; ++c) {
      lo = std::min(lo, cost_(q, c));
      hi = std::max(hi, cost_(q, c));
    }
    return CostInterval(lo, hi);
  }
  bool priced() const override { return priced_; }

  uint64_t bounds_calls = 0;
  /// The shared derivation meter of a priced provider.
  uint64_t meter = 0;

 private:
  size_t k_;
  std::function<double(QueryId, ConfigId)> cost_;
  bool priced_;
};

TEST(BudgetManagerTest, ExactSamplesBuildZeroWidthEnvelope) {
  const size_t nq = 8, k = 2;
  auto cost = [](QueryId q, ConfigId c) { return 1.0 + q + 100.0 * c; };
  MatrixRowBoundsProvider provider(nq, k, cost);
  BudgetManager mgr(k, nq, &provider, nullptr);

  double total0 = 0.0;
  for (QueryId q = 0; q < nq; ++q) {
    mgr.ObserveSample(q, 0, cost(q, 0), 0.0);
    total0 += cost(q, 0);
  }
  EXPECT_TRUE(mgr.Covered(0));
  EXPECT_FALSE(mgr.Covered(1));
  EXPECT_EQ(mgr.LowerEnvelope(0), total0);
  EXPECT_EQ(mgr.UpperEnvelope(0), total0);

  // A degraded cell keeps interval mass: width grows by 2u.
  mgr.ObserveSample(0, 1, cost(0, 1), 5.0);
  EXPECT_EQ(mgr.UpperEnvelope(1) - mgr.LowerEnvelope(1), 10.0);

  // Duplicate observations are ignored (Independent Sampling may re-draw).
  mgr.ObserveSample(3, 0, 1e9, 0.0);
  EXPECT_EQ(mgr.UpperEnvelope(0), total0);
}

TEST(BudgetManagerTest, DominanceFiresOnceEnvelopesSeparate) {
  const size_t nq = 6, k = 2;
  auto cost = [](QueryId q, ConfigId c) {
    return (q + 1.0) * (c == 0 ? 1.0 : 50.0);
  };
  MatrixRowBoundsProvider provider(nq, k, cost);
  BudgetManager mgr(k, nq, &provider, nullptr);
  for (QueryId q = 0; q < nq; ++q) {
    mgr.ObserveSample(q, 0, cost(q, 0), 0.0);
    mgr.ObserveSample(q, 1, cost(q, 1), 0.0);
  }
  ASSERT_TRUE(mgr.Covered(0));
  ASSERT_TRUE(mgr.Covered(1));

  std::vector<bool> active(k, true);
  std::vector<ConfigId> dominated = mgr.DecideRound(1, 0, active);
  ASSERT_EQ(dominated.size(), 1u);
  EXPECT_EQ(dominated[0], 1u);
  EXPECT_EQ(mgr.stats().dominance_eliminations, 1u);
}

TEST(BudgetManagerTest, IncumbentIsNeverDominanceEliminated) {
  // Same separated matrix, but the (statistically ahead yet interval-
  // dominated) incumbent is config 1: nothing may be eliminated — config 0
  // is not dominated by anyone, and config 1 is the incumbent.
  const size_t nq = 6, k = 2;
  auto cost = [](QueryId q, ConfigId c) {
    return (q + 1.0) * (c == 0 ? 1.0 : 50.0);
  };
  MatrixRowBoundsProvider provider(nq, k, cost);
  BudgetManager mgr(k, nq, &provider, nullptr);
  for (QueryId q = 0; q < nq; ++q) {
    mgr.ObserveSample(q, 0, cost(q, 0), 0.0);
    mgr.ObserveSample(q, 1, cost(q, 1), 0.0);
  }
  std::vector<bool> active(k, true);
  EXPECT_TRUE(mgr.DecideRound(1, 1, active).empty());
  EXPECT_EQ(mgr.stats().dominance_eliminations, 0u);
}

TEST(BudgetManagerTest, BootstrapRefinementCoversAndCharges) {
  // 40 queries < the 64-query first chunk: the first DecideRound over a
  // free provider refines the whole workload. Row bounds are shared
  // across configs, so both envelopes become finite but identical — no
  // dominance.
  const size_t nq = 40, k = 2;
  auto cost = [](QueryId q, ConfigId c) { return 2.0 + q + 0.5 * c; };
  RowBounds provider(k, cost);
  BudgetManager mgr(k, nq, &provider, nullptr);

  std::vector<bool> active(k, true);
  std::vector<ConfigId> dominated = mgr.DecideRound(0, 0, active);
  EXPECT_TRUE(dominated.empty());
  EXPECT_TRUE(mgr.Covered(0));
  EXPECT_TRUE(mgr.Covered(1));
  EXPECT_EQ(mgr.stats().refined_queries, nq);
  EXPECT_EQ(mgr.LowerEnvelope(0), mgr.LowerEnvelope(1));
  EXPECT_EQ(mgr.UpperEnvelope(0), mgr.UpperEnvelope(1));
  double lo = 0.0, hi = 0.0;
  for (QueryId q = 0; q < nq; ++q) {
    lo += cost(q, 0);
    hi += cost(q, 1);
  }
  EXPECT_DOUBLE_EQ(mgr.LowerEnvelope(0), lo);
  EXPECT_DOUBLE_EQ(mgr.UpperEnvelope(0), hi);
  // One interval per (query, configuration) cell.
  EXPECT_EQ(provider.bounds_calls, k * nq);
}

TEST(BudgetManagerTest, SampleSupersedesRefinedInterval) {
  const size_t nq = 20, k = 2;
  auto cost = [](QueryId q, ConfigId c) { return 5.0 + q + 2.0 * c; };
  RowBounds provider(k, cost);
  BudgetManager mgr(k, nq, &provider, nullptr);

  std::vector<bool> active(k, true);
  mgr.DecideRound(0, 0, active);
  ASSERT_TRUE(mgr.Covered(1));
  const double width_before = mgr.UpperEnvelope(1) - mgr.LowerEnvelope(1);

  // Sampling a refined query replaces its interval contribution with the
  // exact value: the envelope width shrinks by exactly the row width.
  CostInterval iv = provider.BoundsFor(3, 1);
  mgr.ObserveSample(3, 1, cost(3, 1), 0.0);
  EXPECT_TRUE(mgr.Covered(1));
  const double width_after = mgr.UpperEnvelope(1) - mgr.LowerEnvelope(1);
  EXPECT_NEAR(width_after, width_before - iv.width(), 1e-9);
  EXPECT_LE(mgr.LowerEnvelope(1),
            mgr.UpperEnvelope(1) + 1e-12);
}

TEST(BudgetManagerTest, FreeBoundsRefineInGeometricChunksUntilCovered) {
  // 64 queries, then as many as are already refined: 64, 64, 128, 256,
  // and the 488 left of 1000, then nothing.
  const size_t nq = 1000, k = 3;
  RowBounds provider(k, [](QueryId q, ConfigId c) { return 1.0 + q + c; });
  BudgetManager mgr(k, nq, &provider, nullptr);
  const std::vector<bool> active(k, true);
  std::vector<uint64_t> chunks;
  uint64_t before = 0;
  for (uint64_t round = 1; round <= 7; ++round) {
    EXPECT_FALSE(mgr.Covered(0)) << "round " << round;
    mgr.DecideRound(round, 0, active);
    chunks.push_back(mgr.stats().refined_queries - before);
    before = mgr.stats().refined_queries;
    if (mgr.Covered(0)) break;
  }
  EXPECT_EQ(chunks, (std::vector<uint64_t>{64, 64, 128, 256, 488}));
  for (ConfigId c = 0; c < k; ++c) EXPECT_TRUE(mgr.Covered(c));
  mgr.DecideRound(8, 0, active);
  EXPECT_EQ(mgr.stats().refined_queries, nq);
}

TEST(BudgetManagerTest, PricedBoundsAreNeverRefined) {
  // A provider whose BoundsFor spends optimizer calls is never read: no
  // refinement, no coverage until every query is sampled.
  const size_t nq = 40, k = 2;
  RowBounds provider(k, [](QueryId q, ConfigId c) { return 2.0 + q + c; },
                     /*priced=*/true);
  BudgetManager mgr(k, nq, &provider, nullptr);
  const std::vector<bool> active(k, true);
  for (uint64_t round = 1; round <= 5; ++round) {
    EXPECT_TRUE(mgr.DecideRound(round, 0, active).empty());
  }
  for (QueryId q = 0; q < nq; q += 2) mgr.ObserveSample(q, 1, 1.0, 0.0);
  mgr.DecideRound(6, 0, active);
  EXPECT_EQ(provider.bounds_calls, 0u);
  EXPECT_EQ(mgr.stats().refined_queries, 0u);
  EXPECT_FALSE(mgr.Covered(0));
  EXPECT_FALSE(mgr.Covered(1));
}

// --- Selector integration ----------------------------------------------------

TEST(SelectorBudgetTest, DynamicRunStaysSoundOnSyntheticMatrix) {
  MatrixCostSource matrix = SyntheticMatrix(400, 4, 8, 0.6, 97);
  ConfigId truth = 0;
  for (ConfigId c = 1; c < matrix.num_configs(); ++c) {
    if (matrix.TotalCost(c) < matrix.TotalCost(truth)) truth = c;
  }

  SelectorOptions stat;
  stat.alpha = 0.9;
  Rng r1(404);
  SelectionResult base = ConfigurationSelector(&matrix, stat).Run(&r1);

  std::vector<std::vector<double>> cols(matrix.num_configs());
  for (ConfigId c = 0; c < matrix.num_configs(); ++c) {
    cols[c] = matrix.Column(c);  // ground truth, no call accounting
  }
  MatrixRowBoundsProvider provider(
      matrix.num_queries(), matrix.num_configs(),
      [&](QueryId q, ConfigId c) { return cols[c][q]; });
  SelectorOptions dyn = stat;
  dyn.budget_policy = BudgetPolicy::kDynamic;
  dyn.bounds = &provider;
  Rng r2(404);
  SelectionResult res = ConfigurationSelector(&matrix, dyn).Run(&r2);

  // Soundness: the dynamic winner is the static winner or the exact
  // argmin, dominance never marks the winner, and every marked
  // configuration is exactly worse than the minimum total.
  EXPECT_TRUE(res.best == base.best || res.best == truth);
  ASSERT_EQ(res.dominance_eliminated.size(), matrix.num_configs());
  EXPECT_FALSE(res.dominance_eliminated[res.best]);
  size_t marked = 0;
  for (ConfigId c = 0; c < matrix.num_configs(); ++c) {
    if (!res.dominance_eliminated[c]) continue;
    ++marked;
    EXPECT_GT(matrix.TotalCost(c), matrix.TotalCost(truth)) << "c=" << c;
  }
  EXPECT_EQ(marked, res.dominance_eliminations);
  // Row bounds are priced: never refined, never charged.
  EXPECT_EQ(res.refined_queries, 0u);
  EXPECT_EQ(res.bound_refinement_calls, 0u);
}

// Bumps a priced provider's shared derivation meter every round, the way
// a concurrent session deriving bounds on the same cache would.
class MeterBumpingSink : public TraceSink {
 public:
  explicit MeterBumpingSink(RowBounds* bounds) : bounds_(bounds) {}
  void Round(const TraceRound&) override { bounds_->meter += 2; }

 private:
  RowBounds* bounds_;
};

TEST(SelectorBudgetTest, ConcurrentDerivationsAreNotCharged) {
  MatrixCostSource m1 = SyntheticMatrix(400, 4, 8, 0.05, 97);
  MatrixCostSource m2 = SyntheticMatrix(400, 4, 8, 0.05, 97);
  std::vector<std::vector<double>> cols(m2.num_configs());
  for (ConfigId c = 0; c < m2.num_configs(); ++c) cols[c] = m2.Column(c);
  RowBounds bounds(m2.num_configs(),
                   [&](QueryId q, ConfigId c) { return cols[c][q]; },
                   /*priced=*/true);
  MeterBumpingSink sink(&bounds);
  SelectorOptions stat;
  stat.alpha = 0.95;
  stat.trace = &sink;
  Rng r1(404);
  SelectionResult base = ConfigurationSelector(&m1, stat).Run(&r1);
  const uint64_t static_bumps = bounds.meter;
  ASSERT_GT(base.rounds, 5u);

  SelectorOptions dyn = stat;
  dyn.budget_policy = BudgetPolicy::kDynamic;
  dyn.bounds = &bounds;
  Rng r2(404);
  SelectionResult res = ConfigurationSelector(&m2, dyn).Run(&r2);
  // The meter moved during the run, but none of it is this run's.
  EXPECT_EQ(bounds.meter, 2 * static_bumps);
  EXPECT_EQ(bounds.bounds_calls, 0u);
  EXPECT_EQ(res.bound_refinement_calls, 0u);
  EXPECT_EQ(res.optimizer_calls, base.optimizer_calls);
  EXPECT_EQ(res.best, base.best);
}

TEST(SelectorBudgetTest, WorkloadBoundsCacheIsNeverDerivedByDynamicRuns) {
  // The provider compare and serve build: §6.1 bounds derived through the
  // optimizer. A dynamic run must not derive a single piece, and must
  // reproduce the static run bit for bit, under both sampling schemes.
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 300);
  WhatIfOptimizer opt(schema);
  Rng pool_rng(17);
  EnumeratorOptions eopt;
  eopt.num_configs = 5;
  eopt.eval_sample_size = 40;
  std::vector<Configuration> pool =
      EnumerateConfigurations(opt, wl, eopt, &pool_rng);
  CandidateGenerator gen(schema);
  CostBoundsDeriver deriver(opt, wl, Configuration("base"),
                            gen.RichConfiguration(wl));
  for (SamplingScheme scheme :
       {SamplingScheme::kDelta, SamplingScheme::kIndependent}) {
    SCOPED_TRACE(scheme == SamplingScheme::kDelta ? "delta" : "independent");
    SelectorOptions stat;
    stat.scheme = scheme;
    stat.alpha = 0.99;
    WhatIfCostSource s1(opt, wl, pool);
    Rng r1(5);
    SelectionResult base = ConfigurationSelector(&s1, stat).Run(&r1);

    WorkloadBoundsCache cache(&deriver, &pool);
    SelectorOptions dyn = stat;
    dyn.budget_policy = BudgetPolicy::kDynamic;
    dyn.bounds = &cache;
    WhatIfCostSource s2(opt, wl, pool);
    Rng r2(5);
    SelectionResult res = ConfigurationSelector(&s2, dyn).Run(&r2);

    EXPECT_EQ(cache.derivation_calls(), 0u);
    EXPECT_EQ(res.best, base.best);
    EXPECT_EQ(res.pr_cs, base.pr_cs);
    EXPECT_EQ(res.queries_sampled, base.queries_sampled);
    EXPECT_EQ(res.estimates, base.estimates);
    EXPECT_EQ(res.optimizer_calls, base.optimizer_calls);
    EXPECT_GT(base.rounds, 1u);
  }
}

TEST(SelectorBudgetTest, WarmBoundsDominanceEliminatesGappedConfigs) {
  // Warm regime end-to-end, in the regime where dominance pays: the race
  // is statistically SLOW (1% total-cost gaps under 5% per-cell noise take
  // hundreds of samples to separate at alpha = 0.95) but the gap still
  // clears the +-0.2% stale-cache band, so interval dominance settles the
  // pair as soon as free refinement covers the workload. The winner must
  // match the static run byte-for-byte, dominance must fire, and the
  // dynamic run must spend strictly fewer real optimizer calls.
  MatrixCostSource m1 = SyntheticMatrix(600, 4, 8, 0.01, 97);
  MatrixCostSource m2 = SyntheticMatrix(600, 4, 8, 0.01, 97);
  ConfigId truth = 0;
  for (ConfigId c = 1; c < m1.num_configs(); ++c) {
    if (m1.TotalCost(c) < m1.TotalCost(truth)) truth = c;
  }

  SelectorOptions stat;
  stat.alpha = 0.95;
  stat.consecutive_to_stop = 5;
  Rng r1(11);
  SelectionResult base = ConfigurationSelector(&m1, stat).Run(&r1);

  const double eps = 0.002;
  std::vector<std::vector<double>> stale(m2.num_configs());
  Rng drift(555);
  for (ConfigId c = 0; c < m2.num_configs(); ++c) {
    stale[c] = m2.Column(c);
    for (double& v : stale[c]) {
      v *= 1.0 + (drift.NextDouble() - 0.5) * eps;  // |d| <= eps / 2
    }
  }
  StaleCostBoundsProvider provider(
      m2.num_queries(), m2.num_configs(),
      [&](QueryId q, ConfigId c) { return stale[c][q]; }, eps);
  SelectorOptions dyn = stat;
  dyn.budget_policy = BudgetPolicy::kDynamic;
  dyn.bounds = &provider;
  Rng r2(11);
  SelectionResult res = ConfigurationSelector(&m2, dyn).Run(&r2);

  EXPECT_EQ(res.best, base.best);
  EXPECT_GT(res.dominance_eliminations, 0u);
  // Local bounds are memory reads: refinement charges no optimizer calls,
  // so the dominance savings show up as a strict call reduction.
  EXPECT_EQ(res.bound_refinement_calls, 0u);
  EXPECT_LT(res.optimizer_calls, base.optimizer_calls);
  // Every dominance-eliminated configuration is genuinely worse.
  ASSERT_EQ(res.dominance_eliminated.size(), m2.num_configs());
  EXPECT_FALSE(res.dominance_eliminated[res.best]);
  for (ConfigId c = 0; c < m2.num_configs(); ++c) {
    if (res.dominance_eliminated[c]) {
      EXPECT_GT(m2.TotalCost(c), m2.TotalCost(truth)) << "c=" << c;
    }
  }
}

TEST(SelectorBudgetTest, StaticPolicyIsByteIdenticalToDefault) {
  MatrixCostSource m1 = SyntheticMatrix(300, 3, 6, 0.3, 55);
  MatrixCostSource m2 = SyntheticMatrix(300, 3, 6, 0.3, 55);
  SelectorOptions opts;
  opts.alpha = 0.9;
  Rng r1(7);
  SelectionResult a = ConfigurationSelector(&m1, opts).Run(&r1);
  opts.budget_policy = BudgetPolicy::kStatic;  // explicit, same thing
  Rng r2(7);
  SelectionResult b = ConfigurationSelector(&m2, opts).Run(&r2);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.pr_cs, b.pr_cs);
  EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
  EXPECT_EQ(a.queries_sampled, b.queries_sampled);
  EXPECT_EQ(a.estimates, b.estimates);
  EXPECT_EQ(b.bound_refinement_calls, 0u);
  EXPECT_TRUE(b.dominance_eliminated.empty());
}

// --- WorkloadBoundsCache concurrency (exactly-once fills) ---------------------

TEST(WorkloadBoundsCacheTest, ConcurrentFillsAreExactlyOnceAndBitIdentical) {
  // Mirrors test_signature_cache's bit-identity property: hammer BoundsFor
  // from the thread pool over every (query, config) cell, repeatedly and
  // in scattered order, and require (a) every interval bit-identical to a
  // serially filled reference cache, (b) each SELECT/DML piece filled
  // exactly once despite the collisions, (c) derivation-call accounting
  // equal to 2 calls per fill. Run under -DPDX_SANITIZE=thread in CI.
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 200);
  WhatIfOptimizer opt(schema);
  Rng rng(31);
  EnumeratorOptions eopt;
  eopt.num_configs = 5;
  eopt.eval_sample_size = 40;
  std::vector<Configuration> pool = EnumerateConfigurations(opt, wl, eopt, &rng);
  CandidateGenerator gen(schema);
  CostBoundsDeriver deriver(opt, wl, Configuration("base"),
                            gen.RichConfiguration(wl));

  WorkloadBoundsCache serial(&deriver, &pool);
  std::vector<std::vector<CostInterval>> want(wl.size());
  for (QueryId q = 0; q < wl.size(); ++q) {
    want[q].resize(pool.size());
    for (ConfigId c = 0; c < pool.size(); ++c) {
      want[q][c] = serial.BoundsFor(q, c);
    }
  }

  WorkloadBoundsCache cache(&deriver, &pool);
  const size_t cells = wl.size() * pool.size();
  constexpr int kRounds = 3;
  std::atomic<uint64_t> mismatches{0};
  GlobalThreadPool().ParallelFor(
      0, cells * kRounds, /*chunk=*/64, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          size_t cell = (i * 2654435761u) % cells;
          QueryId q = static_cast<QueryId>(cell / pool.size());
          ConfigId c = static_cast<ConfigId>(cell % pool.size());
          CostInterval iv = cache.BoundsFor(q, c);
          if (iv.low != want[q][c].low || iv.high != want[q][c].high) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  EXPECT_EQ(mismatches.load(), 0u);
  // Exactly-once: the hammered cache derived the same set of pieces as
  // the serial census — per piece, never per read.
  EXPECT_EQ(cache.select_fills(), serial.select_fills());
  EXPECT_EQ(cache.dml_fills(), serial.dml_fills());
  EXPECT_GT(cache.select_fills(), 0u);
  EXPECT_GT(cache.dml_fills(), 0u);  // the CRM trace carries DML templates
  EXPECT_EQ(cache.derivation_calls(),
            2 * (cache.select_fills() + cache.dml_fills()));
}

}  // namespace
}  // namespace pdx
