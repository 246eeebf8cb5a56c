#include "core/estimators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "core/pr_cs.h"
#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

std::vector<uint64_t> PopsOf(const CostSource& source) {
  std::vector<uint64_t> pops(source.num_templates(), 0);
  for (QueryId q = 0; q < source.num_queries(); ++q) {
    pops[source.TemplateOf(q)] += 1;
  }
  return pops;
}

TEST(SamplePoolTest, DrawsEveryQueryExactlyOnce) {
  MatrixCostSource src = SyntheticMatrix(500, 2, 5, 0.1, 1);
  Rng rng(2);
  StratifiedSamplePool pool(src, &rng);
  EXPECT_EQ(pool.RemainingTotal(), 500u);
  std::set<QueryId> seen;
  while (auto q = pool.DrawGlobal(&rng)) seen.insert(*q);
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_EQ(pool.RemainingTotal(), 0u);
}

TEST(SamplePoolTest, StratifiedDrawStaysInStratum) {
  MatrixCostSource src = SyntheticMatrix(600, 2, 6, 0.1, 3);
  Rng rng(4);
  StratifiedSamplePool pool(src, &rng);
  Stratification strat(PopsOf(src));
  strat.Split(0, {0, 1});  // stratum 0 = templates {0,1}
  for (int i = 0; i < 150; ++i) {
    auto q = pool.Draw(strat, 0, &rng);
    ASSERT_TRUE(q.has_value());
    EXPECT_LE(src.TemplateOf(*q), 1u);
  }
  // 600 queries / 6 templates = 100 per template; stratum 0 has 200.
  EXPECT_EQ(pool.RemainingInStratum(strat, 0), 50u);
}

TEST(IndependentEstimatorTest, FullSampleGivesExactTotal) {
  MatrixCostSource src = SyntheticMatrix(400, 2, 4, 0.2, 5);
  std::vector<uint64_t> pops = PopsOf(src);
  IndependentEstimator est(2, 4, pops);
  Stratification strat(pops);
  for (QueryId q = 0; q < src.num_queries(); ++q) {
    est.Add(0, src.TemplateOf(q), src.Cost(q, 0));
  }
  EXPECT_NEAR(est.Estimate(0, strat), src.TotalCost(0),
              1e-8 * src.TotalCost(0));
  EXPECT_NEAR(est.Variance(0, strat), 0.0, 1e-6);
}

TEST(IndependentEstimatorTest, EstimateUnbiasedOverManySamples) {
  MatrixCostSource src = SyntheticMatrix(1000, 1, 10, 0.0, 6);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  double truth = src.TotalCost(0);
  Rng rng(7);
  double sum = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    IndependentEstimator est(1, 10, pops);
    StratifiedSamplePool pool(src, &rng);
    for (int i = 0; i < 50; ++i) {
      auto q = pool.DrawGlobal(&rng);
      est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
    }
    sum += est.Estimate(0, strat);
  }
  EXPECT_NEAR(sum / trials, truth, 0.05 * truth);
}

TEST(IndependentEstimatorTest, VarianceEstimateTracksEmpiricalVariance) {
  MatrixCostSource src = SyntheticMatrix(2000, 1, 8, 0.0, 8);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  Rng rng(9);
  std::vector<double> estimates;
  double var_estimate_sum = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    IndependentEstimator est(1, 8, pops);
    StratifiedSamplePool pool(src, &rng);
    for (int i = 0; i < 60; ++i) {
      auto q = pool.DrawGlobal(&rng);
      est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
    }
    estimates.push_back(est.Estimate(0, strat));
    var_estimate_sum += est.Variance(0, strat);
  }
  double empirical = ExactMoments::Compute(estimates).variance_sample;
  double predicted = var_estimate_sum / trials;
  EXPECT_NEAR(predicted / empirical, 1.0, 0.35);
}

TEST(IndependentEstimatorTest, VarianceReductionPositiveAndShrinking) {
  MatrixCostSource src = SyntheticMatrix(500, 1, 5, 0.0, 10);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  IndependentEstimator est(1, 5, pops);
  Rng rng(11);
  StratifiedSamplePool pool(src, &rng);
  for (int i = 0; i < 10; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
  }
  double red10 = est.VarianceReductionForNext(0, strat, 0);
  EXPECT_GT(red10, 0.0);
  for (int i = 0; i < 40; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
  }
  EXPECT_LT(est.VarianceReductionForNext(0, strat, 0), red10);
}

TEST(DeltaEstimatorTest, FullSampleGivesExactDiffs) {
  MatrixCostSource src = SyntheticMatrix(300, 3, 3, 0.15, 12);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 3, pops);
  Stratification strat(pops);
  for (QueryId q = 0; q < src.num_queries(); ++q) {
    est.Add(q, src.TemplateOf(q),
            {src.Cost(q, 0), src.Cost(q, 1), src.Cost(q, 2)});
  }
  est.SetReference(0);
  double d01 = src.TotalCost(0) - src.TotalCost(1);
  EXPECT_NEAR(est.DiffEstimate(1, strat), d01, 1e-7 * std::abs(d01));
  EXPECT_NEAR(est.DiffVariance(1, strat), 0.0, 1e-6);
  EXPECT_NEAR(est.Estimate(2, strat), src.TotalCost(2),
              1e-8 * src.TotalCost(2));
}

TEST(DeltaEstimatorTest, ReferenceChangeRebuildsConsistently) {
  MatrixCostSource src = SyntheticMatrix(200, 3, 4, 0.1, 13);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 4, pops);
  Stratification strat(pops);
  Rng rng(14);
  StratifiedSamplePool pool(src, &rng);
  for (int i = 0; i < 80; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(*q, src.TemplateOf(*q),
            {src.Cost(*q, 0), src.Cost(*q, 1), src.Cost(*q, 2)});
  }
  est.SetReference(0);
  double d_0_2 = est.DiffEstimate(2, strat);
  est.SetReference(1);
  double d_1_2 = est.DiffEstimate(2, strat);
  double d_1_0 = est.DiffEstimate(0, strat);
  // X_{1,2} = X_{1,0} + X_{0,2} (same shared sample).
  EXPECT_NEAR(d_1_2, d_1_0 + d_0_2, 1e-6 * (1.0 + std::abs(d_1_2)));
  // Self-difference is identically zero.
  EXPECT_NEAR(est.DiffEstimate(1, strat), 0.0, 1e-9);
}

TEST(DeltaEstimatorTest, DeltaVarianceBeatsIndependentOnCorrelatedCosts) {
  // The §4.2 core claim: Var(diff estimator) << Var(X_l) + Var(X_j) when
  // costs are strongly positively correlated across configurations.
  MatrixCostSource src = SyntheticMatrix(2000, 2, 8, 0.05, 15);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  Rng rng(16);

  DeltaEstimator delta(2, 8, pops);
  IndependentEstimator indep(2, 8, pops);
  StratifiedSamplePool pool_d(src, &rng);
  StratifiedSamplePool pool_0(src, &rng);
  StratifiedSamplePool pool_1(src, &rng);
  for (int i = 0; i < 100; ++i) {
    auto q = pool_d.DrawGlobal(&rng);
    delta.Add(*q, src.TemplateOf(*q), {src.Cost(*q, 0), src.Cost(*q, 1)});
    auto q0 = pool_0.DrawGlobal(&rng);
    indep.Add(0, src.TemplateOf(*q0), src.Cost(*q0, 0));
    auto q1 = pool_1.DrawGlobal(&rng);
    indep.Add(1, src.TemplateOf(*q1), src.Cost(*q1, 1));
  }
  delta.SetReference(0);
  double var_delta = delta.DiffVariance(1, strat);
  double var_indep = indep.Variance(0, strat) + indep.Variance(1, strat);
  EXPECT_LT(var_delta, var_indep * 0.5);
}

TEST(DeltaEstimatorTest, EliminatedConfigsSkipNan) {
  MatrixCostSource src = SyntheticMatrix(100, 3, 2, 0.2, 17);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 2, pops);
  Stratification strat(pops);
  double nan = std::numeric_limits<double>::quiet_NaN();
  est.Add(0, src.TemplateOf(0), {src.Cost(0, 0), src.Cost(0, 1), src.Cost(0, 2)});
  est.Add(1, src.TemplateOf(1), {src.Cost(1, 0), src.Cost(1, 1), nan});
  est.Add(2, src.TemplateOf(2), {src.Cost(2, 0), src.Cost(2, 1), nan});
  est.SetReference(0);
  // Config 2's estimate uses only its one valid sample; finite either way.
  EXPECT_TRUE(std::isfinite(est.Estimate(2, strat)));
  EXPECT_TRUE(std::isfinite(est.DiffEstimate(1, strat)));
}

TEST(DeltaEstimatorTest, TemplateCoverageAccounting) {
  MatrixCostSource src = SyntheticMatrix(300, 2, 3, 0.1, 20);
  std::vector<uint64_t> pops = {100, 100, 100};
  DeltaEstimator est(2, 3, pops);
  EXPECT_EQ(est.MinTemplateCount(), 0u);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(), 1.0);
  // One sample of template 0: 2/3 of the population still unobserved.
  est.Add(0, 0, {src.Cost(0, 0), src.Cost(0, 1)});
  EXPECT_EQ(est.MinTemplateCount(), 0u);
  EXPECT_NEAR(est.UnobservedPopulationShare(), 2.0 / 3.0, 1e-12);
  est.Add(1, 1, {src.Cost(1, 0), src.Cost(1, 1)});
  est.Add(2, 2, {src.Cost(2, 0), src.Cost(2, 1)});
  EXPECT_EQ(est.MinTemplateCount(), 1u);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(), 0.0);
}

TEST(IndependentEstimatorTest, TemplateCoveragePerConfig) {
  std::vector<uint64_t> pops = {50, 150};
  IndependentEstimator est(2, 2, pops);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(0), 1.0);
  est.Add(0, 0, 10.0);
  EXPECT_NEAR(est.UnobservedPopulationShare(0), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(1), 1.0);
  est.Add(0, 1, 20.0);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(0), 0.0);
  EXPECT_EQ(est.MinTemplateCount(0), 1u);
  EXPECT_EQ(est.MinTemplateCount(1), 0u);
}

TEST(DeltaEstimatorTest, BatchedStatsMatchScalarBitwise) {
  // The batched kernels (Estimates / DiffStats) are the hot path of the
  // vectorized selector; they must reproduce the scalar accessors bit for
  // bit, including the degraded-measurement uncertainty term.
  MatrixCostSource src = SyntheticMatrix(240, 4, 5, 0.12, 23);
  std::vector<uint64_t> pops = PopsOf(src);
  const size_t k = 4;
  DeltaEstimator est(k, 5, pops);
  Stratification strat(pops);
  strat.Split(0, {0, 1});  // non-trivial stratification
  Rng rng(24);
  StratifiedSamplePool pool(src, &rng);
  std::vector<double> costs(k), uncerts(k);
  for (int i = 0; i < 120; ++i) {
    auto q = pool.DrawGlobal(&rng);
    for (ConfigId c = 0; c < k; ++c) costs[c] = src.Cost(*q, c);
    // A sprinkling of degraded cells exercises the uncertainty sweep.
    for (ConfigId c = 0; c < k; ++c) {
      uncerts[c] = (i % 7 == 0) ? 0.01 * costs[c] : 0.0;
    }
    est.Add(*q, src.TemplateOf(*q), costs, uncerts);
  }
  est.SetReference(1);

  std::vector<double> estimates(k), diffs(k), vars(k);
  est.Estimates(strat, estimates);
  est.DiffStats(strat, diffs, vars);
  for (ConfigId c = 0; c < k; ++c) {
    const double e = est.Estimate(c, strat);
    const double d = est.DiffEstimate(c, strat);
    const double v = est.DiffVariance(c, strat);
    EXPECT_EQ(std::memcmp(&estimates[c], &e, sizeof(double)), 0) << "c=" << c;
    EXPECT_EQ(std::memcmp(&diffs[c], &d, sizeof(double)), 0) << "c=" << c;
    EXPECT_EQ(std::memcmp(&vars[c], &v, sizeof(double)), 0) << "c=" << c;
  }
}


// --- per-stratum cache vs scalar oracles -----------------------------------
//
// Estimates / DiffStats / VarianceReductionForNext read DeltaEstimator's
// per-stratum merged state, which is refreshed incrementally. The oracles
// below recompute everything from scratch on every call: the class's own
// scalar Estimate / DiffEstimate / DiffVariance, and a test-side
// variance reduction rebuilt from the recorded samples with scalar
// RunningMoments. Every comparison is bytewise.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double BiasSquared(double uncertainty_sum, uint64_t n, uint64_t N) {
  if (uncertainty_sum <= 0.0 || n == 0) return 0.0;
  double bias =
      static_cast<double>(N) / static_cast<double>(n) * uncertainty_sum;
  return bias * bias;
}

/// Every sample handed to the estimator, replayed from scratch per query.
class DeltaReplayOracle {
 public:
  explicit DeltaReplayOracle(std::vector<uint64_t> pops)
      : pops_(std::move(pops)) {}

  void Add(TemplateId tmpl, std::span<const double> costs,
           std::span<const double> uncerts) {
    samples_.push_back({tmpl, {costs.begin(), costs.end()},
                        {uncerts.begin(), uncerts.end()}});
  }
  void SetReference(ConfigId r) { reference_ = r; }

  /// The pre-cache scalar §5.2 reduction: per-template moments of the
  /// reference differences (samples in arrival order), merged across the
  /// stratum's templates in TemplatesOf order.
  double VarianceReductionForNext(const Stratification& strat, uint32_t h,
                                  const std::vector<bool>& active) const {
    const uint64_t N = strat.PopulationOf(h);
    uint64_t n = 0;
    for (TemplateId t : strat.TemplatesOf(h)) {
      for (const Sample& s : samples_) n += s.tmpl == t ? 1 : 0;
    }
    if (n + 1 > N) return 0.0;
    if (n < 2) {
      return std::numeric_limits<double>::max() / 2.0 *
             (static_cast<double>(N) /
              static_cast<double>(strat.total_population()));
    }
    double reduction = 0.0;
    for (ConfigId j = 0; j < active.size(); ++j) {
      if (!active[j] || j == reference_) continue;
      RunningMoments merged;
      double u = 0.0;
      for (TemplateId t : strat.TemplatesOf(h)) {
        RunningMoments cell;
        double u_cell = 0.0;
        for (const Sample& s : samples_) {
          if (s.tmpl != t || std::isnan(s.costs[reference_]) ||
              std::isnan(s.costs[j])) {
            continue;
          }
          cell.Add(s.costs[reference_] - s.costs[j]);
          if (!s.uncerts.empty()) {
            u_cell += s.uncerts[reference_] + s.uncerts[j];
          }
        }
        merged.Merge(cell);
        u += u_cell;
      }
      const uint64_t nj = static_cast<uint64_t>(merged.count());
      if (nj + 1 > N) continue;
      reduction += StratumVarianceTerm(merged.variance_sample(), nj, N) -
                   StratumVarianceTerm(merged.variance_sample(), nj + 1, N);
      reduction += BiasSquared(u, nj, N) - BiasSquared(u, nj + 1, N);
    }
    return reduction;
  }

 private:
  struct Sample {
    TemplateId tmpl;
    std::vector<double> costs, uncerts;
  };
  std::vector<uint64_t> pops_;
  std::vector<Sample> samples_;
  ConfigId reference_ = 0;
};

/// Compares every cached output under `strat` against the oracles. The
/// call order rotates so each batched entry point is sometimes the first
/// to see new samples (and so performs the refresh).
void ExpectCacheMatchesOracles(const DeltaEstimator& est,
                               const DeltaReplayOracle& oracle,
                               const Stratification& strat,
                               const std::vector<bool>& active,
                               uint64_t rotation) {
  const size_t k = active.size();
  std::vector<double> estimates(k), diffs(k), vars(k), reductions;
  auto estimates_now = [&] { est.Estimates(strat, estimates); };
  auto diffs_now = [&] { est.DiffStats(strat, diffs, vars); };
  auto reductions_now = [&] {
    reductions.clear();
    for (uint32_t h = 0; h < strat.num_strata(); ++h) {
      reductions.push_back(est.VarianceReductionForNext(strat, h, active));
    }
  };
  switch (rotation % 3) {
    case 0:
      estimates_now(), diffs_now(), reductions_now();
      break;
    case 1:
      reductions_now(), diffs_now(), estimates_now();
      break;
    default:
      diffs_now(), reductions_now(), estimates_now();
      break;
  }
  for (ConfigId c = 0; c < k; ++c) {
    EXPECT_TRUE(SameBits(estimates[c], est.Estimate(c, strat))) << "c=" << c;
    EXPECT_TRUE(SameBits(diffs[c], est.DiffEstimate(c, strat))) << "c=" << c;
    EXPECT_TRUE(SameBits(vars[c], est.DiffVariance(c, strat))) << "c=" << c;
  }
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    EXPECT_TRUE(SameBits(reductions[h],
                         oracle.VarianceReductionForNext(strat, h, active)))
        << "stratum " << h;
  }
}

/// Splits a random multi-template stratum of `strat` (no-op when none).
void RandomSplit(Stratification* strat, Rng* rng) {
  std::vector<uint32_t> splittable;
  for (uint32_t h = 0; h < strat->num_strata(); ++h) {
    if (strat->TemplatesOf(h).size() >= 2) splittable.push_back(h);
  }
  if (splittable.empty()) return;
  uint32_t h = splittable[rng->NextBounded(splittable.size())];
  std::vector<TemplateId> members = strat->TemplatesOf(h);
  rng->Shuffle(&members);
  members.resize(1 + rng->NextBounded(members.size() - 1));
  strat->Split(h, members);
}

struct InterleavingOptions {
  bool eliminate = false;  // NaN cells for eliminated configurations
  bool degrade = false;    // per-cell uncertainty half-widths
};

/// Seeded random interleaving of Add / SetReference / Split / checks over
/// two stratifications (so the cache also switches partitions).
void RunRandomInterleaving(uint64_t seed, InterleavingOptions opt) {
  const size_t k = 6;
  const size_t T = 9;
  MatrixCostSource src = SyntheticMatrix(900, k, T, 0.08, seed);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(k, T, pops);
  DeltaReplayOracle oracle(pops);
  Stratification a(pops);
  Stratification b(pops);
  Rng rng(seed ^ 0xCAC4E);
  StratifiedSamplePool pool(src, &rng);
  std::vector<bool> active(k, true);
  ConfigId reference = 0;
  std::vector<double> costs(k), uncerts(k);
  uint64_t checks = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.NextBounded(16);
    if (op < 9) {
      std::optional<QueryId> q = pool.DrawGlobal(&rng);
      if (!q) break;
      bool any_uncertain = false;
      for (ConfigId c = 0; c < k; ++c) {
        costs[c] = active[c] ? src.Cost(*q, c)
                             : std::numeric_limits<double>::quiet_NaN();
        uncerts[c] = 0.0;
        if (opt.degrade && active[c] && rng.NextBernoulli(0.15)) {
          uncerts[c] = 0.02 * costs[c];
          any_uncertain = true;
        }
      }
      std::span<const double> u =
          any_uncertain ? std::span<const double>(uncerts)
                        : std::span<const double>();
      est.Add(*q, src.TemplateOf(*q), costs, u);
      oracle.Add(src.TemplateOf(*q), costs, u);
    } else if (op < 11) {
      do {
        reference = static_cast<ConfigId>(rng.NextBounded(k));
      } while (!active[reference]);
      est.SetReference(reference);
      oracle.SetReference(reference);
    } else if (op < 12) {
      // Half the splits are checked at once, before any new sample can
      // dirty the strata they changed.
      Stratification* split = rng.NextBernoulli(0.5) ? &a : &b;
      RandomSplit(split, &rng);
      if (rng.NextBernoulli(0.5)) {
        ExpectCacheMatchesOracles(est, oracle, *split, active, checks++);
      }
    } else if (op < 13 && opt.eliminate) {
      ConfigId j = static_cast<ConfigId>(rng.NextBounded(k));
      if (j != reference) active[j] = false;
    } else {
      ExpectCacheMatchesOracles(est, oracle, rng.NextBernoulli(0.5) ? a : b,
                                active, checks++);
    }
  }
  ExpectCacheMatchesOracles(est, oracle, a, active, checks++);
  ExpectCacheMatchesOracles(est, oracle, b, active, checks++);
  EXPECT_GT(checks, 20u);
}

TEST(DeltaEstimatorCacheTest, RandomInterleavingsMatchOracles) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomInterleaving(seed, {});
  }
}

TEST(DeltaEstimatorCacheTest, EliminatedNanCellsMatchOracles) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomInterleaving(seed, {.eliminate = true});
  }
}

TEST(DeltaEstimatorCacheTest, DegradedCellsMatchOracles) {
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomInterleaving(seed, {.eliminate = true, .degrade = true});
  }
}

TEST(DeltaEstimatorCacheTest, FixedBudgetCallSequenceMatchesOracles) {
  // The fixed-budget Delta loop's call order: Estimates -> SetReference
  // -> DiffStats -> Algorithm-2 split -> top-up draws -> one
  // VarianceReductionForNext per stratum -> one draw. Every round is
  // checked against the oracles.
  const size_t k = 5;
  const size_t T = 12;
  MatrixCostSource src = SyntheticMatrix(2400, k, T, 0.05, 91);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(k, T, pops);
  DeltaReplayOracle oracle(pops);
  Stratification strat(pops);
  Rng rng(92);
  StratifiedSamplePool pool(src, &rng);
  const std::vector<bool> active(k, true);
  std::vector<double> costs(k), estimates(k), diffs(k), vars(k);
  auto evaluate = [&](QueryId q) {
    for (ConfigId c = 0; c < k; ++c) costs[c] = src.Cost(q, c);
    est.Add(q, src.TemplateOf(q), costs);
    oracle.Add(src.TemplateOf(q), costs, {});
  };
  for (int i = 0; i < 10; ++i) evaluate(*pool.DrawGlobal(&rng));
  size_t splits = 0;
  for (uint64_t round = 0; round < 240; ++round) {
    est.Estimates(strat, estimates);
    ConfigId best = static_cast<ConfigId>(
        std::min_element(estimates.begin(), estimates.end()) -
        estimates.begin());
    est.SetReference(best);
    oracle.SetReference(best);
    est.DiffStats(strat, diffs, vars);
    ExpectCacheMatchesOracles(est, oracle, strat, active, round);
    if (round % 5 == 4) {
      SplitDecision dec = FindBestSplit(
          strat, est.AveragedDiffTemplateStats(active), 1e3, 10, 3);
      if (dec.beneficial) {
        strat.Split(dec.stratum, dec.part1);
        ++splits;
        for (uint32_t h : {dec.stratum,
                           static_cast<uint32_t>(strat.num_strata() - 1)}) {
          while (est.SamplesIn(strat, h) < 10) {
            std::optional<QueryId> q = pool.Draw(strat, h, &rng);
            if (!q) break;
            evaluate(*q);
          }
        }
      }
    }
    uint32_t chosen = 0;
    double best_score = -1.0;
    for (uint32_t h = 0; h < strat.num_strata(); ++h) {
      if (pool.RemainingInStratum(strat, h) == 0) continue;
      const double red = est.VarianceReductionForNext(strat, h, active);
      EXPECT_TRUE(
          SameBits(red, oracle.VarianceReductionForNext(strat, h, active)));
      if (red > best_score) {
        best_score = red;
        chosen = h;
      }
    }
    std::optional<QueryId> q = pool.Draw(strat, chosen, &rng);
    if (!q) q = pool.DrawGlobal(&rng);
    if (!q) break;
    evaluate(*q);
  }
  EXPECT_GE(splits, 1u) << "the sequence should exercise a split";
}

TEST(DeltaEstimatorTest, AveragedTemplateStatsShape) {
  MatrixCostSource src = SyntheticMatrix(300, 3, 3, 0.1, 18);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 3, pops);
  Rng rng(19);
  StratifiedSamplePool pool(src, &rng);
  for (int i = 0; i < 90; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(*q, src.TemplateOf(*q),
            {src.Cost(*q, 0), src.Cost(*q, 1), src.Cost(*q, 2)});
  }
  est.SetReference(0);
  std::vector<bool> active = {true, true, true};
  auto stats = est.AveragedDiffTemplateStats(active);
  ASSERT_EQ(stats.size(), 3u);
  uint64_t total_obs = 0;
  for (const TemplateStats& s : stats) {
    EXPECT_EQ(s.population, 100u);
    EXPECT_GE(s.variance, 0.0);
    total_obs += s.observations;
  }
  EXPECT_EQ(total_obs, 90u);
}

}  // namespace
}  // namespace pdx
