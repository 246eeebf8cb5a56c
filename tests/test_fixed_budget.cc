#include "core/fixed_budget.h"

#include <cstring>

#include <gtest/gtest.h>

#include "core/budget.h"
#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

ConfigId TrueBest(const MatrixCostSource& src) {
  ConfigId best = 0;
  double bt = src.TotalCost(0);
  for (ConfigId c = 1; c < src.num_configs(); ++c) {
    if (src.TotalCost(c) < bt) {
      bt = src.TotalCost(c);
      best = c;
    }
  }
  return best;
}


/// FNV-1a over the bit patterns of a fixed-budget result.
uint64_t Fingerprint(const FixedBudgetResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(r.best);
  mix(r.queries_sampled);
  mix(r.optimizer_calls);
  for (double e : r.estimates) {
    uint64_t bits;
    std::memcpy(&bits, &e, sizeof(bits));
    mix(bits);
  }
  return h;
}

TEST(FixedBudgetTest, DeltaOutputsArePinned) {
  // The Delta path's estimator outputs are bit-identical to the scalar
  // per-call merges they replaced: these fingerprints were recorded with
  // the from-scratch kernels and must never drift.
  MatrixCostSource src = SyntheticMatrix(3000, 6, 16, 0.01, 71);
  struct Leg {
    AllocationPolicy allocation;
    bool stratify;
    bool overhead_aware;
    uint64_t fingerprint;
  };
  const Leg legs[] = {
      {AllocationPolicy::kVarianceGuided, true, false, 0xd8f74e62989c2301ull},
      {AllocationPolicy::kVarianceGuided, false, false, 0xbdad6ac2eddaed06ull},
      {AllocationPolicy::kFinePerTemplate, false, true, 0xd3145e497111efb7ull},
  };
  for (const Leg& leg : legs) {
    FixedBudgetOptions opt;
    opt.allocation = leg.allocation;
    opt.stratify = leg.stratify;
    opt.overhead_aware = leg.overhead_aware;
    opt.n_min = 12;
    Rng rng(4242);
    FixedBudgetResult r = FixedBudgetSelect(&src, 1500, opt, &rng);
    EXPECT_EQ(Fingerprint(r), leg.fingerprint)
        << std::hex << "got 0x" << Fingerprint(r);
  }
}

TEST(FixedBudgetTest, IndependentBaselineAndDynamicOutputsArePinned) {
  // The remaining fixed-budget paths — every Independent allocation, the
  // uniform / equal-allocation baselines of both schemes, and both schemes
  // under dynamic budget reallocation — pinned to fingerprints recorded
  // before the selection loops shared one round engine. The dynamic legs
  // run on a wide-gap instance with tight (2%) bounds, where interval
  // dominance fires.
  MatrixCostSource src = SyntheticMatrix(3000, 6, 16, 0.01, 71);
  MatrixCostSource wide = SyntheticMatrix(600, 4, 8, 0.3, 73);
  std::vector<std::vector<double>> cols(wide.num_configs());
  for (ConfigId c = 0; c < wide.num_configs(); ++c) cols[c] = wide.Column(c);
  StaleCostBoundsProvider bounds(
      wide.num_queries(), wide.num_configs(),
      [&](QueryId q, ConfigId c) { return cols[c][q]; }, 0.02);
  struct Leg {
    SamplingScheme scheme;
    AllocationPolicy allocation;
    bool stratify;
    BudgetPolicy budget;
    uint64_t fingerprint;
    uint64_t dominance_eliminations;
  };
  using AP = AllocationPolicy;
  const SamplingScheme kD = SamplingScheme::kDelta;
  const SamplingScheme kI = SamplingScheme::kIndependent;
  const BudgetPolicy kS = BudgetPolicy::kStatic;
  const BudgetPolicy kDyn = BudgetPolicy::kDynamic;
  const Leg legs[] = {
      {kI, AP::kVarianceGuided, true, kS, 0x220f2018a85a67f0ull, 0},
      {kI, AP::kVarianceGuided, false, kS, 0x74495bf47657287cull, 0},
      {kI, AP::kFinePerTemplate, false, kS, 0x4fe28af80ec7e03eull, 0},
      {kI, AP::kUniform, false, kS, 0x4dd43a21d528b063ull, 0},
      {kI, AP::kEqualPerTemplate, false, kS, 0x82ca0674a4b05a25ull, 0},
      {kD, AP::kUniform, false, kS, 0xf964fb92dde5f4d3ull, 0},
      {kD, AP::kEqualPerTemplate, false, kS, 0x7af04c90c79288c2ull, 0},
      {kD, AP::kVarianceGuided, true, kDyn, 0xf0c1cf545f56192aull, 3},
      {kD, AP::kFinePerTemplate, false, kDyn, 0xdb787e5029ff24daull, 3},
      {kI, AP::kVarianceGuided, true, kDyn, 0x5338bd2d688c3671ull, 3},
      {kI, AP::kFinePerTemplate, false, kDyn, 0x2870bc662bcdece5ull, 3},
  };
  for (const Leg& leg : legs) {
    FixedBudgetOptions opt;
    opt.scheme = leg.scheme;
    opt.allocation = leg.allocation;
    opt.stratify = leg.stratify;
    opt.budget_policy = leg.budget;
    opt.n_min = 12;
    const bool dynamic = leg.budget == BudgetPolicy::kDynamic;
    if (dynamic) opt.bounds = &bounds;
    Rng rng(4343);
    FixedBudgetResult r = FixedBudgetSelect(
        dynamic ? &wide : &src,
        !dynamic ? 1500 : leg.scheme == kD ? 500 : 2000, opt, &rng);
    EXPECT_EQ(Fingerprint(r), leg.fingerprint)
        << std::hex << "got 0x" << Fingerprint(r);
    EXPECT_EQ(r.dominance_eliminations, leg.dominance_eliminations);
  }
}

TEST(FixedBudgetTest, DeltaDynamicKeepsItsReferenceAmongLiveConfigs) {
  // A dominated configuration stops being priced, so templates sampled
  // afterwards carry no mass for it and its partial estimate can undercut
  // the live ones. The reference of the pairwise differences must stay
  // among the live configurations: a dominated reference has no cost in
  // the next sample, and picking one aborted the run.
  for (uint64_t seed : {3, 4, 5}) {
    MatrixCostSource src = SyntheticMatrix(400, 4, 8, 0.3, seed);
    std::vector<std::vector<double>> cols(src.num_configs());
    for (ConfigId c = 0; c < src.num_configs(); ++c) cols[c] = src.Column(c);
    StaleCostBoundsProvider bounds(
        src.num_queries(), src.num_configs(),
        [&](QueryId q, ConfigId c) { return cols[c][q]; }, 0.02);
    FixedBudgetOptions opt;
    opt.budget_policy = BudgetPolicy::kDynamic;
    opt.bounds = &bounds;
    opt.n_min = 8;
    Rng rng(seed);
    FixedBudgetResult r = FixedBudgetSelect(&src, 200, opt, &rng);
    EXPECT_GT(r.dominance_eliminations, 0u) << "seed " << seed;
    EXPECT_EQ(r.queries_sampled, 200u) << "seed " << seed;
    EXPECT_EQ(r.best, TrueBest(src)) << "seed " << seed;
  }
}

TEST(FixedBudgetTest, BudgetRespectedDelta) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.05, 51);
  FixedBudgetOptions opt;
  opt.scheme = SamplingScheme::kDelta;
  Rng rng(52);
  FixedBudgetResult r = FixedBudgetSelect(&src, 100, opt, &rng);
  EXPECT_LE(r.queries_sampled, 100u);
  EXPECT_EQ(r.optimizer_calls, r.queries_sampled * 3);
}

TEST(FixedBudgetTest, BudgetRespectedIndependent) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.05, 53);
  FixedBudgetOptions opt;
  opt.scheme = SamplingScheme::kIndependent;
  Rng rng(54);
  FixedBudgetResult r = FixedBudgetSelect(&src, 120, opt, &rng);
  EXPECT_LE(r.queries_sampled, 120u);
  EXPECT_EQ(r.optimizer_calls, r.queries_sampled);
}

TEST(FixedBudgetTest, LargeBudgetSelectsCorrectly) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.08, 55);
  for (AllocationPolicy policy :
       {AllocationPolicy::kVarianceGuided, AllocationPolicy::kUniform,
        AllocationPolicy::kEqualPerTemplate,
        AllocationPolicy::kFinePerTemplate}) {
    FixedBudgetOptions opt;
    opt.allocation = policy;
    Rng rng(56);
    FixedBudgetResult r = FixedBudgetSelect(&src, 800, opt, &rng);
    EXPECT_EQ(r.best, TrueBest(src))
        << "policy " << static_cast<int>(policy);
  }
}

TEST(FixedBudgetTest, AccuracyImprovesWithBudget) {
  MatrixCostSource src = SyntheticMatrix(4000, 2, 8, 0.02, 57);
  ConfigId truth = TrueBest(src);
  auto accuracy = [&](uint64_t budget) {
    int correct = 0;
    const int trials = 80;
    for (int t = 0; t < trials; ++t) {
      FixedBudgetOptions opt;
      opt.allocation = AllocationPolicy::kUniform;
      Rng rng(900 + t);
      if (FixedBudgetSelect(&src, budget, opt, &rng).best == truth) {
        ++correct;
      }
    }
    return static_cast<double>(correct) / trials;
  };
  double small = accuracy(20);
  double large = accuracy(600);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.85);
}

TEST(FixedBudgetTest, EqualAllocationSpreadsOverTemplates) {
  MatrixCostSource src = SyntheticMatrix(1000, 2, 10, 0.1, 58);
  FixedBudgetOptions opt;
  opt.allocation = AllocationPolicy::kEqualPerTemplate;
  Rng rng(59);
  FixedBudgetResult r = FixedBudgetSelect(&src, 50, opt, &rng);
  // 50 samples over 10 templates: every template gets exactly 5 because
  // allocation is round-robin.
  EXPECT_EQ(r.queries_sampled, 50u);
}

TEST(FixedBudgetTest, ExhaustsSmallWorkloadGracefully) {
  MatrixCostSource src = SyntheticMatrix(40, 2, 4, 0.1, 60);
  FixedBudgetOptions opt;
  Rng rng(61);
  FixedBudgetResult r = FixedBudgetSelect(&src, 1000, opt, &rng);
  EXPECT_EQ(r.queries_sampled, 40u);
  EXPECT_EQ(r.best, TrueBest(src));
}

TEST(FixedBudgetTest, EstimatesScaleToWorkloadTotals) {
  MatrixCostSource src = SyntheticMatrix(2000, 2, 8, 0.1, 62);
  FixedBudgetOptions opt;
  Rng rng(63);
  FixedBudgetResult r = FixedBudgetSelect(&src, 500, opt, &rng);
  for (ConfigId c = 0; c < 2; ++c) {
    double truth = src.TotalCost(c);
    EXPECT_NEAR(r.estimates[c], truth, 0.2 * truth);
  }
}

TEST(FixedBudgetTest, DeterministicForSeed) {
  MatrixCostSource src = SyntheticMatrix(1500, 3, 6, 0.05, 64);
  FixedBudgetOptions opt;
  opt.allocation = AllocationPolicy::kVarianceGuided;
  auto run = [&]() {
    Rng rng(888);
    return FixedBudgetSelect(&src, 150, opt, &rng);
  };
  FixedBudgetResult a = run();
  FixedBudgetResult b = run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.queries_sampled, b.queries_sampled);
  for (size_t c = 0; c < a.estimates.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.estimates[c], b.estimates[c]);
  }
}

TEST(FixedBudgetTest, FineStrataCoverEveryTemplateEarly) {
  // With the under-sampled-stratum priority, a fine-stratified run at a
  // budget of 2T samples must give every template at least one sample.
  MatrixCostSource src = SyntheticMatrix(2000, 2, 20, 0.05, 65);
  FixedBudgetOptions opt;
  opt.allocation = AllocationPolicy::kFinePerTemplate;
  Rng rng(66);
  FixedBudgetResult r = FixedBudgetSelect(&src, 40, opt, &rng);
  EXPECT_EQ(r.queries_sampled, 40u);
  // Estimates for both configs must be positive (every template visited;
  // an unvisited template would contribute zero mass).
  for (double e : r.estimates) EXPECT_GT(e, 0.0);
}

class BudgetSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetSweep, ExactBudgetConsumedWhenAvailable) {
  MatrixCostSource src = SyntheticMatrix(3000, 2, 8, 0.05, 67);
  for (AllocationPolicy policy :
       {AllocationPolicy::kVarianceGuided, AllocationPolicy::kUniform,
        AllocationPolicy::kEqualPerTemplate}) {
    FixedBudgetOptions opt;
    opt.allocation = policy;
    Rng rng(68);
    FixedBudgetResult r = FixedBudgetSelect(&src, GetParam(), opt, &rng);
    EXPECT_EQ(r.queries_sampled, GetParam())
        << "policy " << static_cast<int>(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(10, 50, 200, 1000));

}  // namespace
}  // namespace pdx
