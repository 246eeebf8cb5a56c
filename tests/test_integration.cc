// End-to-end integration tests: schema -> workload -> what-if optimizer ->
// configuration enumeration -> comparison primitive, plus the §6 bound
// machinery wired against real cost intervals.
#include <gtest/gtest.h>

#include "core/clt_check.h"
#include "core/selector.h"
#include "optimizer/cost_bounds.h"
#include "test_util.h"
#include "tuner/enumerator.h"
#include "workload/sql_text.h"
#include "workload/workload_store.h"

namespace pdx {
namespace {

using testing::ProcessTempDir;
using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : schema_(SmallTpcdSchema()),
        wl_(SmallTpcdWorkload(schema_, 480)),
        opt_(schema_) {}

  Schema schema_;
  Workload wl_;
  WhatIfOptimizer opt_;
};

TEST_F(IntegrationTest, SelectorAgreesWithExactEvaluationOnTpcd) {
  Rng rng(701);
  EnumeratorOptions eopt;
  eopt.num_configs = 6;
  eopt.eval_sample_size = 60;
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  MatrixCostSource src = MatrixCostSource::Precompute(opt_, wl_, configs);
  ConfigId truth = 0;
  for (ConfigId c = 1; c < configs.size(); ++c) {
    if (src.TotalCost(c) < src.TotalCost(truth)) truth = c;
  }
  int correct = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    SelectorOptions sopt;
    sopt.alpha = 0.9;
    Rng trial_rng(800 + t);
    ConfigurationSelector sel(&src, sopt);
    if (sel.Run(&trial_rng).best == truth) ++correct;
  }
  EXPECT_GE(correct, 20);
}

TEST_F(IntegrationTest, SamplingUsesFractionOfExactCalls) {
  Rng rng(702);
  EnumeratorOptions eopt;
  eopt.num_configs = 4;
  eopt.eval_sample_size = 60;
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  MatrixCostSource src = MatrixCostSource::Precompute(opt_, wl_, configs);
  src.ResetCallCounter();
  SelectorOptions sopt;
  sopt.alpha = 0.9;
  ConfigurationSelector sel(&src, sopt);
  Rng run_rng(703);
  SelectionResult r = sel.Run(&run_rng);
  uint64_t exact_calls = wl_.size() * configs.size();
  EXPECT_LT(r.optimizer_calls, exact_calls / 2)
      << "sampling must beat exhaustive evaluation";
}

TEST_F(IntegrationTest, LiveWhatIfSourceMatchesMatrixSource) {
  Rng rng(704);
  EnumeratorOptions eopt;
  eopt.num_configs = 3;
  eopt.eval_sample_size = 40;
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  WhatIfCostSource live(opt_, wl_, configs);
  MatrixCostSource matrix = MatrixCostSource::Precompute(opt_, wl_, configs);
  for (QueryId q = 0; q < wl_.size(); q += 17) {
    for (ConfigId c = 0; c < configs.size(); ++c) {
      EXPECT_DOUBLE_EQ(live.Cost(q, c), matrix.Cost(q, c));
    }
  }
  EXPECT_EQ(live.TemplateOf(3), matrix.TemplateOf(3));
}

TEST_F(IntegrationTest, ConservativeBoundsCoverSelectorEstimates) {
  // §6 wired end-to-end: derive per-query intervals, bound the variance of
  // the delta distribution, and verify it dominates the sample variance of
  // actual cost differences.
  Rng rng(705);
  EnumeratorOptions eopt;
  eopt.num_configs = 4;
  eopt.eval_sample_size = 60;
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  CandidateGenerator gen(schema_);
  CostBoundsDeriver deriver(opt_, wl_, Configuration("base"),
                            gen.RichConfiguration(wl_));
  std::vector<CostInterval> delta_bounds =
      deriver.DeltaBounds(configs[0], configs[1]);

  VarianceBoundResult vb = MaxVarianceBound(delta_bounds, 50.0);
  // True population variance of the differences:
  std::vector<double> diffs(wl_.size());
  for (QueryId q = 0; q < wl_.size(); ++q) {
    diffs[q] =
        opt_.Cost(wl_.query(q), configs[0]) - opt_.Cost(wl_.query(q), configs[1]);
  }
  double true_var = ExactMoments::Compute(diffs).variance_population;
  EXPECT_GE(vb.upper * (1.0 + 1e-9), true_var)
      << "sigma^2_max must dominate the true variance";
}

TEST_F(IntegrationTest, CltSampleSizeFractionFallsWithWorkloadSize) {
  // The §6.2 observation: the required sample *fraction* shrinks as the
  // workload grows (the absolute n_min stays in the same ballpark).
  CandidateGenerator gen(schema_);
  Workload small = SmallTpcdWorkload(schema_, 240, 1);
  Workload large = SmallTpcdWorkload(schema_, 2400, 2);
  auto fraction = [&](const Workload& wl) {
    WhatIfOptimizer opt(schema_);
    CostBoundsDeriver deriver(opt, wl, Configuration("base"),
                              gen.RichConfiguration(wl));
    auto bounds = deriver.WorkloadBounds(Configuration("base"));
    CltValidation v = ValidateClt(bounds, 100.0);
    return static_cast<double>(v.n_min_estimate) /
           static_cast<double>(wl.size());
  };
  EXPECT_LT(fraction(large), fraction(small));
}

TEST(IntegrationCrmTest, SelectorWorksOnDmlWorkload) {
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 800);
  WhatIfOptimizer opt(schema);
  Rng rng(706);
  EnumeratorOptions eopt;
  eopt.num_configs = 5;
  eopt.eval_sample_size = 60;
  auto configs = EnumerateConfigurations(opt, wl, eopt, &rng);
  MatrixCostSource src = MatrixCostSource::Precompute(opt, wl, configs);
  ConfigId truth = 0;
  for (ConfigId c = 1; c < configs.size(); ++c) {
    if (src.TotalCost(c) < src.TotalCost(truth)) truth = c;
  }
  SelectorOptions sopt;
  sopt.alpha = 0.9;
  ConfigurationSelector sel(&src, sopt);
  Rng run_rng(707);
  SelectionResult r = sel.Run(&run_rng);
  EXPECT_EQ(r.best, truth);
}

TEST(IntegrationStoreTest, WorkloadRoundTripsThroughStore) {
  // trace -> SQL text -> on-disk store -> signature-consistent reload.
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 120);
  std::string path = ProcessTempDir("pdx_integration") + "/store.wl";
  {
    auto store = WorkloadStore::Create(path);
    ASSERT_TRUE(store.ok());
    for (const Query& q : wl.queries()) {
      ASSERT_TRUE(
          store->Append(q.id, q.template_id, RenderSql(schema, q)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  auto reopened = WorkloadStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->size(), wl.size());
  Rng rng(708);
  auto sample = reopened->SampleQueries(30, &rng);
  ASSERT_TRUE(sample.ok());
  for (const StoredQuery& sq : *sample) {
    // Signature of the stored text must match the registered template.
    EXPECT_EQ(SqlTemplateSignature(sq.sql),
              wl.query_template(sq.template_id).signature);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdx
