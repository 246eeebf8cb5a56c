// Copyright (c) the pdexplore authors.
// Cost-source accounting: CachingCostSource hit/miss bookkeeping (exactly
// one underlying optimizer call per distinct pair, serial and parallel,
// including racing first touches of a lazily allocated row, and the same
// counts through every entry point),
// the MatrixCostSource empty-matrix num_configs fix, and atomicity of the
// call counters under concurrent Cost() calls.
#include "core/cost_source.h"

#include <atomic>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

TEST(MatrixCostSourceTest, NumConfigsSurvivesEmptyMatrix) {
  MatrixCostSource empty({}, {}, 5);
  EXPECT_EQ(empty.num_queries(), 0u);
  EXPECT_EQ(empty.num_configs(), 5u);
  EXPECT_EQ(empty.num_templates(), 0u);

  MatrixCostSource fully_empty({}, {});
  EXPECT_EQ(fully_empty.num_queries(), 0u);
  EXPECT_EQ(fully_empty.num_configs(), 0u);
}

TEST(MatrixCostSourceTest, DerivedAndExplicitWidthsAgree) {
  MatrixCostSource src = SyntheticMatrix(20, 3, 4, 0.1, 7);
  EXPECT_EQ(src.num_queries(), 20u);
  EXPECT_EQ(src.num_configs(), 3u);
}

TEST(MatrixCostSourceTest, MoveKeepsDataAndCallCount) {
  MatrixCostSource src = SyntheticMatrix(10, 2, 2, 0.1, 9);
  double v = src.Cost(3, 1);
  MatrixCostSource moved = std::move(src);
  EXPECT_EQ(moved.num_calls(), 1u);
  EXPECT_EQ(moved.Cost(3, 1), v);
  EXPECT_EQ(moved.num_configs(), 2u);
}

TEST(MatrixCostSourceTest, CallCounterIsAtomicUnderParallelCost) {
  MatrixCostSource src = SyntheticMatrix(64, 4, 8, 0.1, 11);
  ThreadPool pool(4);
  constexpr size_t kCalls = 10000;
  pool.ParallelFor(0, kCalls, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      src.Cost(static_cast<QueryId>(i % 64), static_cast<ConfigId>(i % 4));
    }
  });
  EXPECT_EQ(src.num_calls(), kCalls);
  src.ResetCallCounter();
  EXPECT_EQ(src.num_calls(), 0u);
}

TEST(CachingCostSourceTest, OneUnderlyingCallPerDistinctPair) {
  MatrixCostSource inner = SyntheticMatrix(12, 3, 4, 0.1, 3);
  CachingCostSource cache(&inner);
  EXPECT_EQ(cache.num_queries(), 12u);
  EXPECT_EQ(cache.num_configs(), 3u);

  // First sweep: every pair is a cold miss.
  for (QueryId q = 0; q < 12; ++q) {
    for (ConfigId c = 0; c < 3; ++c) {
      EXPECT_EQ(cache.Cost(q, c), inner.Cost(q, c));
    }
  }
  EXPECT_EQ(cache.num_misses(), 36u);
  EXPECT_EQ(cache.num_hits(), 0u);
  EXPECT_EQ(cache.num_calls(), 36u);
  uint64_t inner_calls = inner.num_calls();

  // Second sweep: all hits, no new calls to the wrapped source.
  for (QueryId q = 0; q < 12; ++q) {
    for (ConfigId c = 0; c < 3; ++c) {
      EXPECT_EQ(cache.Cost(q, c), inner.Cost(q, c));
    }
  }
  EXPECT_EQ(cache.num_misses(), 36u);
  EXPECT_EQ(cache.num_hits(), 36u);
  // Only the direct inner.Cost() comparisons above touched the inner
  // counter; the cache added nothing.
  EXPECT_EQ(inner.num_calls(), inner_calls + 36u);
}

TEST(CachingCostSourceTest, ResetKeepsCacheContents) {
  MatrixCostSource inner = SyntheticMatrix(4, 2, 2, 0.1, 5);
  CachingCostSource cache(&inner);
  cache.Cost(0, 0);
  cache.ResetCallCounter();
  EXPECT_EQ(cache.num_calls(), 0u);
  inner.ResetCallCounter();
  cache.Cost(0, 0);  // still cached: no call to the wrapped source
  EXPECT_EQ(inner.num_calls(), 0u);
  EXPECT_EQ(cache.num_hits(), 1u);
}

TEST(CachingCostSourceTest, ConcurrentSamePairMakesExactlyOneCall) {
  MatrixCostSource inner = SyntheticMatrix(8, 2, 2, 0.1, 13);
  CachingCostSource cache(&inner);
  inner.ResetCallCounter();
  ThreadPool pool(4);
  // Hammer a handful of cells from many threads at once.
  pool.ParallelFor(0, 4000, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      cache.Cost(static_cast<QueryId>(i % 8),
                 static_cast<ConfigId>((i / 8) % 2));
    }
  });
  EXPECT_EQ(inner.num_calls(), 8u * 2u);  // at most one per distinct pair
  EXPECT_EQ(cache.num_misses(), 8u * 2u);
  EXPECT_EQ(cache.num_hits() + cache.num_misses(), 4000u);
}

TEST(CachingCostSourceTest, DelegatesMetadata) {
  MatrixCostSource inner = SyntheticMatrix(10, 2, 5, 0.1, 17);
  CachingCostSource cache(&inner);
  EXPECT_EQ(cache.num_templates(), inner.num_templates());
  for (QueryId q = 0; q < 10; ++q) {
    EXPECT_EQ(cache.TemplateOf(q), inner.TemplateOf(q));
    EXPECT_EQ(cache.OptimizeOverhead(q), inner.OptimizeOverhead(q));
  }
}

// ---------------------------------------------------------------------------
// Batched fills (CostMany / CostAcross)

TEST(MatrixCostSourceTest, BatchedFillsMatchScalarAndCountPerCell) {
  MatrixCostSource src = SyntheticMatrix(20, 3, 4, 0.1, 21);
  std::vector<QueryId> qids(20);
  for (QueryId q = 0; q < 20; ++q) qids[q] = q;
  const std::vector<ConfigId> cids = {2, 0, 1};  // arbitrary order is fine

  std::vector<double> col(20, -1.0);
  src.ResetCallCounter();
  src.CostMany(qids, 1, col);
  EXPECT_EQ(src.num_calls(), 20u);  // one accounted call per cell
  for (size_t i = 0; i < qids.size(); ++i) {
    EXPECT_EQ(col[i], src.Cost(qids[i], 1));
  }

  std::vector<double> row(cids.size(), -1.0);
  src.ResetCallCounter();
  src.CostAcross(7, cids, row);
  EXPECT_EQ(src.num_calls(), cids.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    EXPECT_EQ(row[i], src.Cost(7, cids[i]));
  }
}

/// Overrides only the scalar virtuals: exercises the base-class batched
/// defaults, which are contractually the plain scalar loop so third-party
/// sources keep working unchanged.
class ScalarOnlySource : public CostSource {
 public:
  double Cost(QueryId q, ConfigId c) override {
    ++calls_;
    return 10.0 * q + c;
  }
  double CostUncertainty(QueryId q, ConfigId) const override {
    return q == 0 ? 0.5 : 0.0;
  }
  size_t num_queries() const override { return 6; }
  size_t num_configs() const override { return 3; }
  TemplateId TemplateOf(QueryId) const override { return 0; }
  size_t num_templates() const override { return 1; }
  uint64_t num_calls() const override { return calls_; }
  void ResetCallCounter() override { calls_ = 0; }

 private:
  uint64_t calls_ = 0;
};

TEST(CostSourceTest, DefaultBatchedFallbackIsTheScalarLoop) {
  ScalarOnlySource src;
  const std::vector<QueryId> qids = {0, 3, 5, 1};
  std::vector<double> out(4, -1.0);
  src.CostMany(qids, 2, out);
  EXPECT_EQ(src.num_calls(), 4u);  // one Cost() per cell
  for (size_t i = 0; i < qids.size(); ++i) {
    EXPECT_EQ(out[i], 10.0 * qids[i] + 2.0);
  }

  const std::vector<ConfigId> cids = {1, 0, 2};
  std::vector<double> row(3, -1.0);
  src.CostAcross(4, cids, row);
  EXPECT_EQ(src.num_calls(), 7u);
  for (size_t i = 0; i < cids.size(); ++i) {
    EXPECT_EQ(row[i], 40.0 + cids[i]);
  }

  std::vector<double> unc(4, -1.0);
  src.CostUncertaintyMany(qids, 2, unc);
  EXPECT_EQ(unc[0], 0.5);  // qids[0] == 0
  EXPECT_EQ(unc[1], 0.0);
  std::vector<double> unc_row(3, -1.0);
  src.CostUncertaintyAcross(0, cids, unc_row);
  for (double u : unc_row) EXPECT_EQ(u, 0.5);
}

TEST(CachingCostSourceTest, BatchedSweepAccountingMatchesScalar) {
  MatrixCostSource inner = SyntheticMatrix(12, 3, 4, 0.1, 3);
  CachingCostSource cache(&inner);
  std::vector<QueryId> qids(12);
  for (QueryId q = 0; q < 12; ++q) qids[q] = q;
  std::vector<double> col(12, 0.0);

  // First sweep, one CostMany per column: every cell is a cold miss and
  // the wrapped source is called exactly once per cell — the same
  // accounting the scalar double loop produces.
  for (ConfigId c = 0; c < 3; ++c) cache.CostMany(qids, c, col);
  EXPECT_EQ(cache.num_misses(), 36u);
  EXPECT_EQ(cache.num_hits(), 0u);
  EXPECT_EQ(inner.num_calls(), 36u);

  // Second sweep along the other axis: pure hits, no new inner calls.
  const std::vector<ConfigId> cids = {0, 1, 2};
  std::vector<double> row(3, 0.0);
  for (QueryId q = 0; q < 12; ++q) {
    cache.CostAcross(q, cids, row);
    for (size_t i = 0; i < cids.size(); ++i) {
      EXPECT_EQ(row[i], inner.Cost(q, cids[i]));
    }
  }
  EXPECT_EQ(cache.num_misses(), 36u);
  EXPECT_EQ(cache.num_hits(), 36u);
}

TEST(CachingCostSourceTest, ConcurrentCostManyMakesExactlyOneCallPerPair) {
  MatrixCostSource inner = SyntheticMatrix(16, 4, 4, 0.1, 29);
  std::vector<std::vector<double>> cols;
  for (ConfigId c = 0; c < 4; ++c) cols.push_back(inner.Column(c));
  CachingCostSource cache(&inner);
  inner.ResetCallCounter();
  std::vector<QueryId> qids(16);
  for (QueryId q = 0; q < 16; ++q) qids[q] = q;
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  // Every thread hammers all four columns through the batched path: the
  // first-touch races must resolve to exactly one inner call per cell and
  // every batch must read the same stored doubles. (This is the test the
  // TSan build leans on for the batched fill path.)
  pool.ParallelFor(0, 1000, 1, [&](size_t begin, size_t end) {
    std::vector<double> out(16, 0.0);
    for (size_t i = begin; i < end; ++i) {
      const ConfigId c = static_cast<ConfigId>(i % 4);
      cache.CostMany(qids, c, out);
      for (size_t q = 0; q < 16; ++q) {
        if (out[q] != cols[c][q]) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(inner.num_calls(), 16u * 4u);
  EXPECT_EQ(cache.num_misses(), 16u * 4u);
  EXPECT_EQ(cache.num_hits() + cache.num_misses(), 16u * 1000u);
}

TEST(CachingCostSourceTest, ConcurrentFirstTouchOfARowFillsEachCellOnce) {
  MatrixCostSource inner = SyntheticMatrix(64, 8, 4, 0.1, 31);
  const std::vector<ConfigId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<ConfigId> odd = {1, 3, 5, 7};
  ThreadPool pool(4);
  // A fresh cache per round, so every round races the row installs: all
  // workers first-touch the same few rows at once, through all three entry
  // points. Query 9 is only ever priced at odd configs, query 11 only
  // through CostMany at config 2.
  for (int round = 0; round < 20; ++round) {
    CachingCostSource cache(&inner);
    inner.ResetCallCounter();
    std::atomic<int> mismatches{0};
    pool.ParallelFor(0, 64, 1, [&](size_t begin, size_t end) {
      std::vector<double> row(8, 0.0);
      std::vector<double> half(4, 0.0);
      const std::vector<QueryId> many = {11, 7, 11};
      std::vector<double> col(3, 0.0);
      for (size_t i = begin; i < end; ++i) {
        const QueryId q = static_cast<QueryId>(i % 2 == 0 ? 7 : 8);
        cache.CostAcross(q, all, row);
        for (size_t k = 0; k < all.size(); ++k) {
          if (row[k] != inner.Column(all[k])[q]) mismatches.fetch_add(1);
        }
        cache.CostAcross(9, odd, half);
        if (cache.Cost(q, static_cast<ConfigId>(i % 8)) !=
            inner.Column(static_cast<ConfigId>(i % 8))[q]) {
          mismatches.fetch_add(1);
        }
        cache.CostMany(many, 2, col);
      }
    });
    EXPECT_EQ(mismatches.load(), 0);
    // Distinct cells touched: 8 + 8 (queries 7, 8) + 4 (query 9) + 1 (11).
    EXPECT_EQ(cache.num_misses(), 21u);
    EXPECT_EQ(inner.num_calls(), 21u);
    EXPECT_EQ(cache.num_hits() + cache.num_misses(), 64u * (8 + 4 + 1 + 3));
  }
}

TEST(CachingCostSourceTest, EmptyShapes) {
  // No queries: construction allocates nothing and nothing can be priced.
  MatrixCostSource no_queries({}, {}, 5);
  CachingCostSource empty(&no_queries);
  EXPECT_EQ(empty.num_queries(), 0u);
  EXPECT_EQ(empty.num_configs(), 5u);
  std::vector<double> none;
  empty.CostMany({}, 4, none);
  EXPECT_EQ(empty.num_misses() + empty.num_hits(), 0u);

  // No configurations: an empty row sweep is a no-op, not a miss or hit.
  MatrixCostSource no_configs({{}, {}, {}}, {0, 0, 1});
  CachingCostSource cache(&no_configs);
  EXPECT_EQ(cache.num_queries(), 3u);
  EXPECT_EQ(cache.num_configs(), 0u);
  for (QueryId q = 0; q < 3; ++q) cache.CostAcross(q, {}, none);
  EXPECT_EQ(cache.num_misses(), 0u);
  EXPECT_EQ(cache.num_hits(), 0u);
  EXPECT_EQ(no_configs.num_calls(), 0u);
}

TEST(CachingCostSourceTest, AccountingIsTheSameThroughEveryEntryPoint) {
  // The same sequence of (query, config) lookups through Cost, CostMany
  // and CostAcross yields the same values, hits and misses.
  MatrixCostSource inner = SyntheticMatrix(10, 4, 3, 0.1, 37);
  const std::vector<QueryId> qs = {3, 1, 3, 9, 1};
  const std::vector<ConfigId> cs = {2, 0, 2};
  CachingCostSource scalar(&inner);
  CachingCostSource many(&inner);
  CachingCostSource across(&inner);
  std::vector<double> a, b, c;
  for (ConfigId cfg : cs) {
    for (QueryId q : qs) a.push_back(scalar.Cost(q, cfg));
    std::vector<double> col(qs.size());
    many.CostMany(qs, cfg, col);
    b.insert(b.end(), col.begin(), col.end());
  }
  // CostAcross sweeps query-major; replay the same cells in that order and
  // compare per cell.
  std::vector<double> row(cs.size());
  std::vector<double> c_by_cell(qs.size() * cs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    across.CostAcross(qs[i], cs, row);
    for (size_t k = 0; k < cs.size(); ++k) {
      c_by_cell[k * qs.size() + i] = row[k];
    }
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c_by_cell);
  // 3 distinct queries x 2 distinct configs = 6 misses of 15 lookups.
  for (const CachingCostSource* src : {&scalar, &many, &across}) {
    EXPECT_EQ(src->num_misses(), 6u);
    EXPECT_EQ(src->num_hits(), 9u);
  }
}

TEST(WhatIfOptimizerTest, CallCountersAreAtomicUnderParallelCost) {
  Schema schema = testing::SmallTpcdSchema();
  Workload wl = testing::SmallTpcdWorkload(schema, 40);
  WhatIfOptimizer optimizer(schema);
  Configuration config("empty");
  optimizer.ResetCallCounter();
  ThreadPool pool(4);
  pool.ParallelFor(0, wl.size(), 1, [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      optimizer.Cost(wl.query(q), config);
    }
  });
  EXPECT_EQ(optimizer.num_calls(), wl.size());
  // Every query has overhead >= some positive epsilon, so the weighted
  // counter must have accumulated every call (order-independent sum of
  // positive terms is positive and bounded by max-overhead * calls).
  EXPECT_GT(optimizer.weighted_calls(), 0.0);
}

}  // namespace
}  // namespace pdx
