// The flat query store and the lifetime of the views into it: elements
// never move once finished, and a workload's queries survive moves through
// std::optional, std::unique_ptr and Result.
#include "workload/query_store.h"

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/serialization.h"
#include "optimizer/what_if.h"
#include "test_util.h"
#include "tuner/enumerator.h"

namespace pdx {
namespace {

using testing::ProcessTempDir;
using testing::SmallCrmSchema;
using testing::SmallCrmTrace;

TEST(FlatArrayTest, FinishedRunsNeverMoveAsTheArrayGrows) {
  FlatArray<uint32_t> a;
  std::vector<std::span<const uint32_t>> runs;
  for (uint32_t r = 0; r < 500; ++r) {
    for (uint32_t i = 0; i <= r % 7; ++i) a.Push(r * 10 + i);
    runs.push_back(a.Close());
  }
  for (uint32_t r = 0; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), r % 7 + 1u) << "run " << r;
    for (uint32_t i = 0; i < runs[r].size(); ++i) {
      EXPECT_EQ(runs[r][i], r * 10 + i);
    }
  }
}

TEST(FlatArrayTest, OpenRunStaysContiguousWhenItOutgrowsItsBlock) {
  FlatArray<uint32_t> a;
  a.Push(7);
  const std::span<const uint32_t> first = a.Close();
  // One run far larger than the first block.
  for (uint32_t i = 0; i < 1000; ++i) a.Push(i);
  const std::span<const uint32_t> big = a.Close();
  ASSERT_EQ(big.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(big[i], i);
  EXPECT_EQ(first[0], 7u);
  EXPECT_TRUE(a.Close().empty());
}

TEST(FlatArrayTest, AdoptKeepsViewsAndAppendsAfter) {
  FlatArray<uint32_t> a, b;
  a.Push(1);
  const std::span<const uint32_t> in_a = a.Close();
  b.Push(2);
  b.Push(3);
  const std::span<const uint32_t> in_b = b.Close();
  a.Adopt(std::move(b));
  a.Push(4);
  const std::span<const uint32_t> after = a.Close();
  EXPECT_EQ(in_a[0], 1u);
  EXPECT_EQ(in_b[0], 2u);
  EXPECT_EQ(in_b[1], 3u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], 4u);
}

TEST(QueryStoreTest, StreamedPartsLandInTheirViews) {
  QueryStore store;
  const ColumnId refs0[] = {1, 2};
  store.AddAccess(3, refs0);
  Predicate p;
  p.column = {3, 1};
  p.selectivity = 0.25;
  store.AddPredicate(p);
  store.AddAccess(4, {});
  store.AddJoin(JoinEdge{0, 1, 1, 0});
  const ColumnRef stale[] = {{4, 9}};
  const ColumnRef group[] = {{3, 2}};
  store.SetGroupBy(stale);
  store.SetGroupBy(group);  // the last call wins
  const ColumnId set[] = {5};
  store.SetUpdateColumns(set);
  Query header;
  header.template_id = 2;
  header.kind = StatementKind::kUpdate;
  header.update.emplace();
  header.update->table = 3;
  const Query q = store.Finish(header);

  EXPECT_EQ(q.template_id, 2u);
  ASSERT_EQ(q.select.accesses.size(), 2u);
  EXPECT_EQ(q.select.accesses[0].table, 3u);
  ASSERT_EQ(q.select.accesses[0].referenced_columns.size(), 2u);
  EXPECT_EQ(q.select.accesses[0].referenced_columns[1], 2u);
  ASSERT_EQ(q.select.accesses[0].predicates.size(), 1u);
  EXPECT_EQ(q.select.accesses[0].predicates[0].selectivity, 0.25);
  EXPECT_TRUE(q.select.accesses[1].predicates.empty());
  EXPECT_TRUE(q.select.accesses[1].referenced_columns.empty());
  ASSERT_EQ(q.select.joins.size(), 1u);
  ASSERT_EQ(q.select.group_by.size(), 1u);
  EXPECT_EQ(q.select.group_by[0], (ColumnRef{3, 2}));
  EXPECT_TRUE(q.select.order_by.empty());
  ASSERT_EQ(q.update->set_columns.size(), 1u);
  EXPECT_EQ(q.update->set_columns[0], 5u);

  // The next query starts empty.
  const Query next = store.Finish(Query());
  EXPECT_TRUE(next.select.accesses.empty());
  EXPECT_TRUE(next.select.group_by.empty());
}

/// Cost of every query under every configuration, and the saved bytes.
struct Fingerprint {
  std::vector<double> costs;
  std::string bytes;
};

Fingerprint Measure(const Workload& wl, const std::vector<Configuration>& cs,
                    const std::string& path) {
  Fingerprint f;
  WhatIfOptimizer opt(wl.schema());
  for (const Configuration& c : cs) {
    for (const Query& q : wl.queries()) f.costs.push_back(opt.Cost(q, c));
  }
  EXPECT_TRUE(SaveWorkload(wl, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  f.bytes = ss.str();
  return f;
}

class WorkloadLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempDir("workload_lifetime");
    const Workload generated = SmallCrmTrace(schema_, 600, 21);
    Rng rng(5);
    EnumeratorOptions eopt;
    eopt.num_configs = 4;
    configs_ = EnumerateConfigurations(WhatIfOptimizer(schema_), generated,
                                       eopt, &rng);
    want_ = Measure(generated, configs_, dir_ + "/generated.pdx");
  }

  Result<Workload> Load() {
    return LoadWorkload(dir_ + "/generated.pdx", schema_);
  }

  void ExpectIntact(const Workload& wl, const std::string& name) {
    const Fingerprint got = Measure(wl, configs_, dir_ + "/" + name + ".pdx");
    EXPECT_EQ(got.costs, want_.costs) << name;
    EXPECT_EQ(got.bytes, want_.bytes) << name;
  }

  Schema schema_ = SmallCrmSchema();
  std::string dir_;
  std::vector<Configuration> configs_;
  Fingerprint want_;
};

TEST_F(WorkloadLifetimeTest, MovedThroughOptionalUniquePtrAndResult) {
  auto loaded = Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Query* first = &loaded->query(0);

  std::optional<Workload> opt;
  opt.emplace(std::move(*loaded));
  // The query headers did not move with the workload object.
  EXPECT_EQ(&opt->query(0), first);
  ExpectIntact(*opt, "optional");

  auto owned = std::make_unique<Workload>(std::move(*opt));
  opt.reset();
  ExpectIntact(*owned, "unique_ptr");

  Result<Workload> result(std::move(*owned));
  owned.reset();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(&result->query(0), first);
  ExpectIntact(*result, "result");
}

// A member-wise copy would view the original's store.
static_assert(!std::is_copy_constructible_v<Workload>);
static_assert(!std::is_copy_assignable_v<Workload>);
static_assert(std::is_nothrow_move_constructible_v<Workload>);

TEST_F(WorkloadLifetimeTest, AddQueryCopiesFromTheSameWorkload) {
  auto wl = Load();
  ASSERT_TRUE(wl.ok());
  const size_t n = wl->size();
  for (QueryId q = 0; q < n; ++q) wl->AddQuery(wl->query(q));
  ASSERT_EQ(wl->size(), 2 * n);
  WhatIfOptimizer opt(schema_);
  for (QueryId q = 0; q < n; ++q) {
    EXPECT_EQ(wl->query(q + n).id, q + n);
    EXPECT_EQ(opt.Cost(wl->query(q), configs_[0]),
              opt.Cost(wl->query(q + n), configs_[0]));
  }
}

TEST_F(WorkloadLifetimeTest, PricedFromSeveralThreadsAfterAMove) {
  auto loaded = Load();
  ASSERT_TRUE(loaded.ok());
  const Workload wl = std::move(*loaded);
  const WhatIfOptimizer opt(schema_);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Configuration& c : configs_) {
        for (const Query& q : wl.queries()) got[t].push_back(opt.Cost(q, c));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want_.costs);
}

}  // namespace
}  // namespace pdx
