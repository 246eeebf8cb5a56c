#include "optimizer/relevance.h"

#include <gtest/gtest.h>

#include "optimizer/what_if.h"
#include "test_util.h"
#include "tuner/enumerator.h"

namespace pdx {
namespace {

using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

// Handcrafted shapes pin the footprint and the applicability predicates;
// the property tests at the bottom pin them against the optimizer itself.

/// Handcrafted queries are appended to one store that outlives every test.
QueryStore& Store() {
  static QueryStore store;
  return store;
}

Query MakeSelect(TableId table, std::vector<Predicate> preds,
                 std::vector<ColumnId> referenced) {
  Store().AddAccess(table, referenced);
  for (const Predicate& p : preds) Store().AddPredicate(p);
  Query q;
  q.kind = StatementKind::kSelect;
  return Store().Finish(q);
}

/// Two accesses joined by one edge, optionally grouped.
Query MakeJoin(TableId t1, std::vector<ColumnId> referenced1, TableId t2,
               std::vector<ColumnId> referenced2, JoinEdge j,
               std::vector<ColumnRef> group_by = {}) {
  Store().AddAccess(t1, referenced1);
  Store().AddAccess(t2, referenced2);
  Store().AddJoin(j);
  Store().SetGroupBy(group_by);
  Query q;
  q.kind = StatementKind::kSelect;
  return Store().Finish(q);
}

/// A DML statement writing `set_columns` of `table`, with no SELECT part.
Query MakeDml(StatementKind kind, TableId table,
              std::vector<ColumnId> set_columns, double selectivity) {
  Store().SetUpdateColumns(set_columns);
  Query q;
  q.kind = kind;
  UpdateSpec u;
  u.table = table;
  u.kind = kind;
  u.selectivity = selectivity;
  q.update = u;
  return Store().Finish(q);
}

Predicate Pred(TableId t, ColumnId c, PredOp op, bool sargable = true) {
  Predicate p;
  p.column = {t, c};
  p.op = op;
  p.selectivity = 0.1;
  p.sargable = sargable;
  return p;
}

TEST(FootprintTest, SeekColumnsOnlyFromSargableSeekablePredicates) {
  const TableId t = 5;
  Query q = MakeSelect(t,
                       {Pred(t, 0, PredOp::kEq), Pred(t, 1, PredOp::kRange),
                        Pred(t, 2, PredOp::kIn),
                        Pred(t, 3, PredOp::kLike),           // wrong op
                        Pred(t, 4, PredOp::kEq, false)},     // not sargable
                       {0, 1, 2, 3, 4});
  QueryFootprint f = ComputeFootprint(q);
  ASSERT_EQ(f.accesses.size(), 1u);
  EXPECT_EQ(f.accesses[0].seek_columns, (std::vector<ColumnId>{0, 1, 2}));
  EXPECT_EQ(f.accesses[0].referenced_columns,
            (std::vector<ColumnId>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(f.has_joins);
  EXPECT_FALSE(f.has_update);
}

TEST(FootprintTest, JoinColumnsAndViewTables) {
  JoinEdge j;
  j.left_access = 0;
  j.right_access = 1;
  j.left_column = 2;
  j.right_column = 4;
  Query q = MakeJoin(7, {0}, 3, {1}, j);
  QueryFootprint f = ComputeFootprint(q);
  EXPECT_TRUE(f.has_joins);
  EXPECT_EQ(f.accesses[0].join_columns, (std::vector<ColumnId>{2}));
  EXPECT_EQ(f.accesses[1].join_columns, (std::vector<ColumnId>{4}));
  // view_tables mirrors ViewMatchCost: sorted, one entry per access.
  EXPECT_EQ(f.view_tables, (std::vector<TableId>{3, 7}));
  EXPECT_FALSE(f.join_signature.empty());
}

TEST(RelevanceTest, IndexRelevantToAccessRules) {
  const TableId t = 5;
  Query q = MakeSelect(t, {Pred(t, 0, PredOp::kEq)}, {0, 1});
  QueryFootprint f = ComputeFootprint(q);
  const AccessFootprint& a = f.accesses[0];

  Index wrong_table;
  wrong_table.table = t + 1;
  wrong_table.key_columns = {0};
  EXPECT_FALSE(IndexRelevantToAccess(a, wrong_table));

  Index seekable;
  seekable.table = t;
  seekable.key_columns = {0, 9};
  EXPECT_TRUE(IndexRelevantToAccess(a, seekable));

  // Lead key has no predicate and the index does not cover {0, 1}.
  Index useless;
  useless.table = t;
  useless.key_columns = {9};
  EXPECT_FALSE(IndexRelevantToAccess(a, useless));

  // Covering wins even without a seekable prefix.
  Index covering;
  covering.table = t;
  covering.key_columns = {9};
  covering.include_columns = {0, 1};
  EXPECT_TRUE(IndexRelevantToAccess(a, covering));
}

TEST(RelevanceTest, JoinColumnMakesIndexRelevant) {
  JoinEdge j;
  j.left_access = 0;
  j.right_access = 1;
  j.left_column = 3;
  j.right_column = 4;
  // Non-empty referenced columns so no index covers the access trivially.
  Query q = MakeJoin(1, {0}, 2, {0}, j);
  QueryFootprint f = ComputeFootprint(q);

  Index probe;  // index-nested-loop probe target on the right side
  probe.table = 2;
  probe.key_columns = {4};
  EXPECT_TRUE(IndexRelevant(f, probe));

  Index off_column;
  off_column.table = 2;
  off_column.key_columns = {5};
  EXPECT_FALSE(IndexRelevant(f, off_column));
}

TEST(RelevanceTest, UpdateTouchRules) {
  Query q = MakeDml(StatementKind::kUpdate, 6, {2}, 0.01);
  QueryFootprint f = ComputeFootprint(q);

  Index with_set_key;
  with_set_key.table = 6;
  with_set_key.key_columns = {2};
  EXPECT_TRUE(IndexTouchedByUpdate(f, with_set_key));

  Index with_set_include;
  with_set_include.table = 6;
  with_set_include.key_columns = {0};
  with_set_include.include_columns = {2};
  EXPECT_TRUE(IndexTouchedByUpdate(f, with_set_include));

  Index untouched;
  untouched.table = 6;
  untouched.key_columns = {0};
  EXPECT_FALSE(IndexTouchedByUpdate(f, untouched));

  Index other_table;
  other_table.table = 7;
  other_table.key_columns = {2};
  EXPECT_FALSE(IndexTouchedByUpdate(f, other_table));

  // INSERT and DELETE touch every index on the written table.
  q.update->kind = StatementKind::kInsert;
  f = ComputeFootprint(q);
  EXPECT_TRUE(IndexTouchedByUpdate(f, untouched));
  q.update->kind = StatementKind::kDelete;
  q.update->set_columns = {};
  f = ComputeFootprint(q);
  EXPECT_TRUE(IndexTouchedByUpdate(f, untouched));
}

MaterializedView MatchingViewFor(const Query& q) {
  const SelectSpec& spec = q.select;
  MaterializedView v;
  v.name = "m";
  for (const TableAccess& a : spec.accesses) v.tables.push_back(a.table);
  std::sort(v.tables.begin(), v.tables.end());
  std::vector<std::pair<ColumnRef, ColumnRef>> edges;
  for (const JoinEdge& j : spec.joins) {
    edges.push_back({{spec.accesses[j.left_access].table, j.left_column},
                     {spec.accesses[j.right_access].table, j.right_column}});
  }
  v.join_signature = MakeJoinSignature(edges);
  v.group_by.assign(spec.group_by.begin(), spec.group_by.end());
  for (const TableAccess& a : spec.accesses) {
    for (ColumnId c : a.referenced_columns) {
      v.exposed_columns.push_back({a.table, c});
    }
  }
  v.row_count = 1000;
  return v;
}

Query TwoTableJoinQuery() {
  JoinEdge j;
  j.left_access = 0;
  j.right_access = 1;
  j.left_column = 3;
  j.right_column = 4;
  return MakeJoin(1, {0, 3}, 2, {4}, j, {{1, 0}});
}

TEST(RelevanceTest, ViewSelectRelevantExactMatch) {
  Query q = TwoTableJoinQuery();
  QueryFootprint f = ComputeFootprint(q);
  MaterializedView v = MatchingViewFor(q);
  EXPECT_TRUE(ViewSelectRelevant(f, v));
}

TEST(RelevanceTest, ViewWrongJoinSignatureNotRelevant) {
  Query q = TwoTableJoinQuery();
  QueryFootprint f = ComputeFootprint(q);
  MaterializedView v = MatchingViewFor(q);
  // Same tables, different join columns.
  v.join_signature = MakeJoinSignature({{{1, 0}, {2, 4}}});
  EXPECT_FALSE(ViewSelectRelevant(f, v));
}

TEST(RelevanceTest, ViewMissingGroupColumnNotRelevant) {
  Query q = TwoTableJoinQuery();
  QueryFootprint f = ComputeFootprint(q);
  MaterializedView v = MatchingViewFor(q);
  v.group_by.clear();  // view granularity does not expose the group column
  EXPECT_FALSE(ViewSelectRelevant(f, v));
}

TEST(RelevanceTest, ViewMissingReferencedColumnNotRelevant) {
  Query q = TwoTableJoinQuery();
  QueryFootprint f = ComputeFootprint(q);
  MaterializedView v = MatchingViewFor(q);
  v.exposed_columns.pop_back();
  EXPECT_FALSE(ViewSelectRelevant(f, v));
}

TEST(RelevanceTest, ViewRelevantForMaintenanceUnderUpdate) {
  Query q = MakeDml(StatementKind::kInsert, 2, {}, 1e-6);
  QueryFootprint f = ComputeFootprint(q);

  MaterializedView on_table;
  on_table.tables = {1, 2};
  EXPECT_TRUE(ViewRelevant(f, on_table));
  MaterializedView elsewhere;
  elsewhere.tables = {3, 4};
  EXPECT_FALSE(ViewRelevant(f, elsewhere));
}

// RelevantStructurePositions must agree with the per-structure predicates
// applied exhaustively — over real generated workloads and enumerated
// configurations (TPC-D select-heavy, CRM with DML).
void CheckPositionsAgainstBruteForce(const Schema& schema,
                                     const Workload& wl) {
  WhatIfOptimizer opt(schema);
  Rng rng(11);
  EnumeratorOptions eopt;
  eopt.num_configs = 6;
  eopt.eval_sample_size = 60;
  std::vector<Configuration> configs =
      EnumerateConfigurations(opt, wl, eopt, &rng);
  ASSERT_FALSE(configs.empty());
  std::vector<QueryFootprint> fps = ComputeWorkloadFootprints(wl);
  std::vector<uint32_t> idx_pos, view_pos;
  for (QueryId q = 0; q < wl.size(); q += 7) {
    for (const Configuration& cfg : configs) {
      idx_pos.clear();
      view_pos.clear();
      RelevantStructurePositions(fps[q], cfg, &idx_pos, &view_pos);
      std::vector<uint32_t> want_idx, want_view;
      for (uint32_t i = 0; i < cfg.indexes().size(); ++i) {
        if (IndexRelevant(fps[q], cfg.indexes()[i])) want_idx.push_back(i);
      }
      for (uint32_t v = 0; v < cfg.views().size(); ++v) {
        if (ViewRelevant(fps[q], cfg.views()[v])) want_view.push_back(v);
      }
      EXPECT_EQ(idx_pos, want_idx) << "query " << q;
      EXPECT_EQ(view_pos, want_view) << "query " << q;
    }
  }
}

TEST(RelevanceTest, PositionsMatchBruteForceTpcd) {
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 350);
  CheckPositionsAgainstBruteForce(schema, wl);
}

TEST(RelevanceTest, PositionsMatchBruteForceCrm) {
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 350);
  CheckPositionsAgainstBruteForce(schema, wl);
}

// The soundness property the signature cache rests on: the optimizer's
// cost of (q, C) equals — bitwise — its cost of (q, relevant(q, C)).
// Any structure the predicates drop must be one the optimizer never
// examines; a single mismatch here would mean cache corruption.
void CheckCostPureInRelevantSubset(const Schema& schema, const Workload& wl) {
  WhatIfOptimizer opt(schema);
  Rng rng(13);
  EnumeratorOptions eopt;
  eopt.num_configs = 6;
  eopt.eval_sample_size = 60;
  std::vector<Configuration> configs =
      EnumerateConfigurations(opt, wl, eopt, &rng);
  std::vector<QueryFootprint> fps = ComputeWorkloadFootprints(wl);
  std::vector<uint32_t> idx_pos, view_pos;
  for (QueryId q = 0; q < wl.size(); q += 5) {
    for (const Configuration& cfg : configs) {
      idx_pos.clear();
      view_pos.clear();
      RelevantStructurePositions(fps[q], cfg, &idx_pos, &view_pos);
      Configuration sub("sub");
      for (uint32_t i : idx_pos) sub.AddIndex(cfg.indexes()[i]);
      for (uint32_t v : view_pos) sub.AddView(cfg.views()[v]);
      double full = opt.Cost(wl.query(q), cfg);
      double reduced = opt.Cost(wl.query(q), sub);
      EXPECT_EQ(full, reduced)
          << "query " << q << ": cost is not a pure function of the "
          << "relevant structures";
    }
  }
}

TEST(RelevanceTest, CostDependsOnlyOnRelevantStructuresTpcd) {
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 350);
  CheckCostPureInRelevantSubset(schema, wl);
}

TEST(RelevanceTest, CostDependsOnlyOnRelevantStructuresCrm) {
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 350);
  CheckCostPureInRelevantSubset(schema, wl);
}

}  // namespace
}  // namespace pdx
