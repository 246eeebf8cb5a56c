#include "workload/workload.h"

#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace pdx {
namespace {

using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

TEST(WorkloadTest, TpcdGenerationBasics) {
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 480);
  EXPECT_EQ(wl.size(), 480u);
  EXPECT_EQ(wl.num_templates(), 24u);  // 22 join templates + 2 lookups
  EXPECT_TRUE(wl.Validate().ok());
  EXPECT_DOUBLE_EQ(wl.DmlFraction(), 0.0);  // QGEN produces SELECTs
}

TEST(WorkloadTest, TpcdTemplatesEvenlySpread) {
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 480);
  for (TemplateId t = 0; t < wl.num_templates(); ++t) {
    EXPECT_EQ(wl.QueriesOfTemplate(t).size(), 480u / 24u) << "template " << t;
  }
}

TEST(WorkloadTest, TpcdDeterministicForSeed) {
  Schema schema = SmallTpcdSchema();
  Workload a = SmallTpcdWorkload(schema, 100, 5);
  Workload b = SmallTpcdWorkload(schema, 100, 5);
  ASSERT_EQ(a.size(), b.size());
  for (QueryId q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a.query(q).template_id, b.query(q).template_id);
    ASSERT_EQ(a.query(q).select.accesses.size(),
              b.query(q).select.accesses.size());
    for (size_t acc = 0; acc < a.query(q).select.accesses.size(); ++acc) {
      const auto& pa = a.query(q).select.accesses[acc].predicates;
      const auto& pb = b.query(q).select.accesses[acc].predicates;
      ASSERT_EQ(pa.size(), pb.size());
      for (size_t p = 0; p < pa.size(); ++p) {
        EXPECT_DOUBLE_EQ(pa[p].selectivity, pb[p].selectivity);
      }
    }
  }
}

TEST(WorkloadTest, TpcdSelectivitiesVaryWithinTemplate) {
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 480);
  // Instances of a template with sampled predicates must not all share
  // identical selectivities (QGEN binds fresh parameters per instance).
  size_t varying_templates = 0;
  for (TemplateId t = 0; t < wl.num_templates(); ++t) {
    std::set<double> sels;
    for (QueryId q : wl.QueriesOfTemplate(t)) {
      double s = 1.0;
      for (const auto& a : wl.query(q).select.accesses) {
        s *= a.CombinedSelectivity();
      }
      sels.insert(s);
    }
    if (sels.size() > 1) ++varying_templates;
  }
  // Templates whose only parameters bind uniform key columns (point
  // lookups) or constant-selectivity filters legitimately do not vary.
  EXPECT_GE(varying_templates, wl.num_templates() * 2 / 3);
}

TEST(WorkloadTest, TpcdJoinEdgesConnectedInOrder) {
  // The optimizer composes join edges left-deep in order; every edge must
  // touch the already-joined prefix.
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 240);
  for (const Query& q : wl.queries()) {
    if (q.select.joins.empty()) continue;
    std::set<uint32_t> joined = {q.select.joins[0].left_access};
    for (const JoinEdge& e : q.select.joins) {
      EXPECT_TRUE(joined.count(e.left_access) || joined.count(e.right_access));
      joined.insert(e.left_access);
      joined.insert(e.right_access);
    }
    EXPECT_EQ(joined.size(), q.select.accesses.size());
  }
}

TEST(WorkloadTest, TemplateSkewOption) {
  Schema schema = SmallTpcdSchema();
  TpcdWorkloadOptions opt;
  opt.num_queries = 2000;
  opt.template_skew = 1.0;
  Workload wl = GenerateTpcdWorkload(schema, opt);
  // Template 0 should be far more popular than the tail template.
  EXPECT_GT(wl.QueriesOfTemplate(0).size(),
            3 * wl.QueriesOfTemplate(wl.num_templates() - 1).size());
}

TEST(WorkloadTest, CrmTraceBasics) {
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 600);
  EXPECT_EQ(wl.size(), 600u);
  EXPECT_EQ(wl.num_templates(), 40u);
  EXPECT_TRUE(wl.Validate().ok());
  // "queries, inserts, updates and deletes".
  EXPECT_GT(wl.DmlFraction(), 0.05);
  EXPECT_LT(wl.DmlFraction(), 0.8);
}

TEST(WorkloadTest, CrmTraceFullScaleShape) {
  // Paper scale: ~6K statements, > 120 templates.
  Schema schema = SmallCrmSchema();
  CrmTraceOptions opt;
  opt.num_statements = 6000;
  opt.num_templates = 130;
  Workload wl = GenerateCrmTrace(schema, opt);
  EXPECT_EQ(wl.size(), 6000u);
  EXPECT_EQ(wl.num_templates(), 130u);
  bool has_insert = false, has_update = false, has_delete = false;
  for (const Query& q : wl.queries()) {
    has_insert |= q.kind == StatementKind::kInsert;
    has_update |= q.kind == StatementKind::kUpdate;
    has_delete |= q.kind == StatementKind::kDelete;
  }
  EXPECT_TRUE(has_insert);
  EXPECT_TRUE(has_update);
  EXPECT_TRUE(has_delete);
}

TEST(WorkloadTest, CrmDmlQueriesHaveUpdateSpecs) {
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 400);
  for (const Query& q : wl.queries()) {
    if (q.IsDml()) {
      ASSERT_TRUE(q.update.has_value());
      EXPECT_GT(q.update->selectivity, 0.0);
      EXPECT_LE(q.update->selectivity, 1.0);
    } else {
      EXPECT_FALSE(q.update.has_value());
    }
  }
}

TEST(WorkloadTest, AddQueryChecksTemplateRegistered) {
  Schema schema = SmallTpcdSchema();
  Workload wl(&schema);
  Query q;
  q.template_id = 3;  // not registered
  EXPECT_DEATH({ wl.AddQuery(std::move(q)); }, "PDX_CHECK");
}

TEST(WorkloadTest, ValidateRejectsBadSelectivity) {
  Schema schema = SmallTpcdSchema();
  Workload wl(&schema);
  QueryTemplate tmpl;
  tmpl.name = "t";
  wl.AddTemplate(std::move(tmpl));
  QueryStore store;
  store.AddAccess(kCustomer, {});
  Predicate p;
  p.column = {static_cast<TableId>(kCustomer), 0};
  p.selectivity = 0.0;  // invalid
  store.AddPredicate(p);
  Query q;
  q.template_id = 0;
  wl.AddQuery(store.Finish(q));
  EXPECT_FALSE(wl.Validate().ok());
}

/// A workload of one query: one access per table in `tables`, each
/// referencing column 0, joined by `joins` in order.
Workload OneQueryWorkload(const Schema* schema,
                          const std::vector<TableId>& tables,
                          const std::vector<JoinEdge>& joins) {
  Workload wl(schema);
  QueryTemplate tmpl;
  tmpl.name = "t";
  wl.AddTemplate(std::move(tmpl));
  QueryStore store;
  const ColumnId first_column[] = {0};
  for (TableId t : tables) store.AddAccess(t, first_column);
  for (const JoinEdge& j : joins) store.AddJoin(j);
  Query q;
  q.template_id = 0;
  wl.AddQuery(store.Finish(q));
  return wl;
}

/// Four single-column accesses (customer, orders, lineitem, part) with the
/// given join edges, all on column 0.
Workload FourAccessWorkload(const Schema* schema,
                            std::vector<std::pair<uint32_t, uint32_t>> edges) {
  std::vector<JoinEdge> joins;
  for (auto [l, r] : edges) joins.push_back(JoinEdge{l, r, 0, 0});
  return OneQueryWorkload(
      schema, {kCustomer, kOrders, kLineitem, kPart}, joins);
}

TEST(WorkloadTest, ValidateRejectsDisconnectedJoinOrder) {
  // Joins (0,1),(2,3): the second edge touches no table of the joined
  // prefix {0,1}. Pricing it used to abort the process; it is now an
  // InvalidArgument at validation time.
  Schema schema = SmallTpcdSchema();
  Workload wl = FourAccessWorkload(&schema, {{0, 1}, {2, 3}});
  Status st = wl.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("disconnected"), std::string::npos)
      << st.ToString();
}

TEST(WorkloadTest, ValidateAcceptsConnectedJoinOrders) {
  Schema schema = SmallTpcdSchema();
  // A chain, a star whose edges name the prefix on either side, and a
  // redundant edge inside the prefix are all connected orders.
  for (const auto& edges :
       std::vector<std::vector<std::pair<uint32_t, uint32_t>>>{
           {{0, 1}, {1, 2}, {2, 3}},
           {{1, 0}, {2, 1}, {1, 3}},
           {{0, 1}, {1, 0}, {3, 1}, {2, 3}}}) {
    Workload wl = FourAccessWorkload(&schema, edges);
    EXPECT_TRUE(wl.Validate().ok()) << wl.Validate().ToString();
  }
}

TEST(WorkloadTest, ValidateRejectsBadJoinColumnsAndTooManyAccesses) {
  Schema schema = SmallTpcdSchema();
  Status st = OneQueryWorkload(&schema,
                               {kCustomer, kOrders, kLineitem, kPart},
                               {JoinEdge{0, 1, 0, 999}})
                  .Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("join column"), std::string::npos);

  st = OneQueryWorkload(
           &schema,
           std::vector<TableId>(SelectSpec::kMaxAccesses + 1, kCustomer), {})
           .Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("too many"), std::string::npos);
}

}  // namespace
}  // namespace pdx
