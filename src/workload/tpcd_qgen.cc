#include "workload/tpcd_qgen.h"

#include <functional>

#include "common/zipf.h"
#include "workload/query_builder.h"
#include "workload/sql_text.h"

namespace pdx {

namespace {

// Shorthand used throughout the builders below.
using QB = QueryBuilder;

}  // namespace

std::vector<TpcdTemplateSpec> TpcdTemplateBank(bool include_point_lookups) {
  std::vector<TpcdTemplateSpec> specs;

  // T01 (TPC-H Q1 flavour): pricing summary — big lineitem range scan with
  // grouping; always expensive, cost varies with the shipdate cutoff.
  specs.push_back({"pricing_summary", [](QB& b, TemplateId t) {
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledRange(li, b.Col(li, "l_shipdate"), 0.85, 1.0);
    b.GroupBy(li, b.Col(li, "l_returnflag"));
    b.GroupBy(li, b.Col(li, "l_linestatus"));
    b.Refer(li, {b.Col(li, "l_quantity"), b.Col(li, "l_extendedprice"),
                 b.Col(li, "l_discount"), b.Col(li, "l_tax")});
    b.SetAggregates(8);
    return b.BuildSelect(t);
  }});

  // T02 (Q6 flavour): forecasting revenue change — selective lineitem scan.
  specs.push_back({"revenue_forecast", [](QB& b, TemplateId t) {
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledRange(li, b.Col(li, "l_shipdate"), 0.10, 0.20);
    b.AddSampledEq(li, b.Col(li, "l_discount"));
    b.AddSampledRange(li, b.Col(li, "l_quantity"), 0.3, 0.6);
    b.Refer(li, {b.Col(li, "l_extendedprice")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T03 (Q3 flavour): shipping priority — customer x orders x lineitem.
  specs.push_back({"shipping_priority", [](QB& b, TemplateId t) {
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledEq(c, b.Col(c, "c_mktsegment"));
    b.AddSampledRange(o, b.Col(o, "o_orderdate"), 0.3, 0.6);
    b.AddJoin(c, o, b.Col(c, "c_custkey"), b.Col(o, "o_custkey"));
    b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
    b.GroupBy(li, b.Col(li, "l_orderkey"));
    b.OrderBy(o, b.Col(o, "o_orderdate"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T04 (Q4 flavour): order priority checking.
  specs.push_back({"order_priority", [](QB& b, TemplateId t) {
    uint32_t o = b.AddAccess(kOrders);
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledRange(o, b.Col(o, "o_orderdate"), 0.04, 0.08);
    b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
    b.GroupBy(o, b.Col(o, "o_orderpriority"));
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T05 (Q5 flavour): local supplier volume — 6-way join.
  specs.push_back({"local_supplier_volume", [](QB& b, TemplateId t) {
    uint32_t r = b.AddAccess(kRegion);
    uint32_t n = b.AddAccess(kNation);
    uint32_t su = b.AddAccess(kSupplier);
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledEq(r, b.Col(r, "r_name"));
    b.AddSampledRange(o, b.Col(o, "o_orderdate"), 0.15, 0.25);
    b.AddJoin(r, n, b.Col(r, "r_regionkey"), b.Col(n, "n_regionkey"));
    b.AddJoin(n, c, b.Col(n, "n_nationkey"), b.Col(c, "c_nationkey"));
    b.AddJoin(c, o, b.Col(c, "c_custkey"), b.Col(o, "o_custkey"));
    b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
    b.AddJoin(li, su, b.Col(li, "l_suppkey"), b.Col(su, "s_suppkey"));
    b.GroupBy(n, b.Col(n, "n_name"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T06 (Q10 flavour): returned item reporting.
  specs.push_back({"returned_items", [](QB& b, TemplateId t) {
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t n = b.AddAccess(kNation);
    b.AddSampledRange(o, b.Col(o, "o_orderdate"), 0.06, 0.10);
    b.AddSampledEq(li, b.Col(li, "l_returnflag"));
    b.AddJoin(c, o, b.Col(c, "c_custkey"), b.Col(o, "o_custkey"));
    b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
    b.AddJoin(c, n, b.Col(c, "c_nationkey"), b.Col(n, "n_nationkey"));
    b.GroupBy(c, b.Col(c, "c_custkey"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T07 (Q11 flavour): important stock identification.
  specs.push_back({"important_stock", [](QB& b, TemplateId t) {
    uint32_t ps = b.AddAccess(kPartsupp);
    uint32_t su = b.AddAccess(kSupplier);
    uint32_t n = b.AddAccess(kNation);
    b.AddSampledEq(n, b.Col(n, "n_name"));
    b.AddJoin(ps, su, b.Col(ps, "ps_suppkey"), b.Col(su, "s_suppkey"));
    b.AddJoin(su, n, b.Col(su, "s_nationkey"), b.Col(n, "n_nationkey"));
    b.GroupBy(ps, b.Col(ps, "ps_partkey"));
    b.Refer(ps, {b.Col(ps, "ps_supplycost"), b.Col(ps, "ps_availqty")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T08 (Q12 flavour): shipping modes and order priority.
  specs.push_back({"shipping_modes", [](QB& b, TemplateId t) {
    uint32_t o = b.AddAccess(kOrders);
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledEq(li, b.Col(li, "l_shipmode"));
    b.AddSampledRange(li, b.Col(li, "l_receiptdate"), 0.12, 0.20);
    b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
    b.GroupBy(li, b.Col(li, "l_shipmode"));
    b.Refer(o, {b.Col(o, "o_orderpriority")});
    b.SetAggregates(2);
    return b.BuildSelect(t);
  }});

  // T09 (Q14 flavour): promotion effect.
  specs.push_back({"promotion_effect", [](QB& b, TemplateId t) {
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t p = b.AddAccess(kPart);
    b.AddSampledRange(li, b.Col(li, "l_shipdate"), 0.025, 0.045);
    b.AddJoin(li, p, b.Col(li, "l_partkey"), b.Col(p, "p_partkey"));
    b.Refer(p, {b.Col(p, "p_type")});
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T10 (Q16 flavour): parts/supplier relationship.
  specs.push_back({"parts_supplier", [](QB& b, TemplateId t) {
    uint32_t p = b.AddAccess(kPart);
    uint32_t ps = b.AddAccess(kPartsupp);
    b.AddSampledEq(p, b.Col(p, "p_brand"));
    b.AddSampledEq(p, b.Col(p, "p_size"));
    b.AddJoin(p, ps, b.Col(p, "p_partkey"), b.Col(ps, "ps_partkey"));
    b.GroupBy(p, b.Col(p, "p_type"));
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T11 (Q17 flavour): small-quantity-order revenue.
  specs.push_back({"small_quantity_revenue", [](QB& b, TemplateId t) {
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t p = b.AddAccess(kPart);
    b.AddSampledEq(p, b.Col(p, "p_brand"));
    b.AddSampledEq(p, b.Col(p, "p_container"));
    b.AddSampledRange(li, b.Col(li, "l_quantity"), 0.02, 0.06);
    b.AddJoin(p, li, b.Col(p, "p_partkey"), b.Col(li, "l_partkey"));
    b.Refer(li, {b.Col(li, "l_extendedprice")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T12 (Q18 flavour): large-volume customers.
  specs.push_back({"large_volume_customers", [](QB& b, TemplateId t) {
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t li = b.AddAccess(kLineitem);
    b.AddSampledRange(o, b.Col(o, "o_totalprice"), 0.01, 0.03);
    b.AddJoin(c, o, b.Col(c, "c_custkey"), b.Col(o, "o_custkey"));
    b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
    b.GroupBy(c, b.Col(c, "c_name"));
    b.GroupBy(o, b.Col(o, "o_orderkey"));
    b.Refer(li, {b.Col(li, "l_quantity")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T13 (Q19 flavour): discounted revenue (part lookup with several eq
  // predicates and a quantity range).
  specs.push_back({"discounted_revenue", [](QB& b, TemplateId t) {
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t p = b.AddAccess(kPart);
    b.AddSampledEq(p, b.Col(p, "p_brand"));
    b.AddSampledEq(p, b.Col(p, "p_container"));
    b.AddSampledRange(li, b.Col(li, "l_quantity"), 0.1, 0.3);
    b.AddSampledEq(li, b.Col(li, "l_shipinstruct"));
    b.AddJoin(p, li, b.Col(p, "p_partkey"), b.Col(li, "l_partkey"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T14 (Q21 flavour): suppliers who kept orders waiting.
  specs.push_back({"waiting_suppliers", [](QB& b, TemplateId t) {
    uint32_t su = b.AddAccess(kSupplier);
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t n = b.AddAccess(kNation);
    b.AddSampledEq(n, b.Col(n, "n_name"));
    b.AddSampledEq(o, b.Col(o, "o_orderstatus"));
    b.AddJoin(su, li, b.Col(su, "s_suppkey"), b.Col(li, "l_suppkey"));
    b.AddJoin(li, o, b.Col(li, "l_orderkey"), b.Col(o, "o_orderkey"));
    b.AddJoin(su, n, b.Col(su, "s_nationkey"), b.Col(n, "n_nationkey"));
    b.GroupBy(su, b.Col(su, "s_name"));
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T15 (Q2 flavour): minimum-cost supplier.
  specs.push_back({"min_cost_supplier", [](QB& b, TemplateId t) {
    uint32_t p = b.AddAccess(kPart);
    uint32_t ps = b.AddAccess(kPartsupp);
    uint32_t su = b.AddAccess(kSupplier);
    uint32_t n = b.AddAccess(kNation);
    uint32_t r = b.AddAccess(kRegion);
    b.AddSampledEq(p, b.Col(p, "p_size"));
    b.AddSampledEq(p, b.Col(p, "p_type"));
    b.AddSampledEq(r, b.Col(r, "r_name"));
    b.AddJoin(p, ps, b.Col(p, "p_partkey"), b.Col(ps, "ps_partkey"));
    b.AddJoin(ps, su, b.Col(ps, "ps_suppkey"), b.Col(su, "s_suppkey"));
    b.AddJoin(su, n, b.Col(su, "s_nationkey"), b.Col(n, "n_nationkey"));
    b.AddJoin(n, r, b.Col(n, "n_regionkey"), b.Col(r, "r_regionkey"));
    b.OrderBy(su, b.Col(su, "s_acctbal"));
    b.Refer(su, {b.Col(su, "s_name")});
    b.Refer(ps, {b.Col(ps, "ps_supplycost")});
    return b.BuildSelect(t);
  }});

  // T16 (Q9 flavour): product-type profit measure — 5-way join over the
  // biggest tables; the most expensive template.
  specs.push_back({"product_profit", [](QB& b, TemplateId t) {
    uint32_t p = b.AddAccess(kPart);
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t ps = b.AddAccess(kPartsupp);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t su = b.AddAccess(kSupplier);
    b.AddUnsargable(p, b.Col(p, "p_name"), 0.05);
    b.AddJoin(p, li, b.Col(p, "p_partkey"), b.Col(li, "l_partkey"));
    b.AddJoin(li, ps, b.Col(li, "l_partkey"), b.Col(ps, "ps_partkey"));
    b.AddJoin(li, o, b.Col(li, "l_orderkey"), b.Col(o, "o_orderkey"));
    b.AddJoin(li, su, b.Col(li, "l_suppkey"), b.Col(su, "s_suppkey"));
    b.GroupBy(o, b.Col(o, "o_orderdate"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.Refer(ps, {b.Col(ps, "ps_supplycost")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T17 (Q13 flavour): customer order distribution.
  specs.push_back({"customer_distribution", [](QB& b, TemplateId t) {
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t o = b.AddAccess(kOrders);
    b.AddSampledEq(o, b.Col(o, "o_orderpriority"));
    b.AddJoin(c, o, b.Col(c, "c_custkey"), b.Col(o, "o_custkey"));
    b.GroupBy(c, b.Col(c, "c_custkey"));
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T18 (Q15 flavour): top supplier by revenue over a date slice.
  specs.push_back({"top_supplier", [](QB& b, TemplateId t) {
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t su = b.AddAccess(kSupplier);
    b.AddSampledRange(li, b.Col(li, "l_shipdate"), 0.06, 0.09);
    b.AddJoin(li, su, b.Col(li, "l_suppkey"), b.Col(su, "s_suppkey"));
    b.GroupBy(su, b.Col(su, "s_suppkey"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T19 (Q20 flavour): potential part promotion.
  specs.push_back({"part_promotion", [](QB& b, TemplateId t) {
    uint32_t su = b.AddAccess(kSupplier);
    uint32_t n = b.AddAccess(kNation);
    uint32_t ps = b.AddAccess(kPartsupp);
    uint32_t p = b.AddAccess(kPart);
    b.AddSampledEq(n, b.Col(n, "n_name"));
    b.AddUnsargable(p, b.Col(p, "p_name"), 0.01);
    b.AddJoin(su, n, b.Col(su, "s_nationkey"), b.Col(n, "n_nationkey"));
    b.AddJoin(su, ps, b.Col(su, "s_suppkey"), b.Col(ps, "ps_suppkey"));
    b.AddJoin(ps, p, b.Col(ps, "ps_partkey"), b.Col(p, "p_partkey"));
    b.Refer(su, {b.Col(su, "s_name"), b.Col(su, "s_address")});
    return b.BuildSelect(t);
  }});

  // T20 (Q22 flavour): global sales opportunity — customer scan with an
  // unsargable phone-prefix filter.
  specs.push_back({"sales_opportunity", [](QB& b, TemplateId t) {
    uint32_t c = b.AddAccess(kCustomer);
    b.AddUnsargable(c, b.Col(c, "c_phone"), 0.08);
    b.AddSampledRange(c, b.Col(c, "c_acctbal"), 0.4, 0.6);
    b.GroupBy(c, b.Col(c, "c_mktsegment"));
    b.SetAggregates(2);
    return b.BuildSelect(t);
  }});

  // T21 (Q7 flavour): volume shipping between two nations.
  specs.push_back({"volume_shipping", [](QB& b, TemplateId t) {
    uint32_t su = b.AddAccess(kSupplier);
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t n = b.AddAccess(kNation);
    b.AddSampledEq(n, b.Col(n, "n_name"));
    b.AddSampledRange(li, b.Col(li, "l_shipdate"), 0.25, 0.35);
    b.AddJoin(su, li, b.Col(su, "s_suppkey"), b.Col(li, "l_suppkey"));
    b.AddJoin(li, o, b.Col(li, "l_orderkey"), b.Col(o, "o_orderkey"));
    b.AddJoin(o, c, b.Col(o, "o_custkey"), b.Col(c, "c_custkey"));
    b.AddJoin(su, n, b.Col(su, "s_nationkey"), b.Col(n, "n_nationkey"));
    b.GroupBy(n, b.Col(n, "n_name"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  // T22 (Q8 flavour): national market share.
  specs.push_back({"market_share", [](QB& b, TemplateId t) {
    uint32_t p = b.AddAccess(kPart);
    uint32_t li = b.AddAccess(kLineitem);
    uint32_t o = b.AddAccess(kOrders);
    uint32_t c = b.AddAccess(kCustomer);
    uint32_t n = b.AddAccess(kNation);
    uint32_t r = b.AddAccess(kRegion);
    b.AddSampledEq(p, b.Col(p, "p_type"));
    b.AddSampledEq(r, b.Col(r, "r_name"));
    b.AddSampledRange(o, b.Col(o, "o_orderdate"), 0.3, 0.4);
    b.AddJoin(p, li, b.Col(p, "p_partkey"), b.Col(li, "l_partkey"));
    b.AddJoin(li, o, b.Col(li, "l_orderkey"), b.Col(o, "o_orderkey"));
    b.AddJoin(o, c, b.Col(o, "o_custkey"), b.Col(c, "c_custkey"));
    b.AddJoin(c, n, b.Col(c, "c_nationkey"), b.Col(n, "n_nationkey"));
    b.AddJoin(n, r, b.Col(n, "n_regionkey"), b.Col(r, "r_regionkey"));
    b.GroupBy(o, b.Col(o, "o_orderdate"));
    b.Refer(li, {b.Col(li, "l_extendedprice"), b.Col(li, "l_discount")});
    b.SetAggregates(1);
    return b.BuildSelect(t);
  }});

  if (include_point_lookups) {
    // T23: single-value customer lookup — the "single-value lookups" the
    // paper contrasts against multi-join queries in §4.2.
    specs.push_back({"customer_lookup", [](QB& b, TemplateId t) {
      uint32_t c = b.AddAccess(kCustomer);
      b.AddSampledEq(c, b.Col(c, "c_custkey"));
      b.Refer(c, {b.Col(c, "c_name"), b.Col(c, "c_acctbal"),
                  b.Col(c, "c_address")});
      return b.BuildSelect(t);
    }});

    // T24: order lookup with its lineitems (cheap 2-way keyed join).
    specs.push_back({"order_lookup", [](QB& b, TemplateId t) {
      uint32_t o = b.AddAccess(kOrders);
      uint32_t li = b.AddAccess(kLineitem);
      b.AddSampledEq(o, b.Col(o, "o_orderkey"));
      b.AddJoin(o, li, b.Col(o, "o_orderkey"), b.Col(li, "l_orderkey"));
      b.Refer(li, {b.Col(li, "l_quantity"), b.Col(li, "l_extendedprice")});
      return b.BuildSelect(t);
    }});
  }

  return specs;
}

std::vector<TpcdTemplateSpec> TpcdDmlTemplateBank() {
  std::vector<TpcdTemplateSpec> specs;

  // D01: order entry — single-row INSERT into orders.
  specs.push_back({"insert_order", [](QB& b, TemplateId t) {
    return b.BuildDml(t, StatementKind::kInsert, kOrders,
                      {0, 1, 2, 3, 4, 5, 6, 7});
  }, StatementKind::kInsert});

  // D02: line-item entry — single-row INSERT into lineitem.
  specs.push_back({"insert_lineitem", [](QB& b, TemplateId t) {
    return b.BuildDml(t, StatementKind::kInsert, kLineitem,
                      {0, 1, 2, 3, 4, 5, 6, 7});
  }, StatementKind::kInsert});

  // D03: stock movement — UPDATE partsupp availability for one part.
  specs.push_back({"update_stock", [](QB& b, TemplateId t) {
    uint32_t ps = b.AddAccess(kPartsupp);
    b.AddSampledEq(ps, b.Col(ps, "ps_partkey"));
    return b.BuildDml(t, StatementKind::kUpdate, kPartsupp,
                      {b.Col(ps, "ps_availqty")});
  }, StatementKind::kUpdate});

  // D04: payment posting — UPDATE one customer's balance.
  specs.push_back({"update_balance", [](QB& b, TemplateId t) {
    uint32_t c = b.AddAccess(kCustomer);
    b.AddSampledEq(c, b.Col(c, "c_custkey"));
    return b.BuildDml(t, StatementKind::kUpdate, kCustomer,
                      {b.Col(c, "c_acctbal")});
  }, StatementKind::kUpdate});

  // D05: order purge — DELETE an old order-date slice.
  specs.push_back({"purge_orders", [](QB& b, TemplateId t) {
    uint32_t o = b.AddAccess(kOrders);
    b.AddSampledRange(o, b.Col(o, "o_orderdate"), 0.005, 0.02);
    return b.BuildDml(t, StatementKind::kDelete, kOrders, {});
  }, StatementKind::kDelete});

  return specs;
}

Workload GenerateTpcdWorkload(const Schema& schema,
                              const TpcdWorkloadOptions& options) {
  PDX_CHECK(schema.name() == "tpcd");
  PDX_CHECK(options.num_queries > 0);
  Rng rng(options.seed);
  Workload wl(&schema);

  std::vector<TpcdTemplateSpec> specs =
      TpcdTemplateBank(options.include_point_lookups);

  // Register templates; table list and signature come from a probe instance.
  for (size_t i = 0; i < specs.size(); ++i) {
    Rng probe_rng(options.seed ^ 0xABCDEF);
    QB probe_builder(schema, &probe_rng);
    Query probe = specs[i].build(probe_builder, static_cast<TemplateId>(i));
    QueryTemplate tmpl;
    tmpl.name = specs[i].name;
    tmpl.kind = StatementKind::kSelect;
    for (const TableAccess& a : probe.select.accesses) {
      tmpl.tables.push_back(a.table);
    }
    tmpl.signature = SqlTemplateSignature(RenderSql(schema, probe));
    TemplateId tid = wl.AddTemplate(std::move(tmpl));
    PDX_CHECK(tid == static_cast<TemplateId>(i));
  }

  // Instantiate queries. QGEN spreads instances evenly across templates;
  // template_skew > 0 switches to Zipf-weighted template popularity.
  std::optional<ZipfDistribution> skewed;
  if (options.template_skew > 0.0) {
    skewed.emplace(specs.size(), options.template_skew);
  }
  wl.Reserve(options.num_queries);
  QB b(schema, &rng);
  for (uint32_t i = 0; i < options.num_queries; ++i) {
    size_t ti = skewed ? skewed->Sample(&rng) : (i % specs.size());
    wl.AddQuery(specs[ti].build(b, static_cast<TemplateId>(ti)));
  }

  PDX_CHECK(wl.Validate().ok());
  return wl;
}

}  // namespace pdx
