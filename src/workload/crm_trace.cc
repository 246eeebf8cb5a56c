#include "workload/crm_trace.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/string_util.h"
#include "common/zipf.h"
#include "workload/query_builder.h"
#include "workload/sql_text.h"

namespace pdx {

namespace {

// Columns of a table bucketed by archetype (see crm_schema.cc naming).
struct TableShape {
  TableId table;
  ColumnId id_column = kInvalidColumnId;
  std::vector<ColumnId> fk_columns;
  std::vector<ColumnId> status_columns;
  std::vector<ColumnId> date_columns;
  std::vector<ColumnId> amount_columns;
  std::vector<ColumnId> text_columns;
};

TableShape ShapeOf(const Schema& schema, TableId tid) {
  TableShape shape;
  shape.table = tid;
  const Table& t = schema.table(tid);
  for (size_t c = 0; c < t.columns.size(); ++c) {
    const std::string& name = t.columns[c].name;
    ColumnId cid = static_cast<ColumnId>(c);
    if (name.ends_with("_id") && c == 0) {
      shape.id_column = cid;
    } else if (name.ends_with("_fk")) {
      shape.fk_columns.push_back(cid);
    } else if (name.ends_with("_st")) {
      shape.status_columns.push_back(cid);
    } else if (name.ends_with("_dt")) {
      shape.date_columns.push_back(cid);
    } else if (name.ends_with("_amt")) {
      shape.amount_columns.push_back(cid);
    } else {
      shape.text_columns.push_back(cid);
    }
  }
  return shape;
}

// A synthesized template: statement kind plus an instantiation function.
struct CrmTemplate {
  std::string name;
  StatementKind kind;
  std::vector<TableId> tables;
  std::function<Query(QueryBuilder&, TemplateId)> build;
};

// Picks a column id or falls back to the row-id column.
ColumnId PickOr(const std::vector<ColumnId>& cols, Rng* rng, ColumnId fallback) {
  if (cols.empty()) return fallback;
  return cols[rng->NextBounded(cols.size())];
}

}  // namespace

Workload GenerateCrmTrace(const Schema& schema, const CrmTraceOptions& options) {
  PDX_CHECK(schema.name() == "crm");
  PDX_CHECK(options.num_templates >= 8);
  PDX_CHECK(options.num_statements > 0);

  Rng gen_rng(options.seed);
  Workload wl(&schema);

  // Hot tables (the schema builder sorts tables by size, so low ids are
  // the large transactional tables) get most of the templates; reference
  // tables appear mostly as join partners.
  std::vector<TableShape> shapes;
  shapes.reserve(schema.num_tables());
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    shapes.push_back(ShapeOf(schema, t));
  }
  const size_t num_hot = std::max<size_t>(8, schema.num_tables() / 8);

  std::vector<CrmTemplate> templates;
  templates.reserve(options.num_templates);
  const uint32_t num_dml = static_cast<uint32_t>(
      options.dml_template_fraction * static_cast<double>(options.num_templates));

  auto hot_shape = [&](Rng* rng) -> const TableShape& {
    // Bias toward the hottest tables.
    size_t idx = static_cast<size_t>(rng->NextBounded(num_hot));
    if (rng->NextBernoulli(0.5)) idx = idx / 2;
    return shapes[idx];
  };

  // --- SELECT templates -------------------------------------------------
  const uint32_t num_select = options.num_templates - num_dml;
  for (uint32_t i = 0; i < num_select; ++i) {
    const TableShape& hs = hot_shape(&gen_rng);
    switch (gen_rng.NextBounded(4)) {
      case 0: {
        // Point lookup by primary id.
        TableId tab = hs.table;
        ColumnId id_col = hs.id_column;
        templates.push_back(
            {StringFormat("sel_point_%u", i), StatementKind::kSelect,
             {tab},
             [&s = schema, tab, id_col](QueryBuilder& b, TemplateId t) {
               uint32_t a = b.AddAccess(tab);
               b.AddSampledEq(a, id_col);
               const Table& tbl = s.table(tab);
               for (size_t c = 0; c < std::min<size_t>(4, tbl.columns.size()); ++c) {
                 b.Refer(a, {static_cast<ColumnId>(c)});
               }
               return b.BuildSelect(t);
             }});
        break;
      }
      case 1: {
        // Secondary lookup: status/fk equality + optional date range.
        TableId tab = hs.table;
        ColumnId eq_col = PickOr(hs.status_columns, &gen_rng,
                                 PickOr(hs.fk_columns, &gen_rng, hs.id_column));
        std::optional<ColumnId> range_col;
        if (!hs.date_columns.empty() && gen_rng.NextBernoulli(0.6)) {
          range_col = hs.date_columns[gen_rng.NextBounded(hs.date_columns.size())];
        }
        templates.push_back(
            {StringFormat("sel_filter_%u", i), StatementKind::kSelect,
             {tab},
             [tab, eq_col, range_col](QueryBuilder& b, TemplateId t) {
               uint32_t a = b.AddAccess(tab);
               b.AddSampledEq(a, eq_col);
               if (range_col) b.AddSampledRange(a, *range_col, 0.05, 0.4);
               b.Refer(a, {eq_col});
               return b.BuildSelect(t);
             }});
        break;
      }
      case 2: {
        // Two-way join: hot table fk -> smaller table id.
        TableId left = hs.table;
        ColumnId fk = PickOr(hs.fk_columns, &gen_rng, hs.id_column);
        // Join partner: a smaller table (higher id = smaller).
        size_t partner_idx = num_hot + gen_rng.NextBounded(shapes.size() - num_hot);
        const TableShape& ps = shapes[partner_idx];
        TableId right = ps.table;
        ColumnId right_id = ps.id_column;
        ColumnId filter = PickOr(hs.status_columns, &gen_rng, fk);
        templates.push_back(
            {StringFormat("sel_join2_%u", i), StatementKind::kSelect,
             {left, right},
             [left, right, fk, right_id, filter](QueryBuilder& b,
                                                 TemplateId t) {
               uint32_t a0 = b.AddAccess(left);
               uint32_t a1 = b.AddAccess(right);
               b.AddSampledEq(a0, filter);
               b.AddJoin(a0, a1, fk, right_id);
               b.Refer(a1, {right_id});
               return b.BuildSelect(t);
             }});
        break;
      }
      default: {
        // Reporting aggregate: date-range scan with group-by, sometimes a
        // second join level.
        TableId tab = hs.table;
        ColumnId date_col = PickOr(hs.date_columns, &gen_rng, hs.id_column);
        ColumnId group_col = PickOr(hs.status_columns, &gen_rng,
                                    PickOr(hs.fk_columns, &gen_rng, hs.id_column));
        ColumnId agg_col = PickOr(hs.amount_columns, &gen_rng, hs.id_column);
        templates.push_back(
            {StringFormat("sel_report_%u", i), StatementKind::kSelect,
             {tab},
             [tab, date_col, group_col, agg_col](QueryBuilder& b,
                                                 TemplateId t) {
               uint32_t a = b.AddAccess(tab);
               b.AddSampledRange(a, date_col, 0.1, 0.5);
               b.GroupBy(a, group_col);
               b.Refer(a, {agg_col});
               b.SetAggregates(2);
               return b.BuildSelect(t);
             }});
        break;
      }
    }
  }

  // --- DML templates ------------------------------------------------------
  for (uint32_t i = 0; i < num_dml; ++i) {
    const TableShape& hs = hot_shape(&gen_rng);
    TableId tab = hs.table;
    const Table& tbl = schema.table(tab);
    switch (gen_rng.NextBounded(3)) {
      case 0: {
        // Single-row INSERT.
        std::vector<ColumnId> cols;
        for (size_t c = 0; c < tbl.columns.size(); ++c) {
          cols.push_back(static_cast<ColumnId>(c));
        }
        templates.push_back(
            {StringFormat("ins_%u", i), StatementKind::kInsert,
             {tab},
             [tab, cols](QueryBuilder& b, TemplateId t) {
               return b.BuildDml(t, StatementKind::kInsert, tab, cols);
             }});
        break;
      }
      case 1: {
        // UPDATE by id or by status; selectivity varies with the bound value.
        ColumnId where_col = gen_rng.NextBernoulli(0.5)
                                 ? hs.id_column
                                 : PickOr(hs.status_columns, &gen_rng, hs.id_column);
        std::vector<ColumnId> set_cols;
        set_cols.push_back(PickOr(hs.amount_columns, &gen_rng,
                                  PickOr(hs.status_columns, &gen_rng, hs.id_column)));
        templates.push_back(
            {StringFormat("upd_%u", i), StatementKind::kUpdate,
             {tab},
             [tab, where_col, set_cols](QueryBuilder& b, TemplateId t) {
               uint32_t a = b.AddAccess(tab);
               b.AddSampledEq(a, where_col);
               return b.BuildDml(t, StatementKind::kUpdate, tab, set_cols);
             }});
        break;
      }
      default: {
        // DELETE by date-range (purge) or by id.
        std::optional<ColumnId> date_col;
        if (!hs.date_columns.empty()) {
          date_col = hs.date_columns[gen_rng.NextBounded(hs.date_columns.size())];
        }
        ColumnId id_col = hs.id_column;
        templates.push_back(
            {StringFormat("del_%u", i), StatementKind::kDelete,
             {tab},
             [tab, date_col, id_col](QueryBuilder& b, TemplateId t) {
               uint32_t a = b.AddAccess(tab);
               if (date_col) {
                 b.AddSampledRange(a, *date_col, 0.005, 0.05);
               } else {
                 b.AddSampledEq(a, id_col);
               }
               return b.BuildDml(t, StatementKind::kDelete, tab, {});
             }});
        break;
      }
    }
  }

  // Register all templates.
  for (size_t i = 0; i < templates.size(); ++i) {
    Rng probe_rng(options.seed ^ (0xFEED0000ULL + i));
    QueryBuilder probe_builder(schema, &probe_rng);
    Query probe = templates[i].build(probe_builder, static_cast<TemplateId>(i));
    QueryTemplate tmpl;
    tmpl.name = templates[i].name;
    tmpl.kind = templates[i].kind;
    tmpl.tables = templates[i].tables;
    tmpl.signature = SqlTemplateSignature(RenderSql(schema, probe));
    TemplateId tid = wl.AddTemplate(std::move(tmpl));
    PDX_CHECK(tid == static_cast<TemplateId>(i));
  }

  // Emit the trace with Zipf-skewed template popularity, shuffled so the
  // trace interleaves templates like a live capture.
  ZipfDistribution popularity(templates.size(), options.template_skew);
  std::vector<uint32_t> order(options.num_statements);
  for (uint32_t i = 0; i < options.num_statements; ++i) {
    order[i] = static_cast<uint32_t>(popularity.Sample(&gen_rng));
  }
  gen_rng.Shuffle(&order);
  wl.Reserve(order.size());
  QueryBuilder b(schema, &gen_rng);
  for (uint32_t ti : order) {
    wl.AddQuery(templates[ti].build(b, static_cast<TemplateId>(ti)));
  }

  PDX_CHECK(wl.Validate().ok());
  return wl;
}

}  // namespace pdx
