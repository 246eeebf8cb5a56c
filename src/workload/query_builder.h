// Copyright (c) the pdexplore authors.
// Fluent helper for constructing Query IR from catalog statistics. Shared
// by the TPC-D and CRM workload generators and by tests.
#pragma once

#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/statistics.h"
#include "common/rng.h"
#include "workload/query.h"

namespace pdx {

/// Builds one Query at a time. Selectivities of sampled predicates come
/// from the referenced column's statistics, so repeated builds of the same
/// template produce the within-template selectivity spread QGEN-style
/// binding has.
///
/// The built query's views point into the builder's scratch, which is
/// reused: they stay valid until the next call on this builder, long
/// enough for Workload::AddQuery to copy them. A generator reuses one
/// builder for every query, so building allocates nothing per query once
/// the scratch has grown to the largest template.
class QueryBuilder {
 public:
  /// `dispersion` scales the width of every sampled-range window around its
  /// midpoint: 1.0 reproduces the template's nominal spread, values in
  /// (0, 1) concentrate parameter draws, values > 1 widen them (clamped to
  /// the column domain). Scenario generators use it as the
  /// parameter-dispersion knob.
  QueryBuilder(const Schema& schema, Rng* rng, double dispersion = 1.0)
      : schema_(schema), rng_(rng), dispersion_(dispersion) {
    PDX_CHECK(rng != nullptr);
    PDX_CHECK(dispersion > 0.0);
  }

  /// Adds a FROM-clause table; returns its access index.
  uint32_t AddAccess(TableId table);

  /// Column id by name on the table of access `a` (aborts if missing).
  ColumnId Col(uint32_t a, std::string_view name) const;

  /// Adds `col = ?` with the literal's frequency rank sampled from the
  /// column's value distribution (popular values are queried more often).
  void AddSampledEq(uint32_t a, ColumnId col);

  /// Adds `col = ?` with a fixed frequency rank.
  void AddEq(uint32_t a, ColumnId col, uint64_t value_rank);

  /// Adds a range predicate covering a domain fraction drawn uniformly
  /// from [lo_fraction, hi_fraction].
  void AddSampledRange(uint32_t a, ColumnId col, double lo_fraction,
                       double hi_fraction);

  /// Adds an unsargable filter (e.g. LIKE '%x%') with the given selectivity.
  void AddUnsargable(uint32_t a, ColumnId col, double selectivity);

  /// Adds an equi-join edge between two accesses.
  void AddJoin(uint32_t left, uint32_t right, ColumnId left_col,
               ColumnId right_col);

  void GroupBy(uint32_t a, ColumnId col);
  void OrderBy(uint32_t a, ColumnId col);
  void SetAggregates(uint32_t n) {
    Restart();
    num_aggregates_ = n;
  }

  /// Marks columns of access `a` as referenced by the query output.
  void Refer(uint32_t a, std::initializer_list<ColumnId> cols);

  /// Finalizes a SELECT query (referenced-column sets are deduplicated and
  /// join/predicate/grouping columns folded in automatically).
  Query BuildSelect(TemplateId template_id);

  /// Finalizes DML: kind is kInsert/kUpdate/kDelete; `selectivity` is the
  /// affected-row fraction (pass 0 to derive it from the WHERE clause).
  Query BuildDml(TemplateId template_id, StatementKind kind, TableId table,
                 std::span<const ColumnId> set_columns,
                 double selectivity = 0.0);
  Query BuildDml(TemplateId template_id, StatementKind kind, TableId table,
                 std::initializer_list<ColumnId> set_columns,
                 double selectivity = 0.0) {
    return BuildDml(template_id, kind, table,
                    std::span<const ColumnId>(set_columns.begin(),
                                              set_columns.size()),
                    selectivity);
  }

 private:
  /// One FROM-clause table while the query is being built: predicates may
  /// be added to any access, so each keeps its own lists.
  struct AccessScratch {
    TableId table = kInvalidTableId;
    std::vector<Predicate> predicates;
    std::vector<ColumnId> referenced_columns;
  };

  /// Clears the scratch once a built query has been handed out.
  void Restart();
  AccessScratch& Access(uint32_t a);
  void FoldReferencedColumns();
  /// Points `q`'s views at the scratch and marks the builder built.
  Query Finish(Query q);

  const Schema& schema_;
  Rng* rng_;
  double dispersion_ = 1.0;
  /// Scratch, reused across queries: accesses_[0, num_accesses_) are live.
  std::vector<AccessScratch> accesses_;
  size_t num_accesses_ = 0;
  std::vector<JoinEdge> joins_;
  std::vector<ColumnRef> group_by_;
  std::vector<ColumnRef> order_by_;
  std::vector<ColumnId> set_columns_;
  uint32_t num_aggregates_ = 0;
  /// The built query's access views.
  std::vector<TableAccess> built_accesses_;
  bool built_ = false;
};

}  // namespace pdx
