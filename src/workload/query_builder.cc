#include "workload/query_builder.h"

#include <algorithm>

namespace pdx {

void QueryBuilder::Restart() {
  if (!built_) return;
  built_ = false;
  for (size_t i = 0; i < num_accesses_; ++i) {
    accesses_[i].predicates.clear();
    accesses_[i].referenced_columns.clear();
  }
  num_accesses_ = 0;
  joins_.clear();
  group_by_.clear();
  order_by_.clear();
  set_columns_.clear();
  num_aggregates_ = 0;
}

QueryBuilder::AccessScratch& QueryBuilder::Access(uint32_t a) {
  Restart();
  PDX_CHECK(a < num_accesses_);
  return accesses_[a];
}

uint32_t QueryBuilder::AddAccess(TableId table) {
  Restart();
  PDX_CHECK(table < schema_.num_tables());
  if (num_accesses_ == accesses_.size()) accesses_.emplace_back();
  accesses_[num_accesses_].table = table;
  return static_cast<uint32_t>(num_accesses_++);
}

ColumnId QueryBuilder::Col(uint32_t a, std::string_view name) const {
  PDX_CHECK(!built_ && a < num_accesses_);
  ColumnId id = schema_.table(accesses_[a].table).FindColumn(name);
  PDX_CHECK_MSG(id != kInvalidColumnId, std::string(name).c_str());
  return id;
}

void QueryBuilder::AddSampledEq(uint32_t a, ColumnId col) {
  AccessScratch& access = Access(a);
  const Column& column = schema_.table(access.table).columns[col];
  ColumnStatistics stats(column);
  uint64_t rank = stats.SampleValueRank(rng_);
  AddEq(a, col, rank);
}

void QueryBuilder::AddEq(uint32_t a, ColumnId col, uint64_t value_rank) {
  AccessScratch& access = Access(a);
  const Column& column = schema_.table(access.table).columns[col];
  ColumnStatistics stats(column);
  Predicate p;
  p.column = {access.table, col};
  p.op = PredOp::kEq;
  p.selectivity = stats.EqualitySelectivity(value_rank);
  p.value_rank = value_rank;
  access.predicates.push_back(p);
}

void QueryBuilder::AddSampledRange(uint32_t a, ColumnId col,
                                   double lo_fraction, double hi_fraction) {
  PDX_CHECK(lo_fraction > 0.0 && lo_fraction <= hi_fraction &&
            hi_fraction <= 1.0);
  AccessScratch& access = Access(a);
  const Column& column = schema_.table(access.table).columns[col];
  ColumnStatistics stats(column);
  // The dispersion knob rescales the sampling window around its midpoint.
  // The draw itself always consumes exactly one uniform variate, so
  // dispersion changes selectivity spread without perturbing the stream of
  // random numbers later predicates see.
  const double mid = 0.5 * (lo_fraction + hi_fraction);
  const double half = 0.5 * (hi_fraction - lo_fraction) * dispersion_;
  const double lo = std::max(1e-6, mid - half);
  const double hi = std::min(1.0, std::max(lo, mid + half));
  Predicate p;
  p.column = {access.table, col};
  p.op = PredOp::kRange;
  p.domain_fraction = rng_->NextDouble(lo, hi);
  p.selectivity = stats.RangeSelectivity(p.domain_fraction);
  access.predicates.push_back(p);
}

void QueryBuilder::AddUnsargable(uint32_t a, ColumnId col,
                                 double selectivity) {
  PDX_CHECK(selectivity > 0.0 && selectivity <= 1.0);
  AccessScratch& access = Access(a);
  Predicate p;
  p.column = {access.table, col};
  p.op = PredOp::kLike;
  p.selectivity = selectivity;
  p.sargable = false;
  access.predicates.push_back(p);
}

void QueryBuilder::AddJoin(uint32_t left, uint32_t right, ColumnId left_col,
                           ColumnId right_col) {
  Restart();
  PDX_CHECK(left < num_accesses_);
  PDX_CHECK(right < num_accesses_);
  PDX_CHECK(left != right);
  JoinEdge e;
  e.left_access = left;
  e.right_access = right;
  e.left_column = left_col;
  e.right_column = right_col;
  joins_.push_back(e);
}

void QueryBuilder::GroupBy(uint32_t a, ColumnId col) {
  group_by_.push_back({Access(a).table, col});
}

void QueryBuilder::OrderBy(uint32_t a, ColumnId col) {
  order_by_.push_back({Access(a).table, col});
}

void QueryBuilder::Refer(uint32_t a, std::initializer_list<ColumnId> cols) {
  AccessScratch& access = Access(a);
  access.referenced_columns.insert(access.referenced_columns.end(),
                                   cols.begin(), cols.end());
}

void QueryBuilder::FoldReferencedColumns() {
  // Fold predicate, join, group-by and order-by columns into each access's
  // referenced set, then deduplicate.
  const std::span<AccessScratch> accesses(accesses_.data(), num_accesses_);
  for (AccessScratch& a : accesses) {
    for (const Predicate& p : a.predicates) {
      a.referenced_columns.push_back(p.column.column);
    }
  }
  for (const JoinEdge& j : joins_) {
    accesses[j.left_access].referenced_columns.push_back(j.left_column);
    accesses[j.right_access].referenced_columns.push_back(j.right_column);
  }
  auto fold_refs = [&](const std::vector<ColumnRef>& refs) {
    for (const ColumnRef& r : refs) {
      for (AccessScratch& a : accesses) {
        if (a.table == r.table) {
          a.referenced_columns.push_back(r.column);
          break;
        }
      }
    }
  };
  fold_refs(group_by_);
  fold_refs(order_by_);
  for (AccessScratch& a : accesses) {
    std::sort(a.referenced_columns.begin(), a.referenced_columns.end());
    a.referenced_columns.erase(
        std::unique(a.referenced_columns.begin(), a.referenced_columns.end()),
        a.referenced_columns.end());
  }
}

Query QueryBuilder::Finish(Query q) {
  FoldReferencedColumns();
  built_accesses_.clear();
  for (size_t i = 0; i < num_accesses_; ++i) {
    TableAccess& a = built_accesses_.emplace_back();
    a.table = accesses_[i].table;
    a.predicates = accesses_[i].predicates;
    a.referenced_columns = accesses_[i].referenced_columns;
  }
  q.select.accesses = built_accesses_;
  q.select.joins = joins_;
  q.select.group_by = group_by_;
  q.select.order_by = order_by_;
  q.select.num_aggregates = num_aggregates_;
  built_ = true;
  return q;
}

Query QueryBuilder::BuildSelect(TemplateId template_id) {
  Restart();
  Query q;
  q.template_id = template_id;
  q.kind = StatementKind::kSelect;
  // Optimization overhead grows with join count (§5.2's non-constant
  // optimization times).
  q.optimize_overhead = 1.0 + 0.35 * static_cast<double>(joins_.size());
  return Finish(q);
}

Query QueryBuilder::BuildDml(TemplateId template_id, StatementKind kind,
                             TableId table,
                             std::span<const ColumnId> set_columns,
                             double selectivity) {
  PDX_CHECK(kind != StatementKind::kSelect);
  Restart();
  Query q;
  q.template_id = template_id;
  q.kind = kind;
  q.optimize_overhead = 1.0;
  set_columns_.assign(set_columns.begin(), set_columns.end());
  q = Finish(q);

  UpdateSpec u;
  u.table = table;
  u.kind = kind;
  u.set_columns = set_columns_;
  if (selectivity > 0.0) {
    u.selectivity = selectivity;
  } else if (kind == StatementKind::kInsert) {
    u.selectivity = 1.0 / static_cast<double>(
                              std::max<uint64_t>(1, schema_.table(table).row_count));
  } else {
    // Derive from the WHERE clause of the SELECT part.
    double sel = 1.0;
    for (const TableAccess& a : q.select.accesses) {
      if (a.table == table) sel = a.CombinedSelectivity();
    }
    u.selectivity = std::clamp(sel, 1e-12, 1.0);
  }
  q.update = u;
  return q;
}

}  // namespace pdx
