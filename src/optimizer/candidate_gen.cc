#include "optimizer/candidate_gen.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/string_util.h"

namespace pdx {

namespace {

// Appends `extra` columns to `base` skipping duplicates; used to build
// covering include lists.
std::vector<ColumnId> IncludesFor(const std::vector<ColumnId>& keys,
                                  std::span<const ColumnId> referenced) {
  std::vector<ColumnId> includes;
  for (ColumnId c : referenced) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
      includes.push_back(c);
    }
  }
  std::sort(includes.begin(), includes.end());
  return includes;
}

}  // namespace

void CandidateGenerator::AddAccessCandidates(const SelectSpec& spec,
                                             const TableAccess& access,
                                             QueryCandidates* out) const {
  const Table& table = schema_.table(access.table);
  if (table.HeapPages() < options_.min_table_pages) return;

  // Sargable predicate columns: equality columns ordered by ascending
  // selectivity (most selective first), then at most one range column.
  std::vector<const Predicate*> eqs;
  const Predicate* best_range = nullptr;
  for (const Predicate& p : access.predicates) {
    if (!p.sargable) continue;
    if (p.op == PredOp::kEq || p.op == PredOp::kIn) {
      eqs.push_back(&p);
    } else if (p.op == PredOp::kRange) {
      if (best_range == nullptr || p.selectivity < best_range->selectivity) {
        best_range = &p;
      }
    }
  }
  std::sort(eqs.begin(), eqs.end(), [](const Predicate* a, const Predicate* b) {
    return a->selectivity < b->selectivity;
  });

  std::vector<ColumnId> keys;
  for (const Predicate* p : eqs) {
    if (std::find(keys.begin(), keys.end(), p->column.column) == keys.end()) {
      keys.push_back(p->column.column);
    }
  }
  if (best_range != nullptr &&
      std::find(keys.begin(), keys.end(), best_range->column.column) ==
          keys.end()) {
    keys.push_back(best_range->column.column);
  }

  if (!keys.empty()) {
    Index plain;
    plain.table = access.table;
    plain.key_columns = keys;
    out->indexes.push_back(plain);
    if (options_.covering_variants) {
      Index covering = plain;
      covering.include_columns = IncludesFor(keys, access.referenced_columns);
      if (!covering.include_columns.empty()) {
        out->indexes.push_back(std::move(covering));
      }
    }
  }

  // Join-column indexes.
  if (options_.join_indexes) {
    for (const JoinEdge& j : spec.joins) {
      ColumnId col = kInvalidColumnId;
      if (&spec.accesses[j.left_access] == &access) col = j.left_column;
      if (&spec.accesses[j.right_access] == &access) col = j.right_column;
      if (col == kInvalidColumnId) continue;
      Index ji;
      ji.table = access.table;
      ji.key_columns = {col};
      out->indexes.push_back(ji);
      if (options_.covering_variants) {
        Index cov = ji;
        cov.include_columns = IncludesFor(ji.key_columns,
                                          access.referenced_columns);
        if (!cov.include_columns.empty()) out->indexes.push_back(std::move(cov));
      }
    }
  }

  // Grouping index: keys = group-by columns on this table (streaming agg),
  // covering the referenced columns. Only for single-table queries, where
  // the optimizer can exploit the delivered order.
  if (options_.group_indexes && spec.IsSingleTable() && !spec.group_by.empty()) {
    std::vector<ColumnId> gkeys;
    for (const ColumnRef& g : spec.group_by) {
      if (g.table == access.table) gkeys.push_back(g.column);
    }
    if (!gkeys.empty()) {
      Index gi;
      gi.table = access.table;
      gi.key_columns = gkeys;
      if (options_.covering_variants) {
        gi.include_columns = IncludesFor(gkeys, access.referenced_columns);
      }
      out->indexes.push_back(std::move(gi));
    }
  }
}

void CandidateGenerator::AddViewCandidate(const SelectSpec& spec,
                                          QueryCandidates* out) const {
  if (!options_.view_candidates) return;
  if (spec.joins.empty()) return;
  // Views pay off for multi-join or aggregating join queries.
  if (spec.joins.size() < 2 && spec.group_by.empty()) return;

  MaterializedView view;
  for (const TableAccess& a : spec.accesses) view.tables.push_back(a.table);
  std::sort(view.tables.begin(), view.tables.end());

  std::vector<std::pair<ColumnRef, ColumnRef>> edges;
  for (const JoinEdge& j : spec.joins) {
    edges.push_back({{spec.accesses[j.left_access].table, j.left_column},
                     {spec.accesses[j.right_access].table, j.right_column}});
  }
  view.join_signature = MakeJoinSignature(edges);

  // Group by the query's grouping columns plus every predicate column, so
  // differently-parameterized instances of the template can still filter
  // the view.
  std::vector<ColumnRef> group_cols(spec.group_by.begin(), spec.group_by.end());
  for (const TableAccess& a : spec.accesses) {
    for (const Predicate& p : a.predicates) group_cols.push_back(p.column);
  }
  std::sort(group_cols.begin(), group_cols.end());
  group_cols.erase(std::unique(group_cols.begin(), group_cols.end()),
                   group_cols.end());
  view.group_by = group_cols;

  // Expose everything the query touches.
  std::vector<ColumnRef> exposed;
  for (const TableAccess& a : spec.accesses) {
    for (ColumnId c : a.referenced_columns) exposed.push_back({a.table, c});
  }
  for (const ColumnRef& g : group_cols) exposed.push_back(g);
  std::sort(exposed.begin(), exposed.end());
  exposed.erase(std::unique(exposed.begin(), exposed.end()), exposed.end());
  view.exposed_columns = exposed;

  // Materialized cardinality: the unfiltered join result collapsed to the
  // view's grouping granularity.
  double join_rows = 0.0;
  {
    std::unordered_set<uint32_t> joined;
    uint32_t first = spec.joins[0].left_access;
    join_rows =
        static_cast<double>(schema_.table(spec.accesses[first].table).row_count);
    joined.insert(first);
    for (const JoinEdge& j : spec.joins) {
      bool left_in = joined.count(j.left_access) > 0;
      bool right_in = joined.count(j.right_access) > 0;
      if (left_in && right_in) continue;
      uint32_t inner = left_in ? j.right_access : j.left_access;
      ColumnId inner_col = left_in ? j.right_column : j.left_column;
      ColumnId outer_col = left_in ? j.left_column : j.right_column;
      uint32_t outer = left_in ? j.left_access : j.right_access;
      double inner_rows =
          static_cast<double>(schema_.table(spec.accesses[inner].table).row_count);
      join_rows = model_.JoinCardinality(
          join_rows, inner_rows, {spec.accesses[outer].table, outer_col},
          {spec.accesses[inner].table, inner_col});
      joined.insert(inner);
    }
  }
  double groups = model_.GroupCardinality(join_rows, view.group_by);
  view.row_count = static_cast<uint64_t>(std::max(1.0, groups));
  view.name = StringFormat("mv_%llu", static_cast<unsigned long long>(
                                          view.Hash() & 0xFFFFFF));
  out->views.push_back(std::move(view));
}

QueryCandidates CandidateGenerator::ForQuery(const Query& query) const {
  QueryCandidates out;
  for (const TableAccess& a : query.select.accesses) {
    AddAccessCandidates(query.select, a, &out);
  }
  if (query.kind == StatementKind::kSelect) {
    AddViewCandidate(query.select, &out);
  }
  return out;
}

QueryCandidates CandidateGenerator::ForWorkload(const Workload& workload) const {
  QueryCandidates out;
  std::unordered_set<uint64_t> seen_idx;
  std::unordered_set<uint64_t> seen_view;
  for (TemplateId t = 0; t < workload.num_templates(); ++t) {
    const std::vector<QueryId>& members = workload.QueriesOfTemplate(t);
    if (members.empty()) continue;
    QueryCandidates qc = ForQuery(workload.query(members.front()));
    for (Index& i : qc.indexes) {
      if (seen_idx.insert(i.Hash()).second) out.indexes.push_back(std::move(i));
    }
    for (MaterializedView& v : qc.views) {
      if (seen_view.insert(v.Hash()).second) out.views.push_back(std::move(v));
    }
  }
  return out;
}

Configuration CandidateGenerator::RichConfiguration(
    const Workload& workload) const {
  QueryCandidates all = ForWorkload(workload);
  Configuration rich("rich");
  for (Index& i : all.indexes) rich.AddIndex(std::move(i));
  for (MaterializedView& v : all.views) rich.AddView(std::move(v));
  return rich;
}

}  // namespace pdx
