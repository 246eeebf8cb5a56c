#include "workload/query_store.h"

namespace pdx {

void QueryStore::CloseAccess() {
  if (!access_open_) return;
  accesses_.back().predicates = predicates_.Close();
  access_open_ = false;
}

void QueryStore::AddAccess(TableId table,
                           std::span<const ColumnId> referenced_columns) {
  CloseAccess();
  column_ids_.PushAll(referenced_columns);
  TableAccess a;
  a.table = table;
  a.referenced_columns = column_ids_.Close();
  accesses_.Push(a);
  access_open_ = true;
}

void QueryStore::AddPredicate(const Predicate& p) {
  PDX_CHECK(access_open_);
  predicates_.Push(p);
}

void QueryStore::SetGroupBy(std::span<const ColumnRef> refs) {
  column_refs_.PushAll(refs);
  group_by_ = column_refs_.Close();
}

void QueryStore::SetOrderBy(std::span<const ColumnRef> refs) {
  column_refs_.PushAll(refs);
  order_by_ = column_refs_.Close();
}

void QueryStore::SetUpdateColumns(std::span<const ColumnId> columns) {
  column_ids_.PushAll(columns);
  set_columns_ = column_ids_.Close();
}

Query QueryStore::Finish(Query header) {
  CloseAccess();
  header.select.accesses = accesses_.Close();
  header.select.joins = joins_.Close();
  header.select.group_by = group_by_;
  header.select.order_by = order_by_;
  if (header.update.has_value()) header.update->set_columns = set_columns_;
  group_by_ = {};
  order_by_ = {};
  set_columns_ = {};
  return header;
}

Query QueryStore::Append(const Query& query) {
  for (const TableAccess& a : query.select.accesses) {
    AddAccess(a.table, a.referenced_columns);
    for (const Predicate& p : a.predicates) AddPredicate(p);
  }
  for (const JoinEdge& j : query.select.joins) AddJoin(j);
  SetGroupBy(query.select.group_by);
  SetOrderBy(query.select.order_by);
  if (query.update.has_value()) SetUpdateColumns(query.update->set_columns);
  return Finish(query);
}

void QueryStore::Adopt(QueryStore&& other) {
  PDX_CHECK(!access_open_ && !other.access_open_);
  accesses_.Adopt(std::move(other.accesses_));
  predicates_.Adopt(std::move(other.predicates_));
  column_ids_.Adopt(std::move(other.column_ids_));
  column_refs_.Adopt(std::move(other.column_refs_));
  joins_.Adopt(std::move(other.joins_));
}

}  // namespace pdx
