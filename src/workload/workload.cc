#include "workload/workload.h"

namespace pdx {

QueryId Workload::AddQuery(const Query& query) {
  PDX_CHECK(query.template_id < templates_.size());
  // `query` may be one of this workload's own: copy it before growing.
  return Register(store_.Append(query));
}

void Workload::AdoptQueries(std::span<const Query> queries,
                            QueryStore&& store) {
  store_.Adopt(std::move(store));
  for (const Query& q : queries) {
    PDX_CHECK(q.template_id < templates_.size());
    Register(q);
  }
}

QueryId Workload::Register(Query query) {
  query.id = static_cast<QueryId>(queries_.size());
  template_members_[query.template_id].push_back(query.id);
  queries_.push_back(query);
  return query.id;
}

TemplateId Workload::AddTemplate(QueryTemplate tmpl) {
  TemplateId id = static_cast<TemplateId>(templates_.size());
  tmpl.id = id;
  templates_.push_back(std::move(tmpl));
  template_members_.emplace_back();
  return id;
}

const Query& Workload::query(QueryId id) const {
  PDX_CHECK(id < queries_.size());
  return queries_[id];
}

const QueryTemplate& Workload::query_template(TemplateId id) const {
  PDX_CHECK(id < templates_.size());
  return templates_[id];
}

const std::vector<QueryId>& Workload::QueriesOfTemplate(TemplateId id) const {
  PDX_CHECK(id < template_members_.size());
  return template_members_[id];
}

double Workload::DmlFraction() const {
  if (queries_.empty()) return 0.0;
  size_t dml = 0;
  for (const Query& q : queries_) {
    if (q.IsDml()) ++dml;
  }
  return static_cast<double>(dml) / static_cast<double>(queries_.size());
}

namespace {

Status ValidateSelect(const Schema& schema, const SelectSpec& spec) {
  for (const TableAccess& a : spec.accesses) {
    if (a.table >= schema.num_tables()) {
      return Status::InvalidArgument("table id out of range");
    }
    const Table& t = schema.table(a.table);
    for (const Predicate& p : a.predicates) {
      if (p.column.table != a.table) {
        return Status::InvalidArgument("predicate column on wrong table");
      }
      if (p.column.column >= t.columns.size()) {
        return Status::InvalidArgument("predicate column out of range");
      }
      if (!(p.selectivity > 0.0 && p.selectivity <= 1.0)) {
        return Status::InvalidArgument("predicate selectivity out of (0,1]");
      }
    }
    for (ColumnId c : a.referenced_columns) {
      if (c >= t.columns.size()) {
        return Status::InvalidArgument("referenced column out of range");
      }
    }
  }
  if (spec.accesses.size() > SelectSpec::kMaxAccesses) {
    return Status::InvalidArgument("too many table accesses");
  }
  // The optimizer composes joins left-deep in edge order, starting from
  // the first edge's left access: each edge must extend (or filter) the
  // prefix joined so far.
  uint64_t joined = 0;
  for (const JoinEdge& j : spec.joins) {
    if (j.left_access >= spec.accesses.size() ||
        j.right_access >= spec.accesses.size()) {
      return Status::InvalidArgument("join access index out of range");
    }
    if (j.left_access == j.right_access) {
      return Status::InvalidArgument("self-referential join edge");
    }
    if (j.left_column >=
            schema.table(spec.accesses[j.left_access].table).columns.size() ||
        j.right_column >=
            schema.table(spec.accesses[j.right_access].table).columns.size()) {
      return Status::InvalidArgument("join column out of range");
    }
    const uint64_t left = uint64_t{1} << j.left_access;
    const uint64_t right = uint64_t{1} << j.right_access;
    if (joined == 0) joined = left;
    if ((joined & (left | right)) == 0) {
      return Status::InvalidArgument(
          "join edge disconnected from the joined prefix");
    }
    joined |= left | right;
  }
  return Status::OK();
}

}  // namespace

Status Workload::Validate() const {
  for (const Query& q : queries_) {
    if (q.template_id >= templates_.size()) {
      return Status::InvalidArgument("query references unknown template");
    }
    if (q.kind == StatementKind::kSelect && q.update.has_value()) {
      return Status::InvalidArgument("SELECT with update part");
    }
    if (q.kind != StatementKind::kSelect && !q.update.has_value()) {
      return Status::InvalidArgument("DML without update part");
    }
    PDX_RETURN_IF_ERROR(ValidateSelect(*schema_, q.select));
    if (q.update.has_value()) {
      const UpdateSpec& u = *q.update;
      if (u.table >= schema_->num_tables()) {
        return Status::InvalidArgument("update table id out of range");
      }
      if (!(u.selectivity > 0.0 && u.selectivity <= 1.0)) {
        return Status::InvalidArgument("update selectivity out of (0,1]");
      }
      const Table& t = schema_->table(u.table);
      for (ColumnId c : u.set_columns) {
        if (c >= t.columns.size()) {
          return Status::InvalidArgument("set column out of range");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace pdx
