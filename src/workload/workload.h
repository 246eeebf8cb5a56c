// Copyright (c) the pdexplore authors.
// A workload: the ordered multiset of statements the comparison primitive
// samples from, together with its template index (the unit of
// stratification in §5.1).
#pragma once

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "workload/query.h"

namespace pdx {

/// An in-memory workload bound to a schema. Query ids equal their position.
class Workload {
 public:
  explicit Workload(const Schema* schema) : schema_(schema) {
    PDX_CHECK(schema != nullptr);
  }

  /// Appends a query, assigning its id. Its template must be registered.
  QueryId AddQuery(Query query);

  /// Reserves room for `n` queries in total.
  void Reserve(size_t n) { queries_.reserve(n); }

  /// Registers a template; returns its id. Templates must be registered
  /// before queries referencing them are added.
  TemplateId AddTemplate(QueryTemplate tmpl);

  size_t size() const { return queries_.size(); }
  const Query& query(QueryId id) const;
  const std::vector<Query>& queries() const { return queries_; }

  size_t num_templates() const { return templates_.size(); }
  const QueryTemplate& query_template(TemplateId id) const;
  const std::vector<QueryTemplate>& templates() const { return templates_; }

  /// Ids of queries with the given template.
  const std::vector<QueryId>& QueriesOfTemplate(TemplateId id) const;

  const Schema& schema() const { return *schema_; }

  /// Fraction of DML statements.
  double DmlFraction() const;

  /// Checks internal consistency: template references in range, table and
  /// column references valid for the schema, selectivities in (0, 1].
  Status Validate() const;

 private:
  const Schema* schema_;
  std::vector<Query> queries_;
  std::vector<QueryTemplate> templates_;
  std::vector<std::vector<QueryId>> template_members_;
};

}  // namespace pdx
