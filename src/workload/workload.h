// Copyright (c) the pdexplore authors.
// A workload: the ordered multiset of statements the comparison primitive
// samples from, together with its template index (the unit of
// stratification in §5.1).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "workload/query.h"
#include "workload/query_store.h"

namespace pdx {

/// An in-memory workload bound to a schema. Query ids equal their position.
///
/// The workload owns its queries' lists in one QueryStore; every Query's
/// views point into it. Moving a workload keeps every `const Query&` and
/// every view valid (the query headers and the store's blocks stay where
/// they are). A workload is not copyable: a member-wise copy would view
/// the original's store.
class Workload {
 public:
  explicit Workload(const Schema* schema) : schema_(schema) {
    PDX_CHECK(schema != nullptr);
  }
  Workload(Workload&&) noexcept = default;
  Workload& operator=(Workload&&) noexcept = default;
  PDX_DISALLOW_COPY(Workload);

  /// Appends a copy of `query` (its lists are copied into this workload's
  /// store), assigning its id. Its template must be registered.
  QueryId AddQuery(const Query& query);

  /// Appends `queries`, whose views point into `store`, and takes over the
  /// store's arrays without copying them. Templates must be registered.
  void AdoptQueries(std::span<const Query> queries, QueryStore&& store);

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
  /// Appends `query` (views already into store_), assigning its id.
  QueryId Register(Query query);

  const Schema* schema_;
  std::vector<Query> queries_;
  QueryStore store_;
  std::vector<QueryTemplate> templates_;
  std::vector<std::vector<QueryId>> template_members_;
};

}  // namespace pdx
