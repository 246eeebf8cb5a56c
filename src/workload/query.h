// Copyright (c) the pdexplore authors.
// Query intermediate representation. A Query captures exactly the
// information the what-if optimizer needs to price it against a physical
// design: which tables it touches, which predicates with which
// (optimizer-estimated) selectivities, the join graph, grouping/ordering
// requirements, and — for DML — the update part after the standard
// SELECT/UPDATE split the paper describes in §6.1.
//
// Every list member of a query is a read-only view (std::span) into flat
// arrays owned elsewhere: a Workload's QueryStore (workload/query_store.h)
// for stored queries, or a QueryBuilder's scratch for the query it just
// built. A Query is therefore trivially copyable and never owns memory.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "catalog/types.h"

namespace pdx {

/// SQL statement kind.
enum class StatementKind : uint8_t { kSelect, kInsert, kUpdate, kDelete };

const char* StatementKindName(StatementKind kind);

/// Predicate comparison operator. Only the shape matters to the cost
/// model (equality seeks vs. range scans vs. unsargable filters).
enum class PredOp : uint8_t { kEq, kRange, kLike, kIn };

/// A single predicate on a column, carrying its optimizer-estimated
/// selectivity. Selectivities are fixed at workload-generation time from
/// catalog statistics; the optimizer treats them as its own estimates.
struct Predicate {
  ColumnRef column;
  PredOp op = PredOp::kEq;
  /// Estimated fraction of rows satisfying the predicate, in (0, 1].
  double selectivity = 1.0;
  /// False for predicates no index can serve (e.g. LIKE '%x%').
  bool sargable = true;
  /// Rendering/bookkeeping: frequency rank of the equality literal.
  uint64_t value_rank = 0;
  /// Rendering/bookkeeping: domain fraction of a range literal.
  double domain_fraction = 0.0;
};

/// One table occurrence in the FROM clause with its local predicates and
/// the set of columns the rest of the plan needs from it.
struct TableAccess {
  TableId table = kInvalidTableId;
  std::span<const Predicate> predicates;
  /// Columns of `table` referenced anywhere in the query (output list,
  /// join keys, grouping, ordering). Used for covering-index checks.
  std::span<const ColumnId> referenced_columns;

  /// Product of predicate selectivities (independence assumption).
  double CombinedSelectivity() const;
  /// Selectivity counting only sargable predicates on the given leading
  /// column (what an index seek on that column can apply).
  double SargableSelectivityOn(ColumnId column) const;
};

/// An equi-join edge between two table accesses (by index into
/// SelectSpec::accesses).
struct JoinEdge {
  uint32_t left_access = 0;
  uint32_t right_access = 0;
  ColumnId left_column = kInvalidColumnId;
  ColumnId right_column = kInvalidColumnId;
};

/// The SELECT shape of a statement (also the SELECT half of split DML).
struct SelectSpec {
  /// Upper bound on accesses: the optimizer tracks the joined prefix in a
  /// 64-bit mask, and Workload::Validate rejects larger statements.
  static constexpr size_t kMaxAccesses = 64;

  std::span<const TableAccess> accesses;
  /// Join edges; the optimizer composes them left-deep in the given order,
  /// which the generators arrange from most- to least-selective. Every
  /// edge after the first must touch an access already joined by the
  /// edges before it (the first edge's left access starts the prefix);
  /// Workload::Validate rejects a disconnected order.
  std::span<const JoinEdge> joins;
  std::span<const ColumnRef> group_by;
  std::span<const ColumnRef> order_by;
  /// Number of aggregate expressions in the output list.
  uint32_t num_aggregates = 0;

  bool IsSingleTable() const { return accesses.size() == 1; }
};

/// The UPDATE half of split DML (§6.1): the base-table modification whose
/// cost grows with selectivity plus per-structure maintenance.
struct UpdateSpec {
  TableId table = kInvalidTableId;
  /// kInsert, kUpdate or kDelete.
  StatementKind kind = StatementKind::kUpdate;
  /// Columns written (UPDATE SET list / INSERT column list). Empty for
  /// DELETE, which logically touches every column.
  std::span<const ColumnId> set_columns;
  /// Estimated fraction of the table's rows affected. For INSERT this is
  /// 1/row_count (a single row).
  double selectivity = 0.0;
};

/// A workload statement.
struct Query {
  QueryId id = 0;
  TemplateId template_id = 0;
  StatementKind kind = StatementKind::kSelect;
  /// Present for SELECT and for the SELECT part of UPDATE/DELETE; for
  /// INSERT the spec is empty.
  SelectSpec select;
  /// Present for INSERT/UPDATE/DELETE.
  std::optional<UpdateSpec> update;
  /// Relative cost of one optimizer call for this statement (§5.2 notes
  /// optimization overhead may differ across templates).
  double optimize_overhead = 1.0;

  bool IsDml() const { return kind != StatementKind::kSelect; }
};

/// Static description of a query template ("signature"/"skeleton"): the
/// statement with literals abstracted away. Queries sharing a template
/// differ only in parameter bindings (and hence selectivities).
struct QueryTemplate {
  TemplateId id = 0;
  std::string name;
  StatementKind kind = StatementKind::kSelect;
  /// Tables referenced, in FROM-clause order.
  std::vector<TableId> tables;
  /// Signature hash of the normalized SQL text.
  uint64_t signature = 0;
};

}  // namespace pdx
