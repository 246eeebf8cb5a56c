// Copyright (c) the pdexplore authors.
// Cost-model primitives: the I/O and CPU formulas the what-if optimizer
// composes plans from. Costs are in abstract optimizer units (1.0 = one
// sequential page read), mirroring how commercial optimizers expose
// "estimated subtree cost" numbers that physical design tools consume.
#pragma once

#include <cstdint>
#include <span>

#include "catalog/schema.h"
#include "optimizer/physical_design.h"
#include "workload/query.h"

namespace pdx {

/// Tunable constants of the cost model.
struct CostConstants {
  double seq_page = 1.0;
  double random_page = 4.0;
  double cpu_tuple = 0.01;
  double cpu_operator = 0.0025;
  /// Per-tuple cost of building a hash table.
  double hash_build_tuple = 0.02;
  /// Per-tuple cost of probing a hash table.
  double hash_probe_tuple = 0.01;
  /// Per-tuple-comparison cost of sorting (multiplied by log2 n).
  double sort_compare = 0.004;
  /// Per-affected-structure-entry cost of index/view maintenance.
  double maintenance_tuple = 0.03;
};

/// Stateless cost formulas over catalog metadata.
class CostModel {
 public:
  explicit CostModel(const Schema& schema, CostConstants constants = {})
      : schema_(schema), constants_(constants) {}

  const Schema& schema() const { return schema_; }
  const CostConstants& constants() const { return constants_; }

  /// Full heap scan emitting `t.row_count` tuples.
  double HeapScanCost(TableId table) const;

  /// Cost of scanning `pages` pages sequentially and processing `rows`.
  double ScanPagesCost(double pages, double rows) const;

  /// B-tree seek returning `matching_rows`; `covering` indicates whether
  /// base-table lookups are avoided.
  double IndexSeekCost(const Index& index, double matching_rows,
                       bool covering) const;

  /// Range scan over a fraction of the index leaf level.
  double IndexRangeScanCost(const Index& index, double leaf_fraction,
                            double matching_rows, bool covering) const;

  /// Sort of `rows` tuples.
  double SortCost(double rows) const;

  /// Hash aggregation of `rows` input tuples into `groups` groups.
  double HashAggregateCost(double rows, double groups) const;

  /// Hash join: build on `build_rows`, probe with `probe_rows`.
  double HashJoinCost(double build_rows, double probe_rows) const;

  /// Number of distinct values of a column, from catalog statistics.
  double ColumnNdv(const ColumnRef& ref) const;

  /// Estimated output cardinality of an equi-join between inputs of the
  /// given cardinalities on the given columns (containment assumption).
  double JoinCardinality(double left_rows, double right_rows,
                         const ColumnRef& left_col,
                         const ColumnRef& right_col) const;

  /// Estimated group count when grouping `rows` tuples by `columns`.
  double GroupCardinality(double rows,
                          std::span<const ColumnRef> columns) const;

 private:
  const Schema& schema_;
  CostConstants constants_;
};

}  // namespace pdx
