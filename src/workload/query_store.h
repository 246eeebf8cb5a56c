// Copyright (c) the pdexplore authors.
// Flat, append-only storage for the list members of many queries: one
// array per element kind (table accesses, predicates, column ids, column
// refs, join edges) instead of a few heap blocks per query. A Query's
// views point into these arrays.
//
// Elements never move once a query is finished. Each array is a list of
// blocks; a block is reserved once and filled without reallocating, so a
// view into it stays valid for the store's lifetime, across moves of the
// store (moving a std::vector keeps its heap buffer) and across later
// appends. Block capacities grow geometrically, so a store holding N
// elements of a kind made O(log N) allocations for them.
#pragma once

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "common/macros.h"
#include "workload/query.h"

namespace pdx {

/// Append-only array whose elements never move. Elements appended since
/// the last Close() form the open run, which is kept contiguous: when the
/// last block has no room for the next element, the open run moves to a
/// new block (finished runs never do).
template <typename T>
class FlatArray {
 public:
  void Push(const T& v) {
    if (blocks_.empty() || blocks_.back().size() == blocks_.back().capacity()) {
      Grow(1);
    }
    blocks_.back().push_back(v);
  }

  void PushAll(std::span<const T> items) {
    if (items.empty()) return;
    if (blocks_.empty() ||
        blocks_.back().capacity() - blocks_.back().size() < items.size()) {
      Grow(items.size());
    }
    // `items` may view a finished run of this array; the room is reserved,
    // so no push_back below reallocates.
    std::vector<T>& last = blocks_.back();
    for (const T& v : items) last.push_back(v);
  }

  /// The open run's last element. The open run must not be empty.
  T& back() { return blocks_.back().back(); }

  /// Finishes the open run and returns it; its elements never move again.
  std::span<const T> Close() {
    if (blocks_.empty() || blocks_.back().size() == run_begin_) return {};
    const std::vector<T>& last = blocks_.back();
    const std::span<const T> run(last.data() + run_begin_,
                                 last.size() - run_begin_);
    run_begin_ = last.size();
    return run;
  }

  /// Takes over `other`'s blocks without copying them. Neither array may
  /// have an open run. Later appends continue in `other`'s last block.
  void Adopt(FlatArray&& other) {
    PDX_CHECK(!HasOpenRun() && !other.HasOpenRun());
    if (other.blocks_.empty()) return;
    size_ += (blocks_.empty() ? 0 : blocks_.back().size()) + other.size_;
    blocks_.insert(blocks_.end(), std::make_move_iterator(other.blocks_.begin()),
                   std::make_move_iterator(other.blocks_.end()));
    run_begin_ = blocks_.back().size();
    other = FlatArray();
  }

 private:
  /// Smallest block, in elements: small workloads stay small.
  static constexpr size_t kMinBlock = 64;

  bool HasOpenRun() const {
    return !blocks_.empty() && blocks_.back().size() != run_begin_;
  }

  /// Starts a block with room for the open run plus `n` more elements and
  /// moves the open run into it.
  void Grow(size_t n) {
    const size_t run =
        blocks_.empty() ? 0 : blocks_.back().size() - run_begin_;
    size_ += blocks_.empty() ? 0 : blocks_.back().size() - run;
    std::vector<T> next;
    next.reserve(std::max({kMinBlock, size_, run + n}));
    if (run > 0) {
      std::vector<T>& last = blocks_.back();
      next.insert(next.end(), last.end() - static_cast<std::ptrdiff_t>(run),
                  last.end());
      last.erase(last.end() - static_cast<std::ptrdiff_t>(run), last.end());
      if (last.empty()) blocks_.pop_back();  // it held only the open run
    }
    blocks_.push_back(std::move(next));
    run_begin_ = 0;
  }

  std::vector<std::vector<T>> blocks_;
  /// Start of the open run in the last block.
  size_t run_begin_ = 0;
  /// Elements in every block but the last (the growth policy's measure).
  size_t size_ = 0;
};

/// The one write path for query lists. A query is appended by streaming
/// its parts — AddAccess (with its predicates after it), AddJoin,
/// SetGroupBy, SetOrderBy, SetUpdateColumns, in any order — and then
/// Finish(), which returns the query with its views pointing into this
/// store. Append() streams a whole existing query (a copy whose views may
/// point anywhere).
///
/// Not thread-safe for writers; finished queries may be read from any
/// number of threads while nothing is appended.
class QueryStore {
 public:
  QueryStore() = default;
  QueryStore(QueryStore&&) noexcept = default;
  QueryStore& operator=(QueryStore&&) noexcept = default;
  PDX_DISALLOW_COPY(QueryStore);

  /// Opens a table access of the open query; predicates added after it
  /// belong to it until the next AddAccess or Finish.
  void AddAccess(TableId table, std::span<const ColumnId> referenced_columns);
  /// Adds a predicate to the last access opened.
  void AddPredicate(const Predicate& p);
  void AddJoin(const JoinEdge& j) { joins_.Push(j); }
  /// Set one list of the open query (the last call wins).
  void SetGroupBy(std::span<const ColumnRef> refs);
  void SetOrderBy(std::span<const ColumnRef> refs);
  /// Kept only if the header passed to Finish has an update part.
  void SetUpdateColumns(std::span<const ColumnId> columns);

  /// Finishes the open query: returns `header` (whose scalar fields are
  /// kept) with every list view pointing at what was added since the
  /// previous Finish.
  Query Finish(Query header);

  /// Appends a copy of `query`'s lists; returns the copy.
  Query Append(const Query& query);

  /// Takes over `other`'s arrays without copying them: views into `other`
  /// stay valid and are now owned here. Neither store may have an open
  /// query.
  void Adopt(QueryStore&& other);

 private:
  void CloseAccess();

  FlatArray<TableAccess> accesses_;
  FlatArray<Predicate> predicates_;
  FlatArray<ColumnId> column_ids_;
  FlatArray<ColumnRef> column_refs_;
  FlatArray<JoinEdge> joins_;
  /// The open query's finished lists and whether an access is open.
  std::span<const ColumnRef> group_by_;
  std::span<const ColumnRef> order_by_;
  std::span<const ColumnId> set_columns_;
  bool access_open_ = false;
};

}  // namespace pdx
