// Copyright (c) the pdexplore authors.
// Dynamic budget: interval-dominance elimination over free §6 bounds
// (DESIGN.md §10).
//
// The paper derives §6 cost intervals so cheap bounds can stand in for
// expensive optimizer calls. Under BudgetPolicy::kDynamic a BudgetManager
// keeps, per configuration, a closed envelope [LB, UB] of its total cost:
// a sampled exact cell adds its cost to both ends, a fault-degraded cell
// adds [cost - u, cost + u], and a refined unsampled cell adds its §6
// interval. Once every workload query of c is sampled or refined, the
// envelope contains true(c); UB(l) < LB(j) then proves j is not the true
// best, and j is eliminated with zero further samples.
//
// Whether refinement happens is the provider's call, not a scheduler's:
// a free provider (CellBoundsProvider::priced() false, e.g. a stale cost
// cache read from memory) is refined in geometric chunks until every
// query is covered; a priced provider (its BoundsFor spends optimizer
// calls, e.g. WorkloadBoundsCache) is never refined — configuration-
// independent base/rich intervals almost never separate a pair, so
// buying them never paid (BENCH_budget.json, cold leg).
//
// Soundness (why dominance preserves Pr(CS) semantics): the envelope of c
// contains the true total cost of c by §6.1, so UB(l) < LB(j) implies
// true(j) >= LB(j) > UB(l) >= true(l) >= min over all configurations —
// j is certainly not the true argmin, for ANY incumbent l, even across
// later incumbent changes. A dominated pair is frozen at Pr(CS) = 1,
// which only tightens the Bonferroni product relative to continuing to
// sample it. The incumbent itself is never dominance-eliminated (it may
// be interval-dominated while statistically ahead; the statistical race
// resolves that case).
//
// Determinism: every decision is a pure function of the run's sample
// stream and the provider's (deterministic) intervals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/fault.h"

namespace pdx {

class TraceSink;

/// Which budget policy a selection run uses.
enum class BudgetPolicy {
  /// Every sample is a full-price what-if call; bounds serve only the
  /// fault-degradation path. Byte-identical to pre-budget behavior.
  kStatic,
  /// The BudgetManager refines free bounds and eliminates pairs by
  /// interval dominance.
  kDynamic,
};

/// Parses "static" / "dynamic" (the --budget= flag).
Result<BudgetPolicy> ParseBudgetPolicy(const std::string& text);

const char* BudgetPolicyName(BudgetPolicy policy);

/// Counters of one run's budget decisions (surfaced on SelectionResult /
/// FixedBudgetResult and in the pdx_tool report economics table).
struct BudgetStats {
  /// Configurations eliminated by interval dominance.
  uint64_t dominance_eliminations = 0;
  /// Queries whose interval this run refined.
  uint64_t refined_queries = 0;
};

/// Per-run dominance engine. Owned by one selection run and driven from
/// its loop — ObserveSample on every priced cell, DecideRound once per
/// round. Not thread-safe (the selection loop is sequential).
class BudgetManager {
 public:
  /// `bounds` must outlive the manager and yield intervals that contain
  /// Cost(q, c) for every compared configuration (§6.1). Its BoundsFor is
  /// called only when it is free (priced() false).
  BudgetManager(size_t num_configs, size_t num_queries,
                CellBoundsProvider* bounds, TraceSink* trace);

  /// A real sample arrived for (q, c): exact `cost`, unless
  /// `uncertainty` > 0 (a fault-degraded cell whose true cost lies in
  /// [cost - uncertainty, cost + uncertainty] — kept as interval mass in
  /// the envelope so degradation can never fake an exact census).
  void ObserveSample(QueryId q, ConfigId c, double cost, double uncertainty);

  /// The per-round step: refine the next chunk of a free provider's
  /// intervals (64 queries, then as many as are already refined) until
  /// every query is covered, then return the configurations (ascending,
  /// never `best`) proven non-best by interval dominance.
  std::vector<ConfigId> DecideRound(uint64_t round, ConfigId best,
                                    const std::vector<bool>& active);

  const BudgetStats& stats() const { return stats_; }

  /// Envelope state, exposed for tests: valid (finite UB) only once every
  /// query is sampled or refined for `c`.
  bool Covered(ConfigId c) const { return env_pieces_[c] == num_queries_; }
  double LowerEnvelope(ConfigId c) const { return env_lo_[c]; }
  double UpperEnvelope(ConfigId c) const { return env_hi_[c]; }

 private:
  /// Refines up to `quota` unrefined, not-globally-covered queries in
  /// ascending QueryId order; returns how many were refined.
  size_t RefineChunk(size_t quota, const std::vector<bool>& active);

  size_t k_;
  size_t num_queries_;
  CellBoundsProvider* bounds_;
  TraceSink* trace_;

  /// sampled_[c * num_queries_ + q]: cell priced exactly (or degraded).
  std::vector<bool> sampled_;
  /// refined_[q]: interval derived for every then-active configuration.
  std::vector<bool> refined_;
  QueryId refine_cursor_ = 0;

  /// Envelope accumulators: a sampled exact cell adds cost to both ends,
  /// a degraded cell adds [cost - u, cost + u], a refined unsampled cell
  /// adds its §6.1 interval. env_pieces_[c] counts covered queries.
  std::vector<double> env_lo_;
  std::vector<double> env_hi_;
  std::vector<size_t> env_pieces_;

  BudgetStats stats_;
};

/// CellBoundsProvider over an exact cost matrix: per-row [min, max] over
/// the compared configurations, derived eagerly at construction from
/// `cost` (a pure function — called num_queries * num_configs times).
/// Models the §6.1 scenario where bounds come from a precomputed ground-
/// truth matrix, priced the way a live CostBoundsDeriver is:
/// derivation_calls() charges the standard 2 calls for the first touch of
/// each row, and priced() is true, so the budget manager never refines
/// it. Thread-safe; shareable across concurrent trials.
class MatrixRowBoundsProvider : public CellBoundsProvider {
 public:
  MatrixRowBoundsProvider(size_t num_queries, size_t num_configs,
                          const std::function<double(QueryId, ConfigId)>& cost);

  CostInterval BoundsFor(QueryId q, ConfigId c) override;
  bool priced() const override { return true; }
  uint64_t derivation_calls() const {
    return derivation_calls_.load(std::memory_order_relaxed);
  }

 private:
  size_t num_queries_;
  std::vector<CostInterval> rows_;
  std::unique_ptr<std::atomic<uint8_t>[]> touched_;
  std::atomic<uint64_t> derivation_calls_{0};
};

/// CellBoundsProvider over a persisted per-cell cost cache from a previous
/// tuning session (the warm-service scenario of DESIGN.md §10.3): each
/// stale cost is trusted within a relative drift band `eps`, yielding the
/// configuration-SPECIFIC interval
///
///   [stale - eps * |stale|, stale + eps * |stale|].
///
/// This is the regime where interval dominance genuinely pays: the width
/// is 2*eps*cost — proportional to the assumed drift, not to the pool's
/// cost spread like the §6.1 base/rich intervals — and reading the cache
/// is a local lookup, so the provider is free and bound refinement
/// spends no real optimizer budget at all. Every configuration whose true
/// total-cost gap exceeds the accumulated band is eliminated right after
/// coverage, leaving only genuine near-ties to the statistical race.
///
/// Callers own the drift premise |true(q, c) - stale(q, c)| <= eps *
/// |stale(q, c)| (re-deriving cells that violate a staleness TTL, or
/// growing eps to the known drift). The soundness gates — the
/// `dominance_elimination_sound` property and bench_budget's byte-identity
/// check — abort if a violated premise ever changes a selection.
class StaleCostBoundsProvider : public CellBoundsProvider {
 public:
  /// `stale_cost` must be a pure function (BoundsFor may re-read a cell
  /// and relies on getting bit-identical endpoints); `drift_eps` in
  /// [0, 1).
  StaleCostBoundsProvider(size_t num_queries, size_t num_configs,
                          std::function<double(QueryId, ConfigId)> stale_cost,
                          double drift_eps);

  CostInterval BoundsFor(QueryId q, ConfigId c) override;

  double drift_eps() const { return eps_; }

 private:
  size_t num_queries_;
  size_t k_;
  std::function<double(QueryId, ConfigId)> stale_;
  double eps_;
};

}  // namespace pdx
