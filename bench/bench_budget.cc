// Dynamic budget (core/budget.h) on the Table-2 TPC-D environment: static
// vs dynamic real-optimizer-call economics, in the two regimes DESIGN.md
// §10.3 separates.
//
// Setup mirrors bench_table2_tpcd_multi at k = 100 (alpha = 0.9, delta = 0,
// Delta Sampling + progressive stratification, 10-consecutive guard, 0.995
// elimination, seed 0x7AB2E): per trial, one static run and one dynamic run
// from identical RNG seeds, and the dynamic selection must be byte-identical
// to the static one.
//
// Leg 1, "cold" — derivation-priced §6.1 bounds (MatrixRowBoundsProvider,
// 2 optimizer calls per first row touch). This is the regime where
// interval dominance is provably USELESS: base/rich intervals are
// configuration-independent, so a pair separates only once its sampled
// cost gap exceeds its unsampled interval mass — at Table 2's ~2.7%
// sampling fraction, never (measured: the full-coverage envelope is
// 1.27e9 wide vs a 1.03e9 true total span). Priced bounds are therefore
// never refined: the gate is byte-identity plus, per trial, zero
// refinement calls and exactly the static run's optimizer calls.
//
// Leg 2, "warm" — a StaleCostBoundsProvider over the previous tuning
// session's cost cache, trusted within a 2% drift band. Bounds are now
// configuration-specific (width ~ 2 * eps * cost, not the pool spread) and
// cost zero optimizer calls to read, so refinement covers the workload for
// free and interval dominance eliminates every configuration whose true
// gap exceeds the band right after coverage — only genuine near-ties are
// left to the statistical race. The gate is byte-identity, dominance
// actually firing, and >= 1.5x fewer real optimizer calls than the static
// policy.
//
// Violations abort via PDX_CHECK, so this bench doubles as an acceptance
// gate; CI additionally gates the snapshotted ratios in BENCH_budget.json
// against >20% regression.
#include "bench_multi.h"
#include "core/budget.h"

using namespace pdx;
using namespace pdx::bench;

namespace {

// Drift band of the warm leg: stale costs are perturbed by at most
// eps / 2 relative, so the provider's +-eps band provably contains every
// true cell (checked at construction).
constexpr double kDriftEps = 0.02;

struct LegTotals {
  uint64_t static_calls = 0;
  uint64_t dynamic_calls = 0;
  uint64_t refinement_calls = 0;
  uint64_t dominated = 0;
  uint64_t refined = 0;
  int correct = 0;
  double Ratio() const {
    return static_cast<double>(static_calls) /
           static_cast<double>(std::max<uint64_t>(1, dynamic_calls));
  }
};

// Runs `trials` static/dynamic pairs from identical seeds; aborts unless
// every trial's dynamic selection is byte-identical to its static one and,
// over priced bounds, spends exactly the static run's optimizer calls.
LegTotals RunLeg(const char* name, MatrixCostSource* src,
                 const SelectorOptions& base_opts, CellBoundsProvider* bounds,
                 uint64_t trial_base, int trials, ConfigId truth) {
  LegTotals t;
  const std::vector<int> widths = {7, 12, 12, 10, 10, 9, 8};
  std::printf("[%s]\n", name);
  PrintRow({"trial", "static", "dynamic", "refine", "dominated", "samples",
            "best==*"},
           widths);
  for (int i = 0; i < trials; ++i) {
    TrialCountingSource s1(src);
    Rng r1(trial_base + i);
    SelectionResult stat = ConfigurationSelector(&s1, base_opts).Run(&r1);

    SelectorOptions dyn_opts = base_opts;
    dyn_opts.budget_policy = BudgetPolicy::kDynamic;
    dyn_opts.bounds = bounds;
    TrialCountingSource s2(src);
    Rng r2(trial_base + i);
    SelectionResult dyn = ConfigurationSelector(&s2, dyn_opts).Run(&r2);

    PDX_CHECK_MSG(dyn.best == stat.best,
                  "dynamic budget changed the selected configuration");
    PDX_CHECK_MSG(!bounds->priced() || (dyn.bound_refinement_calls == 0 &&
                                        dyn.optimizer_calls ==
                                            stat.optimizer_calls),
                  "dynamic budget spent optimizer calls on priced bounds");
    t.static_calls += stat.optimizer_calls;
    t.dynamic_calls += dyn.optimizer_calls;
    t.refinement_calls += dyn.bound_refinement_calls;
    t.dominated += dyn.dominance_eliminations;
    t.refined += dyn.refined_queries;
    t.correct += dyn.best == truth ? 1 : 0;
    PrintRow({std::to_string(i), std::to_string(stat.optimizer_calls),
              std::to_string(dyn.optimizer_calls),
              std::to_string(dyn.bound_refinement_calls),
              std::to_string(dyn.dominance_eliminations),
              std::to_string(dyn.queries_sampled),
              dyn.best == truth ? "yes" : "no"},
             widths);
  }
  std::printf(
      "totals: static %llu calls, dynamic %llu calls (%llu on refinement), "
      "%llu dominance eliminations, %llu queries refined, "
      "ratio %.3fx, true Pr(CS) %.1f%%\n\n",
      static_cast<unsigned long long>(t.static_calls),
      static_cast<unsigned long long>(t.dynamic_calls),
      static_cast<unsigned long long>(t.refinement_calls),
      static_cast<unsigned long long>(t.dominated),
      static_cast<unsigned long long>(t.refined), t.Ratio(),
      100.0 * t.correct / trials);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = TrialsFromArgs(argc, argv, 20);
  const uint64_t seed = 0x7AB2E;
  const uint32_t k = 100;
  PrintHeader("Budget reallocation: static vs dynamic optimizer calls",
              trials);
  obs::Stopwatch start;
  auto env = MakeTpcdEnvironment(13000);
  std::printf("workload: %zu queries, %zu templates, k = %u\n\n",
              env->workload->size(), env->workload->num_templates(), k);

  Rng pool_rng(seed ^ k);
  std::vector<Configuration> pool = MakeConfigPool(*env, k, &pool_rng);
  MatrixCostSource src = TimedPrecompute(*env, pool);
  ConfigId truth = 0;
  for (ConfigId c = 1; c < src.num_configs(); ++c) {
    if (src.TotalCost(c) < src.TotalCost(truth)) truth = c;
  }
  const size_t N = src.num_queries();
  std::vector<std::vector<double>> cols(src.num_configs());
  for (ConfigId c = 0; c < src.num_configs(); ++c) cols[c] = src.Column(c);

  SelectorOptions base_opts;
  base_opts.alpha = 0.9;
  base_opts.delta = 0.0;
  base_opts.scheme = SamplingScheme::kDelta;
  base_opts.stratify = true;
  base_opts.consecutive_to_stop = 10;
  base_opts.elimination_threshold = 0.995;

  const uint64_t trial_base = MultiTrialSeedBase(seed, k, 7);
  ClaimTrialSeedSpan(trial_base, trials, "bench_budget");

  // --- Leg 1: cold, derivation-priced §6.1 row bounds -------------------
  // Shared across trials like a long-lived tuning service would share its
  // WorkloadBoundsCache.
  MatrixRowBoundsProvider cold_bounds(
      N, src.num_configs(),
      [&](QueryId q, ConfigId c) { return cols[c][q]; });
  LegTotals cold = RunLeg("cold: derivation-priced bounds", &src, base_opts,
                          &cold_bounds, trial_base, trials, truth);

  // --- Leg 2: warm, last session's cost cache within a drift band -------
  // Stale costs: true * (1 + delta) with |delta| <= eps / 2 from a
  // deterministic stream, so |true - stale| <= eps * stale and the +-eps
  // band contains every true cell (spot-checked below).
  Rng drift_rng(seed ^ 0xD81F7);
  std::vector<std::vector<double>> stale(src.num_configs());
  for (ConfigId c = 0; c < src.num_configs(); ++c) {
    stale[c].resize(N);
    for (QueryId q = 0; q < N; ++q) {
      const double d = (drift_rng.NextDouble() - 0.5) * kDriftEps;
      stale[c][q] = cols[c][q] * (1.0 + d);
    }
  }
  StaleCostBoundsProvider warm_bounds(
      N, src.num_configs(),
      [&](QueryId q, ConfigId c) { return stale[c][q]; }, kDriftEps);
  for (QueryId q = 0; q < N; q += 199) {
    for (ConfigId c = 0; c < src.num_configs(); ++c) {
      PDX_CHECK_MSG(warm_bounds.BoundsFor(q, c).Contains(cols[c][q]),
                    "warm-cache drift premise violated");
    }
  }
  LegTotals warm = RunLeg("warm: stale-cache bounds (2% drift)", &src,
                          base_opts, &warm_bounds, trial_base, trials, truth);

  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    PDX_CHECK_MSG(f != nullptr, "cannot write bench JSON");
    std::fprintf(
        f,
        "{\n  \"budget\": [\n"
        "    {\"leg\": \"cold\", \"k\": %u, \"trials\": %d, "
        "\"static_avg_calls\": %.1f, \"dynamic_avg_calls\": %.1f, "
        "\"call_reduction_ratio\": %.3f, \"dominance_eliminations_avg\": "
        "%.1f},\n"
        "    {\"leg\": \"warm\", \"k\": %u, \"trials\": %d, "
        "\"static_avg_calls\": %.1f, \"dynamic_avg_calls\": %.1f, "
        "\"call_reduction_ratio\": %.3f, \"dominance_eliminations_avg\": "
        "%.1f}\n  ]\n}\n",
        k, trials, static_cast<double>(cold.static_calls) / trials,
        static_cast<double>(cold.dynamic_calls) / trials, cold.Ratio(),
        static_cast<double>(cold.dominated) / trials, k, trials,
        static_cast<double>(warm.static_calls) / trials,
        static_cast<double>(warm.dynamic_calls) / trials, warm.Ratio(),
        static_cast<double>(warm.dominated) / trials);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Cold regime: dominance cannot pay here; priced bounds are never
  // refined, so each trial costs exactly its static run (checked per
  // trial in RunLeg).
  PDX_CHECK_MSG(cold.Ratio() >= 0.97,
                "cold-regime dynamic overhead exceeded the no-harm bar");
  // Warm regime: the economy bar — dominance must fire and cut real
  // optimizer calls by >= 1.5x at byte-identical selections.
  PDX_CHECK_MSG(warm.dominated > 0,
                "warm-regime interval dominance never fired");
  PDX_CHECK_MSG(warm.Ratio() >= 1.5,
                "dynamic budget reallocation fell below the 1.5x "
                "call-reduction bar");
  PrintWallClockReport("budget", start);
  FinishBenchObs("bench_budget", argc, argv, start);
  return 0;
}
