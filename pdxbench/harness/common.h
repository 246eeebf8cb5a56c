// Shared plumbing of the end-to-end benchmark harness: command-line
// arguments, clocks and percentiles, the result record every workload
// fills, catalog generation through the library's public API, and the
// timing cost source the traced run places around the what-if cache.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "core/cost_source.h"
#include "core/selector.h"
#include "optimizer/physical_design.h"
#include "workload/workload.h"

namespace pdxbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes for the smoke test; never used for measurements.
  bool tiny = false;
  /// Directory for generated catalogs and the span file.
  std::string data_dir = ".";
  /// Test hook of the correctness gate: perturb one batch reference so
  /// the gate must fail the run.
  bool corrupt_reference = false;
  /// Provenance supplied by the launcher (the harness cannot see git).
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Parses `--key value` / `--key=value` arguments; exits with a usage
/// message on anything unknown or malformed.
Args ParseArgs(int argc, char** argv);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double MsSince(uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e6;
}

/// Linear-interpolation percentile (p in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Seed of every generated catalog. Catalogs are fixed across runs so
/// the run seed varies what the program is asked (selection seeds, the
/// session schedule), not the data it is asked about: run-to-run spread
/// then measures the program, not how hard one catalog happens to be.
constexpr uint64_t kCatalogSeed = 1;

/// Per-op seed stream: op `i` of a run seeded `seed` (SplitMix64 mix, so
/// neighbouring run seeds give unrelated op seeds).
uint64_t OpSeed(uint64_t seed, uint64_t i);

/// Size of a file in MB (0 when it cannot be read).
double FileMb(const std::string& path);

/// Peak resident memory of this process over an interval: a thread
/// samples the resident set every 10 ms from construction until Stop().
/// Set-up repetitions before the interval (earlier daemons, ground
/// truth) do not count, only what the timed phase holds.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent) and returns the peak, MB.
  double Stop();

 private:
  void Sample();

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_pages_{0};
  std::thread thread_;
};

/// Everything a run reports: the correctness verdict, op accounting and
/// named metrics with units. Workloads fill it; main prints it.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;
  /// Thread counts and other run-shape facts for the result stamp.
  std::map<std::string, std::string> shape;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness failure; the run exits non-zero.
  void Fail(const std::string& message);
  /// Fails unless `ok`.
  void Check(bool ok, const std::string& message) {
    if (!ok) Fail(message);
  }
};

/// Latency summary of one op class: p50 and p90 (the tail percentile;
/// runs are sized so at least ten samples lie beyond it), plus count.
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& ms);

/// A generated artifact directory in the `pdx_tool gen` layout:
/// schema.pdx, workload.pdx and config_<i>.pdx.
struct CatalogSpec {
  std::string dir;
  uint32_t num_queries = 0;
  uint32_t num_configs = 0;
  uint64_t seed = 0;
};

/// Writes a TPC-D catalog (generated workload, enumerated candidate
/// configurations) exactly as `pdx_tool gen` lays it out.
void WriteCatalog(const CatalogSpec& spec);

/// Loads every config_<i>.pdx of `dir` until the first missing index.
std::vector<pdx::Configuration> LoadAllConfigs(const std::string& dir,
                                               const pdx::Schema& schema);

/// A near-optimal cloud of `k` candidate configurations: a reference
/// design (greedy fill merged with the next two enumerated designs) plus
/// drop-only neighbourhoods of it, so nearly every candidate is a subset
/// of the reference and many are near-ties. Shuffled.
std::vector<pdx::Configuration> NearOptimalCloud(
    const pdx::WhatIfOptimizer& optimizer, const pdx::Workload& workload,
    uint32_t k, uint64_t seed);

/// Exact workload totals per configuration (|W| * k optimizer calls on a
/// private optimizer, fanned out over the global thread pool).
std::vector<double> ExactTotals(
    const pdx::Schema& schema, const pdx::Workload& workload,
    const std::vector<pdx::Configuration>& configs);

/// True when `best`'s total is within the correctness tolerance of the
/// cheapest total: 0.5% of the optimum, the repository's good-selection
/// yardstick for near-optimal clouds (exact near-ties are legitimate
/// outcomes of the alpha-race at delta = 0).
bool WithinTolerance(const std::vector<double>& totals, uint32_t best);

/// Hex FNV-1a hash of service::SelectionFingerprint(r) — the form the
/// daemon puts on the wire.
std::string FingerprintHex(const pdx::SelectionResult& r);

/// Forwarding cost source that times every call into `inner`: the
/// harness's view of one layer's busy time and call count. Placed under
/// the cache it measures live what-if; above it, the cache as a whole.
class TimingCostSource : public pdx::CostSource {
 public:
  explicit TimingCostSource(pdx::CostSource* inner) : inner_(inner) {}

  double Cost(pdx::QueryId q, pdx::ConfigId c) override;
  void CostMany(std::span<const pdx::QueryId> queries, pdx::ConfigId c,
                std::span<double> out) override;
  void CostAcross(pdx::QueryId q, std::span<const pdx::ConfigId> configs,
                  std::span<double> out) override;
  void CostUncertaintyMany(std::span<const pdx::QueryId> queries,
                           pdx::ConfigId c,
                           std::span<double> out) const override {
    inner_->CostUncertaintyMany(queries, c, out);
  }
  void CostUncertaintyAcross(pdx::QueryId q,
                             std::span<const pdx::ConfigId> configs,
                             std::span<double> out) const override {
    inner_->CostUncertaintyAcross(q, configs, out);
  }
  double CostUncertainty(pdx::QueryId q, pdx::ConfigId c) const override {
    return inner_->CostUncertainty(q, c);
  }
  size_t num_queries() const override { return inner_->num_queries(); }
  size_t num_configs() const override { return inner_->num_configs(); }
  pdx::TemplateId TemplateOf(pdx::QueryId q) const override {
    return inner_->TemplateOf(q);
  }
  size_t num_templates() const override { return inner_->num_templates(); }
  double OptimizeOverhead(pdx::QueryId q) const override {
    return inner_->OptimizeOverhead(q);
  }
  uint64_t num_calls() const override { return inner_->num_calls(); }
  void ResetCallCounter() override { inner_->ResetCallCounter(); }

  /// Wall time spent inside `inner`, and the cells requested of it.
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  uint64_t cells() const { return cells_.load(std::memory_order_relaxed); }

 private:
  void Account(uint64_t t0, uint64_t cells) {
    busy_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    cells_.fetch_add(cells, std::memory_order_relaxed);
  }

  pdx::CostSource* inner_;
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> cells_{0};
};

}  // namespace pdxbench
