#include "common.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_set>

#include "catalog/tpcd_schema.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "optimizer/serialization.h"
#include "optimizer/what_if.h"
#include "service/protocol.h"
#include "tuner/enumerator.h"
#include "workload/tpcd_qgen.h"

namespace pdxbench {

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: pdx_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--data-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) Usage("unexpected argument '" + key + "'");
    const size_t eq = key.find('=');
    const bool flag_only = key == "--tiny" || key == "--corrupt-reference";
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (!flag_only) {
      if (i + 1 >= argc) Usage(key + " needs a value");
      value = argv[++i];
    }
    uint64_t u = 0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      if (!ParseU64(value, &args.seed)) Usage("--seed expects an integer");
    } else if (key == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds expects a positive number");
      }
    } else if (key == "--trace") {
      if (!ParseU64(value, &u) || u > 1) Usage("--trace expects 0 or 1");
      args.trace = u == 1;
    } else if (key == "--tiny") {
      args.tiny = true;
    } else if (key == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage("unknown flag '" + key + "'");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

uint64_t OpSeed(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

RssSampler::RssSampler() {
  Sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Sample();
    }
  });
}

void RssSampler::Sample() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return;
  unsigned long long size = 0, resident = 0;
  if (std::fscanf(f, "%llu %llu", &size, &resident) == 2 &&
      resident > peak_pages_.load(std::memory_order_relaxed)) {
    peak_pages_.store(resident, std::memory_order_relaxed);
  }
  std::fclose(f);
}

double RssSampler::Stop() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
    Sample();
  }
  return static_cast<double>(peak_pages_.load() *
                             static_cast<uint64_t>(sysconf(_SC_PAGESIZE))) /
         (1024.0 * 1024.0);
}

double FileMb(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / 1e6;
}

void Report::Fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& ms) {
  report->Set(prefix + "_p50", Percentile(ms, 0.5), "ms");
  report->Set(prefix + "_p90", Percentile(ms, 0.9), "ms");
  report->shape[prefix + "_samples"] = std::to_string(ms.size());
}

void WriteCatalog(const CatalogSpec& spec) {
  // A previous catalog in the directory may hold more config files.
  std::filesystem::remove_all(spec.dir);
  std::filesystem::create_directories(spec.dir);
  pdx::Schema schema = pdx::MakeTpcdSchema();
  pdx::TpcdWorkloadOptions wopt;
  wopt.num_queries = spec.num_queries;
  wopt.seed = 20060406 + spec.seed;
  pdx::Workload workload = pdx::GenerateTpcdWorkload(schema, wopt);
  pdx::WhatIfOptimizer optimizer(schema);
  pdx::Rng rng(spec.seed);
  pdx::EnumeratorOptions eopt;
  eopt.num_configs = spec.num_configs;
  std::vector<pdx::Configuration> configs =
      pdx::EnumerateConfigurations(optimizer, workload, eopt, &rng);
  auto check = [&](const pdx::Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "error: writing %s: %s\n", spec.dir.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
  };
  check(pdx::SaveSchema(schema, spec.dir + "/schema.pdx"));
  check(pdx::SaveWorkload(workload, spec.dir + "/workload.pdx"));
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::string path =
        spec.dir + "/config_" + std::to_string(c) + ".pdx";
    check(pdx::SaveConfiguration(configs[c], schema, path));
  }
}

std::vector<pdx::Configuration> LoadAllConfigs(const std::string& dir,
                                               const pdx::Schema& schema) {
  std::vector<pdx::Configuration> configs;
  for (size_t c = 0;; ++c) {
    auto loaded = pdx::LoadConfiguration(
        dir + "/config_" + std::to_string(c) + ".pdx", schema);
    if (!loaded.ok()) break;
    configs.push_back(std::move(*loaded));
  }
  return configs;
}

std::vector<pdx::Configuration> NearOptimalCloud(
    const pdx::WhatIfOptimizer& optimizer, const pdx::Workload& workload,
    uint32_t k, uint64_t seed) {
  pdx::Rng rng(seed);
  pdx::EnumeratorOptions eopt;
  eopt.num_configs = 3;
  std::vector<pdx::Configuration> seeds =
      pdx::EnumerateConfigurations(optimizer, workload, eopt, &rng);
  pdx::Configuration reference = seeds[0];
  for (size_t i = 1; i < seeds.size(); ++i) {
    reference = reference.Merge(seeds[i]);
  }
  reference.set_name("reference");
  const std::vector<pdx::ScoredStructure> scored =
      pdx::ScoreCandidates(optimizer, workload, eopt, &rng);

  std::vector<pdx::Configuration> cloud = {reference};
  std::unordered_set<uint64_t> seen = {reference.Hash()};
  for (uint32_t drop = 1; cloud.size() < k && drop < 24; ++drop) {
    std::vector<pdx::Configuration> more = pdx::EnumerateNeighborhood(
        reference, scored, k - static_cast<uint32_t>(cloud.size()), drop,
        /*add=*/0, &rng);
    for (pdx::Configuration& c : more) {
      if (cloud.size() >= k) break;
      if (seen.insert(c.Hash()).second) cloud.push_back(std::move(c));
    }
  }
  rng.Shuffle(&cloud);
  return cloud;
}

std::vector<double> ExactTotals(
    const pdx::Schema& schema, const pdx::Workload& workload,
    const std::vector<pdx::Configuration>& configs) {
  const pdx::WhatIfOptimizer optimizer(schema);
  std::vector<double> totals(configs.size());
  pdx::GlobalThreadPool().ParallelFor(
      0, configs.size(), 1, [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          totals[c] = optimizer.TotalCost(workload, configs[c]);
        }
      });
  return totals;
}

bool WithinTolerance(const std::vector<double>& totals, uint32_t best) {
  const double optimum = *std::min_element(totals.begin(), totals.end());
  return best < totals.size() && totals[best] <= 1.005 * optimum;
}

std::string FingerprintHex(const pdx::SelectionResult& r) {
  return pdx::StringFormat(
      "%016llx", static_cast<unsigned long long>(pdx::service::FingerprintHash(
                     pdx::service::SelectionFingerprint(r))));
}

double TimingCostSource::Cost(pdx::QueryId q, pdx::ConfigId c) {
  const uint64_t t0 = NowNs();
  const double v = inner_->Cost(q, c);
  Account(t0, 1);
  return v;
}

void TimingCostSource::CostMany(std::span<const pdx::QueryId> queries,
                                pdx::ConfigId c, std::span<double> out) {
  const uint64_t t0 = NowNs();
  inner_->CostMany(queries, c, out);
  Account(t0, queries.size());
}

void TimingCostSource::CostAcross(pdx::QueryId q,
                                  std::span<const pdx::ConfigId> configs,
                                  std::span<double> out) {
  const uint64_t t0 = NowNs();
  inner_->CostAcross(q, configs, out);
  Account(t0, configs.size());
}

}  // namespace pdxbench
