// Copyright (c) the pdexplore authors.
// Shared fixtures and helpers for the test suite: small deterministic
// schemas, workloads and cost matrices, and per-process temp dirs.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/crm_schema.h"
#include "catalog/tpcd_schema.h"
#include "common/rng.h"
#include "core/cost_source.h"
#include "workload/crm_trace.h"
#include "workload/tpcd_qgen.h"

namespace pdx::testing {

/// A fresh, empty directory under the test temp dir, named after `name` and
/// this process's pid, and removed when the process exits. ctest runs every
/// case as its own process, in parallel under -j, so a fixed path shared by
/// several cases would be regenerated under a concurrent reader.
inline std::string ProcessTempDir(const std::string& name) {
  struct Owned {
    std::vector<std::string> dirs;
    ~Owned() {
      std::error_code ec;
      for (const std::string& d : dirs) std::filesystem::remove_all(d, ec);
    }
  };
  static Owned owned;
  std::string dir =
      ::testing::TempDir() + "/" + name + "_" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  if (std::find(owned.dirs.begin(), owned.dirs.end(), dir) ==
      owned.dirs.end()) {
    owned.dirs.push_back(dir);
  }
  return dir;
}

/// A small (scale 0.05) TPC-D schema — fast to cost, same shape.
inline Schema SmallTpcdSchema() {
  TpcdSchemaOptions opt;
  opt.scale_factor = 0.05;
  return MakeTpcdSchema(opt);
}

/// A small TPC-D workload over the given schema.
inline Workload SmallTpcdWorkload(const Schema& schema,
                                  uint32_t num_queries = 600,
                                  uint64_t seed = 123) {
  TpcdWorkloadOptions opt;
  opt.num_queries = num_queries;
  opt.seed = seed;
  return GenerateTpcdWorkload(schema, opt);
}

/// A small CRM schema (fewer tables than the full 520 for speed).
inline Schema SmallCrmSchema() {
  CrmSchemaOptions opt;
  opt.num_tables = 60;
  opt.target_total_bytes = 60ull * 1000 * 1000;
  return MakeCrmSchema(opt);
}

inline Workload SmallCrmTrace(const Schema& schema,
                              uint32_t num_statements = 500,
                              uint64_t seed = 77) {
  CrmTraceOptions opt;
  opt.num_statements = num_statements;
  opt.num_templates = 40;
  opt.seed = seed;
  return GenerateCrmTrace(schema, opt);
}

/// A synthetic cost matrix with controllable structure: config 0 is best
/// by `gap` relative cost; costs are template-skewed and strongly
/// correlated across configurations.
inline MatrixCostSource SyntheticMatrix(size_t num_queries, size_t num_configs,
                                        size_t num_templates, double gap,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> costs(num_queries);
  std::vector<TemplateId> templates(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    TemplateId t = static_cast<TemplateId>(q % num_templates);
    templates[q] = t;
    // Template base cost spans orders of magnitude; queries jitter around
    // it; configurations share the query-specific component (covariance).
    double base = std::pow(10.0, 1.0 + 3.0 * static_cast<double>(t) /
                                            static_cast<double>(num_templates));
    double query_factor = 1.0 + 0.2 * rng.NextGaussian();
    query_factor = std::max(0.05, query_factor);
    costs[q].resize(num_configs);
    for (size_t c = 0; c < num_configs; ++c) {
      double config_factor =
          c == 0 ? 1.0 : 1.0 + gap * (1.0 + 0.3 * static_cast<double>(c - 1));
      double noise = 1.0 + 0.05 * rng.NextGaussian();
      costs[q][c] = std::max(0.01, base * query_factor * config_factor *
                                       std::max(0.1, noise));
    }
  }
  return MatrixCostSource(std::move(costs), std::move(templates));
}

}  // namespace pdx::testing
