// Bit-identity pin for the workload representation: every what-if cost
// over three workloads (TPC-D, CRM trace, Zipf read/write scenario) × 8
// enumerated configurations, and the bytes SaveWorkload writes, hashed and
// compared against constants recorded from the reference tree. Each
// workload is checked twice: as generated, and after a LoadWorkload round
// trip. A change to how queries are stored, generated or decoded must
// leave every hash where it is.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "optimizer/serialization.h"
#include "optimizer/what_if.h"
#include "test_util.h"
#include "tuner/enumerator.h"
#include "workload/scenario.h"

namespace pdx {
namespace {

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over the "%a" text of Cost(q, c) for every configuration, then
/// every query in id order.
uint64_t CostHash(const Workload& wl, const std::vector<Configuration>& configs) {
  WhatIfOptimizer opt(wl.schema());
  uint64_t h = kFnvBasis;
  for (const Configuration& c : configs) {
    for (const Query& q : wl.queries()) {
      h = Fnv1a(h, StringFormat("%a\n", opt.Cost(q, c)));
    }
  }
  return h;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Pinned {
  uint64_t costs;
  uint64_t bytes;
};

/// Checks `wl` as generated and after a save/load round trip.
void CheckPinned(const std::string& name, const Workload& wl,
                 const Pinned& want) {
  Rng rng(4242);
  EnumeratorOptions eopt;
  eopt.num_configs = 8;
  const std::vector<Configuration> configs =
      EnumerateConfigurations(WhatIfOptimizer(wl.schema()), wl, eopt, &rng);
  ASSERT_EQ(configs.size(), 8u);

  const std::string dir = testing::ProcessTempDir("workload_pin_" + name);
  const std::string path = dir + "/workload.pdx";
  ASSERT_TRUE(SaveWorkload(wl, path).ok());
  const std::string saved = ReadAll(path);
  EXPECT_EQ(CostHash(wl, configs), want.costs) << name << " as generated";
  EXPECT_EQ(Fnv1a(kFnvBasis, saved), want.bytes) << name << " as generated";

  auto loaded = LoadWorkload(path, wl.schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string resaved_path = dir + "/resaved.pdx";
  ASSERT_TRUE(SaveWorkload(*loaded, resaved_path).ok());
  EXPECT_EQ(CostHash(*loaded, configs), want.costs) << name << " reloaded";
  EXPECT_EQ(Fnv1a(kFnvBasis, ReadAll(resaved_path)), want.bytes)
      << name << " reloaded";
}

TEST(WorkloadPinTest, TpcdCostsAndBytes) {
  const Schema schema = testing::SmallTpcdSchema();
  const Workload wl = testing::SmallTpcdWorkload(schema, 2000, 11);
  CheckPinned("tpcd", wl, {0x1298116d42d4a6a3ULL, 0xb33097c472da9fdaULL});
}

TEST(WorkloadPinTest, CrmTraceCostsAndBytes) {
  const Schema schema = testing::SmallCrmSchema();
  const Workload wl = testing::SmallCrmTrace(schema, 2000, 12);
  CheckPinned("crm", wl, {0x32ce3cee7822c5deULL, 0xd4ca56bf0852dba4ULL});
}

TEST(WorkloadPinTest, ZipfReadWriteScenarioCostsAndBytes) {
  const Schema schema = testing::SmallTpcdSchema();
  auto spec = ParseScenarioSpec("zipf:0.99,rw:0.8,n:2000,seed:13");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Workload wl = GenerateScenarioWorkload(schema, *spec);
  CheckPinned("zipf", wl, {0x4d36f2ca1144ac5fULL, 0x5ade6e0d697c4950ULL});
}

}  // namespace
}  // namespace pdx
