// select-skewed: one client in a closed loop over a catalog built in
// set-up — a Zipf-0.99, 80%-read scenario workload of 20k statements and
// a k=100 near-optimal cloud of saved candidate configurations. Each op
// builds a fresh exact cache over live what-if and runs one selection at
// a new seed. No artifact is loaded per op: the selector (estimators,
// stratification, elimination) and what-if pricing do all the work.
#include <filesystem>
#include <optional>

#include "catalog/tpcd_schema.h"
#include "common/string_util.h"
#include "optimizer/serialization.h"
#include "optimizer/what_if.h"
#include "single_client.h"
#include "workload/scenario.h"
#include "workloads.h"

namespace pdxbench {

namespace {

struct Sizes {
  uint32_t queries;
  uint32_t configs;
  int setup_reps;
  LoopSpec loop;
};

Sizes SizesFor(const Args& args) {
  if (args.tiny) return {2000, 10, 3, {1, 4}};
  return {20000, 100, 9, {2, 200}};
}

/// The program-side catalog, as `compare --workload=SPEC` builds it: the
/// saved schema and candidates, the scenario workload generated from its
/// spec, and the optimizer over them.
struct Catalog {
  std::optional<pdx::Schema> schema;
  std::optional<pdx::Workload> workload;
  std::vector<pdx::Configuration> configs;
  std::optional<pdx::WhatIfOptimizer> optimizer;
};

struct SetupTimes {
  double total_s = 0.0;
  double load_schema_ms = 0.0;
  double generate_ms = 0.0;
  double load_configs_ms = 0.0;
};

/// Builds the catalog from `dir` and `spec`; false when an artifact
/// cannot be read.
bool BuildCatalog(const std::string& dir, const pdx::ScenarioOptions& spec,
                  Catalog* cat, SetupTimes* times) {
  cat->optimizer.reset();
  cat->configs.clear();
  cat->workload.reset();
  cat->schema.reset();
  const uint64_t t0 = NowNs();
  auto schema = pdx::LoadSchema(dir + "/schema.pdx");
  if (!schema.ok()) return false;
  cat->schema.emplace(std::move(*schema));
  times->load_schema_ms = MsSince(t0);
  uint64_t t = NowNs();
  cat->workload.emplace(pdx::GenerateScenarioWorkload(*cat->schema, spec));
  times->generate_ms = MsSince(t);
  t = NowNs();
  cat->configs = LoadAllConfigs(dir, *cat->schema);
  times->load_configs_ms = MsSince(t);
  cat->optimizer.emplace(*cat->schema);
  times->total_s = MsSince(t0) / 1e3;
  return !cat->configs.empty();
}

OpRecord SelectOp(const Catalog& cat, uint64_t seed, uint64_t op,
                  Tracer* tracer, LayerTotals* layers) {
  OpRecord rec;
  rec.seed = seed;
  rec.traced = tracer != nullptr;
  LayerTotals untraced;
  LayerTotals& lt = tracer != nullptr ? *layers : untraced;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan root(tracer, "select-skewed.op", op);
    std::optional<CacheStack> stack;
    {
      ScopedSpan span(tracer, "core.cache.construct", op, root.id());
      const uint64_t c0 = NowNs();
      stack.emplace(*cat.optimizer, *cat.workload, cat.configs,
                    tracer != nullptr);
      lt.cache_construct_ms += MsSince(c0);
    }
    stack->Select(seed, tracer, op, root.id(), &lt, &rec);
    rec.ok = true;
  }
  rec.ms = MsSince(t0);
  if (tracer != nullptr) ++lt.ops;
  return rec;
}

}  // namespace

void RunSelectSkewed(const Args& args, Tracer* tracer, Report* report) {
  const Sizes sz = SizesFor(args);
  pdx::ScenarioOptions spec;
  spec.law = pdx::PopularityLaw::kZipfian;
  spec.skew = 0.99;
  spec.read_fraction = 0.8;
  spec.num_queries = sz.queries;
  spec.seed = kCatalogSeed;
  report->shape["scenario"] = pdx::FormatScenarioSpec(spec);
  report->shape["catalog"] = pdx::StringFormat(
      "%u queries x %u near-optimal configs", sz.queries, sz.configs);
  report->shape["clients"] = "1";

  // Harness inputs, outside any timing: the schema and a near-optimal
  // cloud of candidates for the scenario, saved as `pdx_tool gen` would.
  const std::string dir = args.data_dir + "/select-skewed";
  {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const pdx::Schema schema = pdx::MakeTpcdSchema();
    const pdx::Workload workload = pdx::GenerateScenarioWorkload(schema, spec);
    const pdx::WhatIfOptimizer optimizer(schema);
    const std::vector<pdx::Configuration> cloud =
        NearOptimalCloud(optimizer, workload, sz.configs, kCatalogSeed);
    report->Check(cloud.size() == sz.configs,
                  "near-optimal cloud has the wrong size");
    bool saved = pdx::SaveSchema(schema, dir + "/schema.pdx").ok();
    for (size_t c = 0; c < cloud.size(); ++c) {
      saved &= pdx::SaveConfiguration(cloud[c], schema,
                                      pdx::StringFormat("%s/config_%zu.pdx",
                                                        dir.c_str(), c))
                   .ok();
    }
    if (!saved) return report->Fail("cannot write the select-skewed catalog");
  }

  // Program set-up, repeated: the last catalog built is the one used.
  std::vector<SetupTimes> setups(static_cast<size_t>(sz.setup_reps));
  Catalog cat;
  for (SetupTimes& t : setups) {
    if (!BuildCatalog(dir, spec, &cat, &t)) {
      return report->Fail("cannot load the select-skewed catalog");
    }
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  report->Set("setup_s", median_of(&SetupTimes::total_s), "s");

  // Ground truth, outside any timing: a replay matrix of every (query,
  // configuration) cost gives both the exact totals and each op's batch
  // reference.
  const pdx::WhatIfOptimizer truth_optimizer(*cat.schema);
  pdx::MatrixCostSource matrix = pdx::MatrixCostSource::Precompute(
      truth_optimizer, *cat.workload, cat.configs);
  std::vector<double> totals(cat.configs.size());
  for (size_t c = 0; c < totals.size(); ++c) totals[c] = matrix.TotalCost(c);

  LayerTotals layers;
  const std::vector<OpRecord> ops = RunSingleClient(
      args, sz.loop, tracer,
      [&](uint64_t seed, uint64_t op, Tracer* t) {
        return SelectOp(cat, seed, op, t, &layers);
      },
      [&](uint64_t seed) {
        pdx::Rng rng(seed);
        pdx::ConfigurationSelector selector(&matrix, pdx::SelectorOptions());
        return FingerprintHex(selector.Run(&rng));
      },
      totals, report);
  if (tracer == nullptr) return;
  report->Set("optimizer.serialization.load_schema_ms",
              median_of(&SetupTimes::load_schema_ms), "ms");
  report->Set("optimizer.serialization.load_configs_ms",
              median_of(&SetupTimes::load_configs_ms), "ms");
  report->Set("workload.scenario.generate_ms",
              median_of(&SetupTimes::generate_ms), "ms");
  ReportSelectionLayers(layers, ops, report);
}

}  // namespace pdxbench
