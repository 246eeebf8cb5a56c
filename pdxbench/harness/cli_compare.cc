// cli-compare: the batch `compare` path, called in-process by one client
// in a closed loop. Each op loads schema, workload and configurations
// from a 50k-query x 100-configuration catalog (written once per run and
// read back from the page cache), builds the what-if optimizer and the
// default exact cache, and runs one Delta selection at a per-op seed.
// Artifact load dominates the op, so the load path shows here and
// selection changes barely do.
#include <optional>

#include "common/string_util.h"
#include "optimizer/serialization.h"
#include "optimizer/what_if.h"
#include "single_client.h"
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
  if (args.tiny) return {2000, 10, 2, {1, 4}};
  return {50000, 100, 5, {2, 80}};
}

/// Times `fn` under a span named `name` and adds the duration to `*ms`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, uint64_t op, int32_t parent,
           double* ms, Fn&& fn) {
  ScopedSpan span(tracer, name, op, parent);
  const uint64_t t0 = NowNs();
  auto out = fn();
  *ms += MsSince(t0);
  return out;
}

/// The compare command: artifact load, optimizer and exact-cache
/// construction, one selection. `tracer` non-null makes a traced op.
OpRecord CompareOp(const std::string& dir, uint64_t seed, uint64_t op,
                   Tracer* tracer, LayerTotals* layers) {
  OpRecord rec;
  rec.seed = seed;
  rec.traced = tracer != nullptr;
  LayerTotals untraced;
  LayerTotals& lt = tracer != nullptr ? *layers : untraced;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan root(tracer, "cli-compare.op", op);
    const int32_t r = root.id();
    // Held in optionals so their teardown (freeing the workload and the
    // cache table) is timed as its own span rather than as harness time.
    std::optional<pdx::Result<pdx::Schema>> schema;
    std::optional<pdx::Result<pdx::Workload>> workload;
    std::optional<pdx::WhatIfOptimizer> optimizer;
    std::optional<CacheStack> stack;
    schema.emplace(Timed(tracer, "optimizer.serialization.load_schema", op, r,
                         &lt.load_schema_ms,
                         [&] { return pdx::LoadSchema(dir + "/schema.pdx"); }));
    if (!schema->ok()) return rec;
    workload.emplace(Timed(
        tracer, "optimizer.serialization.load_workload", op, r,
        &lt.load_workload_ms,
        [&] { return pdx::LoadWorkload(dir + "/workload.pdx", **schema); }));
    if (!workload->ok()) return rec;
    std::vector<pdx::Configuration> configs =
        Timed(tracer, "optimizer.serialization.load_configs", op, r,
              &lt.load_configs_ms,
              [&] { return LoadAllConfigs(dir, **schema); });
    if (configs.empty()) return rec;
    {
      ScopedSpan span(tracer, "core.cache.construct", op, r);
      const uint64_t c0 = NowNs();
      optimizer.emplace(**schema);
      stack.emplace(*optimizer, **workload, std::move(configs),
                    tracer != nullptr);
      lt.cache_construct_ms += MsSince(c0);
    }
    stack->Select(seed, tracer, op, r, &lt, &rec);
    rec.ok = true;
    ScopedSpan teardown(tracer, "cli-compare.teardown", op, r);
    stack.reset();
    optimizer.reset();
    workload.reset();
    schema.reset();
  }
  rec.ms = MsSince(t0);
  if (tracer != nullptr) ++lt.ops;
  return rec;
}

/// The program's set-up before a compare can start: artifact load plus
/// optimizer and exact-cache construction, without the selection.
double SetupOnce(const std::string& dir) {
  const uint64_t t0 = NowNs();
  auto schema = pdx::LoadSchema(dir + "/schema.pdx");
  if (!schema.ok()) return -1.0;
  auto workload = pdx::LoadWorkload(dir + "/workload.pdx", *schema);
  if (!workload.ok()) return -1.0;
  std::vector<pdx::Configuration> configs = LoadAllConfigs(dir, *schema);
  if (configs.empty()) return -1.0;
  pdx::WhatIfOptimizer optimizer(*schema);
  CacheStack stack(optimizer, *workload, std::move(configs), false);
  return MsSince(t0) / 1e3;
}

}  // namespace

void RunCliCompare(const Args& args, Tracer* tracer, Report* report) {
  const Sizes sz = SizesFor(args);
  CatalogSpec spec;
  spec.dir = args.data_dir + "/cli-compare";
  spec.num_queries = sz.queries;
  spec.num_configs = sz.configs;
  spec.seed = kCatalogSeed;
  WriteCatalog(spec);
  report->shape["catalog"] = pdx::StringFormat("%u queries x %u configs",
                                               sz.queries, sz.configs);
  report->shape["clients"] = "1";

  // The harness's own copy, for ground truth and batch references.
  auto schema = pdx::LoadSchema(spec.dir + "/schema.pdx");
  if (!schema.ok()) return report->Fail("cannot load the generated schema");
  auto workload = pdx::LoadWorkload(spec.dir + "/workload.pdx", *schema);
  if (!workload.ok()) return report->Fail("cannot load the generated workload");
  const std::vector<pdx::Configuration> configs =
      LoadAllConfigs(spec.dir, *schema);
  report->Check(configs.size() == sz.configs,
                "generated catalog has the wrong configuration count");
  const std::vector<double> totals = ExactTotals(*schema, *workload, configs);
  const pdx::WhatIfOptimizer ref_optimizer(*schema);

  std::vector<double> setup_s;
  for (int i = 0; i < sz.setup_reps; ++i) {
    setup_s.push_back(SetupOnce(spec.dir));
  }
  report->Set("setup_s", Median(setup_s), "s");

  LayerTotals layers;
  const std::vector<OpRecord> ops = RunSingleClient(
      args, sz.loop, tracer,
      [&](uint64_t seed, uint64_t op, Tracer* t) {
        return CompareOp(spec.dir, seed, op, t, &layers);
      },
      [&](uint64_t seed) {
        pdx::WhatIfCostSource live(ref_optimizer, *workload, configs);
        pdx::CachingCostSource cache(&live);
        pdx::Rng rng(seed);
        pdx::ConfigurationSelector selector(&cache, pdx::SelectorOptions());
        return FingerprintHex(selector.Run(&rng));
      },
      totals, report);
  if (tracer == nullptr || layers.ops == 0) return;

  const double k = static_cast<double>(layers.ops);
  report->Set("optimizer.serialization.load_schema_ms",
              layers.load_schema_ms / k, "ms");
  report->Set("optimizer.serialization.load_workload_ms",
              layers.load_workload_ms / k, "ms");
  report->Set("optimizer.serialization.load_configs_ms",
              layers.load_configs_ms / k, "ms");
  report->Set("optimizer.serialization.workload_mb_per_s",
              FileMb(spec.dir + "/workload.pdx") * k /
                  (layers.load_workload_ms / 1e3),
              "MB/s");
  ReportSelectionLayers(layers, ops, report);
}

}  // namespace pdxbench
