#include "validation/golden.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/cost_source.h"
#include "core/fault.h"
#include "core/selection_trace.h"
#include "core/selector.h"
#include "optimizer/cost_bounds.h"
#include "validation/property.h"
#include "workload/scenario.h"

#ifndef PDX_GOLDEN_DEFAULT_DIR
#define PDX_GOLDEN_DEFAULT_DIR "tests/golden"
#endif

namespace pdx {

std::string GoldenDir() {
  const char* env = std::getenv("PDX_GOLDEN_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return PDX_GOLDEN_DEFAULT_DIR;
}

std::vector<std::string> GoldenCaseNames() {
  return {"delta_stratified",       "independent_unstratified",
          "fault_degraded",         "zipf_scenario",
          "independent_stratified", "delta_dynamic_budget"};
}

namespace {

/// The canonical selection problem most cases run on: 120 queries
/// over 6 templates with two orders of magnitude of per-template scale,
/// 4 configurations with ~3% relative total gaps. Deterministic.
MatrixInstance BuildGoldenMatrix() {
  Rng rng(0x601Dull);
  MatrixInstance inst;
  inst.seed = 0x601Dull;
  inst.shape = MatrixShape::kUniform;
  const size_t q = 120, configs = 4, templates = 6;
  inst.num_configs = configs;
  inst.num_templates = templates;
  inst.templates.resize(q);
  for (size_t i = 0; i < q; ++i) {
    inst.templates[i] = i < templates
                            ? static_cast<TemplateId>(i)
                            : static_cast<TemplateId>(rng.NextBounded(templates));
  }
  rng.Shuffle(&inst.templates);
  std::vector<double> scale(templates);
  for (size_t t = 0; t < templates; ++t) {
    scale[t] = 10.0 * std::pow(10.0, 2.0 * t / (templates - 1.0));
  }
  inst.costs.assign(q, std::vector<double>(configs, 0.0));
  for (size_t i = 0; i < q; ++i) {
    const double base = scale[inst.templates[i]] * rng.NextDouble(0.7, 1.3);
    for (size_t c = 0; c < configs; ++c) {
      inst.costs[i][c] = base * (1.0 + 0.03 * static_cast<double>(c)) *
                         (1.0 + 0.04 * rng.NextDouble());
    }
  }
  return inst;
}

/// Zipf-0.9 variant: the same cost texture as the canonical matrix, but
/// the template stream comes from the scenario suite's PopularitySampler
/// at Zipf 0.9 over 8 templates — the golden pins both the sampler's
/// exact draw sequence and the stratified selector's split behavior under
/// heavy popularity skew (rank 0 carries ~31% of the mass).
MatrixInstance BuildZipfGoldenMatrix() {
  Rng rng(0x21BF09ull);
  MatrixInstance inst;
  inst.seed = 0x21BF09ull;
  inst.shape = MatrixShape::kUniform;
  const size_t q = 160, configs = 4, templates = 8;
  inst.num_configs = configs;
  inst.num_templates = templates;
  const PopularitySampler sampler(PopularityLaw::kZipfian, 0.9, templates);
  inst.templates.resize(q);
  for (size_t i = 0; i < q; ++i) {
    inst.templates[i] = static_cast<TemplateId>(sampler.Sample(&rng));
  }
  std::vector<double> scale(templates);
  for (size_t t = 0; t < templates; ++t) {
    scale[t] = 10.0 * std::pow(10.0, 2.0 * t / (templates - 1.0));
  }
  inst.costs.assign(q, std::vector<double>(configs, 0.0));
  for (size_t i = 0; i < q; ++i) {
    const double base = scale[inst.templates[i]] * rng.NextDouble(0.7, 1.3);
    for (size_t c = 0; c < configs; ++c) {
      inst.costs[i][c] = base * (1.0 + 0.03 * static_cast<double>(c)) *
                         (1.0 + 0.04 * rng.NextDouble());
    }
  }
  return inst;
}

/// The Independent stratified case needs a larger instance: on the
/// canonical 120-query matrix Independent Sampling never splits a
/// stratum nor eliminates a configuration. 2000 queries round-robin over
/// 12 templates whose scale spans three orders of magnitude, 6
/// configurations sharing each query's cost factor, configuration 0
/// best by ~6%. Deterministic.
MatrixInstance BuildIndependentGoldenMatrix() {
  Rng rng(0x1DE5ull);
  MatrixInstance inst;
  inst.seed = 0x1DE5ull;
  inst.shape = MatrixShape::kUniform;
  const size_t q = 2000, configs = 6, templates = 12;
  inst.num_configs = configs;
  inst.num_templates = templates;
  inst.templates.resize(q);
  inst.costs.assign(q, std::vector<double>(configs, 0.0));
  for (size_t i = 0; i < q; ++i) {
    const TemplateId t = static_cast<TemplateId>(i % templates);
    inst.templates[i] = t;
    const double base = std::pow(10.0, 1.0 + 3.0 * t / double(templates));
    const double query_factor =
        std::max(0.05, 1.0 + 0.2 * rng.NextGaussian());
    for (size_t c = 0; c < configs; ++c) {
      const double config_factor =
          c == 0 ? 1.0 : 1.0 + 0.06 * (1.0 + 0.3 * static_cast<double>(c - 1));
      const double noise = std::max(0.1, 1.0 + 0.05 * rng.NextGaussian());
      inst.costs[i][c] =
          std::max(0.01, base * query_factor * config_factor * noise);
    }
  }
  return inst;
}

class GoldenRowBoundsProvider : public CellBoundsProvider {
 public:
  explicit GoldenRowBoundsProvider(const MatrixInstance* inst) : inst_(inst) {}

  CostInterval BoundsFor(QueryId q, ConfigId /*c*/) override {
    const auto& row = inst_->costs[q];
    CostInterval iv;
    iv.low = *std::min_element(row.begin(), row.end());
    iv.high = *std::max_element(row.begin(), row.end());
    return iv;
  }

 private:
  const MatrixInstance* inst_;
};

std::string TempTracePath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
  return StringFormat("%s/pdx_golden_%s_%d.jsonl", tmp, name.c_str(),
                      static_cast<int>(getpid()));
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::string content;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t wrote = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (wrote != content.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace

std::string ProduceGoldenContent(const std::string& name) {
  const MatrixInstance inst =
      name == "zipf_scenario"            ? BuildZipfGoldenMatrix()
      : name == "independent_stratified" ? BuildIndependentGoldenMatrix()
                                         : BuildGoldenMatrix();
  MatrixCostSource source(inst.costs, inst.templates, inst.num_configs);

  SelectorOptions opts;
  opts.alpha = 0.95;
  opts.delta = 0.005 * inst.TotalCost(0);
  opts.n_min = 10;

  std::unique_ptr<FaultInjectingCostSource> faults;
  GoldenRowBoundsProvider bounds(&inst);
  CostSource* top = &source;
  uint64_t run_seed = 0;
  if (name == "delta_stratified") {
    opts.scheme = SamplingScheme::kDelta;
    opts.stratify = true;
    run_seed = 0x601D0001ull;
  } else if (name == "independent_unstratified") {
    opts.scheme = SamplingScheme::kIndependent;
    opts.stratify = false;
    run_seed = 0x601D0002ull;
  } else if (name == "fault_degraded") {
    opts.scheme = SamplingScheme::kDelta;
    opts.stratify = true;
    run_seed = 0x601D0003ull;
    FaultSpec spec;
    spec.p_fail = 0.35;
    spec.seed = 0x601DFA17ull;
    faults = std::make_unique<FaultInjectingCostSource>(&source, spec);
    top = faults.get();
    opts.exec.enabled = true;
    opts.exec.retry.max_attempts = 2;
    opts.exec.seed = 0x601DE9EC;
    opts.bounds = &bounds;
  } else if (name == "zipf_scenario") {
    opts.scheme = SamplingScheme::kDelta;
    opts.stratify = true;
    run_seed = 0x601D0004ull;
  } else if (name == "independent_stratified") {
    opts.scheme = SamplingScheme::kIndependent;
    opts.stratify = true;
    run_seed = 0x601D0005ull;
  } else if (name == "delta_dynamic_budget") {
    opts.scheme = SamplingScheme::kDelta;
    opts.stratify = true;
    opts.alpha = 0.999;
    opts.budget_policy = BudgetPolicy::kDynamic;
    opts.bounds = &bounds;
    run_seed = 0x601D0006ull;
  } else {
    PDX_CHECK_MSG(false, "unknown golden case name");
  }

  const std::string trace_path = TempTracePath(name);
  SelectionResult result;
  {
    auto sink = JsonlTraceSink::Open(trace_path);
    PDX_CHECK_MSG(sink.ok(), "cannot open golden trace temp file");
    opts.trace = sink->get();
    ConfigurationSelector selector(top, opts);
    Rng rng(run_seed);
    result = selector.Run(&rng);
    // Sink flushed and closed by destructor before the file is read back.
  }
  Result<std::string> raw = ReadFileToString(trace_path);
  std::remove(trace_path.c_str());
  PDX_CHECK_MSG(raw.ok(), "cannot read back golden trace temp file");

  std::string content = *raw;
  content += StringFormat(
      "{\"ev\":\"summary\",\"case\":\"%s\",\"best\":%llu,\"pr_cs\":%.17g,"
      "\"reached\":%s,\"queries\":%llu,\"calls\":%llu,\"rounds\":%llu,"
      "\"degraded\":%llu}\n",
      name.c_str(), (unsigned long long)result.best, result.pr_cs,
      result.reached_target ? "true" : "false",
      (unsigned long long)result.queries_sampled,
      (unsigned long long)result.optimizer_calls,
      (unsigned long long)result.rounds,
      (unsigned long long)result.degraded_cells);
  return NormalizeTraceText(content);
}

std::string NormalizeTraceText(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  bool in_string = false;
  bool escaped = false;
  size_t i = 0;
  const size_t n = raw.size();
  while (i < n) {
    const char c = raw[i];
    if (in_string) {
      out.push_back(c);
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      out.push_back(c);
      ++i;
      continue;
    }
    if (c == '\r') {  // normalize CRLF
      ++i;
      continue;
    }
    const bool starts_number =
        (c == '-' && i + 1 < n && std::isdigit(static_cast<unsigned char>(raw[i + 1]))) ||
        std::isdigit(static_cast<unsigned char>(c));
    if (starts_number) {
      char* end = nullptr;
      const double v = std::strtod(raw.c_str() + i, &end);
      PDX_CHECK(end != raw.c_str() + i);
      out += StringFormat("%.17g", v);
      i = static_cast<size_t>(end - raw.c_str());
      continue;
    }
    out.push_back(c);
    ++i;
  }
  // Exactly one trailing newline.
  while (!out.empty() && out.back() == '\n') out.pop_back();
  out.push_back('\n');
  return out;
}

GoldenOutcome CompareGoldenCase(const std::string& name) {
  GoldenOutcome outcome;
  outcome.name = name;
  const std::string golden_path = GoldenDir() + "/" + name + ".jsonl";
  Result<std::string> golden_raw = ReadFileToString(golden_path);
  if (!golden_raw.ok()) {
    outcome.passed = false;
    outcome.detail = golden_raw.status().message() +
                     " (regenerate with: pdx_tool validate --regen-golden)";
    return outcome;
  }
  const std::string expected = NormalizeTraceText(*golden_raw);
  const std::string produced = ProduceGoldenContent(name);
  if (expected == produced) {
    outcome.passed = true;
    return outcome;
  }
  outcome.passed = false;
  const std::vector<std::string> exp_lines = SplitString(expected, '\n');
  const std::vector<std::string> got_lines = SplitString(produced, '\n');
  const size_t common = std::min(exp_lines.size(), got_lines.size());
  for (size_t i = 0; i < common; ++i) {
    if (exp_lines[i] != got_lines[i]) {
      outcome.detail = StringFormat(
          "first difference at line %zu:\n  golden:   %s\n  produced: %s",
          i + 1, exp_lines[i].c_str(), got_lines[i].c_str());
      return outcome;
    }
  }
  outcome.detail = StringFormat(
      "line counts differ: golden has %zu lines, produced %zu",
      exp_lines.size(), got_lines.size());
  return outcome;
}

std::vector<GoldenOutcome> CompareAllGoldenCases() {
  std::vector<GoldenOutcome> outcomes;
  for (const std::string& name : GoldenCaseNames()) {
    outcomes.push_back(CompareGoldenCase(name));
  }
  return outcomes;
}

Status RegenerateGoldens() {
  for (const std::string& name : GoldenCaseNames()) {
    const std::string path = GoldenDir() + "/" + name + ".jsonl";
    Status s = WriteStringToFile(path, ProduceGoldenContent(name));
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace pdx
