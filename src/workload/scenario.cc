#include "workload/scenario.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"
#include "workload/query_builder.h"
#include "workload/sql_text.h"
#include "workload/tpcd_qgen.h"

namespace pdx {

const char* PopularityLawName(PopularityLaw law) {
  switch (law) {
    case PopularityLaw::kUniform: return "uniform";
    case PopularityLaw::kZipfian: return "zipf";
    case PopularityLaw::kSelfSimilar: return "selfsim";
  }
  return "?";
}

PopularitySampler::PopularitySampler(PopularityLaw law, double skew, size_t n)
    : law_(law), skew_(skew), n_(n) {
  PDX_CHECK(n >= 1);
  switch (law_) {
    case PopularityLaw::kUniform:
      break;
    case PopularityLaw::kZipfian:
      PDX_CHECK(skew >= 0.0);
      zipf_.emplace(n, skew);
      break;
    case PopularityLaw::kSelfSimilar:
      PDX_CHECK(skew >= 0.5 && skew < 1.0);
      // CDF F(x) = (x/n)^c with F((1-h)n) = h. c ∈ (0, 1]; c = 1 at
      // h = 0.5 (uniform); c → 0 as h → 1 (all mass on rank 0).
      cdf_exponent_ = skew == 0.5 ? 1.0 : std::log(skew) / std::log1p(-skew);
      break;
  }
}

size_t PopularitySampler::Sample(Rng* rng) const {
  // Every law consumes exactly one uniform variate, so swapping laws at a
  // fixed seed perturbs only the template choices, not later draws.
  switch (law_) {
    case PopularityLaw::kUniform:
      return static_cast<size_t>(rng->NextDouble() * static_cast<double>(n_)) %
             n_;
    case PopularityLaw::kZipfian:
      return zipf_->Sample(rng);
    case PopularityLaw::kSelfSimilar: {
      // Inverse CDF: X = n·u^(1/c), floored; u^(1/c) piles up near 0 for
      // c < 1, so rank 0 is the hottest.
      double u = rng->NextDouble();
      double x = static_cast<double>(n_) * std::pow(u, 1.0 / cdf_exponent_);
      size_t i = static_cast<size_t>(x);
      return i < n_ ? i : n_ - 1;
    }
  }
  return 0;
}

double PopularitySampler::Probability(size_t i) const {
  PDX_CHECK(i < n_);
  switch (law_) {
    case PopularityLaw::kUniform:
      return 1.0 / static_cast<double>(n_);
    case PopularityLaw::kZipfian:
      return zipf_->Probability(i);
    case PopularityLaw::kSelfSimilar: {
      auto cdf = [&](size_t k) {
        return std::pow(static_cast<double>(k) / static_cast<double>(n_),
                        cdf_exponent_);
      };
      return cdf(i + 1) - cdf(i);
    }
  }
  return 0.0;
}

namespace {

bool ParseFullDouble(std::string_view v, double* out) {
  std::string buf(v);
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buf.c_str(), &end);
  if (buf.empty() || errno != 0 || end != buf.c_str() + buf.size()) {
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseFullU64(std::string_view v, uint64_t* out) {
  std::string buf(v);
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(buf.c_str(), &end, 10);
  if (buf.empty() || errno != 0 || end != buf.c_str() + buf.size()) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

Result<ScenarioOptions> ParseScenarioSpec(std::string_view spec) {
  if (spec.empty()) {
    return Status::InvalidArgument(
        "empty scenario spec (expected e.g. 'zipf:0.9,rw:0.8')");
  }
  ScenarioOptions opt;
  bool first = true;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) {
      return Status::InvalidArgument("empty token in scenario spec '" +
                                     std::string(spec) + "'");
    }
    size_t colon = token.find(':');
    std::string_view key = token.substr(0, colon);
    std::string_view value =
        colon == std::string_view::npos ? std::string_view() :
                                          token.substr(colon + 1);
    if (first) {
      first = false;
      if (key == "uniform") {
        if (colon != std::string_view::npos) {
          return Status::InvalidArgument("'uniform' takes no parameter");
        }
        opt.law = PopularityLaw::kUniform;
        opt.skew = 0.0;
        continue;
      }
      if (key == "zipf" || key == "selfsim") {
        double skew;
        if (!ParseFullDouble(value, &skew)) {
          return Status::InvalidArgument("'" + std::string(key) +
                                         "' expects a numeric skew, got '" +
                                         std::string(value) + "'");
        }
        if (key == "zipf") {
          if (skew < 0.0) {
            return Status::InvalidArgument("zipf skew must be >= 0");
          }
          opt.law = PopularityLaw::kZipfian;
        } else {
          if (skew < 0.5 || skew >= 1.0) {
            return Status::InvalidArgument(
                "selfsim skew (the hot fraction h) must be in [0.5, 1)");
          }
          opt.law = PopularityLaw::kSelfSimilar;
        }
        opt.skew = skew;
        continue;
      }
      return Status::InvalidArgument(
          "scenario spec must start with uniform, zipf:T or selfsim:H, "
          "got '" + std::string(token) + "'");
    }
    if (key == "rw") {
      if (!ParseFullDouble(value, &opt.read_fraction) ||
          opt.read_fraction < 0.0 || opt.read_fraction > 1.0) {
        return Status::InvalidArgument(
            "rw expects a read fraction in [0, 1], got '" +
            std::string(value) + "'");
      }
    } else if (key == "disp") {
      if (!ParseFullDouble(value, &opt.dispersion) || opt.dispersion <= 0.0) {
        return Status::InvalidArgument(
            "disp expects a positive dispersion factor, got '" +
            std::string(value) + "'");
      }
    } else if (key == "n") {
      uint64_t n;
      if (!ParseFullU64(value, &n) || n == 0 || n > (1ull << 31)) {
        return Status::InvalidArgument(
            "n expects a positive statement count, got '" +
            std::string(value) + "'");
      }
      opt.num_queries = static_cast<uint32_t>(n);
    } else if (key == "seed") {
      if (!ParseFullU64(value, &opt.seed)) {
        return Status::InvalidArgument("seed expects an unsigned integer, "
                                       "got '" + std::string(value) + "'");
      }
    } else if (key == "lookups") {
      if (value == "0") {
        opt.include_point_lookups = false;
      } else if (value == "1") {
        opt.include_point_lookups = true;
      } else {
        return Status::InvalidArgument("lookups expects 0 or 1, got '" +
                                       std::string(value) + "'");
      }
    } else {
      return Status::InvalidArgument("unknown scenario knob '" +
                                     std::string(key) + "'");
    }
  }
  return opt;
}

std::string FormatScenarioSpec(const ScenarioOptions& options) {
  std::string out = PopularityLawName(options.law);
  if (options.law != PopularityLaw::kUniform) {
    out += ":" + StringFormat("%.6g", options.skew);
  }
  out += StringFormat(",rw:%.6g", options.read_fraction);
  out += StringFormat(",disp:%.6g", options.dispersion);
  out += StringFormat(",n:%u", options.num_queries);
  out += StringFormat(",seed:%llu",
                      static_cast<unsigned long long>(options.seed));
  if (!options.include_point_lookups) out += ",lookups:0";
  return out;
}

Workload GenerateScenarioWorkload(const Schema& schema,
                                  const ScenarioOptions& options) {
  PDX_CHECK(schema.name() == "tpcd");
  PDX_CHECK(options.num_queries > 0);
  PDX_CHECK(options.read_fraction >= 0.0 && options.read_fraction <= 1.0);
  Rng rng(options.seed);
  Workload wl(&schema);

  std::vector<TpcdTemplateSpec> specs =
      TpcdTemplateBank(options.include_point_lookups);
  const size_t num_reads = specs.size();
  const double write_fraction = 1.0 - options.read_fraction;
  if (write_fraction > 0.0) {
    std::vector<TpcdTemplateSpec> dml = TpcdDmlTemplateBank();
    specs.insert(specs.end(), dml.begin(), dml.end());
  }
  const size_t num_dml = specs.size() - num_reads;

  // Register templates; table list and signature come from a probe
  // instance (same idiom as GenerateTpcdWorkload).
  for (size_t i = 0; i < specs.size(); ++i) {
    Rng probe_rng(options.seed ^ 0xABCDEF);
    QueryBuilder probe_builder(schema, &probe_rng);
    Query probe = specs[i].build(probe_builder, static_cast<TemplateId>(i));
    QueryTemplate tmpl;
    tmpl.name = specs[i].name;
    tmpl.kind = specs[i].kind;
    for (const TableAccess& a : probe.select.accesses) {
      tmpl.tables.push_back(a.table);
    }
    if (probe.update.has_value()) {
      bool present = false;
      for (TableId tab : tmpl.tables) present = present || tab == probe.update->table;
      if (!present) tmpl.tables.push_back(probe.update->table);
    }
    tmpl.signature = SqlTemplateSignature(RenderSql(schema, probe));
    TemplateId tid = wl.AddTemplate(std::move(tmpl));
    PDX_CHECK(tid == static_cast<TemplateId>(i));
  }

  // One popularity sampler per statement class, both under the same law:
  // the hottest SELECT template and the hottest DML template each take
  // rank 0 of their class.
  PopularitySampler read_law(options.law, options.skew, num_reads);
  std::optional<PopularitySampler> dml_law;
  if (num_dml > 0) dml_law.emplace(options.law, options.skew, num_dml);

  // Instantiate statements from one sequential RNG stream: (optional)
  // read/write coin, template rank, then the template's parameter draws.
  // Generation is single-threaded by construction, which is what makes
  // the bit-identical-across-thread-counts claim structural.
  wl.Reserve(options.num_queries);
  QueryBuilder b(schema, &rng, options.dispersion);
  for (uint32_t i = 0; i < options.num_queries; ++i) {
    bool is_write =
        write_fraction > 0.0 && rng.NextBernoulli(write_fraction);
    size_t ti = is_write ? num_reads + dml_law->Sample(&rng)
                         : read_law.Sample(&rng);
    wl.AddQuery(specs[ti].build(b, static_cast<TemplateId>(ti)));
  }

  PDX_CHECK(wl.Validate().ok());
  return wl;
}

}  // namespace pdx
