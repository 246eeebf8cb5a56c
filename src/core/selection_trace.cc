#include "core/selection_trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "common/obs.h"
#include "common/string_util.h"

namespace pdx {

namespace {

/// Minimal JSON string escaping (the sink only emits strings it builds
/// itself, but reasons may contain quotes or backslashes in the future).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  // %.17g round-trips IEEE doubles bit-exactly; JSON has no nan/inf, so
  // encode those as null (readers treat null as 0).
  if (!(v == v) || v > 1.79e308 || v < -1.79e308) return "null";
  return StringFormat("%.17g", v);
}

}  // namespace

Result<std::unique_ptr<JsonlTraceSink>> JsonlTraceSink::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path + "' for write");
  }
  return std::unique_ptr<JsonlTraceSink>(new JsonlTraceSink(f));
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

void JsonlTraceSink::RunStart(const TraceRunStart& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"run_start\",\"scheme\":\"%s\",\"k\":%llu,"
      "\"templates\":%llu,\"queries\":%llu,\"alpha\":%s,\"delta\":%s,"
      "\"n_min\":%u,\"stratify\":%s,\"elimination_threshold\":%s}",
      e.scheme, static_cast<unsigned long long>(e.num_configs),
      static_cast<unsigned long long>(e.num_templates),
      static_cast<unsigned long long>(e.workload_size),
      JsonDouble(e.alpha).c_str(), JsonDouble(e.delta).c_str(), e.n_min,
      e.stratify ? "true" : "false",
      JsonDouble(e.elimination_threshold).c_str()));
}

void JsonlTraceSink::Round(const TraceRound& e) {
  // Scalars precede the pairs array so first-match extraction in the
  // reader hits the top-level keys.
  std::string line = StringFormat(
      "{\"ev\":\"round\",\"round\":%llu,\"samples\":%llu,\"calls\":%llu,"
      "\"incumbent\":%u,\"pr_cs\":%s,\"active\":%u,\"strata\":%u,"
      "\"pairs\":[",
      static_cast<unsigned long long>(e.round),
      static_cast<unsigned long long>(e.samples),
      static_cast<unsigned long long>(e.optimizer_calls), e.incumbent,
      JsonDouble(e.bonferroni).c_str(), e.active_configs, e.num_strata);
  for (size_t i = 0; i < e.pairs.size(); ++i) {
    const TracePair& p = e.pairs[i];
    line += StringFormat(
        "%s{\"config\":%u,\"pr_cs\":%s,\"gap\":%s,\"se\":%s,\"active\":%s}",
        i == 0 ? "" : ",", p.config, JsonDouble(p.pr_cs).c_str(),
        JsonDouble(p.gap).c_str(), JsonDouble(p.se).c_str(),
        p.active ? "true" : "false");
  }
  line += "]}";
  WriteLine(line);
}

void JsonlTraceSink::Elimination(const TraceElimination& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"eliminate\",\"round\":%llu,\"config\":%u,\"pr_cs\":%s,"
      "\"threshold\":%s,\"reason\":\"%s\"}",
      static_cast<unsigned long long>(e.round), e.config,
      JsonDouble(e.pr_cs).c_str(), JsonDouble(e.threshold).c_str(),
      JsonEscape(e.reason).c_str()));
}

void JsonlTraceSink::Split(const TraceSplit& e) {
  std::string line = StringFormat(
      "{\"ev\":\"split\",\"round\":%llu,\"config\":%d,\"stratum\":%u,"
      "\"new_stratum\":%u,\"est_samples\":%llu,\"part1\":[",
      static_cast<unsigned long long>(e.round), e.config, e.stratum,
      e.new_stratum, static_cast<unsigned long long>(e.est_total_samples));
  for (size_t i = 0; i < e.part1.size(); ++i) {
    line += StringFormat("%s%u", i == 0 ? "" : ",", e.part1[i]);
  }
  line += "],\"neyman\":[";
  for (size_t i = 0; i < e.neyman.size(); ++i) {
    line += (i == 0 ? "" : ",");
    line += JsonDouble(e.neyman[i]);
  }
  line += "]}";
  WriteLine(line);
}

void JsonlTraceSink::Incumbent(const TraceIncumbent& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"incumbent\",\"round\":%llu,\"from\":%u,\"to\":%u}",
      static_cast<unsigned long long>(e.round), e.from, e.to));
}

void JsonlTraceSink::RunEnd(const TraceRunEnd& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"run_end\",\"best\":%u,\"pr_cs\":%s,"
      "\"reached_target\":%s,\"rounds\":%llu,\"samples\":%llu,"
      "\"calls\":%llu,\"active\":%u}",
      e.best, JsonDouble(e.pr_cs).c_str(),
      e.reached_target ? "true" : "false",
      static_cast<unsigned long long>(e.rounds),
      static_cast<unsigned long long>(e.samples),
      static_cast<unsigned long long>(e.optimizer_calls), e.active_configs));
}

void JsonlTraceSink::WhatIfLatency(const TraceWhatIfLatency& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"whatif_latency\",\"bucket\":\"%s\",\"count\":%llu,"
      "\"mean_ns\":%s,\"p50_ns\":%s,\"p95_ns\":%s,\"p99_ns\":%s}",
      JsonEscape(e.bucket).c_str(), static_cast<unsigned long long>(e.count),
      JsonDouble(e.mean_ns).c_str(), JsonDouble(e.p50_ns).c_str(),
      JsonDouble(e.p95_ns).c_str(), JsonDouble(e.p99_ns).c_str()));
}

void JsonlTraceSink::WhatIfError(const TraceWhatIfError& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"whatif_error\",\"kind\":\"%s\",\"query\":%u,\"config\":%u,"
      "\"attempt\":%u,\"latency_ms\":%s,\"low\":%s,\"high\":%s}",
      JsonEscape(e.kind).c_str(), e.query, e.config, e.attempt,
      JsonDouble(e.latency_ms).c_str(), JsonDouble(e.bound_low).c_str(),
      JsonDouble(e.bound_high).c_str()));
}

void JsonlTraceSink::BudgetDecision(const TraceBudgetDecision& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"budget_decision\",\"round\":%llu,\"action\":\"%s\","
      "\"refined\":%llu,\"bound_calls\":0,\"dominated\":%llu}",
      static_cast<unsigned long long>(e.round), JsonEscape(e.action).c_str(),
      static_cast<unsigned long long>(e.refined_queries),
      static_cast<unsigned long long>(e.dominated)));
}

void JsonlTraceSink::Span(const TraceSpan& e) {
  WriteLine(StringFormat(
      "{\"ev\":\"span\",\"name\":\"%s\",\"cat\":\"%s\",\"tid\":%u,"
      "\"id\":%llu,\"parent\":%llu,\"start_ns\":%llu,\"dur_ns\":%llu,"
      "\"counter\":\"%s\",\"delta\":%llu}",
      JsonEscape(e.name).c_str(), JsonEscape(e.category).c_str(), e.tid,
      static_cast<unsigned long long>(e.id),
      static_cast<unsigned long long>(e.parent),
      static_cast<unsigned long long>(e.start_ns),
      static_cast<unsigned long long>(e.dur_ns),
      JsonEscape(e.counter).c_str(),
      static_cast<unsigned long long>(e.counter_delta)));
}

void JsonlTraceSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fflush(file_);
}

std::string TracePathFromEnv() {
  const char* env = std::getenv("PDX_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

void EmitWhatIfLatencySummary(TraceSink* sink) {
  if (sink == nullptr) return;
  const struct {
    const char* bucket;
    const char* metric;
  } kBuckets[] = {
      {"cold", kWhatIfColdNsMetric},
      {"signature_hit", kWhatIfSignatureHitNsMetric},
      {"exact_hit", kWhatIfExactHitNsMetric},
  };
  for (const auto& b : kBuckets) {
    obs::Histogram* h = obs::Registry::Global().GetHistogram(b.metric);
    if (h->Count() == 0) continue;
    TraceWhatIfLatency e;
    e.bucket = b.bucket;
    e.count = h->Count();
    e.mean_ns = h->MeanNs();
    e.p50_ns = h->Quantile(0.5);
    e.p95_ns = h->Quantile(0.95);
    e.p99_ns = h->Quantile(0.99);
    sink->WhatIfLatency(e);
  }
}

void EmitSpans(TraceSink* sink, const std::vector<obs::SpanRecord>& records) {
  if (sink == nullptr) return;
  for (const obs::SpanRecord& r : records) {
    TraceSpan e;
    e.name = r.name;
    e.category = r.category;
    e.id = r.id;
    e.parent = r.parent;
    e.tid = r.tid;
    e.start_ns = r.start_ns;
    e.dur_ns = r.end_ns - r.start_ns;
    if (r.counter != nullptr) e.counter = r.counter;
    e.counter_delta = r.counter_delta;
    sink->Span(e);
  }
}

obs::SpanSnapshot DrainSpansToSink(TraceSink* sink) {
  obs::SpanSnapshot snap = obs::DrainSpans();
  EmitSpans(sink, snap.records);
  return snap;
}

// ---------------------------------------------------------------------------
// Trace reading

namespace {

/// First-match scalar extraction against the flat JSON the sink writes.
/// `needle` must include the quotes and colon ("\"round\":") so that e.g.
/// "round" never matches "rounds". Returns nullptr when absent.
const char* FindValue(const std::string& line, const char* needle) {
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  return line.c_str() + pos + std::strlen(needle);
}

bool GetUint(const std::string& line, const char* needle, uint64_t* out) {
  const char* v = FindValue(line, needle);
  if (v == nullptr) return false;
  *out = std::strtoull(v, nullptr, 10);
  return true;
}

bool GetDouble(const std::string& line, const char* needle, double* out) {
  const char* v = FindValue(line, needle);
  if (v == nullptr) return false;
  if (std::strncmp(v, "null", 4) == 0) {
    *out = 0.0;
    return true;
  }
  *out = std::strtod(v, nullptr);
  return true;
}

bool GetBool(const std::string& line, const char* needle, bool* out) {
  const char* v = FindValue(line, needle);
  if (v == nullptr) return false;
  *out = std::strncmp(v, "true", 4) == 0;
  return true;
}

bool GetString(const std::string& line, const char* needle,
               std::string* out) {
  const char* v = FindValue(line, needle);
  if (v == nullptr || *v != '"') return false;
  ++v;
  const char* end = std::strchr(v, '"');
  if (end == nullptr) return false;
  out->assign(v, end);
  return true;
}

}  // namespace

Result<TraceReport> ReadTraceReport(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  TraceReport report;
  // span events aggregate into a keyed map first: the rollup must come
  // out identical no matter how span lines from different threads were
  // interleaved in the file.
  std::map<std::pair<std::string, std::string>, obs::SpanRollupRow> spans;
  std::string line;
  char buf[4096];
  int line_no = 0;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.append(buf);
    if (line.empty() || line.back() != '\n') {
      continue;  // long line: keep accumulating
    }
    ++line_no;
    line.pop_back();
    if (line.empty()) {
      continue;
    }
    // Malformed (torn write, disk corruption) is an error, distinct from
    // an *unknown event*, which is skipped below: every line the sink
    // writes is one complete {...} object carrying an "ev" discriminator.
    if (line.front() != '{' || line.back() != '}') {
      std::fclose(f);
      return Status::InvalidArgument(StringFormat(
          "%s:%d: malformed trace line (not a complete JSON object)",
          path.c_str(), line_no));
    }
    std::string ev;
    if (!GetString(line, "\"ev\":", &ev)) {
      std::fclose(f);
      return Status::InvalidArgument(StringFormat(
          "%s:%d: trace line has no \"ev\" discriminator", path.c_str(),
          line_no));
    }
    if (ev == "run_start") {
      GetString(line, "\"scheme\":", &report.scheme);
      GetUint(line, "\"k\":", &report.num_configs);
      GetDouble(line, "\"alpha\":", &report.alpha);
    } else if (ev == "round") {
      TraceConvergenceRow row;
      uint64_t v = 0;
      GetUint(line, "\"round\":", &row.round);
      GetUint(line, "\"samples\":", &row.samples);
      GetUint(line, "\"calls\":", &row.optimizer_calls);
      GetDouble(line, "\"pr_cs\":", &row.pr_cs);
      if (GetUint(line, "\"active\":", &v)) {
        row.active_configs = static_cast<uint32_t>(v);
      }
      if (GetUint(line, "\"strata\":", &v)) {
        row.num_strata = static_cast<uint32_t>(v);
      }
      report.rounds.push_back(std::move(row));
    } else if (ev == "eliminate") {
      TraceElimination e;
      uint64_t v = 0;
      GetUint(line, "\"round\":", &e.round);
      if (GetUint(line, "\"config\":", &v)) {
        e.config = static_cast<ConfigId>(v);
      }
      GetDouble(line, "\"pr_cs\":", &e.pr_cs);
      GetDouble(line, "\"threshold\":", &e.threshold);
      GetString(line, "\"reason\":", &e.reason);
      report.eliminations.push_back(std::move(e));
    } else if (ev == "split") {
      ++report.num_splits;
    } else if (ev == "incumbent") {
      ++report.num_incumbent_changes;
    } else if (ev == "run_end") {
      uint64_t v = 0;
      if (GetUint(line, "\"best\":", &v)) {
        report.end.best = static_cast<ConfigId>(v);
      }
      GetDouble(line, "\"pr_cs\":", &report.end.pr_cs);
      GetBool(line, "\"reached_target\":", &report.end.reached_target);
      GetUint(line, "\"rounds\":", &report.end.rounds);
      GetUint(line, "\"samples\":", &report.end.samples);
      GetUint(line, "\"calls\":", &report.end.optimizer_calls);
      if (GetUint(line, "\"active\":", &v)) {
        report.end.active_configs = static_cast<uint32_t>(v);
      }
      report.has_run_end = true;
    } else if (ev == "whatif_error") {
      std::string kind;
      GetString(line, "\"kind\":", &kind);
      if (kind == "failure") {
        ++report.whatif_failures;
      } else if (kind == "timeout") {
        ++report.whatif_timeouts;
      } else if (kind == "degraded") {
        ++report.whatif_degraded;
      }
    } else if (ev == "budget_decision") {
      ++report.budget_decisions;
      std::string action;
      GetString(line, "\"action\":", &action);
      if (action == "refine") ++report.budget_refine_rounds;
      uint64_t v = 0;
      if (GetUint(line, "\"refined\":", &v)) report.budget_refined_queries += v;
      if (GetUint(line, "\"dominated\":", &v)) report.budget_dominated += v;
      // Cumulative-per-run field: keep the last event's value.
      GetUint(line, "\"bound_calls\":", &report.budget_bound_calls);
    } else if (ev == "span") {
      ++report.num_spans;
      std::string name, cat;
      GetString(line, "\"name\":", &name);
      GetString(line, "\"cat\":", &cat);
      obs::SpanRollupRow& row = spans[{cat, name}];
      if (row.count == 0) {
        row.category = cat;
        row.name = name;
      }
      ++row.count;
      uint64_t v = 0;
      if (GetUint(line, "\"dur_ns\":", &v)) row.total_ns += v;
      if (GetUint(line, "\"delta\":", &v)) row.counter_delta += v;
    } else if (ev == "whatif_latency") {
      TraceWhatIfLatency e;
      GetString(line, "\"bucket\":", &e.bucket);
      GetUint(line, "\"count\":", &e.count);
      GetDouble(line, "\"mean_ns\":", &e.mean_ns);
      GetDouble(line, "\"p50_ns\":", &e.p50_ns);
      GetDouble(line, "\"p95_ns\":", &e.p95_ns);
      GetDouble(line, "\"p99_ns\":", &e.p99_ns);
      report.whatif.push_back(std::move(e));
    }
    // Unknown event types are skipped (forward compatibility).
    line.clear();
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("read error on trace file '" + path + "'");
  }
  if (!line.empty()) {
    // A trailing fragment without its newline is a truncated write (the
    // sink always ends lines with '\n'); dropping it silently used to
    // make a cut-off file parse as a shorter-but-valid trace.
    return Status::InvalidArgument(StringFormat(
        "%s:%d: truncated trace line (missing trailing newline)",
        path.c_str(), line_no + 1));
  }
  if (line_no == 0) {
    return Status::InvalidArgument("trace file '" + path + "' is empty");
  }
  report.span_rollup.reserve(spans.size());
  for (auto& [key, row] : spans) {
    (void)key;
    report.span_rollup.push_back(std::move(row));
  }
  std::sort(report.span_rollup.begin(), report.span_rollup.end(),
            [](const obs::SpanRollupRow& a, const obs::SpanRollupRow& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              if (a.category != b.category) return a.category < b.category;
              return a.name < b.name;
            });
  return report;
}

Result<uint64_t> WriteChromeTrace(const std::string& trace_path,
                                  const std::string& out_path) {
  std::FILE* in = std::fopen(trace_path.c_str(), "r");
  if (in == nullptr) {
    return Status::IOError("cannot open trace file '" + trace_path + "'");
  }
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return Status::IOError("cannot open profile file '" + out_path +
                           "' for write");
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  uint64_t written = 0;
  std::string line;
  char buf[4096];
  int line_no = 0;
  Status fail = Status::OK();
  while (std::fgets(buf, sizeof(buf), in) != nullptr) {
    line.append(buf);
    if (line.empty() || line.back() != '\n') continue;
    ++line_no;
    line.pop_back();
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') {
      fail = Status::InvalidArgument(StringFormat(
          "%s:%d: malformed trace line (not a complete JSON object)",
          trace_path.c_str(), line_no));
      break;
    }
    std::string ev;
    if (!GetString(line, "\"ev\":", &ev)) {
      fail = Status::InvalidArgument(StringFormat(
          "%s:%d: trace line has no \"ev\" discriminator", trace_path.c_str(),
          line_no));
      break;
    }
    if (ev == "span") {
      std::string name, cat, counter;
      uint64_t id = 0, parent = 0, tid = 0, start_ns = 0, dur_ns = 0,
               delta = 0;
      GetString(line, "\"name\":", &name);
      GetString(line, "\"cat\":", &cat);
      GetString(line, "\"counter\":", &counter);
      GetUint(line, "\"id\":", &id);
      GetUint(line, "\"parent\":", &parent);
      GetUint(line, "\"tid\":", &tid);
      GetUint(line, "\"start_ns\":", &start_ns);
      GetUint(line, "\"dur_ns\":", &dur_ns);
      GetUint(line, "\"delta\":", &delta);
      // Complete ("ph":"X") events, microsecond timestamps, one Chrome
      // track per recording thread. args carries the hierarchy and the
      // tracked-counter delta for the Perfetto detail pane.
      std::fprintf(
          out,
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"id\":%llu,"
          "\"parent\":%llu,\"counter\":\"%s\",\"delta\":%llu}}",
          written == 0 ? "" : ",", name.c_str(), cat.c_str(),
          static_cast<double>(start_ns) / 1e3,
          static_cast<double>(dur_ns) / 1e3,
          static_cast<unsigned long long>(tid),
          static_cast<unsigned long long>(id),
          static_cast<unsigned long long>(parent), counter.c_str(),
          static_cast<unsigned long long>(delta));
      ++written;
    }
    line.clear();
  }
  if (fail.ok() && std::ferror(in) != 0) {
    fail = Status::IOError("read error on trace file '" + trace_path + "'");
  }
  if (fail.ok() && !line.empty()) {
    fail = Status::InvalidArgument(StringFormat(
        "%s:%d: truncated trace line (missing trailing newline)",
        trace_path.c_str(), line_no + 1));
  }
  std::fclose(in);
  std::fputs("]}\n", out);
  const bool write_error = std::ferror(out) != 0;
  std::fclose(out);
  if (!fail.ok()) return fail;
  if (write_error) {
    return Status::IOError("write error on profile file '" + out_path + "'");
  }
  return written;
}

}  // namespace pdx
