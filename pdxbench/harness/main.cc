// pdx_bench: the end-to-end benchmark harness. Runs one workload for a
// fixed time at a given seed and prints, as its last line, one JSON
// object with the correctness verdict, op counts, every metric it
// measured (name -> value, unit) and the result stamp. pdxbench/run.py
// builds this binary and turns that line into the benchmark's result.
//
//   pdx_bench --workload cli-compare|select-skewed|serve-mix --seed N
//             --seconds S --trace 0|1 [--tiny] [--data-dir DIR]
//
// Exits 1 when any output fails the correctness gate.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace {

using pdxbench::Report;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Provenance of a result: source revision, host and run shape, so
/// numbers stay comparable across machines and commits.
std::string Stamp(const pdxbench::Args& args, const Report& report) {
  std::string s = "{";
  s += "\"git_sha\":" + JsonString(args.git_sha);
  s += ",\"source_digest\":" + JsonString(args.source_digest);
  s += ",\"cpu_model\":" + JsonString(CpuModel());
  s += ",\"cores\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"build_type\":" + JsonString(PDXBENCH_BUILD_TYPE);
  s += ",\"pool_threads\":" +
       std::to_string(pdx::GlobalThreadPool().num_threads());
  s += ",\"workload\":" + JsonString(args.workload);
  s += ",\"seed\":" + std::to_string(args.seed);
  s += ",\"seconds\":" + pdx::StringFormat("%g", args.seconds);
  s += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  for (const auto& [key, value] : report.shape) {
    s += "," + JsonString(key) + ":" + JsonString(value);
  }
  return s + "}";
}

std::string ResultLine(const Report& report, const std::string& stamp) {
  std::string s = pdx::StringFormat(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    s += pdx::StringFormat("%s%s:{\"value\":%.17g,\"unit\":%s}",
                           first ? "" : ",", JsonString(name).c_str(), v,
                           JsonString(m.unit).c_str());
    first = false;
  }
  s += "},\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    s += (i == 0 ? "" : ",") + JsonString(report.errors[i]);
  }
  return s + "],\"stamp\":" + stamp + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const pdxbench::Args args = pdxbench::ParseArgs(argc, argv);
  std::filesystem::create_directories(args.data_dir);
  pdxbench::Tracer tracer;
  pdxbench::Tracer* t = args.trace ? &tracer : nullptr;
  Report report;
  if (args.workload == "cli-compare") {
    pdxbench::RunCliCompare(args, t, &report);
  } else if (args.workload == "select-skewed") {
    pdxbench::RunSelectSkewed(args, t, &report);
  } else if (args.workload == "serve-mix") {
    pdxbench::RunServeMix(args, t, &report);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (report.attempted == 0) report.Fail("no op was attempted");

  const std::string stamp = Stamp(args, report);
  if (t != nullptr) {
    tracer.PrintLayerTable();
    const std::string path = pdx::StringFormat(
        "%s/trace-%s-%llu.json", args.data_dir.c_str(), args.workload.c_str(),
        static_cast<unsigned long long>(args.seed));
    if (tracer.WriteJson(path, stamp)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      report.Fail("cannot write the span file " + path);
    }
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("  %-44s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  std::printf("%s\n", ResultLine(report, stamp).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
