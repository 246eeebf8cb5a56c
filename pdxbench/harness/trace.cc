#include "trace.h"

#include <cstdio>
#include <set>

#include "common.h"

namespace pdxbench {

int32_t Tracer::Begin(const char* name, uint64_t op, int32_t parent) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int32_t Tracer::Aggregate(const char* name, uint64_t op, int32_t parent,
                          uint64_t busy_ns, uint64_t calls) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ns = parent >= 0 ? spans_[static_cast<size_t>(parent)].start_ns : 0;
  s.end_ns = s.start_ns + busy_ns;
  s.aggregate = true;
  s.calls = calls;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::LayerRow> Tracer::Layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    LayerRow& row = rows[s.name];
    row.total_ms += ms;
    row.self_ms += ms - child_ms[i];
    row.spans += 1;
    row.calls += s.calls;
  }
  return rows;
}

uint64_t Tracer::NumOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<uint64_t> ops;
  for (const Span& s : spans_) {
    if (s.parent < 0) ops.insert(s.op);
  }
  return ops.size();
}

double Tracer::RootWallMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& stamp) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"stamp\":%s,\"spans\":[\n", stamp.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"aggregate\":%s,"
                 "\"calls\":%llu}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3,
                 s.aggregate ? "true" : "false",
                 static_cast<unsigned long long>(s.calls),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::PrintLayerTable() const {
  const std::map<std::string, LayerRow> rows = Layers();
  const uint64_t ops = NumOps();
  const double wall = RootWallMs();
  if (ops == 0 || wall <= 0.0) return;
  std::printf("per-layer self time over %llu traced ops (%.3f ms/op):\n",
              static_cast<unsigned long long>(ops),
              wall / static_cast<double>(ops));
  std::printf("  %-44s %12s %12s %7s\n", "layer", "self ms/op", "total ms/op",
              "share");
  double sum = 0.0;
  for (const auto& [name, row] : rows) {
    sum += row.self_ms;
    std::printf("  %-44s %12.4f %12.4f %6.1f%%\n", name.c_str(),
                row.self_ms / static_cast<double>(ops),
                row.total_ms / static_cast<double>(ops),
                100.0 * row.self_ms / wall);
  }
  std::printf("  %-44s %12.4f %12s %6.1f%%\n", "(sum of self rows)",
              sum / static_cast<double>(ops), "", 100.0 * sum / wall);
}

}  // namespace pdxbench
