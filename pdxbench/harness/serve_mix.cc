// serve-mix: an in-process selection daemon (service::ServeSelection) on
// loopback, driven by four client connections in a closed loop — callers
// wait on each reply before sending the next request. Sessions follow a
// fixed, interleaved cycle of 40 (shares in kMix):
//
//   compare, Delta, saved 5k x 20 catalog, warm-up-pool seed    14 / 40
//   compare, Independent, same catalog, pool seed                4 / 40
//   compare, Delta, Zipf scenario spec (second warm entry), pool 6 / 40
//   compare with injected what-if faults, pool seed              2 / 40
//   compare under budget:dynamic, pool seed                      2 / 40
//   compare, Delta, fresh seed (fills new shared-cache cells)    6 / 40
//   tune, saved 2k x 20 catalog, pool seed                       5 / 40
//   tune, fresh seed                                             1 / 40
//
// Independent and dynamic-budget compares are the slow compare class
// (6 of 34 compares, 18%), so the compare p90 sits inside that class and
// the p50 inside the fast warm classes, away from any class boundary.
// Pool-seed sessions were all run once during set-up, so they read the
// shared what-if cache; fresh-seed compares write new cells beside them.
// Every reply's fingerprint is checked against a fresh batch
// construction at the same seed.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/fault.h"
#include "optimizer/cost_bounds.h"
#include "optimizer/serialization.h"
#include "optimizer/what_if.h"
#include "service/protocol.h"
#include "service/server.h"
#include "tuner/greedy_tuner.h"
#include "workload/scenario.h"
#include "workloads.h"

namespace pdxbench {

namespace {

constexpr int kClients = 4;
constexpr uint64_t kPoolSeeds = 8;

enum class Kind : uint8_t {
  kDelta,
  kIndep,
  kZipf,
  kFaults,
  kDynamic,
  kFresh,
  kTune,
  kTuneFresh,
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kDelta: return "compare-delta";
    case Kind::kIndep: return "compare-indep";
    case Kind::kZipf: return "compare-zipf";
    case Kind::kFaults: return "compare-faults";
    case Kind::kDynamic: return "compare-dynamic";
    case Kind::kFresh: return "compare-fresh";
    case Kind::kTune: return "tune";
    case Kind::kTuneFresh: return "tune-fresh";
  }
  return "?";
}

bool IsTune(Kind k) { return k == Kind::kTune || k == Kind::kTuneFresh; }
bool IsFresh(Kind k) { return k == Kind::kFresh || k == Kind::kTuneFresh; }

/// Session classes and their weights in one cycle of the schedule.
struct Share {
  Kind kind;
  int weight;
};
constexpr Share kMix[] = {
    {Kind::kDelta, 14}, {Kind::kIndep, 4},   {Kind::kZipf, 6},
    {Kind::kFaults, 2}, {Kind::kDynamic, 2}, {Kind::kFresh, 6},
    {Kind::kTune, 5},   {Kind::kTuneFresh, 1}};
constexpr uint64_t kCycle = 40;

/// One cycle of the schedule, interleaved by smooth weighted round robin
/// so every stretch of sessions carries nearly the cycle's mix.
std::vector<Kind> Cycle() {
  std::vector<Kind> cycle;
  int current[std::size(kMix)] = {};
  for (uint64_t i = 0; i < kCycle; ++i) {
    size_t best = 0;
    for (size_t k = 0; k < std::size(kMix); ++k) {
      current[k] += kMix[k].weight;
      if (current[k] > current[best]) best = k;
    }
    current[best] -= static_cast<int>(kCycle);
    cycle.push_back(kMix[best].kind);
  }
  return cycle;
}

struct Sizes {
  uint32_t compare_queries;
  uint32_t compare_configs;
  uint32_t tune_queries;
  uint32_t tune_configs;
  int setup_reps;
  /// Sessions always run; the deterministic counts are taken over the
  /// compare sessions among them.
  uint64_t min_sessions;
};

Sizes SizesFor(const Args& args) {
  if (args.tiny) return {500, 4, 300, 4, 2, 2 * kCycle};
  return {5000, 20, 2000, 20, 3, 50 * kCycle};
}

/// One scheduled session: its class and selection seed.
struct Session {
  Kind kind = Kind::kDelta;
  uint64_t seed = 0;
};

/// Selection seed `p` of the warm-up pool: the seeds earlier users
/// already asked about, the same in every run.
uint64_t PoolSeed(uint64_t p) {
  return OpSeed(kCatalogSeed, (1ull << 40) + p);
}

/// Session `j` of a run seeded `run_seed`: the run seed picks which pool
/// seed each pool session repeats, and every fresh seed.
Session ScheduledSession(const std::vector<Kind>& cycle, uint64_t run_seed,
                         uint64_t j) {
  Session s;
  s.kind = cycle[j % kCycle];
  s.seed = IsFresh(s.kind) ? OpSeed(run_seed, j)
                           : PoolSeed(OpSeed(run_seed, j) % kPoolSeeds);
  return s;
}

/// The harness's own copy of the artifacts, loaded outside timing, for
/// batch references and ground truth.
struct HarnessCatalog {
  /// The daemon runs these same loads on the same inputs inside its
  /// set-up; timed here they give the serialization and scenario layers.
  double load_schema_ms = 0.0;
  double load_workload_ms = 0.0;
  double load_configs_ms = 0.0;
  double generate_ms = 0.0;
  std::unique_ptr<pdx::Schema> schema;
  std::unique_ptr<pdx::Workload> workload;
  std::vector<pdx::Configuration> configs;
  std::unique_ptr<pdx::WhatIfOptimizer> optimizer;
  std::unique_ptr<pdx::CostBoundsDeriver> deriver;
  std::vector<double> totals;
};

std::unique_ptr<HarnessCatalog> LoadHarnessCatalog(const std::string& dir,
                                                   const std::string& spec,
                                                   bool with_truth) {
  auto cat = std::make_unique<HarnessCatalog>();
  uint64_t t0 = NowNs();
  auto schema = pdx::LoadSchema(dir + "/schema.pdx");
  cat->load_schema_ms = MsSince(t0);
  if (!schema.ok()) return nullptr;
  cat->schema = std::make_unique<pdx::Schema>(std::move(*schema));
  t0 = NowNs();
  if (spec.empty()) {
    auto workload = pdx::LoadWorkload(dir + "/workload.pdx", *cat->schema);
    cat->load_workload_ms = MsSince(t0);
    if (!workload.ok()) return nullptr;
    cat->workload = std::make_unique<pdx::Workload>(std::move(*workload));
  } else {
    auto scenario = pdx::ParseScenarioSpec(spec);
    if (!scenario.ok()) return nullptr;
    cat->workload = std::make_unique<pdx::Workload>(
        pdx::GenerateScenarioWorkload(*cat->schema, *scenario));
    cat->generate_ms = MsSince(t0);
  }
  t0 = NowNs();
  cat->configs = LoadAllConfigs(dir, *cat->schema);
  cat->load_configs_ms = MsSince(t0);
  if (cat->configs.empty()) return nullptr;
  cat->optimizer = std::make_unique<pdx::WhatIfOptimizer>(*cat->schema);
  pdx::Configuration rich;
  for (const pdx::Configuration& c : cat->configs) rich = rich.Merge(c);
  cat->deriver = std::make_unique<pdx::CostBoundsDeriver>(
      *cat->optimizer, *cat->workload, pdx::Configuration(), rich);
  if (with_truth) {
    cat->totals = ExactTotals(*cat->schema, *cat->workload, cat->configs);
  }
  return cat;
}

/// Batch reference of one session: what the batch tools compute at the
/// same seed from fresh objects.
struct Reference {
  std::string fingerprint;
  pdx::SelectionResult selection;
  pdx::TuneResult tune;
};

std::string FaultSpecFor(uint64_t seed) {
  return pdx::StringFormat("0.05,0.05,%llu",
                           static_cast<unsigned long long>(seed));
}

Reference CompareReference(const HarnessCatalog& cat, Kind kind,
                           uint64_t seed) {
  pdx::WhatIfCostSource live(*cat.optimizer, *cat.workload, cat.configs);
  pdx::CachingCostSource cache(&live);
  pdx::CostSource* source = &cache;
  pdx::WorkloadBoundsCache bounds(cat.deriver.get(), &cat.configs);
  pdx::SelectorOptions sopt;
  if (kind == Kind::kIndep) sopt.scheme = pdx::SamplingScheme::kIndependent;
  if (kind == Kind::kDynamic) {
    sopt.budget_policy = pdx::BudgetPolicy::kDynamic;
    sopt.bounds = &bounds;
  }
  std::optional<pdx::FaultInjectingCostSource> injector;
  if (kind == Kind::kFaults) {
    const pdx::FaultSpec spec = *pdx::ParseFaultSpec(FaultSpecFor(seed));
    injector.emplace(&cache, spec);
    injector->set_deadline_ms(sopt.exec.retry.deadline_ms);
    source = &*injector;
    sopt.exec.enabled = true;
    sopt.exec.seed = spec.seed;
    sopt.bounds = &bounds;
  }
  pdx::Rng rng(seed);
  Reference ref;
  ref.selection = pdx::ConfigurationSelector(source, sopt).Run(&rng);
  ref.fingerprint = FingerprintHex(ref.selection);
  return ref;
}

Reference TuneReference(const HarnessCatalog& cat, uint64_t seed) {
  std::vector<pdx::QueryId> ids(cat.workload->size());
  std::iota(ids.begin(), ids.end(), 0);
  pdx::TunerOptions topt;
  topt.use_comparison_primitive = true;
  topt.cache = pdx::WhatIfCacheMode::kSignature;
  topt.max_structures = static_cast<uint32_t>(
      pdx::service::ServiceRequest().max_structures);
  const pdx::WhatIfOptimizer optimizer(*cat.schema);
  pdx::Rng rng(seed);
  Reference ref;
  ref.tune = pdx::GreedyTune(optimizer, *cat.workload, ids, {}, topt, &rng);
  ref.fingerprint = pdx::StringFormat(
      "%016llx",
      static_cast<unsigned long long>(pdx::service::FingerprintHash(
          pdx::service::TuneFingerprint(ref.tune))));
  return ref;
}

// --- wire -----------------------------------------------------------------

int ReserveLoopbackPort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = -1;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

/// One persistent client connection: request line out, response line in.
class Connection {
 public:
  explicit Connection(int port) {
    for (int attempt = 0; attempt < 5000 && fd_ < 0; ++attempt) {
      int fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd >= 0 &&
          connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        fd_ = fd;
      } else {
        if (fd >= 0) close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `line` (newline-terminated) and returns the reply line, or ""
  /// on a broken connection.
  std::string RoundTrip(const std::string& line) {
    if (fd_ < 0) return "";
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return "";
      sent += static_cast<size_t>(n);
    }
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[8192];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string GetQuoted(const std::string& json, const std::string& key) {
  const size_t pos = json.find("\"" + key + "\":\"");
  if (pos == std::string::npos) return "";
  const size_t start = pos + key.size() + 4;
  return json.substr(start, json.find('"', start) - start);
}

double GetNumber(const std::string& json, const std::string& key) {
  const size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
}

bool IsOk(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

/// The daemon under test, running on its own thread.
class Daemon {
 public:
  Daemon() {
    pdx::service::ServeOptions opt;
    opt.port = ReserveLoopbackPort();
    opt.num_workers = kClients;
    opt.read_deadline_ms = 60000;
    port_ = opt.port;
    thread_ = std::thread([this, opt] {
      status_ = pdx::service::ServeSelection(opt, nullptr, &service_);
    });
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// Asks the daemon to drain and exit, then joins it. After Stop() the
  /// service object may be read.
  void Stop() {
    if (!thread_.joinable()) return;
    Connection c(port_);
    c.RoundTrip("{\"op\":\"shutdown\"}\n");
    thread_.join();
  }
  bool ok() const { return status_.ok(); }
  pdx::service::SelectionService* service() const { return service_.get(); }

 private:
  int port_ = -1;
  pdx::Status status_ = pdx::Status::OK();
  std::shared_ptr<pdx::service::SelectionService> service_;
  std::thread thread_;
};

/// Requests in the protocol's compact dialect ("op":"x", no spaces).
struct Requests {
  std::string compare_dir;
  std::string tune_dir;
  std::string zipf_spec;

  std::string Line(const Session& s) const {
    const std::string seed =
        std::to_string(static_cast<unsigned long long>(s.seed));
    switch (s.kind) {
      case Kind::kDelta:
      case Kind::kFresh:
        return "{\"op\":\"compare\",\"dir\":\"" + compare_dir +
               "\",\"seed\":" + seed + "}\n";
      case Kind::kIndep:
        return "{\"op\":\"compare\",\"dir\":\"" + compare_dir +
               "\",\"seed\":" + seed + ",\"scheme\":\"indep\"}\n";
      case Kind::kZipf:
        return "{\"op\":\"compare\",\"dir\":\"" + compare_dir +
               "\",\"seed\":" + seed + ",\"workload\":\"" + zipf_spec +
               "\"}\n";
      case Kind::kFaults:
        return "{\"op\":\"compare\",\"dir\":\"" + compare_dir +
               "\",\"seed\":" + seed + ",\"faults\":\"" + FaultSpecFor(s.seed) +
               "\"}\n";
      case Kind::kDynamic:
        return "{\"op\":\"compare\",\"dir\":\"" + compare_dir +
               "\",\"seed\":" + seed + ",\"budget\":\"dynamic\"}\n";
      case Kind::kTune:
      case Kind::kTuneFresh:
        return "{\"op\":\"tune\",\"dir\":\"" + tune_dir + "\",\"seed\":" +
               seed + "}\n";
    }
    return "";
  }
  std::string Stats(bool zipf) const {
    return "{\"op\":\"stats\",\"dir\":\"" + compare_dir + "\"" +
           (zipf ? ",\"workload\":\"" + zipf_spec + "\"" : std::string()) +
           "}\n";
  }
};

/// Daemon set-up as a user pays it: start, then warm every catalog and
/// every pool seed of every session class, one request at a time.
/// Returns false when a warm-up reply is not ok.
bool WarmUp(const Daemon& daemon, const Requests& req) {
  Connection c(daemon.port());
  if (!c.ok()) return false;
  for (uint64_t p = 0; p < kPoolSeeds; ++p) {
    for (Kind k : {Kind::kDelta, Kind::kIndep, Kind::kZipf, Kind::kFaults,
                   Kind::kDynamic}) {
      if (!IsOk(c.RoundTrip(req.Line({k, PoolSeed(p)})))) {
        return false;
      }
    }
  }
  // Tune sessions share no cache; one tune loads the tune catalog.
  return IsOk(c.RoundTrip(req.Line({Kind::kTune, PoolSeed(0)})));
}

struct Record {
  uint64_t j = 0;
  Session session;
  bool traced = false;
  double ms = 0.0;
  std::string reply;
};

struct StatsSnapshot {
  double cold = 0, signature_hits = 0, exact_hits = 0, derivations = 0;
  double loads = 0, hits = 0, evictions = 0;
};

/// Stats requests per snapshot; each is itself one warm-state hit.
constexpr int kStatsRequests = 2;

/// Stats of both compare catalogs, over a short-lived connection (a
/// connection holds a daemon worker for as long as it is open). The
/// warm-state counts are as of the snapshot's last request.
StatsSnapshot TakeStats(int port, const Requests& req, Report* report) {
  StatsSnapshot s;
  Connection c(port);
  for (bool zipf : {false, true}) {
    const std::string r = c.RoundTrip(req.Stats(zipf));
    report->Check(IsOk(r), "stats request failed: " + r);
    s.cold += GetNumber(r, "cold_calls");
    s.signature_hits += GetNumber(r, "signature_hits");
    s.exact_hits += GetNumber(r, "exact_hits");
    s.derivations += GetNumber(r, "bound_derivation_calls");
    s.loads = GetNumber(r, "catalog_loads");
    s.hits = GetNumber(r, "catalog_hits");
    s.evictions = GetNumber(r, "catalog_evictions");
  }
  return s;
}

/// Optimizer calls made so far by every catalog the stopped daemon holds.
uint64_t DaemonOptimizerCalls(pdx::service::SelectionService* service,
                              const Requests& req) {
  uint64_t calls = 0;
  for (const auto& [dir, spec] :
       std::vector<std::pair<std::string, std::string>>{
           {req.compare_dir, ""},
           {req.compare_dir, req.zipf_spec},
           {req.tune_dir, ""}}) {
    auto cat = service->registry().Acquire(dir, spec);
    if (cat.ok()) calls += (*cat)->optimizer->num_calls();
  }
  return calls;
}

}  // namespace

void RunServeMix(const Args& args, Tracer* tracer, Report* report) {
  const Sizes sz = SizesFor(args);
  const std::string root = std::filesystem::absolute(args.data_dir).string();
  CatalogSpec compare_spec{root + "/serve-compare", sz.compare_queries,
                           sz.compare_configs, kCatalogSeed};
  CatalogSpec tune_spec{root + "/serve-tune", sz.tune_queries,
                        sz.tune_configs, kCatalogSeed + 1};
  WriteCatalog(compare_spec);
  WriteCatalog(tune_spec);
  pdx::ScenarioOptions zipf;
  zipf.law = pdx::PopularityLaw::kZipfian;
  zipf.skew = 0.99;
  zipf.read_fraction = 0.8;
  zipf.num_queries = sz.compare_queries;
  zipf.seed = kCatalogSeed;
  Requests req{compare_spec.dir, tune_spec.dir, pdx::FormatScenarioSpec(zipf)};
  report->shape["clients"] = std::to_string(kClients);
  report->shape["server_workers"] = std::to_string(kClients);
  report->shape["catalog"] = pdx::StringFormat(
      "compare %u x %u (+ %s), tune %u x %u", sz.compare_queries,
      sz.compare_configs, req.zipf_spec.c_str(), sz.tune_queries,
      sz.tune_configs);

  // Harness copies for references and ground truth (outside timing).
  std::unique_ptr<HarnessCatalog> saved =
      LoadHarnessCatalog(compare_spec.dir, "", true);
  std::unique_ptr<HarnessCatalog> scenario =
      LoadHarnessCatalog(compare_spec.dir, req.zipf_spec, true);
  std::unique_ptr<HarnessCatalog> tune =
      LoadHarnessCatalog(tune_spec.dir, "", false);
  if (saved == nullptr || scenario == nullptr || tune == nullptr) {
    report->Fail("cannot load the generated serve catalogs");
    return;
  }

  // Set-up, repeated: every daemon but the last is drained and its
  // economics read, which pins the warm-up's own optimizer calls.
  std::vector<double> setup_s;
  std::optional<uint64_t> warmup_calls;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < sz.setup_reps; ++rep) {
    const uint64_t t0 = NowNs();
    daemon = std::make_unique<Daemon>();
    const bool warm = WarmUp(*daemon, req);
    setup_s.push_back(MsSince(t0) / 1e3);
    report->Check(warm, "daemon warm-up failed");
    if (rep + 1 == sz.setup_reps) break;
    daemon->Stop();
    report->Check(daemon->ok(), "daemon exited with an error");
    const uint64_t calls = DaemonOptimizerCalls(daemon->service(), req);
    report->Check(!warmup_calls || *warmup_calls == calls,
                  "warm-up optimizer calls differ between set-ups");
    warmup_calls = calls;
  }
  report->Set("setup_s", Median(setup_s), "s");
  if (!report->correct) return;

  const StatsSnapshot before = TakeStats(daemon->port(), req, report);

  // Timed closed loop: each client claims the next scheduled session.
  const std::vector<Kind> cycle = Cycle();
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Record>> per_client(kClients);
  const uint64_t deadline_ns =
      NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  RssSampler rss;
  const uint64_t t0 = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Connection conn(daemon->port());
      while (true) {
        const uint64_t j = next.fetch_add(1);
        if (j >= sz.min_sessions && NowNs() >= deadline_ns) break;
        Record rec;
        rec.j = j;
        rec.session = ScheduledSession(cycle, args.seed, j);
        // Whole cycles alternate, so traced and untraced sessions carry
        // the same class mix.
        rec.traced = tracer != nullptr && (j / kCycle) % 2 == 1;
        Tracer* t = rec.traced ? tracer : nullptr;
        const uint64_t s0 = NowNs();
        {
          ScopedSpan span(t, "service.session", j);
          rec.reply = conn.RoundTrip(req.Line(rec.session));
          if (t != nullptr && IsOk(rec.reply)) {
            const double wall_ms = GetNumber(rec.reply, "wall_ms");
            t->Aggregate(IsTune(rec.session.kind) ? "tuner.greedy"
                                                  : "core.selector.run",
                         j, span.id(), static_cast<uint64_t>(wall_ms * 1e6),
                         1);
          }
        }
        rec.ms = MsSince(s0);
        per_client[static_cast<size_t>(c)].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  const double elapsed_s = MsSince(t0) / 1e3;
  report->Set("peak_rss_mb", rss.Stop(), "MB");

  StatsSnapshot after = TakeStats(daemon->port(), req, report);
  after.hits -= kStatsRequests;  // the snapshot's own hits
  daemon->Stop();
  report->Check(daemon->ok(), "daemon exited with an error");
  const uint64_t total_calls = DaemonOptimizerCalls(daemon->service(), req);

  std::vector<Record> records;
  for (auto& v : per_client) {
    for (Record& r : v) records.push_back(std::move(r));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.j < b.j; });

  // Batch references for every distinct (class, seed), in parallel.
  std::map<std::pair<Kind, uint64_t>, Reference> refs;
  for (const Record& r : records) refs[{r.session.kind, r.session.seed}];
  std::vector<std::pair<const std::pair<Kind, uint64_t>, Reference>*> work;
  for (auto& kv : refs) work.push_back(&kv);
  pdx::GlobalThreadPool().ParallelFor(
      0, work.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const auto [kind, seed] = work[i]->first;
          work[i]->second =
              IsTune(kind) ? TuneReference(*tune, seed)
                           : CompareReference(
                                 kind == Kind::kZipf ? *scenario : *saved,
                                 kind, seed);
        }
      });

  // Correctness gate and metrics.
  std::vector<double> compare_ms, compare_traced_ms, tune_ms, server_ms,
      wait_ms, tune_server_ms, compare_server_ms;
  uint64_t det_compares = 0, det_correct = 0, det_samples = 0;
  uint64_t retries = 0, degraded = 0, refinements = 0, dominance = 0;
  uint64_t rounds = 0, elim = 0, strata = 0, compares = 0, tunes = 0;
  double tune_calls = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    ++report->attempted;
    report->Check(r.j == i,
                  pdx::StringFormat("session %zu was never answered", i));
    if (!IsOk(r.reply)) {
      ++report->failed;
      report->Fail(pdx::StringFormat("session %llu (%s) failed: %s",
                                     static_cast<unsigned long long>(r.j),
                                     KindName(r.session.kind),
                                     r.reply.c_str()));
      continue;
    }
    const Reference& ref = refs[{r.session.kind, r.session.seed}];
    std::string want = ref.fingerprint;
    if (args.corrupt_reference && i == 0) want = "corrupted";
    report->Check(GetQuoted(r.reply, "fingerprint") == want,
                  pdx::StringFormat("session %llu (%s, seed %llu): result "
                                    "differs from its batch reference",
                                    static_cast<unsigned long long>(r.j),
                                    KindName(r.session.kind),
                                    static_cast<unsigned long long>(
                                        r.session.seed)));
    const double wall = GetNumber(r.reply, "wall_ms");
    server_ms.push_back(wall);
    wait_ms.push_back(r.ms - wall);
    if (IsTune(r.session.kind)) {
      ++tunes;
      if (!r.traced) tune_ms.push_back(r.ms);
      tune_server_ms.push_back(wall);
      tune_calls += static_cast<double>(ref.tune.optimizer_calls);
      continue;
    }
    ++compares;
    (r.traced ? compare_traced_ms : compare_ms).push_back(r.ms);
    compare_server_ms.push_back(wall);
    const double pr_cs = GetNumber(r.reply, "pr_cs");
    report->Check(pr_cs >= 0.0 && pr_cs <= 1.0,
                  pdx::StringFormat("session %llu: Pr(CS) outside [0,1]",
                                    static_cast<unsigned long long>(r.j)));
    const pdx::SelectionResult& sel = ref.selection;
    retries += sel.whatif_retries;
    degraded += sel.degraded_cells;
    refinements += sel.bound_refinement_calls;
    dominance += sel.dominance_eliminations;
    rounds += sel.rounds;
    for (uint32_t at : sel.eliminated_at) elim += at > 0 ? 1 : 0;
    for (uint32_t s : sel.final_strata) strata += s;
    if (r.j < sz.min_sessions) {
      const HarnessCatalog& cat =
          r.session.kind == Kind::kZipf ? *scenario : *saved;
      ++det_compares;
      det_correct += WithinTolerance(cat.totals, sel.best) ? 1 : 0;
      det_samples += sel.queries_sampled;
    }
  }
  const double ops = static_cast<double>(records.size());
  std::printf("client latency by session class (untraced sessions):\n");
  for (size_t k = 0; k < 8; ++k) {
    std::vector<double> ms;
    for (const Record& r : records) {
      if (!r.traced && static_cast<size_t>(r.session.kind) == k) {
        ms.push_back(r.ms);
      }
    }
    std::printf("  %-16s %6zu sessions  p50 %9.3f ms  p90 %9.3f ms\n",
                KindName(static_cast<Kind>(k)), ms.size(),
                Percentile(ms, 0.5), Percentile(ms, 0.9));
  }
  ReportLatency(report, "compare_ms", compare_ms);
  report->Set("ops_per_s", ops / elapsed_s, "ops/s");
  report->Set("whatif_calls_per_op",
              static_cast<double>(total_calls - warmup_calls.value_or(0)) /
                  ops,
              "calls");
  report->Set("samples_per_compare",
              static_cast<double>(det_samples) /
                  static_cast<double>(std::max<uint64_t>(det_compares, 1)),
              "queries");
  report->Set("correct_selection_rate",
              static_cast<double>(det_correct) /
                  static_cast<double>(std::max<uint64_t>(det_compares, 1)),
              "fraction");
  report->shape["compare_sessions"] = std::to_string(compares);
  report->shape["tune_sessions"] = std::to_string(tunes);
  if (tracer == nullptr) return;

  const double nc = static_cast<double>(std::max<uint64_t>(compares, 1));
  const double nt = static_cast<double>(std::max<uint64_t>(tunes, 1));
  ReportLatency(report, "tune_ms", tune_ms);
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  report->Set("service.session.server_ms", mean(server_ms), "ms");
  report->Set("service.session.wait_ms", mean(wait_ms), "ms");
  report->Set("service.warm_state.catalog_loads",
              (after.loads - before.loads) / ops, "count");
  report->Set("service.warm_state.catalog_hits",
              (after.hits - before.hits) / ops, "count");
  report->Set("service.warm_state.evictions",
              (after.evictions - before.evictions) / ops, "count");
  report->Set("service.shared_cache.cold_calls",
              (after.cold - before.cold) / nc, "count");
  report->Set("service.shared_cache.signature_hits",
              (after.signature_hits - before.signature_hits) / nc, "count");
  report->Set("service.shared_cache.exact_hits",
              (after.exact_hits - before.exact_hits) / nc, "count");
  const double lookups =
      (after.cold + after.signature_hits + after.exact_hits) -
      (before.cold + before.signature_hits + before.exact_hits);
  report->Set("core.cache.lookups", lookups / nc, "count");
  report->Set("core.cache.hit_ratio",
              lookups > 0 ? 1.0 - (after.cold - before.cold) / lookups : 0.0,
              "fraction");
  report->Set("optimizer.cost_bounds.derivation_calls",
              (after.derivations - before.derivations) / nc, "calls");
  report->Set("core.fault.retries", static_cast<double>(retries) / nc, "count");
  report->Set("core.fault.degraded_cells", static_cast<double>(degraded) / nc,
              "count");
  report->Set("core.budget.bound_refinement_calls",
              static_cast<double>(refinements) / nc, "calls");
  report->Set("core.budget.dominance_eliminations",
              static_cast<double>(dominance) / nc, "count");
  report->Set("core.selector.rounds", static_cast<double>(rounds) / nc,
              "count");
  report->Set("core.selector.eliminations", static_cast<double>(elim) / nc,
              "count");
  report->Set("core.selector.final_strata", static_cast<double>(strata) / nc,
              "count");
  report->Set("core.selector.run_ms", mean(compare_server_ms), "ms");
  report->Set("optimizer.serialization.load_schema_ms", saved->load_schema_ms,
              "ms");
  report->Set("optimizer.serialization.load_workload_ms",
              saved->load_workload_ms, "ms");
  report->Set("optimizer.serialization.load_configs_ms",
              saved->load_configs_ms, "ms");
  report->Set("optimizer.serialization.workload_mb_per_s",
              FileMb(compare_spec.dir + "/workload.pdx") /
                  (saved->load_workload_ms / 1e3),
              "MB/s");
  report->Set("workload.scenario.generate_ms", scenario->generate_ms, "ms");
  report->Set("tuner.greedy.tune_ms", mean(tune_server_ms), "ms");
  report->Set("tuner.greedy.optimizer_calls", tune_calls / nt, "calls");
  report->Set("bench.trace.overhead_ms",
              Percentile(compare_traced_ms, 0.5) - Percentile(compare_ms, 0.5),
              "ms");
}

}  // namespace pdxbench
