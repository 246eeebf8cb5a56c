#include "core/selection_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/span.h"
#include "core/selector.h"
#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

std::string TempTracePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

TEST(JsonlTraceSinkTest, RoundTripsAllEventTypes) {
  const std::string path = TempTracePath("roundtrip.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();

  TraceRunStart rs;
  rs.scheme = "delta";
  rs.num_configs = 3;
  rs.num_templates = 7;
  rs.workload_size = 4000;
  rs.alpha = 0.9;
  rs.delta = 0.125;
  rs.n_min = 30;
  rs.stratify = true;
  rs.elimination_threshold = 0.9987654321012345;
  sink->RunStart(rs);

  TraceRound round;
  round.round = 1;
  round.samples = 60;
  round.optimizer_calls = 180;
  round.incumbent = 2;
  round.bonferroni = 0.8123456789012345;
  round.active_configs = 3;
  round.num_strata = 2;
  TracePair pair;
  pair.config = 0;
  pair.pr_cs = 0.91;
  pair.gap = 123.456;
  pair.se = 7.25;
  pair.active = true;
  round.pairs.push_back(pair);
  sink->Round(round);

  TraceElimination elim;
  elim.round = 2;
  elim.config = 1;
  elim.pr_cs = 0.9991;
  elim.threshold = 0.9987654321012345;
  elim.reason = "pr_cs_above_threshold";
  sink->Elimination(elim);

  TraceSplit split;
  split.round = 3;
  split.config = TraceSplit::kSharedStratification;
  split.stratum = 0;
  split.new_stratum = 1;
  split.part1 = {2, 5};
  split.est_total_samples = 900;
  split.neyman = {500.5, 399.5};
  sink->Split(split);

  TraceIncumbent inc;
  inc.round = 4;
  inc.from = 2;
  inc.to = 0;
  sink->Incumbent(inc);

  TraceWhatIfLatency lat;
  lat.bucket = "cold";
  lat.count = 42;
  lat.mean_ns = 1500.0;
  lat.p50_ns = 1400.0;
  lat.p95_ns = 2600.0;
  lat.p99_ns = 3100.0;
  sink->WhatIfLatency(lat);

  TraceRunEnd end;
  end.best = 0;
  end.pr_cs = 0.9312345678901234;
  end.reached_target = true;
  end.rounds = 4;
  end.samples = 240;
  end.optimizer_calls = 700;
  end.active_configs = 2;
  sink->RunEnd(end);
  sink->Flush();
  sink.reset();

  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReport& rep = read.value();
  EXPECT_EQ(rep.scheme, "delta");
  EXPECT_EQ(rep.num_configs, 3u);
  EXPECT_EQ(rep.alpha, 0.9);

  ASSERT_EQ(rep.rounds.size(), 1u);
  EXPECT_EQ(rep.rounds[0].round, 1u);
  EXPECT_EQ(rep.rounds[0].samples, 60u);
  EXPECT_EQ(rep.rounds[0].optimizer_calls, 180u);
  // %.17g serialization: doubles round-trip bit-exactly.
  EXPECT_EQ(rep.rounds[0].pr_cs, 0.8123456789012345);
  EXPECT_EQ(rep.rounds[0].active_configs, 3u);
  EXPECT_EQ(rep.rounds[0].num_strata, 2u);

  ASSERT_EQ(rep.eliminations.size(), 1u);
  EXPECT_EQ(rep.eliminations[0].round, 2u);
  EXPECT_EQ(rep.eliminations[0].config, 1u);
  EXPECT_EQ(rep.eliminations[0].pr_cs, 0.9991);
  EXPECT_EQ(rep.eliminations[0].threshold, 0.9987654321012345);

  EXPECT_EQ(rep.num_splits, 1u);
  EXPECT_EQ(rep.num_incumbent_changes, 1u);

  ASSERT_TRUE(rep.has_run_end);
  EXPECT_EQ(rep.end.best, 0u);
  EXPECT_EQ(rep.end.pr_cs, 0.9312345678901234);
  EXPECT_TRUE(rep.end.reached_target);
  EXPECT_EQ(rep.end.rounds, 4u);
  EXPECT_EQ(rep.end.samples, 240u);
  EXPECT_EQ(rep.end.optimizer_calls, 700u);
  EXPECT_EQ(rep.end.active_configs, 2u);

  ASSERT_EQ(rep.whatif.size(), 1u);
  EXPECT_EQ(rep.whatif[0].bucket, "cold");
  EXPECT_EQ(rep.whatif[0].count, 42u);
  EXPECT_EQ(rep.whatif[0].mean_ns, 1500.0);
}

TEST(ReadTraceReportTest, MissingFileFails) {
  auto read = ReadTraceReport(TempTracePath("does_not_exist.jsonl"));
  EXPECT_FALSE(read.ok());
}

TEST(ReadTraceReportTest, EmptyFileFails) {
  const std::string path = TempTracePath("empty.jsonl");
  WriteFile(path, "");
  auto read = ReadTraceReport(path);
  EXPECT_FALSE(read.ok());
}

TEST(ReadTraceReportTest, LineWithoutDiscriminatorFails) {
  const std::string path = TempTracePath("no_ev.jsonl");
  WriteFile(path, "{\"foo\":1}\n");
  auto read = ReadTraceReport(path);
  EXPECT_FALSE(read.ok());
}

TEST(ReadTraceReportTest, UnknownEventTypesAreSkipped) {
  const std::string path = TempTracePath("unknown_ev.jsonl");
  WriteFile(path,
            "{\"ev\":\"run_start\",\"scheme\":\"delta\",\"k\":2,"
            "\"alpha\":0.9}\n"
            "{\"ev\":\"some_future_event\",\"x\":1}\n");
  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().scheme, "delta");
  EXPECT_EQ(read.value().num_configs, 2u);
}

TEST(ReadTraceReportTest, TruncatedFinalLineFails) {
  // A cut-off file (torn write, copy interrupted mid-line) must be an
  // error carrying the fragment's line number, not a silently shorter
  // trace.
  const std::string path = TempTracePath("truncated.jsonl");
  WriteFile(path,
            "{\"ev\":\"run_start\",\"scheme\":\"delta\",\"k\":2,"
            "\"alpha\":0.9}\n"
            "{\"ev\":\"round\",\"round\":1,\"sam");
  auto read = ReadTraceReport(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("truncated trace line"),
            std::string::npos)
      << read.status().ToString();
  EXPECT_NE(read.status().ToString().find(":2:"), std::string::npos)
      << read.status().ToString();
}

TEST(ReadTraceReportTest, MalformedMidFileLineFailsWithLineNumber) {
  // Unlike an unknown event (a complete object, skipped), a line that is
  // not a complete {...} object is corruption and must fail loudly.
  const std::string path = TempTracePath("malformed.jsonl");
  WriteFile(path,
            "{\"ev\":\"run_start\",\"scheme\":\"delta\",\"k\":2,"
            "\"alpha\":0.9}\n"
            "ev\":\"round\",\"round\":1}\n"
            "{\"ev\":\"run_end\",\"best\":0}\n");
  auto read = ReadTraceReport(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("malformed trace line"),
            std::string::npos)
      << read.status().ToString();
  EXPECT_NE(read.status().ToString().find(":2:"), std::string::npos)
      << read.status().ToString();
}

TEST(TracePathFromEnvTest, ReadsPdxTrace) {
  ASSERT_EQ(setenv("PDX_TRACE", "/tmp/pdx_env_trace.jsonl", 1), 0);
  EXPECT_EQ(TracePathFromEnv(), "/tmp/pdx_env_trace.jsonl");
  ASSERT_EQ(unsetenv("PDX_TRACE"), 0);
  EXPECT_EQ(TracePathFromEnv(), "");
}

// ---------------------------------------------------------------------------
// Selector integration: the trace must agree with the SelectionResult and
// must never perturb the run.

SelectorOptions EliminatingOptions(SamplingScheme scheme) {
  SelectorOptions opt;
  opt.alpha = 0.95;
  opt.scheme = scheme;
  opt.consecutive_to_stop = 5;
  opt.elimination_threshold = 0.995;
  return opt;
}

TEST(SelectorTraceTest, DeltaTraceAgreesWithSelectionResult) {
  MatrixCostSource src = SyntheticMatrix(4000, 6, 8, 0.02, 91);
  const std::string path = TempTracePath("delta_run.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();

  SelectorOptions opt = EliminatingOptions(SamplingScheme::kDelta);
  opt.trace = sink.get();
  Rng rng(92);
  SelectionResult r = ConfigurationSelector(&src, opt).Run(&rng);
  sink.reset();

  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReport& rep = read.value();

  EXPECT_EQ(rep.scheme, "delta");
  EXPECT_EQ(rep.num_configs, 6u);
  ASSERT_TRUE(rep.has_run_end);
  EXPECT_EQ(rep.end.best, r.best);
  EXPECT_EQ(rep.end.pr_cs, r.pr_cs);  // bit-exact through %.17g
  EXPECT_EQ(rep.end.reached_target, r.reached_target);
  EXPECT_EQ(rep.end.rounds, r.rounds);
  EXPECT_EQ(rep.end.samples, r.queries_sampled);
  EXPECT_EQ(rep.end.optimizer_calls, r.optimizer_calls);
  EXPECT_EQ(rep.end.active_configs, r.active_configs);

  // One round event per selection-loop round, cumulative counters
  // monotone.
  ASSERT_EQ(rep.rounds.size(), r.rounds);
  for (size_t i = 1; i < rep.rounds.size(); ++i) {
    EXPECT_EQ(rep.rounds[i].round, rep.rounds[i - 1].round + 1);
    EXPECT_GE(rep.rounds[i].samples, rep.rounds[i - 1].samples);
    EXPECT_GE(rep.rounds[i].optimizer_calls,
              rep.rounds[i - 1].optimizer_calls);
    EXPECT_LE(rep.rounds[i].active_configs,
              rep.rounds[i - 1].active_configs);
  }

  // eliminated_at mirrors the eliminate events exactly.
  ASSERT_EQ(r.eliminated_at.size(), 6u);
  size_t eliminated = 0;
  for (ConfigId c = 0; c < r.eliminated_at.size(); ++c) {
    if (r.eliminated_at[c] != 0) ++eliminated;
  }
  EXPECT_EQ(rep.eliminations.size(), eliminated);
  for (const TraceElimination& e : rep.eliminations) {
    ASSERT_LT(e.config, r.eliminated_at.size());
    EXPECT_EQ(r.eliminated_at[e.config], e.round);
    EXPECT_GT(e.pr_cs, e.threshold);
  }
  EXPECT_EQ(r.eliminated_at[r.best], 0u) << "the winner is never eliminated";
  EXPECT_EQ(6u - eliminated, r.active_configs);
}

TEST(SelectorTraceTest, IndependentTraceAgreesWithSelectionResult) {
  MatrixCostSource src = SyntheticMatrix(3000, 4, 8, 0.05, 93);
  const std::string path = TempTracePath("indep_run.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();

  SelectorOptions opt = EliminatingOptions(SamplingScheme::kIndependent);
  opt.trace = sink.get();
  Rng rng(94);
  SelectionResult r = ConfigurationSelector(&src, opt).Run(&rng);
  sink.reset();

  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReport& rep = read.value();
  EXPECT_EQ(rep.scheme, "independent");
  ASSERT_TRUE(rep.has_run_end);
  EXPECT_EQ(rep.end.best, r.best);
  EXPECT_EQ(rep.end.pr_cs, r.pr_cs);
  EXPECT_EQ(rep.end.rounds, r.rounds);
  EXPECT_EQ(rep.end.samples, r.queries_sampled);
  EXPECT_EQ(rep.end.optimizer_calls, r.optimizer_calls);
  ASSERT_EQ(rep.rounds.size(), r.rounds);
}

TEST(SelectorTraceTest, TracingNeverPerturbsTheRun) {
  MatrixCostSource src = SyntheticMatrix(4000, 6, 8, 0.02, 95);
  SelectorOptions opt = EliminatingOptions(SamplingScheme::kDelta);

  Rng rng_plain(96);
  SelectionResult plain = ConfigurationSelector(&src, opt).Run(&rng_plain);

  const std::string path = TempTracePath("identity_run.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();
  opt.trace = sink.get();
  Rng rng_traced(96);
  SelectionResult traced = ConfigurationSelector(&src, opt).Run(&rng_traced);

  EXPECT_EQ(traced.best, plain.best);
  EXPECT_EQ(traced.pr_cs, plain.pr_cs);
  EXPECT_EQ(traced.queries_sampled, plain.queries_sampled);
  EXPECT_EQ(traced.optimizer_calls, plain.optimizer_calls);
  EXPECT_EQ(traced.rounds, plain.rounds);
  EXPECT_EQ(traced.eliminated_at, plain.eliminated_at);
  EXPECT_EQ(traced.estimates, plain.estimates);
}

TEST(SelectorTraceTest, NoopSinkIsAlsoTransparent) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.05, 97);
  SelectorOptions opt = EliminatingOptions(SamplingScheme::kDelta);
  Rng rng_plain(98);
  SelectionResult plain = ConfigurationSelector(&src, opt).Run(&rng_plain);

  NoopTraceSink noop;
  opt.trace = &noop;
  Rng rng_noop(98);
  SelectionResult traced = ConfigurationSelector(&src, opt).Run(&rng_noop);
  EXPECT_EQ(traced.best, plain.best);
  EXPECT_EQ(traced.pr_cs, plain.pr_cs);
  EXPECT_EQ(traced.optimizer_calls, plain.optimizer_calls);
}

TEST(SelectorTraceTest, SingleConfigEmitsRunEndWithZeroRounds) {
  MatrixCostSource src = SyntheticMatrix(200, 1, 4, 0.0, 99);
  const std::string path = TempTracePath("single_config.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();
  SelectorOptions opt;
  opt.trace = sink.get();
  Rng rng(100);
  SelectionResult r = ConfigurationSelector(&src, opt).Run(&rng);
  sink.reset();
  EXPECT_EQ(r.rounds, 0u);
  ASSERT_EQ(r.eliminated_at.size(), 1u);
  EXPECT_EQ(r.eliminated_at[0], 0u);

  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().has_run_end);
  EXPECT_EQ(read.value().end.rounds, 0u);
  EXPECT_EQ(read.value().rounds.size(), 0u);
}

// ---------------------------------------------------------------------------
// Span events (ISSUE 8): JSONL round-trip, order-independent rollup,
// Chrome export.

std::vector<obs::SpanRecord> TwoThreadSpans() {
  // Two threads' spans as a drain could observe them: thread 0's pair
  // first, thread 1's root in between — deliberately not timeline order.
  std::vector<obs::SpanRecord> records;
  obs::SpanRecord r;
  r.name = "whatif";
  r.category = "selector";
  r.id = (0ull << 32) | 2;
  r.parent = (0ull << 32) | 1;
  r.tid = 0;
  r.start_ns = 1100;
  r.end_ns = 1600;
  r.counter = "pdx_whatif_calls_total";
  r.counter_delta = 8;
  records.push_back(r);
  r = obs::SpanRecord{};
  r.name = "run_delta";
  r.category = "selector";
  r.id = (0ull << 32) | 1;
  r.tid = 0;
  r.start_ns = 1000;
  r.end_ns = 5000;
  records.push_back(r);
  r = obs::SpanRecord{};
  r.name = "run_chunks";
  r.category = "pool";
  r.id = (1ull << 32) | 1;
  r.tid = 1;
  r.start_ns = 1200;
  r.end_ns = 2200;
  records.push_back(r);
  r = obs::SpanRecord{};
  r.name = "whatif";
  r.category = "selector";
  r.id = (0ull << 32) | 3;
  r.parent = (0ull << 32) | 1;
  r.tid = 0;
  r.start_ns = 2000;
  r.end_ns = 2300;
  r.counter = "pdx_whatif_calls_total";
  r.counter_delta = 8;
  records.push_back(r);
  return records;
}

TEST(SpanTraceTest, SpanEventsRoundTripAndRollUp) {
  const std::string path = TempTracePath("spans.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();
  TraceRunStart rs;
  rs.scheme = "delta";
  rs.num_configs = 2;
  rs.alpha = 0.9;
  sink->RunStart(rs);
  EmitSpans(sink.get(), TwoThreadSpans());
  sink->Flush();
  sink.reset();

  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReport& rep = read.value();
  EXPECT_EQ(rep.num_spans, 4u);
  ASSERT_EQ(rep.span_rollup.size(), 3u);
  // Ranked by total duration: run_delta 4000 > pool 1000 > whatif 800.
  EXPECT_EQ(rep.span_rollup[0].name, "run_delta");
  EXPECT_EQ(rep.span_rollup[0].total_ns, 4000u);
  EXPECT_EQ(rep.span_rollup[1].category, "pool");
  EXPECT_EQ(rep.span_rollup[2].name, "whatif");
  EXPECT_EQ(rep.span_rollup[2].count, 2u);
  EXPECT_EQ(rep.span_rollup[2].total_ns, 800u);
  EXPECT_EQ(rep.span_rollup[2].counter_delta, 16u);
}

TEST(SpanTraceTest, RollupIsIndependentOfThreadInterleaving) {
  // The same spans in two different on-disk orders (threads race the
  // drain) must produce identical reports.
  std::vector<obs::SpanRecord> records = TwoThreadSpans();
  const std::string fwd = TempTracePath("spans_fwd.jsonl");
  const std::string rev = TempTracePath("spans_rev.jsonl");
  for (const auto& [path, reverse] :
       {std::pair(fwd, false), std::pair(rev, true)}) {
    auto open = JsonlTraceSink::Open(path);
    ASSERT_TRUE(open.ok());
    std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();
    TraceRunStart rs;
    rs.scheme = "delta";
    rs.num_configs = 2;
    rs.alpha = 0.9;
    sink->RunStart(rs);
    std::vector<obs::SpanRecord> ordered = records;
    if (reverse) std::reverse(ordered.begin(), ordered.end());
    EmitSpans(sink.get(), ordered);
    sink.reset();
  }
  auto a = ReadTraceReport(fwd);
  auto b = ReadTraceReport(rev);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().span_rollup.size(), b.value().span_rollup.size());
  for (size_t i = 0; i < a.value().span_rollup.size(); ++i) {
    EXPECT_EQ(a.value().span_rollup[i].category,
              b.value().span_rollup[i].category);
    EXPECT_EQ(a.value().span_rollup[i].name, b.value().span_rollup[i].name);
    EXPECT_EQ(a.value().span_rollup[i].count, b.value().span_rollup[i].count);
    EXPECT_EQ(a.value().span_rollup[i].total_ns,
              b.value().span_rollup[i].total_ns);
  }
}

TEST(SpanTraceTest, ReportWithoutBudgetDecisionsOrSpansIsClean) {
  // A dynamic-budget trace can legitimately contain zero budget_decision
  // events (the budget never intervened) and zero spans (timing off);
  // the report must read clean with empty aggregates, not fail.
  const std::string path = TempTracePath("no_budget_no_spans.jsonl");
  WriteFile(path,
            "{\"ev\":\"run_start\",\"scheme\":\"delta\",\"k\":2,"
            "\"alpha\":0.9}\n"
            "{\"ev\":\"round\",\"round\":1,\"samples\":30,\"calls\":60,"
            "\"incumbent\":0,\"pr\":0.5,\"active\":2,\"strata\":1}\n"
            "{\"ev\":\"run_end\",\"best\":0,\"pr\":0.95,\"target\":true,"
            "\"rounds\":1,\"samples\":31,\"calls\":62,\"active\":2}\n");
  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().budget_decisions, 0u);
  EXPECT_EQ(read.value().budget_refined_queries, 0u);
  EXPECT_EQ(read.value().num_spans, 0u);
  EXPECT_TRUE(read.value().span_rollup.empty());
}

TEST(SpanTraceTest, ReportReadsBudgetEventsOfOlderBuilds) {
  // Older builds wrote a halt_refine action and value_refine /
  // value_sample scores, and charged bound_calls. The report still reads
  // such a trace: refine rounds and refined queries add up, bound_calls
  // keeps the last cumulative value, the retired fields are ignored.
  const std::string path = TempTracePath("older_budget.jsonl");
  WriteFile(path,
            "{\"ev\":\"run_start\",\"scheme\":\"delta\",\"k\":3,"
            "\"alpha\":0.9}\n"
            "{\"ev\":\"budget_decision\",\"round\":1,\"action\":"
            "\"refine\",\"refined\":64,\"bound_calls\":128,\"dominated\":0,"
            "\"value_refine\":0,\"value_sample\":0}\n"
            "{\"ev\":\"budget_decision\",\"round\":2,\"action\":"
            "\"halt_refine\",\"refined\":0,\"bound_calls\":130,"
            "\"dominated\":1,\"value_refine\":0,\"value_sample\":0}\n"
            "{\"ev\":\"budget_decision\",\"round\":3,\"action\":"
            "\"sample\",\"refined\":0,\"bound_calls\":130,\"dominated\":0,"
            "\"value_refine\":7.4309095885764955e-05,"
            "\"value_sample\":2.0806621157110072e-05}\n"
            "{\"ev\":\"run_end\",\"best\":0,\"pr\":0.95,\"target\":true,"
            "\"rounds\":3,\"samples\":31,\"calls\":93,\"active\":2}\n");
  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReport& rep = read.value();
  EXPECT_EQ(rep.budget_decisions, 3u);
  EXPECT_EQ(rep.budget_refine_rounds, 1u);
  EXPECT_EQ(rep.budget_refined_queries, 64u);
  EXPECT_EQ(rep.budget_bound_calls, 130u);
  EXPECT_EQ(rep.budget_dominated, 1u);
  EXPECT_TRUE(rep.has_run_end);
}

TEST(SpanTraceTest, DrainSpansToSinkEmitsLiveSpans) {
  const bool was_enabled = obs::TimingEnabled();
  obs::SetTimingEnabled(true);
  obs::ResetSpans();
  {
    obs::SpanScope outer("outer", "test");
    obs::SpanScope inner("inner", "test");
  }
  const std::string path = TempTracePath("live_spans.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();
  TraceRunStart rs;
  rs.scheme = "delta";
  rs.num_configs = 1;
  rs.alpha = 0.9;
  sink->RunStart(rs);
  obs::SpanSnapshot snap = DrainSpansToSink(sink.get());
  sink.reset();

  EXPECT_EQ(snap.records.size(), 2u);
  // A null sink still drains (ledger-only runs want the snapshot without
  // a trace file).
  { obs::SpanScope again("again", "test"); }
  EXPECT_EQ(DrainSpansToSink(nullptr).records.size(), 1u);
  obs::SetTimingEnabled(was_enabled);

  auto read = ReadTraceReport(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().num_spans, 2u);
}

TEST(SpanTraceTest, WriteChromeTraceExportsCompleteEvents) {
  const std::string path = TempTracePath("chrome_src.jsonl");
  auto open = JsonlTraceSink::Open(path);
  ASSERT_TRUE(open.ok());
  std::unique_ptr<JsonlTraceSink> sink = std::move(open).value();
  TraceRunStart rs;
  rs.scheme = "delta";
  rs.num_configs = 2;
  rs.alpha = 0.9;
  sink->RunStart(rs);
  EmitSpans(sink.get(), TwoThreadSpans());
  sink.reset();

  const std::string out = TempTracePath("chrome_out.json");
  auto written = WriteChromeTrace(path, out);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value(), 4u);

  std::FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"run_delta\""), std::string::npos);
  // Timestamps are microseconds: 1000 ns start -> ts 1.
  EXPECT_NE(text.find("\"tid\":1"), std::string::npos);

  EXPECT_FALSE(
      WriteChromeTrace(TempTracePath("missing.jsonl"), out).ok());
}

}  // namespace
}  // namespace pdx
