#include "optimizer/serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "optimizer/candidate_gen.h"
#include "optimizer/what_if.h"
#include "test_util.h"
#include "tuner/enumerator.h"
#include "workload/scenario.h"

namespace pdx {
namespace {

using testing::ProcessTempDir;
using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

/// A view's elements, for EXPECT_EQ and its failure message.
template <typename T>
std::vector<T> Elems(std::span<const T> view) {
  return {view.begin(), view.end()};
}

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempDir("pdx_serialization");
    path_ = dir_ + "/artifact.pdx";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadBack() const {
    std::ifstream in(path_);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void Write(const std::string& text) const {
    std::ofstream out(path_);
    out << text;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(SerializationTest, SchemaRoundTrip) {
  Schema original = SmallTpcdSchema();
  ASSERT_TRUE(SaveSchema(original, path_).ok());
  auto loaded = LoadSchema(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), original.name());
  ASSERT_EQ(loaded->num_tables(), original.num_tables());
  for (TableId t = 0; t < original.num_tables(); ++t) {
    const Table& a = original.table(t);
    const Table& b = loaded->table(t);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.row_count, b.row_count);
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); ++c) {
      EXPECT_EQ(a.columns[c].name, b.columns[c].name);
      EXPECT_EQ(a.columns[c].type, b.columns[c].type);
      EXPECT_EQ(a.columns[c].width_bytes, b.columns[c].width_bytes);
      EXPECT_EQ(a.columns[c].num_distinct, b.columns[c].num_distinct);
      EXPECT_DOUBLE_EQ(a.columns[c].zipf_theta, b.columns[c].zipf_theta);
    }
  }
}

TEST_F(SerializationTest, CrmSchemaRoundTrip) {
  Schema original = SmallCrmSchema();
  ASSERT_TRUE(SaveSchema(original, path_).ok());
  auto loaded = LoadSchema(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_tables(), original.num_tables());
  EXPECT_EQ(loaded->TotalHeapBytes(), original.TotalHeapBytes());
}

TEST_F(SerializationTest, WorkloadRoundTripCostsBitIdentical) {
  Schema schema = SmallTpcdSchema();
  Workload original = SmallTpcdWorkload(schema, 120);
  ASSERT_TRUE(SaveWorkload(original, path_).ok());
  auto loaded = LoadWorkload(path_, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->num_templates(), original.num_templates());

  // The decisive property: reloaded queries cost bit-identically.
  WhatIfOptimizer opt(schema);
  CandidateGenerator gen(schema);
  Configuration rich = gen.RichConfiguration(original);
  for (QueryId q = 0; q < original.size(); q += 7) {
    EXPECT_DOUBLE_EQ(opt.Cost(original.query(q), rich),
                     opt.Cost(loaded->query(q), rich))
        << "query " << q;
  }
}

TEST_F(SerializationTest, DmlWorkloadRoundTrip) {
  Schema schema = SmallCrmSchema();
  Workload original = SmallCrmTrace(schema, 300);
  ASSERT_TRUE(SaveWorkload(original, path_).ok());
  auto loaded = LoadWorkload(path_, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->DmlFraction(), original.DmlFraction());
  for (QueryId q = 0; q < original.size(); q += 11) {
    const Query& a = original.query(q);
    const Query& b = loaded->query(q);
    EXPECT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.update.has_value(), b.update.has_value());
    if (a.update) {
      EXPECT_EQ(a.update->table, b.update->table);
      EXPECT_DOUBLE_EQ(a.update->selectivity, b.update->selectivity);
      EXPECT_EQ(Elems(a.update->set_columns), Elems(b.update->set_columns));
    }
  }
}

TEST_F(SerializationTest, WorkloadRejectsWrongSchema) {
  Schema tpcd = SmallTpcdSchema();
  Schema crm = SmallCrmSchema();
  Workload original = SmallTpcdWorkload(tpcd, 24);
  ASSERT_TRUE(SaveWorkload(original, path_).ok());
  auto loaded = LoadWorkload(path_, crm);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, ConfigurationRoundTripPreservesCosts) {
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 120);
  WhatIfOptimizer opt(schema);
  Rng rng(901);
  EnumeratorOptions eopt;
  eopt.num_configs = 3;
  eopt.eval_sample_size = 40;
  auto configs = EnumerateConfigurations(opt, wl, eopt, &rng);
  const Configuration& original = configs[0];
  ASSERT_GT(original.NumStructures(), 0u);

  ASSERT_TRUE(SaveConfiguration(original, schema, path_).ok());
  auto loaded = LoadConfiguration(path_, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->indexes().size(), original.indexes().size());
  EXPECT_EQ(loaded->views().size(), original.views().size());
  EXPECT_EQ(loaded->Hash(), original.Hash());
  for (QueryId q = 0; q < wl.size(); q += 13) {
    EXPECT_DOUBLE_EQ(opt.Cost(wl.query(q), original),
                     opt.Cost(wl.query(q), *loaded));
  }
}

TEST_F(SerializationTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadSchema("/nonexistent/x.pdx").ok());
  Schema schema = SmallTpcdSchema();
  EXPECT_FALSE(LoadWorkload("/nonexistent/x.pdx", schema).ok());
  EXPECT_FALSE(LoadConfiguration("/nonexistent/x.pdx", schema).ok());
}

TEST_F(SerializationTest, RejectsWrongMagic) {
  {
    std::ofstream out(path_);
    out << "not-a-pdx-file\n";
  }
  EXPECT_FALSE(LoadSchema(path_).ok());
  Schema schema = SmallTpcdSchema();
  EXPECT_FALSE(LoadWorkload(path_, schema).ok());
  EXPECT_FALSE(LoadConfiguration(path_, schema).ok());
}

TEST_F(SerializationTest, RejectsCorruptRecords) {
  Schema schema = SmallTpcdSchema();
  {
    std::ofstream out(path_);
    out << "pdx-workload 1\nschema\ttpcd\nquery\tnot\tenough\n";
  }
  auto loaded = LoadWorkload(path_, schema);
  EXPECT_FALSE(loaded.ok());
  // Error message carries file and line for debuggability.
  EXPECT_NE(loaded.status().message().find(":3"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SerializationTest, RejectsTruncatedQuery) {
  Schema schema = SmallTpcdSchema();
  Workload original = SmallTpcdWorkload(schema, 24);
  ASSERT_TRUE(SaveWorkload(original, path_).ok());
  // Chop the trailing "end" record.
  std::ifstream in(path_);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  size_t last_end = contents.rfind("end\n");
  ASSERT_NE(last_end, std::string::npos);
  {
    std::ofstream out(path_);
    out << contents.substr(0, last_end);
  }
  EXPECT_FALSE(LoadWorkload(path_, schema).ok());
}

TEST_F(SerializationTest, DisconnectedJoinOrderIsAnErrorNotAnAbort) {
  // A join list whose second edge touches no already-joined table parses
  // record by record but cannot be priced left-deep; LoadWorkload must
  // refuse it with InvalidArgument instead of handing it to the optimizer.
  Schema schema = SmallTpcdSchema();
  Write("pdx-workload 1\nschema\t" + schema.name() +
        "\ntemplate\t0\tq\t0\t0\t0\nquery\t0\t0\t0\t0x1p+0\n"
        "access\t3\t0\naccess\t6\t0\naccess\t7\t0\naccess\t4\t0\n"
        "join\t0\t1\t0\t0\njoin\t2\t3\t0\t0\nend\n");
  auto loaded = LoadWorkload(path_, schema);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("disconnected"), std::string::npos)
      << loaded.status().ToString();

  // The same query with a connected order loads and prices.
  Write("pdx-workload 1\nschema\t" + schema.name() +
        "\ntemplate\t0\tq\t0\t0\t0\nquery\t0\t0\t0\t0x1p+0\n"
        "access\t3\t0\naccess\t6\t0\naccess\t7\t0\naccess\t4\t0\n"
        "join\t0\t1\t0\t0\njoin\t1\t2\t0\t0\njoin\t2\t3\t0\t0\n"
        "end\n");
  auto ok = LoadWorkload(path_, schema);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  WhatIfOptimizer opt(schema);
  EXPECT_GT(opt.Cost(ok->query(0), Configuration("empty")), 0.0);
}

TEST_F(SerializationTest, ConfigRejectsOutOfRangeViewTables) {
  Schema schema = SmallTpcdSchema();
  Write("pdx-config 1\nschema\t" + schema.name() +
        "\nname\tx\nview\tv\t10\t0,99\t-\t-\t-\n");
  EXPECT_EQ(LoadConfiguration(path_, schema).status().message(),
            path_ + ":4: view table out of range");
}

TEST_F(SerializationTest, ConfigRejectsOutOfRangeColumns) {
  Schema schema = SmallTpcdSchema();
  {
    std::ofstream out(path_);
    out << "pdx-config 1\nschema\ttpcd\nname\tx\nindex\t0\t99\t-\n";
  }
  EXPECT_FALSE(LoadConfiguration(path_, schema).ok());
}

// --- bit-exact parity -----------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Field-for-field equality; doubles compared bit for bit (so -0.0 != 0.0).
void ExpectSameWorkload(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.num_templates(), b.num_templates());
  for (TemplateId t = 0; t < a.num_templates(); ++t) {
    const QueryTemplate& x = a.query_template(t);
    const QueryTemplate& y = b.query_template(t);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.tables, y.tables);
    EXPECT_EQ(x.signature, y.signature);
  }
  ASSERT_EQ(a.size(), b.size());
  for (QueryId q = 0; q < a.size() && !::testing::Test::HasFailure(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const Query& x = a.query(q);
    const Query& y = b.query(q);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.template_id, y.template_id);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_TRUE(SameBits(x.optimize_overhead, y.optimize_overhead));
    ASSERT_EQ(x.select.accesses.size(), y.select.accesses.size());
    for (size_t i = 0; i < x.select.accesses.size(); ++i) {
      const TableAccess& u = x.select.accesses[i];
      const TableAccess& v = y.select.accesses[i];
      EXPECT_EQ(u.table, v.table);
      EXPECT_EQ(Elems(u.referenced_columns), Elems(v.referenced_columns));
      ASSERT_EQ(u.predicates.size(), v.predicates.size());
      for (size_t j = 0; j < u.predicates.size(); ++j) {
        const Predicate& m = u.predicates[j];
        const Predicate& n = v.predicates[j];
        EXPECT_EQ(m.column, n.column);
        EXPECT_EQ(m.op, n.op);
        EXPECT_TRUE(SameBits(m.selectivity, n.selectivity));
        EXPECT_EQ(m.sargable, n.sargable);
        EXPECT_EQ(m.value_rank, n.value_rank);
        EXPECT_TRUE(SameBits(m.domain_fraction, n.domain_fraction));
      }
    }
    ASSERT_EQ(x.select.joins.size(), y.select.joins.size());
    for (size_t i = 0; i < x.select.joins.size(); ++i) {
      const JoinEdge& u = x.select.joins[i];
      const JoinEdge& v = y.select.joins[i];
      EXPECT_EQ(u.left_access, v.left_access);
      EXPECT_EQ(u.right_access, v.right_access);
      EXPECT_EQ(u.left_column, v.left_column);
      EXPECT_EQ(u.right_column, v.right_column);
    }
    EXPECT_EQ(Elems(x.select.group_by), Elems(y.select.group_by));
    EXPECT_EQ(Elems(x.select.order_by), Elems(y.select.order_by));
    EXPECT_EQ(x.select.num_aggregates, y.select.num_aggregates);
    ASSERT_EQ(x.update.has_value(), y.update.has_value());
    if (x.update) {
      EXPECT_EQ(x.update->table, y.update->table);
      EXPECT_EQ(x.update->kind, y.update->kind);
      EXPECT_EQ(Elems(x.update->set_columns), Elems(y.update->set_columns));
      EXPECT_TRUE(SameBits(x.update->selectivity, y.update->selectivity));
    }
  }
}

/// Byte offsets where LoadWorkload starts a new chunk (the documented
/// rule: the first "end" / "query" line boundary at least
/// kWorkloadChunkBytes past the previous cut).
std::vector<size_t> ChunkCuts(const std::string& text) {
  std::vector<size_t> cuts;
  size_t prev = text.find("\nquery\t") + 1;
  for (size_t hit; (hit = text.find("\nend\nquery\t",
                                    prev + kWorkloadChunkBytes)) !=
                   std::string::npos;) {
    prev = hit + 5;
    cuts.push_back(prev);
  }
  return cuts;
}

/// 1-based line number of the line holding byte `offset`.
size_t LineOf(const std::string& text, size_t offset) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

TEST_F(SerializationTest, RoundTripIsFieldForFieldBitExact) {
  Schema tpcd = SmallTpcdSchema();
  Schema crm = SmallCrmSchema();
  auto zipf = ParseScenarioSpec("zipf:0.99,rw:0.8,n:2000");
  ASSERT_TRUE(zipf.ok());
  struct Case {
    const char* name;
    const Schema* schema;
    Workload workload;
  };
  Case cases[] = {
      {"tpcd", &tpcd, SmallTpcdWorkload(tpcd, 2500)},
      {"crm", &crm, SmallCrmTrace(crm, 2000)},
      {"zipf:0.99", &tpcd, GenerateScenarioWorkload(tpcd, *zipf)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(SaveWorkload(c.workload, path_).ok());
    EXPECT_FALSE(ChunkCuts(ReadBack()).empty()) << "want several chunks";
    auto loaded = LoadWorkload(path_, *c.schema);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameWorkload(c.workload, *loaded);
  }
}

TEST_F(SerializationTest, SpecialDoublesRoundTripBitExact) {
  Schema schema = SmallTpcdSchema();
  Workload base = SmallTpcdWorkload(schema, 40);
  const double specials[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::max(),
                             0.1};
  Workload odd(&schema);
  for (const QueryTemplate& t : base.templates()) odd.AddTemplate(t);
  QueryStore store;
  for (size_t i = 0; i < base.size(); ++i) {
    Query q = base.query(static_cast<QueryId>(i));
    q.optimize_overhead = specials[i % std::size(specials)];
    for (const TableAccess& a : q.select.accesses) {
      store.AddAccess(a.table, a.referenced_columns);
      for (Predicate p : a.predicates) {
        p.domain_fraction = specials[(i + 3) % std::size(specials)];
        store.AddPredicate(p);
      }
    }
    for (const JoinEdge& j : q.select.joins) store.AddJoin(j);
    store.SetGroupBy(q.select.group_by);
    store.SetOrderBy(q.select.order_by);
    if (q.update) store.SetUpdateColumns(q.update->set_columns);
    odd.AddQuery(store.Finish(q));
  }
  ASSERT_TRUE(SaveWorkload(odd, path_).ok());
  auto loaded = LoadWorkload(path_, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameWorkload(odd, *loaded);
}

TEST_F(SerializationTest, DecimalSpellingsOfHandWrittenFilesParse) {
  Schema schema = SmallTpcdSchema();
  struct Spelling {
    const char* text;
    double value;
  };
  const Spelling spellings[] = {
      {"0.25", 0.25},
      {"1e-3", 1e-3},
      {"-0", -0.0},
      {"+2.5", 2.5},
      {"4.9406564584124654e-324", std::numeric_limits<double>::denorm_min()},
      {"inf", std::numeric_limits<double>::infinity()},
      {"-inf", -std::numeric_limits<double>::infinity()},
      {"0X1P-2", 0.25},
      {"-0x0p+0", -0.0},
      {"0x1.999999999999ap-4", 0.1},
  };
  std::string text = "pdx-workload 1\nschema\t" + schema.name() +
                     "\ntemplate\t0\tq\t0\t0\t0\n";
  for (const Spelling& s : spellings) {
    text += std::string("query\t0\t0\t0\t") + s.text +
            "\naccess\t0\t0\npred\t0\t0\t1\t0.5\t1\t3\t" + s.text + "\nend\n";
  }
  Write(text);
  auto loaded = LoadWorkload(path_, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), std::size(spellings));
  for (size_t i = 0; i < std::size(spellings); ++i) {
    const Query& q = loaded->query(static_cast<QueryId>(i));
    EXPECT_TRUE(SameBits(q.optimize_overhead, spellings[i].value))
        << spellings[i].text;
    EXPECT_TRUE(SameBits(q.select.accesses[0].predicates[0].domain_fraction,
                         spellings[i].value))
        << spellings[i].text;
    EXPECT_EQ(q.select.accesses[0].predicates[0].selectivity, 0.5);
  }
  for (const char* bad : {"", "--1", "+-1", "0x-1p+0", "0x", "1.5x", " 1",
                          "0x1p+0 ", "one"}) {
    Write("pdx-workload 1\nschema\t" + schema.name() +
          "\ntemplate\t0\tq\t0\t0\t0\nquery\t0\t0\t0\t" + bad + "\n");
    auto st = LoadWorkload(path_, schema).status();
    EXPECT_EQ(st.code(), StatusCode::kIOError) << "'" << bad << "'";
    EXPECT_EQ(st.message(),
              path_ + ":4: bad double '" + std::string(bad) + "'");
  }
}

TEST_F(SerializationTest, LoadedWorkloadIsIdenticalAcrossThreadCounts) {
  Schema schema = SmallTpcdSchema();
  Workload original = SmallTpcdWorkload(schema, 2500);
  ASSERT_TRUE(SaveWorkload(original, path_).ok());
  ASSERT_GE(ChunkCuts(ReadBack()).size(), 2u);
  const size_t threads = GlobalThreadCount();
  SetGlobalThreadCount(1);
  auto serial = LoadWorkload(path_, schema);
  SetGlobalThreadCount(4);
  auto parallel = LoadWorkload(path_, schema);
  SetGlobalThreadCount(threads);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectSameWorkload(*serial, *parallel);
  ExpectSameWorkload(original, *parallel);
}

// --- malformed input: a Status, never an abort ------------------------------

TEST_F(SerializationTest, UnregisteredTemplateIdIsAnErrorNotAnAbort) {
  Schema schema = SmallTpcdSchema();
  Write("pdx-workload 1\nschema\t" + schema.name() +
        "\ntemplate\t0\tq\t0\t0\t0\nquery\t0\t7\t0\t0x1p+0\naccess\t0\t0\n"
        "end\n");
  auto loaded = LoadWorkload(path_, schema);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_EQ(loaded.status().message(),
            path_ + ":4: query template id 7 not registered (1 templates)");
}

TEST_F(SerializationTest, OutOfRangeAndSignedIdsAreRejected) {
  Schema schema = SmallTpcdSchema();
  const std::string head = "pdx-workload 1\nschema\t" + schema.name() +
                           "\ntemplate\t0\tq\t0\t0\t0\n";
  struct Bad {
    std::string record;  // line 4, inside the one query
    std::string message;
  };
  const Bad workload_cases[] = {
      {"query\t0\t4294967296\t0\t0x1p+0",
       "integer '4294967296' out of range"},
      {"query\t0\t-1\t0\t0x1p+0", "bad integer '-1'"},
      {"query\t0\t+3\t0\t0x1p+0", "bad integer '+3'"},
      {"query\t0\t 0\t0\t0x1p+0", "bad integer ' 0'"},
      {"query\t0\t0x0\t0\t0x1p+0", "bad integer '0x0'"},
      {"query\t0\t0\t4\t0x1p+0", "integer '4' out of range"},
      {"query\t0\t0\t256\t0x1p+0", "integer '256' out of range"},
  };
  for (const Bad& b : workload_cases) {
    Write(head + b.record + "\naccess\t0\t0\nend\n");
    auto st = LoadWorkload(path_, schema).status();
    EXPECT_EQ(st.code(), StatusCode::kIOError) << b.record;
    EXPECT_EQ(st.message(), path_ + ":4: " + b.message);
  }
  const Bad body_cases[] = {
      {"access\t4294967296\t0", "integer '4294967296' out of range"},
      {"access\t0\t1,4294967296", "integer '4294967296' out of range"},
      {"access\t0\t1,,2", "bad integer ''"},
      {"access\t0\t-1", "bad integer '-1'"},
      {"join\t0\t4294967296\t0\t0", "integer '4294967296' out of range"},
      {"agg\t4294967296", "integer '4294967296' out of range"},
      {"groupby\t0:4294967296", "integer '4294967296' out of range"},
      {"groupby\t0:1:2", "bad column ref '0:1:2'"},
      {"update\t0\t9\t0x1p-1\t-", "integer '9' out of range"},
  };
  for (const Bad& b : body_cases) {
    Write(head + "query\t0\t0\t0\t0x1p+0\naccess\t0\t0\n" + b.record +
          "\nend\n");
    auto st = LoadWorkload(path_, schema).status();
    EXPECT_EQ(st.code(), StatusCode::kIOError) << b.record;
    EXPECT_EQ(st.message(), path_ + ":6: " + b.message);
  }

  Write("pdx-schema 1\nschema\ts\ntable\tt\t-1\n");
  EXPECT_EQ(LoadSchema(path_).status().message(),
            path_ + ":3: bad integer '-1'");
  Write("pdx-schema 1\nschema\ts\ntable\tt\t10\ncol\tc\t0\t4294967296\t5\t0\n");
  EXPECT_EQ(LoadSchema(path_).status().message(),
            path_ + ":4: integer '4294967296' out of range");
  Write("pdx-schema 1\nschema\ts\ntable\tt\t10\ncol\tc\t7\t4\t5\t0\n");
  EXPECT_EQ(LoadSchema(path_).status().message(),
            path_ + ":4: integer '7' out of range");

  const std::string config_head =
      "pdx-config 1\nschema\t" + schema.name() + "\nname\tx\n";
  Write(config_head + "index\t4294967296\t0\t-\n");
  EXPECT_EQ(LoadConfiguration(path_, schema).status().message(),
            path_ + ":4: integer '4294967296' out of range");
  Write(config_head + "view\tv\t10\t0,-1\t-\t-\t-\n");
  EXPECT_EQ(LoadConfiguration(path_, schema).status().message(),
            path_ + ":4: bad integer '-1'");
}

TEST_F(SerializationTest, EmptyQuerySectionsLoad) {
  Schema schema = SmallTpcdSchema();
  Write("pdx-workload 1\nschema\t" + schema.name() + "\n");
  auto none = LoadWorkload(path_, schema);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->size(), 0u);
  EXPECT_EQ(none->num_templates(), 0u);
  Write("pdx-workload 1\nschema\t" + schema.name() +
        "\ntemplate\t0\tq\t0\t0\t0\n\n");
  auto templates_only = LoadWorkload(path_, schema);
  ASSERT_TRUE(templates_only.ok()) << templates_only.status().ToString();
  EXPECT_EQ(templates_only->size(), 0u);
  EXPECT_EQ(templates_only->num_templates(), 1u);
}

/// Corrupt-record errors across chunks: whatever chunk holds the damage,
/// the reported error is the first one in file order, at its true line.
class ChunkedCorruptionTest : public SerializationTest {
 protected:
  void SetUp() override {
    SerializationTest::SetUp();
    schema_ = SmallTpcdSchema();
    const Workload workload = SmallTpcdWorkload(schema_, 2500);
    num_templates_ = workload.num_templates();
    ASSERT_TRUE(SaveWorkload(workload, path_).ok());
    text_ = ReadBack();
    cuts_ = ChunkCuts(text_);
    ASSERT_GE(cuts_.size(), 2u);
  }

  /// Loads `text` and expects exactly "path:line: message".
  void ExpectError(const std::string& text, size_t line,
                   const std::string& message) {
    Write(text);
    auto st = LoadWorkload(path_, schema_).status();
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_EQ(st.message(),
              path_ + ":" + std::to_string(line) + ": " + message);
  }

  /// Replaces the whole line starting at `offset` with `line`.
  static std::string ReplaceLine(std::string text, size_t offset,
                                 const std::string& line) {
    return text.replace(offset, text.find('\n', offset) - offset, line);
  }

  Schema schema_;
  size_t num_templates_ = 0;
  std::string text_;
  std::vector<size_t> cuts_;
};

TEST_F(ChunkedCorruptionTest, ErrorInTheFirstChunk) {
  const size_t at = text_.find("\naccess\t") + 1;
  ASSERT_LT(at, cuts_[0]);
  ExpectError(ReplaceLine(text_, at, "access\tx"), LineOf(text_, at),
              "bad access record");
}

TEST_F(ChunkedCorruptionTest, ErrorsInTheLastChunk) {
  const size_t at = text_.rfind("\npred\t") + 1;
  ASSERT_GT(at, cuts_.back());
  ExpectError(ReplaceLine(text_, at, "pred\tx"), LineOf(text_, at),
              "bad pred record");
  // Dropping the final "end": the file ends inside a query.
  const std::string truncated = text_.substr(0, text_.rfind("end\n"));
  ExpectError(truncated, LineOf(truncated, truncated.size() - 1),
              "truncated file: query without end");
}

TEST_F(ChunkedCorruptionTest, ErrorsRightAtAChunkCut) {
  const size_t cut = cuts_[0];
  ASSERT_EQ(text_.compare(cut, 6, "query\t"), 0);
  // The first record of a chunk.
  ExpectError(ReplaceLine(text_, cut, "query\tx"), LineOf(text_, cut),
              "bad query record");
  ExpectError(ReplaceLine(text_, cut, "query\t0\t99\t0\t0x1p+0"),
              LineOf(text_, cut),
              "query template id 99 not registered (" +
                  std::to_string(num_templates_) + " templates)");
  // The last record of the chunk before it: without its "end", the next
  // query record opens inside a query.
  std::string no_end = text_;
  no_end.erase(cut - 4, 4);
  ExpectError(no_end, LineOf(no_end, cut - 4), "query without end");
  // "end" as the first record of a chunk.
  std::string stray_end = text_;
  stray_end.insert(cut, "end\n");
  ExpectError(stray_end, LineOf(stray_end, cut), "end without query");
}

TEST_F(ChunkedCorruptionTest, LateTemplateRecordIsAnError) {
  for (size_t at : {cuts_[0], cuts_.back(), text_.size()}) {
    std::string late = text_;
    late.insert(at, "template\t99\tlate\t0\t0\t-\n");
    ExpectError(late, LineOf(late, at),
                "template record after the first query record");
  }
}

TEST_F(ChunkedCorruptionTest, FirstErrorInFileOrderWinsWithTrueLineNumbers) {
  // Damage in the last chunk and, later in the test, in the first; blank
  // lines early in the file shift every later line number.
  std::string text = text_;
  const size_t late = text.rfind("\naccess\t") + 1;
  text = ReplaceLine(text, late, "access");
  const size_t blank_at = text.find("\nquery\t") + 1;
  text.insert(blank_at, "\n\n\n");
  const size_t late_shifted = late + 3;
  ExpectError(text, LineOf(text, late_shifted), "bad access record");
  const size_t early = text.find("\njoin\t") + 1;
  ASSERT_LT(early, cuts_[0]);
  text = ReplaceLine(text, early, "join");
  ExpectError(text, LineOf(text, early), "bad join record");
}

}  // namespace
}  // namespace pdx
