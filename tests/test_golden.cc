// Golden-trace regression tests (ISSUE 5): the normalizing comparator's
// semantics, determinism of the canonical runs, and the checked-in goldens
// under tests/golden matching the current tree byte-for-byte (after
// normalization).
#include "validation/golden.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace pdx {
namespace {

TEST(NormalizeTraceTextTest, RerendersNumbersCanonically) {
  // Formatting-only differences collapse; 1.50e1 and 15 are the same
  // number and must normalize identically.
  std::string a = NormalizeTraceText("{\"x\":1.50e1,\"y\":-0.250}\n");
  std::string b = NormalizeTraceText("{\"x\":15,\"y\":-2.5E-1}\n");
  EXPECT_EQ(a, b);
}

TEST(NormalizeTraceTextTest, LeavesStringContentsUntouched) {
  std::string raw = "{\"ev\":\"run_start\",\"scheme\":\"1.50e1\",\"k\":2}\n";
  std::string norm = NormalizeTraceText(raw);
  EXPECT_NE(norm.find("\"1.50e1\""), std::string::npos)
      << "number inside a string was rewritten: " << norm;
}

TEST(NormalizeTraceTextTest, IsIdempotentAndNormalizesLineEndings) {
  std::string raw = "{\"x\":0.1}\r\n{\"y\":2}";
  std::string once = NormalizeTraceText(raw);
  EXPECT_EQ(NormalizeTraceText(once), once);
  EXPECT_EQ(once.find('\r'), std::string::npos);
  EXPECT_EQ(once.back(), '\n');
}

TEST(NormalizeTraceTextTest, PreservesLastUlpDifferences) {
  // The comparator must forgive formatting but never value changes: two
  // doubles one ulp apart have distinct %.17g renderings.
  EXPECT_NE(NormalizeTraceText("{\"x\":0.1}\n"),
            NormalizeTraceText("{\"x\":0.10000000000000002}\n"));
}

TEST(GoldenCaseTest, CasesAreNamedAndDeterministic) {
  std::vector<std::string> names = GoldenCaseNames();
  ASSERT_GE(names.size(), 3u);
  for (const std::string& name : names) {
    std::string a = ProduceGoldenContent(name);
    std::string b = ProduceGoldenContent(name);
    EXPECT_EQ(a, b) << "case '" << name << "' is not deterministic";
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a.find("\"ev\":\"summary\""), std::string::npos)
        << "case '" << name << "' lacks the summary line";
  }
}

TEST(GoldenCaseTest, CheckedInGoldensMatchTheTree) {
  for (const GoldenOutcome& g : CompareAllGoldenCases()) {
    EXPECT_TRUE(g.passed)
        << g.name << ": " << g.detail
        << "\n(intended change? ./examples/pdx_tool validate --regen-golden)";
  }
}

TEST(GoldenCaseTest, RegenerationRoundTripsThroughATempDir) {
  std::string dir = pdx::testing::ProcessTempDir("pdx_golden_roundtrip");
  ASSERT_EQ(setenv("PDX_GOLDEN_DIR", dir.c_str(), 1), 0);
  EXPECT_EQ(GoldenDir(), dir);
  Status st = RegenerateGoldens();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const GoldenOutcome& g : CompareAllGoldenCases()) {
    EXPECT_TRUE(g.passed) << g.name << ": " << g.detail;
  }
  ASSERT_EQ(unsetenv("PDX_GOLDEN_DIR"), 0);
}

TEST(GoldenCaseTest, ComparatorReportsTheFirstDifferingLine) {
  // Point the comparator at a doctored copy of a real golden and check
  // the diagnostic carries the line number and both sides.
  std::string dir = pdx::testing::ProcessTempDir("pdx_golden_diff");
  ASSERT_EQ(setenv("PDX_GOLDEN_DIR", dir.c_str(), 1), 0);
  const std::string name = GoldenCaseNames()[0];
  std::string content = NormalizeTraceText(ProduceGoldenContent(name));
  // Flip one digit in the second line's payload.
  size_t nl = content.find('\n');
  ASSERT_NE(nl, std::string::npos);
  size_t digit = content.find_first_of("123456789", nl);
  ASSERT_NE(digit, std::string::npos);
  content[digit] = content[digit] == '9' ? '8' : '9';
  std::FILE* f = std::fopen((dir + "/" + name + ".jsonl").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  GoldenOutcome out = CompareGoldenCase(name);
  EXPECT_FALSE(out.passed);
  EXPECT_NE(out.detail.find("line"), std::string::npos) << out.detail;
  ASSERT_EQ(unsetenv("PDX_GOLDEN_DIR"), 0);
}

}  // namespace
}  // namespace pdx
