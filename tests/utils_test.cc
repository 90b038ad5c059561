#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "utils/cli.h"
#include "utils/memory_info.h"
#include "utils/parallel.h"
#include "utils/percentile.h"
#include "utils/rng.h"
#include "utils/status.h"
#include "utils/string_util.h"
#include "utils/table_printer.h"

namespace sagdfn::utils {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differ;
  }
  EXPECT_GT(differ, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedish) {
  Rng rng(4);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementBranchesAgree) {
  // The sparse (k << n) branch must replay the dense partial
  // Fisher-Yates exactly. Same seed, same draws: the first k entries of
  // a full permutation (dense branch) ARE the k-sample, because swaps at
  // positions >= k never touch the prefix.
  for (int64_t k : {1, 10, 40}) {
    Rng sparse_rng(9), dense_rng(9);
    auto sample = sparse_rng.SampleWithoutReplacement(1000, k);
    auto perm = dense_rng.Permutation(1000);
    perm.resize(k);
    EXPECT_EQ(sample, perm) << "k=" << k;
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(static_cast<int64_t>(unique.size()), k);
  }
}

TEST(RngTest, PermutationCoversAll) {
  Rng rng(6);
  auto perm = rng.Permutation(50);
  std::set<int64_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(PercentileTest, SortedR7Interpolation) {
  EXPECT_EQ(PercentileSorted({}, 50.0), 0.0);
  EXPECT_EQ(PercentileSorted({7.0}, 99.0), 7.0);
  // Two samples: p50 is the midpoint, not the max.
  EXPECT_EQ(PercentileSorted({1.0, 3.0}, 50.0), 2.0);
  // pct is clamped to [0, 100].
  EXPECT_EQ(PercentileSorted({1.0, 3.0}, -5.0), 1.0);
  EXPECT_EQ(PercentileSorted({1.0, 3.0}, 250.0), 3.0);
  std::vector<double> one_to_hundred(100);
  for (int i = 0; i < 100; ++i) one_to_hundred[i] = i + 1;
  // Rank 0.99 * 99 = 98.01 -> 99 + 0.01 * (100 - 99).
  EXPECT_DOUBLE_EQ(PercentileSorted(one_to_hundred, 99.0), 99.01);
  EXPECT_DOUBLE_EQ(PercentileSorted(one_to_hundred, 50.0), 50.5);
}

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> v(42);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::NotFound("missing"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(StringUtilTest, SplitAndTrimAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringUtilTest, Parsing) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("-12", &i));
  EXPECT_EQ(i, -12);
  EXPECT_FALSE(ParseInt64("12.5", &i));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatBytes(1536.0), "1.50 KiB");
  EXPECT_EQ(FormatBytes(2.0 * (1ull << 30)), "2.00 GiB");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Model", "MAE"});
  table.AddRow({"SAGDFN", "2.56"});
  table.AddRow({"A", "10.0"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| Model  | MAE  |"), std::string::npos);
  EXPECT_NE(out.find("| SAGDFN | 2.56 |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CliTest, ParsesFlagsAndPositionals) {
  // Note: a bare flag followed by a non-flag token consumes it as the
  // value (`--nodes 200`), so positionals must precede flags or follow a
  // `--name=value` form.
  const char* argv[] = {"prog",        "dataset1", "--alpha=1.5",
                        "--nodes",     "200",      "--quick"};
  CommandLine cli(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.GetDouble("alpha", 0.0), 1.5);
  EXPECT_TRUE(cli.GetBool("quick", false));
  EXPECT_EQ(cli.GetInt("nodes", 0), 200);
  EXPECT_EQ(cli.GetInt("missing", 7), 7);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "dataset1");
}

TEST(CliTest, EqualsFormAndBooleanValues) {
  const char* argv[] = {"prog", "--flag=false", "--other=true"};
  CommandLine cli(3, const_cast<char**>(argv));
  EXPECT_FALSE(cli.GetBool("flag", true));
  EXPECT_TRUE(cli.GetBool("other", false));
  EXPECT_TRUE(cli.Has("flag"));
  EXPECT_FALSE(cli.Has("nothere"));
}

TEST(MemoryInfoTest, ReportsPlausibleRss) {
  const int64_t rss = CurrentRssBytes();
  EXPECT_GT(rss, 1 << 20);  // more than 1 MiB
  EXPECT_GE(PeakRssBytes(), rss);
}

// -- Thread pool -------------------------------------------------------------

/// Restores the global pool size on scope exit so tests stay independent.
class ThreadCountRestorer {
 public:
  ThreadCountRestorer() : previous_(GetNumThreads()) {}
  ~ThreadCountRestorer() { SetNumThreads(previous_); }

 private:
  int64_t previous_;
};

TEST(ParallelTest, SetAndGetNumThreads) {
  ThreadCountRestorer restore;
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(0);  // reset to default
  EXPECT_GE(GetNumThreads(), 1);
}

TEST(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  ThreadCountRestorer restore;
  SetNumThreads(4);
  constexpr int64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, kN, /*grain=*/128, [&](int64_t b, int64_t e) {
    EXPECT_LT(b, e);
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, ParallelForInlinesBelowGrain) {
  ThreadCountRestorer restore;
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 25, /*grain=*/100, [&](int64_t b, int64_t e) {
    ++calls;  // inline -> single call, no data race possible
    EXPECT_EQ(b, 5);
    EXPECT_EQ(e, 25);
    EXPECT_FALSE(ThreadPool::InParallelRegion());
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, EmptyAndSingleElementRanges) {
  ThreadCountRestorer restore;
  SetNumThreads(2);
  int calls = 0;
  ParallelFor(3, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(3, 4, 1, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(e - b, 1);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, NestedParallelForRunsInline) {
  ThreadCountRestorer restore;
  SetNumThreads(4);
  std::atomic<int64_t> total{0};
  ParallelFor(0, 64, /*grain=*/1, [&](int64_t b, int64_t e) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested region must execute inline on this worker (exactly one
    // body call spanning the full range).
    int inner_calls = 0;
    ParallelFor(0, 1000, 1, [&](int64_t ib, int64_t ie) {
      ++inner_calls;
      EXPECT_EQ(ib, 0);
      EXPECT_EQ(ie, 1000);
    });
    EXPECT_EQ(inner_calls, 1);
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelTest, ParallelFor2DTilesCoverGridExactlyOnce) {
  ThreadCountRestorer restore;
  SetNumThreads(4);
  constexpr int64_t kRows = 37;
  constexpr int64_t kCols = 513;
  std::vector<std::atomic<int>> hits(kRows * kCols);
  for (auto& h : hits) h.store(0);
  ParallelFor2D(kRows, kCols, /*row_grain=*/4, /*col_grain=*/64,
                [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
                  for (int64_t r = r0; r < r1; ++r) {
                    for (int64_t c = c0; c < c1; ++c) {
                      hits[r * kCols + c].fetch_add(1);
                    }
                  }
                });
  for (int64_t i = 0; i < kRows * kCols; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelTest, PoolIsReusableAcrossManyRegions) {
  ThreadCountRestorer restore;
  SetNumThreads(8);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(0, 1024, 1, [&](int64_t b, int64_t e) {
      int64_t local = 0;
      for (int64_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 1024 * 1023 / 2);
  }
}

}  // namespace
}  // namespace sagdfn::utils
