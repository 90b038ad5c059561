// Tests of the benchmark's own helpers: the seeded arrival schedule, the
// "at least ten samples beyond" percentile rule, the growing-backlog
// detector behind the SLO verdict, and the cross-run digest check.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace sagdfn::perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(100.0, 5.0, 42);
  const std::vector<double> b = PoissonSchedule(100.0, 5.0, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(100.0, 5.0, 43));
}

TEST(PoissonSchedule, FixedCountSortedAndPoissonLike) {
  const std::vector<double> a = PoissonSchedule(200.0, 50.0, 7);
  ASSERT_EQ(a.size(), 10000u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 50.0);
  // Gaps of a Poisson process are exponential: mean 1/rate and a
  // coefficient of variation near 1 (a fixed-rate sender would give 0).
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sum_sq += gap * gap;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  EXPECT_NEAR(mean, 1.0 / 200.0, 0.0002);
  EXPECT_NEAR(cv, 1.0, 0.05);
  EXPECT_EQ(PoissonSchedule(28.0, 12.0, 3).size(), 336u);
  EXPECT_TRUE(PoissonSchedule(0.0, 5.0, 1).empty());
}

TEST(SupportedPercentile, KeepsTenSamplesBeyond) {
  // Under R-7, p99 of 1001 samples sits on rank 990 with samples
  // 991..1000 (ten) above it; with 1000 samples only nine remain.
  EXPECT_DOUBLE_EQ(SupportedPercentile(1001, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(1011, 99.0), 99.0);
  EXPECT_LT(SupportedPercentile(1000, 99.0), 99.0);
  EXPECT_GE(SupportedPercentile(1000, 99.0), 98.8);
  // 101 samples: p90 has rank 90 and ten samples above it.
  EXPECT_DOUBLE_EQ(SupportedPercentile(101, 90.0), 90.0);
  EXPECT_LT(SupportedPercentile(100, 90.0), 90.0);
  // Too few samples for even the median to have ten beyond it.
  EXPECT_EQ(SupportedPercentile(20, 99.0), 0.0);
  EXPECT_EQ(SupportedPercentile(21, 99.0), 50.0);
  for (int64_t n = 21; n < 3000; n += 37) {
    const double p = SupportedPercentile(n, 99.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    EXPECT_GE(static_cast<double>(n - 1) - std::ceil(rank - 1e-9), 10.0)
        << "n=" << n << " p=" << p;
  }
}

TEST(Summarize, KnownSamples) {
  std::vector<double> v;
  for (int i = 1000; i >= 0; --i) v.push_back(i);  // 0..1000, reversed
  const Summary s = Summarize(v, 99.0);
  EXPECT_EQ(s.count, 1001);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  // p99 lands exactly on rank 990, leaving samples 991..1000 beyond it.
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  // Drop the top sample: p99 would leave only nine beyond, so the tail
  // falls back to the highest percentile that keeps ten.
  v.erase(v.begin());
  const Summary t = Summarize(v, 99.0);
  EXPECT_LT(t.tail_pct, 99.0);
  EXPECT_NEAR(t.tail, t.tail_pct / 100.0 * 999.0, 1e-9);
  const Summary empty = Summarize({}, 99.0);
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.tail_pct, 0.0);
}


TEST(BacklogGrowing, StableQueueIsNotGrowing) {
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(i % 7);  // fluctuates 0..6
  EXPECT_FALSE(BacklogGrowing(v, 16.0));
}

TEST(BacklogGrowing, ClimbingQueueIsGrowing) {
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(0.5 * i);  // ends near 150
  EXPECT_TRUE(BacklogGrowing(v, 16.0));
}

TEST(BacklogGrowing, DrainedBurstIsNotGrowing) {
  // A burst early in the phase that drains is not a growing backlog, and
  // a late rise that never exceeds the slack is not one either.
  std::vector<double> v(300, 1.0);
  for (int i = 20; i < 60; ++i) v[i] = 80.0;
  EXPECT_FALSE(BacklogGrowing(v, 16.0));
  std::vector<double> w(300, 1.0);
  for (int i = 200; i < 300; ++i) w[i] = 12.0;
  EXPECT_FALSE(BacklogGrowing(w, 16.0));
  EXPECT_FALSE(BacklogGrowing({1, 50, 100}, 16.0));  // too short
}

TEST(Digest, ChainsAndDiffers) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  float b[3] = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(Fnv1a(a, sizeof(a)), Fnv1a(b, sizeof(b)));
  b[2] = 3.0000002f;
  EXPECT_NE(Fnv1a(a, sizeof(a)), Fnv1a(b, sizeof(b)));
  // Chaining two halves equals digesting the whole buffer.
  EXPECT_EQ(Fnv1a(a + 1, 2 * sizeof(float), Fnv1a(a, sizeof(float))),
            Fnv1a(a, sizeof(a)));
  EXPECT_EQ(HexDigest(0xabcull), "0000000000000abc");
}

TEST(Digest, CrossRunCheck) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("perfbench_digest_test_" + std::to_string(::getpid()) + ".txt"))
          .string();
  std::filesystem::remove(path);
  std::string message;
  EXPECT_TRUE(CheckDigestAcrossRuns(path, "w/seed1", "aaaa", &message));
  EXPECT_NE(message.find("recorded"), std::string::npos);
  EXPECT_TRUE(CheckDigestAcrossRuns(path, "w/seed1", "aaaa", &message));
  EXPECT_NE(message.find("matches"), std::string::npos);
  EXPECT_TRUE(CheckDigestAcrossRuns(path, "w/seed2", "bbbb", &message));
  EXPECT_FALSE(CheckDigestAcrossRuns(path, "w/seed1", "cccc", &message));
  EXPECT_NE(message.find("differs"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Digest, KeyedBySourceIdentity) {
  RunOptions a;
  a.workload = "serve-207";
  a.seed = 3;
  a.seconds = 15;
  a.source_id = "0123abcd";
  RunOptions b = a;
  b.source_id = "4567ef01";
  EXPECT_EQ(DigestKey(a), "0123abcd/serve-207/seed3/s15");
  EXPECT_NE(DigestKey(a), DigestKey(b));
  b = a;
  b.trace = true;
  EXPECT_EQ(DigestKey(b), "0123abcd/serve-207/seed3/s15/traced");
}

TEST(WarmThenRepeat, WarmsThenRecordsOnlyTimedCalls) {
  int warm = 0;
  int timed = 0;
  EXPECT_TRUE(WarmThenRepeat(0.0, 4, [&](bool t) {
    ++(t ? timed : warm);
    return true;
  }));
  EXPECT_EQ(warm, 1);
  EXPECT_EQ(timed, 4);
  const Timings timings = TimeRepeated(0.0, 3, [] { return true; });
  EXPECT_EQ(timings.wall_s.size(), 3u);
  EXPECT_EQ(timings.cpu_s.size(), 3u);
  int calls = 0;
  EXPECT_TRUE(TimeRepeated(0.0, 3, [&] { return ++calls < 3; }).wall_s.empty());
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer::Clear();
  Tracer::SetEnabled(true);
  {
    ScopedSpan outer("outer", 5);
    { ScopedSpan inner("inner", 5); }
    { ScopedSpan inner("inner", 5); }
  }
  Tracer::SetEnabled(false);
  { ScopedSpan ignored("ignored"); }
  const std::vector<Span> spans = Tracer::Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[0].request, 5);
  const auto totals = Tracer::Totals(spans);
  const SpanTotals& outer = totals.at("outer");
  const SpanTotals& inner = totals.at("inner");
  EXPECT_EQ(outer.count, 1);
  EXPECT_EQ(inner.count, 2);
  EXPECT_NEAR(outer.self_s, outer.total_s - inner.total_s, 1e-12);
  Tracer::Clear();
}

TEST(Metrics, CanonicalOrderAndZeroFill) {
  RunResult r;
  r.EndToEnd("cpu_ms_per_item", 1.5, "ms");
  r.EndToEnd("setup_s", 0.25, "s");
  Canonicalize(&r);
  EXPECT_TRUE(r.correct);
  ASSERT_EQ(r.end_to_end.size(), EndToEndMetrics().size());
  EXPECT_EQ(r.end_to_end[0].name, "setup_s");
  EXPECT_EQ(r.end_to_end[2].value, 1.5);
  EXPECT_EQ(r.per_layer.size(), PerLayerMetrics().size());
  RunResult bad;
  bad.EndToEnd("not_declared", 1.0, "ms");
  Canonicalize(&bad);
  EXPECT_FALSE(bad.correct);
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.EndToEnd("setup_s", 0.8127, "s");
  const std::string json = ResultJson(r, false);
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": "
            "\"s\"}}}");
}

}  // namespace
}  // namespace sagdfn::perfbench
