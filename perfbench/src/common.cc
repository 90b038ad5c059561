#include "common.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "utils/rng.h"

namespace sagdfn::perfbench {

namespace {
double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ThreadCpuSeconds(std::thread& thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0.0;
  return CpuClockSeconds(clock);
}

void SleepUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  const auto now = Clock::now();
  if (due - now > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) std::this_thread::yield();
}

bool WarmThenRepeat(double warm_s, int reps,
                    const std::function<bool(bool timed)>& fn) {
  const auto start = Clock::now();
  do {
    if (!fn(false)) return false;
  } while (SecondsBetween(start, Clock::now()) < warm_s);
  for (int i = 0; i < reps; ++i) {
    if (!fn(true)) return false;
  }
  return true;
}

Timings TimeRepeated(double warm_s, int reps, const std::function<bool()>& fn) {
  Timings timings;
  const bool ok = WarmThenRepeat(warm_s, reps, [&](bool timed) {
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    if (!fn()) return false;
    if (timed) {
      timings.cpu_s.push_back(ProcessCpuSeconds() - cpu0);
      timings.wall_s.push_back(SecondsBetween(t0, Clock::now()));
    }
    return true;
  });
  return ok ? timings : Timings{};
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return offsets;
  // A Poisson process conditioned on its count: the N = rate * duration
  // arrival times are N independent uniform draws over the phase, sorted.
  // Gaps stay exponential-like and bursty, but every seed offers the
  // same number of requests, so a run's offered load does not vary.
  const int64_t count = std::llround(rate_per_s * duration_s);
  utils::Rng rng(seed);
  offsets.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    offsets.push_back(rng.Uniform() * duration_s);
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

double SupportedPercentile(int64_t count, double wanted_pct) {
  // R-7 rank of percentile p is p/100 * (n - 1); the samples strictly
  // above it number (n - 1) - ceil(rank). Requiring >= kMinBeyond gives
  // p <= 100 * (n - 1 - kMinBeyond) / (n - 1).
  if (count < 2) return 0.0;
  const double n1 = static_cast<double>(count - 1);
  const double limit =
      100.0 * (n1 - static_cast<double>(Summary::kMinBeyond)) / n1;
  double pct = std::min(wanted_pct, std::floor(limit * 10.0) / 10.0);
  // Guard the floor against a rank that lands exactly on an integer.
  while (pct >= 50.0 &&
         n1 - std::ceil(pct / 100.0 * n1 - 1e-9) <
             static_cast<double>(Summary::kMinBeyond)) {
    pct -= 0.1;
  }
  return pct >= 50.0 ? pct : 0.0;
}

Summary Summarize(std::vector<double> samples, double wanted_pct) {
  Summary s;
  s.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = bench::PercentileSorted(samples, 50.0);
  s.tail_pct = SupportedPercentile(s.count, wanted_pct);
  s.tail = s.tail_pct > 0.0 ? bench::PercentileSorted(samples, s.tail_pct)
                            : 0.0;
  s.max = samples.back();
  return s;
}

double Median(std::vector<double> samples) {
  return Summarize(std::move(samples), 50.0).p50;
}

bool BacklogGrowing(const std::vector<double>& samples, double slack) {
  if (samples.size() < 6) return false;
  const size_t third = samples.size() / 3;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < third; ++i) {
    first += samples[i];
    last += samples[samples.size() - 1 - i];
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  return last - first > slack && samples.back() > slack;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string HexDigest(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

bool CheckDigestAcrossRuns(const std::string& path, const std::string& key,
                           const std::string& digest, std::string* message) {
  // One "key digest" pair per line; keys contain no spaces. The whole
  // read-check-append runs under an exclusive lock on the file.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0 || ::flock(fd, LOCK_EX) != 0) {
    if (fd >= 0) ::close(fd);
    *message = "cannot open and lock the digest file " + path;
    return false;
  }
  std::map<std::string, std::string> known;
  {
    std::ifstream in(path);
    std::string k;
    std::string d;
    while (in >> k >> d) known[k] = d;
  }
  bool ok = true;
  const auto it = known.find(key);
  if (it != known.end()) {
    ok = it->second == digest;
    *message = ok ? "digest " + digest + " matches an earlier run of " + key
                  : "digest " + digest + " for " + key + " differs from " +
                        it->second + " recorded by an earlier run";
  } else {
    const std::string line = key + ' ' + digest + '\n';
    ok = ::write(fd, line.data(), line.size()) ==
         static_cast<ssize_t>(line.size());
    *message = ok ? "digest " + digest + " recorded for " + key
                  : "cannot append to the digest file " + path;
  }
  ::flock(fd, LOCK_UN);
  ::close(fd);
  return ok;
}

std::string DigestKey(const RunOptions& options) {
  return (options.source_id.empty() ? "unversioned" : options.source_id) +
         "/" + options.workload + "/seed" + std::to_string(options.seed) +
         "/s" + FormatNumber(options.seconds) +
         (options.trace ? "/traced" : "");
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  report.push_back("CHECK FAILED: " + why);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  // Shortest text that reads back as exactly `value`: no digit is lost.
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string ResultJson(const RunResult& result, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const std::vector<Metric>& metrics =
      trace ? result.per_layer : result.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << FormatNumber(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace sagdfn::perfbench
