// Shared pieces of the repository benchmark: the seeded open-loop arrival
// schedule, the percentile summary rule, the growing-backlog detector,
// forecast digests, and the result record every workload fills in.
#ifndef SAGDFN_PERFBENCH_COMMON_H_
#define SAGDFN_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace sagdfn::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time used so far by the whole process, by the calling thread or
/// by a running `thread`. Time the machine's hypervisor takes the CPU
/// away (steal) and time spent waiting for a wake-up are not in it.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
double ThreadCpuSeconds(std::thread& thread);

/// Kernel-pool threads in every workload, pinned so a run does the same
/// work on any core count. Two, not one per core: on a shared 4-vCPU VM a
/// fork-join region over every vCPU stalls whenever one of them is
/// descheduled (run-to-run spread with 4 threads was 2-3x that with 2),
/// and on the serve path the 2 engine workers plus 2 pool threads fill
/// the 4 cores without oversubscribing them.
constexpr int64_t kKernelThreads = 2;

/// Sleeps until `due`, then spins for the last stretch so an open-loop
/// sender leaves close to its due time without burning a core while idle.
void SleepUntil(Clock::time_point due);

/// Calls `fn(false)` for `warm_s` seconds (at least once), then
/// `fn(true)` `reps` more times; `fn` records its own timings when its
/// argument is true. The warm-up matters on virtual machines: right after
/// a process starts or the machine idled, fork-join wake-ups run several
/// times slower for a while, and set-up timed cold would measure that
/// state instead of the program. Returns false as soon as `fn` fails.
bool WarmThenRepeat(double warm_s, int reps,
                    const std::function<bool(bool timed)>& fn);

/// Wall and process-CPU seconds of each timed call.
struct Timings {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// WarmThenRepeat timing each whole call; empty when `fn` fails.
Timings TimeRepeated(double warm_s, int reps, const std::function<bool()>& fn);

/// Arrival offsets (seconds from the start of a phase, ascending) of a
/// Poisson process of `rate_per_s` over `[0, duration_s)`, conditioned on
/// exactly round(rate * duration) arrivals. Drawn from a generator seeded
/// with `seed` only: the same seed gives the same schedule everywhere.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// Median plus the highest percentile that keeps at least
/// `kMinBeyond` samples above it, computed with bench::PercentileSorted.
struct Summary {
  static constexpr int64_t kMinBeyond = 10;
  int64_t count = 0;
  double p50 = 0.0;
  /// The requested tail percentile, lowered to the highest one the sample
  /// supports (0 when even the median lacks `kMinBeyond` samples above).
  double tail_pct = 0.0;
  double tail = 0.0;
  double max = 0.0;
};

/// Highest percentile <= `wanted_pct` with at least Summary::kMinBeyond
/// of `count` samples strictly above its rank (0 if none reaches 50).
double SupportedPercentile(int64_t count, double wanted_pct);

/// Summarises `samples` (any order) with the tail capped at `wanted_pct`.
Summary Summarize(std::vector<double> samples, double wanted_pct);

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// True when an open-loop backlog kept growing over a phase. `outstanding`
/// holds the requests sent but not yet completed, sampled on a fixed
/// period. Growing means the mean of the last third exceeds that of the
/// first third by more than `slack` requests and the final sample is above
/// `slack`: a stable queue under Poisson load fluctuates around a level;
/// an overloaded one climbs.
bool BacklogGrowing(const std::vector<double>& outstanding, double slack);

/// FNV-1a over raw bytes; chained through `seed` to digest many buffers.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t seed = 1469598103934665603ull);

std::string HexDigest(uint64_t digest);

/// Cross-run output check: digests are kept in `path` under `key`. The
/// first run of a key records its digest; later runs of the same key must
/// reproduce it. Returns false on a mismatch (and writes `message`). The
/// file is locked while it is read and appended, so concurrent runs do
/// not interleave.
bool CheckDigestAcrossRuns(const std::string& path, const std::string& key,
                           const std::string& digest, std::string* message);

/// What one workload run reports.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable report lines printed before the JSON result.
  std::vector<std::string> report;

  void Fail(const std::string& why);
  void Note(const std::string& line) { report.push_back(line); }
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Command-line settings shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for model files, checkpoints and the trace dump.
  std::string work_dir;
  /// File holding cross-run digests (see CheckDigestAcrossRuns).
  std::string digest_file;
  /// Identity of the program and benchmark sources the binary was built
  /// from (perfbench/run.py hashes them); part of every digest key.
  std::string source_id;
};

/// The digest key of a run: source identity, workload, seed, length and
/// whether it was traced. Keying on the source means a change that
/// legitimately alters float evaluation order starts fresh digests
/// instead of failing against those of the code before it.
std::string DigestKey(const RunOptions& options);

/// Formats `value` with enough digits that nothing measured is rounded.
std::string FormatNumber(double value);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result, bool trace);

}  // namespace sagdfn::perfbench

#endif  // SAGDFN_PERFBENCH_COMMON_H_
