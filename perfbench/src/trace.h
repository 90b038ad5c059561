// In-memory spans recorded by the benchmark around its calls into the
// program's public functions. Off by default; a traced run turns them on,
// and they are written out when the run ends.
#ifndef SAGDFN_PERFBENCH_TRACE_H_
#define SAGDFN_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace sagdfn::perfbench {

/// One timed call. `parent` is the index (in the collected list) of the
/// span open on the same thread when this one started, -1 at top level.
/// Spans of one request share `request` (-1 when not request-scoped).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t request = -1;
  int64_t thread = 0;
};

/// Per-name aggregate: call count, total and self time. Self time is the
/// span's duration minus the part of it covered by its child spans.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds on the steady clock (the time base of every span).
  static int64_t NowNs();
  static int64_t ToNs(Clock::time_point t);

  /// Opens a span on the calling thread; returns a token for End().
  static int64_t Begin(const char* name, int64_t request);
  static void End(int64_t token);
  /// Records a span whose ends were measured elsewhere (e.g. a request
  /// from its due time to the moment its future became ready).
  static void Record(const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t request);

  /// Every span recorded so far, with parents resolved to list indices.
  static std::vector<Span> Collect();
  /// Durations (seconds) of every span called `name`.
  static std::vector<double> Durations(const std::vector<Span>& spans,
                                       const std::string& name);
  static std::map<std::string, SpanTotals> Totals(
      const std::vector<Span>& spans);
  /// Writes spans as JSON lines; returns false on an I/O error.
  static bool Write(const std::vector<Span>& spans, const std::string& path);
  /// Drops every recorded span (buffers stay allocated).
  static void Clear();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span around one call; costs one relaxed load when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1)
      : token_(Tracer::Enabled() ? Tracer::Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (token_ >= 0) Tracer::End(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t token_;
};

}  // namespace sagdfn::perfbench

#endif  // SAGDFN_PERFBENCH_TRACE_H_
