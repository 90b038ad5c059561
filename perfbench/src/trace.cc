#include "trace.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>

namespace sagdfn::perfbench {
namespace {

struct RawSpan {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index in the same thread's buffer, -1 at top level
  int64_t request;
};

/// One thread's spans. Owned by the registry so spans survive the thread.
struct ThreadBuffer {
  int64_t thread = 0;
  std::vector<RawSpan> spans;
  std::vector<int64_t> open;  // indices of currently open spans
};

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto& all = Registry();
    all.push_back(std::make_unique<ThreadBuffer>());
    buffer = all.back().get();
    buffer->thread = static_cast<int64_t>(all.size()) - 1;
    buffer->spans.reserve(1 << 14);
  }
  return *buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

int64_t Tracer::NowNs() { return ToNs(Clock::now()); }

int64_t Tracer::ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t request) {
  ThreadBuffer& buffer = LocalBuffer();
  const int64_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.spans.push_back({name, NowNs(), 0, parent, request});
  const int64_t index = static_cast<int64_t>(buffer.spans.size()) - 1;
  buffer.open.push_back(index);
  return index;
}

void Tracer::End(int64_t token) {
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans[token].end_ns = NowNs();
  if (!buffer.open.empty() && buffer.open.back() == token) {
    buffer.open.pop_back();
  }
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t request) {
  ThreadBuffer& buffer = LocalBuffer();
  const int64_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.spans.push_back({name, start_ns, end_ns, parent, request});
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<Span> out;
  for (const auto& buffer : Registry()) {
    const int64_t base = static_cast<int64_t>(out.size());
    for (const RawSpan& raw : buffer->spans) {
      Span span;
      span.name = raw.name;
      span.start_ns = raw.start_ns;
      span.end_ns = raw.end_ns;
      span.parent = raw.parent < 0 ? -1 : base + raw.parent;
      span.request = raw.request;
      span.thread = buffer->thread;
      out.push_back(span);
    }
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& buffer : Registry()) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

std::vector<double> Tracer::Durations(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, SpanTotals> Tracer::Totals(
    const std::vector<Span>& spans) {
  // Child time per parent: children of one span run on its thread inside
  // its interval and do not overlap each other, so their durations add.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s +=
        static_cast<double>(std::max<int64_t>(0, duration - child_ns[i])) *
        1e-9;
  }
  return totals;
}

bool Tracer::Write(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"thread\": " << s.thread << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace sagdfn::perfbench
