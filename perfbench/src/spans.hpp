// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, request id).  Each thread appends
// to its own buffer, so recording takes no lock after a thread's first
// span; parents are indices into the same thread's buffer, which holds
// because a span's children are recorded on the thread that opened it.
// collect() merges the buffers at quiescence and remaps parents.  Spans
// are written out once, when the run ends.
//
// Names are "<layer>.<operation>" (e.g. "core.schedule"); a layer's self
// time is its spans' durations minus the time their child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the parent span, -1 for a root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread, nested under the innermost span
  /// that thread has open; returns its handle for close().
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t handle);
  /// Records an already-timed span on the calling thread under `parent`
  /// (a handle from this thread, or -1 for a root); returns its handle.
  std::int32_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent,
                      std::uint64_t request);

  /// Every span recorded so far, parents remapped to indices into the
  /// returned vector.  Call only while no thread is recording.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::int32_t innermost = -1;
  };
  Buffer& local();

  std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), handle_(tracer.open(name, request)) {}
  ~ScopedSpan() { tracer_.close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t handle_;
};

/// Per span name: summed duration, summed self time and count.
struct SpanTotals {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t count = 0;
};

/// Totals over the spans whose root ancestor is named in `roots`.
[[nodiscard]] std::map<std::string, SpanTotals> summarize(
    const std::vector<Span>& spans, const std::set<std::string>& roots);

struct Result;

/// Reports the span count as trace.spans and writes one JSON object per
/// span (name, start/end in ns, parent index, request id) to `path`.
void report_spans(Result& out, const std::vector<Span>& spans,
                  const std::string& path);

}  // namespace perfbench
