#include "spans.hpp"

#include <atomic>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// The calling thread's buffer for the tracer with this id.
struct LocalSlot {
  std::uint64_t tracer = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

}  // namespace

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  if (t_slot.tracer != id_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1024);
    t_slot = {id_, buffer.get()};
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  Buffer& buffer = local();
  const auto handle = static_cast<std::int32_t>(buffer.spans.size());
  buffer.spans.push_back({name, now_ns(), 0, buffer.innermost, request});
  buffer.innermost = handle;
  return handle;
}

void Tracer::close(std::int32_t handle) {
  Buffer& buffer = local();
  Span& span = buffer.spans[static_cast<std::size_t>(handle)];
  span.end_ns = now_ns();
  buffer.innermost = span.parent;
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int32_t parent,
                            std::uint64_t request) {
  Buffer& buffer = local();
  const auto handle = static_cast<std::int32_t>(buffer.spans.size());
  buffer.spans.push_back({name, start_ns, end_ns, parent, request});
  return handle;
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    const auto offset = static_cast<std::int32_t>(out.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      out.push_back(span);
    }
  }
  return out;
}

std::map<std::string, SpanTotals> summarize(
    const std::vector<Span>& spans, const std::set<std::string>& roots) {
  // Parents precede children within a buffer, so one forward pass finds
  // every span's root and one more subtracts child time from parents.
  std::vector<std::int32_t> root(spans.size());
  std::vector<double> child_ns(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    root[i] = parent < 0 ? static_cast<std::int32_t>(i)
                         : root[static_cast<std::size_t>(parent)];
    if (parent >= 0) {
      child_ns[static_cast<std::size_t>(parent)] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (roots.count(spans[static_cast<std::size_t>(root[i])].name) == 0) {
      continue;
    }
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& entry = totals[spans[i].name];
    entry.total_ns += duration;
    entry.self_ns += duration - child_ns[i];
    ++entry.count;
  }
  return totals;
}

void report_spans(Result& out, const std::vector<Span>& spans,
                  const std::string& path) {
  out.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (path.empty()) return;
  std::ofstream os(path);
  for (const Span& span : spans) {
    os << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
       << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
       << ",\"request\":" << span.request << "}\n";
  }
  if (!os) out.note("warning: could not write spans to " + path);
}

}  // namespace perfbench
