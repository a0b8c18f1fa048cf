// Shared declarations of the perfbench program: run options, the result
// every workload fills in (metrics, correctness tally, detail lines),
// statistics helpers, and the entry points of the two workload families.
//
// The benchmark only calls liboneport's public API.  End-to-end numbers come
// from untraced runs (profiler off, no spans); a traced run replays the
// same jobs through spans placed around the calls into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the one time base of every span).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Every run uses at most this many threads besides the main thread:
/// run_sweep workers, mirror workers, or service shards.
inline constexpr int kWorkers = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string root = ".";       ///< checkout root (examples/traces lives here)
  std::string trace_out;        ///< where the traced run writes its spans
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports.  `attempted` counts every job run
/// (sweep point, service request, mirrored point); `failed` counts
/// exceptions, validation failures and output mismatches.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::vector<std::string> notes;   ///< detail lines printed before the JSON

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// ----------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double geomean(const std::vector<double>& values);
/// Peak resident set size of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();
/// Compares the fields of two results for the same point bit for bit;
/// returns "" when equal, else a description of the first difference.
[[nodiscard]] std::string diff_results(const oneport::analysis::SweepResult& a,
                                       const oneport::analysis::SweepResult& b);
/// Compact point label for messages, e.g. "mesh4x4/LU(30)/heft-oneport/none".
[[nodiscard]] std::string label(const oneport::analysis::SweepPoint& point);

// ---------------------------------------------------------- entry points

/// Runs one sweep workload (untraced or traced per options.trace).
[[nodiscard]] Result run_sweep_workload(const Options& options);
/// Runs the service-mix workload (untraced or traced per options.trace).
[[nodiscard]] Result run_service_workload(const Options& options);

}  // namespace perfbench
