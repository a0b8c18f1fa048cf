// perfbench: the repository benchmark program.
//
//   perfbench --workload <paper-static|service-mix|routed-dynamic|audit-small>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--trace-out <spans.jsonl>]
//
// Prints detail lines, an "env" line (nproc, load average at start and
// end, the share of CPU time stolen by the hypervisor during the run,
// compiler, build type), and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any output was wrong, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  double five = 0.0;
  double fifteen = 0.0;
  in >> one >> five >> fifteen;
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", one, five, fifteen);
  return buf;
}

/// (steal, total) jiffies summed over all CPUs, from /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0;
  double total = 0.0;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    in >> value;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--root") {
      options.root = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--root <dir>] "
                   "[--trace-out <file>]\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: bad argument: " << e.what() << "\n";
    return 2;
  }
  if (!perfbench::is_sweep_workload(options.workload) &&
      options.workload != "service-mix") {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  const std::string load_start = load_average();
  const auto [steal_start, total_start] = cpu_jiffies();
  Result result;
  try {
    result = perfbench::is_sweep_workload(options.workload)
                 ? perfbench::run_sweep_workload(options)
                 : perfbench::run_service_workload(options);
  } catch (const std::exception& e) {
    ++result.attempted;
    result.fail(std::string("uncaught: ") + e.what());
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) result.fail("non-finite metric " + name);
  }

  for (const std::string& line : result.notes) std::cout << line << "\n";
  for (const std::string& error : result.errors) {
    std::cout << "error: " << error << "\n";
  }
  // Steal: time the hypervisor ran something else on this machine's
  // virtual CPUs, as a share of all CPU time during the run.
  const auto [steal_end, total_end] = cpu_jiffies();
  const double steal_share = total_end > total_start
                                 ? (steal_end - steal_start) /
                                       (total_end - total_start)
                                 : 0.0;
  std::cout << "env: {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"loadavg_start\": " << load_start
            << ", \"loadavg_end\": " << load_average()
            << ", \"steal_share\": " << steal_share
            << ", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"workload\": \"" << json_escape(options.workload)
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0) << "}\n";
  char fail_frac[96];
  std::snprintf(fail_frac, sizeof fail_frac,
                "fail_frac: %.6f (%llu of %llu operations)",
                result.attempted > 0
                    ? static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted)
                    : 1.0,
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
  std::cout << fail_frac << "\n";

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
