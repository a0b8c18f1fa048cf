#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string label(const oneport::analysis::SweepPoint& point) {
  return point.topology + "/" + point.testbed + "(" +
         std::to_string(point.size) + ")/" + point.scheduler + "/" +
         point.events;
}

std::string diff_results(const oneport::analysis::SweepResult& a,
                         const oneport::analysis::SweepResult& b) {
  const auto differ = [](const char* field, double x, double y) {
    std::ostringstream os;
    os.precision(17);
    os << field << " " << x << " != " << y;
    return os.str();
  };
  if (a.num_tasks != b.num_tasks) {
    return differ("num_tasks", static_cast<double>(a.num_tasks),
                  static_cast<double>(b.num_tasks));
  }
  if (!same_bits(a.makespan, b.makespan)) {
    return differ("makespan", a.makespan, b.makespan);
  }
  if (!same_bits(a.speedup, b.speedup)) {
    return differ("speedup", a.speedup, b.speedup);
  }
  if (a.num_comms != b.num_comms) {
    return differ("num_comms", static_cast<double>(a.num_comms),
                  static_cast<double>(b.num_comms));
  }
  if (!same_bits(a.imbalance_after, b.imbalance_after)) {
    return differ("imbalance_after", a.imbalance_after, b.imbalance_after);
  }
  if (a.audited != b.audited || a.lb_proven != b.lb_proven ||
      !same_bits(a.lower_bound, b.lower_bound)) {
    return differ("lower_bound", a.lower_bound, b.lower_bound);
  }
  return "";
}

}  // namespace perfbench
