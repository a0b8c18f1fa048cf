// The three run_sweep workloads.
//
// Untraced run: repeated set-ups (median), one reference pass, then
// back-to-back passes of run_sweep + sweep_table + CSV emit for the whole
// run time.  Each pass must reproduce the reference bit for bit.
//
// Traced run: half the time untraced (the overhead baseline), half
// replaying the grid through the traced mirror on kWorkers threads, with
// the profiler on.  Every mirrored result must equal the reference.
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "mirror.hpp"
#include "platform/platform.hpp"
#include "util/csv.hpp"
#include "util/profiler.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = oneport::analysis;
namespace prof = oneport::prof;

namespace {

std::string emit_csv(const std::vector<an::SweepResult>& results) {
  std::ostringstream csv;
  an::sweep_table(results).write_csv(csv);
  return csv.str();
}

/// Checks one pass against the reference; counts every point attempted.
void check_pass(Result& out, const std::vector<an::SweepResult>& results,
                const std::vector<an::SweepResult>& reference) {
  out.attempted += reference.size();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::string diff = diff_results(results[i], reference[i]);
    if (!diff.empty()) {
      out.fail("output mismatch at " + label(reference[i].point) + ": " +
               diff);
    }
  }
}

/// Sanity checks on the reference pass itself.
void check_reference(Result& out, const SweepWorkload& w,
                     const std::vector<an::SweepResult>& reference) {
  for (const an::SweepResult& r : reference) {
    if (!(r.makespan > 0.0) || !std::isfinite(r.makespan) ||
        !(r.speedup > 0.0)) {
      out.fail("non-positive makespan or ratio at " + label(r.point));
    }
    if (w.options.audit_gap) {
      if (!r.audited) out.fail("point not audited: " + label(r.point));
      if (r.audited && r.lower_bound > r.makespan * (1.0 + 1e-9)) {
        out.fail("lower bound above makespan at " + label(r.point));
      }
    }
  }
}

}  // namespace

double Passes::median_tasks_per_s() const {
  std::vector<double> rates;
  for (const double s : wall_s) {
    rates.push_back(static_cast<double>(tasks_per_pass) / s);
  }
  return median(rates);
}

Passes run_passes(Result& out, const SweepWorkload& w,
                  const oneport::Platform& platform,
                  const std::vector<an::SweepResult>& reference,
                  double seconds) {
  Passes passes;
  for (const an::SweepResult& r : reference) {
    passes.tasks_per_pass += r.num_tasks;
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (passes.wall_s.size() < 3 || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    try {
      const std::vector<an::SweepResult> results =
          an::run_sweep(w.grid, platform, w.options);
      const std::string csv = emit_csv(results);
      passes.wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (csv.empty()) out.fail("empty CSV");
      check_pass(out, results, reference);
    } catch (const std::exception& e) {
      out.attempted += w.grid.size();
      out.fail(std::string("run_sweep threw: ") + e.what());
      break;
    }
  }
  return passes;
}

namespace {

void traced_passes(Result& out, const SweepWorkload& w,
                   const oneport::Platform& platform,
                   const std::vector<an::SweepResult>& reference,
                   double seconds, Tracer& tracer, Passes& passes,
                   JobTotals& jobs) {
  const std::size_t n = w.grid.size();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t pass = 0; pass < 3 || now_ns() < deadline; ++pass) {
    std::vector<an::SweepResult> results(n);
    std::vector<JobFacts> facts(n);
    std::vector<std::string> errors(n);
    const std::int64_t t0 = now_ns();
    {
      oneport::ThreadPool pool(static_cast<unsigned>(kWorkers));
      pool.parallel_for(n, [&](std::size_t i) {
        try {
          results[i] = mirror_point(w.grid[i], platform, w.options, tracer,
                                    pass * n + i, facts[i]);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    {
      const ScopedSpan emit(tracer, "analysis.emit", pass);
      if (emit_csv(results).empty()) out.fail("empty CSV");
    }
    passes.wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (std::size_t i = 0; i < n; ++i) {
      if (!errors[i].empty()) {
        out.fail(errors[i]);
        results[i] = reference[i];  // counted once, not again as a mismatch
      }
      jobs.add(facts[i]);
    }
    check_pass(out, results, reference);
  }
}

}  // namespace

Result run_sweep_workload(const Options& options) {
  Result out;
  Tracer tracer;
  const SetupReport setup =
      measure_setup(options, options.trace ? &tracer : nullptr);
  const SweepWorkload w =
      make_sweep_workload(options.workload, options.seed, options.root);
  const oneport::Platform platform = oneport::make_paper_platform();

  // The reference pass also fills the process-wide topology cache, so
  // timed passes measure scheduling, not first-use routing builds (those
  // are part of set-up).
  std::vector<an::SweepResult> reference;
  try {
    reference = an::run_sweep(w.grid, platform, w.options);
  } catch (const std::exception& e) {
    out.attempted += w.grid.size();
    out.fail(std::string("reference run_sweep threw: ") + e.what());
    return out;
  }
  out.attempted += reference.size();
  check_reference(out, w, reference);

  std::vector<double> ratios;
  std::size_t audited = 0;
  std::size_t proven = 0;
  for (const an::SweepResult& r : reference) {
    ratios.push_back(r.speedup);
    audited += r.audited ? 1 : 0;
    proven += r.lb_proven ? 1 : 0;
  }

  const Passes untraced = run_passes(out, w, platform, reference,
                                     options.trace ? options.seconds / 2
                                                   : options.seconds);
  const double tasks_per_s = untraced.median_tasks_per_s();
  char line[256];
  std::snprintf(line, sizeof line,
                "sweep: %zu points/pass, %zu tasks/pass, %zu untraced passes, "
                "points_per_s %.1f, audited %zu, lb_proven_frac %.4f",
                w.grid.size(), untraced.tasks_per_pass,
                untraced.wall_s.size(),
                tasks_per_s * static_cast<double>(w.grid.size()) /
                    static_cast<double>(untraced.tasks_per_pass),
                audited, audited > 0 ? static_cast<double>(proven) /
                                           static_cast<double>(audited)
                                     : 0.0);
  out.note(line);

  if (!options.trace) {
    if (prof::slab_count() != 0) {
      out.fail("profiler slabs exist in an untraced run");
    }
    std::vector<double> wall_ms;
    for (const double s : untraced.wall_s) wall_ms.push_back(s * 1e3);
    out.set("setup_s", setup.median_s, "s");
    out.set("tasks_per_s", tasks_per_s, "tasks/s");
    out.set("ratio_geomean", geomean(ratios), "ratio");
    out.set("job_p50_ms", median(wall_ms), "ms");
    out.set("job_p99_ms", percentile(wall_ms, 0.99), "ms");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  prof::set_enabled(true);
  prof::reset();
  Passes traced;
  traced.tasks_per_pass = untraced.tasks_per_pass;
  JobTotals jobs;
  traced_passes(out, w, platform, reference, options.seconds / 2, tracer,
                traced, jobs);
  const prof::Counts counts = prof::aggregate();
  prof::set_enabled(false);

  const std::vector<Span> spans = tracer.collect();
  double wall_ns = 0.0;
  for (const double s : traced.wall_s) wall_ns += s * 1e9;
  report_layers(out, summarize(spans, {"analysis.point", "analysis.emit"}),
                jobs, counts, setup, wall_ns, kWorkers, traced.wall_s.size());
  report_service_bypassed(out);
  out.set("trace.overhead_pct",
          (tasks_per_s / traced.median_tasks_per_s() - 1.0) * 100.0, "%");
  report_spans(out, spans, options.trace_out);
  return out;
}

}  // namespace perfbench
