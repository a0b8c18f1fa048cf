// The service-mix workload: one generator thread feeds SchedulerService
// (kWorkers shards) from the seeded request stream.
//
// Untraced run, in this order (the open-loop phases on one service
// instance):
//   * batch -- the first requests of the stream as run_sweep passes on
//     kWorkers threads: tasks_per_s, defined as on the sweep workloads;
//   * light -- open loop, Poisson arrivals at 150 requests/s: job_p50_ms
//     and job_p99_ms, over each request's service time;
//   * busy -- open loop, Poisson arrivals at 450 requests/s (reported,
//     not gated: queueing amplifies machine noise here past any bound);
//   * ladder -- open loop from 450 requests/s up in 5% steps, until a step
//     misses p99 <= 50 ms or its backlog grows: the highest passing rate.
// Latency runs from a request's due time, so a stalled generator counts
// against the requests it delayed; generator lateness is reported.  The
// service is drained between phases and between ladder steps.
//
// Traced run: the busy phase untraced (the overhead baseline), then again
// with the profiler on and a root span per request with submit / queue /
// service children; then the same mix replayed serially through the
// traced mirror, which splits service time into layers.
//
// Every response and every mirrored result must equal run_sweep_point's
// result for the same point bit for bit.
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/experiment.hpp"
#include "mirror.hpp"
#include "platform/platform.hpp"
#include "service/scheduler_service.hpp"
#include "util/profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = oneport::analysis;
namespace prof = oneport::prof;
namespace svc = oneport::service;

namespace {

constexpr double kLightRps = 150.0;
constexpr double kBusyRps = 450.0;
constexpr double kLadderStep = 1.05;
constexpr double kLatencyLimitMs = 50.0;
// Shares of the run time; the ladder gets the rest.
constexpr double kBatchShare = 0.2;
constexpr double kLightShare = 0.36;
constexpr double kBusyShare = 0.2;
// Requests per batch pass: 20 shuffles of the 18 kinds.
constexpr std::size_t kBatchRequests = 360;
// Traced run: the untraced and the traced busy phase each take this share;
// the serial mirror replay gets the rest.
constexpr double kTracedPhaseShare = 0.3;

/// Sleeps until shortly before `due_ns`, then spins: a sleeping thread
/// wakes up to a few hundred microseconds late on a virtual machine, and
/// that lateness would count against the request.
void wait_until(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 300'000;
  if (due_ns - now_ns() > kSpinNs) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due_ns - kSpinNs)));
  }
  while (now_ns() < due_ns) {
  }
}

/// The request stream with each request's reference result.
struct Mix {
  std::vector<an::SweepPoint> stream;
  std::vector<std::size_t> ref_of;  ///< stream index -> reference index
  std::vector<an::SweepResult> reference;
};

Mix make_mix(std::uint64_t seed, const oneport::Platform& platform) {
  Mix mix;
  mix.stream = make_request_stream(seed, kStreamLength);
  std::map<std::tuple<std::string, int, std::string>, std::size_t> index;
  an::SweepOptions options;
  options.workers = 1;
  options.validate = true;
  for (const an::SweepPoint& point : distinct_points(mix.stream)) {
    index[{point.testbed, point.size, point.scheduler}] =
        mix.reference.size();
    mix.reference.push_back(an::run_sweep_point(point, platform, options));
  }
  for (const an::SweepPoint& point : mix.stream) {
    mix.ref_of.push_back(index.at({point.testbed, point.size,
                                   point.scheduler}));
  }
  return mix;
}

/// One submitted request.
struct Sent {
  std::size_t job = 0;       ///< stream index
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;     ///< submit() called
  std::int64_t submitted_ns = 0;  ///< submit() returned
  svc::Ticket ticket;
};

/// A resolved request.
struct Done {
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  svc::Response response;
  double latency_ms = 0.0;  ///< due time -> completion
  double late_ms = 0.0;     ///< due time -> submit()
};

class LoadGenerator {
 public:
  LoadGenerator(const Mix& mix, std::uint64_t seed)
      : mix_(mix), seed_(seed ^ 0x9e3779b97f4a7c15ULL), rng_(seed_) {}

  /// Restarts the stream and the arrival times from the beginning.
  void rewind() {
    rng_.seed(seed_);
    cursor_ = 0;
  }

  /// Submits for `seconds`, Poisson arrivals at `rate` requests/s.
  std::vector<Sent> drive(svc::SchedulerService& service, double rate,
                          double seconds) {
    std::vector<Sent> sent;
    std::exponential_distribution<double> gap(rate);
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    double due = static_cast<double>(start);
    while (true) {
      due += gap(rng_) * 1e9;
      const auto due_ns = static_cast<std::int64_t>(due);
      if (due_ns >= end) break;
      wait_until(due_ns);
      Sent s;
      s.job = cursor_++ % mix_.stream.size();
      s.due_ns = due_ns;
      s.submit_ns = now_ns();
      s.ticket = service.submit(mix_.stream[s.job]);
      s.submitted_ns = now_ns();
      sent.push_back(std::move(s));
    }
    return sent;
  }

  /// Resolves every request, checking each result against the reference.
  std::vector<Done> collect(Result& out, std::vector<Sent>& sent) const {
    std::vector<Done> done;
    done.reserve(sent.size());
    for (Sent& s : sent) {
      ++out.attempted;
      if (!s.ticket.accepted) {
        out.fail("request rejected");
        continue;
      }
      Done d;
      d.due_ns = s.due_ns;
      d.submit_ns = s.submit_ns;
      d.submitted_ns = s.submitted_ns;
      try {
        d.response = s.ticket.response.get();
      } catch (const std::exception& e) {
        out.fail(std::string("request failed: ") + e.what());
        continue;
      }
      const an::SweepResult& want = mix_.reference[mix_.ref_of[s.job]];
      const std::string diff = diff_results(d.response.result, want);
      if (!diff.empty()) {
        out.fail("response mismatch at " + label(want.point) + ": " + diff);
      }
      d.late_ms = static_cast<double>(s.submit_ns - s.due_ns) / 1e6;
      d.latency_ms =
          d.late_ms + static_cast<double>(d.response.latency_ns) / 1e6;
      done.push_back(std::move(d));
    }
    return done;
  }

  /// drive + drain + collect.
  std::vector<Done> phase(Result& out, svc::SchedulerService& service,
                          double rate, double seconds) {
    std::vector<Sent> sent = drive(service, rate, seconds);
    service.drain();
    return collect(out, sent);
  }

 private:
  const Mix& mix_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
  std::size_t cursor_ = 0;
};

/// Batch passes of the first kBatchRequests requests through run_sweep on
/// kWorkers threads: tasks_per_s, defined as on the sweep workloads.
double run_batch(Result& out, const Mix& mix, const oneport::Platform& platform,
                 double seconds) {
  SweepWorkload batch;
  batch.options.workers = kWorkers;
  batch.options.validate = true;
  std::vector<an::SweepResult> reference;
  for (std::size_t i = 0; i < kBatchRequests; ++i) {
    batch.grid.push_back(mix.stream[i]);
    reference.push_back(mix.reference[mix.ref_of[i]]);
  }
  const Passes passes = run_passes(out, batch, platform, reference, seconds);
  char line[160];
  std::snprintf(line, sizeof line,
                "batch: %zu requests/pass, %zu passes, median %.0f tasks/s",
                kBatchRequests, passes.wall_s.size(),
                passes.median_tasks_per_s());
  out.note(line);
  return passes.median_tasks_per_s();
}

std::vector<double> latencies(const std::vector<Done>& done) {
  std::vector<double> out;
  for (const Done& d : done) out.push_back(d.latency_ms);
  return out;
}

std::string describe(const char* phase, double rate,
                     const std::vector<Done>& done) {
  const std::vector<double> ms = latencies(done);
  char line[200];
  std::snprintf(line, sizeof line,
                "%s: %.0f rps, %zu requests, p50 %.3f ms, p99 %.3f ms", phase,
                rate, done.size(), median(ms), percentile(ms, 0.99));
  return line;
}

/// Ladder from kBusyRps in kLadderStep steps of `step_s` each within
/// `budget_s`; returns the highest rate meeting the limit (0 if none).
double run_ladder(Result& out, LoadGenerator& generator,
                  svc::SchedulerService& service, double step_s,
                  double budget_s, std::vector<double>& lateness) {
  double best = 0.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (double rate = kBusyRps; now_ns() + step_s * 1e9 <= deadline;
       rate *= kLadderStep) {
    std::vector<Sent> sent = generator.drive(service, rate, step_s);
    // Backlog left when the step's last request went in: a step passes
    // only if no more is outstanding than the limit lets the service hold.
    const svc::ServiceStats at_end = service.stats();
    const double backlog =
        static_cast<double>(at_end.submitted - at_end.completed);
    service.drain();
    const std::vector<Done> done = generator.collect(out, sent);
    for (const Done& d : done) lateness.push_back(d.late_ms);
    const double p99 = percentile(latencies(done), 0.99);
    const bool pass = p99 <= kLatencyLimitMs &&
                      backlog <= rate * kLatencyLimitMs / 1e3;
    out.note(describe("ladder step", rate, done) +
             ", backlog " + std::to_string(static_cast<int>(backlog)) +
             (pass ? ", pass" : ", fail"));
    if (!pass) break;
    best = rate;
  }
  return best;
}

void report_service(Result& out, const std::vector<Done>& done,
                    const svc::ServiceStats& stats) {
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  for (const Done& d : done) {
    submit_us.push_back(static_cast<double>(d.submitted_ns - d.submit_ns) /
                        1e3);
    queue_ms.push_back(static_cast<double>(d.response.queue_ns) / 1e6);
    service_ms.push_back(static_cast<double>(d.response.service_ns) / 1e6);
  }
  double submit_sum = 0.0;
  for (const double v : submit_us) submit_sum += v;
  const double mean_submit =
      submit_us.empty() ? 0.0
                        : submit_sum / static_cast<double>(submit_us.size());
  out.set("service.submit_us", mean_submit, "us");
  out.set("service.queue_p50_ms", median(queue_ms), "ms");
  out.set("service.queue_p99_ms", percentile(queue_ms, 0.99), "ms");
  out.set("service.service_p50_ms", median(service_ms), "ms");
  out.set("service.service_p99_ms", percentile(service_ms, 0.99), "ms");
  out.set("service.reqs_per_batch",
          stats.batches > 0 ? static_cast<double>(stats.completed) /
                                  static_cast<double>(stats.batches)
                            : 0.0,
          "count");
  out.set("service.peak_queue_depth",
          static_cast<double>(stats.peak_queue_depth), "count");
  out.set("service.rejected", static_cast<double>(stats.rejected), "count");
}

/// Records each request as a root span (due time to completion) with
/// submit, queue and service children.
void record_request_spans(Tracer& tracer, const std::vector<Done>& done) {
  for (const Done& d : done) {
    const svc::Response& r = d.response;
    const auto queued = static_cast<std::int64_t>(r.queue_ns);
    const auto served = static_cast<std::int64_t>(r.service_ns);
    const std::int32_t root = tracer.record(
        "service.request", d.due_ns,
        d.submit_ns + static_cast<std::int64_t>(r.latency_ns), -1, r.id);
    tracer.record("service.submit", d.submit_ns, d.submitted_ns, root, r.id);
    tracer.record("service.queue", d.submit_ns, d.submit_ns + queued, root,
                  r.id);
    tracer.record("service.service", d.submit_ns + queued,
                  d.submit_ns + queued + served, root, r.id);
  }
}

}  // namespace

void report_service_bypassed(Result& out) { report_service(out, {}, {}); }

Result run_service_workload(const Options& options) {
  Result out;
  Tracer tracer;
  const SetupReport setup =
      measure_setup(options, options.trace ? &tracer : nullptr);
  const oneport::Platform platform = oneport::make_paper_platform();
  const Mix mix = make_mix(options.seed, platform);
  out.attempted += mix.reference.size();
  LoadGenerator generator(mix, options.seed);
  const double s = options.seconds;

  if (!options.trace) {
    svc::SchedulerService service(platform, service_options());
    char config[160];
    std::snprintf(config, sizeof config,
                  "service: %u shards, queue depth %zu, batch %zu, %s",
                  service.shards(), service.queue_depth(),
                  service.batch_size(),
                  svc::backpressure_name(service.backpressure()));
    out.note(config);

    const double tasks_per_s = run_batch(out, mix, platform,
                                         kBatchShare * s);
    const std::vector<Done> light =
        generator.phase(out, service, kLightRps, kLightShare * s);
    const std::vector<Done> busy =
        generator.phase(out, service, kBusyRps, kBusyShare * s);
    std::vector<double> lateness;
    for (const std::vector<Done>* phase : {&light, &busy}) {
      for (const Done& d : *phase) lateness.push_back(d.late_ms);
    }
    const double ladder_s = (1.0 - kBatchShare - kLightShare - kBusyShare) * s;
    const double max_rps = run_ladder(out, generator, service,
                                      ladder_s / 10.0, ladder_s, lateness);
    service.stop();

    std::vector<double> ratios;
    for (const std::vector<Done>* phase : {&light, &busy}) {
      for (const Done& d : *phase) ratios.push_back(d.response.result.speedup);
    }
    // Gated: the time a shard spends on a request (admission to
    // completion).  The latency from due time adds worker wake-up and
    // generator lateness, which host contention on a shared virtual
    // machine swings by several times; it is printed, not gated.
    std::vector<double> light_service_ms;
    for (const Done& d : light) {
      light_service_ms.push_back(static_cast<double>(d.response.service_ns) /
                                 1e6);
    }
    char line[200];
    out.note(describe("light", kLightRps, light));
    out.note(describe("busy", kBusyRps, busy));
    std::snprintf(line, sizeof line,
                  "svc_max_rps %.1f (p99 <= %.0f ms, no backlog growth); "
                  "generator lateness p99 %.3f ms over %zu requests",
                  max_rps, kLatencyLimitMs, percentile(lateness, 0.99),
                  lateness.size());
    out.note(line);

    if (prof::slab_count() != 0) {
      out.fail("profiler slabs exist in an untraced run");
    }
    out.set("setup_s", setup.median_s, "s");
    out.set("tasks_per_s", tasks_per_s, "tasks/s");
    out.set("ratio_geomean", geomean(ratios), "ratio");
    out.set("job_p50_ms", median(light_service_ms), "ms");
    out.set("job_p99_ms", percentile(light_service_ms, 0.99), "ms");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  std::vector<Done> baseline;
  {
    svc::SchedulerService service(platform, service_options());
    baseline =
        generator.phase(out, service, kBusyRps, kTracedPhaseShare * s);
  }
  // The traced phase replays the baseline's requests at the same offsets.
  generator.rewind();
  prof::set_enabled(true);
  prof::reset();
  std::vector<Done> traced;
  svc::ServiceStats stats;
  {
    svc::SchedulerService service(platform, service_options());
    traced =
        generator.phase(out, service, kBusyRps, kTracedPhaseShare * s);
    service.stop();
    stats = service.stats();
  }
  record_request_spans(tracer, traced);
  report_service(out, traced, stats);

  // Serial replay of the same mix through the mirror: the layer split of
  // a request's service time.
  prof::reset();
  JobTotals jobs;
  an::SweepOptions sweep_options;
  sweep_options.workers = 1;
  sweep_options.validate = true;
  const std::int64_t deadline =
      now_ns() +
      static_cast<std::int64_t>((1.0 - 2 * kTracedPhaseShare) * s * 1e9);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < mix.stream.size() && now_ns() < deadline; ++i) {
    ++out.attempted;
    JobFacts facts;
    try {
      const an::SweepResult got = mirror_point(
          mix.stream[i], platform, sweep_options, tracer, i, facts);
      const an::SweepResult& want = mix.reference[mix.ref_of[i]];
      const std::string diff = diff_results(got, want);
      if (!diff.empty()) {
        out.fail("mirror mismatch at " + label(want.point) + ": " + diff);
      }
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
    jobs.add(facts);
  }
  const double wall_ns = static_cast<double>(now_ns() - t0);
  const prof::Counts counts = prof::aggregate();
  prof::set_enabled(false);

  const std::vector<Span> spans = tracer.collect();
  report_layers(out, summarize(spans, {"analysis.point"}), jobs, counts,
                setup, wall_ns, 1, 0);
  const double base_p50 = median(latencies(baseline));
  const double traced_p50 = median(latencies(traced));
  out.set("trace.overhead_pct", (traced_p50 / base_p50 - 1.0) * 100.0, "%");
  out.note(describe("busy untraced", kBusyRps, baseline));
  out.note(describe("busy traced", kBusyRps, traced));
  out.note("mirror: " + std::to_string(jobs.jobs) + " requests replayed");
  report_spans(out, spans, options.trace_out);
  return out;
}

}  // namespace perfbench
