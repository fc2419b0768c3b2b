// gridbw-bench: runs one workload of the suite in one process and prints
// every raw sample as one JSON line; bench/suite/run.py turns the samples
// into metrics.
//
//   gridbw_bench --workload=NAME [--seed=42] [--seconds=10] [--trace=0|1]
//                [--scale=1] [--warmup=1] [--min-reps=3]
//
// --trace=0 (timed): after one discarded set-up and --warmup discarded
// reps, each timed rep runs on fresh set-ups (setup_s samples), at least
// --min-reps of them and more while one more fits in --seconds of the
// process's start. A rep is
// one decide call followed by validate_schedule and the paper objectives;
// for churn it is the submit loop plus drain(), and one extra traced drain
// at the end supplies the schedule that is validated and scored. A host
// probe timed between reps gives each timing sample a host-speed factor.
//
// --trace=1 (traced): untraced and traced reps alternate, at least one pair
// and more while one more fits in --seconds. A traced rep regenerates the
// workload, attaches an obs::Observer, and records a span around every
// public call; the untraced reps are the baseline for the tracing overhead.
//
// Every rep's output is checked: no validator violations, the same
// decisions in every rep, and for churn the O(live) residency bound. A
// failed check makes the process exit 1 after printing its result.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "heuristics/parse.hpp"
#include "heuristics/rigid_slots.hpp"
#include "metrics/objectives.hpp"
#include "obs/counters.hpp"
#include "service/admission_service.hpp"
#include "tracing.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

#ifndef GRIDBW_BENCH_BUILD_TYPE
#define GRIDBW_BENCH_BUILD_TYPE "unknown"
#endif

namespace gridbw::bench_suite {
namespace {

// Keeps the result line bounded when a rep is far shorter than --seconds.
constexpr std::size_t kMaxReps = 1000;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// The probe's phase times on the calibration VM (medians over ~1800
// probes), so a host-speed factor of 1 means that VM's usual speed.
constexpr double kReferenceIntegerS = 0.0030;
constexpr double kReferenceSortS = 0.0056;

/// Host-speed factors from one probe: > 1 while the host runs this process
/// slower than the calibration VM usually did.
struct HostSpeed {
  /// Integer phase alone. Set-ups (random generation, vector fills) follow
  /// it; the cache-bound sort phase, folded in, makes them drift more.
  double integer{1.0};
  /// Both phases. Reps (large, pointer-rich working sets) follow it.
  double combined{1.0};
};

/// A fixed kernel, independent of the library, timed between reps to follow
/// the speed a shared host gives this process: 4M xorshift steps, then a
/// sort of 64k doubles (512 KiB, within L2). run.py divides each timing by
/// the factor measured around it. The integer phase is a third of the
/// probe: with equal halves, reps that walk large working sets (window_*)
/// were over-corrected while the host slowed integer work more than memory.
class HostProbe {
 public:
  HostProbe() : data_(std::size_t{1} << 16) {
    std::uint64_t x = 5;
    for (double& d : data_) d = static_cast<double>(xorshift(x) % 1'000'003);
  }

  HostSpeed measure() {
    std::vector<double> copy = data_;
    const double t0 = now_s();
    std::array<std::uint64_t, 8> lanes{};
    for (std::size_t k = 0; k < lanes.size(); ++k) lanes[k] = (sink_ | 1) * (2 * k + 3);
    for (int i = 0; i < 500'000; ++i) {
      for (std::uint64_t& v : lanes) xorshift(v);
    }
    const double t1 = now_s();
    std::sort(copy.begin(), copy.end());
    const double t2 = now_s();
    for (const std::uint64_t v : lanes) sink_ += v;
    sink_ += static_cast<std::uint64_t>(copy[7]);
    return {(t1 - t0) / kReferenceIntegerS,
            (t2 - t0) / (kReferenceIntegerS + kReferenceSortS)};
  }

  /// Keeps the kernel's results observable, so it is not optimised away.
  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  static std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::vector<double> data_;
  std::uint64_t sink_{0};
};

// Decisions per latency window (about 40 ms of decisions). A burst of host
// noise slows one percent of a window's decisions long before it moves the
// window's median, so it lifts the p99 of every window it touches; short
// windows confine it to a few, which the median over windows (run.py) sets
// aside. 20k decisions leave 200 samples beyond the p99 and 20 beyond the
// p99.9 of each window.
constexpr std::size_t kLatencyWindow = 20'000;

// FNV-1a, the construction behind the service's decision fingerprint.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_mix(std::uint64_t h, double v) {
  return fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

/// Digest of every allocation in schedule order, so two reps compare bit
/// for bit without keeping both schedules alive.
std::uint64_t schedule_fingerprint(const Schedule& schedule) {
  std::uint64_t h = kFnvOffset;
  for (const Assignment& a : schedule.assignments()) {
    h = fnv_mix(h, std::uint64_t{a.request});
    h = fnv_mix(h, a.start.to_seconds());
    h = fnv_mix(h, a.bw.to_bytes_per_second());
    for (const RateStep& step : a.profile.steps()) {
      h = fnv_mix(h, step.from.to_seconds());
      h = fnv_mix(h, step.rate.to_bytes_per_second());
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

/// Joins already-encoded JSON values into an array.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    out += items[i];
  }
  out += ']';
  return out;
}

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string_view json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += json_string(key);
    out_ += ':';
    out_ += json;
    return *this;
  }
  JsonObject& number(std::string_view key, double v) { return raw(key, json_number(v)); }
  JsonObject& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& text(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& list(std::string_view key, const std::vector<double>& values) {
    std::vector<std::string> items;
    items.reserve(values.size());
    for (const double v : values) items.push_back(json_number(v));
    return raw(key, json_array(items));
  }
  [[nodiscard]] std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

// ---------------------------------------------------------------------------
// Reps
// ---------------------------------------------------------------------------

struct Rep {
  double decide_s{0.0};
  double validate_s{0.0};
  double objectives_s{0.0};
  /// Per-decision compute time, one value per latency window. Churn: from
  /// the service's injected clock. Batch engines decide the whole set in
  /// one call, so every percentile is the mean (decide_s / requests).
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> p999_us;
  std::size_t latency_samples{0};
  std::uint64_t fingerprint{0};
  bool scored{false};  // validated and objectives computed
  std::size_t violations{0};
  std::size_t assignments{0};
  double accept_rate{0.0};
  double resource_util{0.0};
  service::ServiceReport service;    // churn only
  heuristics::SlotsTelemetry slots;  // traced rigid_slots only
};

/// Validates with the default engine and computes the paper objectives.
void score(const Workload& wl, const Schedule& schedule, Rep& rep, SpanLog* spans,
           std::ptrdiff_t parent) {
  const double t0 = now_s();
  const ValidationReport report = validate_schedule(wl.network, wl.requests, schedule);
  const double t1 = now_s();
  rep.accept_rate = metrics::accept_rate(wl.requests, schedule);
  rep.resource_util = metrics::resource_util_paper(wl.network, wl.requests, schedule);
  const double t2 = now_s();
  rep.validate_s = t1 - t0;
  rep.objectives_s = t2 - t1;
  rep.scored = true;
  rep.violations = report.violations.size();
  rep.assignments = schedule.accepted_count();
  if (spans != nullptr) {
    spans->add("core.validate", parent, t0, t1);
    spans->add("metrics.objectives", parent, t1, t2);
  }
}

ScheduleResult decide(const Workload& wl, const heuristics::NamedScheduler& scheduler,
                      Tracer* tracer, heuristics::SlotsTelemetry* slots) {
  if (tracer == nullptr) return scheduler.run(wl.network, wl.requests);
  if (wl.scheduler_spec == "cumulated") {
    // The telemetry overload is the only way to read the slice sweep's
    // work counts; the default engine is kIncremental, so the decisions
    // are those of parse_scheduler("cumulated") (the fingerprint checks it).
    return heuristics::schedule_rigid_slots(wl.network, wl.requests,
                                            heuristics::SlotCost::kCumulated,
                                            heuristics::SlotsEngine::kIncremental, slots,
                                            &tracer->observer);
  }
  return scheduler.run(wl.network, wl.requests, &tracer->observer);
}

Rep batch_rep(const Workload& wl, const heuristics::NamedScheduler& scheduler,
              Tracer* tracer, SpanLog* spans, std::ptrdiff_t parent) {
  Rep rep;
  const double t0 = now_s();
  const ScheduleResult result = decide(wl, scheduler, tracer, &rep.slots);
  const double t1 = now_s();
  if (spans != nullptr) spans->add("heuristics.schedule", parent, t0, t1);
  rep.decide_s = t1 - t0;
  const auto requests = static_cast<double>(std::max<std::size_t>(1, wl.requests.size()));
  const double per_request_us = rep.decide_s / requests * 1e6;
  rep.p50_us = rep.p99_us = rep.p999_us = {per_request_us};
  rep.latency_samples = wl.requests.size();
  rep.fingerprint = schedule_fingerprint(result.schedule);
  score(wl, result.schedule, rep, spans, parent);
  return rep;
}

/// Default service options plus the injected steady clock. With a tracer
/// attached, the accepted grants of the trace are rebuilt into a Schedule,
/// validated and scored: the service has no bulk query for its grants.
Rep churn_rep(const Workload& wl, Tracer* tracer, SpanLog* spans, std::ptrdiff_t parent) {
  service::ServiceOptions options;
  options.clock = now_s;
  if (tracer != nullptr) options.observer = &tracer->observer;
  service::AdmissionService svc{wl.network, std::move(options)};
  Rep rep;
  const double t0 = now_s();
  for (const Request& r : wl.requests) svc.submit(r);
  const double t1 = now_s();
  rep.service = svc.drain();
  const double t2 = now_s();
  if (spans != nullptr) {
    spans->add("service.submit", parent, t0, t1);
    spans->add("service.drain", parent, t1, t2);
  }
  rep.decide_s = t2 - t0;
  rep.latency_samples = rep.service.latency.size();
  rep.fingerprint = rep.service.decision_fingerprint;
  rep.accept_rate = static_cast<double>(rep.service.admitted) /
                    static_cast<double>(std::max<std::size_t>(1, rep.service.submitted));
  if (tracer != nullptr) {
    Schedule schedule;
    for (const AcceptedGrant& g : tracer->sink.take_accepted()) {
      schedule.accept(g.request, g.sigma, g.bw);
    }
    score(wl, schedule, rep, spans, parent);
  }
  return rep;
}

/// The inputs plus the engine: what setup_s measures.
struct Setup {
  Workload workload;
  std::optional<heuristics::NamedScheduler> scheduler;  // batch workloads
};

Setup set_up(const std::string& name, std::uint64_t seed, double scale) {
  Setup setup{make_workload(name, seed, scale), std::nullopt};
  if (setup.workload.is_churn()) {
    // Construction cost only; every rep needs a fresh service because port
    // state persists across drains.
    const service::AdmissionService probe{setup.workload.network,
                                          service::ServiceOptions{}};
  } else {
    setup.scheduler = heuristics::parse_scheduler(setup.workload.scheduler_spec);
  }
  return setup;
}

/// Moves the service's per-decision latencies out of `rep` into its
/// per-window percentiles. Only untraced reps report latency, so the
/// traced run's `run` span never pays for the sorting.
void take_latency_windows(Rep& rep) {
  const std::vector<double> latency = std::move(rep.service.latency);
  rep.service.latency = {};
  const std::size_t windows = std::max<std::size_t>(1, latency.size() / kLatencyWindow);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t first = w * latency.size() / windows;
    const std::size_t last = (w + 1) * latency.size() / windows;
    const std::span<const double> window{latency.data() + first, last - first};
    rep.p50_us.push_back(percentile(window, 0.50) * 1e6);
    rep.p99_us.push_back(percentile(window, 0.99) * 1e6);
    rep.p999_us.push_back(percentile(window, 0.999) * 1e6);
  }
}

Rep untraced_rep(const Setup& setup) {
  if (!setup.workload.is_churn()) {
    return batch_rep(setup.workload, *setup.scheduler, nullptr, nullptr, -1);
  }
  Rep rep = churn_rep(setup.workload, nullptr, nullptr, -1);
  take_latency_windows(rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Accumulates attempted decisions and failed checks over every rep. A
/// failed check counts the decisions it invalidates: each validator
/// violation, every request of a rep whose decisions diverge, one per
/// broken invariant.
class Checker {
 public:
  explicit Checker(const Workload& wl)
      : requests_{wl.requests.size()},
        ports_{wl.network.ingress_count() + wl.network.egress_count()},
        churn_{wl.is_churn()} {}

  void add(const Rep& rep) {
    attempted_ += requests_;
    if (rep.scored && rep.violations > 0) {
      fail(rep.violations, std::to_string(rep.violations) + " validator violations");
    }
    if (!fingerprint_) {
      fingerprint_ = rep.fingerprint;
    } else if (*fingerprint_ != rep.fingerprint) {
      fail(requests_, "decisions differ between reps");
    }
    if (churn_) {
      // churn_bench's O(live) bound: 4x the live peak plus a per-port
      // allowance for the GC batch, independent of trace length.
      const std::size_t cap = 4 * rep.service.live_peak + 128 * ports_;
      if (rep.service.resident_breakpoints > cap) {
        std::ostringstream why;
        why << "resident breakpoints " << rep.service.resident_breakpoints
            << " exceed O(live) cap " << cap;
        fail(1, why.str());
      }
      if (rep.service.breakpoints_retired == 0) fail(1, "GC retired no breakpoints");
    }
  }

  void add_counters(const std::array<std::uint64_t, obs::kCounterCount>& snapshot) {
    if (!counters_) {
      counters_ = snapshot;
    } else if (*counters_ != snapshot) {
      fail(requests_, "counters differ between traced reps");
    }
  }

  void write(JsonObject& out) const {
    std::vector<std::string> failures;
    for (const std::string& why : failures_) failures.push_back(json_string(why));
    out.count("attempted", attempted_).count("failed", failed_);
    out.raw("failures", json_array(failures));
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }

 private:
  void fail(std::size_t decisions, std::string why) {
    failed_ += decisions;
    failures_.push_back(std::move(why));
  }

  std::size_t requests_;
  std::size_t ports_;
  bool churn_;
  std::size_t attempted_{0};
  std::size_t failed_{0};
  std::vector<std::string> failures_;
  std::optional<std::uint64_t> fingerprint_;
  std::optional<std::array<std::uint64_t, obs::kCounterCount>> counters_;
};

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{42};
  double seconds{10.0};
  bool traced{false};
  double scale{1.0};
  std::size_t warmup{1};
  std::size_t min_reps{3};
};

std::vector<double> field(const std::vector<Rep>& reps, double Rep::*member) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& rep : reps) out.push_back(rep.*member);
  return out;
}

/// Every rep's windows, in rep order.
std::vector<double> windows(const std::vector<Rep>& reps,
                            std::vector<double> Rep::*member) {
  std::vector<double> out;
  for (const Rep& rep : reps) {
    out.insert(out.end(), (rep.*member).begin(), (rep.*member).end());
  }
  return out;
}

void write_reps(JsonObject& out, const std::vector<Rep>& reps) {
  std::vector<double> total;
  for (const Rep& rep : reps) {
    total.push_back(rep.decide_s + rep.validate_s + rep.objectives_s);
  }
  out.list("decide_s", field(reps, &Rep::decide_s))
      .list("validate_s", field(reps, &Rep::validate_s))
      .list("objectives_s", field(reps, &Rep::objectives_s))
      .list("total_s", total)
      .list("admit_p50_us", windows(reps, &Rep::p50_us))
      .list("admit_p99_us", windows(reps, &Rep::p99_us))
      .list("admit_p999_us", windows(reps, &Rep::p999_us))
      .count("admit_samples", reps.front().latency_samples);
}

void write_scored(JsonObject& out, const Rep& rep) {
  out.number("accept_rate", rep.accept_rate)
      .number("resource_util", rep.resource_util)
      .count("assignments", rep.assignments)
      .count("violations", rep.violations)
      .text("fingerprint", std::to_string(rep.fingerprint));
}

void write_header(JsonObject& out, const Args& args, const Workload& wl) {
  out.text("workload", args.workload)
      .count("seed", args.seed)
      .count("trace", args.traced ? 1 : 0)
      .number("scale", args.scale)
      .count("requests", wl.requests.size())
      .text("compiler", __VERSION__)
      .text("build_type", GRIDBW_BENCH_BUILD_TYPE);
}

/// True while fewer than `min_reps` ran, or while one more rep, as long as
/// the last one (`last_s`), still ends within `seconds` of `since`.
bool keep_going(std::size_t done, std::size_t min_reps, double since, double last_s,
                double seconds) {
  return done < min_reps || (now_s() - since + last_s <= seconds && done < kMaxReps);
}

int run_timed(const Args& args) {
  // --seconds bounds the whole process, warm-up included, so a run's wall
  // time does not grow with the number of processes run.py splits it into.
  const double start = now_s();
  std::optional<Setup> setup;
  const auto timed_set_up = [&] {
    setup.reset();  // one copy of the inputs at a time, as a user would hold
    const double t0 = now_s();
    setup.emplace(set_up(args.workload, args.seed, args.scale));
    return now_s() - t0;
  };
  timed_set_up();  // first touch of the allocator; discarded like the warm-up
  Checker checker{setup->workload};
  for (std::size_t w = 0; w < args.warmup; ++w) checker.add(untraced_rep(*setup));

  // Set-ups of a few milliseconds swing by up to 2x with the state of a
  // shared host, so every timed rep is preceded by fresh set-ups until
  // kSetUpBudgetS of them has accumulated: many samples, spread over the run.
  // The host probe runs before each rep's set-ups and once after the last
  // rep: a set-up takes the integer factor measured just before it, a rep
  // the mean of the combined factors on either side of it.
  constexpr double kSetUpBudgetS = 0.02;
  HostProbe probe;
  std::vector<double> setup_s;
  std::vector<double> setup_factor;
  std::vector<double> boundary_factor;
  std::vector<Rep> reps;
  double rss_mb = 0.0;
  for (double last_s = 0.0; keep_going(reps.size(), args.min_reps, start, last_s,
                                       args.seconds);) {
    const double rep_start = now_s();
    const HostSpeed speed = probe.measure();
    boundary_factor.push_back(speed.combined);
    for (double spent = 0.0; spent < kSetUpBudgetS;) {
      setup_s.push_back(timed_set_up());
      setup_factor.push_back(speed.integer);
      spent += setup_s.back();
    }
    reps.push_back(untraced_rep(*setup));
    checker.add(reps.back());
    // Read at a fixed amount of work: the peak creeps up with the number of
    // reps (allocator fragmentation), which depends on machine speed.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    last_s = now_s() - rep_start;
  }
  boundary_factor.push_back(probe.measure().combined);
  std::vector<double> rep_factor;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    rep_factor.push_back((boundary_factor[i] + boundary_factor[i + 1]) / 2.0);
  }

  Rep scored = reps.front();
  if (setup->workload.is_churn()) {
    Tracer tracer;
    scored = churn_rep(setup->workload, &tracer, nullptr, -1);
    checker.add(scored);
  }

  JsonObject out;
  write_header(out, args, setup->workload);
  out.list("setup_s", setup_s).list("setup_host_factor", setup_factor);
  write_reps(out, reps);
  out.list("rep_host_factor", rep_factor).count("probe_sink", probe.sink() & 1);
  write_scored(out, scored);
  out.number("peak_rss_mb", rss_mb);
  checker.write(out);
  std::cout << out.str() << std::endl;
  return checker.ok() ? 0 : 1;
}

/// One traced rep: regenerate, decide, validate and score under spans,
/// with a fresh observer attached.
Rep traced_rep(const Args& args, SpanLog& spans, Checker& checker, std::size_t& events,
               std::array<std::uint64_t, obs::kCounterCount>& counters) {
  const double t0 = now_s();
  const std::ptrdiff_t run = spans.add("run", -1, t0, t0);
  const double g0 = now_s();
  const Workload wl = make_workload(args.workload, args.seed, args.scale);
  spans.add("workload.generate", run, g0, now_s());
  Tracer tracer;
  Rep rep = wl.is_churn()
                ? churn_rep(wl, &tracer, &spans, run)
                : batch_rep(wl, heuristics::parse_scheduler(wl.scheduler_spec), &tracer,
                            &spans, run);
  spans.set_end(run, now_s());
  events = tracer.sink.events();
  counters = tracer.counters.snapshot();
  checker.add_counters(counters);
  return rep;
}

int run_traced(const Args& args) {
  const Setup setup = set_up(args.workload, args.seed, args.scale);
  Checker checker{setup.workload};
  for (std::size_t w = 0; w < args.warmup; ++w) checker.add(untraced_rep(setup));

  SpanLog spans;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::size_t events = 0;
  std::array<std::uint64_t, obs::kCounterCount> counters{};
  // One pair is enough for the counters, which repeat exactly; further pairs
  // only steady the span shares and the overhead, which have no bound.
  const double start = now_s();
  for (double last_s = 0.0; keep_going(traced.size(), 1, start, last_s, args.seconds);) {
    const double pair_start = now_s();
    untraced.push_back(untraced_rep(setup));
    checker.add(untraced.back());
    traced.push_back(traced_rep(args, spans, checker, events, counters));
    checker.add(traced.back());
    last_s = now_s() - pair_start;
  }

  JsonObject out;
  write_header(out, args, setup.workload);
  write_reps(out, untraced);
  out.list("traced_decide_s", field(traced, &Rep::decide_s));
  const Rep& first = traced.front();
  write_scored(out, first);
  out.count("events", events);

  JsonObject counter_out;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    counter_out.count(obs::to_string(static_cast<obs::Counter>(i)), counters[i]);
  }
  out.raw("counters", counter_out.str());
  out.raw("slots", JsonObject{}
                       .count("slices", first.slots.slices)
                       .count("skipped_slices", first.slots.skipped_slices)
                       .count("admission_checks", first.slots.admission_checks)
                       .str());
  const service::ServiceReport& svc = first.service;
  out.raw("service", JsonObject{}
                         .count("live_peak", svc.live_peak)
                         .count("resident_breakpoints", svc.resident_breakpoints)
                         .count("compactions", svc.compactions)
                         .count("breakpoints_retired", svc.breakpoints_retired)
                         .str());
  // [name, parent index, start, end], times relative to the first rep.
  std::vector<std::string> span_rows;
  for (const Span& s : spans.spans()) {
    span_rows.push_back(json_array({json_string(s.name), std::to_string(s.parent),
                                    json_number(s.start_s - start),
                                    json_number(s.end_s - start)}));
  }
  out.raw("spans", json_array(span_rows));
  checker.write(out);
  std::cout << out.str() << std::endl;
  return checker.ok() ? 0 : 1;
}

std::size_t count_at_least(const Flags& flags, const std::string& key,
                           std::int64_t fallback, std::int64_t minimum) {
  const std::int64_t v = flags.get_int(key, fallback);
  if (v < minimum) {
    std::ostringstream why;
    why << "--" << key << " must be >= " << minimum;
    throw std::invalid_argument{why.str()};
  }
  return static_cast<std::size_t>(v);
}

int run(int argc, const char* const* argv) {
  const Flags flags{argc, argv};
  Args args;
  args.workload = flags.get_string("workload", "");
  const std::int64_t seed = flags.get_int("seed", 42);
  if (seed < 0) throw std::invalid_argument{"--seed must be >= 0"};
  args.seed = static_cast<std::uint64_t>(seed);
  args.seconds = flags.get_double("seconds", 10.0);
  if (!(args.seconds >= 0.0) || !std::isfinite(args.seconds)) {
    throw std::invalid_argument{"--seconds must be a finite number >= 0"};
  }
  const std::int64_t trace = flags.get_int("trace", 0);
  if (trace != 0 && trace != 1) throw std::invalid_argument{"--trace must be 0 or 1"};
  args.traced = trace == 1;
  args.scale = flags.get_double("scale", 1.0);
  args.warmup = count_at_least(flags, "warmup", 1, 0);
  args.min_reps = count_at_least(flags, "min-reps", 3, 1);
  return args.traced ? run_traced(args) : run_timed(args);
}

}  // namespace
}  // namespace gridbw::bench_suite

int main(int argc, char** argv) {
  try {
    return gridbw::bench_suite::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "gridbw_bench: " << e.what() << "\n";
    return 2;
  }
}
