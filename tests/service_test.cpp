// AdmissionService: the steady-state churn engine. The load-bearing
// properties pinned here:
//
//  * determinism — same submissions give byte-identical decision
//    fingerprints and JSONL traces across repeated runs and GC on vs off
//    (DESIGN.md §5h);
//  * lifecycle accounting — admitted == expired once every reservation's
//    deadline has passed, and the port load returns to zero;
//  * GC — resident breakpoints stay O(live) under churn while decisions
//    match the GC-off run exactly;
//  * sequencing — at one instant, departures run before arrivals, each in
//    id order, whatever the submission order;
//  * batch boundaries — a later drain never admits against load an earlier
//    drain already released (the watermark rejection);
//  * input boundary — submit() rejects non-finite fields with a typed error;
//  * residency — between drains the service holds no per-request state,
//    and resident breakpoints stay O(live) over many drains.
//
// The service keeps no per-request history: outcomes are read from an
// observer's trace (oracle::admitted_ids), and the order a drain ran is
// checked against the literal event sort (oracle::expected_drain_order).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"
#include "service/admission_service.hpp"
#include "support/service_oracle.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 1234, 99999};

std::vector<Request> churn_workload(std::uint64_t seed, std::size_t count) {
  workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{seed};
  auto requests = workload::generate(scenario.spec, rng);
  if (requests.size() > count) requests.resize(count);
  return requests;
}

const Network& churn_network() {
  static const Network net = workload::paper_rigid(Duration::seconds(1),
                                                   Duration::seconds(1))
                                 .network;
  return net;
}

service::ServiceReport run_service(const std::vector<Request>& requests,
                                   service::ServiceOptions options) {
  service::AdmissionService svc{churn_network(), std::move(options)};
  for (const Request& r : requests) svc.submit(r);
  return svc.drain();
}

TEST(Service, LifecycleAccountingAndZeroResidualLoad) {
  const auto requests = churn_workload(7, 800);
  service::AdmissionService svc{churn_network(), {}};
  for (const Request& r : requests) svc.submit(r);
  const service::ServiceReport report = svc.drain();

  EXPECT_EQ(report.submitted, requests.size());
  EXPECT_EQ(report.admitted + report.rejected, report.submitted);
  // Every admitted reservation's deadline lies inside the batch, so all of
  // them expired by the time the drain finished.
  EXPECT_EQ(report.expired, report.admitted);
  EXPECT_GT(report.admitted, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.live_peak, 1u);

  const service::ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.live, 0u);
  EXPECT_EQ(snap.ports, churn_network().ingress_count() + churn_network().egress_count());
  // All load released: the standing level at the last event is exactly 0
  // (adds and releases fold through identical doubles).
  EXPECT_EQ(snap.peak_standing_load, 0.0);
}

TEST(Service, DeterministicAcrossRunsAndGc) {
  for (const std::uint64_t seed : kSeeds) {
    const auto requests = churn_workload(seed, 600);
    const service::ServiceReport base = run_service(requests, {.gc = true});
    ASSERT_GT(base.admitted, 0u);
    for (int run = 0; run < 2; ++run) {
      for (const bool gc : {true, false}) {
        const service::ServiceReport other = run_service(requests, {.gc = gc});
        EXPECT_EQ(other.decision_fingerprint, base.decision_fingerprint)
            << "seed " << seed << " run " << run << " gc " << gc;
        EXPECT_EQ(other.admitted, base.admitted);
        EXPECT_EQ(other.rejected, base.rejected);
        EXPECT_EQ(other.live_peak, base.live_peak);
      }
    }
  }
}

TEST(Service, TraceByteIdenticalAcrossRunsAndGc) {
  const auto requests = churn_workload(1234, 400);
  std::vector<std::string> traces;
  for (const bool gc : {true, true, false}) {
    std::ostringstream out;
    {
      obs::JsonlSink sink{out};
      obs::CounterRegistry counters;
      obs::Observer observer{&sink, &counters};
      service::ServiceOptions options;
      options.gc = gc;
      options.observer = &observer;
      service::AdmissionService svc{churn_network(), std::move(options)};
      for (const Request& r : requests) svc.submit(r);
      const service::ServiceReport report = svc.drain();
      sink.flush();
      EXPECT_EQ(counters.value(obs::Counter::kSubmitted), report.submitted);
      EXPECT_EQ(counters.value(obs::Counter::kAccepted), report.admitted);
      EXPECT_EQ(counters.value(obs::Counter::kExpired), report.expired);
    }
    traces.push_back(out.str());
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
}

TEST(Service, GcBoundsResidentBreakpointsWithoutChangingDecisions) {
  const auto requests = churn_workload(99999, 2000);
  const service::ServiceReport on = run_service(requests, {.gc = true});
  const service::ServiceReport off = run_service(requests, {.gc = false});
  EXPECT_EQ(on.decision_fingerprint, off.decision_fingerprint);
  EXPECT_GT(on.breakpoints_retired, 0u);
  EXPECT_GT(on.compactions, 0u);
  EXPECT_LT(on.resident_breakpoints, off.resident_breakpoints);
}

TEST(Service, EqualInstantsSequenceDeparturesFirstThenById) {
  // 1x1 fabric at 1 GB/s; every request holds a quarter of the port for
  // 10 s. Five arrive at 0 (one too many), four at 10, the instant the
  // first four depart, so those four fit only if departures run first.
  // Ids are submitted shuffled; at each instant the trace must list the
  // expirations, then the arrivals, each in id order.
  const Network net = Network::uniform(1, 1, Bandwidth::gigabytes_per_second(1));
  const auto quarter = [](RequestId id, double release) {
    return RequestBuilder{id}
        .from(IngressId{0})
        .to(EgressId{0})
        .window(TimePoint::at_seconds(release), TimePoint::at_seconds(release + 10))
        .volume(Volume::bytes(2.5e9))
        .max_rate(Bandwidth::bytes_per_second(2.5e8))
        .build();
  };
  const std::vector<Request> requests = {
      quarter(11, 10), quarter(7, 0),  quarter(4, 10), quarter(12, 0), quarter(1, 10),
      quarter(3, 0),   quarter(9, 0),  quarter(8, 10), quarter(5, 0)};
  const std::vector<std::string> expected = {
      "submitted 3 0",  "accepted 3 0",  "submitted 5 0",  "accepted 5 0",
      "submitted 7 0",  "accepted 7 0",  "submitted 9 0",  "accepted 9 0",
      "submitted 12 0", "rejected 12 0", "expired 3 10",   "expired 5 10",
      "expired 7 10",   "expired 9 10",  "submitted 1 10", "accepted 1 10",
      "submitted 4 10", "accepted 4 10", "submitted 8 10", "accepted 8 10",
      "submitted 11 10", "accepted 11 10", "expired 1 20",  "expired 4 20",
      "expired 8 20",   "expired 11 20"};

  std::vector<std::string> traces;
  for (const bool gc : {true, false}) {
    std::ostringstream out;
    {
      obs::JsonlSink sink{out};
      obs::Observer observer{&sink, nullptr};
      service::AdmissionService svc{net, {.gc = gc, .observer = &observer}};
      for (const Request& r : requests) svc.submit(r);
      const service::ServiceReport report = svc.drain();
      sink.flush();
      EXPECT_EQ(report.admitted, 8u) << "gc " << gc;
      EXPECT_EQ(report.rejected, 1u) << "gc " << gc;
    }
    traces.push_back(out.str());
    // "event", "req" and "t" of each JSONL line, in trace order.
    std::vector<std::string> got;
    std::istringstream lines{out.str()};
    for (std::string line; std::getline(lines, line);) {
      const auto field = [&](const std::string& key) {
        const std::size_t at = line.find("\"" + key + "\":") + key.size() + 3;
        const std::size_t end = line.find_first_of(",}", at);
        std::string value = line.substr(at, end - at);
        value.erase(std::remove(value.begin(), value.end(), '"'), value.end());
        return value;
      };
      got.push_back(field("event") + " " + field("req") + " " + field("t"));
    }
    EXPECT_EQ(got, expected) << "gc " << gc;
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(Service, MultiBatchDrainKeepsPortStateAndSequencing) {
  auto requests = churn_workload(7, 400);
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.release < b.release; });
  const std::size_t half = requests.size() / 2;

  obs::MemorySink whole_sink;
  obs::Observer whole_observer{&whole_sink, nullptr};
  service::AdmissionService whole{churn_network(), {.observer = &whole_observer}};
  for (const Request& r : requests) whole.submit(r);
  (void)whole.drain();

  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  service::AdmissionService svc{churn_network(), {.observer = &observer}};
  for (std::size_t k = 0; k < half; ++k) svc.submit(requests[k]);
  const service::ServiceReport first = svc.drain();
  for (std::size_t k = half; k < requests.size(); ++k) svc.submit(requests[k]);
  const service::ServiceReport second = svc.drain();
  EXPECT_EQ(first.submitted + second.submitted, requests.size());
  EXPECT_EQ(first.admitted + second.admitted, first.expired + second.expired);
  EXPECT_EQ(svc.snapshot().live, 0u);
  const std::set<RequestId> split_admitted = oracle::admitted_ids(sink.events());
  const std::set<RequestId> whole_admitted = oracle::admitted_ids(whole_sink.events());

  // The first half arrives before any second-half request in the single
  // drain too, so its decisions cannot differ.
  double watermark = 0.0;
  for (std::size_t k = 0; k < half; ++k) {
    EXPECT_EQ(split_admitted.contains(requests[k].id),
              whole_admitted.contains(requests[k].id))
        << "request " << requests[k].id;
    watermark = std::max(watermark, requests[k].deadline.to_seconds());
  }
  // The first drain ended on its latest departure; every second-half
  // arrival released before it is stale and rejected for that reason.
  std::size_t stale = 0;
  for (std::size_t k = half; k < requests.size(); ++k) {
    if (requests[k].release.to_seconds() < watermark) {
      ++stale;
      EXPECT_FALSE(split_admitted.contains(requests[k].id)) << "request " << requests[k].id;
    }
  }
  EXPECT_GT(stale, 0u) << "the batches do not overlap; the check is vacuous";
  EXPECT_EQ(sink.count(obs::RejectReason::kReleaseBeforeWatermark), stale);
}

TEST(Service, LaterDrainCannotOverbookReleasedLoad) {
  // 1x1 fabric at 1 GB/s; each request needs the whole port for 10 s and
  // the windows [0,10), [5,15) and [2,12) pairwise overlap, so at most one
  // can be admitted.
  const Network net = Network::uniform(1, 1, Bandwidth::gigabytes_per_second(1));
  std::vector<Request> requests;
  for (const double release : {0.0, 5.0, 2.0}) {
    Request r;
    r.id = static_cast<RequestId>(requests.size() + 1);
    r.ingress = IngressId{0};
    r.egress = EgressId{0};
    r.release = TimePoint::at_seconds(release);
    r.deadline = TimePoint::at_seconds(release + 10.0);
    r.volume = Volume::gigabytes(10);
    r.max_rate = Bandwidth::gigabytes_per_second(1);
    requests.push_back(r);
  }

  service::AdmissionService once{net, {}};
  for (const Request& r : requests) once.submit(r);
  EXPECT_EQ(once.drain().admitted, 1u);

  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  service::AdmissionService twice{net, {.observer = &observer}};
  twice.submit(requests[0]);
  EXPECT_EQ(twice.drain().admitted, 1u);
  twice.submit(requests[1]);
  const service::ServiceReport second = twice.drain();
  EXPECT_EQ(second.admitted, 0u);
  EXPECT_EQ(second.rejected, 1u);
  EXPECT_FALSE(oracle::admitted_ids(sink.events()).contains(requests[1].id));
  EXPECT_EQ(sink.count(obs::RejectReason::kReleaseBeforeWatermark), 1u);

  // A drain holding only a stale arrival must not pull the watermark back
  // to that arrival's release: [2,12) is rejected, and [5,15) after it
  // still meets the watermark 10 set by the first drain.
  sink.clear();
  service::AdmissionService thrice{net, {.observer = &observer}};
  thrice.submit(requests[0]);
  EXPECT_EQ(thrice.drain().admitted, 1u);
  thrice.submit(requests[2]);
  EXPECT_EQ(thrice.drain().admitted, 0u);
  thrice.submit(requests[1]);
  EXPECT_EQ(thrice.drain().admitted, 0u);
  EXPECT_FALSE(oracle::admitted_ids(sink.events()).contains(requests[1].id));
  EXPECT_FALSE(oracle::admitted_ids(sink.events()).contains(requests[2].id));
  EXPECT_EQ(sink.count(obs::RejectReason::kReleaseBeforeWatermark), 2u);
}

TEST(Service, GcAcrossDrainsMatchesGcOffDrains) {
  // Same batches through a GC-on and a GC-off service: every drain must
  // decide identically, and the GC must actually fold breakpoints between
  // drains, or the cross-drain half of the GC contract goes untested.
  auto requests = churn_workload(99999, 4000);
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.release < b.release; });
  constexpr std::size_t kBatches = 4;
  obs::MemorySink on_sink, off_sink;
  obs::Observer on_observer{&on_sink, nullptr};
  obs::Observer off_observer{&off_sink, nullptr};
  service::AdmissionService on{churn_network(), {.gc = true, .observer = &on_observer}};
  service::AdmissionService off{churn_network(), {.gc = false, .observer = &off_observer}};
  service::ServiceReport last_on, last_off;
  std::size_t retired_in_first = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t lo = requests.size() * b / kBatches;
    const std::size_t hi = requests.size() * (b + 1) / kBatches;
    for (std::size_t k = lo; k < hi; ++k) {
      on.submit(requests[k]);
      off.submit(requests[k]);
    }
    last_on = on.drain();
    last_off = off.drain();
    EXPECT_EQ(last_on.decision_fingerprint, last_off.decision_fingerprint) << "batch " << b;
    EXPECT_EQ(last_on.admitted, last_off.admitted) << "batch " << b;
    EXPECT_GT(last_on.admitted, 0u) << "batch " << b;
    if (b == 0) retired_in_first = last_on.breakpoints_retired;
  }
  const std::set<RequestId> on_admitted = oracle::admitted_ids(on_sink.events());
  const std::set<RequestId> off_admitted = oracle::admitted_ids(off_sink.events());
  for (const Request& r : requests) {
    ASSERT_EQ(on_admitted.contains(r.id), off_admitted.contains(r.id)) << "request " << r.id;
  }
  // The GC totals are cumulative over drains: growth past the first
  // drain's figure means later drains folded too.
  EXPECT_GT(retired_in_first, 0u);
  EXPECT_GT(last_on.breakpoints_retired, retired_in_first);
  EXPECT_LT(last_on.resident_breakpoints, last_off.resident_breakpoints);
}

TEST(Service, SubmitRejectsNonFiniteFields) {
  service::AdmissionService svc{churn_network(), {}};
  Request valid;
  valid.id = 1;
  valid.ingress = IngressId{0};
  valid.egress = EgressId{0};
  valid.release = TimePoint::at_seconds(0.0);
  valid.deadline = TimePoint::at_seconds(10.0);
  valid.volume = Volume::megabytes(10);
  valid.max_rate = Bandwidth::megabytes_per_second(10);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Request r = valid;
    r.release = TimePoint::at_seconds(bad);
    EXPECT_THROW(svc.submit(r), std::invalid_argument) << "release " << bad;
    r = valid;
    r.deadline = TimePoint::at_seconds(bad);
    EXPECT_THROW(svc.submit(r), std::invalid_argument) << "deadline " << bad;
    r = valid;
    r.volume = Volume::bytes(bad);
    EXPECT_THROW(svc.submit(r), std::invalid_argument) << "volume " << bad;
    r = valid;
    r.max_rate = Bandwidth::bytes_per_second(bad);
    EXPECT_THROW(svc.submit(r), std::invalid_argument) << "max_rate " << bad;
  }
  // Nothing rejected at the boundary reached the queue.
  svc.submit(valid);
  const service::ServiceReport report = svc.drain();
  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.admitted, 1u);
}

TEST(Service, DrainRacingInFlightSubmitMatchesQuiescedDecisions) {
  // submit() is documented thread-safe against drain()
  // (the seal under ingest_mu decides which batch a request lands in). A
  // submitter thread feeds requests in increasing release order while the
  // main thread drains continuously, so seal points fall at arbitrary
  // prefixes. The workload is order-robust — windows are pairwise disjoint
  // (deadline_k == release_{k+1}, half-open reservations) and every 5th
  // request is infeasible on its own (min rate above its cap), so the
  // admit/reject outcome of each id is independent of how the batch
  // boundaries land. The racing run must therefore reproduce the quiesced
  // single-drain decisions byte-for-byte, and TSan must stay silent on the
  // ingest queue.
  const Network& net = churn_network();
  std::vector<Request> requests;
  constexpr std::size_t kCount = 600;
  for (std::size_t k = 0; k < kCount; ++k) {
    Request r;
    r.id = static_cast<RequestId>(k + 1);
    r.ingress = IngressId{k % net.ingress_count()};
    r.egress = EgressId{k % net.egress_count()};
    r.release = TimePoint::at_seconds(static_cast<double>(k));
    r.deadline = TimePoint::at_seconds(static_cast<double>(k) + 1.0);
    if (k % 5 == 4) {
      // Needs 100 GB/s from a 1 MB/s cap: rejected regardless of port state.
      r.volume = Volume::gigabytes(100);
      r.max_rate = Bandwidth::megabytes_per_second(1);
    } else {
      r.volume = Volume::megabytes(10);
      r.max_rate = Bandwidth::megabytes_per_second(50);
    }
    requests.push_back(r);
  }

  // Quiesced reference: everything in one sealed batch.
  obs::MemorySink reference_sink;
  obs::Observer reference_observer{&reference_sink, nullptr};
  service::AdmissionService reference{net, {.observer = &reference_observer}};
  for (const Request& r : requests) reference.submit(r);
  const service::ServiceReport quiesced = reference.drain();
  EXPECT_EQ(quiesced.submitted, kCount);
  EXPECT_EQ(quiesced.rejected, kCount / 5);
  EXPECT_EQ(quiesced.admitted, kCount - kCount / 5);

  // Racing run: drains seal whatever prefix the submitter has managed.
  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  service::AdmissionService svc{net, {.observer = &observer}};
  std::atomic<std::size_t> submitted{0};
  std::future<void> submitter = std::async(std::launch::async, [&] {
    for (std::size_t k = 0; k < kCount; ++k) {
      svc.submit(requests[k]);
      submitted.fetch_add(1, std::memory_order_release);
      if (k % 64 == 63) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      else if (k % 16 == 15) std::this_thread::yield();
    }
  });
  std::size_t total = 0, batches_with_work = 0;
  std::size_t total_admitted = 0, total_rejected = 0, total_expired = 0;
  while (total < kCount) {
    const service::ServiceReport report = svc.drain();
    total += report.submitted;
    total_admitted += report.admitted;
    total_rejected += report.rejected;
    total_expired += report.expired;
    if (report.submitted > 0) ++batches_with_work;
    if (total < kCount) std::this_thread::yield();
  }
  submitter.get();
  // Flush any straggler sealed after the last counted drain (none expected,
  // but drain() on an empty queue is a cheap no-op).
  const service::ServiceReport tail = svc.drain();
  EXPECT_EQ(tail.submitted, 0u);

  EXPECT_EQ(total, kCount);
  EXPECT_GE(batches_with_work, 2u) << "race degenerated into a single batch";
  EXPECT_EQ(total_admitted, quiesced.admitted);
  EXPECT_EQ(total_rejected, quiesced.rejected);
  EXPECT_EQ(total_expired, quiesced.expired);
  const std::set<RequestId> racing_admitted = oracle::admitted_ids(sink.events());
  const std::set<RequestId> quiesced_admitted = oracle::admitted_ids(reference_sink.events());
  for (const Request& r : requests) {
    EXPECT_EQ(racing_admitted.contains(r.id), quiesced_admitted.contains(r.id))
        << "request " << r.id << " decided differently under racing drains";
  }
  const service::ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.live, 0u);
  EXPECT_EQ(snap.peak_standing_load, 0.0);
}

TEST(Service, RejectsDegenerateAndInfeasibleUpFront) {
  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  service::AdmissionService svc{churn_network(), {.observer = &observer}};
  Request degenerate;
  degenerate.id = 1;
  degenerate.ingress = IngressId{0};
  degenerate.egress = EgressId{0};
  degenerate.release = TimePoint::at_seconds(5.0);
  degenerate.deadline = TimePoint::at_seconds(5.0);
  degenerate.volume = Volume::gigabytes(1);
  degenerate.max_rate = Bandwidth::gigabytes_per_second(1);
  svc.submit(degenerate);

  Request infeasible;
  infeasible.id = 2;
  infeasible.ingress = IngressId{1};
  infeasible.egress = EgressId{1};
  infeasible.release = TimePoint::at_seconds(0.0);
  infeasible.deadline = TimePoint::at_seconds(1.0);
  infeasible.volume = Volume::gigabytes(100);  // min_rate >> max_rate
  infeasible.max_rate = Bandwidth::megabytes_per_second(1);
  svc.submit(infeasible);

  const service::ServiceReport report = svc.drain();
  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_FALSE(oracle::admitted_ids(sink.events()).contains(1));
  EXPECT_FALSE(oracle::admitted_ids(sink.events()).contains(2));
}


// ---------------------------------------------------------------------------
// Drain order against the sequencing oracle
// ---------------------------------------------------------------------------

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t k = items.size(); k > 1; --k) {
    std::swap(items[k - 1],
              items[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
  }
}

/// The latest release or deadline in `requests`: at or after the watermark
/// a drain of them leaves.
double latest_instant(const std::vector<Request>& requests) {
  double t = 0.0;
  for (const Request& r : requests) {
    t = std::max({t, r.release.to_seconds(), r.deadline.to_seconds()});
  }
  return t;
}

/// `requests` moved `offset` seconds later, renumbered from `first_id` in
/// their current order.
std::vector<Request> shifted(std::vector<Request> requests, double offset, RequestId first_id) {
  for (Request& r : requests) {
    r.release = TimePoint::at_seconds(r.release.to_seconds() + offset);
    r.deadline = TimePoint::at_seconds(r.deadline.to_seconds() + offset);
    r.id = first_id++;
  }
  return requests;
}

Request transfer(RequestId id, std::size_t port, double release, double deadline,
                 double rate) {
  return RequestBuilder{id}
      .from(IngressId{port})
      .to(EgressId{port})
      .window(TimePoint::at_seconds(release), TimePoint::at_seconds(deadline))
      .volume(Volume::bytes(rate * (deadline - release)))
      .max_rate(Bandwidth::bytes_per_second(rate))
      .build();
}

/// "" when the two orders agree, else where they first differ.
std::string first_difference(const std::vector<oracle::DrainEvent>& got,
                             const std::vector<oracle::DrainEvent>& want) {
  const auto show = [](const std::vector<oracle::DrainEvent>& v, std::size_t i) {
    if (i >= v.size()) return std::string{"<end>"};
    return std::string{v[i].departure ? "departure " : "arrival "} +
           std::to_string(v[i].id) + " at " + std::to_string(v[i].t);
  };
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i >= got.size() || i >= want.size() || !(got[i] == want[i])) {
      return "event " + std::to_string(i) + ": traced " + show(got, i) + ", oracle " +
             show(want, i);
    }
  }
  return "";
}

struct DrainRecord {
  std::vector<oracle::DrainEvent> order;
  std::uint64_t fingerprint{0};
  std::size_t stale{0};
  std::size_t degenerate{0};
  std::size_t saturated{0};
};

/// Submits each batch in its vector order and drains it, checking every
/// drain's trace against oracle::expected_drain_order.
std::vector<DrainRecord> drain_against_oracle(const Network& net,
                                              const std::vector<std::vector<Request>>& batches,
                                              bool gc) {
  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  service::AdmissionService svc{net, {.gc = gc, .observer = &observer}};
  std::vector<DrainRecord> records;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    sink.clear();
    for (const Request& r : batches[b]) svc.submit(r);
    const service::ServiceReport report = svc.drain();
    const std::vector<oracle::DrainEvent> traced = oracle::traced_drain_order(sink.events());
    const std::vector<oracle::DrainEvent> expected =
        oracle::expected_drain_order(batches[b], sink.events());
    EXPECT_EQ(first_difference(traced, expected), "") << "gc " << gc << " drain " << b;
    EXPECT_EQ(report.submitted, batches[b].size());
    EXPECT_EQ(report.expired, report.admitted);
    DrainRecord record{traced, report.decision_fingerprint,
                       sink.count(obs::RejectReason::kReleaseBeforeWatermark),
                       sink.count(obs::RejectReason::kDegenerateWindow),
                       sink.count(obs::RejectReason::kIngressSaturated) +
                           sink.count(obs::RejectReason::kEgressSaturated) +
                           sink.count(obs::RejectReason::kBothPortsSaturated)};
    records.push_back(std::move(record));
  }
  return records;
}

/// True when some departure runs directly before an arrival at the same
/// instant: the order then hinges on departures-first.
bool has_departure_then_arrival_at_one_instant(const std::vector<oracle::DrainEvent>& order) {
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i - 1].departure && !order[i].departure && order[i - 1].t == order[i].t) {
      return true;
    }
  }
  return false;
}

TEST(ServiceSequencing, DrainOrderMatchesSortedEventOracle) {
  const Network& net = churn_network();
  const double cap = net.ingress_capacity(IngressId{0}).to_bytes_per_second();
  Rng rng{2024};
  std::vector<std::vector<Request>> batches;

  // Drain 0: ids a random permutation of release order, submitted
  // shuffled, with two exact duplicates, one id reused at another release,
  // and a burst of eight transfers at one instant on one port (three fit),
  // whose order only the ids decide. Out-of-order ids take the sorted-copy
  // path, and id order is not release order, so arrivals need the
  // permutation.
  {
    std::vector<Request> batch = churn_workload(7, 600);
    const double burst_at = batch[100].release.to_seconds();
    for (int k = 0; k < 8; ++k) {
      batch.push_back(transfer(0, 2, burst_at, burst_at + 60.0, 0.3 * cap));
    }
    std::vector<RequestId> ids(batch.size());
    for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = static_cast<RequestId>(k + 1);
    shuffle(ids, rng);
    for (std::size_t k = 0; k < batch.size(); ++k) batch[k].id = ids[k];
    batch.push_back(batch[10]);
    batch.push_back(batch[200]);
    Request reused = batch[300];
    reused.id = batch[301].id;
    reused.release = TimePoint::at_seconds(reused.release.to_seconds() + 0.5);
    reused.deadline = TimePoint::at_seconds(reused.deadline.to_seconds() + 0.5);
    batch.push_back(reused);
    shuffle(batch, rng);
    batches.push_back(std::move(batch));
  }

  // Drain 1: ids strictly increasing (read in place), built by hand.
  // Checkpoint bursts: 12 transfers released together at t0 + 100 on port
  // 0, each at 30 % of the port (three fit), and 12 more at t0 + 150, the
  // instant the first burst's admitted ones depart, so they fit only
  // because departures run first. Ids of the later burst are lower, so
  // arrivals again need the permutation. Also one degenerate window and
  // one arrival released before the watermark.
  {
    const double t0 = latest_instant(batches[0]);
    std::vector<Request> batch;
    RequestId id = 10000;
    batch.push_back(transfer(id++, 1, t0 - 5.0, t0 + 20.0, 0.1 * cap));   // stale
    Request degenerate = transfer(id++, 1, t0 + 10.0, t0 + 20.0, 0.1 * cap);
    degenerate.deadline = degenerate.release;
    batch.push_back(degenerate);
    for (int k = 0; k < 12; ++k) batch.push_back(transfer(id++, 0, t0 + 150, t0 + 200, 0.3 * cap));
    for (int k = 0; k < 12; ++k) batch.push_back(transfer(id++, 0, t0 + 100, t0 + 150, 0.3 * cap));
    batches.push_back(std::move(batch));
  }

  // Drain 2: more than two ingest chunks, in id order and release order:
  // the in-place identity walk across chunk boundaries.
  batches.push_back(shifted(churn_workload(1234, 9000), latest_instant(batches[1]), 20000));

  // Drain 3: submitted in id order, but the first part is released before
  // the watermark drain 2 left, so a run of stale rejections precedes the
  // admissions.
  batches.push_back(
      shifted(churn_workload(99999, 1500), latest_instant(batches[2]) - 2000.0, 40000));

  const std::vector<DrainRecord> on = drain_against_oracle(net, batches, true);
  const std::vector<DrainRecord> off = drain_against_oracle(net, batches, false);
  ASSERT_EQ(on.size(), batches.size());
  ASSERT_EQ(off.size(), batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(on[b].fingerprint, off[b].fingerprint) << "drain " << b;
    EXPECT_EQ(first_difference(on[b].order, off[b].order), "") << "drain " << b;
  }
  EXPECT_GT(batches[2].size(), 8192u) << "drain 2 must span three ingest chunks";
  EXPECT_EQ(on[1].stale, 1u);
  EXPECT_EQ(on[1].degenerate, 1u);
  EXPECT_GT(on[1].saturated, 0u);
  EXPECT_TRUE(has_departure_then_arrival_at_one_instant(on[1].order));
  EXPECT_GT(on[3].stale, 0u);
  EXPECT_LT(on[3].stale, batches[3].size());
}

TEST(ServiceSequencing, OracleCatchesArrivalsBeforeSameInstantDepartures) {
  // The check is not vacuous: moving one arrival ahead of a departure at
  // the same instant breaks the equality with the oracle.
  const Network net = Network::uniform(1, 1, Bandwidth::gigabytes_per_second(1));
  const std::vector<Request> batch = {transfer(1, 0, 0.0, 10.0, 5e8),
                                      transfer(2, 0, 10.0, 20.0, 5e8)};
  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  service::AdmissionService svc{net, {.observer = &observer}};
  for (const Request& r : batch) svc.submit(r);
  (void)svc.drain();
  std::vector<oracle::DrainEvent> traced = oracle::traced_drain_order(sink.events());
  const std::vector<oracle::DrainEvent> expected =
      oracle::expected_drain_order(batch, sink.events());
  ASSERT_EQ(traced, expected);
  ASSERT_EQ(traced.size(), 4u);
  ASSERT_TRUE(traced[1].departure);
  std::swap(traced[1], traced[2]);
  EXPECT_NE(first_difference(traced, expected), "");
}

TEST(ServiceSequencing, RequestsSharingAnIdOrderAloneWhateverTheSubmissionOrder) {
  // Two id-5 requests at release 0 on a 1 GB/s port, 0.8 GB/s each, so
  // only the first in the batch order fits. Their deadlines differ (10 and
  // 20), so the trace shows which one was admitted.
  const Network net = Network::uniform(1, 1, Bandwidth::gigabytes_per_second(1));
  const Request early = transfer(5, 0, 0.0, 10.0, 8e8);
  const Request late = transfer(5, 0, 0.0, 20.0, 8e8);
  const auto trace_of = [&](const std::vector<Request>& submissions) {
    std::ostringstream out;
    obs::JsonlSink sink{out};
    obs::Observer observer{&sink, nullptr};
    service::AdmissionService svc{net, {.observer = &observer}};
    for (const Request& r : submissions) svc.submit(r);
    (void)svc.drain();
    sink.flush();
    return out.str();
  };
  const std::string early_first = trace_of({early, late});
  ASSERT_NE(early_first.find("\"event\":\"expired\""), std::string::npos);
  EXPECT_EQ(early_first, trace_of({late, early}));
}

// ---------------------------------------------------------------------------
// Residency across drains
// ---------------------------------------------------------------------------

/// churn_bench's trace shape on a 32x32 fabric (Poisson arrivals every
/// 0.3 s, 20-100 s windows, rigid rates at 2-15 % of a port), released
/// from `start` on.
std::vector<Request> churn_batch(Rng& rng, double start, RequestId first_id, std::size_t count,
                                 std::size_t ports) {
  std::vector<Request> out;
  out.reserve(count);
  double now = start;
  for (std::size_t k = 0; k < count; ++k) {
    now += rng.exponential(0.3);
    const double window = rng.uniform(20.0, 100.0);
    const double frac = rng.uniform(0.02, 0.15);
    Request r;
    r.id = first_id + static_cast<RequestId>(k);
    r.ingress = IngressId{static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(ports) - 1))};
    r.egress = EgressId{static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(ports) - 1))};
    r.release = TimePoint::at_seconds(now);
    r.deadline = TimePoint::at_seconds(now + window);
    r.volume = Volume::bytes(frac * 1e9 * window);
    r.max_rate = Bandwidth::bytes_per_second(frac * 1e9);
    out.push_back(r);
  }
  return out;
}

TEST(ServiceResidency, NoPerRequestStateSurvivesADrain) {
  constexpr std::size_t kPorts = 32;
  constexpr std::size_t kDrains = 50;
  constexpr std::size_t kPerDrain = 4000;  // 200k requests in all
  const Network net = Network::uniform(kPorts, kPorts, Bandwidth::gigabytes_per_second(1));
  service::AdmissionService svc{net, {}};
  Rng rng{42};
  double watermark = 0.0;
  std::size_t admitted = 0, retired_before = 0;
  for (std::size_t d = 0; d < kDrains; ++d) {
    const std::vector<Request> batch =
        churn_batch(rng, watermark, static_cast<RequestId>(1 + d * kPerDrain), kPerDrain, kPorts);
    for (const Request& r : batch) svc.submit(r);
    EXPECT_EQ(svc.snapshot().queued, kPerDrain) << "drain " << d;
    const service::ServiceReport report = svc.drain();
    // Each batch starts after the previous one's last deadline, so nothing
    // is stale and the drains see the same steady state.
    watermark = latest_instant(batch);
    admitted += report.admitted;
    ASSERT_EQ(report.submitted, kPerDrain);
    ASSERT_EQ(report.expired, report.admitted);
    const service::ServiceSnapshot snap = svc.snapshot();
    EXPECT_EQ(snap.queued, 0u) << "drain " << d;
    EXPECT_EQ(snap.live, 0u) << "drain " << d;
    EXPECT_EQ(snap.pending_departures, 0u) << "drain " << d;
    EXPECT_EQ(snap.request_entries, 0u) << "drain " << d;
    // churn_bench's O(live) bound: 4x the live peak plus a per-port
    // allowance for the GC batch, independent of how many drains ran.
    EXPECT_LE(snap.resident_breakpoints, 4 * report.live_peak + 128 * snap.ports)
        << "drain " << d;
    EXPECT_EQ(snap.resident_breakpoints, report.resident_breakpoints);
    if (d == 0) retired_before = report.breakpoints_retired;
    if (d + 1 == kDrains) {
      EXPECT_GT(report.breakpoints_retired, retired_before) << "later drains never folded";
    }
  }
  EXPECT_GT(admitted, kDrains * kPerDrain / 2);
}

}  // namespace
}  // namespace gridbw
