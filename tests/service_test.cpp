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
//  * input boundary — submit() rejects non-finite fields with a typed error.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"
#include "service/admission_service.hpp"
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

  service::AdmissionService whole{churn_network(), {}};
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

  // The first half arrives before any second-half request in the single
  // drain too, so its decisions cannot differ.
  double watermark = 0.0;
  for (std::size_t k = 0; k < half; ++k) {
    EXPECT_EQ(svc.was_admitted(requests[k].id), whole.was_admitted(requests[k].id))
        << "request " << requests[k].id;
    watermark = std::max(watermark, requests[k].deadline.to_seconds());
  }
  // The first drain ended on its latest departure; every second-half
  // arrival released before it is stale and rejected for that reason.
  std::size_t stale = 0;
  for (std::size_t k = half; k < requests.size(); ++k) {
    if (requests[k].release.to_seconds() < watermark) {
      ++stale;
      EXPECT_FALSE(svc.was_admitted(requests[k].id)) << "request " << requests[k].id;
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
  EXPECT_FALSE(twice.was_admitted(requests[1].id));
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
  EXPECT_FALSE(thrice.was_admitted(requests[1].id));
  EXPECT_FALSE(thrice.was_admitted(requests[2].id));
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
  service::AdmissionService on{churn_network(), {.gc = true}};
  service::AdmissionService off{churn_network(), {.gc = false}};
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
  for (const Request& r : requests) {
    ASSERT_EQ(on.was_admitted(r.id), off.was_admitted(r.id)) << "request " << r.id;
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
  service::AdmissionService reference{net, {}};
  for (const Request& r : requests) reference.submit(r);
  const service::ServiceReport quiesced = reference.drain();
  EXPECT_EQ(quiesced.submitted, kCount);
  EXPECT_EQ(quiesced.rejected, kCount / 5);
  EXPECT_EQ(quiesced.admitted, kCount - kCount / 5);

  // Racing run: drains seal whatever prefix the submitter has managed.
  service::AdmissionService svc{net, {}};
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
  for (const Request& r : requests) {
    EXPECT_EQ(svc.was_admitted(r.id), reference.was_admitted(r.id))
        << "request " << r.id << " decided differently under racing drains";
  }
  const service::ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.live, 0u);
  EXPECT_EQ(snap.peak_standing_load, 0.0);
}

TEST(Service, RejectsDegenerateAndInfeasibleUpFront) {
  service::AdmissionService svc{churn_network(), {}};
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
  EXPECT_FALSE(svc.was_admitted(1));
  EXPECT_FALSE(svc.was_admitted(2));
}

}  // namespace
}  // namespace gridbw
