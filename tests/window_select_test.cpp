// Per-batch differential for the WINDOW selection drain shared by `window`
// and `mwindow` (heuristics/window_select): one interval's batch is drained
// by the lazy heap and by the test-support literal scan from identical
// ledgers, and the two must make the same decisions in the same order —
// trace, admission order, rejection list and final port loads.
//
// The batches are built to stress the heap's exactness argument: sizes
// around the old scan/heap crossover (15, 16, 17), a 4096-candidate batch,
// exact cost ties, ties inside and just outside the approx_le band, ports
// pre-loaded before the drain, every CandidateOrder, with and without the
// hot-spot penalty. Further cases pin the stopping rule's one-pass tail:
// whole batches that fail from the first pick, admissions followed by a
// tail, a rejected pick whose cheaper tie still fits, and orders under
// which a rejection is followed by an admission.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/window_select.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "support/window_scan.hpp"
#include "util/random.hpp"

namespace gridbw {
namespace {

using heuristics::CandidateOrder;
using heuristics::WindowCandidate;

constexpr CandidateOrder kOrders[] = {CandidateOrder::kMinCost,
                                      CandidateOrder::kEarliestDeadline,
                                      CandidateOrder::kShortestJob};

Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

/// Uneven capacities, so equal rates cost differently per port.
Network batch_network() {
  return Network{{mbps(100), mbps(250), mbps(1000), mbps(400)},
                 {mbps(300), mbps(100), mbps(1000)}};
}

struct Preload {
  IngressId ingress;
  EgressId egress;
  Bandwidth bw;
};

struct Batch {
  std::vector<Request> requests;
  std::vector<Bandwidth> rates;  // each request's granted rate
  std::vector<Preload> preload;  // allocated before the drain starts
};

/// Rates, deadlines and volumes come from a few values, so costs tie
/// exactly; each rate is then scaled by 1 + j·nudge (j in 0..4) to make
/// near ties.
Batch make_batch(std::uint64_t seed, std::size_t size, double nudge) {
  Rng rng{seed};
  const Network net = batch_network();
  constexpr double kRates[] = {10.0, 25.0, 50.0, 100.0};
  constexpr double kDeadlines[] = {500.0, 800.0, 1200.0};
  constexpr double kVolumes[] = {1000.0, 4000.0};
  const auto draw = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  Batch batch;
  // Ids are a shuffled range, so heap slots and id order disagree.
  std::vector<RequestId> ids(size);
  for (std::size_t k = 0; k < size; ++k) ids[k] = RequestId{k + 1};
  for (std::size_t k = size; k > 1; --k) std::swap(ids[k - 1], ids[draw(k)]);
  for (std::size_t k = 0; k < size; ++k) {
    batch.requests.push_back(RequestBuilder{ids[k]}
                                 .from(IngressId{draw(net.ingress_count())})
                                 .to(EgressId{draw(net.egress_count())})
                                 .window(TimePoint::origin(),
                                         TimePoint::at_seconds(kDeadlines[draw(3)]))
                                 .volume(Volume::megabytes(kVolumes[draw(2)]))
                                 .max_rate(mbps(200))
                                 .build());
    const double factor = 1.0 + nudge * static_cast<double>(draw(5));
    batch.rates.push_back(mbps(kRates[draw(4)] * factor));
  }
  for (const double load : {60.0, 120.0, 180.0}) {
    batch.preload.push_back(Preload{IngressId{draw(net.ingress_count())},
                                    EgressId{draw(net.egress_count())}, mbps(load)});
  }
  return batch;
}

struct Drained {
  std::string trace;
  std::vector<RequestId> admitted;
  std::vector<RequestId> rejected;
  std::vector<double> loads;  // final utilization of every port
  std::uint64_t drains{0};
};

Drained run_drain(bool heap, const Batch& batch, CandidateOrder order, double hotspot,
                  const Network& net = batch_network()) {
  CounterLedger counters{net};
  for (const Preload& p : batch.preload) counters.allocate(p.ingress, p.egress, p.bw);
  std::vector<WindowCandidate> candidates;
  for (std::size_t k = 0; k < batch.requests.size(); ++k) {
    candidates.push_back(WindowCandidate{&batch.requests[k], batch.rates[k]});
  }

  std::ostringstream trace;
  obs::JsonlSink sink{trace};
  obs::CounterRegistry registry;
  obs::Observer observer{&sink, &registry};
  const TimePoint decision = TimePoint::at_seconds(100);
  ScheduleResult result;
  Drained out;
  const auto on_admit = [&](const WindowCandidate& c) { out.admitted.push_back(c.request->id); };
  if (heap) {
    heuristics::WindowSelector selector{order, hotspot, &observer};
    selector.drain(candidates, decision, counters, result, on_admit);
  } else {
    oracle::scan_drain(candidates, order, hotspot, decision, counters, result, &observer,
                       on_admit);
  }
  sink.flush();
  out.trace = trace.str();
  out.rejected = result.rejected;
  for (std::size_t i = 0; i < net.ingress_count(); ++i) {
    out.loads.push_back(counters.ingress_util_with(IngressId{i}, Bandwidth::zero()));
  }
  for (std::size_t e = 0; e < net.egress_count(); ++e) {
    out.loads.push_back(counters.egress_util_with(EgressId{e}, Bandwidth::zero()));
  }
  out.drains = registry.value(obs::Counter::kWindowHeapDrains);
  return out;
}

void expect_same_decisions(const Batch& batch) {
  for (const CandidateOrder order : kOrders) {
    for (const double hotspot : {0.0, 0.5}) {
      SCOPED_TRACE(::testing::Message() << "order=" << to_string(order)
                                        << " hotspot=" << hotspot);
      const Drained scan = run_drain(false, batch, order, hotspot);
      const Drained heap = run_drain(true, batch, order, hotspot);
      EXPECT_EQ(heap.admitted, scan.admitted);
      EXPECT_EQ(heap.rejected, scan.rejected);
      EXPECT_EQ(heap.loads, scan.loads);
      EXPECT_EQ(heap.trace, scan.trace);
      EXPECT_EQ(heap.admitted.size() + heap.rejected.size(), batch.requests.size());
      EXPECT_EQ(heap.drains, 1u);
    }
  }
}

TEST(WindowSelectDifferential, HeapMatchesScanOnAdversarialBatches) {
  for (const std::size_t size : {1u, 2u, 15u, 16u, 17u}) {
    // nudge 0: exact ties only. 1e-12: ties inside the approx_le band that
    // exact comparison would split. 3e-7 and 1e-6: costs straddling the
    // band's 1e-6 absolute edge, so some near ties are not ties.
    for (const double nudge : {0.0, 1e-12, 3e-7, 1e-6}) {
      for (const std::uint64_t seed : {7u, 2024u, 31337u}) {
        SCOPED_TRACE(::testing::Message()
                     << "size=" << size << " nudge=" << nudge << " seed=" << seed);
        expect_same_decisions(make_batch(seed, size, nudge));
      }
    }
  }
}

TEST(WindowSelectDifferential, WholeBatchRejectedFromTheFirstPickMatchesScan) {
  // Every port starts at or above capacity, so under kMinCost without the
  // penalty the first pick fails and the whole batch goes through the
  // one-pass tail. In-band near ties (nudges 1e-12, 3e-7) and shuffled ids
  // make the band's smallest id often not its cheapest candidate.
  const Network net = batch_network();
  for (const std::size_t size : {2u, 17u, 300u}) {
    for (const double nudge : {0.0, 1e-12, 3e-7}) {
      for (const std::uint64_t seed : {5u, 77u, 4040u}) {
        SCOPED_TRACE(::testing::Message()
                     << "size=" << size << " nudge=" << nudge << " seed=" << seed);
        Batch batch = make_batch(seed, size, nudge);
        batch.preload.clear();
        for (std::size_t i = 0; i < net.ingress_count(); ++i) {
          batch.preload.push_back(
              Preload{IngressId{i}, EgressId{i % net.egress_count()}, mbps(1000)});
        }
        for (std::size_t e = 0; e < net.egress_count(); ++e) {
          batch.preload.push_back(
              Preload{IngressId{e % net.ingress_count()}, EgressId{e}, mbps(1000)});
        }
        expect_same_decisions(batch);
        EXPECT_TRUE(
            run_drain(true, batch, CandidateOrder::kMinCost, 0.0).admitted.empty());
      }
    }
  }
}

TEST(WindowSelectDifferential, AdmissionsFollowedByATailMatchScan) {
  // Far more demand than the ports hold: each drain admits a few, then
  // rejects the rest.
  for (const std::size_t size : {40u, 300u}) {
    for (const double nudge : {0.0, 1e-12, 3e-7}) {
      for (const std::uint64_t seed : {3u, 911u}) {
        SCOPED_TRACE(::testing::Message()
                     << "size=" << size << " nudge=" << nudge << " seed=" << seed);
        const Batch batch = make_batch(seed, size, nudge);
        const Drained drained = run_drain(true, batch, CandidateOrder::kMinCost, 0.0);
        ASSERT_FALSE(drained.admitted.empty());
        ASSERT_FALSE(drained.rejected.empty());
        expect_same_decisions(batch);
      }
    }
  }
}

/// Two 100 MB/s ingress and egress ports.
Network pair_network() {
  return Network{{mbps(100), mbps(100)}, {mbps(100), mbps(100)}};
}

Request pair_request(std::uint64_t id, std::size_t port, double deadline_s,
                     double volume_mb) {
  return RequestBuilder{RequestId{id}}
      .from(IngressId{port})
      .to(EgressId{port})
      .window(TimePoint::origin(), TimePoint::at_seconds(deadline_s))
      .volume(Volume::megabytes(volume_mb))
      .max_rate(mbps(200))
      .build();
}

TEST(WindowSelectTail, RejectedPickWithACheaperFittingTieIsNotTheStop) {
  // Both ports of pair 0 and pair 1 carry 90 MB/s. Request 1 (pair 0) costs
  // 1 + 3e-7 and request 2 (pair 1) exactly 1: a tie inside the 1e-6 band,
  // so the drain picks request 1 (smallest id) and rejects it, while
  // request 2 still fits. The rejection must not end the drain.
  Batch batch;
  batch.requests = {pair_request(1, 0, 500, 1000), pair_request(2, 1, 500, 1000),
                    pair_request(3, 0, 500, 1000)};
  batch.rates = {Bandwidth::bytes_per_second(10e6 + 30.0), mbps(10), mbps(100)};
  batch.preload = {Preload{IngressId{0}, EgressId{0}, mbps(90)},
                   Preload{IngressId{1}, EgressId{1}, mbps(90)}};
  for (const bool heap : {false, true}) {
    SCOPED_TRACE(heap ? "heap" : "scan");
    const Drained drained =
        run_drain(heap, batch, CandidateOrder::kMinCost, 0.0, pair_network());
    EXPECT_EQ(drained.admitted, std::vector<RequestId>{2});
    EXPECT_EQ(drained.rejected, (std::vector<RequestId>{1, 3}));
  }
}

TEST(WindowSelectTail, OtherOrdersAdmitAfterARejection) {
  // Request 1 wants 120 MB/s of an empty 100 MB/s pair: it has the earliest
  // deadline, the shortest transfer (10 s) and, with the hot-spot penalty,
  // the lowest cost (1.2 against 0.95 + 0.5 * 0.9). It is picked first and
  // fails; request 2, on the pair pre-loaded to 90 MB/s, then fits. So under
  // EDF, SJF and hotspot > 0 a rejection proves nothing about the rest.
  Batch batch;
  batch.requests = {pair_request(1, 0, 500, 1200), pair_request(2, 1, 1000, 1000)};
  batch.rates = {mbps(120), mbps(5)};
  batch.preload = {Preload{IngressId{1}, EgressId{1}, mbps(90)}};
  const struct {
    CandidateOrder order;
    double hotspot;
  } cases[] = {{CandidateOrder::kEarliestDeadline, 0.0},
               {CandidateOrder::kShortestJob, 0.0},
               {CandidateOrder::kMinCost, 0.5}};
  for (const auto& c : cases) {
    for (const bool heap : {false, true}) {
      SCOPED_TRACE(::testing::Message() << to_string(c.order) << " hotspot=" << c.hotspot
                                        << (heap ? " heap" : " scan"));
      const Drained drained = run_drain(heap, batch, c.order, c.hotspot, pair_network());
      EXPECT_EQ(drained.rejected, std::vector<RequestId>{1});
      EXPECT_EQ(drained.admitted, std::vector<RequestId>{2});
    }
  }
}

TEST(WindowSelectTail, ReleasingBandwidthDuringADrainTripsTheAssert) {
  // The drain rests on costs never decreasing while it runs. An on_admit
  // that reclaims the 90 MB/s pre-load of pair 1 lowers request 2's cost
  // below its heap key; the asserting build stops there. (Without asserts
  // the drain runs on and decides both.)
  Batch batch;
  batch.requests = {pair_request(1, 0, 500, 1000), pair_request(2, 1, 500, 1000)};
  batch.rates = {mbps(10), mbps(5)};
  const Network net = pair_network();
  const auto drain_releasing = [&] {
    CounterLedger counters{net};
    counters.allocate(IngressId{1}, EgressId{1}, mbps(90));
    std::vector<WindowCandidate> candidates = {{&batch.requests[0], batch.rates[0]},
                                               {&batch.requests[1], batch.rates[1]}};
    heuristics::WindowSelector selector{CandidateOrder::kMinCost, 0.0, nullptr};
    ScheduleResult result;
    bool released = false;
    selector.drain(candidates, TimePoint::at_seconds(100), counters, result,
                   [&](const WindowCandidate&) {
                     if (!released) counters.reclaim(IngressId{1}, EgressId{1}, mbps(90));
                     released = true;
                   });
  };
  EXPECT_DEBUG_DEATH(drain_releasing(), "a selection cost decreased during a drain");
}

TEST(WindowSelectDifferential, HeapMatchesScanOnA4096CandidateBatch) {
  // One pattern only, since the O(C²) oracle makes this the slowest case:
  // exact and in-band near ties together, far more candidates than fit.
  expect_same_decisions(make_batch(11, 4096, 1e-12));
}

TEST(WindowSelectDifferential, EmptyBatchCountsNoDrain) {
  const Network net = batch_network();
  CounterLedger counters{net};
  obs::MemorySink sink;
  obs::CounterRegistry registry;
  obs::Observer observer{&sink, &registry};
  heuristics::WindowSelector selector{CandidateOrder::kMinCost, 0.0, &observer};
  ScheduleResult result;
  std::size_t admitted = 0;
  selector.drain(std::vector<WindowCandidate>{}, TimePoint::at_seconds(1), counters, result,
                 [&](const WindowCandidate&) { ++admitted; });
  EXPECT_EQ(admitted, 0u);
  EXPECT_TRUE(result.rejected.empty());
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(registry.value(obs::Counter::kWindowHeapDrains), 0u);
}

}  // namespace
}  // namespace gridbw
