// Tests for the observability layer (DESIGN.md §5e): counter registry,
// trace sinks, the JSONL schema, per-port utilization export, and — per
// admission engine — that the emitted event stream reconciles exactly with
// the ScheduleResult it narrates.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/validate.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/retry.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "heuristics/rigid_slots.hpp"
#include "obs/counters.hpp"
#include "obs/event.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "obs_export/utilization.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

using obs::AdmissionEvent;
using obs::Counter;
using obs::CounterRegistry;
using obs::EventKind;
using obs::JsonlSink;
using obs::MemorySink;
using obs::Observer;
using obs::RejectReason;

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

Request flexible(RequestId id, double ts, double fastest, double max_mbps,
                 double slack, std::size_t in = 0, std::size_t out = 0) {
  const Volume vol = mbps(max_mbps) * Duration::seconds(fastest);
  return RequestBuilder{id}
      .from(IngressId{in})
      .to(EgressId{out})
      .window(at(ts), at(ts + fastest * slack))
      .volume(vol)
      .max_rate(mbps(max_mbps))
      .build();
}

std::vector<Request> seeded_workload(std::uint64_t seed, double load = 4.0) {
  workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(600));
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, load);
  Rng rng{seed};
  return workload::generate(scenario.spec, rng);
}

Network paper_network() {
  return workload::paper_rigid(Duration::seconds(1), Duration::seconds(1)).network;
}

// -- CounterRegistry --------------------------------------------------------

TEST(Counters, AddAccumulatesAndSnapshotMatches) {
  CounterRegistry reg;
  reg.add(Counter::kSubmitted);
  reg.add(Counter::kSubmitted, 4);
  reg.add(Counter::kAccepted, 2);
  EXPECT_EQ(reg.value(Counter::kSubmitted), 5u);
  EXPECT_EQ(reg.value(Counter::kAccepted), 2u);
  EXPECT_EQ(reg.value(Counter::kRejected), 0u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(Counter::kSubmitted)], 5u);
  EXPECT_EQ(snap[static_cast<std::size_t>(Counter::kAccepted)], 2u);
}

TEST(Counters, SetOverwritesGaugeStyle) {
  CounterRegistry reg;
  reg.set(Counter::kRetryResidualBps, 123);
  EXPECT_EQ(reg.value(Counter::kRetryResidualBps), 123u);
  reg.set(Counter::kRetryResidualBps, 0);
  EXPECT_EQ(reg.value(Counter::kRetryResidualBps), 0u);
}

TEST(Counters, ResetZeroesEverything) {
  CounterRegistry reg;
  reg.add(Counter::kRejected, 7);
  reg.reset();
  EXPECT_EQ(reg.value(Counter::kRejected), 0u);
}

TEST(Counters, DistinctRegistriesDoNotCrossTalk) {
  CounterRegistry a;
  CounterRegistry b;
  a.add(Counter::kSubmitted, 3);
  b.add(Counter::kSubmitted, 11);
  EXPECT_EQ(a.value(Counter::kSubmitted), 3u);
  EXPECT_EQ(b.value(Counter::kSubmitted), 11u);
}

TEST(Counters, EveryCounterHasAUniqueName) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
    names.push_back(obs::to_string(static_cast<Counter>(c)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

// -- Sinks ------------------------------------------------------------------

TEST(MemorySinkTest, RecordsEventsAndAnnotationsInOrder) {
  MemorySink sink;
  sink.annotate("scheduler", "FCFS");
  AdmissionEvent e;
  e.kind = EventKind::kAccepted;
  e.request = 7;
  sink.record(e);
  e.kind = EventKind::kRejected;
  e.request = 8;
  e.reason = RejectReason::kIngressSaturated;
  sink.record(e);

  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].request, 7u);
  EXPECT_EQ(sink.count(EventKind::kAccepted), 1u);
  EXPECT_EQ(sink.count(EventKind::kRejected), 1u);
  EXPECT_EQ(sink.count(RejectReason::kIngressSaturated), 1u);
  EXPECT_EQ(sink.count(RejectReason::kEgressSaturated), 0u);
  ASSERT_EQ(sink.annotations().size(), 1u);
  EXPECT_EQ(sink.annotations()[0].first, "scheduler");

  sink.clear();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_TRUE(sink.annotations().empty());
}

TEST(JsonlSinkTest, FormatMatchesDocumentedSchema) {
  AdmissionEvent e;
  e.kind = EventKind::kSubmitted;
  e.request = 7;
  e.when = at(12.5);
  EXPECT_EQ(JsonlSink::format(e), R"({"event":"submitted","req":7,"t":12.5,"attempt":1})");

  e.kind = EventKind::kAccepted;
  e.sigma = at(12.5);
  e.bw = Bandwidth::bytes_per_second(1e8);
  EXPECT_EQ(JsonlSink::format(e),
            R"({"event":"accepted","req":7,"t":12.5,"attempt":1,"sigma":12.5,"bw":1e+08})");

  AdmissionEvent r;
  r.kind = EventKind::kRejected;
  r.request = 9;
  r.when = at(13.0);
  r.reason = RejectReason::kEgressSaturated;
  EXPECT_EQ(JsonlSink::format(r),
            R"({"event":"rejected","req":9,"t":13,"attempt":1,"reason":"egress_saturated"})");

  AdmissionEvent t;
  t.kind = EventKind::kRetried;
  t.request = 9;
  t.when = at(13.0);
  t.attempt = 2;
  t.backoff = Duration::seconds(60);
  EXPECT_EQ(JsonlSink::format(t),
            R"({"event":"retried","req":9,"t":13,"attempt":2,"backoff":60})");
}

TEST(JsonlSinkTest, StreamsLinesAndMetaAnnotations) {
  std::ostringstream out;
  {
    JsonlSink sink{out};
    sink.annotate("scheduler", "greedy/minrate");
    AdmissionEvent e;
    e.kind = EventKind::kSubmitted;
    e.request = 1;
    sink.record(e);
  }
  const std::string text = out.str();
  EXPECT_NE(text.find(R"({"event":"meta","key":"scheduler","value":"greedy/minrate"})"),
            std::string::npos);
  EXPECT_NE(text.find(R"({"event":"submitted","req":1,"t":0,"attempt":1})"),
            std::string::npos);
  // One '\n'-terminated object per line.
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObserverTest, NullObserverHelpersAreNoOps) {
  obs::note_submitted(nullptr, 1, at(0));
  obs::note_accepted(nullptr, 1, at(0), at(0), mbps(1));
  obs::note_rejected(nullptr, 1, at(0), RejectReason::kInfeasibleRate);
  obs::note_retried(nullptr, 1, at(0), 2, Duration::seconds(1));
  obs::note_preempted(nullptr, 1, at(0));
  obs::note_reclaimed(nullptr, 1, at(0), mbps(1));
  SUCCEED();
}

TEST(ObserverTest, SinkOnlyAndCountersOnlyBothWork) {
  MemorySink sink;
  Observer sink_only{&sink, nullptr};
  obs::note_submitted(&sink_only, 1, at(0));
  EXPECT_EQ(sink.count(EventKind::kSubmitted), 1u);

  CounterRegistry counters;
  Observer counters_only{nullptr, &counters};
  obs::note_accepted(&counters_only, 1, at(0), at(0), mbps(1));
  EXPECT_EQ(counters.value(Counter::kAccepted), 1u);
  EXPECT_EQ(sink.count(EventKind::kAccepted), 0u);
}

// -- Per-engine reconciliation ---------------------------------------------
//
// For every admission engine: attach a MemorySink + counters, run a seeded
// workload, and check that the event stream tells the same story as the
// ScheduleResult — accepted events == accepted_count(), rejected events ==
// rejected.size(), every rejection carries a non-kNone taxonomy entry, and
// the per-reason totals sum back to the rejection count.

void expect_reconciles(const MemorySink& sink, const CounterRegistry& counters,
                       const ScheduleResult& result, std::size_t submitted) {
  EXPECT_EQ(sink.count(EventKind::kSubmitted), submitted);
  EXPECT_EQ(sink.count(EventKind::kAccepted), result.accepted_count());
  EXPECT_EQ(sink.count(EventKind::kRejected), result.rejected.size());
  EXPECT_EQ(counters.value(Counter::kAccepted), result.accepted_count());
  EXPECT_EQ(counters.value(Counter::kRejected), result.rejected.size());

  std::size_t by_reason = 0;
  constexpr std::array kReasons{
      RejectReason::kDegenerateWindow,  RejectReason::kInfeasibleRate,
      RejectReason::kIngressSaturated,  RejectReason::kEgressSaturated,
      RejectReason::kBothPortsSaturated, RejectReason::kNoFeasibleStart,
      RejectReason::kRetroRemoved,      RejectReason::kRetriesExhausted};
  for (const RejectReason reason : kReasons) by_reason += sink.count(reason);
  EXPECT_EQ(by_reason, result.rejected.size());
  EXPECT_EQ(sink.count(RejectReason::kNone), 0u);
}

TEST(Reconciliation, RigidFcfs) {
  const auto requests = seeded_workload(901);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto result =
      heuristics::schedule_rigid_fcfs(paper_network(), requests, &observer);
  ASSERT_GT(result.rejected.size(), 0u);
  expect_reconciles(sink, counters, result, requests.size());
}

TEST(Reconciliation, RigidSlotsAllCosts) {
  const auto requests = seeded_workload(902);
  for (const heuristics::SlotCost cost :
       {heuristics::SlotCost::kCumulated, heuristics::SlotCost::kMinBandwidth,
        heuristics::SlotCost::kMinVolume}) {
    MemorySink sink;
    CounterRegistry counters;
    Observer observer{&sink, &counters};
    const auto result =
        heuristics::schedule_rigid_slots(paper_network(), requests, cost, &observer);
    expect_reconciles(sink, counters, result, requests.size());
  }
}

TEST(Reconciliation, FlexibleGreedy) {
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(0.5), Duration::seconds(600), 4.0);
  Rng rng{903};
  const auto requests = workload::generate(scenario.spec, rng);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto result = heuristics::schedule_flexible_greedy(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(1.0),
      &observer);
  ASSERT_GT(result.rejected.size(), 0u);
  expect_reconciles(sink, counters, result, requests.size());
  // Every accepted transfer eventually returns its bandwidth.
  EXPECT_EQ(sink.count(EventKind::kReclaimed), result.accepted_count());
}

TEST(Reconciliation, FlexibleWindowBothEngines) {
  // Both engines on the shared WINDOW drain: the constant one and the
  // malleable one with reshaping off.
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(0.5), Duration::seconds(600), 4.0);
  Rng rng{904};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::WindowOptions options;
  options.step = Duration::seconds(100);
  heuristics::MalleableOptions malleable;
  malleable.step = options.step;
  malleable.policy = options.policy;
  malleable.reshape = false;
  for (const heuristics::NamedScheduler& engine :
       {heuristics::make_window(options), heuristics::make_malleable_window(malleable)}) {
    MemorySink sink;
    CounterRegistry counters;
    Observer observer{&sink, &counters};
    const auto result = engine.run(scenario.network, requests, &observer);
    expect_reconciles(sink, counters, result, requests.size());
    EXPECT_EQ(sink.count(EventKind::kReclaimed), result.accepted_count()) << engine.name;
  }
}

TEST(Reconciliation, FlexibleBookahead) {
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(0.5), Duration::seconds(600), 4.0);
  Rng rng{905};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::BookAheadOptions options;
  options.step = Duration::seconds(100);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto result = heuristics::schedule_flexible_bookahead(scenario.network, requests,
                                                              options, &observer);
  expect_reconciles(sink, counters, result, requests.size());
}

TEST(Reconciliation, RigidSlotsPreemptionsAreNarrated) {
  // A *-SLOTS sweep retro-removes requests that fail a later slice; every
  // final rejection of a request that was preempted mid-sweep must carry
  // the kRetroRemoved reason, and preempted events may only name requests
  // that do not appear in the final schedule.
  const auto requests = seeded_workload(906, 6.0);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto result = heuristics::schedule_rigid_slots(
      paper_network(), requests, heuristics::SlotCost::kCumulated, &observer);
  for (const AdmissionEvent& e : sink.events()) {
    if (e.kind == EventKind::kPreempted) {
      EXPECT_FALSE(result.schedule.is_accepted(e.request));
    }
  }
  // Preempted events fire only for drops that had held bandwidth in an
  // earlier slice; every such drop is rejected as retro-removed (drops
  // that never started are retro-removed without a preemption event).
  EXPECT_GT(sink.count(RejectReason::kRetroRemoved), 0u);
  EXPECT_LE(sink.count(EventKind::kPreempted),
            sink.count(RejectReason::kRetroRemoved));
}

// -- Ledger + validator counters -------------------------------------------

TEST(LedgerCounters, FitsChecksAndReservationsFlow) {
  const auto requests = seeded_workload(907);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto result =
      heuristics::schedule_rigid_fcfs(paper_network(), requests, &observer);
  // FCFS probes the ledger once per non-degenerate request; every accepted
  // request reserved both its ports.
  EXPECT_GE(counters.value(Counter::kLedgerFitsChecks), result.accepted_count());
  EXPECT_EQ(counters.value(Counter::kLedgerReservations), result.accepted_count());
  EXPECT_GE(counters.value(Counter::kLedgerFitsRejected), 1u);
}

TEST(ValidatorCounters, RunsAndAssignmentsCounted) {
  const auto requests = seeded_workload(908);
  const auto result = heuristics::schedule_rigid_fcfs(paper_network(), requests);
  CounterRegistry counters;
  Observer observer{nullptr, &counters};
  ValidateOptions options;
  options.observer = &observer;
  const auto report =
      validate_assignments(paper_network(), requests,
                           result.schedule.assignments(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(counters.value(Counter::kValidatorRuns), 1u);
  EXPECT_EQ(counters.value(Counter::kValidatorAssignments),
            result.accepted_count());
  EXPECT_EQ(counters.value(Counter::kValidatorViolations), 0u);
}

// -- Utilization export -----------------------------------------------------

TEST(Utilization, SingleTransferSummaryIsExact) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector<Request> rs{flexible(1, 0, 10, 100, 2.0)};
  Schedule schedule;
  schedule.accept(1, at(0), mbps(100));  // 1 GB over [0, 10)

  const auto report =
      obs::utilization_report(net, rs, schedule, TimePoint::origin(), at(20));
  ASSERT_EQ(report.ingress.size(), 1u);
  ASSERT_EQ(report.egress.size(), 1u);

  const auto& in = report.ingress[0];
  EXPECT_NEAR(in.peak.to_megabytes_per_second(), 100.0, 1e-9);
  EXPECT_NEAR(in.peak_ratio, 1.0, 1e-12);
  EXPECT_NEAR(in.carried.to_bytes(), 100e6 * 10, 1.0);
  // 10 busy seconds out of a 20 s window at full rate.
  EXPECT_NEAR(in.mean_ratio, 0.5, 1e-12);
  EXPECT_NEAR(report.total_carried().to_bytes(), 100e6 * 10, 1.0);

  // Series: load 100 MB/s at t=0, back to zero at t=10.
  ASSERT_GE(in.series.size(), 2u);
  EXPECT_NEAR(in.series.front().load.to_megabytes_per_second(), 100.0, 1e-9);
  EXPECT_NEAR(in.series.back().load.to_megabytes_per_second(), 0.0, 1e-9);
  EXPECT_NEAR(in.series.back().at.to_seconds(), 10.0, 1e-9);
}

TEST(Utilization, OverlappingTransfersStack) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector<Request> rs{flexible(1, 0, 10, 50, 4.0),
                                flexible(2, 0, 10, 50, 4.0)};
  Schedule schedule;
  schedule.accept(1, at(0), mbps(50));   // [0, 10)
  schedule.accept(2, at(5), mbps(50));   // [5, 15)

  const auto report =
      obs::utilization_report(net, rs, schedule, TimePoint::origin(), at(20));
  EXPECT_NEAR(report.ingress[0].peak.to_megabytes_per_second(), 100.0, 1e-9);
  EXPECT_NEAR(report.ingress[0].carried.to_bytes(), 2 * 50e6 * 10, 1.0);
}

TEST(Utilization, WindowClampsTheIntegral) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector<Request> rs{flexible(1, 0, 10, 100, 2.0)};
  Schedule schedule;
  schedule.accept(1, at(0), mbps(100));  // busy [0, 10)
  const auto report =
      obs::utilization_report(net, rs, schedule, TimePoint::origin(), at(5));
  EXPECT_NEAR(report.ingress[0].carried.to_bytes(), 100e6 * 5, 1.0);
  EXPECT_NEAR(report.ingress[0].mean_ratio, 1.0, 1e-12);
}

TEST(Utilization, WritersEmitStableShapes) {
  const Network net = Network::uniform(2, 2, mbps(100));
  const std::vector<Request> rs{flexible(1, 0, 10, 100, 2.0, 1, 0)};
  Schedule schedule;
  schedule.accept(1, at(0), mbps(100));
  const auto report =
      obs::utilization_report(net, rs, schedule, TimePoint::origin(), at(20));

  std::ostringstream csv;
  obs::UtilizationReport::write_csv_header(csv);
  report.write_csv(csv, "FCFS");
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("scheduler,row,kind,port"), std::string::npos);
  EXPECT_NE(csv_text.find("FCFS,summary,ingress,1"), std::string::npos);
  EXPECT_NE(csv_text.find("FCFS,summary,egress,0"), std::string::npos);

  std::ostringstream json;
  report.write_json(json, "FCFS");
  const std::string json_text = json.str();
  EXPECT_EQ(json_text.front(), '{');
  EXPECT_NE(json_text.find(R"("scheduler":"FCFS")"), std::string::npos);
  EXPECT_NE(json_text.find(R"("ingress":[)"), std::string::npos);

  // Byte-stable across repeat exports (shortest-round-trip doubles).
  std::ostringstream json2;
  report.write_json(json2, "FCFS");
  EXPECT_EQ(json_text, json2.str());
}

// -- Retry engine -----------------------------------------------------------

TEST(RetryObservability, ResidualOccupancyDrainsToZero) {
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(0.5), Duration::seconds(600), 4.0);
  Rng rng{909};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = Duration::seconds(30);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto out = heuristics::schedule_greedy_with_retries(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(1.0),
      retry, &observer);
  // The final completion drain must return every reserved byte/s: the
  // residual gauge is the regression for the never-drained-after-last-pop
  // bug.
  EXPECT_EQ(counters.value(Counter::kRetryResidualBps), 0u);
  // Every acceptance is eventually reclaimed.
  EXPECT_EQ(sink.count(EventKind::kReclaimed), out.result.accepted_count());
  // Retried events match the engine's own accounting.
  EXPECT_EQ(sink.count(EventKind::kRetried), out.retries_issued);
  // First submissions only: attempts are narrated via retried events.
  EXPECT_EQ(sink.count(EventKind::kSubmitted), requests.size());
}

TEST(RetryObservability, ExhaustedRetriesUseTheTerminalReason) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector<Request> rs{flexible(1, 0, 1000, 100, 4.0),
                                flexible(2, 5, 10, 100, 4.0)};
  heuristics::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = Duration::seconds(10);
  MemorySink sink;
  CounterRegistry counters;
  Observer observer{&sink, &counters};
  const auto out = heuristics::schedule_greedy_with_retries(
      net, rs, heuristics::BandwidthPolicy::fraction_of_max(1.0), retry, &observer);
  ASSERT_EQ(out.result.rejected.size(), 1u);
  EXPECT_EQ(sink.count(RejectReason::kRetriesExhausted), 1u);
  EXPECT_EQ(sink.count(EventKind::kRetried), 2u);
  EXPECT_EQ(counters.value(Counter::kRetryResidualBps), 0u);
}

}  // namespace
}  // namespace gridbw
