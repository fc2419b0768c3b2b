// Differential proof that the fast admission engines are byte-identical to
// their paper-literal references, on randomized workloads:
//
//   rigid *-SLOTS:  SlotsEngine::kIncremental vs kRebuild, all 3 SlotCosts
//   WINDOW:         the shared heap drain (window, and mwindow with
//                   reshaping off) vs the test-support scan, all orders +
//                   hotspot
//
// (ISSUE acceptance criterion: schedules must match exactly, several seeds.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "heuristics/flexible_window.hpp"
#include "heuristics/malleable.hpp"
#include "heuristics/rigid_slots.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "support/window_scan.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

/// Canonical fingerprint of a schedule result (same shape as
/// determinism_test.cpp): accepted (id, start, bw) triples plus rejections.
std::vector<std::tuple<RequestId, double, double>> fingerprint(
    const ScheduleResult& result) {
  std::vector<std::tuple<RequestId, double, double>> out;
  for (const Assignment& a : result.schedule.assignments()) {
    out.emplace_back(a.request, a.start.to_seconds(), a.bw.to_bytes_per_second());
  }
  std::sort(out.begin(), out.end());
  auto rejected = result.rejected;
  std::sort(rejected.begin(), rejected.end());
  for (RequestId id : rejected) out.emplace_back(id, -1.0, -1.0);
  return out;
}

constexpr std::uint64_t kSeeds[] = {11, 4242, 987654321};

constexpr heuristics::SlotCost kAllCosts[] = {heuristics::SlotCost::kCumulated,
                                              heuristics::SlotCost::kMinBandwidth,
                                              heuristics::SlotCost::kMinVolume};

class SlotsEngineDifferential
    : public ::testing::TestWithParam<heuristics::SlotCost> {};

TEST_P(SlotsEngineDifferential, IncrementalMatchesRebuildOnRandomWorkloads) {
  const auto cost = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    const workload::Scenario scenario =
        workload::paper_rigid(Duration::seconds(1), Duration::seconds(800));
    Rng rng{seed};
    const auto requests = workload::generate(scenario.spec, rng);
    ASSERT_GT(requests.size(), 50u);

    heuristics::SlotsTelemetry rebuild_tm, incremental_tm;
    const auto reference = heuristics::schedule_rigid_slots(
        scenario.network, requests, cost, heuristics::SlotsEngine::kRebuild,
        &rebuild_tm);
    const auto fast = heuristics::schedule_rigid_slots(
        scenario.network, requests, cost, heuristics::SlotsEngine::kIncremental,
        &incremental_tm);

    EXPECT_EQ(fingerprint(reference), fingerprint(fast))
        << to_string(cost) << " seed=" << seed;
    // Same slice structure, strictly less admission work.
    EXPECT_EQ(rebuild_tm.slices, incremental_tm.slices);
    EXPECT_EQ(rebuild_tm.skipped_slices, 0u);
    EXPECT_LE(incremental_tm.admission_checks, rebuild_tm.admission_checks);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSlotCosts, SlotsEngineDifferential,
                         ::testing::ValuesIn(kAllCosts));

TEST(SlotsEngineDifferential, DefaultOverloadIsTheIncrementalEngine) {
  const workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(400));
  Rng rng{5};
  const auto requests = workload::generate(scenario.spec, rng);
  const auto a = heuristics::schedule_rigid_slots(
      scenario.network, requests, heuristics::SlotCost::kMinBandwidth);
  const auto b = heuristics::schedule_rigid_slots(
      scenario.network, requests, heuristics::SlotCost::kMinBandwidth,
      heuristics::SlotsEngine::kIncremental);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(SlotsEngineDifferential, IncrementalSkipsQuietSlices) {
  // A sparse workload has long stretches with no arrivals/departures; the
  // incremental engine must skip those slices entirely.
  const workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(20), Duration::seconds(4000));
  Rng rng{77};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::SlotsTelemetry tm;
  (void)heuristics::schedule_rigid_slots(scenario.network, requests,
                                         heuristics::SlotCost::kMinBandwidth,
                                         heuristics::SlotsEngine::kIncremental, &tm);
  EXPECT_GT(tm.slices, 0u);
  EXPECT_LT(tm.admission_checks,
            tm.slices * std::max<std::size_t>(requests.size(), 1));
}

// Pins the telemetry contract (ISSUE 6 satellite): admission_checks counts
// ledger probes ONLY, in every engine. A request whose min rate exceeds its
// own max_rate is short-circuited before the ledger in the rebuild sweep and
// precomputed as infeasible in the incremental sweeps — it must not be
// counted by either. On a single-slice workload (all requests share one
// window) every engine probes each rate-feasible request exactly once, so
// the counts are exactly predictable AND equal across engines.
TEST(AdmissionChecksContract, CountsLedgerProbesOnlyInEveryEngine) {
  const Network net = Network::uniform(2, 2, Bandwidth::megabytes_per_second(100));
  const auto shared_window = [](RequestId id, double mb_volume, double mb_cap) {
    Request r;
    r.id = id;
    r.ingress = IngressId{0};
    r.egress = EgressId{0};
    r.release = TimePoint::origin();
    r.deadline = TimePoint::at_seconds(10);
    r.volume = Volume::megabytes(mb_volume);
    r.max_rate = Bandwidth::megabytes_per_second(mb_cap);
    return r;
  };
  const std::vector<Request> requests = {
      shared_window(RequestId{1}, 300.0, 40.0),  // min rate 30 <= cap 40
      shared_window(RequestId{2}, 200.0, 30.0),  // min rate 20 <= cap 30
      // Infeasible rate: needs 50 MB/s but its own cap is 10. Never probed.
      shared_window(RequestId{3}, 500.0, 10.0),
      shared_window(RequestId{4}, 100.0, 20.0),  // min rate 10 <= cap 20
  };

  for (const auto cost : kAllCosts) {
    for (const auto engine :
         {heuristics::SlotsEngine::kRebuild, heuristics::SlotsEngine::kIncremental}) {
      heuristics::SlotsTelemetry tm;
      const auto result =
          heuristics::schedule_rigid_slots(net, requests, cost, engine, &tm);
      EXPECT_EQ(tm.admission_checks, 3u)
          << to_string(cost) << "/" << to_string(engine);
      // The infeasible-rate request is rejected, the three feasible ones
      // (60 MB/s total on port 0) are admitted.
      EXPECT_EQ(result.rejected.size(), 1u);
      EXPECT_EQ(result.schedule.assignments().size(), 3u);
    }
  }
}

// ---------------------------------------------------------------------------
// The incremental kernel (the suite is named for CUMULATED, the cost it was
// first written for): the suffix filter, same-instant batches, heap
// departures, retro-removals and the fit-the-total step, each under all
// three costs against the rebuild oracle.
// ---------------------------------------------------------------------------

/// Records when each preemption (retro-removal of a request that held
/// bandwidth in an earlier slice) happened.
class PreemptionClock : public obs::TraceSink {
 public:
  void record(const obs::AdmissionEvent& event) override {
    if (event.kind == obs::EventKind::kPreempted) at.push_back(event.when.to_seconds());
  }
  void annotate(std::string_view, std::string_view) override {}
  std::vector<double> at;
};

struct SlotsRun {
  ScheduleResult result;
  heuristics::SlotsTelemetry tm;
  std::vector<double> preempted_at;
};

SlotsRun run_slots(const Network& net, std::span<const Request> requests,
                   heuristics::SlotCost cost, heuristics::SlotsEngine engine) {
  PreemptionClock clock;
  obs::Observer observer{&clock, nullptr};
  SlotsRun run;
  run.result = heuristics::schedule_rigid_slots(net, requests, cost, engine, &run.tm,
                                                &observer);
  run.preempted_at = std::move(clock.at);
  std::sort(run.preempted_at.begin(), run.preempted_at.end());
  return run;
}

/// Runs `cost` under both engines and requires the same schedule, the same
/// preemptions (when and how many), the same slice count and no more
/// admission work in the incremental kernel. Returns the incremental run.
SlotsRun expect_engines_agree(const Network& net, std::span<const Request> requests,
                              heuristics::SlotCost cost, const std::string& what) {
  const SlotsRun reference =
      run_slots(net, requests, cost, heuristics::SlotsEngine::kRebuild);
  SlotsRun fast = run_slots(net, requests, cost, heuristics::SlotsEngine::kIncremental);
  const std::string label = to_string(cost) + " " + what;
  EXPECT_EQ(fingerprint(reference.result), fingerprint(fast.result)) << label;
  EXPECT_EQ(reference.preempted_at, fast.preempted_at) << label;
  EXPECT_EQ(reference.tm.slices, fast.tm.slices) << label;
  EXPECT_LE(fast.tm.admission_checks, reference.tm.admission_checks) << label;
  return fast;
}

Request uncapped(RequestId id, std::size_t port, double release, double deadline,
                 double volume_bytes) {
  Request r;
  r.id = id;
  r.ingress = IngressId{port};
  r.egress = EgressId{port};
  r.release = TimePoint::at_seconds(release);
  r.deadline = TimePoint::at_seconds(deadline);
  r.volume = Volume::bytes(volume_bytes);
  r.max_rate = Bandwidth::gigabytes_per_second(1000);
  return r;
}

bool accepted(const ScheduleResult& result, RequestId id) {
  for (const Assignment& a : result.schedule.assignments()) {
    if (a.request == id) return true;
  }
  return false;
}

/// A contest on one port pair per case j, each in its own slice
/// [10j + 1, 10j + 2): an admitted member `m` (released at 10j, window 2w)
/// meets a newcomer `n` (released at 10j + 1, window w), the slice's only
/// newcomer and so its lead, and the port fits only one of them. A dummy
/// request on the last port puts a boundary at 10j + 2.
struct Contest {
  Request m, n;
};

struct Contests {
  Network net;
  std::vector<Request> requests;  // every m and n, and the dummies
  std::vector<Contest> cases;

  /// The costs of m and n on the contest slice.
  [[nodiscard]] std::pair<double, double> costs(const Contest& c,
                                                heuristics::SlotCost cost) const {
    const TimePoint t2 = TimePoint::at_seconds(c.n.release.to_seconds() + 1.0);
    return {heuristics::slot_cost(net, c.m, cost, t2),
            heuristics::slot_cost(net, c.n, cost, t2)};
  }
};

/// Both costs are ratio / fl(1 / w), so with volume(m) = 2 * volume(n)
/// CUMULATED (and MINBW: same rate) ties bit for bit; `m_scale` moves m's
/// cost off the tie. MINVOL never ties: m's volume is double.
Contests make_contests(std::span<const double> m_scale) {
  constexpr double kWindows[] = {100.0, 37.0, 3.0, 1000.0, 7.5};
  // Per scale: each window, each id order.
  constexpr std::size_t kPerScale = 2 * std::size(kWindows);
  const std::size_t count = m_scale.size() * kPerScale;
  Contests out{Network::uniform(count + 1, count + 1, Bandwidth::megabytes_per_second(100)),
               {}, {}};
  for (std::size_t j = 0; j < count; ++j) {
    const double base = 10.0 * static_cast<double>(j);
    const double w = kWindows[j / 2 % std::size(kWindows)];
    const double rate = (60.0 + static_cast<double>(j % 39)) * 1e6;  // > half the port
    const bool newcomer_first = j % 2 == 0;  // n gets the smaller id
    const RequestId n_id = 2 * j + (newcomer_first ? 0 : 1);
    const RequestId m_id = 2 * j + (newcomer_first ? 1 : 0);
    const Contest c{
        uncapped(m_id, j, base, base + 2.0 * w, 2.0 * rate * w * m_scale[j / kPerScale]),
        uncapped(n_id, j, base + 1.0, base + 1.0 + w, rate * w)};
    out.requests.push_back(c.m);
    out.requests.push_back(c.n);
    out.requests.push_back(uncapped(1'000'000 + j, count, base + 2.0, base + 3.0, 1e6));
    out.cases.push_back(c);
  }
  return out;
}

/// The member wins its contest iff it sorts before the newcomer by
/// (cost, id) on the contest slice.
void expect_contests_decided_by_cost_then_id(const Contests& contests,
                                             heuristics::SlotCost cost,
                                             const ScheduleResult& result) {
  for (std::size_t j = 0; j < contests.cases.size(); ++j) {
    const Contest& c = contests.cases[j];
    const auto [cm, cn] = contests.costs(c, cost);
    const bool member_first = cm < cn || (cm == cn && c.m.id < c.n.id);
    EXPECT_EQ(accepted(result, c.m.id), member_first) << to_string(cost) << " contest " << j;
    EXPECT_EQ(accepted(result, c.n.id), !member_first) << to_string(cost) << " contest " << j;
  }
}

TEST(CumulatedKernel, ExactCostTiesAtLeadAreBrokenById) {
  const std::vector<double> scale(6, 1.0);
  const Contests contests = make_contests(scale);
  for (const auto cost : kAllCosts) {
    const bool ties = cost != heuristics::SlotCost::kMinVolume;
    for (const Contest& c : contests.cases) {
      const auto [cm, cn] = contests.costs(c, cost);
      if (ties) {
        ASSERT_EQ(cm, cn) << to_string(cost);
      } else {
        ASSERT_GT(cm, cn) << to_string(cost);
      }
    }
    const SlotsRun run =
        expect_engines_agree(contests.net, contests.requests, cost, "exact ties");
    expect_contests_decided_by_cost_then_id(contests, cost, run.result);
    // Every member that lost had held its port since its release.
    EXPECT_EQ(run.preempted_at.size(),
              ties ? contests.cases.size() / 2 : contests.cases.size())
        << to_string(cost);
  }
}

TEST(CumulatedKernel, CostsWithin1e9OfLeadAreDecidedExactly) {
  // Relative offsets inside and just outside the fast test's 1e-9 margin,
  // and single-ulp steps around the exact tie.
  std::vector<double> scale;
  for (const double d : {1.5e-9, 1.0e-9, 9e-10, 5e-10, 1e-10, 1e-12, 1e-15}) {
    scale.push_back(1.0 - d);
    scale.push_back(1.0 + d);
  }
  double up = 1.0, down = 1.0;
  for (int step = 0; step < 8; ++step) {
    up = std::nextafter(up, 2.0);
    down = std::nextafter(down, 0.0);
    scale.push_back(up);
    scale.push_back(down);
  }
  const Contests contests = make_contests(scale);
  for (const auto cost : kAllCosts) {
    const SlotsRun run =
        expect_engines_agree(contests.net, contests.requests, cost, "near ties");
    expect_contests_decided_by_cost_then_id(contests, cost, run.result);
  }
}

/// Requests on a coarse time grid: `instants` release times `spacing` apart,
/// `batch` requests each, integer windows in [1, max_window], rates
/// 5-60 % of a 100 MB/s port on a ports x ports fabric.
std::vector<Request> grid_workload(std::uint64_t seed, std::size_t ports,
                                   std::size_t instants, double spacing,
                                   std::size_t batch, std::int64_t max_window) {
  Rng rng{seed};
  std::vector<Request> requests;
  for (std::size_t i = 0; i < instants; ++i) {
    for (std::size_t b = 0; b < batch; ++b) {
      Request r;
      r.id = requests.size();
      r.ingress = IngressId{static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(ports) - 1))};
      r.egress = EgressId{static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(ports) - 1))};
      r.release = TimePoint::at_seconds(spacing * static_cast<double>(i));
      const auto window = static_cast<double>(rng.uniform_int(1, max_window));
      r.deadline = r.release + Duration::seconds(window);
      r.volume = Volume::bytes(rng.uniform(5e6, 60e6) * window);
      r.max_rate = Bandwidth::gigabytes_per_second(1000);
      requests.push_back(r);
    }
  }
  return requests;
}

TEST(CumulatedKernel, SameInstantBatchesOfManyNewcomers) {
  const Network net = Network::uniform(3, 3, Bandwidth::megabytes_per_second(100));
  for (const auto cost : kAllCosts) {
    for (const std::uint64_t seed : kSeeds) {
      const auto requests = grid_workload(seed, 3, 25, 7.0, 40, 60);
      const SlotsRun run = expect_engines_agree(net, requests, cost,
                                                "batches seed=" + std::to_string(seed));
      EXPECT_FALSE(run.result.rejected.empty());
      EXPECT_FALSE(run.preempted_at.empty());
    }
  }
}

TEST(CumulatedKernel, DeparturesAndRetroRemovalsAtOneBoundary) {
  // Integer releases and windows of 1-6 s: most boundaries are at once a
  // deadline (a heap departure), a release, and a preemption instant.
  const Network net = Network::uniform(2, 2, Bandwidth::megabytes_per_second(100));
  for (const auto cost : kAllCosts) {
    std::size_t shared_boundaries = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto requests = grid_workload(seed, 2, 40, 1.0, 4, 6);
      const SlotsRun run = expect_engines_agree(net, requests, cost,
                                                "boundaries seed=" + std::to_string(seed));
      for (const double t : run.preempted_at) {
        const bool departure =
            std::any_of(requests.begin(), requests.end(),
                        [&](const Request& r) { return r.deadline.to_seconds() == t; });
        if (departure) ++shared_boundaries;
      }
    }
    EXPECT_GT(shared_boundaries, 0u) << to_string(cost);
  }
}

TEST(CumulatedKernel, MatchesRebuildOnA20kPaperWorkloadAtLoad3) {
  for (const auto cost : kAllCosts) {
    for (const std::uint64_t seed : kSeeds) {
      workload::Scenario s =
          workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
      s.spec.mean_interarrival = workload::interarrival_for_load(s.spec, s.network, 3.0);
      s.spec.horizon = s.spec.mean_interarrival * 20000.0;
      Rng rng{seed};
      const auto requests = workload::generate(s.spec, rng);
      ASSERT_GT(requests.size(), 19000u);
      const SlotsRun run = expect_engines_agree(
          s.network, requests, cost, "paper_rigid 20k seed=" + std::to_string(seed));
      EXPECT_FALSE(run.preempted_at.empty());
    }
  }
}

constexpr double kMB = 1e6;

TEST(CumulatedKernel, StaticCostTiesAreBrokenById) {
  // Two 100 MB/s port pairs, each held from t = 0 by a cheap p (10 MB/s)
  // and a member m (60 MB/s), and joined at t = 10 by a newcomer n with
  // m's window length and volume, hence its rate: MINBW and MINVOL tie m
  // and n bit for bit, and each port fits only one. On port 0 n has the
  // smaller id and displaces m; on port 1 m has the smaller id, below even
  // the lead's (n0), and stands untouched. CUMULATED favours both m, which
  // have served part of their windows. Probes, static: p0, m0, p1, m1;
  // n0 (fails the total); n0, m0, n1 (replay) = 8. CUMULATED: 4; n0;
  // n0, n1 = 7.
  const Network net = Network::uniform(2, 2, Bandwidth::megabytes_per_second(100));
  const Request p0 = uncapped(0, 0, 0.0, 100.0, 10 * kMB * 100);
  const Request m1 = uncapped(1, 1, 0.0, 50.0, 60 * kMB * 50);
  const Request n0 = uncapped(2, 0, 10.0, 60.0, 60 * kMB * 50);
  const Request m0 = uncapped(3, 0, 0.0, 50.0, 60 * kMB * 50);
  const Request p1 = uncapped(4, 1, 0.0, 100.0, 10 * kMB * 100);
  const Request n1 = uncapped(5, 1, 10.0, 60.0, 60 * kMB * 50);
  const std::vector<Request> requests = {p0, m1, n0, m0, p1, n1};
  for (const auto cost : kAllCosts) {
    const bool dynamic = cost == heuristics::SlotCost::kCumulated;
    const TimePoint t2 = TimePoint::at_seconds(50);
    for (const auto& [m, n] : {std::pair{m0, n0}, std::pair{m1, n1}}) {
      const double cm = heuristics::slot_cost(net, m, cost, t2);
      const double cn = heuristics::slot_cost(net, n, cost, t2);
      if (dynamic) {
        ASSERT_LT(cm, cn);
      } else {
        ASSERT_EQ(cm, cn) << to_string(cost);
      }
    }
    const SlotsRun run = expect_engines_agree(net, requests, cost, "static ties");
    auto rejected = run.result.rejected;
    std::sort(rejected.begin(), rejected.end());
    const std::vector<RequestId> losers =
        dynamic ? std::vector<RequestId>{n0.id, n1.id} : std::vector<RequestId>{m0.id, n1.id};
    const std::vector<double> preempted =
        dynamic ? std::vector<double>{} : std::vector<double>{10.0};
    EXPECT_EQ(rejected, losers) << to_string(cost);
    EXPECT_EQ(run.preempted_at, preempted) << to_string(cost);
    EXPECT_EQ(run.tm.admission_checks, dynamic ? 7u : 8u) << to_string(cost);
  }
}

TEST(CumulatedKernel, NewcomersThatFitTheTotalMidOrderNeedNoReplay) {
  // One 100 MB/s port pair. Members a (30 MB/s) and b (5 MB/s) hold it from
  // t = 0; newcomers c (10 MB/s, at 10) and d (15 MB/s, at 20) arrive with
  // costs between b's and a's under every cost, and the four together use
  // 60 MB/s. Each newcomer fits on top of the total, so no slice replays
  // anything: every request is probed once, on arrival. Replaying from a
  // newcomer would re-probe a, which sorts after it.
  const Network net = Network::uniform(1, 1, Bandwidth::megabytes_per_second(100));
  const Request a = uncapped(0, 0, 0.0, 100.0, 30 * kMB * 100);
  const Request b = uncapped(1, 0, 0.0, 100.0, 5 * kMB * 100);
  const Request c = uncapped(2, 0, 10.0, 70.0, 10 * kMB * 60);
  const Request d = uncapped(3, 0, 20.0, 80.0, 15 * kMB * 60);
  const std::vector<Request> requests = {a, b, c, d};
  for (const auto cost : kAllCosts) {
    // Mid-order on arrival: the slices [10, 20) and [20, 70).
    const auto at = [](double t) { return TimePoint::at_seconds(t); };
    ASSERT_LT(heuristics::slot_cost(net, b, cost, at(20)),
              heuristics::slot_cost(net, c, cost, at(20)));
    ASSERT_LT(heuristics::slot_cost(net, c, cost, at(20)),
              heuristics::slot_cost(net, a, cost, at(20)));
    ASSERT_LT(heuristics::slot_cost(net, d, cost, at(70)),
              heuristics::slot_cost(net, a, cost, at(70)));
    const SlotsRun run = expect_engines_agree(net, requests, cost, "fit the total");
    EXPECT_TRUE(run.result.rejected.empty()) << to_string(cost);
    EXPECT_EQ(run.tm.admission_checks, requests.size()) << to_string(cost);
  }
}

TEST(CumulatedKernel, ShortcutAdmissionsStandWhenALaterNewcomerFails) {
  // One 100 MB/s port pair. Members p (4 MB/s) and m (50 MB/s) hold it from
  // t = 0. At t = 10 a batch arrives: n1 (10), n2 (20) and n3 (45 MB/s),
  // all cheaper than m and dearer than p under every cost. n1 and n2 fit on
  // top of the total; n3 does not, but it fits ahead of m, so the replay
  // starts at n3 and displaces m. n1 and n2 stand: the replay probes only
  // n3 and m. Probes: p, m; n1, n2, n3 (shortcut); n3, m (replay) = 7.
  const Network net = Network::uniform(1, 1, Bandwidth::megabytes_per_second(100));
  const Request p = uncapped(0, 0, 0.0, 100.0, 4 * kMB * 100);
  const Request m = uncapped(1, 0, 0.0, 100.0, 50 * kMB * 100);
  const Request n1 = uncapped(2, 0, 10.0, 60.0, 10 * kMB * 50);
  const Request n2 = uncapped(3, 0, 10.0, 60.0, 20 * kMB * 50);
  const Request n3 = uncapped(4, 0, 10.0, 60.0, 45 * kMB * 50);
  const std::vector<Request> requests = {p, m, n1, n2, n3};
  for (const auto cost : kAllCosts) {
    const TimePoint t2 = TimePoint::at_seconds(60);
    const std::vector<double> costs = {
        heuristics::slot_cost(net, p, cost, t2), heuristics::slot_cost(net, n1, cost, t2),
        heuristics::slot_cost(net, n2, cost, t2), heuristics::slot_cost(net, n3, cost, t2),
        heuristics::slot_cost(net, m, cost, t2)};
    ASSERT_TRUE(std::is_sorted(costs.begin(), costs.end())) << to_string(cost);
    const SlotsRun run = expect_engines_agree(net, requests, cost, "partial shortcut");
    EXPECT_EQ(run.result.rejected, std::vector<RequestId>{m.id}) << to_string(cost);
    EXPECT_EQ(run.preempted_at, std::vector<double>{10.0}) << to_string(cost);
    EXPECT_EQ(run.tm.admission_checks, 7u) << to_string(cost);
  }
}

struct WindowCase {
  heuristics::CandidateOrder order;
  // gtest prints this struct as its raw bytes and ctest names each case
  // after that print. An explicit zero field leaves no indeterminate
  // padding, so the case names are the same on every build and run.
  std::int32_t zero_padding = 0;
  double hotspot;
};
static_assert(sizeof(WindowCase) == sizeof(WindowCase::order) +
                                        sizeof(WindowCase::zero_padding) +
                                        sizeof(WindowCase::hotspot),
              "WindowCase must have no padding bytes");

/// The malleable WINDOW with reshaping off, configured like `opt`: it
/// admits through the same drain, so it must match the scan as well.
ScheduleResult rigid_malleable_window(const workload::Scenario& scenario,
                                      std::span<const Request> requests,
                                      const heuristics::WindowOptions& opt) {
  heuristics::MalleableOptions mopt;
  mopt.policy = opt.policy;
  mopt.reshape = false;
  mopt.step = opt.step;
  mopt.order = opt.order;
  mopt.hotspot_weight = opt.hotspot_weight;
  return heuristics::schedule_malleable_window(scenario.network, requests, mopt);
}

class WindowEngineDifferential : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowEngineDifferential, HeapMatchesScanOnRandomWorkloads) {
  const auto param = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    const workload::Scenario scenario = workload::paper_flexible(
        Duration::seconds(0.5), Duration::seconds(600), 4.0);
    Rng rng{seed};
    const auto requests = workload::generate(scenario.spec, rng);
    ASSERT_GT(requests.size(), 50u);

    heuristics::WindowOptions opt;
    opt.step = Duration::seconds(50);
    opt.policy = heuristics::BandwidthPolicy::fraction_of_max(0.8);
    opt.order = param.order;
    opt.hotspot_weight = param.hotspot;

    const auto reference = oracle::schedule_window_by_scan(scenario.network, requests, opt);
    const auto fast =
        heuristics::schedule_flexible_window(scenario.network, requests, opt);
    EXPECT_EQ(fingerprint(reference), fingerprint(fast))
        << to_string(param.order) << " hotspot=" << param.hotspot
        << " seed=" << seed;
    EXPECT_EQ(fingerprint(reference),
              fingerprint(rigid_malleable_window(scenario, requests, opt)))
        << "mwindow " << to_string(param.order) << " hotspot=" << param.hotspot
        << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, WindowEngineDifferential,
    ::testing::Values(
        WindowCase{.order = heuristics::CandidateOrder::kMinCost, .hotspot = 0.0},
        WindowCase{.order = heuristics::CandidateOrder::kMinCost, .hotspot = 0.5},
        WindowCase{.order = heuristics::CandidateOrder::kEarliestDeadline,
                   .hotspot = 0.0},
        WindowCase{.order = heuristics::CandidateOrder::kShortestJob,
                   .hotspot = 0.0}));

TEST(WindowEngineDifferential, MinRatePolicyAlsoMatches) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(400), 4.0);
  Rng rng{31};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(100);
  opt.policy = heuristics::BandwidthPolicy::min_rate();
  const auto reference = oracle::schedule_window_by_scan(scenario.network, requests, opt);
  const auto fast =
      heuristics::schedule_flexible_window(scenario.network, requests, opt);
  EXPECT_EQ(fingerprint(reference), fingerprint(fast));
  EXPECT_EQ(fingerprint(reference),
            fingerprint(rigid_malleable_window(scenario, requests, opt)));
}

struct TracedWindow {
  std::vector<RequestId> rejected;  // in decision order
  std::string trace;                // the JSONL event stream
};

template <typename Schedule>
TracedWindow traced_window(Schedule&& schedule) {
  std::ostringstream out;
  obs::JsonlSink sink{out};
  obs::CounterRegistry registry;
  obs::Observer observer{&sink, &registry};
  const ScheduleResult result = schedule(&observer);
  sink.flush();
  return TracedWindow{result.rejected, out.str()};
}

TEST(WindowEngineDifferential, HeavyLoadRejectionOrderAndTraceMatchScan) {
  // Fig. 5's heavy end in miniature: 800-2000 candidates per 400 s batch,
  // of which a few dozen fit, so nearly every decision falls in the drain's
  // one-pass rejection tail. The fingerprint above sorts `rejected` and
  // ignores the trace; here both are compared in decision order.
  for (const double interarrival : {0.2, 0.5}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      const workload::Scenario scenario = workload::paper_flexible(
          Duration::seconds(interarrival), Duration::seconds(4000), 4.0);
      Rng rng{seed};
      const auto requests = workload::generate(scenario.spec, rng);
      heuristics::WindowOptions opt;
      opt.step = Duration::seconds(400);
      opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);

      const TracedWindow reference = traced_window([&](obs::Observer* o) {
        return oracle::schedule_window_by_scan(scenario.network, requests, opt, o);
      });
      const TracedWindow fast = traced_window([&](obs::Observer* o) {
        return heuristics::schedule_flexible_window(scenario.network, requests, opt, o);
      });
      ASSERT_GT(reference.rejected.size(), requests.size() / 2)
          << "ia=" << interarrival << " seed=" << seed;
      EXPECT_EQ(fast.rejected, reference.rejected)
          << "ia=" << interarrival << " seed=" << seed;
      // Not EXPECT_EQ: gtest's line diff of two multi-megabyte traces is quadratic.
      const auto diverge = std::mismatch(fast.trace.begin(), fast.trace.end(),
                                         reference.trace.begin(), reference.trace.end());
      EXPECT_TRUE(fast.trace == reference.trace)
          << "traces differ from byte " << (diverge.first - fast.trace.begin())
          << ", ia=" << interarrival << " seed=" << seed;
      EXPECT_EQ(rigid_malleable_window(scenario, requests, opt).rejected,
                reference.rejected)
          << "mwindow ia=" << interarrival << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace gridbw
