#include "heuristics/rigid_slots.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ledger.hpp"

namespace gridbw::heuristics {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// State shared by both sweep engines: validity flags, slice boundaries,
/// and the release-order cursor. Requests with a non-positive window are
/// rejected up front — their cost factor would be NaN/inf and poison the
/// per-slice sort — and contribute no slice boundaries.
struct SweepSetup {
  std::vector<char> alive;
  std::vector<TimePoint> boundaries;
  std::vector<std::size_t> by_release;
};

SweepSetup prepare_sweep(std::span<const Request> requests) {
  SweepSetup s;
  s.alive.assign(requests.size(), 1);
  s.boundaries.reserve(requests.size() * 2);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    if (!(r.deadline > r.release)) {
      s.alive[k] = 0;
      continue;
    }
    s.boundaries.push_back(r.release);
    s.boundaries.push_back(r.deadline);
  }
  std::sort(s.boundaries.begin(), s.boundaries.end());
  s.boundaries.erase(std::unique(s.boundaries.begin(), s.boundaries.end()),
                     s.boundaries.end());

  s.by_release.reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (s.alive[k]) s.by_release.push_back(k);
  }
  // (release, id, index) is a total order, so skipping the sort of an
  // input already in it (a generated workload is) gives the same cursor.
  const auto earlier = [&](std::size_t a, std::size_t b) {
    if (requests[a].release != requests[b].release) {
      return requests[a].release < requests[b].release;
    }
    if (requests[a].id != requests[b].id) return requests[a].id < requests[b].id;
    return a < b;
  };
  if (!std::is_sorted(s.by_release.begin(), s.by_release.end(), earlier)) {
    std::sort(s.by_release.begin(), s.by_release.end(), earlier);
  }
  return s;
}

/// Final accept/reject assembly, identical for both engines.
ScheduleResult assemble(std::span<const Request> requests,
                        const std::vector<char>& alive, obs::Observer* observer) {
  ScheduleResult result;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    if (alive[k] && approx_le(r.min_rate(), r.max_rate)) {
      result.schedule.accept(r.id, r.release, r.min_rate());
      obs::note_accepted(observer, r.id, r.release, r.release, r.min_rate());
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        obs::RejectReason reason = obs::RejectReason::kRetroRemoved;
        if (!(r.deadline > r.release)) {
          reason = obs::RejectReason::kDegenerateWindow;
        } else if (!approx_le(r.min_rate(), r.max_rate)) {
          reason = obs::RejectReason::kInfeasibleRate;
        }
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }
  return result;
}

/// Returns a per-request retro-removal timestamp buffer, pre-filled with
/// each request's release so "never removed" compares as "not preempted".
/// Empty (no allocation) when there is no observer.
std::vector<TimePoint> make_removal_clock(std::span<const Request> requests,
                                          obs::Observer* observer) {
  std::vector<TimePoint> removed_at;
  if (observer != nullptr) {
    removed_at.reserve(requests.size());
    for (const Request& r : requests) removed_at.push_back(r.release);
  }
  return removed_at;
}

/// Emits a preempted event for every retro-removed request that had held
/// bandwidth in an earlier slice (dropped strictly after its release).
/// Kept out of the sweep loops: even a never-taken out-of-line call on the
/// removal path bloats the admission loop measurably, so the sweeps record
/// plain timestamp stores and the narration happens once, here.
void narrate_preemptions(std::span<const Request> requests,
                         const std::vector<char>& alive,
                         const std::vector<TimePoint>& removed_at,
                         obs::Observer* observer) {
  if (observer == nullptr) return;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (!alive[k] && requests[k].release < removed_at[k]) {
      obs::note_preempted(observer, requests[k].id, removed_at[k]);
    }
  }
}

/// Paper-literal reference: every slice re-sorts the active set and rebuilds
/// a fresh CounterLedger. Kept as the differential-test oracle.
ScheduleResult sweep_rebuild(const Network& network, std::span<const Request> requests,
                             SlotCost cost, SweepSetup& s, SlotsTelemetry* telemetry,
                             obs::Observer* observer) {
  std::size_t next_release = 0;
  std::vector<std::size_t> running;
  std::vector<TimePoint> removed_at = make_removal_clock(requests, observer);

  CounterLedger counters{network};
  counters.attach_observer(observer);  // drift-anomaly hook only
  for (std::size_t b = 0; b + 1 < s.boundaries.size(); ++b) {
    const TimePoint t1 = s.boundaries[b];
    const TimePoint t2 = s.boundaries[b + 1];
    if (telemetry != nullptr) ++telemetry->slices;

    // Update the running set: drop finished/rejected, add newly released.
    std::erase_if(running, [&](std::size_t k) {
      return !s.alive[k] || !(requests[k].deadline >= t2);
    });
    while (next_release < s.by_release.size() &&
           requests[s.by_release[next_release]].release <= t1) {
      const std::size_t k = s.by_release[next_release++];
      if (s.alive[k] && requests[k].deadline >= t2) running.push_back(k);
    }
    if (running.empty()) continue;

    // Sort the slice's active requests by non-decreasing cost.
    std::vector<std::size_t> order = running;
    std::vector<double> costs(requests.size());
    for (std::size_t k : order) costs[k] = slot_cost(network, requests[k], cost, t2);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b2) {
      if (costs[a] != costs[b2]) return costs[a] < costs[b2];
      return requests[a].id < requests[b2].id;
    });

    // Fresh per-slice counters (no request starts or stops inside a slice,
    // so per-slice admission is exact).
    counters.reset();
    for (std::size_t k : order) {
      const Request& r = requests[k];
      const Bandwidth bw = r.min_rate();
      const bool rate_ok = approx_le(bw, r.max_rate);
      // admission_checks counts ledger probes only — a request whose min
      // rate exceeds its own cap never reaches the ledger, in either
      // engine (the incremental sweeps precompute this as feasible[]).
      if (rate_ok && telemetry != nullptr) ++telemetry->admission_checks;
      if (rate_ok && counters.fits(r.ingress, r.egress, bw)) {
        counters.allocate(r.ingress, r.egress, bw);
      } else {
        // Retro-removal: the request is discarded permanently. Earlier
        // slices already processed keep their decisions (the paper frees
        // the bookkeeping but does not revisit them).
        s.alive[k] = 0;
        if (observer != nullptr) removed_at[k] = t1;
      }
    }
  }
  narrate_preemptions(requests, s.alive, removed_at, observer);
  return assemble(requests, s.alive, observer);
}

/// The suffix filter's division-free test for CUMULATED: a member is provably
/// cheaper than lead when fl(ratio * win) < fl(fl(c_lead * kCheaperScale) * d),
/// where d = fl(t2 - rel) is the same double the exact cost
/// fl(ratio / fl(d / win)) uses. Each of the six roundings (kCheaperScale's
/// own included) errs by at most u = 2^-53 relative while its result is
/// normal, so a pass gives
///   cost < c_lead * (1 - 1e-9) * (1 + u)^4 / (1 - u)^2 < c_lead * (1 - 1e-9 + 7e-16):
/// strictly cheaper, whatever the ids. A product that overflows to +inf only
/// widens the real gap; a NaN fails the test and the exact test decides.
constexpr double kCheaperScale = 1.0 - 1e-9;

/// ratio * win, the member's side of the test, or NaN unless ratio, win and
/// the first slice length d0 lie in [1e-75, 1e75]. Then d in [d0, win] keeps
/// d / win, the cost and ratio * win normal; a product able to pass exceeds
/// 1e-150, so c_lead * kCheaperScale is normal too; and a NaN, zero or +inf
/// c_lead fails, fails or rightly passes every member.
double fast_key(double ratio, double win, double d0) {
  const auto normal = [](double x) { return x >= 1e-75 && x <= 1e75; };
  if (normal(ratio) && normal(win) && normal(d0)) return ratio * win;
  return std::numeric_limits<double>::quiet_NaN();
}

/// Per-sweep state of the incremental kernel, sized once before the sweep
/// loop and reused every slice — the sweep body is `gridbw:hot`, which bans
/// stray allocation, so every buffer has capacity for the full request set.
struct SweepArena {
  bool slice_dependent{false};   // CUMULATED: the cost moves with the slice end
  // Indexed by request k.
  std::vector<double> rate;      // min_rate, bytes/s
  std::vector<double> cost;      // static cost, or the current slice's (CUMULATED)
  // CUMULATED only: ratio/win (with the member's rel) reproduce slot_cost's
  // inputs bit-for-bit: cost = ratio / ((t2 - rel) / win), the exact
  // operation sequence slot_cost performs.
  std::vector<double> ratio;     // min_rate / bottleneck (cost numerator)
  std::vector<double> win;       // deadline - release, seconds
  std::vector<char> feasible;    // min_rate <= max_rate (approx_le)
  std::vector<std::uint32_t> iport;
  std::vector<std::uint32_t> eport;
  std::vector<double> held;      // admitted bandwidth, 0 = not admitted
  std::vector<std::size_t> pos;  // slot in the active set, kNone = not a member
  // Indexed by port: raw-double CounterLedger with the approx_le threshold
  // precomputed (cap + 1.0 + 1e-9*|cap|, the exact approx_le expression).
  std::vector<double> load_in, load_out;
  std::vector<double> limit_in, limit_out;
  // The active set, dense and unordered (swap-remove), as parallel arrays
  // for the suffix filter: request k, its release, and its filter key.
  std::vector<std::size_t> member;
  std::vector<double> member_rel, member_key;
};

/// Fills the arena's per-request and per-port constants. Kept out of the
/// hot sweep: the static costs come from slot_cost, and its bad-kind throw
/// must stay out of reach of a `gridbw:hot` body.
SweepArena make_arena(const Network& network, std::span<const Request> requests,
                      SlotCost cost, const std::vector<char>& alive) {
  const std::size_t n = requests.size();
  SweepArena a;
  a.slice_dependent = cost == SlotCost::kCumulated;
  a.rate.assign(n, 0.0);
  a.cost.assign(n, 0.0);
  a.ratio.assign(n, 0.0);
  a.win.assign(n, 0.0);
  a.feasible.assign(n, 0);
  a.iport.assign(n, 0);
  a.eport.assign(n, 0);
  a.held.assign(n, 0.0);
  a.pos.assign(n, kNone);
  for (std::size_t k = 0; k < n; ++k) {
    if (!alive[k]) continue;
    const Request& r = requests[k];
    a.rate[k] = r.min_rate().to_bytes_per_second();
    if (a.slice_dependent) {
      a.ratio[k] = r.min_rate() / network.bottleneck(r.ingress, r.egress);
      a.win[k] = (r.deadline - r.release).to_seconds();
    } else {
      a.cost[k] = slot_cost(network, r, cost, r.deadline);  // any slice end
    }
    a.feasible[k] = approx_le(r.min_rate(), r.max_rate) ? 1 : 0;
    a.iport[k] = static_cast<std::uint32_t>(r.ingress.value);
    a.eport[k] = static_cast<std::uint32_t>(r.egress.value);
  }
  a.load_in.assign(network.ingress_count(), 0.0);
  a.load_out.assign(network.egress_count(), 0.0);
  a.limit_in.resize(network.ingress_count());
  a.limit_out.resize(network.egress_count());
  for (std::size_t p = 0; p < network.ingress_count(); ++p) {
    const double cap = network.ingress_capacity(IngressId{p}).to_bytes_per_second();
    a.limit_in[p] = cap + 1.0 + 1e-9 * std::fabs(cap);
  }
  for (std::size_t p = 0; p < network.egress_count(); ++p) {
    const double cap = network.egress_capacity(EgressId{p}).to_bytes_per_second();
    a.limit_out[p] = cap + 1.0 + 1e-9 * std::fabs(cap);
  }
  a.member.reserve(n);
  a.member_rel.reserve(n);
  a.member_key.reserve(n);
  return a;
}

/// The incremental slice sweep, one kernel for all three costs. Two
/// invariants carry it:
///
///  * every member of the active set is currently admitted (a member that
///    fails admission is retro-removed on the spot), so the set is jointly
///    feasible;
///  * a jointly feasible set re-admits fully under ANY greedy order, and
///    greedy admission is prefix-deterministic, so a slice costs only what
///    changed.
///
/// Per slice:
///
///  * departures pop off a deadline heap and leave the dense active set by
///    swap-remove, as does a retro-removed request (it holds nothing); a
///    pure-departure slice stops there;
///  * newcomers are probed, cheapest first, against the *total* port loads.
///    Each one that fits keeps the set jointly feasible. If all fit, the
///    canonical greedy pass would admit everyone: done. An infeasible-rate
///    newcomer never allocates, so it is settled without a probe;
///  * otherwise the first newcomer that failed is the `lead`. Everything
///    cheaper is admitted and stands; the members at and after lead in
///    (cost, id) order are dropped and replayed in that order. One pass over
///    the dense arrays finds that suffix: a key test proves most members
///    cheaper, and only the rest get the exact (cost, id) comparison;
///  * admission runs on raw double port loads against precomputed approx_le
///    thresholds.
///
/// The only cost-specific step is how a member's cost and filter key are
/// formed. A static cost (MINBW, MINVOL) is fixed in the arena and is its own
/// key: cost < c_lead is exact, and equal costs go to the (cost, id)
/// comparison. CUMULATED's cost is recomputed at the slice end, and its key
/// is the division-free kCheaperScale test above.
// gridbw:hot
ScheduleResult sweep_suffix(std::span<const Request> requests, SweepSetup& s,
                            SweepArena& a, SlotsTelemetry* telemetry,
                            obs::Observer* observer) {
  const std::size_t n = requests.size();

  // Mirrors CounterLedger::reclaim's clamp: FP noise may dip a counter a
  // hair below zero; anything past the admission tolerance is a bug.
  const auto drop_held = [&a](std::size_t k) {
    const double held = a.held[k];
    if (held == 0.0) return;
    a.held[k] = 0.0;
    const std::uint32_t ip = a.iport[k];
    const std::uint32_t ep = a.eport[k];
    a.load_in[ip] -= held;
    a.load_out[ep] -= held;
    assert(a.load_in[ip] >= -1.0 && a.load_out[ep] >= -1.0);
    if (a.load_in[ip] < 0.0) a.load_in[ip] = 0.0;
    if (a.load_out[ep] < 0.0) a.load_out[ep] = 0.0;
  };
  // The greedy admission step. admission_checks counts ledger probes only
  // (same contract as the rebuild engine).
  const auto try_take = [&a, telemetry](std::size_t k) {
    if (telemetry != nullptr) ++telemetry->admission_checks;
    const double bw = a.rate[k];
    const std::uint32_t ip = a.iport[k];
    const std::uint32_t ep = a.eport[k];
    if (!(a.load_in[ip] + bw <= a.limit_in[ip] && a.load_out[ep] + bw <= a.limit_out[ep])) {
      return false;
    }
    a.load_in[ip] += bw;
    a.load_out[ep] += bw;
    a.held[k] = bw;
    return true;
  };
  const auto leave = [&a](std::size_t k) {
    const std::size_t i = a.pos[k];
    a.member[i] = a.member.back();
    a.member_rel[i] = a.member_rel.back();
    a.member_key[i] = a.member_key.back();
    a.pos[a.member[i]] = i;
    a.pos[k] = kNone;
    a.member.pop_back();
    a.member_rel.pop_back();
    a.member_key.pop_back();
  };
  const auto by_cost = [&](std::size_t x, std::size_t y) {
    if (a.cost[x] != a.cost[y]) return a.cost[x] < a.cost[y];
    return requests[x].id < requests[y].id;
  };

  std::vector<TimePoint> removed_at = make_removal_clock(requests, observer);
  // Retro-removal is permanent; the request holds nothing when it leaves.
  const auto retro_remove = [&](std::size_t k, TimePoint t1) {
    s.alive[k] = 0;
    leave(k);
    if (observer != nullptr) removed_at[k] = t1;
  };
  std::vector<std::size_t> newcomers;
  newcomers.reserve(n);
  std::vector<std::size_t> suffix;  // replayed members, sorted by (cost, id)
  suffix.reserve(n);
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>, std::greater<>>
      departures;

  std::size_t next_release = 0;
  for (std::size_t b = 0; b + 1 < s.boundaries.size(); ++b) {
    const TimePoint t1 = s.boundaries[b];
    const double t2s = s.boundaries[b + 1].to_seconds();
    if (telemetry != nullptr) ++telemetry->slices;

    newcomers.clear();
    while (next_release < s.by_release.size() &&
           requests[s.by_release[next_release]].release <= t1) {
      const std::size_t k = s.by_release[next_release++];
      if (s.alive[k] && requests[k].deadline.to_seconds() >= t2s) newcomers.push_back(k);
    }

    const bool departures_due = !departures.empty() && departures.top().first < t2s;
    if (newcomers.empty() && !departures_due) {
      // No membership change: the previous slice's decisions stand.
      if (telemetry != nullptr) ++telemetry->skipped_slices;
      continue;
    }
    while (!departures.empty() && departures.top().first < t2s) {
      const std::size_t k = departures.top().second;
      departures.pop();
      if (a.pos[k] == kNone) continue;  // retro-removed: already left
      drop_held(k);
      leave(k);
    }

    if (newcomers.empty()) continue;  // pure departures: decisions stand

    for (const std::size_t k : newcomers) {
      departures.emplace(requests[k].deadline.to_seconds(), k);
      const double rel = requests[k].release.to_seconds();
      double key = a.cost[k];
      if (a.slice_dependent) {
        a.cost[k] = a.ratio[k] / ((t2s - rel) / a.win[k]);
        key = fast_key(a.ratio[k], a.win[k], t2s - rel);
      }
      a.pos[k] = a.member.size();
      a.member.push_back(k);
      a.member_rel.push_back(rel);
      a.member_key.push_back(key);
    }
    std::sort(newcomers.begin(), newcomers.end(), by_cost);

    // Fit the total, cheapest newcomer first. The first that does not fit
    // is the lead; if none fails, no decision moves and no replay is needed.
    std::size_t lead = kNone;
    for (const std::size_t k : newcomers) {
      if (!a.feasible[k]) {
        retro_remove(k, t1);  // never allocates: settled without a probe
        continue;
      }
      if (!try_take(k)) {
        lead = k;
        break;
      }
    }
    if (lead == kNone) continue;

    // Suffix filter: the members at and after lead in (cost, id) order.
    const double c_lead = a.cost[lead];
    const double bound = c_lead * kCheaperScale;
    suffix.clear();
    for (std::size_t i = 0; i < a.member.size(); ++i) {
      if (a.slice_dependent) {
        if (a.member_key[i] < bound * (t2s - a.member_rel[i])) continue;
        const std::size_t k = a.member[i];
        a.cost[k] = a.ratio[k] / ((t2s - a.member_rel[i]) / a.win[k]);
      } else if (a.member_key[i] < c_lead) {
        continue;
      }
      const std::size_t k = a.member[i];
      if (!by_cost(k, lead)) suffix.push_back(k);
    }
    std::sort(suffix.begin(), suffix.end(), by_cost);

    for (const std::size_t k : suffix) drop_held(k);
    for (const std::size_t k : suffix) {
      if (a.feasible[k] && try_take(k)) continue;
      retro_remove(k, t1);
    }
  }
  narrate_preemptions(requests, s.alive, removed_at, observer);
  return assemble(requests, s.alive, observer);
}

}  // namespace

std::string to_string(SlotCost cost) {
  switch (cost) {
    case SlotCost::kCumulated: return "CUMULATED-SLOTS";
    case SlotCost::kMinBandwidth: return "MINBW-SLOTS";
    case SlotCost::kMinVolume: return "MINVOL-SLOTS";
  }
  return "unknown";
}

std::string to_string(SlotsEngine engine) {
  switch (engine) {
    case SlotsEngine::kRebuild: return "rebuild";
    case SlotsEngine::kIncremental: return "incremental";
  }
  return "unknown";
}

double slot_cost(const Network& network, const Request& r, SlotCost cost, TimePoint t2) {
  switch (cost) {
    case SlotCost::kCumulated: {
      // priority in (0, 1]: the fraction of the request's window that will
      // have been covered once this slice completes. Longer-served (and
      // shorter) requests get smaller cost, hence higher priority.
      const double priority = (t2 - r.release) / (r.deadline - r.release);
      const Bandwidth b_min = network.bottleneck(r.ingress, r.egress);
      return (r.min_rate() / b_min) / priority;
    }
    case SlotCost::kMinBandwidth:
      return r.min_rate().to_bytes_per_second();
    case SlotCost::kMinVolume:
      return r.volume.to_bytes();
  }
  throw std::logic_error{"slot_cost: bad cost kind"};
}

ScheduleResult schedule_rigid_slots(const Network& network,
                                    std::span<const Request> requests, SlotCost cost,
                                    obs::Observer* observer) {
  return schedule_rigid_slots(network, requests, cost, SlotsEngine::kIncremental,
                              nullptr, observer);
}

ScheduleResult schedule_rigid_slots(const Network& network,
                                    std::span<const Request> requests, SlotCost cost,
                                    SlotsEngine engine, SlotsTelemetry* telemetry,
                                    obs::Observer* observer) {
  if (observer != nullptr) {
    for (const Request& r : requests) obs::note_submitted(observer, r.id, r.release);
  }
  SweepSetup setup = prepare_sweep(requests);
  switch (engine) {
    case SlotsEngine::kRebuild:
      return sweep_rebuild(network, requests, cost, setup, telemetry, observer);
    case SlotsEngine::kIncremental: {
      SweepArena arena = make_arena(network, requests, cost, setup.alive);
      return sweep_suffix(requests, setup, arena, telemetry, observer);
    }
  }
  throw std::logic_error{"schedule_rigid_slots: bad engine"};
}

}  // namespace gridbw::heuristics
