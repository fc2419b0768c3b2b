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
  std::sort(s.by_release.begin(), s.by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (requests[a].release != requests[b].release) {
                return requests[a].release < requests[b].release;
              }
              return requests[a].id < requests[b].id;
            });
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
    for (std::size_t k : order) costs[k] = slot_cost(network, requests[k], cost, t1, t2);
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

/// Incremental engine for the static-cost kernels (MINBW/MINVOL — any cost
/// whose factor does not depend on the slice). The sorted active set and the
/// AdmissionLedger survive across slices; boundaries apply finish and
/// retro-removal deltas, and greedy admission is replayed only from the
/// first position whose decision inputs changed. Two invariants carry the
/// engine (shared with sweep_cumulated below):
///
///  * after compaction, every member of `order` is currently admitted (a
///    member that failed admission was retro-removed on the spot), so the
///    active set is jointly feasible;
///  * a jointly feasible set re-admits fully under ANY greedy order, so
///    pure departures never need a replay — dropping a member only frees
///    capacity — and a newcomer slice replays only from the first
///    newcomer's position (the prefix is all-admitted and stands).
ScheduleResult sweep_incremental(const Network& network,
                                 std::span<const Request> requests, SlotCost cost,
                                 SweepSetup& s, SlotsTelemetry* telemetry,
                                 obs::Observer* observer) {
  const std::size_t n = requests.size();

  // Per-request constants (static cost: computed once, any slice bounds do).
  std::vector<Bandwidth> rates(n, Bandwidth::zero());
  std::vector<char> feasible(n, 0);
  std::vector<double> costs(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    if (!s.alive[k]) continue;
    const Request& r = requests[k];
    rates[k] = r.min_rate();
    feasible[k] = approx_le(rates[k], r.max_rate) ? 1 : 0;
    costs[k] = slot_cost(network, r, cost, r.release, r.deadline);
  }
  const auto by_cost = [&](std::size_t a, std::size_t b) {
    if (costs[a] != costs[b]) return costs[a] < costs[b];
    return requests[a].id < requests[b].id;
  };

  AdmissionLedger book{network, n};
  book.attach_observer(observer);  // drift-anomaly hook only
  std::vector<TimePoint> removed_at = make_removal_clock(requests, observer);
  std::vector<std::size_t> order;  // active set, sorted by (cost, id)
  order.reserve(n);
  std::vector<std::size_t> newcomers;  // reusable per-slice scratch
  // Earliest active deadline, to detect departures in O(1). Entries are
  // lazy: a dead member's entry only forces a (correct) non-skipped slice.
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>, std::greater<>>
      departures;

  std::size_t next_release = 0;
  bool dirty = false;  // a request was retro-removed during the last replay

  for (std::size_t b = 0; b + 1 < s.boundaries.size(); ++b) {
    const TimePoint t1 = s.boundaries[b];
    const TimePoint t2 = s.boundaries[b + 1];
    if (telemetry != nullptr) ++telemetry->slices;

    // Consume arrivals due by t1.
    newcomers.clear();
    while (next_release < s.by_release.size() &&
           requests[s.by_release[next_release]].release <= t1) {
      const std::size_t k = s.by_release[next_release++];
      if (s.alive[k] && requests[k].deadline >= t2) newcomers.push_back(k);
    }

    const bool departures_due =
        !departures.empty() && departures.top().first < t2.to_seconds();
    if (newcomers.empty() && !departures_due && !dirty) {
      // No membership change: the previous slice's decisions stand.
      if (telemetry != nullptr) ++telemetry->skipped_slices;
      continue;
    }
    dirty = false;
    while (!departures.empty() && departures.top().first < t2.to_seconds()) {
      departures.pop();
    }

    // Compact the active set in place, applying departure/retro-removal
    // deltas. Dropping a member only frees capacity, and every surviving
    // member is currently admitted (jointly feasible), so compaction alone
    // never forces a replay — only newcomers can change later decisions.
    std::size_t write = 0;
    for (std::size_t read = 0; read < order.size(); ++read) {
      const std::size_t k = order[read];
      if (!s.alive[k] || !(requests[k].deadline >= t2)) {
        book.drop(k, requests[k].ingress, requests[k].egress);
        continue;
      }
      order[write++] = k;
    }
    order.resize(write);

    if (newcomers.empty()) continue;  // pure departures: decisions stand

    for (std::size_t k : newcomers) {
      departures.emplace(requests[k].deadline.to_seconds(), k);
    }
    std::sort(newcomers.begin(), newcomers.end(), by_cost);
    const std::size_t merged_from = order.size();
    order.insert(order.end(), newcomers.begin(), newcomers.end());
    std::inplace_merge(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(merged_from),
                       order.end(), by_cost);

    // Static-cost fast path (ISSUE 7 satellite, DESIGN.md §5h). Every order
    // member is currently admitted, so the active set is jointly feasible.
    // Probe each newcomer, cheapest first, against the *total* current load:
    //
    //  * fits the total → {members} ∪ {newcomer} is jointly feasible, and a
    //    jointly feasible set re-admits fully under any greedy order — the
    //    canonical suffix replay would admit the newcomer and re-admit every
    //    old member unchanged. One ledger probe replaces the O(suffix)
    //    drop-and-replay.
    //  * fails the total → the canonical decision is made against the order
    //    *prefix* (members cheaper than the newcomer). Reconstruct the
    //    prefix load on the newcomer's two ports by subtracting the suffix
    //    members' holdings (the replay's drop loop, restricted to two ports,
    //    clamp included). Fails the prefix too → retro-removed on the spot;
    //    it never allocates, so every other decision stands and no ledger
    //    probe is spent. Fits the prefix but not the total → admitting it
    //    must displace someone: fall back to the full suffix replay below.
    std::size_t replay_from = kNone;
    for (const std::size_t k : newcomers) {
      const Request& r = requests[k];
      if (!feasible[k]) {
        s.alive[k] = 0;  // never allocates: no other decision can change
        dirty = true;
        if (observer != nullptr) removed_at[k] = t1;
        continue;
      }
      // admission_checks counts ledger probes only (same contract as the
      // rebuild engine): infeasible-rate requests never reach the book.
      if (telemetry != nullptr) ++telemetry->admission_checks;
      if (book.try_admit(k, r.ingress, r.egress, rates[k])) continue;
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(order.begin(), order.end(), k, by_cost) -
          order.begin());
      double in_load =
          book.counters().allocated_ingress(r.ingress).to_bytes_per_second();
      double out_load =
          book.counters().allocated_egress(r.egress).to_bytes_per_second();
      for (std::size_t idx = pos + 1; idx < order.size(); ++idx) {
        const std::size_t m = order[idx];
        const Bandwidth held = book.admitted_bw(m);
        if (!held.is_positive()) continue;
        if (requests[m].ingress == r.ingress) {
          in_load -= held.to_bytes_per_second();
          if (in_load < 0.0) in_load = 0.0;  // mirrors reclaim's clamp
        }
        if (requests[m].egress == r.egress) {
          out_load -= held.to_bytes_per_second();
          if (out_load < 0.0) out_load = 0.0;
        }
      }
      const bool prefix_fits =
          approx_le(Bandwidth::bytes_per_second(in_load) + rates[k],
                    network.ingress_capacity(r.ingress)) &&
          approx_le(Bandwidth::bytes_per_second(out_load) + rates[k],
                    network.egress_capacity(r.egress));
      if (prefix_fits) {
        replay_from = pos;  // true displacement: replay the suffix
        break;
      }
      s.alive[k] = 0;  // retro-removal, permanent
      dirty = true;
      if (observer != nullptr) removed_at[k] = t1;
    }
    if (replay_from == kNone) continue;

    // Displacement replay: release the suffix's held allocations, then
    // re-run greedy admission in cost order. The prefix's decisions are
    // untouched (greedy admission depends only on the order prefix); the
    // newcomers the fast path already settled all sit strictly before
    // `replay_from` (they are cheaper than the displacing newcomer).
    for (std::size_t idx = replay_from; idx < order.size(); ++idx) {
      const std::size_t k = order[idx];
      book.drop(k, requests[k].ingress, requests[k].egress);
    }
    for (std::size_t idx = replay_from; idx < order.size(); ++idx) {
      const std::size_t k = order[idx];
      const Request& r = requests[k];
      if (feasible[k]) {
        if (telemetry != nullptr) ++telemetry->admission_checks;
        if (book.try_admit(k, r.ingress, r.egress, rates[k])) continue;
      }
      s.alive[k] = 0;  // retro-removal, permanent
      dirty = true;
      if (observer != nullptr) removed_at[k] = t1;
    }
  }
  narrate_preemptions(requests, s.alive, removed_at, observer);
  return assemble(requests, s.alive, observer);
}

/// The suffix filter's division-free test: a member is provably cheaper than
/// lead when fl(ratio * win) < fl(fl(c_lead * kCheaperScale) * d), where
/// d = fl(t2 - rel) is the same double the exact cost fl(ratio / fl(d / win))
/// uses. Each of the six roundings (kCheaperScale's own included) errs by at
/// most u = 2^-53 relative while its result is normal, so a pass gives
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

/// Per-sweep state for the CUMULATED kernel, sized once before the sweep
/// loop and reused every slice — the sweep body is `gridbw:hot`, which bans
/// stray allocation, so every buffer has capacity for the full request set.
struct CumulatedArena {
  // Indexed by request k. ratio/win (with the member's rel) reproduce
  // slot_cost's inputs bit-for-bit: cost = ratio / ((t2 - rel) / win), the
  // exact operation sequence slot_cost performs.
  std::vector<double> rate;      // min_rate, bytes/s
  std::vector<double> ratio;     // min_rate / bottleneck (cost numerator)
  std::vector<double> win;       // deadline - release, seconds
  std::vector<double> cost;      // current-slice cost (comparator input)
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
  // for the suffix filter: request k, its release, and its fast_key.
  std::vector<std::size_t> member;
  std::vector<double> member_rel, member_key;
};

/// CUMULATED-SLOTS incremental kernel. The cost is slice-dependent, but the
/// two sweep invariants (see sweep_incremental) hold, so a slice costs what
/// changed:
///
///  * departures pop off a deadline heap and leave the dense active set by
///    swap-remove, as does a retro-removed request (it holds nothing); a
///    pure-departure slice stops there;
///  * a newcomer slice replays only the members at and after its cheapest
///    newcomer (`lead`) in (cost, id) order: the cheaper ones are admitted
///    and stand. One pass finds the suffix: a multiply-and-compare
///    (kCheaperScale) proves most members cheaper, and only the rest get the
///    exact cost and comparison;
///  * admission runs on raw double port loads against precomputed approx_le
///    thresholds.
// gridbw:hot
ScheduleResult sweep_cumulated(const Network& network,
                               std::span<const Request> requests, SweepSetup& s,
                               SlotsTelemetry* telemetry, obs::Observer* observer) {
  const std::size_t n = requests.size();

  CumulatedArena a;
  a.rate.assign(n, 0.0);
  a.ratio.assign(n, 0.0);
  a.win.assign(n, 0.0);
  a.cost.assign(n, 0.0);
  a.feasible.assign(n, 0);
  a.iport.assign(n, 0);
  a.eport.assign(n, 0);
  a.held.assign(n, 0.0);
  a.pos.assign(n, kNone);
  for (std::size_t k = 0; k < n; ++k) {
    if (!s.alive[k]) continue;
    const Request& r = requests[k];
    a.rate[k] = r.min_rate().to_bytes_per_second();
    a.ratio[k] = r.min_rate() / network.bottleneck(r.ingress, r.egress);
    a.win[k] = (r.deadline - r.release).to_seconds();
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
  std::vector<std::size_t> newcomers;
  newcomers.reserve(n);
  std::vector<std::size_t> suffix;  // replayed members, sorted by (cost, id)
  suffix.reserve(n);
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>, std::greater<>>
      departures;

  std::size_t next_release = 0;
  bool dirty = false;  // a request was retro-removed during the last replay

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
    if (newcomers.empty() && !departures_due && !dirty) {
      if (telemetry != nullptr) ++telemetry->skipped_slices;
      continue;
    }
    dirty = false;
    while (!departures.empty() && departures.top().first < t2s) {
      const std::size_t k = departures.top().second;
      departures.pop();
      if (a.pos[k] == kNone) continue;  // retro-removed: already left
      drop_held(k);
      leave(k);
    }

    if (newcomers.empty()) continue;  // pure departures: decisions stand

    std::size_t lead = newcomers.front();
    for (const std::size_t k : newcomers) {
      departures.emplace(requests[k].deadline.to_seconds(), k);
      const double rel = requests[k].release.to_seconds();
      a.pos[k] = a.member.size();
      a.member.push_back(k);
      a.member_rel.push_back(rel);
      a.member_key.push_back(fast_key(a.ratio[k], a.win[k], t2s - rel));
      a.cost[k] = a.ratio[k] / ((t2s - rel) / a.win[k]);
      if (by_cost(k, lead)) lead = k;
    }

    // Suffix filter: the members at and after lead in (cost, id) order.
    const double bound = a.cost[lead] * kCheaperScale;
    suffix.clear();
    for (std::size_t i = 0; i < a.member.size(); ++i) {
      if (a.member_key[i] < bound * (t2s - a.member_rel[i])) continue;
      const std::size_t k = a.member[i];
      a.cost[k] = a.ratio[k] / ((t2s - a.member_rel[i]) / a.win[k]);
      if (!by_cost(k, lead)) suffix.push_back(k);
    }
    std::sort(suffix.begin(), suffix.end(), by_cost);

    for (const std::size_t k : suffix) drop_held(k);
    for (const std::size_t k : suffix) {
      if (a.feasible[k]) {
        // admission_checks counts ledger probes only (same contract as the
        // other engines).
        if (telemetry != nullptr) ++telemetry->admission_checks;
        const double bw = a.rate[k];
        const std::uint32_t ip = a.iport[k];
        const std::uint32_t ep = a.eport[k];
        if (a.load_in[ip] + bw <= a.limit_in[ip] &&
            a.load_out[ep] + bw <= a.limit_out[ep]) {
          a.load_in[ip] += bw;
          a.load_out[ep] += bw;
          a.held[k] = bw;
          continue;
        }
      }
      s.alive[k] = 0;  // retro-removal, permanent
      dirty = true;
      leave(k);
      if (observer != nullptr) removed_at[k] = t1;
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

double slot_cost(const Network& network, const Request& r, SlotCost cost, TimePoint t1,
                 TimePoint t2) {
  (void)t1;  // the priority factor only involves the slice's upper bound
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
    case SlotsEngine::kIncremental:
      // CUMULATED's slice-dependent cost gets its own kernel; the
      // static-cost kernels share the ordered-merge engine.
      if (cost == SlotCost::kCumulated) {
        return sweep_cumulated(network, requests, setup, telemetry, observer);
      }
      return sweep_incremental(network, requests, cost, setup, telemetry, observer);
  }
  throw std::logic_error{"schedule_rigid_slots: bad engine"};
}

}  // namespace gridbw::heuristics
