// gridbw/heuristics/rigid_slots.hpp
//
// Time-window decomposition heuristics for rigid requests (§4.2,
// Algorithm 1). The timeline is sliced at every request start/finish time so
// that no request starts or stops inside a slice. Slices are processed in
// order; within each slice the active requests are sorted by a *cost*
// factor and admitted greedily against per-slice port counters. A request
// that fails in any slice of its window is retro-removed from all earlier
// slices and permanently discarded.
//
// Three cost factors from the paper:
//
//   CUMULATED-SLOTS:  cost = bw(r) / (b_min * priority(r, slice))
//                     priority(r, [t_i, t_{i+1}]) = (t_{i+1} - t_s) / (t_f - t_s)
//                     b_min = min(B_in(ingress(r)), B_out(egress(r)))
//   MINBW-SLOTS:      cost = bw(r)
//   MINVOL-SLOTS:     cost = vol(r)

#pragma once

#include <span>
#include <string>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

enum class SlotCost {
  kCumulated,     // CUMULATED-SLOTS
  kMinBandwidth,  // MINBW-SLOTS
  kMinVolume,     // MINVOL-SLOTS
};

[[nodiscard]] std::string to_string(SlotCost cost);

/// Which admission engine drives the slice sweep. Both produce identical
/// schedules (enforced by the differential tests in
/// incremental_engine_test.cpp): kRebuild is the paper-literal reference
/// that re-sorts the active set and rebuilds fresh counters every slice;
/// kIncremental, one kernel for all three costs, keeps the active set and
/// the per-port counters alive across slices, applies release/finish deltas
/// at boundaries, admits newcomers that fit on top of the total load, and
/// otherwise replays only the members at and after the cheapest newcomer in
/// (cost, id) order.
enum class SlotsEngine {
  kRebuild,      // reference: fresh CounterLedger + full sort per slice
  kIncremental,  // default: delta-maintained counters + suffix replay
};

[[nodiscard]] std::string to_string(SlotsEngine engine);

/// Lightweight instrumentation of one sweep, surfaced by the benches'
/// timing tables (slices/sec).
struct SlotsTelemetry {
  std::size_t slices{0};            ///< slice boundaries visited
  std::size_t skipped_slices{0};    ///< slices with no admission-relevant change
  std::size_t admission_checks{0};  ///< fits/allocate decisions evaluated
};

/// The cost factor of request `r` on the slice ending at `t2` under `cost`
/// (only CUMULATED's depends on it). Exposed for tests and the
/// microbenchmarks.
[[nodiscard]] double slot_cost(const Network& network, const Request& r, SlotCost cost,
                               TimePoint t2);

/// Runs the slice sweep with the default (incremental) engine.
[[nodiscard]] ScheduleResult schedule_rigid_slots(const Network& network,
                                                  std::span<const Request> requests,
                                                  SlotCost cost,
                                                  obs::Observer* observer = nullptr);

[[nodiscard]] ScheduleResult schedule_rigid_slots(const Network& network,
                                                  std::span<const Request> requests,
                                                  SlotCost cost, SlotsEngine engine,
                                                  SlotsTelemetry* telemetry = nullptr,
                                                  obs::Observer* observer = nullptr);

}  // namespace gridbw::heuristics
