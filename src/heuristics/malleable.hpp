// gridbw/heuristics/malleable.hpp
//
// Malleable GREEDY / WINDOW scheduler family (ISSUE 9 tentpole): the
// Chen & Primet flexible-reservation idea grafted onto the paper's
// admission engines. Admission is UNCHANGED — a request is accepted iff its
// policy rate g(r) fits the guarantee book (the paper's ali/ale counters),
// so every admitted flow keeps a hard constant-rate guarantee. What changes
// is execution: between admission events the engine water-fills the ports'
// residual capacity across the live flows, so each flow actually runs at
//
//     g(r) <= rate(t) <= MaxRate(r)
//
// with the surplus shared max-min fairly. Rates step at event instants
// (a departure frees capacity -> survivors reshape upward; a newcomer
// claims its guarantee -> survivors fall back toward g(r), never below),
// producing the piecewise-constant RateProfiles of core/rate_profile.hpp.
// Because flows run at or above their guarantee they finish at or before
// their constant-rate promise — reshaping is revocation-safe, and the
// accept-rate gain comes entirely from guarantees being reclaimed earlier.
//
// With `reshape` disabled the fluid machinery degenerates to constant
// rates and the engines reproduce schedule_flexible_greedy /
// schedule_flexible_window byte-for-byte (traces included) — the
// differential contract tests/malleable_test.cpp pins.

#pragma once

#include <span>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/bandwidth_policy.hpp"
#include "heuristics/flexible_window.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

struct MalleableOptions {
  /// The guarantee each admitted flow holds (the admission rate).
  BandwidthPolicy policy{BandwidthPolicy::min_rate()};

  /// Water-fill surplus capacity across live flows. false = every flow runs
  /// at exactly its guarantee: constant rates, byte-identical to the
  /// constant-rate engines.
  bool reshape{true};

  /// WINDOW variant only: interval length and candidate order (the same
  /// knobs as WindowOptions, drained by the same heuristics/window_select).
  Duration step{Duration::seconds(400)};
  CandidateOrder order{CandidateOrder::kMinCost};
  double hotspot_weight{0.0};
};

/// Malleable GREEDY: arrival-ordered online admission (Algorithm 2) over
/// the guarantee book, with water-filled execution rates.
[[nodiscard]] ScheduleResult schedule_malleable_greedy(
    const Network& network, std::span<const Request> requests,
    const MalleableOptions& options, obs::Observer* observer = nullptr);

/// Malleable WINDOW: interval-batched admission (Algorithm 3) over the
/// guarantee book, with water-filled execution rates.
[[nodiscard]] ScheduleResult schedule_malleable_window(
    const Network& network, std::span<const Request> requests,
    const MalleableOptions& options, obs::Observer* observer = nullptr);

}  // namespace gridbw::heuristics
