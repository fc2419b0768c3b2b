// gridbw/heuristics/registry.hpp
//
// Uniform, named handles on every admission algorithm in the library, so
// benches, examples, and comparison tests can iterate "all heuristics"
// without knowing each one's options struct.

#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/bandwidth_policy.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/malleable.hpp"
#include "heuristics/rigid_slots.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

struct NamedScheduler {
  using Run = std::function<ScheduleResult(const Network&, std::span<const Request>,
                                           obs::Observer*)>;

  NamedScheduler() = default;
  NamedScheduler(std::string scheduler_name, Run fn)
      : name{std::move(scheduler_name)}, run_fn{std::move(fn)} {}

  [[nodiscard]] ScheduleResult run(const Network& network,
                                   std::span<const Request> requests,
                                   obs::Observer* observer = nullptr) const {
    return run_fn(network, requests, observer);
  }

  std::string name;
  Run run_fn;
};

/// FCFS + the three *-SLOTS variants (the Fig. 4 line-up).
[[nodiscard]] std::vector<NamedScheduler> rigid_schedulers();

/// Rigid FCFS ("FCFS").
[[nodiscard]] NamedScheduler make_fcfs();

/// A *-SLOTS variant, named by its cost ("CUMULATED-SLOTS", ...).
[[nodiscard]] NamedScheduler make_slots(SlotCost cost);

/// BOOK-AHEAD with the given options ("bookahead100x4/f=1.00", ...).
[[nodiscard]] NamedScheduler make_bookahead(BookAheadOptions options);

/// GREEDY with the given bandwidth policy ("greedy/minrate", "greedy/f=0.80").
[[nodiscard]] NamedScheduler make_greedy(BandwidthPolicy policy);

/// WINDOW with the given options ("window400/f=1.00", ...).
[[nodiscard]] NamedScheduler make_window(WindowOptions options);

/// Malleable GREEDY ("mgreedy/minrate", ...); reshape off appends "-rigid".
[[nodiscard]] NamedScheduler make_malleable_greedy(MalleableOptions options);

/// Malleable WINDOW ("mwindow400/minrate", ...); reshape off appends "-rigid".
[[nodiscard]] NamedScheduler make_malleable_window(MalleableOptions options);

}  // namespace gridbw::heuristics
