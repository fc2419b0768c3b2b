// gridbw/sim/simulator.hpp
//
// A minimal discrete-event simulator: a clock plus an EventQueue. Handlers
// scheduled with `at` / `after` run in time order (FIFO among ties) and may
// schedule further events. The control-plane substrate
// (control/control_plane.cpp) runs on this kernel; the online heuristics and
// the max-min fluid baseline step their own event loops.

#pragma once

#include <cstddef>
#include <functional>

#include "sim/event_queue.hpp"
#include "util/quantity.hpp"

namespace gridbw::sim {

class Simulator {
 public:
  Simulator() = default;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }
  [[nodiscard]] bool has_pending() const { return !queue_.empty(); }

  /// Schedules `action` at absolute time `t`. Scheduling in the past (before
  /// `now()`) is an error.
  EventId at(TimePoint t, std::function<void()> action);

  /// Schedules `action` `delay` after the current time; delay must be >= 0.
  EventId after(Duration delay, std::function<void()> action);

  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with time <= `horizon`, then stops; the clock is advanced
  /// to `horizon` if the queue drained earlier (or holds later events only).
  std::size_t run_until(TimePoint horizon);

  /// Executes exactly one event if any is pending; returns whether one ran.
  bool step();

 private:
  EventQueue queue_;
  TimePoint now_{TimePoint::origin()};
  std::size_t executed_{0};
};

}  // namespace gridbw::sim
