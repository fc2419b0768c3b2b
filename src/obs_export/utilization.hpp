// gridbw/obs_export/utilization.hpp
//
// Per-port utilization export built on TimelineProfile: replay a finished
// schedule into exact port-load profiles (the validator's construction) and
// export, for every ingress and egress port,
//
//   * the time series of load vs capacity (one sample per breakpoint,
//     clamped to the reporting window),
//   * the peak load and peak/capacity ratio over the window,
//   * the carried volume (integral of load) and mean utilization ratio.
//
// Writers emit CSV (flat rows, summary + series distinguished by the `row`
// column) and JSON (one object per port with inline series). All numbers
// are shortest-round-trip doubles, so exports are byte-stable across runs.

#pragma once

#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "util/quantity.hpp"

namespace gridbw::obs {

/// One breakpoint of a port's load profile.
struct UtilSample {
  TimePoint at;
  Bandwidth load;
};

struct PortUtilization {
  std::size_t port{0};
  bool is_ingress{true};
  Bandwidth capacity;
  /// Peak load over the reporting window.
  Bandwidth peak;
  /// peak / capacity.
  double peak_ratio{0.0};
  /// Integral of load over the window: the volume the port carried.
  Volume carried;
  /// carried / (capacity * window length).
  double mean_ratio{0.0};
  /// Load samples: the value at window start, then one per breakpoint
  /// inside the window (right-continuous, constant until the next sample).
  std::vector<UtilSample> series;
};

struct UtilizationReport {
  TimePoint window_start;
  TimePoint window_end;
  std::vector<PortUtilization> ingress;
  std::vector<PortUtilization> egress;

  /// Volume carried across all ingress ports (== egress side for a
  /// feasible schedule restricted to the window).
  [[nodiscard]] Volume total_carried() const;

  /// CSV header matching `write_csv` rows.
  static void write_csv_header(std::ostream& out);
  /// Flat CSV rows: one `summary` row per port, then its `sample` rows.
  /// `label` fills the first column (scheduler name; may be empty).
  void write_csv(std::ostream& out, std::string_view label) const;
  /// One JSON object: window, per-port summaries and series.
  void write_json(std::ostream& out, std::string_view label) const;
};

/// Replays `schedule` (against `requests`) into per-port load profiles and
/// summarizes utilization over [window_start, window_end).
[[nodiscard]] UtilizationReport utilization_report(const Network& network,
                                                   std::span<const Request> requests,
                                                   const Schedule& schedule,
                                                   TimePoint window_start,
                                                   TimePoint window_end);

}  // namespace gridbw::obs
