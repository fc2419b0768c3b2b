// gridbw/dataplane/replay.hpp
//
// Data-plane replay: executes a finished schedule as actual traffic and
// checks that the control plane's promises survive contact with senders.
//
// Two replay modes:
//
//  * replay_policed — every flow is policed by a token bucket sized from
//    its reservation (§5.4). Conforming senders deliver exactly their
//    volume by the promised completion time; misbehaving senders (offering
//    `misbehave_factor` times their reservation) have the excess dropped at
//    the access point and still finish on the reserved schedule. Port
//    aggregates can never exceed what admission granted.
//
//  * replay_unpoliced — no enforcement: all senders' *offered* rates enter
//    a max-min fair fluid sharing of the ports (baseline::run_fluid, with no
//    deadlines; the §5.4 failure scenario).
//    Misbehaving senders steal bandwidth, so conforming flows finish late —
//    the report counts broken promises and measures the worst port
//    overrun relative to the admitted allocation.
//
// Together with the validator this closes the loop: validate_schedule
// proves the *plan* feasible; replay shows the *execution* holds iff the
// §5.4 enforcement mechanisms are in place.

#pragma once

#include <span>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"

namespace gridbw::dataplane {

struct ReplayOptions {
  /// Requests whose senders offer misbehave_factor x their reservation.
  std::vector<RequestId> misbehaving;
  /// Offered-rate multiplier for misbehaving senders (finite, > 1).
  double misbehave_factor{2.0};
};

struct TransferRecord {
  RequestId id{0};
  /// The completion instant the admission decision promised (tau(r)).
  TimePoint promised_finish;
  /// When the transfer actually delivered its full volume.
  TimePoint actual_finish;
  /// Bytes discarded by the policer (0 when unpoliced or conforming).
  Volume dropped;
  bool misbehaving{false};

  /// Finished later than promised (beyond tolerance)?
  [[nodiscard]] bool late() const {
    return actual_finish.to_seconds() > promised_finish.to_seconds() + 1e-6;
  }
};

struct ReplayReport {
  std::vector<TransferRecord> transfers;
  /// Worst observed port load relative to its capacity (<= ~1 when the
  /// promises hold; > 1 means the port was overrun).
  double peak_port_utilization{0.0};

  [[nodiscard]] std::size_t late_count() const;
  [[nodiscard]] Volume total_dropped() const;
};

[[nodiscard]] ReplayReport replay_policed(const Network& network,
                                          std::span<const Request> requests,
                                          const Schedule& schedule,
                                          const ReplayOptions& options = {});

[[nodiscard]] ReplayReport replay_unpoliced(const Network& network,
                                            std::span<const Request> requests,
                                            const Schedule& schedule,
                                            const ReplayOptions& options = {});

}  // namespace gridbw::dataplane
