#include "obs/event.hpp"

namespace gridbw::obs {

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSubmitted: return "submitted";
    case EventKind::kAccepted: return "accepted";
    case EventKind::kRejected: return "rejected";
    case EventKind::kRetried: return "retried";
    case EventKind::kPreempted: return "preempted";
    case EventKind::kReclaimed: return "reclaimed";
    case EventKind::kExpired: return "expired";
    case EventKind::kRevoked: return "revoked";
    case EventKind::kReshaped: return "reshaped";
  }
  return "unknown";
}

std::string to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kDegenerateWindow: return "degenerate_window";
    case RejectReason::kInfeasibleRate: return "infeasible_rate";
    case RejectReason::kIngressSaturated: return "ingress_saturated";
    case RejectReason::kEgressSaturated: return "egress_saturated";
    case RejectReason::kBothPortsSaturated: return "both_ports_saturated";
    case RejectReason::kNoFeasibleStart: return "no_feasible_start";
    case RejectReason::kRetroRemoved: return "retro_removed";
    case RejectReason::kRetriesExhausted: return "retries_exhausted";
    case RejectReason::kReleaseBeforeWatermark: return "release_before_watermark";
  }
  return "unknown";
}

}  // namespace gridbw::obs
