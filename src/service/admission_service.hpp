// gridbw/service/admission_service.hpp
//
// Steady-state churn engine: the long-running counterpart to the
// closed-batch schedulers. Requests are ingested into a queue, sequenced
// into a single deterministic event order (arrivals at release, departures
// at deadline), and executed one event at a time over per-port load
// profiles.
//
// Architecture (DESIGN.md §5h):
//
//  * One cell per port (ingress and egress ports share a global id space).
//    A cell owns its port's TimelineProfile and the GC bookkeeping (a FIFO
//    of live reservation starts, departures since the last scan).
//  * submit() appends to fixed-size chunks. drain() seals them and reads
//    the batch in place in id order; only when ids were not submitted
//    strictly increasing does it copy the batch once and sort it by id,
//    then by every other field, so requests sharing an id order alike.
//  * drain() runs one global order, (time, departure-before-arrival,
//    index in id order), with arrivals at release and departures at
//    deadline: it walks the arrivals by (release, index) and, before each
//    one, pops the admitted reservations due by then off a min-heap keyed
//    by (deadline, index). Every decision sees exactly the load the events
//    before it left behind.
//  * State is O(live): a batch's requests and the departure heap last only
//    for its drain, and no per-request history is kept across drains.
//  * A later drain may not reach back before the latest instant an earlier
//    drain executed: that drain already released its load up to there, so
//    such arrivals are rejected with kReleaseBeforeWatermark. The watermark
//    only moves forward, so a batch of stale arrivals cannot lower it.
//  * Departures release the reservation's exact interval and drive the
//    breakpoint GC: every 64 departures a port computes its safe watermark
//    (min of the current event time and its earliest live reservation
//    start) and retires the dead prefix via TimelineProfile::retire_before
//    once the amortization policy says the fold pays. GC on/off decisions
//    are bit-identical (see retire_before's contract); only resident
//    breakpoint counts differ.
//  * Traces are emitted as the events execute, in event order, so same-seed
//    runs produce byte-identical JSONL.
//
// Wall clocks never appear in this module (gridbw-wall-clock): admission
// latency capture is injected by the caller as an opaque `clock` callback
// (the churn bench passes a steady-clock lambda; the library never reads
// real time itself).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "obs/observer.hpp"
#include "util/quantity.hpp"

namespace gridbw::service {

struct ServiceOptions {
  /// Retired-breakpoint GC on departures. Off = profiles only grow;
  /// decisions are bit-identical either way.
  bool gc{true};
  /// Optional (nullable) observability: counters + trace, emitted in
  /// deterministic event order.
  obs::Observer* observer{nullptr};
  /// Optional monotonic clock (seconds, arbitrary epoch) for per-admission
  /// latency capture. Null = no latency capture. Injected so the service
  /// itself never reads wall clocks.
  std::function<double()> clock{};
};

/// What drain() hands back for the batch it executed.
struct ServiceReport {
  std::size_t submitted{0};
  std::size_t admitted{0};
  std::size_t rejected{0};
  std::size_t expired{0};
  /// Peak simultaneously-live admitted reservations (event-order replay).
  std::size_t live_peak{0};
  /// Sum of resident (merged) breakpoints across all ports after the
  /// batch — the figure the GC keeps O(live) instead of O(history).
  std::size_t resident_breakpoints{0};
  /// GC activity since construction, summed over every drain so far.
  std::size_t compactions{0};
  std::size_t breakpoints_retired{0};
  /// FNV-1a over (request id, admitted) in event order: two runs (repeated,
  /// GC on or off) must agree byte-for-byte.
  std::uint64_t decision_fingerprint{0};
  /// Per-admission decision latency in `clock` units, indexed by arrival
  /// order. Empty when no clock was injected. Values are timing (not
  /// deterministic); everything else in this struct is.
  std::vector<double> latency;
};

/// Post-drain control-surface snapshot of the port state.
struct ServiceSnapshot {
  std::size_t ports{0};
  std::size_t resident_breakpoints{0};
  /// Admitted reservations that have not yet expired.
  std::size_t live{0};
  /// Largest standing load (bytes/s) any port carries at the last executed
  /// event time — ~0 once every reservation has expired.
  double peak_standing_load{0.0};
  /// Requests submitted and not yet drained.
  std::size_t queued{0};
  /// Admitted reservations whose departure has not run. A drain runs every
  /// departure of its batch, so this reads 0 between drains.
  std::size_t pending_departures{0};
  /// Per-request entries held outside the ingest queue: live-start FIFO
  /// entries on every port plus pending departures. 0 between drains.
  std::size_t request_entries{0};
};

/// Online admission loop. Lifecycle: construct, submit() any number of
/// requests (thread-safe), drain() to execute the batch and collect the
/// report; repeat submit/drain for later batches. Port state persists, so a
/// later batch's arrival released before the latest already-drained event
/// time is rejected (kReleaseBeforeWatermark). snapshot() reads the port
/// state between batches. Per-request outcomes are reported only through
/// the observer's trace: the service keeps no history of them.
class AdmissionService {
 public:
  AdmissionService(const Network& network, ServiceOptions options);
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Queues a request for the next drain(). Thread-safe; the batch's event
  /// order is independent of submission interleaving (ids, then the other
  /// fields, break ties).
  /// Throws std::invalid_argument for a non-finite release, deadline,
  /// volume or max_rate.
  void submit(const Request& request);

  /// Seals the ingest queue, executes every queued event in order, and
  /// emits the batch's trace in event order.
  ServiceReport drain();

  /// Thread-safe against submit(); call it between drains.
  [[nodiscard]] ServiceSnapshot snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gridbw::service
