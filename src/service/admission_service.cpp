#include "service/admission_service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/timeline_profile.hpp"
#include "obs/counters.hpp"
#include "obs/event.hpp"

namespace gridbw::service {
namespace {

// FNV-1a, the same construction the validator uses for schedule digests.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Departures a port absorbs between GC watermark scans.
constexpr std::size_t kGcBatch = 64;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

struct AdmissionService::Impl {
  struct PortCell {
    TimelineProfile profile;
    double capacity{0.0};
    // The port's admitted requests in admission order, for the GC
    // watermark (kept only with options.gc). Admitted starts never
    // decrease — a drain admits in event order and rejects a release
    // before an earlier drain's last event — so once the departed entries
    // at the front are popped, the front holds the earliest live start.
    std::deque<std::uint32_t> starts;
    std::size_t departures_since_gc{0};
  };

  // One arrival or departure. The departure of a request that ends up
  // rejected stays in the order as a no-op, so the order never depends on
  // admission outcomes.
  struct Event {
    double t{0.0};
    std::uint32_t req{0};
    bool departure{false};
  };

  const Network* network;
  ServiceOptions options;
  std::vector<PortCell> cells;

  std::mutex ingest_mu;
  std::vector<Request> inbox;  // gridbw:guarded_by(ingest_mu)

  // Batch-persistent request state, indexed by accepted order across drains.
  std::vector<Request> requests;
  std::vector<double> rate;               // granted bandwidth (min_rate), bytes/s
  std::vector<std::uint8_t> admitted;
  std::vector<std::uint8_t> departed;
  std::vector<std::uint8_t> reason;       // RejectReason when not admitted
  std::size_t drained{0};                 // requests already executed
  // Latest event time any drain has executed; never moves backwards.
  double last_event_t{-std::numeric_limits<double>::infinity()};
  std::size_t live{0};
  std::size_t compactions{0};
  std::size_t retired{0};

  explicit Impl(const Network& net, ServiceOptions opts)
      : network(&net), options(std::move(opts)) {
    cells.resize(net.ingress_count() + net.egress_count());
    for (std::size_t p = 0; p < net.ingress_count(); ++p) {
      cells[p].capacity = net.ingress_capacity(IngressId{p}).to_bytes_per_second();
    }
    for (std::size_t p = 0; p < net.egress_count(); ++p) {
      cells[net.ingress_count() + p].capacity =
          net.egress_capacity(EgressId{p}).to_bytes_per_second();
    }
  }

  [[nodiscard]] std::size_t cell_of_ingress(IngressId i) const { return i.value; }
  [[nodiscard]] std::size_t cell_of_egress(EgressId e) const {
    return network->ingress_count() + e.value;
  }

  // ---- batch construction -------------------------------------------------

  std::vector<Event> sequence_batch() {
    {
      std::scoped_lock lk{ingest_mu};
      // Sort the new batch by id so the event order is independent of the
      // (possibly concurrent) submission interleaving.
      std::sort(inbox.begin(), inbox.end(),
                [](const Request& a, const Request& b) { return a.id < b.id; });
      requests.insert(requests.end(), inbox.begin(), inbox.end());
      inbox.clear();
    }
    const std::size_t first = drained;
    const std::size_t total = requests.size();
    rate.resize(total, 0.0);
    admitted.resize(total, 0);
    departed.resize(total, 0);
    reason.resize(total, static_cast<std::uint8_t>(obs::RejectReason::kNone));

    std::vector<Event> arrivals;
    std::vector<Event> departures;
    arrivals.reserve(total - first);
    departures.reserve(total - first);
    for (std::size_t k = first; k < total; ++k) {
      const Request& r = requests[k];
      const auto req = static_cast<std::uint32_t>(k);
      arrivals.push_back({r.release.to_seconds(), req, false});
      if (r.deadline <= r.release) {
        reason[k] = static_cast<std::uint8_t>(obs::RejectReason::kDegenerateWindow);
      } else if (r.release.to_seconds() < last_event_t) {
        // An earlier drain's departures released load up to last_event_t,
        // so the port profiles no longer show what stood before it.
        reason[k] = static_cast<std::uint8_t>(obs::RejectReason::kReleaseBeforeWatermark);
      } else {
        rate[k] = r.min_rate().to_bytes_per_second();
        departures.push_back({r.deadline.to_seconds(), req, true});
      }
    }
    // Global deterministic order: time, then departures before arrivals at
    // equal instants (reservations are half-open, so bandwidth ending at t
    // is available to work released at t), then request index. It is a
    // total order, so sorting each kind and merging them gives the one
    // sorted sequence. Arrivals come in index order, usually already by
    // release time too.
    const auto earlier = [](const Event& a, const Event& b) {
      if (a.t != b.t) return a.t < b.t;
      if (a.departure != b.departure) return a.departure;
      return a.req < b.req;
    };
    if (!std::is_sorted(arrivals.begin(), arrivals.end(), earlier)) {
      std::sort(arrivals.begin(), arrivals.end(), earlier);
    }
    std::sort(departures.begin(), departures.end(), earlier);
    std::vector<Event> events(arrivals.size() + departures.size());
    std::merge(departures.begin(), departures.end(), arrivals.begin(), arrivals.end(),
               events.begin(), earlier);
    return events;
  }

  // ---- execution ----------------------------------------------------------

  // gridbw:hot
  void execute_arrival(const Event& ev) {
    const Request& r = requests[ev.req];
    if (reason[ev.req] !=
        static_cast<std::uint8_t>(obs::RejectReason::kNone)) {
      return;  // rejected at sequencing time
    }
    const double bw = rate[ev.req];  // min_rate, set at sequencing time
    if (!approx_le(Bandwidth::bytes_per_second(bw), r.max_rate)) {
      reason[ev.req] = static_cast<std::uint8_t>(obs::RejectReason::kInfeasibleRate);
      return;
    }
    PortCell& in = cells[cell_of_ingress(r.ingress)];
    PortCell& eg = cells[cell_of_egress(r.egress)];
    // Same threshold as NetworkLedger::fits_ingress/fits_egress (approx_le
    // on peak + rate) so the service and the batch engines agree on
    // borderline loads.
    const bool in_fits =
        approx_le(Bandwidth::bytes_per_second(in.profile.max_over(r.release, r.deadline) + bw),
                  Bandwidth::bytes_per_second(in.capacity));
    const bool eg_fits =
        approx_le(Bandwidth::bytes_per_second(eg.profile.max_over(r.release, r.deadline) + bw),
                  Bandwidth::bytes_per_second(eg.capacity));
    if (!in_fits || !eg_fits) {
      reason[ev.req] =
          static_cast<std::uint8_t>(obs::classify_saturation(in_fits, eg_fits));
      return;
    }
    in.profile.add(r.release, r.deadline, bw);
    eg.profile.add(r.release, r.deadline, bw);
    if (options.gc) {
      for (PortCell* cell : {&in, &eg}) {
        assert(cell->starts.empty() ||
               requests[cell->starts.back()].release <= r.release);
        cell->starts.push_back(ev.req);
      }
    }
    admitted[ev.req] = 1;
  }

  // gridbw:hot
  void execute_departure(const Event& ev) {
    const Request& r = requests[ev.req];
    const double bw = rate[ev.req];
    departed[ev.req] = 1;
    for (PortCell* cell : {&cells[cell_of_ingress(r.ingress)],
                           &cells[cell_of_egress(r.egress)]}) {
      cell->profile.add(r.release, r.deadline, -bw);
      if (options.gc && ++cell->departures_since_gc >= kGcBatch) {
        cell->departures_since_gc = 0;
        collect_cell(*cell, ev.t);
      }
    }
  }

  // Retire the dead breakpoint prefix of one port, guarded by the safe
  // watermark: never past the earliest live reservation start (future
  // departures re-touch their start instant) and never past the current
  // event time (future arrivals release at or after it). Fold only when at
  // least a batch of breakpoints retires AND they are at least half the
  // residents, so the erase/shift cost stays O(1) amortized per retired
  // breakpoint.
  // GRIDBW-ALLOW(hot-propagation): amortized GC tail, off the per-event path
  void collect_cell(PortCell& cell, double now) {
    constexpr std::size_t kMinRetireBatch = 64;
    double horizon = now;
    while (!cell.starts.empty() && departed[cell.starts.front()] != 0) {
      cell.starts.pop_front();
    }
    if (!cell.starts.empty()) {
      horizon = std::min(horizon, requests[cell.starts.front()].release.to_seconds());
    }
    const std::size_t retirable =
        cell.profile.retirable_before(TimePoint::at_seconds(horizon));
    if (retirable < kMinRetireBatch || retirable * 2 < cell.profile.breakpoint_count()) {
      return;
    }
    const std::size_t n = cell.profile.retire_before(TimePoint::at_seconds(horizon));
    if (n == 0) return;
    compactions += 1;
    retired += n;
    if (options.observer != nullptr) {
      options.observer->count(obs::Counter::kProfileCompactions);
      options.observer->count(obs::Counter::kBreakpointsRetired, n);
    }
  }

  // Executes the batch in event order: every decision sees exactly the
  // port state the events before it left behind. The trace, the lifecycle
  // counters and the report follow the same order, so they are
  // byte-identical across repeated same-seed runs.
  ServiceReport drain() {
    const std::vector<Event> events = sequence_batch();
    ServiceReport report;
    report.submitted = requests.size() - drained;
    drained = requests.size();
    report.decision_fingerprint = kFnvOffset;
    const bool timed = static_cast<bool>(options.clock);
    if (timed) report.latency.reserve(report.submitted);
    obs::Observer* observer = options.observer;
    for (const Event& ev : events) {
      const Request& r = requests[ev.req];
      // Stale arrivals keep their (earlier) release in the order; the
      // watermark must not follow them back.
      last_event_t = std::max(last_event_t, ev.t);
      if (ev.departure) {
        if (admitted[ev.req] != 0) {  // a rejected request's departure is a no-op
          execute_departure(ev);
          obs::note_expired(observer, r.id, r.deadline,
                            Bandwidth::bytes_per_second(rate[ev.req]));
          report.expired += 1;
          live -= 1;
        }
        continue;
      }
      // Caller-injected latency clock: decisions never read it, so
      // determinism is unaffected (see the header contract).
      // GRIDBW-ALLOW(wall-clock): injected latency clock, never drives decisions
      const double t0 = timed ? options.clock() : 0.0;
      execute_arrival(ev);
      // GRIDBW-ALLOW(wall-clock): same injected latency clock as above.
      if (timed) report.latency.push_back(options.clock() - t0);
      obs::note_submitted(observer, r.id, r.release);
      if (admitted[ev.req] != 0) {
        obs::note_accepted(observer, r.id, r.release, r.release,
                           Bandwidth::bytes_per_second(rate[ev.req]));
        report.admitted += 1;
        live += 1;
        report.live_peak = std::max(report.live_peak, live);
      } else {
        obs::note_rejected(observer, r.id, r.release,
                           static_cast<obs::RejectReason>(reason[ev.req]));
        report.rejected += 1;
      }
      report.decision_fingerprint =
          fnv_mix(report.decision_fingerprint,
                  fnv_mix(kFnvOffset, r.id) * 2 + admitted[ev.req]);
    }
    report.compactions = compactions;
    report.breakpoints_retired = retired;
    for (const PortCell& cell : cells) {
      report.resident_breakpoints += cell.profile.breakpoint_count();
    }
    return report;
  }

  [[nodiscard]] ServiceSnapshot snapshot() const {
    ServiceSnapshot snap;
    snap.ports = cells.size();
    snap.live = live;
    const TimePoint t = TimePoint::at_seconds(last_event_t);
    for (const PortCell& cell : cells) {
      snap.resident_breakpoints += cell.profile.breakpoint_count();
      snap.peak_standing_load = std::max(snap.peak_standing_load, cell.profile.value_at(t));
    }
    return snap;
  }
};

AdmissionService::AdmissionService(const Network& network, ServiceOptions options)
    : impl_(std::make_unique<Impl>(network, std::move(options))) {}

AdmissionService::~AdmissionService() = default;

void AdmissionService::submit(const Request& request) {
  // Event times feed a sort: a NaN would break its strict weak ordering.
  if (!std::isfinite(request.release.to_seconds()) ||
      !std::isfinite(request.deadline.to_seconds()) ||
      !std::isfinite(request.volume.to_bytes()) ||
      !std::isfinite(request.max_rate.to_bytes_per_second())) {
    throw std::invalid_argument("AdmissionService::submit: request " +
                                std::to_string(request.id) +
                                " has a non-finite release, deadline, volume or max_rate");
  }
  std::scoped_lock lk{impl_->ingest_mu};
  impl_->inbox.push_back(request);
}

ServiceReport AdmissionService::drain() { return impl_->drain(); }

ServiceSnapshot AdmissionService::snapshot() const { return impl_->snapshot(); }

bool AdmissionService::was_admitted(RequestId id) const {
  for (std::size_t k = 0; k < impl_->drained; ++k) {
    if (impl_->requests[k].id == id) return impl_->admitted[k] != 0;
  }
  return false;
}

}  // namespace gridbw::service
