#include "service/admission_service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
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

// Requests per ingest chunk. submit() fills a chunk and then opens the next,
// so a queued request never moves and a drain reads the batch in place.
constexpr std::size_t kChunkSize = 4096;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

struct AdmissionService::Impl {
  // Where a departure falls in the drain's event order: by deadline, then by
  // the request's index in the batch's id order.
  struct DepartureKey {
    double deadline{0.0};
    std::uint32_t index{0};
    friend bool operator<(const DepartureKey& a, const DepartureKey& b) {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.index < b.index;
    }
  };

  // An admitted reservation, held on the departure heap until it departs.
  struct Reservation {
    DepartureKey key;
    double rate{0.0};                 // granted bandwidth (min_rate), bytes/s
    const Request* request{nullptr};  // into the batch, which outlives the drain loop

    // The heap's order: std::push_heap/pop_heap keep the earliest on top.
    static bool departs_later(const Reservation& a, const Reservation& b) {
      return b.key < a.key;
    }
  };

  // An admitted reservation's start on one port, for the GC watermark.
  struct LiveStart {
    double release{0.0};
    DepartureKey key;
  };

  struct PortCell {
    TimelineProfile profile;
    double capacity{0.0};
    // The port's admitted reservations in admission order, for the GC
    // watermark (kept only with options.gc). Admitted starts never
    // decrease — a drain admits in event order and rejects a release
    // before an earlier drain's last event — so once the departed entries
    // at the front are popped, the front holds the earliest live start.
    std::deque<LiveStart> starts;
    std::size_t departures_since_gc{0};
  };

  // One sealed batch in id order. It is read where submit() put it, in the
  // ingest chunks, when ids arrived strictly increasing; otherwise from one
  // copy sorted by id, so the order never depends on how concurrent
  // submitters interleaved.
  struct Batch {
    std::vector<std::vector<Request>> chunks;
    std::vector<Request> sorted;
    std::vector<const Request*> base;  // the first request of each kChunkSize run
    std::size_t size{0};

    const Request& operator[](std::size_t k) const {
      return base[k / kChunkSize][k % kChunkSize];
    }
  };

  const Network* network;
  ServiceOptions options;
  std::vector<PortCell> cells;

  mutable std::mutex ingest_mu;
  std::vector<std::vector<Request>> queue;  // guarded by ingest_mu
  RequestId last_queued_id{0};              // guarded by ingest_mu
  bool ids_increasing{true};                // guarded by ingest_mu

  // Admitted reservations of the running drain, a min-heap on their
  // departure keys. Every drain runs all of its departures, so it is empty
  // between drains.
  std::vector<Reservation> departures;
  // The key of the latest departure run: a reservation has departed once
  // its key is at or before it.
  DepartureKey departed_through;
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

  // ---- ingest ---------------------------------------------------------------

  void enqueue(const Request& request) {
    std::scoped_lock lk{ingest_mu};
    if (!queue.empty() && request.id <= last_queued_id) ids_increasing = false;
    last_queued_id = request.id;
    if (queue.empty() || queue.back().size() == kChunkSize) {
      queue.emplace_back().reserve(kChunkSize);
    }
    queue.back().push_back(request);
  }

  Batch seal() {
    Batch batch;
    bool in_id_order = true;
    {
      std::scoped_lock lk{ingest_mu};
      batch.chunks.swap(queue);
      in_id_order = ids_increasing;
      ids_increasing = true;
    }
    for (const std::vector<Request>& chunk : batch.chunks) batch.size += chunk.size();
    if (in_id_order) {
      for (const std::vector<Request>& chunk : batch.chunks) batch.base.push_back(chunk.data());
      return batch;
    }
    batch.sorted.reserve(batch.size);
    for (std::vector<Request>& chunk : batch.chunks) {
      batch.sorted.insert(batch.sorted.end(), chunk.begin(), chunk.end());
      std::vector<Request>{}.swap(chunk);
    }
    // Ties on id fall to the other fields, so the order is total and no
    // submission interleaving shows through.
    std::sort(batch.sorted.begin(), batch.sorted.end(), [](const Request& a, const Request& b) {
      return std::tie(a.id, a.release, a.deadline, a.ingress, a.egress, a.volume, a.max_rate) <
             std::tie(b.id, b.release, b.deadline, b.ingress, b.egress, b.volume, b.max_rate);
    });
    for (std::size_t k = 0; k < batch.size; k += kChunkSize) {
      batch.base.push_back(batch.sorted.data() + k);
    }
    return batch;
  }

  // Arrivals run in (release, index) order. Indices follow id order, which
  // for a generated workload is release order too, so the permutation is
  // built only when some release goes backwards; empty means identity.
  static std::vector<std::uint32_t> arrival_order(const Batch& batch) {
    std::size_t k = 1;
    while (k < batch.size && !(batch[k].release < batch[k - 1].release)) ++k;
    if (k >= batch.size) return {};
    std::vector<std::uint32_t> order(batch.size);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      const TimePoint ta = batch[a].release;
      const TimePoint tb = batch[b].release;
      if (ta != tb) return ta < tb;
      return a < b;
    });
    return order;
  }

  // ---- execution ----------------------------------------------------------

  // gridbw:hot
  obs::RejectReason execute_arrival(const Request& r, std::uint32_t index, double bw) {
    if (!approx_le(Bandwidth::bytes_per_second(bw), r.max_rate)) {
      return obs::RejectReason::kInfeasibleRate;
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
    if (!in_fits || !eg_fits) return obs::classify_saturation(in_fits, eg_fits);
    in.profile.add(r.release, r.deadline, bw);
    eg.profile.add(r.release, r.deadline, bw);
    if (options.gc) {
      const LiveStart start{r.release.to_seconds(), {r.deadline.to_seconds(), index}};
      for (PortCell* cell : {&in, &eg}) {
        assert(cell->starts.empty() || cell->starts.back().release <= start.release);
        cell->starts.push_back(start);
      }
    }
    return obs::RejectReason::kNone;
  }

  // gridbw:hot
  void execute_departure(const Reservation& res) {
    const Request& r = *res.request;
    departed_through = res.key;
    for (PortCell* cell : {&cells[cell_of_ingress(r.ingress)],
                           &cells[cell_of_egress(r.egress)]}) {
      cell->profile.add(r.release, r.deadline, -res.rate);
      if (options.gc && ++cell->departures_since_gc >= kGcBatch) {
        cell->departures_since_gc = 0;
        collect_cell(*cell, res.key.deadline);
      }
    }
  }

  // Runs, in key order, every departure due at or before `t`: departures
  // come before the arrivals of the same instant (reservations are
  // half-open, so bandwidth ending at t is available to work released at t).
  void depart_through(double t, ServiceReport& report) {
    while (!departures.empty() && departures.front().key.deadline <= t) {
      std::pop_heap(departures.begin(), departures.end(), Reservation::departs_later);
      const Reservation res = departures.back();
      departures.pop_back();
      execute_departure(res);
      obs::note_expired(options.observer, res.request->id, res.request->deadline,
                        Bandwidth::bytes_per_second(res.rate));
      report.expired += 1;
      live -= 1;
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
    while (!cell.starts.empty() && !(departed_through < cell.starts.front().key)) {
      cell.starts.pop_front();
    }
    if (!cell.starts.empty()) horizon = std::min(horizon, cell.starts.front().release);
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

  // Executes the batch in one global order: (time, departures first,
  // index), with arrivals at their release and departures at their
  // deadline, so every decision sees exactly the port state the events
  // before it left behind. The trace, the lifecycle counters and the report
  // follow the same order, so they are byte-identical across repeated
  // same-seed runs.
  ServiceReport drain() {
    const Batch batch = seal();
    const std::vector<std::uint32_t> order = arrival_order(batch);
    ServiceReport report;
    report.submitted = batch.size;
    report.decision_fingerprint = kFnvOffset;
    const bool timed = static_cast<bool>(options.clock);
    if (timed) report.latency.reserve(batch.size);
    obs::Observer* observer = options.observer;
    // An earlier drain's departures released load up to this instant, so
    // the port profiles no longer show what stood before it.
    const double watermark = last_event_t;
    departed_through = {-std::numeric_limits<double>::infinity(), 0};
    for (std::size_t i = 0; i < batch.size; ++i) {
      const auto k = order.empty() ? static_cast<std::uint32_t>(i) : order[i];
      const Request& r = batch[k];
      const double t = r.release.to_seconds();
      depart_through(t, report);
      // Stale arrivals keep their (earlier) release; the watermark must not
      // follow them back.
      last_event_t = std::max(last_event_t, t);
      obs::RejectReason reason = obs::RejectReason::kNone;
      double bw = 0.0;
      if (r.deadline <= r.release) {
        reason = obs::RejectReason::kDegenerateWindow;
      } else if (t < watermark) {
        reason = obs::RejectReason::kReleaseBeforeWatermark;
      } else {
        // Its deadline is an event of this drain whether or not it admits,
        // so the next drain's watermark covers it.
        last_event_t = std::max(last_event_t, r.deadline.to_seconds());
        bw = r.min_rate().to_bytes_per_second();
      }
      // Caller-injected latency clock: decisions never read it, so
      // determinism is unaffected (see the header contract).
      // GRIDBW-ALLOW(wall-clock): injected latency clock, never drives decisions
      const double t0 = timed ? options.clock() : 0.0;
      if (reason == obs::RejectReason::kNone) reason = execute_arrival(r, k, bw);
      // GRIDBW-ALLOW(wall-clock): same injected latency clock as above.
      if (timed) report.latency.push_back(options.clock() - t0);
      const bool admitted = reason == obs::RejectReason::kNone;
      obs::note_submitted(observer, r.id, r.release);
      if (admitted) {
        departures.push_back({{r.deadline.to_seconds(), k}, bw, &r});
        std::push_heap(departures.begin(), departures.end(), Reservation::departs_later);
        obs::note_accepted(observer, r.id, r.release, r.release,
                           Bandwidth::bytes_per_second(bw));
        report.admitted += 1;
        live += 1;
        report.live_peak = std::max(report.live_peak, live);
      } else {
        obs::note_rejected(observer, r.id, r.release, reason);
        report.rejected += 1;
      }
      report.decision_fingerprint =
          fnv_mix(report.decision_fingerprint,
                  fnv_mix(kFnvOffset, r.id) * 2 + (admitted ? 1 : 0));
    }
    depart_through(std::numeric_limits<double>::infinity(), report);
    // Every reservation of the batch has departed, and the next batch's
    // indices start over.
    for (PortCell& cell : cells) cell.starts.clear();
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
    {
      std::scoped_lock lk{ingest_mu};
      for (const std::vector<Request>& chunk : queue) snap.queued += chunk.size();
    }
    snap.pending_departures = departures.size();
    const TimePoint t = TimePoint::at_seconds(last_event_t);
    for (const PortCell& cell : cells) {
      snap.resident_breakpoints += cell.profile.breakpoint_count();
      snap.peak_standing_load = std::max(snap.peak_standing_load, cell.profile.value_at(t));
      snap.request_entries += cell.starts.size();
    }
    snap.request_entries += departures.size();
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
  impl_->enqueue(request);
}

ServiceReport AdmissionService::drain() { return impl_->drain(); }

ServiceSnapshot AdmissionService::snapshot() const { return impl_->snapshot(); }

}  // namespace gridbw::service
