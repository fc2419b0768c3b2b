#include "control/control_plane.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/messages.hpp"
#include "core/ledger.hpp"

namespace gridbw::control {
namespace {

/// Per-router stale view of every egress port's allocated bandwidth.
struct RouterView {
  std::vector<Bandwidth> egress_allocated;
};

/// The protocol's clock: a min-heap of closures ordered by (time, insertion
/// sequence), so events at one instant run first in, first out. A closure
/// may schedule further events, never before `now()`.
class EventHeap {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }

  void at(TimePoint t, std::function<void()> action) {
    if (t < now_) throw std::invalid_argument{"run_control_plane: event in the past"};
    heap_.push_back(Event{t, next_sequence_++, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  void after(Duration delay, std::function<void()> action) {
    if (delay.is_negative()) {
      throw std::invalid_argument{"run_control_plane: negative delay"};
    }
    at(now_ + delay, std::move(action));
  }

  void run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      Event event = std::move(heap_.back());
      heap_.pop_back();
      now_ = event.time;
      event.action();
    }
  }

 private:
  struct Event {
    TimePoint time;
    std::uint64_t sequence;
    std::function<void()> action;
  };
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }

  std::vector<Event> heap_;
  TimePoint now_{TimePoint::origin()};
  std::uint64_t next_sequence_{0};
};

}  // namespace

ControlPlaneReport run_control_plane(const OverlayTopology& topology,
                                     std::span<const Request> requests,
                                     const ControlPlaneOptions& options) {
  const Network network = topology.data_plane();
  const std::size_t sites = topology.site_count();
  for (const Request& r : requests) {
    if (r.ingress.value >= sites || r.egress.value >= sites) {
      throw std::invalid_argument{"run_control_plane: request endpoints outside topology"};
    }
  }

  ControlPlaneReport report;
  auto log_message = [&](const Message& m) {
    if (options.record_wire_log) report.wire_log.push_back(serialize(m));
  };
  CounterLedger truth{network};
  std::vector<RouterView> views(
      sites, RouterView{std::vector<Bandwidth>(sites, Bandwidth::zero())});

  EventHeap events;

  // Broadcasts a delta on an egress port's allocation to every other
  // router's view, arriving after the mesh latency.
  auto broadcast = [&](std::size_t from_site, EgressId egress, Bandwidth delta,
                       bool positive) {
    for (std::size_t m = 0; m < sites; ++m) {
      if (m == from_site) continue;
      ++report.control_messages;
      events.after(topology.site(from_site).mesh_latency, [&views, m, egress, delta,
                                                           positive] {
        Bandwidth& cell = views[m].egress_allocated[egress.value];
        if (positive) {
          cell += delta;
        } else {
          cell = max(Bandwidth::zero(), cell - delta);
        }
      });
    }
  };

  std::vector<Request> order{requests.begin(), requests.end()};
  sort_fcfs(order);

  for (const Request& r : order) {
    // Client -> ingress router: the decision event.
    const std::size_t router = r.ingress.value;
    const Duration uplink = topology.site(router).local_latency;
    events.at(r.release + uplink, [&, router, r] {
      const TimePoint now = events.now();
      log_message(Message{ResvMessage{r}});
      const auto bw = options.policy.assign(r, now);
      const Duration response = 2.0 * topology.site(router).local_latency;

      auto reject = [&](const char* reason) {
        report.result.rejected.push_back(r.id);
        report.response_time_s.add(response.to_seconds());
        log_message(Message{RejectMessage{r.id, reason}});
      };

      if (!bw.has_value()) {
        reject("deadline-infeasible");
        return;
      }
      // Local decision: exact own ingress counter, stale egress view.
      const bool ingress_ok = approx_le(truth.allocated_ingress(r.ingress) + *bw,
                                        network.ingress_capacity(r.ingress));
      Bandwidth egress_seen = views[router].egress_allocated[r.egress.value];
      if (r.egress.value == router) {
        egress_seen = truth.allocated_egress(r.egress);  // own port: exact
      }
      const bool egress_ok =
          approx_le(egress_seen + *bw, network.egress_capacity(r.egress));
      if (!ingress_ok || !egress_ok) {
        reject(ingress_ok ? "egress-full" : "ingress-full");
        return;
      }
      // Enforcement: the true egress may already be full due to staleness.
      if (!approx_le(truth.allocated_egress(r.egress) + *bw,
                     network.egress_capacity(r.egress))) {
        ++report.egress_conflicts;
        reject("egress-conflict");
        return;
      }

      truth.allocate(r.ingress, r.egress, *bw);
      if (r.egress.value != router) {
        views[router].egress_allocated[r.egress.value] += *bw;
      }
      broadcast(router, r.egress, *bw, /*positive=*/true);
      report.result.schedule.accept(r.id, now, *bw);
      report.response_time_s.add(response.to_seconds());
      log_message(Message{GrantMessage{r.id, now, *bw}});

      // At τ(r): reclaim and broadcast the release.
      events.at(r.finish_at(now, *bw), [&, router, r, bw] {
        log_message(Message{TearMessage{r.id, r.egress, *bw}});
        truth.reclaim(r.ingress, r.egress, *bw);
        if (r.egress.value != router) {
          Bandwidth& cell = views[router].egress_allocated[r.egress.value];
          cell = max(Bandwidth::zero(), cell - *bw);
        }
        broadcast(router, r.egress, *bw, /*positive=*/false);
      });
    });
  }

  events.run();
  return report;
}

}  // namespace gridbw::control
