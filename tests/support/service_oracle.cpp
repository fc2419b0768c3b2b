#include "support/service_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

namespace gridbw::oracle {

std::set<RequestId> admitted_ids(std::span<const obs::AdmissionEvent> trace) {
  std::set<RequestId> ids;
  for (const obs::AdmissionEvent& e : trace) {
    if (e.kind == obs::EventKind::kAccepted) ids.insert(e.request);
  }
  return ids;
}

std::vector<DrainEvent> expected_drain_order(std::span<const Request> batch,
                                             std::span<const obs::AdmissionEvent> trace) {
  // index[k]: the position of batch[k] in id order.
  std::vector<std::size_t> by_id(batch.size());
  std::iota(by_id.begin(), by_id.end(), std::size_t{0});
  std::stable_sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return batch[a].id < batch[b].id;
  });
  std::vector<std::size_t> index(batch.size());
  for (std::size_t pos = 0; pos < by_id.size(); ++pos) index[by_id[pos]] = pos;

  struct Keyed {
    DrainEvent event;
    std::size_t index;
  };
  std::vector<Keyed> events;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    events.push_back({{false, batch[k].id, batch[k].release.to_seconds()}, index[k]});
  }
  // An accepted event names its request by id and release (σ = release);
  // a request submitted twice the same way departs once per acceptance.
  std::vector<char> departs(batch.size(), 0);
  for (const obs::AdmissionEvent& e : trace) {
    if (e.kind != obs::EventKind::kAccepted) continue;
    std::size_t k = 0;
    while (k < batch.size() &&
           (departs[k] != 0 || batch[k].id != e.request || batch[k].release != e.when)) {
      ++k;
    }
    if (k == batch.size()) {
      throw std::runtime_error("accepted event for request " + std::to_string(e.request) +
                               " matches no submission of the batch");
    }
    departs[k] = 1;
    events.push_back({{true, batch[k].id, batch[k].deadline.to_seconds()}, index[k]});
  }
  std::stable_sort(events.begin(), events.end(), [](const Keyed& a, const Keyed& b) {
    if (a.event.t != b.event.t) return a.event.t < b.event.t;
    if (a.event.departure != b.event.departure) return a.event.departure;
    return a.index < b.index;
  });
  std::vector<DrainEvent> order;
  order.reserve(events.size());
  for (const Keyed& k : events) order.push_back(k.event);
  return order;
}

std::vector<DrainEvent> traced_drain_order(std::span<const obs::AdmissionEvent> trace) {
  std::vector<DrainEvent> order;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::AdmissionEvent& e = trace[i];
    if (e.kind == obs::EventKind::kExpired) {
      order.push_back({true, e.request, e.when.to_seconds()});
    } else if (e.kind == obs::EventKind::kSubmitted) {
      const bool decided = i + 1 < trace.size() && trace[i + 1].request == e.request &&
                           (trace[i + 1].kind == obs::EventKind::kAccepted ||
                            trace[i + 1].kind == obs::EventKind::kRejected);
      if (!decided) {
        throw std::runtime_error("submitted event " + std::to_string(i) + " for request " +
                                 std::to_string(e.request) + " is not followed by its decision");
      }
      order.push_back({false, e.request, e.when.to_seconds()});
      ++i;
    }
  }
  return order;
}

}  // namespace gridbw::oracle
