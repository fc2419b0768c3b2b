#include "core/request.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

namespace gridbw {

bool Request::is_well_formed() const {
  // A non-finite endpoint, window or volume makes min_rate 0 or NaN (a
  // rate-0 grant, or CUMULATED's 0/0 cost).
  if (!release.is_finite() || !deadline.is_finite() || !volume.is_finite()) return false;
  if (!(deadline > release) || !(deadline - release).is_finite()) return false;
  if (!volume.is_positive()) return false;
  if (!max_rate.is_positive() || !max_rate.is_finite()) return false;
  // MaxRate must allow completion within the window (MinRate <= MaxRate).
  return approx_le(min_rate(), max_rate);
}

std::string Request::describe() const {
  std::array<char, 160> buf{};
  std::snprintf(buf.data(), buf.size(), "r%llu: in%zu->out%zu [%.1fs,%.1fs] %s <= %s",
                static_cast<unsigned long long>(id), ingress.value, egress.value,
                release.to_seconds(), deadline.to_seconds(),
                to_string(volume).c_str(), to_string(max_rate).c_str());
  return std::string{buf.data()};
}

Request RequestBuilder::build() const {
  if (!request_.is_well_formed()) {
    throw std::invalid_argument{"RequestBuilder: ill-formed request " + request_.describe()};
  }
  return request_;
}

void sort_fcfs(std::vector<Request>& requests) {
  // Stable with an id tie-break: colliding release times (batch arrivals,
  // trace replays) must order identically regardless of input permutation.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     if (a.release != b.release) return a.release < b.release;
                     if (a.min_rate() != b.min_rate()) return a.min_rate() < b.min_rate();
                     return a.id < b.id;
                   });
}

Bandwidth total_demand(std::span<const Request> requests) {
  Bandwidth total = Bandwidth::zero();
  for (const Request& r : requests) total += r.min_rate();
  return total;
}

}  // namespace gridbw
