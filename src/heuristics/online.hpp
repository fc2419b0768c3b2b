// gridbw/heuristics/online.hpp
//
// What the online engines of §4.1 and §5 share: the walk in arrival order
// (fcfs_arrivals) and, for the ali/ale counters of the constant-rate ones,
// the bandwidth given back at τ(r) = σ(r) + vol/bw(r) (Completions).

#pragma once

#include <queue>
#include <span>
#include <vector>

#include "core/ledger.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

/// The requests an online engine walks, in FCFS order (sort_fcfs). Notes
/// every submission and rejects degenerate windows (deadline <= release) up
/// front with kDegenerateWindow, so their infinite MinRate never reaches the
/// admission math.
[[nodiscard]] std::vector<Request> fcfs_arrivals(std::span<const Request> requests,
                                                 ScheduleResult& result,
                                                 obs::Observer* observer);

/// Min-heap order on `finish`, for any entry that carries one.
struct LaterFinish {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return a.finish > b.finish;
  }
};

/// The constant-rate transfers in flight, earliest finish on top.
class Completions {
 public:
  /// Records a transfer of `r` started at `start` at rate `bw`.
  void push(const Request& r, TimePoint start, Bandwidth bw) {
    heap_.push(Completion{r.finish_at(start, bw), r.id, r.ingress, r.egress, bw});
  }

  /// Gives back to `counters` the bandwidth of every transfer finished by
  /// `t`, in finish order, noting each reclaim. TimePoint::infinity() drains
  /// the queue.
  void reclaim_until(TimePoint t, CounterLedger& counters, obs::Observer* observer);

 private:
  struct Completion {
    TimePoint finish;
    RequestId request;
    IngressId ingress;
    EgressId egress;
    Bandwidth bw;
  };

  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> heap_;
};

}  // namespace gridbw::heuristics
