#include "heuristics/retry.hpp"

#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"

namespace gridbw::heuristics {
namespace {

struct Submission {
  TimePoint when;
  Request request;     // window shifted to the submission time
  std::size_t attempt;  // 1-based
};

struct LaterSubmission {
  bool operator()(const Submission& a, const Submission& b) const {
    if (a.when != b.when) return a.when > b.when;
    if (a.request.id != b.request.id) return a.request.id > b.request.id;
    return a.attempt > b.attempt;
  }
};

}  // namespace

RetryResult schedule_greedy_with_retries(const Network& network,
                                         std::span<const Request> requests,
                                         BandwidthPolicy policy,
                                         const RetryPolicy& retry,
                                         obs::Observer* observer) {
  if (retry.max_attempts == 0) {
    throw std::invalid_argument{"schedule_greedy_with_retries: need >= 1 attempt"};
  }
  // Negated >= so NaN fails the gate (`x < 1.0` is false for NaN and used to
  // wave NaN factors straight into the pow() below).
  if (!(retry.backoff_factor >= 1.0) || !std::isfinite(retry.backoff_factor)) {
    throw std::invalid_argument{
        "schedule_greedy_with_retries: backoff factor must be finite and >= 1"};
  }
  if (!(retry.initial_backoff.to_seconds() >= 0.0) ||
      !std::isfinite(retry.initial_backoff.to_seconds())) {
    throw std::invalid_argument{
        "schedule_greedy_with_retries: initial backoff must be finite and >= 0"};
  }

  std::priority_queue<Submission, std::vector<Submission>, LaterSubmission> queue;
  for (const Request& r : requests) queue.push(Submission{r.release, r, 1});

  RetryResult out;
  CounterLedger counters{network};
  Completions completions;

  while (!queue.empty()) {
    const Submission sub = queue.top();
    queue.pop();
    completions.reclaim_until(sub.when, counters, observer);

    const Request& r = sub.request;
    if (sub.attempt == 1) obs::note_submitted(observer, r.id, sub.when);
    // A retry keeps the window's length, so a degenerate one never fits.
    if (!(r.deadline > r.release)) {
      out.result.rejected.push_back(r.id);
      out.effective_requests.push_back(r);
      obs::note_rejected(observer, r.id, sub.when, obs::RejectReason::kDegenerateWindow);
      continue;
    }
    const auto bw = policy.assign(r, sub.when);
    if (bw.has_value() && counters.fits(r.ingress, r.egress, *bw)) {
      counters.allocate(r.ingress, r.egress, *bw);
      out.result.schedule.accept(r.id, sub.when, *bw);
      obs::note_accepted(observer, r.id, sub.when, sub.when, *bw, sub.attempt);
      completions.push(r, sub.when, *bw);
      if (sub.attempt > 1) ++out.accepted_on_retry;
      out.effective_requests.push_back(r);
      continue;
    }

    if (sub.attempt < retry.max_attempts) {
      // Resubmit later with the window shifted whole: same length, same
      // volume, so MinRate and MaxRate are unchanged.
      const double scale =
          std::pow(retry.backoff_factor, static_cast<double>(sub.attempt - 1));
      const Duration backoff = retry.initial_backoff * scale;
      Request shifted = r;
      const Duration window = r.deadline - r.release;
      shifted.release = sub.when + backoff;
      shifted.deadline = shifted.release + window;
      queue.push(Submission{shifted.release, shifted, sub.attempt + 1});
      ++out.retries_issued;
      obs::note_retried(observer, r.id, sub.when, sub.attempt + 1, backoff);
    } else {
      out.result.rejected.push_back(r.id);
      out.effective_requests.push_back(r);
      if (observer != nullptr) {
        obs::RejectReason reason = obs::RejectReason::kRetriesExhausted;
        if (retry.max_attempts == 1) {
          reason = bw.has_value()
                       ? obs::classify_saturation(counters.fits_ingress(r.ingress, *bw),
                                                  counters.fits_egress(r.egress, *bw))
                       : obs::RejectReason::kInfeasibleRate;
        }
        obs::note_rejected(observer, r.id, sub.when, reason, sub.attempt);
      }
    }
  }

  // The transfers still in flight return their bandwidth, so the ledger ends
  // empty; the residual gauge records what survives (zero, as tests assert).
  completions.reclaim_until(TimePoint::infinity(), counters, observer);
  if (observer != nullptr) {
    double residual = 0.0;
    for (std::size_t p = 0; p < network.ingress_count(); ++p) {
      residual += counters.allocated_ingress(IngressId{p}).to_bytes_per_second();
    }
    for (std::size_t p = 0; p < network.egress_count(); ++p) {
      residual += counters.allocated_egress(EgressId{p}).to_bytes_per_second();
    }
    observer->gauge(obs::Counter::kRetryResidualBps,
                    static_cast<std::uint64_t>(residual));
  }
  return out;
}

}  // namespace gridbw::heuristics
