#include "support/step_function.hpp"

#include <algorithm>
#include <cmath>

namespace gridbw {

void StepFunction::add(TimePoint t0, TimePoint t1, double delta) {
  if (!(t0 < t1) || delta == 0.0) return;
  deltas_[t0.to_seconds()] += delta;
  deltas_[t1.to_seconds()] -= delta;
}

double StepFunction::value_at(TimePoint t) const {
  double acc = 0.0;
  const double ts = t.to_seconds();
  for (const auto& [time, delta] : deltas_) {
    if (time > ts) break;
    acc += delta;
  }
  return acc;
}

double StepFunction::max_over(TimePoint t0, TimePoint t1) const {
  if (!(t0 < t1)) return 0.0;
  double acc = 0.0;
  double best = 0.0;
  const double lo = t0.to_seconds();
  const double hi = t1.to_seconds();
  for (const auto& [time, delta] : deltas_) {
    if (time >= hi) break;
    acc += delta;
    if (time <= lo) continue;  // still accumulating the value holding at t0
    best = std::max(best, acc);
  }
  // acc after processing all deltas <= lo is the value at t0; the loop above
  // does not capture it, so fold it in here.
  best = std::max(best, value_at(t0));
  return best;
}

double StepFunction::global_max() const {
  double acc = 0.0;
  double best = 0.0;
  for (const auto& [time, delta] : deltas_) {
    (void)time;
    acc += delta;
    best = std::max(best, acc);
  }
  return best;
}

double StepFunction::integral(TimePoint t0, TimePoint t1) const {
  if (!(t0 < t1)) return 0.0;
  const double lo = t0.to_seconds();
  const double hi = t1.to_seconds();
  double acc = 0.0;
  double result = 0.0;
  double prev = lo;
  for (const auto& [time, delta] : deltas_) {
    if (time <= lo) {
      acc += delta;
      continue;
    }
    const double upto = std::min(time, hi);
    if (upto > prev) {
      result += acc * (upto - prev);
      prev = upto;
    }
    if (time >= hi) return result;
    acc += delta;
  }
  if (hi > prev) result += acc * (hi - prev);
  return result;
}

std::vector<TimePoint> StepFunction::breakpoints() const {
  std::vector<TimePoint> points;
  points.reserve(deltas_.size());
  for (const auto& [time, delta] : deltas_) {
    if (delta != 0.0) points.push_back(TimePoint::at_seconds(time));
  }
  return points;
}

void StepFunction::compact(double tolerance) {
  for (auto it = deltas_.begin(); it != deltas_.end();) {
    if (std::fabs(it->second) <= tolerance) {
      it = deltas_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gridbw
