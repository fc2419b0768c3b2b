#include "core/timeline_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gridbw {

void TimelineProfile::add(TimePoint t0, TimePoint t1, double delta) {
  if (!(t0 < t1) || delta == 0.0) return;
  pending_.push_back(Event{t0.to_seconds(), delta});
  pending_.push_back(Event{t1.to_seconds(), -delta});
}

void TimelineProfile::reserve(std::size_t interval_count) {
  pending_.reserve(pending_.size() + 2 * interval_count);
}

void TimelineProfile::ensure_merged() const {
  merge_pending();
  extend_prefix_max(times_.size());
}

void TimelineProfile::merge_pending() const {
  if (pending_.empty()) return;
  // Stable by time so that deltas landing on the same instant accumulate in
  // call order — the exact floating-point sums the delta map would produce.
  // An online add→query cycle leaves a handful of events, which an in-place
  // insertion sort orders without the temporary buffer std::stable_sort
  // allocates on every call.
  if (pending_.size() <= kInPlaceSortMax) {
    for (std::size_t j = 1; j < pending_.size(); ++j) {
      const Event e = pending_[j];
      std::size_t k = j;
      for (; k > 0 && e.time < pending_[k - 1].time; --k) pending_[k] = pending_[k - 1];
      pending_[k] = e;
    }
  } else {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Event& a, const Event& b) { return a.time < b.time; });
  }

  // Nothing before the earliest pending instant changes: neither its slot
  // nor its cached prefix sum/max.
  const std::size_t n = times_.size();
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), pending_.front().time) -
      times_.begin());

  // Forward pass: a delta on an existing instant folds onto its combined
  // delta (existing first, then call order); deltas on new instants
  // coalesce in place into pending_[0, fresh).
  std::size_t fresh = 0;
  std::size_t i = first;
  for (const Event& e : pending_) {
    while (i < n && times_[i] < e.time) ++i;
    if (i < n && times_[i] == e.time) {
      deltas_[i] += e.delta;
    } else if (fresh > 0 && pending_[fresh - 1].time == e.time) {
      pending_[fresh - 1].delta += e.delta;
    } else {
      pending_[fresh++] = e;
    }
  }

  // Backward pass: grow the arrays and merge the new instants into the
  // suffix from the back, so each element moves once.
  if (fresh > 0) {
    times_.resize(n + fresh);
    deltas_.resize(n + fresh);
    std::size_t src = n;
    std::size_t out = n + fresh;
    for (std::size_t j = fresh; j > 0; --j) {
      const Event& e = pending_[j - 1];
      while (src > first && times_[src - 1] > e.time) {
        --src;
        --out;
        times_[out] = times_[src];
        deltas_[out] = deltas_[src];
      }
      --out;
      times_[out] = e.time;
      deltas_[out] = e.delta;
    }
  }
  pending_.clear();
  refold_from(first);
}

void TimelineProfile::refold_from(std::size_t first) const {
  values_.resize(times_.size());
  // Seeding with the untouched entry below `first` continues the same
  // left-to-right fold, so every refolded entry is the double a fold from
  // index 0 would produce.
  double acc = first == 0 ? 0.0 : values_[first - 1];
  for (std::size_t k = first; k < times_.size(); ++k) {
    acc += deltas_[k];
    values_[k] = acc;
  }
  max_valid_ = std::min(max_valid_, first);
}

void TimelineProfile::extend_prefix_max(std::size_t upto) const {
  if (max_valid_ >= upto) return;
  prefix_max_.resize(times_.size());
  // The same running max a full fold would produce: std::max over values_
  // in index order, continued from the last valid entry.
  double best = max_valid_ == 0 ? -std::numeric_limits<double>::infinity()
                                : prefix_max_[max_valid_ - 1];
  for (std::size_t k = max_valid_; k < upto; ++k) {
    best = std::max(best, values_[k]);
    prefix_max_[k] = best;
  }
  max_valid_ = upto;
}

std::size_t TimelineProfile::upper_index(double t) const {
  return static_cast<std::size_t>(
      std::upper_bound(times_.begin(), times_.end(), t) - times_.begin());
}

// gridbw:hot
double TimelineProfile::value_at(TimePoint t) const {
  merge_pending();
  const std::size_t idx = upper_index(t.to_seconds());
  return idx == 0 ? 0.0 : values_[idx - 1];
}

// gridbw:hot
double TimelineProfile::max_over(TimePoint t0, TimePoint t1) const {
  if (!(t0 < t1)) return 0.0;
  merge_pending();
  const double lo = t0.to_seconds();
  const double hi = t1.to_seconds();
  // Breakpoints strictly inside (lo, hi): indices [first, last).
  const std::size_t first = upper_index(lo);
  // hi > lo, so the breakpoints at or after hi start at or after `first`.
  const auto from = times_.begin() + static_cast<std::ptrdiff_t>(first);
  const std::size_t last =
      static_cast<std::size_t>(std::lower_bound(from, times_.end(), hi) - times_.begin());
  double best = 0.0;
  if (first < last) {
    if (first == 0) {
      extend_prefix_max(last);
      best = std::max(best, prefix_max_[last - 1]);  // left-anchored window
    } else {
      for (std::size_t k = first; k < last; ++k) best = std::max(best, values_[k]);
    }
  }
  // The value holding at the window's left edge counts too.
  best = std::max(best, first == 0 ? 0.0 : values_[first - 1]);
  return best;
}

// gridbw:hot
double TimelineProfile::global_max() const {
  merge_pending();
  if (times_.empty()) return 0.0;
  extend_prefix_max(times_.size());
  return std::max(0.0, prefix_max_[times_.size() - 1]);
}

// gridbw:hot
double TimelineProfile::integral(TimePoint t0, TimePoint t1) const {
  if (!(t0 < t1)) return 0.0;
  merge_pending();
  const double lo = t0.to_seconds();
  const double hi = t1.to_seconds();
  const std::size_t first = upper_index(lo);
  double acc = first == 0 ? 0.0 : values_[first - 1];
  double result = 0.0;
  double prev = lo;
  for (std::size_t k = first; k < times_.size(); ++k) {
    const double upto = std::min(times_[k], hi);
    if (upto > prev) {
      result += acc * (upto - prev);
      prev = upto;
    }
    if (times_[k] >= hi) return result;
    acc = values_[k];
  }
  if (hi > prev) result += acc * (hi - prev);
  return result;
}

std::vector<TimePoint> TimelineProfile::breakpoints() const {
  merge_pending();
  std::vector<TimePoint> points;
  points.reserve(times_.size());
  for (std::size_t k = 0; k < times_.size(); ++k) {
    if (deltas_[k] != 0.0) points.push_back(TimePoint::at_seconds(times_[k]));
  }
  return points;
}

std::size_t TimelineProfile::breakpoint_count() const {
  merge_pending();
  return times_.size();
}

std::span<const double> TimelineProfile::merged_times_view() const {
  merge_pending();
  return {times_.data(), times_.size()};
}

void TimelineProfile::compact(double tolerance) {
  merge_pending();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < times_.size(); ++k) {
    if (std::fabs(deltas_[k]) <= tolerance) continue;
    times_[kept] = times_[k];
    deltas_[kept] = deltas_[k];
    ++kept;
  }
  times_.resize(kept);
  deltas_.resize(kept);
  refold_from(0);
  extend_prefix_max(kept);
}

std::size_t TimelineProfile::retirable_before(TimePoint horizon) const {
  merge_pending();
  const std::size_t cut = static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), horizon.to_seconds()) -
      times_.begin());
  // Folding always keeps one standing breakpoint, so a prefix of one (or
  // zero) retires nothing.
  return cut > 1 ? cut - 1 : 0;
}

std::size_t TimelineProfile::retire_before(TimePoint horizon) {
  merge_pending();
  const std::size_t cut = static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), horizon.to_seconds()) -
      times_.begin());
  if (cut <= 1) return 0;
  // The standing breakpoint keeps the last retired instant and carries the
  // prefix sum accumulated there. refold_from(0) then re-folds starting
  // from exactly that double (0.0 + values_[cut-1] == values_[cut-1]), so
  // every retained prefix sum is recomputed through the same operations it
  // was originally built from — bit-identical post-horizon queries.
  times_[0] = times_[cut - 1];
  deltas_[0] = values_[cut - 1];
  times_.erase(times_.begin() + 1, times_.begin() + static_cast<std::ptrdiff_t>(cut));
  deltas_.erase(deltas_.begin() + 1, deltas_.begin() + static_cast<std::ptrdiff_t>(cut));
  refold_from(0);
  return cut - 1;
}

}  // namespace gridbw
