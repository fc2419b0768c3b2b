// gridbw/core/timeline_profile.hpp
//
// Flat, cache-friendly port-load profile: a piecewise-constant
// right-continuous function of time, stored as sorted breakpoint/delta
// vectors (SoA) with lazily rebuilt prefix-sum and prefix-max caches. Its
// reference is the std::map-of-deltas step function of the test-support
// library (tests/support/step_function.hpp), which no library code uses.
//
//  * `add` is O(1): it appends to a pending buffer. The buffer is merged
//    into the sorted arrays in place on the first query after a batch of k
//    adds: a stable sort of the pending events (an in-place insertion sort
//    for small online batches, std::stable_sort for bulk ones), one binary
//    search for the earliest of them, and one pass over the suffix from
//    there, whose prefix sums are re-folded. That is O(k log k + log n +
//    (n - first touched)), so online add→query cycles pay for the live
//    tail, not the history, and bulk construction — the validator,
//    dataplane replay, BOOK-AHEAD probes — costs O(n log n) once instead of
//    O(n log n) map-node allocations.
//  * `value_at` is O(log n): binary search into the prefix-sum cache.
//  * The prefix-max cache is lazy: a merge only marks it stale from the
//    first touched index, and `global_max` / left-anchored `max_over`
//    extend the running max from there (O(1) when nothing changed), so
//    windowed-only query streams never pay for it.
//  * `max_over` / `integral` are O(log n + w) where w is the number of
//    breakpoints inside the queried window (contiguous scans, no pointer
//    chasing).
//
// Numerical contract: every query returns the bit-identical double that
// the reference returns for the same sequence of `add` calls. Deltas
// landing on the same instant accumulate in call order (exactly like the
// map's `operator+=`), prefix sums run left-to-right over the merged
// deltas (exactly like the map scans), and `integral` accumulates the same
// per-segment products in the same order. tests/timeline_profile_test.cpp
// differential-tests this with EXPECT_EQ on raw doubles.
//
// Thread safety: queries may trigger the lazy merge and therefore mutate
// internal caches even though they are declared `const`. A profile is safe
// to share across threads for read-only queries only once `ensure_merged()`
// has run — it also completes the prefix-max cache — and no further
// `add`/`compact`/`retire_before` happens; two threads racing the first
// query on an unmerged profile is a data race that ThreadSanitizer reports
// (tests/tsan_stress_test.cpp exercises the merged path and a running max
// left stale by a windowed query's merge). Distinct profiles are always
// independent.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/quantity.hpp"

namespace gridbw {

class TimelineProfile {
 public:
  /// Adds `delta` to the function over [t0, t1). No-op when t0 >= t1.
  /// O(1): buffered until the next query.
  void add(TimePoint t0, TimePoint t1, double delta);

  /// Pre-sizes the pending buffer for `interval_count` upcoming `add`s.
  void reserve(std::size_t interval_count);

  /// Merges the pending buffer into the sorted arrays and completes the
  /// prefix-max cache now. Queries do this implicitly; call it explicitly
  /// before concurrent read-only access — after this returns (and until the
  /// next `add`/`compact`/`retire_before`), every query is a pure read and
  /// any number of threads may query concurrently.
  void ensure_merged() const;

  /// True when queries are pure reads: no pending adds are buffered and the
  /// prefix-max cache is complete.
  [[nodiscard]] bool merged() const {
    return pending_.empty() && max_valid_ == times_.size();
  }

  /// Value at time t (right-continuous: the value on [t, next breakpoint)).
  [[nodiscard]] double value_at(TimePoint t) const;

  /// Maximum over the half-open interval [t0, t1). Returns 0 for an empty
  /// function or an empty interval.
  [[nodiscard]] double max_over(TimePoint t0, TimePoint t1) const;

  /// Maximum over the whole time axis.
  [[nodiscard]] double global_max() const;

  /// Integral over [t0, t1) (value x seconds).
  [[nodiscard]] double integral(TimePoint t0, TimePoint t1) const;

  /// Times at which the function changes value, in increasing order.
  [[nodiscard]] std::vector<TimePoint> breakpoints() const;

  /// Zero-copy view of the merged breakpoint instants. Merges pending
  /// first; the view is invalidated by the next `add`/`compact`. Its one
  /// user is the interleaved differential test, which draws adds before
  /// the first breakpoint from it.
  [[nodiscard]] std::span<const double> merged_times_view() const;

  [[nodiscard]] bool empty() const { return times_.empty() && pending_.empty(); }

  /// Number of stored breakpoints (including delta-cancelled ones that
  /// `compact` has not yet dropped). Merges pending first.
  [[nodiscard]] std::size_t breakpoint_count() const;

  /// Removes breakpoints whose accumulated delta has cancelled to ~0 (after
  /// many add/release pairs). Values within `tolerance` of zero are dropped
  /// and the caches are rebuilt in full.
  void compact(double tolerance = 1e-9);

  /// Retired-breakpoint garbage collector: folds every breakpoint strictly
  /// before `horizon` into one standing-load breakpoint (kept at the last
  /// retired instant, carrying the accumulated prefix value as its delta).
  /// Returns the number of breakpoints retired.
  ///
  /// Bit-identity contract: because `values_` is a left-to-right prefix sum,
  /// re-folding from the standing delta reproduces every retained prefix sum
  /// as the exact same double — so `value_at` / `max_over` / `integral` are
  /// bit-identical to the uncompacted profile for every window with
  /// t >= horizon, and stay so for any later `add` whose events all land at
  /// or after `horizon`. Callers must not add events strictly before a
  /// horizon they have retired (the churn layers enforce this by capping the
  /// watermark at the earliest live reservation start). Whole-axis queries
  /// (`global_max`, windows reaching before `horizon`) see the compacted
  /// standing load instead of the retired history.
  std::size_t retire_before(TimePoint horizon);

  /// Number of breakpoints `retire_before(horizon)` would retire, without
  /// mutating. O(log n); used by callers to amortize compaction.
  [[nodiscard]] std::size_t retirable_before(TimePoint horizon) const;

 private:
  struct Event {
    double time;
    double delta;
  };

  // Pending batches up to this many events are sorted in place.
  static constexpr std::size_t kInPlaceSortMax = 32;

  void merge_pending() const;
  /// Recomputes values_ from index `first` on, seeded with the entry just
  /// below it, and marks prefix_max_ stale from `first`.
  void refold_from(std::size_t first) const;
  /// Makes prefix_max_[0, upto) valid by continuing the running max.
  void extend_prefix_max(std::size_t upto) const;

  /// First index k with times_[k] > t, i.e. t's value is values_[k-1].
  [[nodiscard]] std::size_t upper_index(double t) const;

  // Unmerged add() events, in call order.
  mutable std::vector<Event> pending_;
  // SoA breakpoint storage, sorted by time, one entry per distinct instant.
  mutable std::vector<double> times_;
  mutable std::vector<double> deltas_;      // combined delta applied at times_[k]
  mutable std::vector<double> values_;      // prefix sum: value on [times_[k], times_[k+1])
  mutable std::vector<double> prefix_max_;  // running max of values_[0..k]
  mutable std::size_t max_valid_{0};        // prefix_max_[0, max_valid_) is current
};

}  // namespace gridbw
