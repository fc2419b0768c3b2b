// gridbw/obs/counters.hpp
//
// Lock-free-ish counter registry for the observability layer. Increments go
// to a per-thread shard (one relaxed atomic add, no lock on the hot path
// after a thread's first touch); reads merge every shard. The merge is
// deterministic regardless of thread scheduling because 64-bit addition is
// commutative and shards only ever grow — the same workload produces the
// same totals whether it ran serially or on the shared ThreadPool
// (tests/tsan_stress_test.cpp hammers this under TSan).
//
// The counter taxonomy is a fixed enum so shards are flat arrays; adding a
// counter means adding an enum entry and a name in counters.cpp.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gridbw::obs {

enum class Counter : std::size_t {
  // Admission lifecycle (bumped by the Observer note_* helpers).
  kSubmitted,
  kAccepted,
  kRejected,
  kRetried,
  kPreempted,
  kReclaimed,
  kExpired,
  kRevoked,
  kReshaped,
  // Ledger activity (bumped by the instrumented ledgers).
  kLedgerFitsChecks,
  kLedgerFitsRejected,
  kLedgerReservations,
  kLedgerReleases,
  // Counter-book anomaly: a reclaim drove a port counter below zero by more
  // than the admission tolerance (a mismatched allocate/reclaim pair).
  kLedgerDriftClamped,
  // TimelineProfile breakpoint GC (NetworkLedger / churn service):
  // per-port compaction passes and the breakpoints they folded away.
  kProfileCompactions,
  kBreakpointsRetired,
  // WINDOW selection drains (heuristics/window_select): one per non-empty
  // interval batch, `window` and `mwindow` alike. The name predates the
  // single engine and is kept because bench reports derive
  // candidates_per_drain from it.
  kWindowHeapDrains,
  // Validator activity.
  kValidatorRuns,
  kValidatorAssignments,
  kValidatorViolations,
  // Retry-engine invariant: residual port occupancy (bytes/s, rounded)
  // after the final completion drain. Must be zero — tests assert it.
  kRetryResidualBps,
  kCount,  // sentinel: number of counters
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case identifier ("submitted", "ledger_fits_checks", ...).
[[nodiscard]] std::string to_string(Counter counter);

class CounterRegistry {
 public:
  CounterRegistry();
  ~CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Adds `delta` to `counter` on the calling thread's shard. After a
  /// thread's first touch of this registry the cost is one cached pointer
  /// compare plus one relaxed atomic add.
  void add(Counter counter, std::uint64_t delta = 1);

  /// Overwrites the calling thread's shard cell (used for gauge-style
  /// counters such as the retry engine's residual occupancy).
  void set(Counter counter, std::uint64_t value);

  /// Merged total across every shard. Safe to call concurrently with
  /// writers; the value is a consistent lower bound of in-flight activity
  /// and exact once writers have quiesced.
  [[nodiscard]] std::uint64_t value(Counter counter) const;

  /// Merged totals for all counters, indexed by Counter.
  [[nodiscard]] std::array<std::uint64_t, kCounterCount> snapshot() const;

  /// Zeroes every shard in place. Callers must ensure no concurrent writer.
  void reset();

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kCounterCount> cells{};
  };

  [[nodiscard]] Shard& local_shard() const;

  /// Registry identity for the per-thread shard cache. Monotonic across the
  /// process so a destroyed registry's id is never reused by a new one at
  /// the same address.
  std::uint64_t id_{0};
  mutable std::mutex mutex_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;  // guarded by mutex_
};

}  // namespace gridbw::obs
