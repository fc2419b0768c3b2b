// gridbw/obs/trace_sink.hpp
//
// Where structured admission events go. The sink contract:
//
//  * `record` may be called from any thread; implementations serialize
//    internally. Schedulers themselves are single-threaded, so events from
//    one run arrive in decision order; concurrent runs sharing one sink
//    interleave at record granularity.
//  * `annotate` emits an out-of-band key/value marker (scheduler name, seed,
//    workload id) so one stream can carry several runs.
//  * Determinism: neither implementation below stamps wall-clock time into
//    the stream by default — two runs with the same seed produce
//    byte-identical JSONL. `JsonlSink` can optionally prepend one wall-clock
//    meta line (`stamp_wallclock`), the single sanctioned use of real time
//    in the library (see gridbw-lint's wall-clock rule).
//
// JSONL schema (one object per line, validated by
// scripts/trace_schema_check.py and DESIGN.md §5e):
//
//   {"event":"submitted","req":7,"t":12.5,"attempt":1}
//   {"event":"accepted","req":7,"t":12.5,"attempt":1,"sigma":12.5,"bw":1e+08}
//   {"event":"rejected","req":9,"t":13.0,"attempt":1,"reason":"egress_saturated"}
//   {"event":"retried","req":9,"t":13.0,"attempt":2,"backoff":60}
//   {"event":"preempted","req":4,"t":200.0}
//   {"event":"reclaimed","req":7,"t":62.5,"bw":1e+08}
//   {"event":"expired","req":3,"t":75.0,"bw":1e+08}
//   {"event":"revoked","req":5,"t":80.0,"reason":"retro_removed","bw":1e+08}
//   {"event":"meta","key":"scheduler","value":"FCFS"}

#pragma once

#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace gridbw::obs {

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;

  /// Records one admission event. Thread-safe.
  virtual void record(const AdmissionEvent& event) = 0;

  /// Emits an out-of-band marker (run boundaries, scheduler names, seeds).
  virtual void annotate(std::string_view key, std::string_view value) = 0;

  /// Flushes buffered output (no-op for in-memory sinks).
  virtual void flush() {}
};

/// Collects events in memory, for tests and programmatic inspection.
class MemorySink final : public TraceSink {
 public:
  void record(const AdmissionEvent& event) override;
  void annotate(std::string_view key, std::string_view value) override;

  /// Events in record order. Do not call concurrently with writers.
  [[nodiscard]] const std::vector<AdmissionEvent>& events() const { return events_; }
  /// Annotations in record order, as (key, value) pairs.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& annotations()
      const {
    return annotations_;
  }

  /// Number of events of `kind` recorded so far.
  [[nodiscard]] std::size_t count(EventKind kind) const;
  /// Number of rejections recorded with `reason`.
  [[nodiscard]] std::size_t count(RejectReason reason) const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<AdmissionEvent> events_;  // guarded by mutex_
  std::vector<std::pair<std::string, std::string>> annotations_;  // guarded by mutex_
};

struct JsonlSinkOptions {
  /// Prepend one `{"event":"meta","key":"wallclock",...}` line with the
  /// real-world ISO-8601 time the sink was opened. Off by default: the
  /// stream stays byte-identical across runs with the same seed.
  bool stamp_wallclock{false};
};

/// Streams events as JSON Lines to an ostream (or an owned file).
class JsonlSink final : public TraceSink {
 public:
  using Options = JsonlSinkOptions;

  /// Writes to `out`; the stream must outlive the sink.
  explicit JsonlSink(std::ostream& out, const Options& options = {});
  /// Opens `path` for writing (truncates). Throws std::runtime_error when
  /// the file cannot be opened.
  explicit JsonlSink(const std::string& path, const Options& options = {});
  ~JsonlSink() override;

  void record(const AdmissionEvent& event) override;
  void annotate(std::string_view key, std::string_view value) override;
  void flush() override;

  /// Formats one event exactly as `record` writes it (minus the newline).
  /// Exposed so the schema test and the docs stay honest.
  [[nodiscard]] static std::string format(const AdmissionEvent& event);

 private:
  void write_line(const std::string& line);

  std::ofstream owned_;
  std::ostream* out_;
  std::mutex mutex_;
};

}  // namespace gridbw::obs
