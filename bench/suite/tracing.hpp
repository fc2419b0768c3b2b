// Suite-side tracing for gridbw-bench's traced runs: spans recorded around
// each public library call, and an admission-event sink.
//
// Spans come from the suite's own timestamps, not from inside the library,
// so the untraced reps time exactly the same calls without them.

#pragma once

#include <cstddef>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "util/quantity.hpp"

namespace gridbw::bench_suite {

struct Span {
  std::string name;
  /// Index of the enclosing span in the same log; -1 for a root.
  std::ptrdiff_t parent{-1};
  double start_s{0.0};
  double end_s{0.0};
};

/// In-memory span log, written out once the process ends.
class SpanLog {
 public:
  /// Appends a span and returns its index (the parent id of later spans).
  std::ptrdiff_t add(std::string name, std::ptrdiff_t parent, double start_s,
                     double end_s) {
    spans_.push_back(Span{std::move(name), parent, start_s, end_s});
    return static_cast<std::ptrdiff_t>(spans_.size()) - 1;
  }
  void set_end(std::ptrdiff_t index, double end_s) {
    spans_.at(static_cast<std::size_t>(index)).end_s = end_s;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One accepted allocation as the trace reports it.
struct AcceptedGrant {
  RequestId request{0};
  TimePoint sigma;
  Bandwidth bw;
};

/// Forwards every event to a JSONL sink whose output is discarded (so the
/// traced run pays the real formatting cost without touching the disk),
/// counts events, and keeps every accepted grant so the churn workload can
/// rebuild its schedule from the trace.
class CollectingSink final : public obs::TraceSink {
 public:
  CollectingSink() = default;

  void record(const obs::AdmissionEvent& event) override {
    jsonl_.record(event);
    std::scoped_lock lk{mutex_};
    ++events_;
    if (event.kind == obs::EventKind::kAccepted) {
      accepted_.push_back(AcceptedGrant{event.request, event.sigma, event.bw});
    }
  }
  void annotate(std::string_view key, std::string_view value) override {
    jsonl_.annotate(key, value);
  }

  /// Read only after the traced call has returned.
  [[nodiscard]] std::size_t events() const {
    std::scoped_lock lk{mutex_};
    return events_;
  }
  [[nodiscard]] std::vector<AcceptedGrant> take_accepted() {
    std::scoped_lock lk{mutex_};
    return std::move(accepted_);
  }

 private:
  /// Accepts and drops every byte.
  class NullBuffer final : public std::streambuf {
   protected:
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  };

  NullBuffer buffer_;
  std::ostream discard_{&buffer_};
  obs::JsonlSink jsonl_{discard_};
  mutable std::mutex mutex_;
  std::size_t events_{0};                // gridbw:guarded_by(mutex_)
  std::vector<AcceptedGrant> accepted_;  // gridbw:guarded_by(mutex_)
};

/// Everything one traced rep attaches: a fresh counter registry and sink.
struct Tracer {
  obs::CounterRegistry counters;
  CollectingSink sink;
  obs::Observer observer{&sink, &counters};
};

}  // namespace gridbw::bench_suite
