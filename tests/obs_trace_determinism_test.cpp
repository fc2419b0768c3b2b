// Determinism wall for the observability layer: with the same seed, the
// JSONL trace and the counter snapshot are byte-identical across repeat
// runs, validation included (the validator emits counters only, never
// events).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

struct TracedRun {
  std::string trace;
  std::array<std::uint64_t, obs::kCounterCount> counters{};
};

/// Runs the whole Fig. 4 lineup over a seeded workload with a JSONL sink
/// attached, validating each schedule, and returns the full trace text plus
/// the merged counter snapshot.
TracedRun traced_run(std::uint64_t seed) {
  workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(600));
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 4.0);
  Rng rng{seed};
  const auto requests = workload::generate(scenario.spec, rng);

  std::ostringstream out;
  obs::JsonlSink sink{out};
  obs::CounterRegistry counters;
  obs::Observer observer{&sink, &counters};

  for (const auto& h : heuristics::rigid_schedulers()) {
    sink.annotate("scheduler", h.name);
    const auto result = h.run(scenario.network, requests, &observer);
    ValidateOptions options;
    options.observer = &observer;
    const auto report = validate_assignments(scenario.network, requests,
                                             result.schedule.assignments(), options);
    EXPECT_TRUE(report.ok());
  }
  sink.flush();
  return TracedRun{out.str(), counters.snapshot()};
}

TEST(TraceDeterminism, RepeatRunsAreByteIdentical) {
  const TracedRun a = traced_run(42);
  const TracedRun b = traced_run(42);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(TraceDeterminism, DifferentSeedsProduceDifferentTraces) {
  const TracedRun a = traced_run(42);
  const TracedRun b = traced_run(43);
  EXPECT_NE(a.trace, b.trace);
}

}  // namespace
}  // namespace gridbw
