// Tests for the replicated experiment harness: determinism across thread
// counts, metric aggregation, error propagation.

#include <gtest/gtest.h>

#include <atomic>

#include "metrics/experiment.hpp"

namespace gridbw::metrics {
namespace {

TEST(RunReplicated, AggregatesAcrossReplications) {
  ExperimentConfig cfg;
  cfg.replications = 10;
  cfg.threads = 1;
  const auto stats = run_replicated(cfg, [](Rng&, std::size_t rep) {
    return MetricBag{{"value", static_cast<double>(rep)}};
  });
  const auto& value = metric(stats, "value");
  EXPECT_EQ(value.count(), 10u);
  EXPECT_DOUBLE_EQ(value.mean(), 4.5);
  EXPECT_DOUBLE_EQ(value.min(), 0.0);
  EXPECT_DOUBLE_EQ(value.max(), 9.0);
}

TEST(RunReplicated, ParallelEqualsSerialBitForBit) {
  auto body = [](Rng& rng, std::size_t) {
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform01();
    return MetricBag{{"acc", acc}};
  };
  ExperimentConfig serial;
  serial.replications = 16;
  serial.threads = 1;
  ExperimentConfig parallel = serial;
  parallel.threads = 4;
  const auto a = run_replicated(serial, body);
  const auto b = run_replicated(parallel, body);
  EXPECT_DOUBLE_EQ(metric(a, "acc").mean(), metric(b, "acc").mean());
  EXPECT_DOUBLE_EQ(metric(a, "acc").variance(), metric(b, "acc").variance());
}

TEST(RunReplicated, DistinctReplicationsGetDistinctStreams) {
  ExperimentConfig cfg;
  cfg.replications = 8;
  cfg.threads = 1;
  const auto stats = run_replicated(cfg, [](Rng& rng, std::size_t) {
    return MetricBag{{"first", rng.uniform01()}};
  });
  // Eight independent draws cannot all coincide.
  EXPECT_GT(metric(stats, "first").stddev(), 0.0);
}

TEST(RunReplicated, SeedChangesResults) {
  auto body = [](Rng& rng, std::size_t) { return MetricBag{{"x", rng.uniform01()}}; };
  ExperimentConfig a;
  a.replications = 4;
  a.threads = 1;
  ExperimentConfig b = a;
  b.base_seed = a.base_seed + 1;
  EXPECT_NE(metric(run_replicated(a, body), "x").mean(),
            metric(run_replicated(b, body), "x").mean());
}

TEST(RunReplicated, MultipleMetricsPerBag) {
  ExperimentConfig cfg;
  cfg.replications = 3;
  cfg.threads = 1;
  const auto stats = run_replicated(cfg, [](Rng&, std::size_t rep) {
    return MetricBag{{"a", 1.0}, {"b", static_cast<double>(rep * 2)}};
  });
  EXPECT_DOUBLE_EQ(metric(stats, "a").mean(), 1.0);
  EXPECT_DOUBLE_EQ(metric(stats, "b").mean(), 2.0);
}

TEST(RunReplicated, PropagatesBodyExceptions) {
  ExperimentConfig cfg;
  cfg.replications = 4;
  cfg.threads = 2;
  EXPECT_THROW((void)run_replicated(cfg,
                                    [](Rng&, std::size_t rep) -> MetricBag {
                                      if (rep == 2) throw std::runtime_error{"boom"};
                                      return {};
                                    }),
               std::runtime_error);
}

TEST(RunReplicated, RejectsZeroReplications) {
  ExperimentConfig cfg;
  cfg.replications = 0;
  EXPECT_THROW((void)run_replicated(cfg, [](Rng&, std::size_t) { return MetricBag{}; }),
               std::invalid_argument);
}

/// "t<task>/r<rep>". Built by append: GCC 12 reports a false -Wrestrict on
/// `"t" + std::to_string(...)`.
std::string task_metric(std::size_t t, std::size_t rep) {
  return std::string{"t"}.append(std::to_string(t)).append("/r").append(std::to_string(rep));
}

TEST(RunReplicatedTasks, EveryTaskOfAReplicationSeesTheSameStream) {
  ExperimentConfig cfg;
  cfg.replications = 5;
  cfg.threads = 1;
  const auto out = run_replicated_tasks(cfg, 3, [](Rng& rng, std::size_t rep, std::size_t t) {
    return MetricBag{{task_metric(t, rep), rng.uniform01()}};
  });
  for (std::size_t rep = 0; rep < 5; ++rep) {
    const double first = metric(out.metrics, task_metric(0, rep)).mean();
    for (std::size_t t = 1; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(first, metric(out.metrics, task_metric(t, rep)).mean());
    }
  }
}

TEST(RunReplicatedTasks, ParallelEqualsSerialBitForBit) {
  auto body = [](Rng& rng, std::size_t, std::size_t t) {
    double acc = 0.0;
    for (std::size_t i = 0; i <= t * 10; ++i) acc += rng.uniform01();
    return MetricBag{{"acc" + std::to_string(t), acc}};
  };
  ExperimentConfig serial;
  serial.replications = 8;
  serial.threads = 1;
  ExperimentConfig parallel = serial;
  parallel.threads = 4;
  const auto a = run_replicated_tasks(serial, 3, body);
  const auto b = run_replicated_tasks(parallel, 3, body);
  for (std::size_t t = 0; t < 3; ++t) {
    const std::string name = "acc" + std::to_string(t);
    EXPECT_DOUBLE_EQ(metric(a.metrics, name).mean(), metric(b.metrics, name).mean());
    EXPECT_DOUBLE_EQ(metric(a.metrics, name).variance(),
                     metric(b.metrics, name).variance());
  }
}

TEST(RunReplicatedTasks, RecordsWallClockPerTask) {
  ExperimentConfig cfg;
  cfg.replications = 4;
  cfg.threads = 2;
  const auto out = run_replicated_tasks(cfg, 2, [](Rng&, std::size_t, std::size_t) {
    return MetricBag{{"x", 1.0}};
  });
  ASSERT_EQ(out.task_wall_seconds.size(), 2u);
  for (const auto& w : out.task_wall_seconds) {
    EXPECT_EQ(w.count(), 4u);          // one sample per replication
    EXPECT_GE(w.min(), 0.0);
  }
  EXPECT_EQ(metric(out.metrics, "x").count(), 8u);  // reps x tasks
}

TEST(RunReplicatedTasks, RejectsDegenerateGrids) {
  ExperimentConfig cfg;
  cfg.replications = 0;
  auto body = [](Rng&, std::size_t, std::size_t) { return MetricBag{}; };
  EXPECT_THROW((void)run_replicated_tasks(cfg, 2, body), std::invalid_argument);
  cfg.replications = 2;
  EXPECT_THROW((void)run_replicated_tasks(cfg, 0, body), std::invalid_argument);
}

TEST(Metric, ThrowsOnUnknownName) {
  MetricStats stats;
  stats["known"].add(1.0);
  EXPECT_NO_THROW((void)metric(stats, "known"));
  EXPECT_THROW((void)metric(stats, "typo"), std::out_of_range);
}

}  // namespace
}  // namespace gridbw::metrics
