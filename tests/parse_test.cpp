// Tests for the textual scheduler-spec parser.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "heuristics/parse.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw::heuristics {
namespace {

TEST(ParseScheduler, RigidKinds) {
  EXPECT_EQ(parse_scheduler("fcfs").name, "FCFS");
  EXPECT_EQ(parse_scheduler("cumulated").name, "CUMULATED-SLOTS");
  EXPECT_EQ(parse_scheduler("minbw").name, "MINBW-SLOTS");
  EXPECT_EQ(parse_scheduler("minvol").name, "MINVOL-SLOTS");
}

TEST(ParseScheduler, GreedyVariants) {
  EXPECT_EQ(parse_scheduler("greedy:minrate").name, "greedy/minrate");
  EXPECT_EQ(parse_scheduler("greedy:f=0.8").name, "greedy/f=0.80");
  EXPECT_EQ(parse_scheduler("greedy:").name, "greedy/minrate");  // default
}

TEST(ParseScheduler, WindowVariants) {
  EXPECT_EQ(parse_scheduler("window:step=400,f=1").name, "window400/f=1.00");
  EXPECT_EQ(parse_scheduler("window:step=100,minrate").name, "window100/minrate");
  EXPECT_EQ(parse_scheduler("window:").name, "window400/minrate");  // defaults
  // hotspot weight is accepted and does not change the display name
  EXPECT_EQ(parse_scheduler("window:step=200,f=0.5,hotspot=1.5").name,
            "window200/f=0.50");
}

TEST(ParseScheduler, MalleableVariants) {
  EXPECT_EQ(parse_scheduler("mgreedy:minrate").name, "mgreedy/minrate");
  EXPECT_EQ(parse_scheduler("mgreedy:").name, "mgreedy/minrate");  // default
  EXPECT_EQ(parse_scheduler("mgreedy:rigid").name, "mgreedy/minrate-rigid");
  EXPECT_EQ(parse_scheduler("mwindow:step=400,f=1").name, "mwindow400/f=1.00");
  EXPECT_EQ(parse_scheduler("mwindow:").name, "mwindow400/minrate");  // defaults
  EXPECT_EQ(parse_scheduler("mwindow:step=100,rigid").name,
            "mwindow100/minrate-rigid");
  EXPECT_THROW((void)parse_scheduler("mwindow:step=0"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("mgreedy:step=100"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("mgreedy:rigid=1"), std::invalid_argument);
}

TEST(ParseScheduler, BookAheadVariant) {
  const auto s = parse_scheduler("bookahead:step=100,ahead=3,f=0.8");
  EXPECT_EQ(s.name, "bookahead100x3/f=0.80");
}

TEST(ParseScheduler, ErrorsNameTheProblem) {
  EXPECT_THROW((void)parse_scheduler("unknown"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("fcfs:step=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("window:step=-5"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("window:step=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("window:bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("greedy:f=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("greedy:minrate,f=0.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("greedy:f=0.5,f=0.8"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("bookahead:ahead=-1"), std::invalid_argument);
  // Non-finite numbers are refused.
  EXPECT_THROW((void)parse_scheduler("window:step=nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("window:step=inf"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("window:hotspot=nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheduler("bookahead:ahead=nan"), std::invalid_argument);
}

/// The message parse_scheduler(spec) throws, or "" if it accepts the spec.
std::string rejection(const std::string& spec) {
  try {
    (void)parse_scheduler(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParseScheduler, ZeroFractionIsRejectedNotReadAsMinRate) {
  // 0 used to be the "no f given" sentinel, so f=0 silently meant MinRate.
  for (const char* spec : {"greedy:f=0", "mgreedy:f=-0", "window:minrate,f=0",
                           "bookahead:f=0.0"}) {
    EXPECT_NE(rejection(spec).find("f must be in (0, 1]"), std::string::npos) << spec;
  }
  EXPECT_NE(rejection("greedy:f=-0.5").find("f must be in (0, 1]"), std::string::npos);
}

TEST(ParseScheduler, NumbersAreStrictDecimals) {
  // std::stod read hex floats; the strict parser of util/parse.hpp does not.
  for (const char* spec : {"mgreedy:f=0x1p-3", "window:step=0x10", "window:step= 5",
                           "mwindow:step=1e400", "window:hotspot=0x1"}) {
    EXPECT_NE(rejection(spec).find("is not a finite number"), std::string::npos) << spec;
  }
  EXPECT_EQ(parse_scheduler("mgreedy:f=0.25").name, "mgreedy/f=0.25");
}

TEST(ParseScheduler, BookAheadDepthIsAnInteger) {
  // ahead=2.5 used to truncate to 2, and ahead=1e300 overflowed the cast
  // to size_t.
  for (const char* spec : {"bookahead:ahead=2.5", "bookahead:ahead=1e300",
                           "bookahead:ahead=4.0", "bookahead:ahead=abc"}) {
    EXPECT_NE(rejection(spec).find("'ahead' is not an integer"), std::string::npos) << spec;
  }
  EXPECT_NE(rejection("bookahead:ahead=-1").find("ahead must be >= 0"), std::string::npos);
  EXPECT_EQ(parse_scheduler("bookahead:step=100,ahead=0").name, "bookahead100x0/minrate");
}

TEST(ParseScheduler, BookAheadNameKeepsLargeSteps) {
  // The name used to go through static_cast<int>(step), which overflowed.
  EXPECT_EQ(parse_scheduler("bookahead:step=3e9,ahead=8").name,
            "bookahead3000000000x8/minrate");
  EXPECT_EQ(parse_scheduler("bookahead:step=400").name, "bookahead400x4/minrate");
}

TEST(ParseScheduler, GrammarMentionsEveryKind) {
  const std::string grammar = scheduler_grammar();
  for (const char* kind : {"fcfs", "cumulated", "minbw", "minvol", "greedy", "window",
                           "bookahead"}) {
    EXPECT_NE(grammar.find(kind), std::string::npos) << kind;
  }
}

TEST(ParseScheduler, ParsedSchedulersActuallyRun) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(2), Duration::seconds(200), 4.0);
  Rng rng{501};
  const auto requests = workload::generate(scenario.spec, rng);
  for (const char* spec :
       {"fcfs", "cumulated", "minbw", "minvol", "greedy:f=1", "greedy:minrate",
        "window:step=50,f=0.8", "window:step=50,minrate,hotspot=1",
        "bookahead:step=50,ahead=3,f=1"}) {
    const auto scheduler = parse_scheduler(spec);
    const auto result = scheduler.run(scenario.network, requests);
    EXPECT_EQ(result.accepted_count() + result.rejected.size(), requests.size())
        << spec;
    const auto report =
        validate_schedule(scenario.network, requests, result.schedule);
    EXPECT_TRUE(report.ok()) << spec << ":\n" << report.to_string();
  }
}

}  // namespace
}  // namespace gridbw::heuristics
