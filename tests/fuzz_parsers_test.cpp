// Robustness fuzzing for every text-input surface: the message parser, the
// trace reader, the schedule reader, the config parser, command-line flags,
// and the scheduler spec parser. Property: arbitrary garbage never crashes, never corrupts —
// it either parses cleanly or reports failure through the documented
// channel (nullopt / exception).

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <sstream>
#include <string>

#include "control/messages.hpp"
#include "core/schedule_io.hpp"
#include "heuristics/parse.hpp"
#include "util/config.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "workload/trace.hpp"

namespace gridbw {
namespace {

/// Random printable-ish line, biased toward the tokens the parsers use so
/// the fuzz reaches deeper branches than pure noise would.
std::string random_line(Rng& rng) {
  static const char* kFragments[] = {
      "RESV",  "GRANT", "REJECT", "TEAR",  "id",   "in",    "out",  "ts",
      "tf",    "vol",   "max",    "start", "bw",   "reason", "=",   "|",
      ",",     ".",     "-",      "1e9",   "42",   "0.5",    "abc", "[s]",
      "key",   "value", "#",      ";",     "\t",   " ",      "window", "step",
      "greedy", "f",    "minrate", ":",    "1.5e300", "-7",  "nan",  "inf"};
  std::string line;
  const auto pieces = static_cast<std::size_t>(rng.uniform_int(0, 14));
  for (std::size_t p = 0; p < pieces; ++p) {
    line += kFragments[rng.uniform_int(0, std::size(kFragments) - 1)];
  }
  return line;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MessageParserNeverCrashes) {
  Rng rng{GetParam()};
  for (int i = 0; i < 2000; ++i) {
    const std::string line = random_line(rng);
    const auto parsed = control::parse_message(line);
    if (parsed.has_value()) {
      // Anything that parses must serialize back to something that parses
      // to the same message (round-trip stability).
      const auto again = control::parse_message(control::serialize(*parsed));
      ASSERT_TRUE(again.has_value()) << line;
      EXPECT_TRUE(*again == *parsed) << line;
    }
  }
}

TEST_P(ParserFuzz, TraceReaderThrowsCleanly) {
  Rng rng{GetParam() + 1};
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss;
    ss << "id,ingress,egress,release_s,deadline_s,volume_bytes,max_rate_bps\n";
    const auto lines = rng.uniform_int(1, 4);
    for (int l = 0; l < lines; ++l) ss << random_line(rng) << "\n";
    try {
      const auto requests = workload::read_trace(ss);
      for (const Request& r : requests) EXPECT_TRUE(r.is_well_formed());
    } catch (const std::runtime_error&) {
      // documented failure channel
    }
  }
}

TEST_P(ParserFuzz, ScheduleReaderThrowsCleanly) {
  Rng rng{GetParam() + 2};
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss;
    ss << "request,start_s,bw_bps\n";
    const auto lines = rng.uniform_int(1, 4);
    for (int l = 0; l < lines; ++l) ss << random_line(rng) << "\n";
    try {
      (void)read_schedule(ss);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(ParserFuzz, ConfigParserThrowsCleanly) {
  Rng rng{GetParam() + 3};
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const auto lines = rng.uniform_int(0, 6);
    for (int l = 0; l < lines; ++l) text += random_line(rng) + "\n";
    try {
      const auto cfg = Config::parse_string(text);
      for (const auto& key : cfg.keys()) EXPECT_TRUE(cfg.has(key));
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(ParserFuzz, FlagsThrowCleanly) {
  Rng rng{GetParam() + 5};
  for (int i = 0; i < 1000; ++i) {
    const std::string arg = "--k=" + random_line(rng);
    const char* argv[] = {"prog", arg.c_str()};
    const Flags flags{2, argv};
    // Every typed read either yields a value (finite, for numbers) or
    // throws the one documented ValueError.
    try {
      (void)flags.get_int("k", 0);
    } catch (const ValueError&) {
    }
    try {
      EXPECT_TRUE(std::isfinite(flags.get_double("k", 0.0))) << arg;
    } catch (const ValueError&) {
    }
    try {
      (void)flags.get_bool("k", false);
    } catch (const ValueError&) {
    }
    try {
      for (const double v : flags.get_double_list("k", {})) {
        EXPECT_TRUE(std::isfinite(v)) << arg;
      }
    } catch (const ValueError&) {
    }
  }
}

TEST_P(ParserFuzz, SchedulerSpecParserThrowsCleanly) {
  Rng rng{GetParam() + 4};
  for (int i = 0; i < 1000; ++i) {
    try {
      const auto scheduler = heuristics::parse_scheduler(random_line(rng));
      EXPECT_FALSE(scheduler.name.empty());
    } catch (const std::invalid_argument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(11000, 12000, 13000));

}  // namespace
}  // namespace gridbw
