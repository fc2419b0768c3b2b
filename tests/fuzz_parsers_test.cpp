// Robustness fuzzing for every text-input surface: the message parser, the
// trace reader, the schedule reader, the config parser, command-line flags,
// and the scheduler spec parser. Property: arbitrary garbage never crashes, never corrupts —
// it either parses cleanly or reports failure through the documented
// channel (nullopt / exception). Messages are also fuzzed from valid ones,
// one bad field at a time: whatever the parser accepts must round-trip bit
// for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

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

/// A double with all 17 significant digits, of magnitude 10^-3 to 10^12.
double random_magnitude(Rng& rng) {
  const auto exponent = static_cast<double>(rng.uniform_int(-3, 12));
  return rng.uniform(1.0, 10.0) * std::pow(10.0, exponent);
}

/// Small ids half the time, any 64-bit value otherwise.
std::uint64_t random_id(Rng& rng) {
  if (rng.bernoulli(0.5)) return static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  const auto half = [&] {
    return static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffff));
  };
  return (half() << 32) | half();
}

/// A valid message of a random kind, from random fields.
control::Message random_message(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      Request r;
      r.id = random_id(rng);
      r.ingress = IngressId{random_id(rng)};
      r.egress = EgressId{random_id(rng)};
      do {
        r.release = TimePoint::at_seconds(random_magnitude(rng));
        r.deadline = r.release + Duration::seconds(random_magnitude(rng));
        r.volume = Volume::bytes(random_magnitude(rng));
        r.max_rate = r.min_rate() * rng.uniform(1.0, 4.0);
      } while (!r.is_well_formed());
      return control::ResvMessage{r};
    }
    case 1:
      return control::GrantMessage{random_id(rng),
                                   TimePoint::at_seconds(random_magnitude(rng)),
                                   Bandwidth::bytes_per_second(random_magnitude(rng))};
    case 2: {
      static const char* kReasons[] = {"ingress-full", "egress-full", "egress-conflict",
                                       "deadline-infeasible"};
      const auto k = rng.uniform_int(0, std::size(kReasons) - 1);
      return control::RejectMessage{random_id(rng), kReasons[k]};
    }
    default:
      return control::TearMessage{random_id(rng), EgressId{random_id(rng)},
                                  Bandwidth::bytes_per_second(random_magnitude(rng))};
  }
}

/// Every field of a message, doubles bit for bit (so -0 is not 0 and no
/// tolerance applies, unlike ResvMessage's operator==).
struct RawMessage {
  std::size_t kind{0};
  std::vector<std::uint64_t> bits;
  std::string text;
  bool operator==(const RawMessage&) const = default;
};

RawMessage raw(const control::Message& message) {
  RawMessage out{message.index(), {}, {}};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (const auto* m = std::get_if<control::ResvMessage>(&message)) {
    const Request& r = m->request;
    out.bits = {r.id,
                r.ingress.value,
                r.egress.value,
                bits(r.release.to_seconds()),
                bits(r.deadline.to_seconds()),
                bits(r.volume.to_bytes()),
                bits(r.max_rate.to_bytes_per_second())};
  } else if (const auto* g = std::get_if<control::GrantMessage>(&message)) {
    out.bits = {g->id, bits(g->start.to_seconds()), bits(g->bw.to_bytes_per_second())};
  } else if (const auto* j = std::get_if<control::RejectMessage>(&message)) {
    out.bits = {j->id};
    out.text = j->reason;
  } else {
    const auto& t = std::get<control::TearMessage>(message);
    out.bits = {t.id, t.egress.value, bits(t.bw.to_bytes_per_second())};
  }
  return out;
}

/// `line` with the value of its `field`-th "key=value" part replaced.
std::string mutate_field(const std::string& line, std::size_t field,
                         const std::string& value) {
  std::vector<std::string> parts;
  std::stringstream ss{line};
  for (std::string part; std::getline(ss, part, '|');) parts.push_back(part);
  std::string& target = parts.at(field + 1);
  target = target.substr(0, target.find('=') + 1) + value;
  std::string out = parts.front();
  for (std::size_t k = 1; k < parts.size(); ++k) out += "|" + parts[k];
  return out;
}

enum class FieldKind { kCount, kNumber, kText };  // an id or port, a double, free text

/// The kind of each "key=value" field of `line`, in order.
std::vector<FieldKind> field_kinds(const std::string& line) {
  std::vector<FieldKind> kinds;
  std::stringstream ss{line};
  std::string part;
  std::getline(ss, part, '|');  // the message kind
  while (std::getline(ss, part, '|')) {
    const std::string key = part.substr(0, part.find('='));
    if (key == "id" || key == "in" || key == "out" || key == "egress") {
      kinds.push_back(FieldKind::kCount);
    } else {
      kinds.push_back(key == "reason" ? FieldKind::kText : FieldKind::kNumber);
    }
  }
  return kinds;
}

TEST_P(ParserFuzz, WholeMessagesRoundTripFieldByField) {
  // Values a well-formed message can carry in one bad field: non-finite numbers,
  // -0, the edges of the double range, negative, overflowing and 17-digit
  // ids, and near-miss spellings.
  struct Token {
    const char* text;
    bool number;  // a number field may accept it
    bool count;   // an id or port field may accept it
  };
  static const Token kTokens[] = {
      {"nan", false, false},   {"-nan", false, false},  {"inf", false, false},
      {"-inf", false, false},  {"1e309", false, false}, {"-1e309", false, false},
      {"", false, false},      {"1e", false, false},    {"-0", true, false},
      {"0", true, true},       {"1e308", true, false},  {"-1e308", true, false},
      {"1.7976931348623157e308", true, false},
      {"4.9406564584124654e-324", true, false},
      {"-1", true, false},     {"-42", true, false},
      {"18446744073709551615", true, true},
      {"18446744073709551616", true, false},
      {"99999999999999999999", true, false},
      {"12345678901234567", true, true},
      {"1234.5678901234567", true, false},
      {"0.12345678901234567", true, false},
      {"+5", true, false},     {" 5", true, false},     {"0x1p3", true, false},
      {"007", true, true}};
  constexpr int kMessages = 500;
  // Each valid message round-trips, and so does every mutant the parser
  // accepts (about 32 per message on these seeds); the floor keeps the fuzz
  // from going vacuous again.
  constexpr std::size_t kMinRoundTrips = 20 * kMessages;

  Rng rng{GetParam() + 6};
  std::size_t round_trips = 0;
  const auto expect_round_trip = [&](const control::Message& parsed,
                                     const std::string& line) {
    const auto again = control::parse_message(control::serialize(parsed));
    ASSERT_TRUE(again.has_value()) << line;
    EXPECT_EQ(raw(*again), raw(parsed)) << line;
    ++round_trips;
  };

  for (int i = 0; i < kMessages; ++i) {
    const control::Message message = random_message(rng);
    const std::string line = control::serialize(message);
    const auto parsed = control::parse_message(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(raw(*parsed), raw(message)) << line;
    expect_round_trip(*parsed, line);

    const std::vector<FieldKind> kinds = field_kinds(line);
    for (std::size_t field = 0; field < kinds.size(); ++field) {
      for (const Token& token : kTokens) {
        const std::string mutant = mutate_field(line, field, token.text);
        const auto accepted = control::parse_message(mutant);
        if (!accepted.has_value()) continue;
        if (kinds[field] == FieldKind::kCount) {
          EXPECT_TRUE(token.count) << mutant;
        } else if (kinds[field] == FieldKind::kNumber) {
          EXPECT_TRUE(token.number) << mutant;
        }
        expect_round_trip(*accepted, mutant);
      }
    }
  }
  EXPECT_GE(round_trips, kMinRoundTrips);
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
