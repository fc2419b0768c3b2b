// Unit tests for the --key=value flag parser.

#include "util/flags.hpp"

#include <gtest/gtest.h>

#include "util/parse.hpp"

namespace gridbw {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags{static_cast<int>(argv.size()), argv.data()};
}

TEST(Flags, ParsesKeyValue) {
  // Python float reprs, as bench/suite/run.py writes --seconds and --scale.
  const Flags f = parse({"--load=2.5", "--name=fig4", "--seconds=2.6666666666666665",
                         "--scale=0.05", "--tiny=1e-05", "--whole=1"});
  EXPECT_TRUE(f.has("load"));
  EXPECT_DOUBLE_EQ(f.get_double("load", 0.0), 2.5);
  EXPECT_EQ(f.get_string("name", ""), "fig4");
  EXPECT_DOUBLE_EQ(f.get_double("seconds", 0.0), 2.6666666666666665);
  EXPECT_DOUBLE_EQ(f.get_double("scale", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(f.get_double("tiny", 0.0), 1e-05);
  EXPECT_DOUBLE_EQ(f.get_double("whole", 0.0), 1.0);
}

TEST(Flags, BareFlagIsTrue) {
  const Flags f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags f = parse({});
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(f.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, IntParsing) {
  const Flags f = parse({"--reps=32", "--neg=-7"});
  EXPECT_EQ(f.get_int("reps", 0), 32);
  EXPECT_EQ(f.get_int("neg", 0), -7);
}

TEST(Flags, BoolVariants) {
  const Flags f = parse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
  EXPECT_FALSE(f.get_bool("e", true));
}

TEST(Flags, DoubleList) {
  const Flags f = parse({"--f=0.2,0.5,0.8"});
  EXPECT_EQ(f.get_double_list("f", {}), (std::vector<double>{0.2, 0.5, 0.8}));
}

TEST(Flags, DoubleListFallback) {
  const Flags f = parse({});
  EXPECT_EQ(f.get_double_list("f", {1.0}), (std::vector<double>{1.0}));
}

TEST(Flags, PositionalArgumentsCollected) {
  const Flags f = parse({"pos1", "--k=v", "pos2"});
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(Flags, RejectsTrailingJunkAndNonFiniteValues) {
  // A value parses only as a whole: no numeric prefix ("4x"), no
  // non-finite number, no out-of-range integer, no leading space or hex.
  const Flags f = parse({"--ports=4x", "--name=abc", "--empty=", "--huge=99999999999999999999",
                         "--rate=1.5e", "--inf=inf", "--nan=nan", "--big=1e999",
                         "--space= 3", "--hex=0x10", "--flag=maybe", "--list=0.2,x"});
  EXPECT_THROW((void)f.get_int("ports", 0), ValueError);
  EXPECT_THROW((void)f.get_int("name", 0), ValueError);
  EXPECT_THROW((void)f.get_int("empty", 0), ValueError);
  EXPECT_THROW((void)f.get_int("huge", 0), ValueError);
  EXPECT_THROW((void)f.get_int("space", 0), ValueError);
  EXPECT_THROW((void)f.get_int("hex", 0), ValueError);
  EXPECT_THROW((void)f.get_double("rate", 0.0), ValueError);
  EXPECT_THROW((void)f.get_double("inf", 0.0), ValueError);
  EXPECT_THROW((void)f.get_double("nan", 0.0), ValueError);
  EXPECT_THROW((void)f.get_double("big", 0.0), ValueError);
  EXPECT_THROW((void)f.get_double("ports", 0.0), ValueError);
  EXPECT_THROW((void)f.get_bool("flag", false), ValueError);
  EXPECT_THROW((void)f.get_double_list("list", {}), ValueError);
  try {
    (void)f.get_int("ports", 0);
  } catch (const ValueError& e) {
    EXPECT_EQ(e.key(), "--ports");
    EXPECT_NE(std::string{e.what()}.find("'4x'"), std::string::npos) << e.what();
  }
}

TEST(Flags, RequireKnownNamesTheFirstUnknownFlag) {
  const Flags f = parse({"--seed=5", "pos", "--seeds=5", "--rigid"});
  EXPECT_NO_THROW(f.require_known({"seed", "seeds", "rigid"}));
  try {
    f.require_known({"seed", "slack"});
    FAIL() << "unknown flags accepted";
  } catch (const ValueError& e) {
    // Keys are checked in sorted order: --rigid before --seeds.
    EXPECT_EQ(e.key(), "--rigid");
  }
  EXPECT_THROW(f.require_known({}), ValueError);
  EXPECT_NO_THROW(parse({"pos"}).require_known({}));
}

TEST(ParseUint, FullRangeAndNoSign) {
  EXPECT_EQ(parse_uint("id", "0"), 0u);
  EXPECT_EQ(parse_uint("id", "18446744073709551615"), 18446744073709551615ULL);
  for (const char* bad : {"-1", "-0", "+1", "18446744073709551616", "1e3", "2.0", " 1", ""}) {
    EXPECT_THROW((void)parse_uint("id", bad), ValueError) << bad;
  }
}

TEST(Flags, LastValueWins) {
  const Flags f = parse({"--x=1", "--x=2"});
  EXPECT_EQ(f.get_int("x", 0), 2);
}

}  // namespace
}  // namespace gridbw
