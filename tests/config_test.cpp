// Tests for the INI-style config parser.

#include <gtest/gtest.h>

#include "util/config.hpp"
#include "util/parse.hpp"

namespace gridbw {
namespace {

TEST(Config, ParsesSectionsAndKeys) {
  const auto cfg = Config::parse_string(
      "[workload]\n"
      "interarrival = 2.5\n"
      "horizon=1200\n"
      "\n"
      "[scheduler]\n"
      "spec = window:step=400,f=0.8\n");
  EXPECT_TRUE(cfg.has("workload.interarrival"));
  EXPECT_DOUBLE_EQ(cfg.get_double("workload.interarrival", 0.0), 2.5);
  EXPECT_EQ(cfg.get_int("workload.horizon", 0), 1200);
  EXPECT_EQ(cfg.get_string("scheduler.spec", ""), "window:step=400,f=0.8");
}

TEST(Config, KeysOutsideSectionsAreBare) {
  const auto cfg = Config::parse_string("top = 1\n[s]\ninner = 2\n");
  EXPECT_EQ(cfg.get_int("top", 0), 1);
  EXPECT_EQ(cfg.get_int("s.inner", 0), 2);
}

TEST(Config, CommentsAndWhitespace) {
  const auto cfg = Config::parse_string(
      "# full-line comment\n"
      "  [  main ]  \n"
      "key = value   ; trailing comment\n"
      "   spaced   =   out   \n");
  EXPECT_EQ(cfg.get_string("main.key", ""), "value");
  EXPECT_EQ(cfg.get_string("main.spaced", ""), "out");
}

TEST(Config, FallbacksWhenAbsent) {
  const auto cfg = Config::parse_string("");
  EXPECT_FALSE(cfg.has("nope"));
  EXPECT_FALSE(cfg.get("nope").has_value());
  EXPECT_EQ(cfg.get_string("nope", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 1.5), 1.5);
  EXPECT_EQ(cfg.get_int("nope", -3), -3);
  EXPECT_TRUE(cfg.get_bool("nope", true));
}

TEST(Config, BooleanSpellings) {
  const auto cfg = Config::parse_string(
      "a=true\nb=YES\nc=on\nd=1\ne=false\nf=No\ng=off\nh=0\n");
  for (const char* key : {"a", "b", "c", "d"}) EXPECT_TRUE(cfg.get_bool(key, false));
  for (const char* key : {"e", "f", "g", "h"}) EXPECT_FALSE(cfg.get_bool(key, true));
}

TEST(Config, TypeErrorsThrow) {
  const auto cfg = Config::parse_string(
      "x = abc\ny = 1.5z\nz = maybe\n[w]\nh = inf\ni = nan\nk = 1e999\n");
  EXPECT_THROW((void)cfg.get_double("x", 0.0), std::runtime_error);
  EXPECT_THROW((void)cfg.get_int("y", 0), std::runtime_error);
  EXPECT_THROW((void)cfg.get_bool("z", false), std::runtime_error);
  // Non-finite numbers are rejected too, and the error names the key.
  for (const char* key : {"w.h", "w.i", "w.k"}) {
    try {
      (void)cfg.get_double(key, 0.0);
      ADD_FAILURE() << key << " parsed";
    } catch (const ValueError& e) {
      EXPECT_EQ(e.key(), key);
    }
  }
}

TEST(Config, MalformedLinesThrowWithLineNumber) {
  try {
    (void)Config::parse_string("ok = 1\nnot a key value\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
  EXPECT_THROW((void)Config::parse_string("[unclosed\n"), std::runtime_error);
  EXPECT_THROW((void)Config::parse_string("[]\n"), std::runtime_error);
  EXPECT_THROW((void)Config::parse_string("= value\n"), std::runtime_error);
}

TEST(Config, DuplicateKeysRejected) {
  EXPECT_THROW((void)Config::parse_string("[s]\na=1\na=2\n"), std::runtime_error);
  // Same key in different sections is fine.
  EXPECT_NO_THROW((void)Config::parse_string("[s]\na=1\n[t]\na=2\n"));
}

TEST(Config, KeysPreserveFileOrder) {
  const auto cfg = Config::parse_string("[b]\nz=1\n[a]\ny=2\nx=3\n");
  EXPECT_EQ(cfg.keys(), (std::vector<std::string>{"b.z", "a.y", "a.x"}));
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW((void)Config::parse_file("/nonexistent/gridbw.ini"), std::runtime_error);
}

}  // namespace
}  // namespace gridbw
