#include "util/flags.h"

#include <gtest/gtest.h>

namespace springdtw {
namespace util {
namespace {

FlagParser MakeParser(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser flags = MakeParser({"--n=100", "--epsilon=2.5", "--name=chirp"});
  EXPECT_EQ(flags.GetInt64("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.0), 2.5);
  EXPECT_EQ(flags.GetString("name", ""), "chirp");
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser flags = MakeParser({"--n", "100", "--name", "chirp"});
  EXPECT_EQ(flags.GetInt64("n", 0), 100);
  EXPECT_EQ(flags.GetString("name", ""), "chirp");
}

TEST(FlagParserTest, BareFlagIsTrue) {
  FlagParser flags = MakeParser({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("quiet"));
}

TEST(FlagParserTest, BoolSpellings) {
  FlagParser flags = MakeParser({"--a=true", "--b=0", "--c=yes", "--d=no"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagParserTest, DefaultsWhenAbsentOrMalformed) {
  FlagParser flags = MakeParser({"--n=abc"});
  EXPECT_EQ(flags.GetInt64("n", 7), 7);
  EXPECT_EQ(flags.GetInt64("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
}

TEST(FlagParserTest, ErrorsNameUnreadAndMalformedFlags) {
  FlagParser flags = MakeParser(
      {"--workers=abc", "--port=7", "--span_sample_every=8", "--on=maybe"});
  EXPECT_EQ(flags.GetInt64("workers", 2), 2);  // the fallback stays
  EXPECT_EQ(flags.GetInt64("port", 0), 7);
  EXPECT_FALSE(flags.GetBool("on", false));
  EXPECT_EQ(flags.GetDouble("absent", 1.5), 1.5);
  EXPECT_EQ(flags.Errors(),
            (std::vector<std::string>{"malformed --on=maybe",
                                      "unknown flag --span_sample_every",
                                      "malformed --workers=abc"}));
  EXPECT_EQ(flags.GetInt64("span_sample_every", 64), 8);
  EXPECT_EQ(flags.Errors().size(), 2u) << "a read flag is no longer unknown";
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = MakeParser({"input.csv", "--n=5", "output.csv"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.csv", "output.csv"}));
  EXPECT_EQ(flags.program_name(), "prog");
}

TEST(FlagParserTest, NegativeNumberAfterSpaceFlag) {
  // "--lo -3" would treat -3 as the value (does not start with --).
  FlagParser flags = MakeParser({"--lo", "-3"});
  EXPECT_EQ(flags.GetInt64("lo", 0), -3);
}

}  // namespace
}  // namespace util
}  // namespace springdtw
