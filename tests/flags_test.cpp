#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/flags.hpp"

namespace dsketch {
namespace {

FlagSet make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagSet(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, KeyValuePairs) {
  const FlagSet f = make({"--n", "1024", "--p", "0.01"});
  EXPECT_EQ(f.get("n", std::int64_t{0}), 1024);
  EXPECT_DOUBLE_EQ(f.get("p", 0.0), 0.01);
}

TEST(Flags, EqualsSyntax) {
  const FlagSet f = make({"--scheme=slack", "--k=4"});
  EXPECT_EQ(f.get("scheme", std::string{}), "slack");
  EXPECT_EQ(f.get("k", std::int64_t{0}), 4);
}

TEST(Flags, BooleanSwitch) {
  const FlagSet f = make({"--echo", "--k", "2"});
  EXPECT_TRUE(f.get_bool("echo"));
  EXPECT_FALSE(f.get_bool("quiet"));
  EXPECT_EQ(f.get("k", std::int64_t{0}), 2);
}

TEST(Flags, SwitchBeforeAnotherFlag) {
  const FlagSet f = make({"--verbose", "--out", "x.graph"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get("out", std::string{}), "x.graph");
}

TEST(Flags, Positional) {
  const FlagSet f = make({"build", "--k", "3", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "build");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, DefaultsWhenMissing) {
  const FlagSet f = make({});
  EXPECT_EQ(f.get("missing", std::string("def")), "def");
  EXPECT_EQ(f.get("missing", std::int64_t{7}), 7);
  EXPECT_DOUBLE_EQ(f.get("missing", 2.5), 2.5);
}

TEST(Flags, RequireThrows) {
  const FlagSet f = make({"--present", "1"});
  EXPECT_EQ(f.require("present"), "1");
  EXPECT_THROW(f.require("absent"), std::runtime_error);
}

TEST(Flags, HasDetectsPresence) {
  const FlagSet f = make({"--a", "1"});
  EXPECT_TRUE(f.has("a"));
  EXPECT_FALSE(f.has("b"));
}

TEST(Flags, UnreadNamesEveryFlagNoLookupAskedFor) {
  const FlagSet f =
      make({"--store", "x", "--queries", "9", "--bogus-flag", "7", "--mmap",
            "--verify=3", "--echo"});
  EXPECT_EQ(f.unread(),
            (std::vector<std::string>{"bogus-flag", "echo", "mmap", "queries",
                                      "store", "verify"}));
  // Every kind of lookup counts, whether or not it finds the flag, and
  // positional arguments are never flags.
  f.has("store");
  f.get("queries", std::int64_t{0});
  f.get_bool("mmap");
  f.get("verify", 0.0);
  f.require("echo");
  f.get("absent", std::string{});
  EXPECT_EQ(f.unread(), std::vector<std::string>{"bogus-flag"});
  EXPECT_TRUE(make({"serve-bench"}).unread().empty());
}

}  // namespace
}  // namespace dsketch
