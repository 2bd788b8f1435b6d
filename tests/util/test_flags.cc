/**
 * @file
 * Unit tests for command-line flag parsing.
 */

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/logging.h"

namespace vmt {
namespace {

Flags
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValues)
{
    const Flags f = parse({"--servers", "100", "--gv", "22.5"});
    EXPECT_EQ(f.getInt("servers", 0), 100);
    EXPECT_DOUBLE_EQ(f.getDouble("gv", 0.0), 22.5);
}

TEST(Flags, EqualsSeparatedValues)
{
    const Flags f = parse({"--policy=wa", "--seed=9"});
    EXPECT_EQ(f.getString("policy"), "wa");
    EXPECT_EQ(f.getInt("seed", 0), 9);
}

TEST(Flags, BareFlagIsBooleanTrue)
{
    const Flags f = parse({"--verbose", "--out", "x.csv"});
    EXPECT_TRUE(f.getBool("verbose", false));
    EXPECT_EQ(f.getString("out"), "x.csv");
}

TEST(Flags, FallbacksWhenAbsent)
{
    const Flags f = parse({});
    EXPECT_EQ(f.getInt("servers", 42), 42);
    EXPECT_DOUBLE_EQ(f.getDouble("gv", 1.5), 1.5);
    EXPECT_EQ(f.getString("policy", "rr"), "rr");
    EXPECT_FALSE(f.getBool("verbose", false));
    EXPECT_FALSE(f.has("anything"));
}

TEST(Flags, PositionalArguments)
{
    const Flags f = parse({"run", "--gv", "22", "extra"});
    EXPECT_EQ(f.positional(),
              (std::vector<std::string>{"run", "extra"}));
}

TEST(Flags, BooleanSpellings)
{
    EXPECT_TRUE(parse({"--x=yes"}).getBool("x", false));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x", false));
    EXPECT_FALSE(parse({"--x=no"}).getBool("x", true));
    EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
    EXPECT_THROW(parse({"--x=maybe"}).getBool("x", true), FatalError);
}

TEST(Flags, NumericValidation)
{
    EXPECT_THROW(parse({"--n=abc"}).getDouble("n", 0.0), FatalError);
    EXPECT_THROW(parse({"--n=1.5"}).getInt("n", 0), FatalError);
    // strtod accepts these; a numeric flag must not.
    for (const char *arg : {"--n=nan", "--n=inf", "--n=-inf",
                            "--n=1e999"})
        EXPECT_THROW(parse({arg}).getDouble("n", 0.0), FatalError)
            << arg;
}

TEST(Flags, UnreadFlagsDetected)
{
    const Flags f = parse({"--used=1", "--typo=2"});
    EXPECT_EQ(f.getInt("used", 0), 1);
    EXPECT_EQ(f.unreadFlags(),
              (std::vector<std::string>{"typo"}));
}

TEST(Flags, EmptyFlagNameIsFatal)
{
    EXPECT_THROW(parse({"--=5"}), FatalError);
}

Flags
parseWithBooleans(std::initializer_list<const char *> args,
                  const std::set<std::string> &booleans)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Flags(static_cast<int>(argv.size()), argv.data(),
                 booleans);
}

TEST(Flags, RegisteredBooleanNeverConsumesThePositional)
{
    // The historical bug: `vmtsim --verbose trace.csv` parsed
    // "trace.csv" as the value of --verbose, losing the positional.
    const Flags f =
        parseWithBooleans({"--verbose", "trace.csv"}, {"verbose"});
    EXPECT_TRUE(f.getBool("verbose", false));
    EXPECT_EQ(f.positional(),
              (std::vector<std::string>{"trace.csv"}));
}

TEST(Flags, RegisteredBooleanStillAcceptsEqualsValue)
{
    const Flags f =
        parseWithBooleans({"--verbose=no", "run"}, {"verbose"});
    EXPECT_FALSE(f.getBool("verbose", true));
    EXPECT_EQ(f.positional(), (std::vector<std::string>{"run"}));
}

TEST(Flags, UnregisteredFlagStillTakesTheNextToken)
{
    const Flags f =
        parseWithBooleans({"--out", "trace.csv"}, {"verbose"});
    EXPECT_EQ(f.getString("out"), "trace.csv");
}

TEST(Flags, NegativeValueAfterFlagIsItsValue)
{
    // "-5" starts with '-' but not "--": it is a value, not a flag.
    const Flags f = parse({"--offset", "-5"});
    EXPECT_EQ(f.getInt("offset", 0), -5);
}

TEST(Flags, GetIntRejectsScientificNotation)
{
    // strtod-based parsing accepted "1e3" as 1000; integers must be
    // written as integers.
    EXPECT_THROW(parse({"--n=1e3"}).getInt("n", 0), FatalError);
}

TEST(Flags, GetIntIsExactAboveDoublePrecision)
{
    // 2^53 + 1 is not representable as a double; a strtod round-trip
    // would silently land on 9007199254740992.
    const Flags f = parse({"--n=9007199254740993"});
    EXPECT_EQ(f.getInt("n", 0), 9007199254740993LL);
}

TEST(Flags, GetIntRejectsOverflowNamingTheFlag)
{
    try {
        parse({"--servers=99999999999999999999"}).getInt("servers", 0);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("servers"),
                  std::string::npos);
    }
}

TEST(Flags, GetIntErrorNamesTheFlag)
{
    try {
        parse({"--servers=abc"}).getInt("servers", 0);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("servers"),
                  std::string::npos);
    }
}

TEST(Flags, LastValueWins)
{
    const Flags f = parse({"--gv=20", "--gv=24"});
    EXPECT_DOUBLE_EQ(f.getDouble("gv", 0.0), 24.0);
}

} // namespace
} // namespace vmt
