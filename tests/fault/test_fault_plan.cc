/**
 * @file
 * Unit tests for the fault-plan grammar: every well-formed line maps
 * to the expected FaultEvent, and every malformed line is rejected
 * with a FatalError naming the origin and line number — a plan file
 * must never be half-accepted.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "fault/fault_plan.h"
#include "reference/scratch_path.h"
#include "util/logging.h"

namespace vmt {
namespace {

/** Parse and expect a FatalError whose message contains @p needle. */
void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        FaultPlan::parse(text, "plan.txt");
        FAIL() << "accepted malformed plan:\n" << text;
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "error message '" << err.what()
            << "' does not mention '" << needle << "'";
    }
}

TEST(FaultPlan, ParsesAllEventTypes)
{
    const FaultPlan plan = FaultPlan::parse("0.5 server-down 3\n"
                                            "1 server-up 3\n"
                                            "2.25 cooling-derate 4.5\n"
                                            "3 cooling-restore\n");
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.events()[0].type, FaultEventType::ServerDown);
    EXPECT_EQ(plan.events()[0].time, 0.5 * kHour);
    EXPECT_EQ(plan.events()[0].serverId, 3u);
    EXPECT_EQ(plan.events()[1].type, FaultEventType::ServerUp);
    EXPECT_EQ(plan.events()[1].time, 1.0 * kHour);
    EXPECT_EQ(plan.events()[2].type, FaultEventType::CoolingDerate);
    EXPECT_EQ(plan.events()[2].supplyRise, 4.5);
    EXPECT_EQ(plan.events()[3].type, FaultEventType::CoolingRestore);
}

TEST(FaultPlan, SkipsCommentsAndBlankLines)
{
    const FaultPlan plan =
        FaultPlan::parse("# a CRAC failure scenario\n"
                         "\n"
                         "   \t\n"
                         "1 cooling-derate 6   # six-kelvin derate\n");
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.events()[0].supplyRise, 6.0);
}

TEST(FaultPlan, EmptyTextYieldsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("# only a comment\n").empty());
}

TEST(FaultPlan, EqualTimesAreAllowed)
{
    const FaultPlan plan = FaultPlan::parse("1 server-down 0\n"
                                            "1 server-down 1\n");
    EXPECT_EQ(plan.size(), 2u);
}

TEST(FaultPlan, RejectsOutOfOrderTimes)
{
    expectParseError("2 server-down 0\n1 server-down 1\n", ":2");
}

TEST(FaultPlan, RejectsUnknownKeyword)
{
    expectParseError("1 server-explode 0\n", "server-explode");
}

TEST(FaultPlan, RejectsMissingArguments)
{
    expectParseError("1 server-down\n", ":1");
    expectParseError("1 cooling-derate\n", ":1");
    expectParseError("1\n", ":1");
}

TEST(FaultPlan, RejectsTrailingTokens)
{
    expectParseError("1 cooling-restore 5\n", ":1");
    expectParseError("1 server-down 0 extra\n", ":1");
}

TEST(FaultPlan, RejectsBadNumbers)
{
    expectParseError("-1 server-down 0\n", ":1");
    expectParseError("nan server-down 0\n", ":1");
    expectParseError("1 server-down -2\n", ":1");
    expectParseError("1 cooling-derate -3\n", ":1");
    expectParseError("bogus server-down 0\n", ":1");
}

TEST(FaultPlan, ErrorNamesOriginAndLine)
{
    // The offending row is line 3 (after a comment and a good line).
    expectParseError("# scenario\n"
                     "1 server-down 0\n"
                     "2 oops\n",
                     "plan.txt:3");
}

TEST(FaultPlan, CtorRejectsUnsortedEvents)
{
    std::vector<FaultEvent> events(2);
    events[0].time = 2.0 * kHour;
    events[1].time = 1.0 * kHour;
    EXPECT_THROW(FaultPlan{events}, FatalError);
}

TEST(FaultPlan, LoadFileRoundTripsAndRejectsMissing)
{
    const std::string path = reference::scratchPath("plan.txt");
    {
        std::ofstream out(path);
        out << "0.25 server-down 7\n1 cooling-derate 2\n";
    }
    const FaultPlan plan = FaultPlan::loadFile(path);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.events()[0].serverId, 7u);
    std::remove(path.c_str());

    EXPECT_THROW(
        FaultPlan::loadFile(reference::scratchPath("no_such_plan.txt")),
        FatalError);
}

TEST(FaultConfig, EnabledReflectsEveryActivationPath)
{
    EXPECT_FALSE(FaultConfig{}.enabled());

    FaultConfig master;
    master.enable = true;
    EXPECT_TRUE(master.enabled());

    FaultConfig scripted;
    scripted.plan = FaultPlan::parse("1 cooling-restore\n");
    EXPECT_TRUE(scripted.enabled());

    FaultConfig stochastic;
    stochastic.mtbf = 100.0;
    EXPECT_TRUE(stochastic.enabled());

    FaultConfig emergency;
    emergency.criticalTemp = 45.0;
    EXPECT_TRUE(emergency.enabled());
}

} // namespace
} // namespace vmt
