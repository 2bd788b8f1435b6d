/**
 * @file
 * Unit tests for the binary-heap event queue, the reference
 * IntervalQueue's pop order is checked against.
 */

#include <gtest/gtest.h>

#include <string>

#include "reference/event_queue.h"

namespace vmt {
namespace {

using reference::EventQueue;

TEST(EventQueue, EmptyOnConstruction)
{
    EventQueue<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.hasEventDue(1e9));
}

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue<int> q;
    q.schedule(30.0, 3);
    q.schedule(10.0, 1);
    q.schedule(20.0, 2);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(EventQueue, TiesPopFifo)
{
    EventQueue<std::string> q;
    q.schedule(5.0, "first");
    q.schedule(5.0, "second");
    q.schedule(5.0, "third");
    EXPECT_EQ(q.pop(), "first");
    EXPECT_EQ(q.pop(), "second");
    EXPECT_EQ(q.pop(), "third");
}

TEST(EventQueue, HasEventDueRespectsNow)
{
    EventQueue<int> q;
    q.schedule(100.0, 1);
    EXPECT_FALSE(q.hasEventDue(99.9));
    EXPECT_TRUE(q.hasEventDue(100.0));
    EXPECT_TRUE(q.hasEventDue(200.0));
}

TEST(EventQueue, NextTimeTracksEarliest)
{
    EventQueue<int> q;
    q.schedule(50.0, 1);
    q.schedule(25.0, 2);
    EXPECT_DOUBLE_EQ(q.nextTime(), 25.0);
    q.pop();
    EXPECT_DOUBLE_EQ(q.nextTime(), 50.0);
}

TEST(EventQueue, InterleavedScheduleAndPop)
{
    EventQueue<int> q;
    q.schedule(10.0, 1);
    q.schedule(30.0, 3);
    EXPECT_EQ(q.pop(), 1);
    q.schedule(20.0, 2);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyEventsStaySorted)
{
    EventQueue<int> q;
    for (int i = 0; i < 1000; ++i)
        q.schedule(static_cast<double>((i * 7919) % 1000), i);
    double prev = -1.0;
    while (!q.empty()) {
        const double t = q.nextTime();
        EXPECT_GE(t, prev);
        prev = t;
        q.pop();
    }
}

} // namespace
} // namespace vmt
