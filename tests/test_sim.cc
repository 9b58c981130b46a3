/**
 * @file
 * Simulation substrate tests: ticks/frequency math, event-queue
 * ordering and determinism, and the DMA port cost model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/memory_model.h"
#include "sim/ticks.h"

using sim::ceilDiv;
using sim::DmaParams;
using sim::DmaPort;
using sim::EventQueue;
using sim::Frequency;
using sim::Tick;

TEST(Frequency, Conversions)
{
    Frequency f(2.0e9);
    EXPECT_DOUBLE_EQ(f.ghz(), 2.0);
    EXPECT_DOUBLE_EQ(f.toSeconds(2000000000ull), 1.0);
    EXPECT_EQ(f.fromSeconds(1.0), 2000000000ull);
    EXPECT_EQ(f.fromSeconds(0.0), 0ull);
}

TEST(Frequency, RateComputation)
{
    Frequency f(1.0e9);
    // 1e9 bytes in 1e9 cycles at 1 GHz = 1 GB/s.
    EXPECT_DOUBLE_EQ(f.rate(1000000000ull, 1000000000ull), 1.0e9);
    EXPECT_DOUBLE_EQ(f.rate(100, 0), 0.0);
}

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(0, 8), 0u);
    EXPECT_EQ(ceilDiv(1, 8), 1u);
    EXPECT_EQ(ceilDiv(8, 8), 1u);
    EXPECT_EQ(ceilDiv(9, 8), 2u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, HandlersCanSchedule)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, HorizonStopsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
}

#if NXSIM_CONTRACTS_ENABLED

// Scheduling in the past used to silently clamp to now(), which hid
// stale-tick bugs in the dispatch models. It is now a contract
// violation — see EventQueue::schedule.
TEST(EventQueueDeathTest, PastSchedulingAborts)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(100, [&] {
                eq.schedule(5, [] {});    // in the past
            });
            eq.run();
        },
        "event scheduled in the past");
}

TEST(EventQueueDeathTest, ScheduleInOverflowAborts)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(100, [&] { eq.scheduleIn(~Tick{0}, [] {}); });
            eq.run();
        },
        "add overflow");
}

#endif // NXSIM_CONTRACTS_ENABLED

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] {
        eq.schedule(eq.now(), [&] { ++fired; });    // same tick: legal
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(DmaPort, ZeroBytesIsFree)
{
    DmaPort port{DmaParams{}};
    EXPECT_EQ(port.transferCycles(0), 0u);
}

TEST(DmaPort, CostScalesWithSize)
{
    DmaParams p;
    p.bytesPerCycle = 64.0;
    p.startupCycles = 100;
    p.perPageCycles = 4;
    DmaPort port{p};
    Tick small = port.transferCycles(4096);
    Tick big = port.transferCycles(1 << 20);
    EXPECT_GT(big, small);
    // 1 MiB at 64 B/cycle = 16384 data cycles + 256 pages * 4 + 100.
    EXPECT_EQ(big, 16384u + 1024u + 100u);
}

TEST(DmaPort, StartupDominatesSmallTransfers)
{
    DmaParams p;
    p.startupCycles = 1000;
    DmaPort port{p};
    Tick t = port.transferCycles(64);
    EXPECT_GE(t, 1000u);
    EXPECT_LE(t, 1010u);
}
