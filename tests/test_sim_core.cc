/**
 * @file
 * Unit tests for the simulation core: event queue ordering, RNG
 * determinism and distributions, histogram percentiles, types helpers,
 * and the flat key -> slot index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_index.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace clio {
namespace {

TEST(Types, UnitConstants)
{
    EXPECT_EQ(kNanosecond, 1000u);
    EXPECT_EQ(kMicrosecond, 1000u * 1000);
    EXPECT_EQ(kSecond, 1000ull * 1000 * 1000 * 1000);
    EXPECT_DOUBLE_EQ(ticksToUs(2500 * kNanosecond), 2.5);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSecond), 1.0);
}

TEST(Types, TicksPerByteRoundsUp)
{
    // 10 Gbps: 8e12/1e10 = 800 ticks per byte exactly.
    EXPECT_EQ(ticksPerByte(10ull * 1000 * 1000 * 1000), 800u);
    // 3 bps: must round up, never undershoot the serialization time.
    EXPECT_GE(ticksPerByte(3) * 3, 8 * kSecond);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; i++)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        fired++;
        eq.scheduleAfter(5, [&] { fired++; });
    });
    eq.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 100; i++)
        eq.schedule(static_cast<Tick>(i), [&] { count++; });
    bool ok = eq.runUntil([&] { return count == 7; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(count, 7);
    EXPECT_EQ(eq.pending(), 93u);
}

TEST(EventQueue, RunUntilTimeAdvancesClock)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(100, [&] { count++; });
    eq.schedule(200, [&] { count++; });
    eq.runUntilTime(150);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 150u);
    eq.runUntilTime(250);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    EXPECT_TRUE(eq.empty());
}

// ----------------------------------------------------------------
// Pin tests: exact pop/FIFO/tie-break semantics the timing-wheel
// rewrite must preserve event-for-event.
// ----------------------------------------------------------------

TEST(EventQueue, SameTickFifoUnder100kEvents)
{
    EventQueue eq;
    const int n = 100000;
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++)
        eq.schedule(42 * kMicrosecond, [&order, i] { order.push_back(i); });
    eq.runAll();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(eq.now(), 42 * kMicrosecond);
}

TEST(EventQueue, TieBreakIsInsertionOrderAcrossInterleavedTicks)
{
    // Interleave schedules across three ticks; within each tick the
    // insertion order (not the schedule-call pattern) must win.
    EventQueue eq;
    std::vector<int> order;
    int tag = 0;
    std::vector<int> expect_by_tick[3];
    for (int round = 0; round < 50; round++) {
        for (Tick t : {Tick{30}, Tick{10}, Tick{20}}) {
            const int id = tag++;
            expect_by_tick[t / 10 - 1].push_back(id);
            eq.schedule(t, [&order, id] { order.push_back(id); });
        }
    }
    eq.runAll();
    std::vector<int> expect;
    for (const auto &v : expect_by_tick)
        expect.insert(expect.end(), v.begin(), v.end());
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, MixedHorizonOrdering)
{
    // Events spread across wildly different magnitudes (from the
    // staged band to the far list) must still pop in time order.
    EventQueue eq;
    std::vector<Tick> fired;
    std::vector<Tick> ticks;
    for (int lvl = 0; lvl < 10; lvl++) {
        const Tick base = Tick{1} << (6 * lvl);
        ticks.push_back(base);
        ticks.push_back(base + 1);
        ticks.push_back(base * 3 + 7);
    }
    Rng rng(5);
    for (std::size_t i = ticks.size(); i > 1; i--)
        std::swap(ticks[i - 1], ticks[rng.uniformInt(i)]);
    for (Tick t : ticks)
        eq.schedule(t, [&fired, t] { fired.push_back(t); });
    eq.runAll();
    ASSERT_EQ(fired.size(), ticks.size());
    std::sort(ticks.begin(), ticks.end());
    EXPECT_EQ(fired, ticks);
    EXPECT_EQ(eq.now(), ticks.back());
}

TEST(EventQueue, ScheduleAtNowDuringCallbackRunsSameDrain)
{
    // A callback scheduling at the *current* tick must run after all
    // previously-queued same-tick events, within the same runAll.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(0);
        eq.schedule(100, [&] { order.push_back(2); });
    });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilTimeReentrancy)
{
    // Events that schedule new events at <= t must have those run
    // within the same runUntilTime(t) call; events they schedule
    // beyond t must stay pending, and now() must land exactly on t.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.schedule(50, [&] {
            order.push_back(2);
            eq.scheduleAfter(0, [&] { order.push_back(3); });
            eq.schedule(200, [&] { order.push_back(9); });
        });
    });
    eq.runUntilTime(150);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 150u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntilTime(400);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9}));
    EXPECT_EQ(eq.now(), 400u);
    // Scheduling exactly at the advanced wall-time is legal.
    eq.schedule(400, [&] { order.push_back(4); });
    eq.runAll();
    EXPECT_EQ(order.back(), 4);
}

constexpr EventQueueImpl kEngines[] = {EventQueueImpl::kTimingWheel,
                                       EventQueueImpl::kBinaryHeap};

const char *
engineName(EventQueueImpl impl)
{
    return impl == EventQueueImpl::kTimingWheel ? "wheel" : "heap";
}

TEST(EventQueue, PendingAndExecutedCounters)
{
    for (const EventQueueImpl impl : kEngines) {
        SCOPED_TRACE(engineName(impl));
        EventQueue eq(impl);
        std::vector<EventId> ids;
        for (int i = 0; i < 32; i++)
            ids.push_back(eq.schedule(static_cast<Tick>(i * 1000), [] {}));
        EXPECT_EQ(eq.pending(), 32u);
        EXPECT_EQ(eq.executed(), 0u);
        for (int i = 0; i < 5; i++)
            EXPECT_TRUE(eq.runOne());
        EXPECT_EQ(eq.pending(), 27u);
        EXPECT_EQ(eq.executed(), 5u);
        // A cancel drops pending() at once and never counts as run.
        EXPECT_TRUE(eq.cancel(ids[10]));
        EXPECT_TRUE(eq.cancel(ids[31]));
        EXPECT_EQ(eq.pending(), 25u);
        EXPECT_EQ(eq.executed(), 5u);
        eq.runAll();
        EXPECT_EQ(eq.pending(), 0u);
        EXPECT_EQ(eq.executed(), 30u);
        EXPECT_TRUE(eq.empty());
        // The last event was cancelled: the clock stops at the one
        // before it.
        EXPECT_EQ(eq.now(), 30u * 1000);
    }
}

TEST(EventQueue, RandomizedOrderMatchesStableSort)
{
    // Differential pin: a random schedule/cancel/run interleaving must
    // pop the events that were not cancelled in exactly (when,
    // insertion order), i.e. a stable sort by time.
    for (const EventQueueImpl impl : kEngines) {
        SCOPED_TRACE(engineName(impl));
        EventQueue eq(impl);
        Rng rng(2022);
        struct Rec
        {
            Tick when;
            int id;
            EventId event;
        };
        std::vector<Rec> scheduled;
        std::vector<int> fired;
        std::vector<char> ran, cancelled;
        for (int round = 0; round < 200; round++) {
            const int burst = 1 + static_cast<int>(rng.uniformInt(8));
            for (int i = 0; i < burst; i++) {
                // Mix of near, same-tick, and far-future times.
                Tick when = eq.now();
                switch (rng.uniformInt(4)) {
                case 0: break;
                case 1: when += rng.uniformInt(3); break;
                case 2: when += rng.uniformInt(10 * kMicrosecond); break;
                default:
                    when += rng.uniformInt(kSecond);
                    break;
                }
                const int id = static_cast<int>(scheduled.size());
                const EventId ev = eq.schedule(when, [&fired, &ran, id] {
                    fired.push_back(id);
                    ran[static_cast<std::size_t>(id)] = true;
                });
                scheduled.push_back({when, id, ev});
                ran.push_back(false);
                cancelled.push_back(false);
            }
            // Cancel a few random events, pending or not: only a
            // pending one may report success.
            const int cancels = static_cast<int>(rng.uniformInt(3));
            for (int i = 0; i < cancels; i++) {
                const auto k =
                    static_cast<std::size_t>(rng.uniformInt(scheduled.size()));
                ASSERT_EQ(eq.cancel(scheduled[k].event),
                          !ran[k] && !cancelled[k]);
                cancelled[k] = !ran[k];
            }
            const int pops = static_cast<int>(rng.uniformInt(4));
            for (int i = 0; i < pops; i++)
                eq.runOne();
        }
        eq.runAll();
        std::vector<Rec> expected;
        for (const Rec &r : scheduled) {
            if (!cancelled[static_cast<std::size_t>(r.id)])
                expected.push_back(r);
        }
        std::stable_sort(expected.begin(), expected.end(),
                         [](const Rec &a, const Rec &b) {
                             return a.when < b.when;
                         });
        ASSERT_EQ(fired.size(), expected.size());
        for (std::size_t i = 0; i < fired.size(); i++)
            ASSERT_EQ(fired[i], expected[i].id);
        EXPECT_EQ(eq.executed(), fired.size());
    }
}

TEST(EventQueue, CancelCornerCases)
{
    for (const EventQueueImpl impl : kEngines) {
        SCOPED_TRACE(engineName(impl));
        EventQueue eq(impl);
        std::vector<int> fired;
        const auto at = [&](Tick when, int tag) {
            return eq.schedule(when, [&fired, tag] { fired.push_back(tag); });
        };

        // Id 0 names no event.
        EXPECT_FALSE(eq.cancel(kNoEvent));

        // A second cancel, and a cancel after the event ran.
        const EventId twice = at(100, 1);
        EXPECT_TRUE(eq.cancel(twice));
        EXPECT_FALSE(eq.cancel(twice));
        const EventId ran = at(200, 2);
        eq.runAll();
        EXPECT_FALSE(eq.cancel(ran));
        EXPECT_EQ(fired, std::vector<int>{2});

        // A self-cancel from inside the callback is a no-op.
        EventId self = kNoEvent;
        bool self_cancelled = true;
        self = eq.schedule(300, [&] { self_cancelled = eq.cancel(self); });
        eq.runAll();
        EXPECT_FALSE(self_cancelled);
        EXPECT_EQ(eq.executed(), 2u);
        EXPECT_EQ(eq.pending(), 0u);

        // A stale id whose cell was reused leaves the new event alone
        // (the wheel's free list hands the freed cell out next).
        const EventId stale = at(400, 3);
        EXPECT_TRUE(eq.cancel(stale));
        at(400, 4);
        EXPECT_FALSE(eq.cancel(stale));
        EXPECT_FALSE(eq.cancel(ran));
        EXPECT_EQ(eq.pending(), 1u);
        eq.runAll();
        EXPECT_EQ(fired, (std::vector<int>{2, 4}));

        // One cancelled and one kept event at each offset: the staged
        // band (same 2^15-tick band as the clock), a wheel slot (20 us
        // out), and the far list (beyond the wheel's ~134 us span, at
        // 1 ms and 1 s out). Every place a record can sit is covered.
        fired.clear();
        const Tick t0 = eq.now();
        const Tick offsets[] = {10, 20 * kMicrosecond, kMillisecond,
                                kSecond};
        std::vector<EventId> drop;
        for (int i = 0; i < 4; i++) {
            drop.push_back(at(t0 + offsets[i], 100 + i));
            at(t0 + offsets[i] + 1, 10 + i);
        }
        for (const EventId id : drop)
            EXPECT_TRUE(eq.cancel(id));
        EXPECT_EQ(eq.pending(), 4u);
        eq.runAll();
        EXPECT_EQ(fired, (std::vector<int>{10, 11, 12, 13}));
        EXPECT_EQ(eq.now(), t0 + kSecond + 1);

        // A staged band's record, cancelled by an event of its band.
        fired.clear();
        const Tick t1 = eq.now();
        EventId later = kNoEvent;
        eq.schedule(t1 + 1, [&] {
            fired.push_back(20);
            EXPECT_TRUE(eq.cancel(later));
        });
        later = at(t1 + 2, 21);
        at(t1 + 3, 22);
        eq.runAll();
        EXPECT_EQ(fired, (std::vector<int>{20, 22}));
    }
}

TEST(EventQueue, FarEventRunsBeforeLaterEventsOfItsSlot)
{
    // A waits in the far list (beyond the wheel's span) while a chain
    // of events every 20 us walks the clock to it. The chain event at
    // exactly 1 s schedules B in A's 2^15-tick slot, later than A:
    // the far list must enter the wheel by slot, so A still runs
    // first and the clock never steps backwards.
    for (const EventQueueImpl impl : kEngines) {
        SCOPED_TRACE(engineName(impl));
        EventQueue eq(impl);
        const Tick a_at = kSecond + 100;
        const Tick b_at = kSecond + 200;
        ASSERT_EQ(a_at >> 15, b_at >> 15);
        std::string order;
        Tick last = 0;
        bool monotonic = true;
        const auto note = [&](char tag) {
            monotonic = monotonic && eq.now() >= last;
            last = eq.now();
            order.push_back(tag);
        };
        eq.schedule(a_at, [&] { note('A'); });
        std::function<void()> chain = [&] {
            note('c');
            if (eq.now() == kSecond)
                eq.schedule(b_at, [&] { note('B'); });
            if (eq.now() + 20 * kMicrosecond <= kSecond + 200 * kMicrosecond)
                eq.scheduleAfter(20 * kMicrosecond, [&] { chain(); });
        };
        eq.schedule(20 * kMicrosecond, [&] { chain(); });
        eq.runAll();
        EXPECT_TRUE(monotonic);
        ASSERT_NE(order.find('B'), std::string::npos);
        EXPECT_LT(order.find('A'), order.find('B'));
        EXPECT_EQ(eq.now(), kSecond + 200 * kMicrosecond);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123), c(124);
    bool diverged = false;
    for (int i = 0; i < 100; i++) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformIntInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(7);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 80000; i++)
        counts[rng.uniformInt(8)]++;
    for (int c : counts) {
        EXPECT_GT(c, 9000);
        EXPECT_LT(c, 11000);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; i++)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++)
        sum += rng.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Zipf, SkewsTowardHead)
{
    ZipfianGenerator zipf(1000, 0.99, 5);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; i++)
        counts[zipf.next()]++;
    // Head item should dominate any mid-range item heavily.
    EXPECT_GT(counts[0], counts[500] * 20);
    // All samples in range (indexing above would have thrown).
    int total = 0;
    for (int c : counts)
        total += c;
    EXPECT_EQ(total, 100000);
}

TEST(Zipf, SingleItemDomain)
{
    ZipfianGenerator zipf(1, 0.99, 5);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(zipf.next(), 0u);
}

TEST(Histogram, BasicStats)
{
    LatencyHistogram h;
    for (Tick v = 1; v <= 100; v++)
        h.record(v * kNanosecond);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.min(), kNanosecond);
    EXPECT_EQ(h.max(), 100 * kNanosecond);
    EXPECT_NEAR(h.mean(), 50.5 * kNanosecond, kNanosecond);
}

TEST(Histogram, PercentileAccuracy)
{
    LatencyHistogram h;
    for (Tick v = 1; v <= 1000; v++)
        h.record(v * kMicrosecond);
    // Log-linear buckets give ~1.6% resolution; allow 3%.
    EXPECT_NEAR(static_cast<double>(h.median()),
                500.0 * kMicrosecond, 0.03 * 500 * kMicrosecond);
    EXPECT_NEAR(static_cast<double>(h.p99()),
                990.0 * kMicrosecond, 0.03 * 990 * kMicrosecond);
    EXPECT_EQ(h.percentile(100.0), 1000 * kMicrosecond);
}

TEST(Histogram, PercentileNeverUnderstates)
{
    LatencyHistogram h;
    Rng rng(3);
    std::vector<Tick> samples;
    for (int i = 0; i < 5000; i++) {
        Tick v = rng.uniformRange(1, 10 * kMicrosecond);
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    // p90 from histogram >= exact p90 (upper-edge reporting).
    const Tick exact_p90 = samples[static_cast<std::size_t>(
        0.9 * static_cast<double>(samples.size())) - 1];
    EXPECT_GE(h.percentile(90.0), exact_p90);
}

TEST(Histogram, MergeAndReset)
{
    LatencyHistogram a, b;
    a.record(10);
    b.record(20);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.max(), 20u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.percentile(50), 0u);
}

TEST(Histogram, EmptyAndSingleSampleEdgeCases)
{
    LatencyHistogram h;
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(100.0), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);

    h.record(777 * kNanosecond);
    EXPECT_EQ(h.percentile(0.0), 777 * kNanosecond);
    EXPECT_EQ(h.percentile(50.0), 777 * kNanosecond);
    EXPECT_EQ(h.percentile(100.0), 777 * kNanosecond);
}

TEST(Histogram, PercentileClampsToMax)
{
    // A sample near a bucket's lower edge: the bucket's upper edge
    // exceeds the true maximum and must be clamped to max().
    LatencyHistogram h;
    const Tick v = (Tick{1} << 40) + 1;
    h.record(v);
    EXPECT_EQ(h.percentile(99.9), v);
    EXPECT_EQ(h.percentile(100.0), v);
}

TEST(Histogram, MergeEmptyKeepsExtremes)
{
    LatencyHistogram a, empty;
    a.record(5 * kMicrosecond);
    a.record(9 * kMicrosecond);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 5 * kMicrosecond);
    EXPECT_EQ(a.max(), 9 * kMicrosecond);
    // Merging INTO a fresh histogram must adopt the samples' min,
    // not keep the empty histogram's sentinel.
    LatencyHistogram b;
    b.merge(a);
    EXPECT_EQ(b.min(), 5 * kMicrosecond);
    EXPECT_EQ(b.percentile(0.0), 5 * kMicrosecond);
}

/** Places key k in home cell k % 16 of a 16-cell FlatIndex, so tests
 * can lay out probe clusters by hand. */
struct HomeHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return (key & 15) << 60;
    }
};

TEST(FlatIndex, CollidingKeysStayFindable)
{
    // Every key hashes to one home cell: one probe cluster holds all.
    struct SameHash
    {
        std::uint64_t operator()(std::uint64_t) const { return 0; }
    };
    FlatIndex<std::uint64_t, SameHash> idx;
    for (std::uint32_t k = 0; k < 100; k++)
        ASSERT_TRUE(idx.insert(k * 7919, k));
    EXPECT_FALSE(idx.insert(7919, 5)); // present: unchanged
    EXPECT_EQ(idx.find(7919), 1u);
    for (std::uint32_t k = 0; k < 100; k += 3)
        ASSERT_TRUE(idx.erase(k * 7919));
    EXPECT_FALSE(idx.erase(0));
    for (std::uint32_t k = 0; k < 100; k++)
        EXPECT_EQ(idx.find(k * 7919), k % 3 == 0 ? idx.kNone : k);
    EXPECT_EQ(idx.size(), 66u);
}

TEST(FlatIndex, EraseInsideClusterThatWrapsPastTheEnd)
{
    FlatIndex<std::uint64_t, HomeHash> idx(4); // 16 cells
    // Cells 14, 15, 0, 1 and 2 form one cluster that wraps:
    // 14 -> 14, 30 -> 15 (home 14), 46 -> 0 (home 14),
    // 15 -> 1 (home 15), 2 -> 2 (home 2, must not move).
    for (std::uint64_t k : {14, 30, 46, 15, 2})
        ASSERT_TRUE(idx.insert(k, static_cast<std::uint32_t>(k)));
    ASSERT_TRUE(idx.erase(14));
    for (std::uint64_t k : {30, 46, 15, 2})
        EXPECT_EQ(idx.find(k), k);
    EXPECT_EQ(idx.find(14), idx.kNone);
    // Erase at the wrapped end of the cluster, then refill the holes.
    ASSERT_TRUE(idx.erase(46));
    EXPECT_EQ(idx.find(15), 15u);
    EXPECT_EQ(idx.find(2), 2u);
    ASSERT_TRUE(idx.insert(62, 62)); // home 14
    ASSERT_TRUE(idx.insert(31, 31)); // home 15
    for (std::uint64_t k : {30, 15, 2, 62, 31})
        EXPECT_EQ(idx.find(k), k);
    EXPECT_EQ(idx.size(), 5u);
}

TEST(FlatIndex, RehashKeepsEveryEntry)
{
    FlatIndex<std::uint64_t> idx;
    const std::uint64_t stride = (1ull << 40) + 3;
    for (std::uint32_t i = 0; i < 20000; i++) {
        ASSERT_TRUE(idx.insert(i * stride, i));
        if ((i & (i + 1)) == 0) { // just grew past a power of two
            for (std::uint32_t j = 0; j <= i; j++)
                ASSERT_EQ(idx.find(j * stride), j);
        }
    }
    EXPECT_EQ(idx.size(), 20000u);
    for (std::uint32_t i = 0; i < 20000; i++)
        ASSERT_EQ(idx.find(i * stride), i);
    idx.clear();
    EXPECT_EQ(idx.size(), 0u);
    EXPECT_EQ(idx.find(stride), idx.kNone);
}

TEST(FlatIndex, MatchesUnorderedMapUnderRandomOps)
{
    // Differential test: 10^5 seeded insert/erase/find ops over a key
    // range small enough that inserts collide and erases hit often.
    Rng rng(20240817);
    FlatIndex<std::uint64_t> idx;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    for (std::uint32_t op = 0; op < 100000; op++) {
        const std::uint64_t key = rng.uniformInt(4096) * 0x10001;
        const std::uint32_t slot = static_cast<std::uint32_t>(op);
        switch (rng.uniformInt(3)) {
          case 0:
            ASSERT_EQ(idx.insert(key, slot), ref.emplace(key, slot).second);
            break;
          case 1:
            ASSERT_EQ(idx.erase(key), ref.erase(key) == 1);
            break;
          default: {
            auto it = ref.find(key);
            ASSERT_EQ(idx.find(key), it == ref.end() ? idx.kNone : it->second);
          }
        }
        ASSERT_EQ(idx.size(), ref.size());
    }
    for (const auto &[key, slot] : ref)
        ASSERT_EQ(idx.find(key), slot);
}

} // namespace
} // namespace clio
