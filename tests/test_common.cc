/**
 * @file
 * Unit tests for the common substrate: Rng/Zipf, DelayQueue,
 * RingFifo, stats, KvArgs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/delay_queue.hh"
#include "common/kvargs.hh"
#include "common/ring_fifo.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace amsc
{

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequencyMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    ZipfSampler z(10, 0.0);
    Rng r(3);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
}

TEST(Zipf, SkewConcentratesOnLowRanks)
{
    ZipfSampler z(1000, 1.0);
    Rng r(5);
    int head = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        head += z.sample(r) < 10;
    // With alpha=1 the top-10 of 1000 should hold ~39% of draws.
    EXPECT_GT(static_cast<double>(head) / n, 0.3);
}

TEST(Zipf, SamplesAlwaysInRange)
{
    ZipfSampler z(37, 0.8);
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(r), 37u);
}

TEST(Zipf, LargePopulationBucketed)
{
    // Populations beyond the CDF cap still sample the full range.
    ZipfSampler z(1 << 20, 0.6);
    Rng r(9);
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 100000; ++i)
        max_seen = std::max(max_seen, z.sample(r));
    EXPECT_LT(max_seen, 1u << 20);
    EXPECT_GT(max_seen, 1u << 16);
}

// --------------------------------------------------------- DelayQueue

TEST(DelayQueue, ItemInvisibleUntilReady)
{
    DelayQueue<int> q;
    q.push(42, 10, 5);
    EXPECT_FALSE(q.ready(10));
    EXPECT_FALSE(q.ready(14));
    EXPECT_TRUE(q.ready(15));
    EXPECT_EQ(q.pop(15), 42);
}

TEST(DelayQueue, FifoOrderPreserved)
{
    DelayQueue<int> q;
    q.push(1, 0, 3);
    q.push(2, 1, 3);
    q.push(3, 2, 3);
    EXPECT_EQ(q.pop(10), 1);
    EXPECT_EQ(q.pop(10), 2);
    EXPECT_EQ(q.pop(10), 3);
}

TEST(DelayQueue, CapacityEnforced)
{
    DelayQueue<int> q(2);
    EXPECT_FALSE(q.full());
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    EXPECT_TRUE(q.full());
    q.pop(5);
    EXPECT_FALSE(q.full());
}

TEST(DelayQueue, ZeroLatencyVisibleSameCycle)
{
    DelayQueue<int> q;
    q.push(7, 4, 0);
    EXPECT_TRUE(q.ready(4));
}

TEST(DelayQueue, OutOfOrderReadyCyclesClampToFifoOrder)
{
    // The LLC slice pushes hit replies at hitLatency (e.g. 30) and
    // fill replies at 1..n cycles: the later push can have the
    // *earlier* raw ready cycle. The queue must stay FIFO and clamp
    // the successor to its predecessor's ready cycle -- this used to
    // trip an ordering assert in Debug builds (llc_slice.cc
    // replyQueue_) while being benign in Release, because pop() only
    // exposes the front anyway.
    DelayQueue<int> q;
    q.push(1, 0, 30); // ready at 30
    q.push(2, 5, 1);  // raw ready 6 < 30: clamped to 30
    q.push(3, 6, 100); // ready at 106
    EXPECT_FALSE(q.ready(29));
    EXPECT_EQ(q.frontReadyCycle(), 30u);
    EXPECT_EQ(q.pop(30), 1);
    // The clamped item is ready the same cycle its predecessor was,
    // exactly as the unclamped FIFO would have exposed it.
    EXPECT_TRUE(q.ready(30));
    EXPECT_EQ(q.frontReadyCycle(), 30u);
    EXPECT_EQ(q.pop(30), 2);
    EXPECT_FALSE(q.ready(105));
    EXPECT_EQ(q.pop(106), 3);
}

TEST(DelayQueue, ClearEmpties)
{
    DelayQueue<int> q;
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(DelayQueue, ForEachVisitsAll)
{
    DelayQueue<int> q;
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    int sum = 0;
    q.forEach([&sum](const int &v) { sum += v; });
    EXPECT_EQ(sum, 3);
}

TEST(DelayQueue, OverflowPanics)
{
    DelayQueue<int> q(2);
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    EXPECT_DEATH(q.push(3, 0, 1), "delay queue overflow");
}

// ------------------------------------------------------------ RingFifo

TEST(RingFifo, BoundedSlotsArePowerOfTwo)
{
    EXPECT_EQ(RingFifo<int>(1).slots(), 1u);
    EXPECT_EQ(RingFifo<int>(5).slots(), 8u);
    EXPECT_EQ(RingFifo<int>(8).slots(), 8u);
    EXPECT_EQ(RingFifo<int>(16).slots(), 16u);
    EXPECT_EQ(RingFifo<int>().slots(), 0u); // growable: allocates lazily
}

TEST(RingFifo, WrapsAroundAtCapacity)
{
    RingFifo<int> q(4);
    int next_in = 0;
    int next_out = 0;
    // Keep 3 of 4 slots occupied while the head laps the ring 25 times.
    for (; next_in < 3; ++next_in)
        q.push_back(next_in);
    for (int step = 0; step < 100; ++step) {
        q.push_back(next_in++);
        ASSERT_EQ(q.size(), 4u);
        ASSERT_EQ(q.front(), next_out);
        ASSERT_EQ(q.back(), next_in - 1);
        q.pop_front();
        ++next_out;
    }
    EXPECT_EQ(q.slots(), 4u); // a bounded ring never grows
    q.push_back(next_in);
    EXPECT_DEATH(q.push_back(-1), "ring FIFO overflow");
}

TEST(RingFifo, FifoOrderAcrossWrapGrowthAndShrink)
{
    RingFifo<int> q;
    int next_in = 0;
    int next_out = 0;
    for (; next_in < 6; ++next_in)
        q.push_back(next_in);
    for (; next_out < 4; ++next_out) {
        ASSERT_EQ(q.front(), next_out);
        q.pop_front();
    }
    // Head at slot 4 of 8: the next pushes wrap, then fill the ring
    // and double it while wrapped.
    for (; next_in < 40; ++next_in)
        q.push_back(next_in);
    EXPECT_EQ(q.slots(), 64u);
    EXPECT_EQ(q.size(), 36u);
    std::vector<int> seen;
    for (const int v : q)
        seen.push_back(v);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], next_out + static_cast<int>(i));
    // Draining halves the ring each time it is down to a quarter.
    for (; next_out < next_in; ++next_out) {
        ASSERT_EQ(q.front(), next_out);
        q.pop_front();
        ASSERT_LE(q.slots(), std::max<std::size_t>(8, 4 * q.size()));
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.slots(), 8u);
}

namespace
{

/**
 * A DelayQueue of 4 whose contents (3, ready 3), (4, ready 4),
 * (5, ready 9), (6, ready 9) straddle the end of its ring.
 */
DelayQueue<int>
wrappedQueue()
{
    DelayQueue<int> q(4);
    for (int v = 1; v <= 4; ++v)
        q.push(v, 0, static_cast<Cycle>(v));
    q.pop(1);
    q.pop(2);
    q.push(5, 4, 5);
    q.push(6, 5, 4);
    return q;
}

} // namespace

TEST(DelayQueue, ForEachOrderOnWrappedQueue)
{
    const DelayQueue<int> q = wrappedQueue();
    std::vector<int> items;
    q.forEach([&](const int &v) { items.push_back(v); });
    EXPECT_EQ(items, (std::vector<int>{3, 4, 5, 6}));
    std::vector<std::pair<Cycle, int>> timed;
    q.forEachTimed(
        [&](Cycle ready, const int &v) { timed.emplace_back(ready, v); });
    EXPECT_EQ(timed, (std::vector<std::pair<Cycle, int>>{
                         {3, 3}, {4, 4}, {9, 5}, {9, 6}}));
}

TEST(DelayQueue, MonotoneClampOnWrappedQueue)
{
    DelayQueue<int> q(4);
    for (int v = 1; v <= 4; ++v)
        q.push(v, 0, 10);
    for (int v = 1; v <= 3; ++v)
        EXPECT_EQ(q.pop(10), v);
    // One item is left, in the ring's last slot; the pushes below
    // wrap to slot 0, so the clamp reads the back across the wrap.
    q.push(5, 10, 50); // ready 60, in slot 0
    q.push(6, 11, 1);  // raw ready 12: clamped to 60
    q.push(7, 12, 60); // ready 72
    EXPECT_EQ(q.pop(10), 4);
    EXPECT_FALSE(q.ready(59));
    EXPECT_EQ(q.pop(60), 5);
    EXPECT_TRUE(q.ready(60));
    EXPECT_EQ(q.frontReadyCycle(), 60u);
    EXPECT_EQ(q.pop(60), 6);
    EXPECT_EQ(q.frontReadyCycle(), 72u);
    EXPECT_EQ(q.pop(72), 7);
    EXPECT_TRUE(q.empty());
}

TEST(DelayQueue, WrappedCheckpointEqualsUnwrapped)
{
    const DelayQueue<int> wrapped = wrappedQueue();
    DelayQueue<int> flat; // same items, pushed into a fresh ring
    wrapped.forEachTimed(
        [&](Cycle ready, const int &v) { flat.push(v, ready, 0); });
    CkptWriter w_wrapped;
    CkptWriter w_flat;
    wrapped.saveCkpt(w_wrapped);
    flat.saveCkpt(w_flat);
    EXPECT_EQ(w_wrapped.buffer(), w_flat.buffer());

    // Restoring into a wrapped queue and saving again is a fixed point.
    DelayQueue<int> restored = wrappedQueue();
    CkptReader r(w_flat.buffer().data(), w_flat.size());
    restored.loadCkpt(r);
    CkptWriter w_restored;
    restored.saveCkpt(w_restored);
    EXPECT_EQ(w_restored.buffer(), w_flat.buffer());
}

// --------------------------------------------------------------- Stats

TEST(Stats, CounterRegistrationAndDump)
{
    StatSet set("test");
    std::uint64_t counter = 41;
    set.addCounter("c", "a counter", counter);
    ++counter;
    std::ostringstream os;
    set.dump(os);
    EXPECT_NE(os.str().find("test.c"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
}

TEST(Stats, FindResolvesValue)
{
    StatSet set("g");
    double x = 1.5;
    set.addScalar("x", "", x);
    double v = 0;
    EXPECT_TRUE(set.find("x", v));
    EXPECT_DOUBLE_EQ(v, 1.5);
    EXPECT_FALSE(set.find("missing", v));
}

TEST(Stats, ChildGroupsDumpWithPrefix)
{
    StatSet parent("p");
    StatSet child("c");
    std::uint64_t n = 3;
    child.addCounter("n", "", n);
    parent.addChild(&child);
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("p.c.n"), std::string::npos);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h({1.0, 2.0, 4.0});
    h.record(0.5);
    h.record(1.5);
    h.record(3.0);
    h.record(100.0); // overflow
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketCount(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCount(1), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCount(2), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCount(3), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketFraction(0), 0.25);
}

TEST(Histogram, WeightsAndMean)
{
    Histogram h({10.0});
    h.record(2.0, 3.0); // weight 3
    h.record(8.0, 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), (2.0 * 3 + 8.0) / 4.0);
    h.clear();
    EXPECT_DOUBLE_EQ(h.total(), 0.0);
}

TEST(Means, HarmonicGeometricArithmetic)
{
    const std::vector<double> v{1.0, 2.0, 4.0};
    EXPECT_NEAR(mean(v), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(harmonicMean(v), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_NEAR(geometricMean(v), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
}

// -------------------------------------------------------------- KvArgs

TEST(KvArgs, ParsesKeyValuesAndPositionals)
{
    const KvArgs args =
        KvArgs::parse({"alpha=1", "pos0", "beta=x", "gamma=2.5"});
    EXPECT_TRUE(args.has("alpha"));
    EXPECT_EQ(args.getInt("alpha", 0), 1);
    EXPECT_EQ(args.getString("beta", ""), "x");
    EXPECT_DOUBLE_EQ(args.getDouble("gamma", 0.0), 2.5);
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "pos0");
}

TEST(KvArgs, DefaultsWhenAbsent)
{
    const KvArgs args = KvArgs::parse(std::vector<std::string>{});
    EXPECT_EQ(args.getInt("x", 7), 7);
    EXPECT_EQ(args.getString("y", "d"), "d");
    EXPECT_TRUE(args.getBool("z", true));
}

TEST(KvArgs, BoolForms)
{
    const KvArgs args = KvArgs::parse(
        {"a=1", "b=true", "c=no", "d=off", "e=YES"});
    EXPECT_TRUE(args.getBool("a", false));
    EXPECT_TRUE(args.getBool("b", false));
    EXPECT_FALSE(args.getBool("c", true));
    EXPECT_FALSE(args.getBool("d", true));
    EXPECT_TRUE(args.getBool("e", false));
}

TEST(KvArgs, UnusedKeysReported)
{
    const KvArgs args = KvArgs::parse({"used=1", "unused=2"});
    (void)args.getInt("used", 0);
    const auto unused = args.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(KvArgs, HexIntegers)
{
    const KvArgs args = KvArgs::parse({"addr=0x40"});
    EXPECT_EQ(args.getInt("addr", 0), 0x40);
}

} // namespace amsc
