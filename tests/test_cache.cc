/**
 * @file
 * Unit tests for the cache substrate: TagArray, replacement, MSHR,
 * CacheModel, ATD.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/atd.hh"
#include "cache/cache_model.hh"
#include "cache/mshr.hh"
#include "cache/tag_array.hh"

namespace amsc
{

// ------------------------------------------------------------ TagArray

TEST(TagArray, MissThenHitAfterInsert)
{
    TagArray t(16, 4);
    EXPECT_EQ(t.probe(100), nullptr);
    Eviction ev;
    t.insert(100, 1, ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_NE(t.probe(100), nullptr);
}

TEST(TagArray, LruEvictsLeastRecentlyUsed)
{
    TagArray t(1, 2); // one set, 2 ways
    Eviction ev;
    t.insert(10, 1, ev);
    t.insert(20, 2, ev);
    // Touch 10 so 20 becomes LRU.
    ASSERT_NE(t.access(10, 3), nullptr);
    t.insert(30, 4, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 20u);
    EXPECT_NE(t.probe(10), nullptr);
    EXPECT_EQ(t.probe(20), nullptr);
}

TEST(TagArray, SetIndexSeparatesConflicts)
{
    TagArray t(16, 1);
    Eviction ev;
    t.insert(3, 1, ev);
    t.insert(4, 1, ev); // different set, no conflict
    EXPECT_NE(t.probe(3), nullptr);
    EXPECT_NE(t.probe(4), nullptr);
    t.insert(3 + 16, 2, ev); // same set as 3
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 3u);
}

TEST(TagArray, NonPowerOfTwoSets)
{
    // The 96 KB/16-way LLC slice has 48 sets.
    TagArray t(48, 16);
    Eviction ev;
    for (Addr a = 0; a < 48 * 16; ++a)
        t.insert(a, a, ev);
    EXPECT_EQ(t.numValidLines(), 48u * 16u);
    // Every line still present: perfectly balanced modulo mapping.
    for (Addr a = 0; a < 48 * 16; ++a)
        EXPECT_NE(t.probe(a), nullptr);
}

TEST(TagArray, InvalidateSingleLine)
{
    TagArray t(8, 2);
    Eviction ev;
    CacheLine *line = t.insert(5, 1, ev);
    line->dirty = true;
    const Eviction inv = t.invalidate(5);
    EXPECT_TRUE(inv.valid);
    EXPECT_TRUE(inv.dirty);
    EXPECT_EQ(t.probe(5), nullptr);
    // Invalidating a missing line reports nothing.
    EXPECT_FALSE(t.invalidate(5).valid);
}

TEST(TagArray, InvalidateAll)
{
    TagArray t(8, 2);
    Eviction ev;
    for (Addr a = 0; a < 10; ++a)
        t.insert(a, a, ev);
    t.invalidateAll();
    EXPECT_EQ(t.numValidLines(), 0u);
}

TEST(TagArray, CollectDirtyLinesClearsDirty)
{
    TagArray t(8, 2);
    Eviction ev;
    t.insert(1, 1, ev)->dirty = true;
    t.insert(2, 1, ev)->dirty = true;
    t.insert(3, 1, ev); // clean
    auto dirty = t.collectDirtyLines();
    EXPECT_EQ(dirty.size(), 2u);
    EXPECT_TRUE(t.collectDirtyLines().empty());
    // Lines stay valid after the write-back pass.
    EXPECT_EQ(t.numValidLines(), 3u);
}

TEST(TagArray, FifoIgnoresHits)
{
    TagArray t(1, 2, ReplPolicy::Fifo);
    Eviction ev;
    t.insert(10, 1, ev);
    t.insert(20, 2, ev);
    t.access(10, 3); // FIFO should not promote
    t.insert(30, 4, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 10u); // oldest inserted leaves
}

TEST(TagArray, InsertPrefersInvalidWays)
{
    TagArray t(1, 4);
    Eviction ev;
    t.insert(1, 1, ev);
    t.invalidate(1);
    t.insert(2, 2, ev);
    EXPECT_FALSE(ev.valid); // reused the invalid way
}

// ---------------------------------------------------------------- MSHR

TEST(Mshr, PrimaryThenMerge)
{
    MshrFile<int> m(4, 4);
    EXPECT_EQ(m.allocate(100, 1), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(100, 2), MshrAllocResult::Merged);
    EXPECT_TRUE(m.contains(100));
    const auto targets = m.complete(100);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_EQ(targets[0], 1);
    EXPECT_EQ(targets[1], 2);
    EXPECT_FALSE(m.contains(100));
}

TEST(Mshr, EntryExhaustion)
{
    MshrFile<int> m(2, 4);
    EXPECT_EQ(m.allocate(1, 0), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(2, 0), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(3, 0), MshrAllocResult::NoFreeEntry);
    m.complete(1);
    EXPECT_EQ(m.allocate(3, 0), MshrAllocResult::NewEntry);
}

TEST(Mshr, TargetExhaustion)
{
    MshrFile<int> m(2, 2);
    EXPECT_EQ(m.allocate(1, 0), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(1, 1), MshrAllocResult::Merged);
    EXPECT_EQ(m.allocate(1, 2), MshrAllocResult::NoFreeTarget);
    EXPECT_TRUE(m.canAllocate(2));
    EXPECT_FALSE(m.canAllocate(1));
}

TEST(Mshr, CountsAndClear)
{
    MshrFile<int> m(4, 4);
    m.allocate(1, 0);
    m.allocate(1, 1);
    m.allocate(2, 0);
    EXPECT_EQ(m.numActiveEntries(), 2u);
    EXPECT_EQ(m.numActiveTargets(), 3u);
    m.clear();
    EXPECT_EQ(m.numActiveEntries(), 0u);
}

// ----------------------------------------------------------- CacheModel

namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "t";
    p.sizeBytes = 8 * 128; // 8 lines
    p.assoc = 2;
    p.lineBytes = 128;
    return p;
}

} // namespace

TEST(CacheModel, ReadMissThenFillThenHit)
{
    CacheModel c(smallCache());
    EXPECT_FALSE(c.lookup(10, false, 0, 1));
    EXPECT_FALSE(c.contains(10));
    c.fill(10, 0, 2);
    EXPECT_TRUE(c.lookup(10, false, 0, 3));
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().readHits, 1u);
}

TEST(CacheModel, WriteThroughForwardsAllWrites)
{
    CacheModel c(smallCache());
    // Write miss: forwarded, not installed.
    EXPECT_FALSE(c.lookup(5, true, 0, 1));
    EXPECT_FALSE(c.contains(5));
    // Install via a read, then a write hit still forwards.
    c.lookup(5, false, 0, 2);
    c.fill(5, 0, 2);
    EXPECT_TRUE(c.lookup(5, true, 0, 3));
    EXPECT_EQ(c.stats().writeMisses, 1u);
    EXPECT_EQ(c.stats().writeHits, 1u);
    EXPECT_EQ(c.stats().writeThroughForwards, 2u);
    // Write-through never creates dirty lines.
    EXPECT_FALSE(c.tags().probe(5)->dirty);
    EXPECT_TRUE(c.tags().collectDirtyLines().empty());
}

TEST(CacheModel, DoubleFillIsIdempotent)
{
    CacheModel c(smallCache());
    c.lookup(9, false, 0, 1);
    c.fill(9, 0, 1);
    c.fill(9, 0, 2);
    EXPECT_EQ(c.stats().fills, 1u);
    EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(CacheModel, MissRateComputation)
{
    CacheModel c(smallCache());
    c.lookup(1, false, 0, 1); // miss
    c.fill(1, 0, 1);
    c.lookup(1, false, 0, 2); // hit
    c.lookup(1, false, 0, 3); // hit
    c.lookup(2, false, 0, 4); // miss
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.5);
}

TEST(CacheModel, AccessorMaskTracksClusters)
{
    CacheModel c(smallCache());
    c.lookup(3, false, 2, 1);
    c.fill(3, 2, 1);
    c.lookup(3, false, 5, 2);
    const CacheLine *line = c.tags().probe(3);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->accessorMask, (1u << 2) | (1u << 5));
    EXPECT_EQ(line->lastAccessor, 5u);
}

TEST(CacheModel, GeometryValidation)
{
    CacheParams p;
    p.sizeBytes = 48 * 1024;
    p.assoc = 6;
    p.lineBytes = 128;
    EXPECT_EQ(p.numSets(), 64u);
    p.sizeBytes = 96 * 1024;
    p.assoc = 16;
    EXPECT_EQ(p.numSets(), 48u);
}

// ------------------------------------------------------------------ ATD

TEST(Atd, SamplesOnlyConfiguredSets)
{
    AtdParams p;
    p.sliceSets = 48;
    p.sampledSets = 8; // stride 6: sets 0,6,...,42
    Atd atd(p);
    EXPECT_TRUE(atd.sampled(0));
    EXPECT_TRUE(atd.sampled(6));
    EXPECT_FALSE(atd.sampled(1));
    EXPECT_FALSE(atd.sampled(47));
    atd.observe(1, 0, 0); // unsampled: ignored
    EXPECT_EQ(atd.samples(), 0u);
    atd.observe(0, 0, 0);
    EXPECT_EQ(atd.samples(), 1u);
}

TEST(Atd, SharedMissRateMeasured)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8; // all sets sampled
    p.assoc = 2;
    Atd atd(p);
    atd.observe(0, 0, 0); // miss
    atd.observe(0, 0, 1); // hit
    atd.observe(0, 0, 2); // hit
    atd.observe(8, 0, 3); // miss (same set 0, new tag)
    EXPECT_NEAR(atd.sampledSharedMissRate(), 0.5, 1e-9);
}

TEST(Atd, PrivateHitRequiresSameRouterRevisit)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    Atd atd(p);
    atd.observe(0, 0, 0); // install by router 0
    atd.observe(0, 1, 1); // router 1: shared hit, private miss
    atd.observe(0, 0, 2); // router 0 again: private hit
    atd.observe(0, 1, 3); // router 1 again: private hit
    EXPECT_NEAR(atd.sampledSharedMissRate(), 0.25, 1e-9);
    EXPECT_NEAR(atd.predictedPrivateMissRate(), 0.5, 1e-9);
}

TEST(Atd, SingleClusterWorkloadPredictsEqualMissRates)
{
    // When one router touches everything, the private prediction
    // converges to the shared measurement (Rule #1 territory).
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    Atd atd(p);
    for (int rep = 0; rep < 3; ++rep) {
        for (Addr a = 0; a < 16; ++a)
            atd.observe(a, 3, rep * 16 + a);
    }
    EXPECT_NEAR(atd.predictedPrivateMissRate(),
                atd.sampledSharedMissRate(), 1e-9);
}

TEST(Atd, ResetClearsCountersNotTags)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    Atd atd(p);
    atd.observe(0, 0, 0);
    atd.reset();
    EXPECT_EQ(atd.samples(), 0u);
    // Tag survives: next observe is a hit.
    atd.observe(0, 0, 1);
    EXPECT_NEAR(atd.sampledSharedMissRate(), 0.0, 1e-9);
}

TEST(Atd, HardwareCostMatchesPaperScale)
{
    AtdParams p; // 8 sets x 16 ways, 8 routers
    Atd atd(p);
    // Paper: 432 bytes for the ATD.
    EXPECT_EQ(atd.hardwareCostBytes(19), 432u);
}

TEST(Atd, LruReplacementWithinSampledSet)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    p.assoc = 2;
    Atd atd(p);
    atd.observe(0, 0, 0);  // set 0
    atd.observe(8, 0, 1);  // set 0, second way
    atd.observe(16, 0, 2); // evicts tag 0
    atd.observe(0, 0, 3);  // miss again
    EXPECT_EQ(atd.samples(), 4u);
    EXPECT_NEAR(atd.sampledSharedMissRate(), 1.0, 1e-9);
}

} // namespace amsc
