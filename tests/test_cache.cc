/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

using namespace zcomp;

namespace {

CacheConfig
tinyCache(int lines, int assoc, ReplPolicy repl = ReplPolicy::LRU)
{
    CacheConfig cfg;
    cfg.size = static_cast<uint64_t>(lines) * lineBytes;
    cfg.assoc = assoc;
    cfg.repl = repl;
    return cfg;
}

/** Insert a line and return the address it displaced (0 if none). */
Addr
evicted(Cache &c, Addr line)
{
    CacheVictim v = c.insert(line, false, false);
    return v.valid ? v.addr : 0;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c("t", tinyCache(8, 2), false);
    EXPECT_FALSE(c.access(0x1000, false));
    c.insert(0x1000, false, false);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
}

TEST(Cache, WriteMarksDirtyAndEvictionReportsIt)
{
    // 2 lines, direct... 2-way single set: fill both ways then insert a
    // third line; the dirty one must come out as a writeback.
    Cache c("t", tinyCache(2, 2), false);
    c.insert(0x0, false, false);
    c.insert(0x80, false, false);   // set 0 again (2 sets? no: 1 set)
    c.access(0x0, true);            // dirty line 0x0
    c.access(0x80, false);          // 0x80 more recent
    CacheVictim v = c.insert(0x100, false, false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x0u);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(c.writebacks, 1u);
}

TEST(Cache, InvalidateReturnsDirtiness)
{
    Cache c("t", tinyCache(8, 2), false);
    c.insert(0x40, false, false);
    c.access(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40));   // already gone
    EXPECT_EQ(c.invalidations, 1u);
}

TEST(Cache, PrefetchAccuracyAccounting)
{
    Cache c("t", tinyCache(4, 4), false);
    c.insert(0x000, false, true);   // prefetch fill
    c.insert(0x040, false, true);
    EXPECT_EQ(c.prefetchFills, 2u);
    // Demand hit on one prefetched line -> useful.
    EXPECT_TRUE(c.access(0x000, false));
    EXPECT_EQ(c.prefetchUseful, 1u);
    // Second hit on the same line is no longer counted as prefetch use.
    c.access(0x000, false);
    EXPECT_EQ(c.prefetchUseful, 1u);
    // Evict the unused prefetch (fill the set, then one more).
    c.insert(0x080, false, false);
    c.insert(0x0C0, false, false);
    c.insert(0x100, false, false);
    EXPECT_EQ(c.prefetchUnused, 1u);
}

TEST(Cache, ReadyWaitModelsInFlightFills)
{
    Cache c("t", tinyCache(8, 2), false);
    c.insert(0x40, false, true, /*ready_at=*/100.0);
    EXPECT_DOUBLE_EQ(c.readyWait(c.find(0x40), 60.0), 40.0);
    EXPECT_DOUBLE_EQ(c.readyWait(c.find(0x40), 150.0), 0.0);
    EXPECT_DOUBLE_EQ(c.readyWait(c.find(0x9999), 0.0), 0.0);    // absent
}

TEST(Cache, DirectoryPresenceBits)
{
    Cache c("l3", tinyCache(8, 2), true);
    CacheVictim fill = c.insert(0x40, false, false);
    EXPECT_EQ(c.find(0x40).pos, fill.slot);
    c.markPresence(c.find(0x40), 3);
    c.markPresence(c.find(0x40), 7);
    EXPECT_EQ(c.presence(0x40), (1u << 3) | (1u << 7));
    EXPECT_EQ(c.presence(0x80), 0u);
    // Presence travels with the victim on eviction.
    c.insert(0x240, false, false);  // same set (8 lines/2-way = 4 sets)
    CacheVictim v = c.insert(0x440, false, false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.presence, (1u << 3) | (1u << 7));
}

TEST(Cache, SetConflictsEvictWithinSetOnly)
{
    // 8 lines, 2-way -> 4 sets. Lines mapping to set 0 are multiples
    // of 4*64 = 0x100.
    Cache c("t", tinyCache(8, 2), false);
    c.insert(0x000, false, false);
    c.insert(0x100, false, false);
    c.insert(0x040, false, false);  // set 1: must not evict set 0
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x100));
    CacheVictim v = c.insert(0x200, false, false);  // set 0 overflows
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.addr == 0x000 || v.addr == 0x100);
    EXPECT_TRUE(c.contains(0x040));
}

TEST(Cache, ReinsertResidentLineIsNotAnEviction)
{
    Cache c("t", tinyCache(8, 2), false);
    c.insert(0x40, false, false);
    CacheVictim v = c.insert(0x40, true, false);
    EXPECT_FALSE(v.valid);
    // Dirty flag merged in.
    CacheVictim v2 = c.insert(0x240, false, false);
    (void)v2;
    c.access(0x40, false);
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, SrripCacheBasics)
{
    Cache c("t", tinyCache(8, 4, ReplPolicy::SRRIP), false);
    c.insert(0x000, false, false);
    EXPECT_TRUE(c.access(0x000, false));
    EXPECT_TRUE(c.contains(0x000));
}

TEST(Cache, ResetCountersZeroesEveryCounterAndKeepsContents)
{
    Cache c("t", tinyCache(2, 2), false);
    c.insert(0x000, false, true);
    c.access(0x000, true);
    c.insert(0x040, false, true);
    c.insert(0x080, false, false);  // evicts the dirty 0x000
    c.invalidate(0x040);
    c.access(0x100, false);
    EXPECT_GT(c.hits + c.misses + c.writebacks + c.prefetchFills +
                  c.prefetchUseful + c.prefetchUnused + c.invalidations +
                  c.evictions,
              0u);
    c.resetCounters();
    for (uint64_t n : {c.hits, c.misses, c.writebacks, c.prefetchFills,
                       c.prefetchUseful, c.prefetchUnused, c.invalidations,
                       c.evictions})
        EXPECT_EQ(n, 0u);
    EXPECT_TRUE(c.contains(0x080));
}

TEST(CacheDeathTest, RejectsGeometryTheIndexCannotMask)
{
    // 12 lines / 4 ways = 3 sets: the set index is a mask.
    EXPECT_DEATH(Cache("t", tinyCache(12, 4), false), "power of two");
    // A way index must fit the wayBits of a slot.
    EXPECT_DEATH(Cache("t", tinyCache(32, 32), false), "associativity");
}

// ---------------------------------------------------------------------
// Replacement: LRU (L1) and SRRIP (L2, L3), on one set of a Cache.
// ---------------------------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed)
{
    Cache c("t", tinyCache(4, 4), false);   // one 4-way set
    for (Addr a : {0x000, 0x040, 0x080, 0x0C0})
        c.insert(a, false, false);
    // Touch 0x000, 0x080, 0x0C0 -> 0x040 is LRU.
    c.access(0x000, false);
    c.access(0x080, false);
    c.access(0x0C0, false);
    EXPECT_EQ(evicted(c, 0x100), 0x040u);
}

TEST(Lru, HitRefreshesRecency)
{
    Cache c("t", tinyCache(2, 2), false);   // one 2-way set
    c.insert(0x000, false, false);
    c.insert(0x040, false, false);
    c.access(0x000, false);
    EXPECT_EQ(evicted(c, 0x080), 0x040u);
    c.access(0x000, false);
    c.access(0x080, false);                 // 0x000 is older again
    EXPECT_EQ(evicted(c, 0x0C0), 0x000u);
}

TEST(Lru, SetsAreIndependent)
{
    // Two 2-way sets: set 0 holds multiples of 0x80, set 1 the rest.
    Cache c("t", tinyCache(4, 2), false);
    c.insert(0x000, false, false);
    c.insert(0x080, false, false);
    c.insert(0x0C0, false, false);
    c.insert(0x040, false, false);
    c.access(0x000, false);
    EXPECT_EQ(evicted(c, 0x100), 0x080u);
    // The hit in set 0 must not affect set 1.
    EXPECT_EQ(evicted(c, 0x140), 0x0C0u);
}

TEST(Srrip, InsertsAtLongRereference)
{
    // One 2-way set. A hit line sits at RRPV 0 and a new line at 2, so
    // aging reaches the new line first - and only after the hit line
    // has been aged up to 2 does way order decide.
    Cache c("t", tinyCache(2, 2, ReplPolicy::SRRIP), false);
    c.insert(0x000, false, false);          // A: 2
    c.insert(0x040, false, false);          // B: 2
    c.access(0x000, false);                 // A: 0
    EXPECT_EQ(evicted(c, 0x080), 0x040u);   // age +1: A 1; C: 2
    EXPECT_EQ(evicted(c, 0x0C0), 0x080u);   // age +1: A 2; D: 2
    EXPECT_EQ(evicted(c, 0x100), 0x000u);   // tie at 2: way 0 (A)
}

TEST(Srrip, HitPromotesToZeroAndAgingWorks)
{
    Cache c("t", tinyCache(2, 2, ReplPolicy::SRRIP), false);
    c.insert(0x000, false, false);  // 2
    c.insert(0x040, false, false);  // 2
    c.access(0x000, false);         // 0
    // Nobody at 3 -> age until way 1 (the unhit line) reaches 3.
    EXPECT_EQ(evicted(c, 0x080), 0x040u);
    // The aging left the hit line at 1, below the new line's 2.
    EXPECT_EQ(evicted(c, 0x0C0), 0x080u);
}

TEST(Srrip, ScanResistance)
{
    // A hot line that is hit stays resident while scan insertions keep
    // replacing the other way - the signature SRRIP behaviour.
    Cache c("t", tinyCache(2, 2, ReplPolicy::SRRIP), false);
    c.insert(0x000, false, false);          // hot
    Addr scan = 0x040;
    c.insert(scan, false, false);
    for (int i = 0; i < 5; i++) {
        c.access(0x000, false);             // re-referenced
        Addr next = scan + 0x40;
        EXPECT_EQ(evicted(c, next), scan);  // scans evict scans
        scan = next;
    }
    EXPECT_TRUE(c.contains(0x000));
}

TEST(Replacement, ConfigSelectsPolicy)
{
    // The same trace on one 2-way set: LRU evicts the older hit, SRRIP
    // sees two lines at RRPV 0 and takes way 0.
    auto victim = [](ReplPolicy p) {
        Cache c("t", tinyCache(2, 2, p), false);
        c.insert(0x000, false, false);
        c.insert(0x040, false, false);
        c.access(0x040, false);
        c.access(0x000, false);
        return evicted(c, 0x080);
    };
    EXPECT_EQ(victim(ReplPolicy::LRU), 0x040u);
    EXPECT_EQ(victim(ReplPolicy::SRRIP), 0x000u);
}

// ---------------------------------------------------------------------
// Property test: the cache model against a naive per-set reference
// (linear LRU and step-by-step SRRIP, modulo set index, one record per
// way) over a seeded random mix of every operation.
// ---------------------------------------------------------------------

#include <vector>

#include "common/rng.hh"

namespace {

class RefCache
{
  public:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        bool dirty = false;
        bool prefetched = false;
        uint16_t presence = 0;
        double readyAt = 0;
        uint64_t stamp = 0;
        int rrpv = 3;
    };

    RefCache(const CacheConfig &cfg)
        : cfg_(cfg), ways_(cfg.assoc),
          sets_(cfg.size / lineBytes / static_cast<uint64_t>(cfg.assoc),
                std::vector<Way>(static_cast<size_t>(cfg.assoc)))
    {}

    Way *
    find(Addr line)
    {
        for (Way &w : sets_[setOf(line)]) {
            if (w.valid && w.line == line)
                return &w;
        }
        return nullptr;
    }

    bool
    access(Addr line, bool is_write)
    {
        Way *w = find(line);
        if (!w) {
            misses++;
            return false;
        }
        hits++;
        if (w->prefetched) {
            prefetchUseful++;
            w->prefetched = false;
        }
        w->dirty |= is_write;
        w->stamp = ++clock_;
        w->rrpv = 0;
        return true;
    }

    CacheVictim
    insert(Addr line, bool dirty, bool is_prefetch, double ready_at)
    {
        CacheVictim v;
        if (Way *w = find(line)) {
            w->dirty |= dirty;
            if (!is_prefetch && w->prefetched) {
                prefetchUseful++;
                w->prefetched = false;
            }
            return v;
        }
        std::vector<Way> &set = sets_[setOf(line)];
        Way *slot = nullptr;
        for (Way &w : set) {
            if (!w.valid) {
                slot = &w;
                break;
            }
        }
        if (!slot) {
            slot = &set[static_cast<size_t>(victim(set))];
            v.valid = true;
            v.dirty = slot->dirty;
            v.wasPrefetch = slot->prefetched;
            v.addr = slot->line;
            v.presence = slot->presence;
            evictions++;
            writebacks += v.dirty;
            prefetchUnused += v.wasPrefetch;
        }
        slot->valid = true;
        slot->line = line;
        slot->dirty = dirty;
        slot->prefetched = is_prefetch;
        slot->presence = 0;
        slot->readyAt = ready_at;
        slot->stamp = ++clock_;
        slot->rrpv = 2;
        prefetchFills += is_prefetch;
        return v;
    }

    bool
    invalidate(Addr line)
    {
        Way *w = find(line);
        if (!w)
            return false;
        prefetchUnused += w->prefetched;
        w->valid = false;
        invalidations++;
        return w->dirty;
    }

    uint64_t
    validLines() const
    {
        uint64_t n = 0;
        for (const auto &set : sets_)
            for (const Way &w : set)
                n += w.valid;
        return n;
    }

    uint64_t hits = 0, misses = 0, writebacks = 0, prefetchFills = 0;
    uint64_t prefetchUseful = 0, prefetchUnused = 0, invalidations = 0;
    uint64_t evictions = 0;

  private:
    size_t
    setOf(Addr line) const
    {
        uint64_t ln = line / lineBytes;
        if (cfg_.hashIndex) {
            ln *= 0x9E3779B97F4A7C15ULL;
            ln ^= ln >> 29;
            ln *= 0xBF58476D1CE4E5B9ULL;
            ln ^= ln >> 32;
        }
        return static_cast<size_t>(ln % sets_.size());
    }

    int
    victim(std::vector<Way> &set) const
    {
        if (cfg_.repl == ReplPolicy::LRU) {
            int v = 0;
            for (int w = 1; w < ways_; w++) {
                if (set[static_cast<size_t>(w)].stamp <
                    set[static_cast<size_t>(v)].stamp)
                    v = w;
            }
            return v;
        }
        for (;;) {
            for (int w = 0; w < ways_; w++) {
                if (set[static_cast<size_t>(w)].rrpv >= 3)
                    return w;
            }
            for (Way &w : set)
                w.rrpv++;
        }
    }

    CacheConfig cfg_;
    int ways_;
    uint64_t clock_ = 0;
    std::vector<std::vector<Way>> sets_;
};

/** Drive @p ops random operations through a Cache and a RefCache. */
void
checkAgainstReference(const CacheConfig &cfg, uint64_t seed, int ops)
{
    Cache dut("dut", cfg, /*directory=*/true);
    RefCache ref(cfg);
    const uint64_t lines = cfg.size / lineBytes;
    Rng rng(seed);
    double now = 0;
#define ASSERT_SAME(dut_value, ref_value) \
    ASSERT_EQ(dut_value, ref_value) << "diverged at op " << i
    for (int i = 0; i < ops; i++) {
        // Hot lines (reuse, ~2x capacity) and a cold tail.
        Addr line = (rng.chance(0.8) ? rng.below(2 * lines)
                                     : rng.below(uint64_t{1} << 20)) *
                    lineBytes;
        now += 1.0;
        uint64_t op = rng.below(100);
        if (op < 45) {
            bool w = rng.chance(0.3);
            ASSERT_SAME(dut.access(line, w), ref.access(line, w));
        } else if (op < 75) {
            bool dirty = rng.chance(0.2);
            bool pf = rng.chance(0.4);
            double ready = pf ? now + static_cast<double>(rng.below(200))
                              : 0.0;
            CacheVictim d = dut.insert(line, dirty, pf, ready);
            CacheVictim r = ref.insert(line, dirty, pf, ready);
            ASSERT_SAME(d.valid, r.valid);
            ASSERT_SAME(d.addr, r.addr);
            ASSERT_SAME(d.dirty, r.dirty);
            ASSERT_SAME(d.wasPrefetch, r.wasPrefetch);
            ASSERT_SAME(d.presence, r.presence);
            ASSERT_SAME(dut.find(line).pos, d.slot);
        } else if (op < 83) {
            ASSERT_SAME(dut.invalidate(line), ref.invalidate(line));
        } else if (op < 89) {
            RefCache::Way *w = ref.find(line);
            Cache::Slot s = dut.find(line);
            ASSERT_SAME(static_cast<bool>(s), w != nullptr);
            if (w) {
                int core = static_cast<int>(rng.below(16));
                dut.markPresence(s, core);
                w->presence |= static_cast<uint16_t>(1U << core);
            }
            ASSERT_SAME(dut.presence(line), w ? w->presence : 0);
        } else if (op < 94) {
            RefCache::Way *w = ref.find(line);
            bool was = w && w->prefetched;
            if (w)
                w->prefetched = false;
            ASSERT_SAME(dut.consumePrefetchFlag(dut.find(line)), was);
        } else {
            RefCache::Way *w = ref.find(line);
            double want = w && w->readyAt > now ? w->readyAt - now : 0.0;
            ASSERT_SAME(dut.readyWait(dut.find(line), now), want);
        }
        ASSERT_SAME(dut.hits, ref.hits);
        ASSERT_SAME(dut.misses, ref.misses);
        ASSERT_SAME(dut.writebacks, ref.writebacks);
        ASSERT_SAME(dut.prefetchFills, ref.prefetchFills);
        ASSERT_SAME(dut.prefetchUseful, ref.prefetchUseful);
        ASSERT_SAME(dut.prefetchUnused, ref.prefetchUnused);
        ASSERT_SAME(dut.invalidations, ref.invalidations);
        ASSERT_SAME(dut.evictions, ref.evictions);
        if (i % 4096 == 0) {
            ASSERT_SAME(dut.validLines(), ref.validLines());
        }
    }
#undef ASSERT_SAME
    EXPECT_GT(dut.hits, 0u);
    EXPECT_GT(dut.evictions, 0u);
    EXPECT_GT(dut.prefetchUseful, 0u);
    EXPECT_GT(dut.invalidations, 0u);
}

CacheConfig
propertyCache(int sets, int assoc, ReplPolicy repl, bool hash)
{
    CacheConfig cfg = tinyCache(sets * assoc, assoc, repl);
    cfg.hashIndex = hash;
    return cfg;
}

} // namespace

TEST(CacheProperty, LruMatchesReferenceModel)
{
    checkAgainstReference(propertyCache(16, 4, ReplPolicy::LRU, false),
                          20260706, 500000);
    checkAgainstReference(propertyCache(8, 8, ReplPolicy::LRU, true),
                          20260707, 500000);
}

TEST(CacheProperty, SrripMatchesReferenceModel)
{
    checkAgainstReference(propertyCache(32, 12, ReplPolicy::SRRIP, true),
                          20260708, 500000);
    checkAgainstReference(propertyCache(4, 16, ReplPolicy::SRRIP, false),
                          20260709, 500000);
}
