#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

double
HierSnapshot::prefetchAccuracy() const
{
    if (l2PrefIssued == 0)
        return 0.0;
    return static_cast<double>(l2PrefUseful) /
           static_cast<double>(l2PrefIssued);
}

double
HierSnapshot::prefetchCoverage() const
{
    uint64_t denom = l2PrefUseful + l2DemandMissesBelow;
    if (denom == 0)
        return 0.0;
    return static_cast<double>(l2PrefUseful) /
           static_cast<double>(denom);
}

MemoryHierarchy::MemoryHierarchy(const ArchConfig &cfg)
    : cfg_(cfg), noc_(cfg.noc), dram_(cfg.dram, cfg.core.freqGHz)
{
    // The L3 directory keeps one presence bit per core in 16 bits.
    fatal_if(cfg.numCores < 1 || cfg.numCores > 16,
             "%d cores: the L3 presence directory tracks 1 to 16",
             cfg.numCores);
    for (int c = 0; c < cfg.numCores; c++) {
        l1_.push_back(std::make_unique<Cache>(format("l1.%d", c), cfg.l1,
                                              false));
        l2_.push_back(std::make_unique<Cache>(format("l2.%d", c), cfg.l2,
                                              false));
        l2Pref_.emplace_back(cfg.prefetch);
        l1Pref_.emplace_back();
    }
    l3_ = std::make_unique<Cache>("l3", cfg.l3, true);
    l1Busy_.assign(static_cast<size_t>(cfg.numCores), 0.0);
    l2Busy_.assign(static_cast<size_t>(cfg.numCores), 0.0);
    l3SliceBusy_.assign(static_cast<size_t>(noc_.numTiles()), 0.0);
}

AccessResult
MemoryHierarchy::access(int core, Addr addr, uint32_t bytes,
                        bool is_write, double now, uint32_t pc)
{
    panic_if(core < 0 || core >= cfg_.numCores, "bad core id %d", core);
    if (bytes == 0)
        return {0.0, 1};

    coreL1Bytes_ += bytes;

    // Split line-crossing accesses; the lines are fetched in parallel
    // (separate fill paths) with a one-cycle split penalty each.
    AccessResult result;
    uint64_t nlines = linesTouched(addr, bytes);
    Addr line = lineAddr(addr);
    for (uint64_t i = 0; i < nlines; i++, line += lineBytes) {
        AccessResult r = accessLine(core, line, is_write, now, pc);
        ZCOMP_DCHECK(r.latency >= 0.0 && r.level >= 1 && r.level <= 4,
                     "bad access result: latency %f level %d",
                     r.latency, r.level);
        result.latency = std::max(result.latency,
                                  r.latency + static_cast<double>(i));
        result.level = std::max(result.level, r.level);
    }
    return result;
}

AccessResult
MemoryHierarchy::accessLine(int core, Addr line, bool is_write,
                            double now, uint32_t pc)
{
    ZCOMP_DCHECK(line % lineBytes == 0, "unaligned line address 0x%llx",
                 static_cast<unsigned long long>(line));
    auto uc = static_cast<size_t>(core);
    AccessResult res;

    // L1 bandwidth server.
    double l1_service =
        static_cast<double>(lineBytes) / cfg_.l1.bytesPerCycle;
    double l1_wait = std::max(0.0, l1Busy_[uc] - now);
    l1Busy_[uc] = std::max(l1Busy_[uc], now) + l1_service;

    runL1Prefetch(core, line, pc, now);

    // The stream prefetcher trains on the full demand line stream
    // (L1 hits included): L1 prefetch promotions would otherwise
    // punch gaps into the sequence it observes and break training.
    runL2Prefetch(core, line, now);

    if (l1_[uc]->access(l1_[uc]->find(line), is_write)) {
        res.latency = cfg_.l1.latency + l1_wait;
        res.level = 1;
        return res;
    }

    // L1 miss -> L2.
    double l2_service =
        static_cast<double>(lineBytes) / cfg_.l2.bytesPerCycle;
    double l2_wait = std::max(0.0, l2Busy_[uc] - now);
    l2Busy_[uc] = std::max(l2Busy_[uc], now) + l2_service;

    double lat = cfg_.l1.latency + l1_wait;
    Cache::Slot s2 = l2_[uc]->find(line);
    if (l2_[uc]->access(s2, false)) {
        // If the line was filled by a still-in-flight prefetch, the
        // demand access waits for the remaining fill latency.
        lat += cfg_.l2.latency + l2_wait + l2_[uc]->readyWait(s2, now + lat);
        l1L2Bytes_ += lineBytes;    // fill into L1
        insertL1(core, line, is_write);
        res.latency = lat;
        res.level = 2;
        return res;
    }

    // L2 miss -> L3 (through the NoC).
    l2DemandMissesBelow_++;
    int slice = noc_.sliceOf(line);
    double noc_rt = noc_.roundTrip(core, slice);
    nocHops_ += static_cast<uint64_t>(2 * noc_.hops(core, slice));
    double l3_service =
        static_cast<double>(lineBytes) / cfg_.l3.bytesPerCycle;
    auto us = static_cast<size_t>(slice);
    double l3_wait = std::max(0.0, l3SliceBusy_[us] - now);
    l3SliceBusy_[us] = std::max(l3SliceBusy_[us], now) + l3_service;

    lat += cfg_.l2.latency + l2_wait + noc_rt + cfg_.l3.latency + l3_wait;
    Cache::Slot s3 = l3_->find(line);
    res.level = s3 ? 3 : 4;
    lat += fillL3(core, line, s3, now, lat);

    // Fill the private caches.
    l2L3Bytes_ += lineBytes;
    insertL2(core, line, false, now);
    l1L2Bytes_ += lineBytes;
    insertL1(core, line, is_write);

    res.latency = lat;
    return res;
}

double
MemoryHierarchy::fillL3(int core, Addr line, Cache::Slot s3, double now,
                        double delay)
{
    double lat = 0;
    if (!l3_->access(s3, false)) {
        lat = dram_.access(line, false, now + delay);
        l3DramBytes_ += lineBytes;
        CacheVictim v = l3_->insert(line, false, false);
        s3 = Cache::Slot{v.slot};
        // Back-invalidation touches only the private caches, so the
        // slot of the line just filled stays valid.
        evictFromL3(v, now);
    }
    l3_->markPresence(s3, core);
    return lat;
}

void
MemoryHierarchy::evictFromL3(const CacheVictim &victim, double now)
{
    if (!victim.valid)
        return;
    bool dirty = victim.dirty;
    // Inclusive L3: remove the line from every private cache that may
    // hold it; dirty private copies merge into the writeback.
    for (int c = 0; c < cfg_.numCores; c++) {
        if (victim.presence & (1U << c)) {
            auto uc = static_cast<size_t>(c);
            if (l1_[uc]->invalidate(victim.addr)) {
                dirty = true;
                l1L2Bytes_ += lineBytes;
            }
            if (l2_[uc]->invalidate(victim.addr)) {
                dirty = true;
                l2L3Bytes_ += lineBytes;
            }
        }
    }
    if (dirty) {
        dram_.access(victim.addr, true, now);
        l3DramBytes_ += lineBytes;
    }
}

Cache::Slot
MemoryHierarchy::insertL2(int core, Addr line, bool prefetch, double now,
                          double ready_at)
{
    auto uc = static_cast<size_t>(core);
    CacheVictim v = l2_[uc]->insert(line, false, prefetch, ready_at);
    Cache::Slot filled{v.slot};
    if (v.valid) {
        // Inclusion of L1: the evicted L2 line leaves L1 as well.
        bool l1_dirty = l1_[uc]->invalidate(v.addr);
        if (l1_dirty) {
            l1L2Bytes_ += lineBytes;
            v.dirty = true;
        }
        if (v.dirty) {
            // Write back into L3; the line is still there (inclusive)
            // unless it was already evicted - then it goes to DRAM.
            l2L3Bytes_ += lineBytes;
            Cache::Slot s3 = l3_->find(v.addr);
            if (s3) {
                l3WbProbes_++;
                l3_->access(s3, true);
            } else {
                dram_.access(v.addr, true, now);
                l3DramBytes_ += lineBytes;
            }
        }
    }
    return filled;
}

void
MemoryHierarchy::insertL1(int core, Addr line, bool dirty)
{
    auto uc = static_cast<size_t>(core);
    CacheVictim v = l1_[uc]->insert(line, dirty, false);
    if (v.valid && v.dirty) {
        // Write back into L2. L1 is a subset of L2 by construction: an
        // L2 eviction invalidates the L1 copy, and an L3
        // back-invalidation clears both.
        l1L2Bytes_ += lineBytes;
        Cache::Slot s2 = l2_[uc]->find(v.addr);
        ZCOMP_CHECK(static_cast<bool>(s2),
                    "core %d: dirty L1 victim 0x%llx is not in L2", core,
                    static_cast<unsigned long long>(v.addr));
        l2_[uc]->access(s2, true);
    }
}

void
MemoryHierarchy::runL2Prefetch(int core, Addr line, double now)
{
    if (!cfg_.prefetch.l2Stream)
        return;
    auto uc = static_cast<size_t>(core);
    prefetchScratch_.clear();
    l2Pref_[uc].onAccess(line, prefetchScratch_);
    for (Addr pf : prefetchScratch_) {
        if (l2_[uc]->contains(pf))
            continue;
        // Prefetch throttling: hardware prefetchers drop requests
        // when the memory queues are saturated. Without this, a core
        // running at cache speed can flood DRAM with fills faster
        // than the channels drain, and the ready-time of late fills
        // runs away unboundedly.
        Cache::Slot s3 = l3_->find(pf);
        if (!s3 && dram_.backlog(pf, now) > prefetchBacklogCap_) {
            continue;
        }
        // Fetch from L3/DRAM into L2, consuming real bandwidth. The
        // fill's arrival time is recorded so that a demand access that
        // catches up with a late prefetch still pays the residual
        // latency.
        int slice = noc_.sliceOf(pf);
        auto us = static_cast<size_t>(slice);
        double l3_service =
            static_cast<double>(lineBytes) / cfg_.l3.bytesPerCycle;
        double l3_wait = std::max(0.0, l3SliceBusy_[us] - now);
        l3SliceBusy_[us] = std::max(l3SliceBusy_[us], now) + l3_service;
        double fill_lat = noc_.roundTrip(core, slice) + cfg_.l3.latency +
                          l3_wait + fillL3(core, pf, s3, now, 0.0);
        nocHops_ += static_cast<uint64_t>(2 * noc_.hops(core, slice));
        l2L3Bytes_ += lineBytes;
        l2PrefFilled_++;
        insertL2(core, pf, true, now, now + fill_lat);
    }
}

void
MemoryHierarchy::runL1Prefetch(int core, Addr line, uint32_t pc,
                               double now)
{
    if (!cfg_.prefetch.l1IpStride)
        return;
    auto uc = static_cast<size_t>(core);
    prefetchScratch_.clear();
    l1Pref_[uc].onAccess(pc, line, prefetchScratch_);
    for (Addr pf : prefetchScratch_) {
        if (l1_[uc]->contains(pf))
            continue;
        // L1 prefetch only promotes lines already in this core's L2;
        // it does not cascade misses further down, and it leaves
        // still-in-flight L2 prefetch fills alone (their data has not
        // arrived yet).
        Cache::Slot s2 = l2_[uc]->find(pf);
        if (!s2 || l2_[uc]->readyWait(s2, now) > 0)
            continue;
        // Promoting a prefetched L2 line on behalf of an imminent
        // demand access consumes (and credits) the L2 prefetch.
        if (l2_[uc]->consumePrefetchFlag(s2))
            l2_[uc]->prefetchUseful++;
        l1L2Bytes_ += lineBytes;
        insertL1(core, pf, false);
    }
}

void
MemoryHierarchy::checkInvariants() const
{
    uint64_t l1_misses = 0, l1_writebacks = 0;
    uint64_t l2_accesses = 0, l2_misses = 0, l2_pref_fills = 0;
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        l1_misses += l1_[uc]->misses;
        l1_writebacks += l1_[uc]->writebacks;
        l2_accesses += l2_[uc]->hits + l2_[uc]->misses;
        l2_misses += l2_[uc]->misses;
        l2_pref_fills += l2_[uc]->prefetchFills;
    }

    // Level-N misses + writebacks == level-N+1 accesses: every L2
    // lookup is caused by an L1 demand miss or an L1 dirty writeback.
    ZCOMP_CHECK(l2_accesses == l1_misses + l1_writebacks,
                "L1->L2 conservation: %llu L2 accesses vs %llu misses "
                "+ %llu writebacks",
                (unsigned long long)l2_accesses,
                (unsigned long long)l1_misses,
                (unsigned long long)l1_writebacks);

    // Demand misses leaving the private caches are counted twice,
    // once per L2 and once at the hierarchy; they must agree.
    ZCOMP_CHECK(l2_misses == l2DemandMissesBelow_,
                "L2 miss accounting drifted: %llu vs %llu",
                (unsigned long long)l2_misses,
                (unsigned long long)l2DemandMissesBelow_);

    // Every L3 lookup is a demand L2 miss, a prefetch fill probe, or
    // an L2 dirty writeback landing in the (inclusive) L3.
    ZCOMP_CHECK(l3_->hits + l3_->misses ==
                    l2DemandMissesBelow_ + l2PrefFilled_ + l3WbProbes_,
                "L2->L3 conservation: %llu L3 accesses vs %llu + %llu "
                "+ %llu",
                (unsigned long long)(l3_->hits + l3_->misses),
                (unsigned long long)l2DemandMissesBelow_,
                (unsigned long long)l2PrefFilled_,
                (unsigned long long)l3WbProbes_);

    // Bytes entering or leaving DRAM are exactly the bytes accounted
    // on the L3<->DRAM link.
    ZCOMP_CHECK(dram_.bytesRead + dram_.bytesWritten == l3DramBytes_,
                "L3->DRAM conservation: %llu DRAM bytes vs %llu link "
                "bytes",
                (unsigned long long)(dram_.bytesRead +
                                     dram_.bytesWritten),
                (unsigned long long)l3DramBytes_);

    // DRAM busy-time accounting: accrued busy cycles fit the channel
    // schedules (deferred posted writes only count once drained).
    dram_.checkInvariants();

    // Hierarchy-side and cache-side prefetch fill counts must agree.
    ZCOMP_CHECK(l2_pref_fills == l2PrefFilled_,
                "prefetch fill accounting drifted: %llu vs %llu",
                (unsigned long long)l2_pref_fills,
                (unsigned long long)l2PrefFilled_);

    // Structural sanity.
    ZCOMP_CHECK(l1L2Bytes_ % lineBytes == 0 &&
                    l2L3Bytes_ % lineBytes == 0 &&
                    l3DramBytes_ % lineBytes == 0,
                "link traffic is not line-granular");
    ZCOMP_CHECK(nocHops_ % 2 == 0,
                "round-trip NoC hop total %llu is odd",
                (unsigned long long)nocHops_);

    auto check_cache = [](const Cache &c) {
        ZCOMP_CHECK(c.writebacks <= c.evictions,
                    "cache %s: %llu writebacks exceed %llu evictions",
                    c.name().c_str(), (unsigned long long)c.writebacks,
                    (unsigned long long)c.evictions);
        uint64_t capacity = static_cast<uint64_t>(c.numSets()) *
                            static_cast<uint64_t>(c.assoc());
        // Each counted fill resolves at most once as useful or unused;
        // the capacity slack covers still-flagged lines that survived
        // a resetStats() (their fill predates the counter epoch).
        ZCOMP_CHECK(c.prefetchUseful + c.prefetchUnused <=
                        c.prefetchFills + capacity,
                    "cache %s: prefetch outcome accounting drifted",
                    c.name().c_str());
        // Debug only: the occupancy probe walks every line, too slow
        // for the per-phase snapshot() calls of Release studies.
        ZCOMP_DCHECK(c.validLines() <= capacity,
                     "cache %s: occupancy exceeds capacity",
                     c.name().c_str());
    };
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        check_cache(*l1_[uc]);
        check_cache(*l2_[uc]);
    }
    check_cache(*l3_);
}

HierSnapshot
MemoryHierarchy::snapshot() const
{
    checkInvariants();
    HierSnapshot s;
    s.coreL1Bytes = coreL1Bytes_;
    s.l1L2Bytes = l1L2Bytes_;
    s.l2L3Bytes = l2L3Bytes_;
    s.l3DramBytes = l3DramBytes_;
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        s.l1Hits += l1_[uc]->hits;
        s.l1Misses += l1_[uc]->misses;
        s.l2Hits += l2_[uc]->hits;
        s.l2Misses += l2_[uc]->misses;
        s.l2PrefUseful += l2_[uc]->prefetchUseful;
        s.l2PrefUnused += l2_[uc]->prefetchUnused;
    }
    s.l2PrefIssued = l2PrefFilled_;
    s.l3Hits = l3_->hits;
    s.l3Misses = l3_->misses;
    s.l2DemandMissesBelow = l2DemandMissesBelow_;
    s.nocHops = nocHops_;
    return s;
}

void
MemoryHierarchy::dumpStats(StatGroup &group) const
{
    HierSnapshot s = snapshot();
    StatGroup &links = group.addChild("links");
    links.addCounter("core_l1_bytes", "requested bytes at the cores")
        .set(s.coreL1Bytes);
    links.addCounter("l1_l2_bytes", "L1<->L2 fills + writebacks")
        .set(s.l1L2Bytes);
    links.addCounter("l2_l3_bytes", "L2<->L3 fills + writebacks")
        .set(s.l2L3Bytes);
    links.addCounter("l3_dram_bytes", "off-chip DRAM transfers")
        .set(s.l3DramBytes);

    group.addChild("noc")
        .addCounter("hops", "mesh hops traversed (demand + prefetch)")
        .set(s.nocHops);

    auto fill_cache = [](StatGroup &g, const Cache &c) {
        g.addCounter("hits", "demand hits").set(c.hits);
        g.addCounter("misses", "demand misses").set(c.misses);
        g.addCounter("writebacks", "dirty evictions").set(c.writebacks);
        g.addCounter("evictions", "total victims").set(c.evictions);
        g.addCounter("invalidations", "back-invalidations")
            .set(c.invalidations);
        g.addCounter("pf_fills", "prefetch fills").set(c.prefetchFills);
        g.addCounter("pf_useful", "prefetches hit by demand")
            .set(c.prefetchUseful);
        g.addCounter("pf_unused", "prefetches evicted unused")
            .set(c.prefetchUnused);
    };
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        fill_cache(group.addChild(format("l1_%d", c)), *l1_[uc]);
        fill_cache(group.addChild(format("l2_%d", c)), *l2_[uc]);
    }
    fill_cache(group.addChild("l3"), *l3_);

    StatGroup &dram = group.addChild("dram");
    dram.addCounter("bytes_read", "DRAM read bytes")
        .set(dram_.bytesRead);
    dram.addCounter("bytes_written", "DRAM write bytes")
        .set(dram_.bytesWritten);
    dram.addCounter("busy_cycles", "aggregate channel busy cycles")
        .set(static_cast<uint64_t>(dram_.busyCycles()));
    if (dram_.injectedBitflips() > 0) {
        // Only present under --fault-spec so fault-free stat dumps stay
        // byte-identical to earlier releases.
        dram.addCounter("fault_bitflips", "injected corrected ECC events")
            .set(dram_.injectedBitflips());
    }
}

void
MemoryHierarchy::resetStats()
{
    coreL1Bytes_ = 0;
    l1L2Bytes_ = 0;
    l2L3Bytes_ = 0;
    l3DramBytes_ = 0;
    l2DemandMissesBelow_ = 0;
    l2PrefFilled_ = 0;
    l3WbProbes_ = 0;
    nocHops_ = 0;
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        l1_[uc]->resetCounters();
        l2_[uc]->resetCounters();
        l2Pref_[uc].reset();
        l1Pref_[uc].reset();
    }
    l3_->resetCounters();
    dram_.reset();
}

void
MemoryHierarchy::resetAll()
{
    // Rebuild the caches from scratch: simplest correct flush.
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        l1_[uc] = std::make_unique<Cache>(format("l1.%d", c), cfg_.l1,
                                          false);
        l2_[uc] = std::make_unique<Cache>(format("l2.%d", c), cfg_.l2,
                                          false);
    }
    l3_ = std::make_unique<Cache>("l3", cfg_.l3, true);
    std::fill(l1Busy_.begin(), l1Busy_.end(), 0.0);
    std::fill(l2Busy_.begin(), l2Busy_.end(), 0.0);
    std::fill(l3SliceBusy_.begin(), l3SliceBusy_.end(), 0.0);
    resetStats();
}

} // namespace zcomp
