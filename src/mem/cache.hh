/**
 * @file
 * A set-associative, write-back, write-allocate cache model with LRU
 * or SRRIP replacement, prefetch-fill tracking, and an optional
 * per-line presence directory (used by the inclusive shared L3 to
 * back-invalidate private caches).
 *
 * The cache stores only tags and state - data always lives in host
 * memory; the timing and traffic consequences of hits, fills,
 * writebacks and invalidations are handled by MemoryHierarchy.
 *
 * Replacement (Table 1): LRU keeps a per-way stamp from a per-cache
 * clock and evicts the oldest. SRRIP (Static Re-Reference Interval
 * Prediction) keeps a 2-bit RRPV per way: lines are inserted at
 * RRPV 2 (long re-reference), promoted to 0 on a hit, and the victim
 * is the first way at RRPV 3, aging every way of the set until one
 * gets there.
 */

#ifndef ZCOMP_MEM_CACHE_HH
#define ZCOMP_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/check.hh"
#include "common/config.hh"
#include "mem/addr.hh"

namespace zcomp {

/** Outcome of Cache::insert. */
struct CacheVictim
{
    bool valid = false;     //!< a line was evicted
    bool dirty = false;     //!< ... and it was dirty (writeback needed)
    bool wasPrefetch = false; //!< ... and it was a never-used prefetch
    Addr addr = 0;          //!< line address of the evicted line
    uint16_t presence = 0;  //!< directory bits of the evicted line
    int slot = -1;          //!< Cache::Slot::pos of the inserted line
};

class Cache
{
  public:
    /** Bits of a way index in a Slot; bounds the associativity. */
    static constexpr int wayBits = 4;
    static constexpr int maxAssoc = 1 << wayBits;

    /**
     * Where a resident line lives, from find(): (set << wayBits) | way,
     * or -1 for an absent line. A slot stays valid until the next
     * insert or invalidate on this cache, so one probe serves every
     * step of a hierarchy walk at this level.
     */
    struct Slot
    {
        int pos = -1;
        explicit operator bool() const { return pos >= 0; }
    };

    /**
     * fatal()s unless the set count is a power of two (the index is a
     * mask) and assoc is at most maxAssoc.
     */
    Cache(std::string name, const CacheConfig &cfg, bool directory);

    /** Probe for a line (no state update). */
    Slot find(Addr line) const;

    /**
     * Count a demand lookup that probed @p s: a miss if the line is
     * absent; on a hit, update replacement state, credit a first use
     * of a prefetched line and mark dirty for writes.
     * @return true on hit.
     */
    bool access(Slot s, bool is_write);
    bool access(Addr line, bool is_write)
    {
        return access(find(line), is_write);
    }

    /** True if the line is resident (no state update). */
    bool contains(Addr line) const { return static_cast<bool>(find(line)); }

    /**
     * Insert a line (demand fill or prefetch fill), evicting a victim
     * if the set is full. The returned victim describes any line that
     * was displaced, and its slot is where @p line now lives. A line
     * that is already resident is refreshed in place instead (dirty
     * merged, a demand fill consumes the prefetch flag).
     *
     * @param ready_at cycle at which the fill data actually arrives;
     *        a demand access before then pays the residual latency
     *        (used to model in-flight prefetches, so a saturated DRAM
     *        makes prefetched lines late rather than free).
     */
    CacheVictim insert(Addr line, bool dirty, bool is_prefetch,
                       double ready_at = 0.0);

    /** Residual wait until a line's fill data arrives (0 if absent). */
    double readyWait(Slot s, double now) const;

    /**
     * Invalidate a line if present. @return true if it was dirty
     * (the caller is responsible for the writeback).
     */
    bool invalidate(Addr line);

    /** Set a presence bit on a resident line (directory caches only). */
    void markPresence(Slot s, int core);

    /** Presence bits for a resident line (0 if absent). */
    uint16_t presence(Addr line) const;

    /**
     * Clear a line's prefetched flag. @return whether it was set
     * (false for an absent line).
     */
    bool consumePrefetchFlag(Slot s);

    int numSets() const { return numSets_; }
    int assoc() const { return assoc_; }
    const std::string &name() const { return name_; }

    /** Currently valid lines (occupancy probe for tests/benches). */
    uint64_t validLines() const;

    /** Zero every event counter below (contents are kept). */
    void resetCounters();

    // Event counters, aggregated externally into the hierarchy report.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;        //!< dirty evictions
    uint64_t prefetchFills = 0;
    uint64_t prefetchUseful = 0;    //!< prefetched lines hit by demand
    uint64_t prefetchUnused = 0;    //!< prefetched lines evicted unused
    uint64_t invalidations = 0;
    uint64_t evictions = 0;         //!< total victims displaced

  private:
    /*
     * Each set's state is one 64 B-aligned block, so a probe and the
     * fill or hit update that follows touch the same few host cache
     * lines:
     *
     *   uint64_t tag[assoc]     ~line; 0 = empty way
     *   uint32_t state[assoc]   dirty | prefetched | RRPV | presence
     *   double   readyAt[assoc] fill-data arrival time
     *   uint64_t stamp[assoc]   LRU recency (LRU caches only)
     *
     * A line address is 64 B-aligned, so ~line is never 0, and zero
     * means "empty" or "unset" in every field. The initial RRPV and
     * LRU stamp of a way are never read: a victim is chosen only in a
     * full set, and every way of a full set was inserted. So the
     * blocks live in a fresh anonymous mapping, whose pages the kernel
     * zero-fills on first touch: a set that is never used costs no
     * host memory, whatever the heap has done before.
     */
    static constexpr uint32_t kDirty = 1U << 0;
    static constexpr uint32_t kPrefetched = 1U << 1;
    static constexpr int kRrpvShift = 2;
    static constexpr uint32_t kRrpvMask = 3U << kRrpvShift;
    static constexpr uint32_t kMaxRrpv = 3;
    static constexpr uint32_t kInsertRrpv = 2;
    static constexpr int kPresenceShift = 16;

    /** An anonymous private mapping, unmapped on destruction. */
    class ZeroPages
    {
      public:
        explicit ZeroPages(size_t bytes);
        ~ZeroPages();
        ZeroPages(const ZeroPages &) = delete;
        ZeroPages &operator=(const ZeroPages &) = delete;

        /** Page-aligned, so every 64 B block is host-line aligned. */
        unsigned char *data() const { return base_; }

      private:
        unsigned char *base_ = nullptr;
        size_t bytes_ = 0;
    };

    static uint64_t tagOf(Addr line) { return ~line; }
    static int posOf(int set, int way) { return set << wayBits | way; }
    static int setOf(Slot s) { return s.pos >> wayBits; }
    static int wayOf(Slot s) { return s.pos & (maxAssoc - 1); }

    unsigned char *block(int set) const
    {
        return blocks_ + static_cast<size_t>(set) * blockBytes_;
    }
    uint64_t *tags(int set) const
    {
        return reinterpret_cast<uint64_t *>(block(set));
    }
    uint32_t *states(int set) const
    {
        return reinterpret_cast<uint32_t *>(block(set) + stateOff_);
    }
    double *readyAts(int set) const
    {
        return reinterpret_cast<double *>(block(set) + readyOff_);
    }
    uint64_t *stamps(int set) const
    {
        return reinterpret_cast<uint64_t *>(block(set) + stampOff_);
    }
    uint32_t &stateAt(Slot s) const
    {
        return states(setOf(s))[wayOf(s)];
    }

    int setIndex(Addr line) const;
    void touch(int set, int way, bool hit);
    int victimWay(int set);

    std::string name_;
    int numSets_;
    int assoc_;
    bool directory_;
    bool hashIndex_;
    bool lru_;
    uint64_t setMask_;
    size_t stateOff_ = 0, readyOff_ = 0, stampOff_ = 0, blockBytes_ = 0;
    uint64_t lruClock_ = 0;
    std::unique_ptr<ZeroPages> storage_;
    unsigned char *blocks_ = nullptr;   //!< storage_->data()
};

// The lookup chain (setIndex -> find -> access/readyWait) runs
// billions of times per sweep - the timing model's hottest path - so
// these stay in the header where they inline into the hierarchy walk
// instead of paying a call per tag probe.

inline int
Cache::setIndex(Addr line) const
{
    uint64_t ln = line / lineBytes;
    if (hashIndex_) {
        // Strong multiplicative mix (Intel-LLC style complex set
        // hashing): parallel streams at power-of-two strides spread
        // uniformly over all sets instead of aliasing, and each
        // stream's lines equidistribute across the whole index space.
        ln *= 0x9E3779B97F4A7C15ULL;
        ln ^= ln >> 29;
        ln *= 0xBF58476D1CE4E5B9ULL;
        ln ^= ln >> 32;
    }
    return static_cast<int>(ln & setMask_);
}

inline Cache::Slot
Cache::find(Addr line) const
{
    ZCOMP_DCHECK(tagOf(line) != 0, "lookup of the empty-way tag");
    int set = setIndex(line);
    const uint64_t *t = tags(set);
    const uint64_t key = tagOf(line);
    for (int w = 0; w < assoc_; w++) {
        if (t[w] == key)
            return Slot{posOf(set, w)};
    }
    return Slot{};
}

inline void
Cache::touch(int set, int way, bool hit)
{
    if (lru_) {
        stamps(set)[way] = ++lruClock_;
    } else {
        uint32_t &st = states(set)[way];
        st = (st & ~kRrpvMask) |
             ((hit ? 0U : kInsertRrpv) << kRrpvShift);
    }
}

inline bool
Cache::access(Slot s, bool is_write)
{
    if (!s) {
        misses++;
        return false;
    }
    hits++;
    uint32_t &st = stateAt(s);
    if (st & kPrefetched) {
        prefetchUseful++;
        st &= ~kPrefetched;
    }
    if (is_write)
        st |= kDirty;
    touch(setOf(s), wayOf(s), true);
    return true;
}

inline double
Cache::readyWait(Slot s, double now) const
{
    if (!s)
        return 0.0;
    double ready = readyAts(setOf(s))[wayOf(s)];
    return ready > now ? ready - now : 0.0;
}

} // namespace zcomp

#endif // ZCOMP_MEM_CACHE_HH
