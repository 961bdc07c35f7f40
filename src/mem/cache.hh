/**
 * @file
 * A set-associative, write-back, write-allocate cache model with
 * pluggable replacement (LRU/SRRIP), prefetch-fill tracking, and an
 * optional per-line presence directory (used by the inclusive shared
 * L3 to back-invalidate private caches).
 *
 * The cache stores only tags and state - data always lives in host
 * memory; the timing and traffic consequences of hits, fills,
 * writebacks and invalidations are handled by MemoryHierarchy.
 */

#ifndef ZCOMP_MEM_CACHE_HH
#define ZCOMP_MEM_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "mem/addr.hh"
#include "mem/replacement.hh"

namespace zcomp {

/** Outcome of a cache lookup-with-fill. */
struct CacheVictim
{
    bool valid = false;     //!< a line was evicted
    bool dirty = false;     //!< ... and it was dirty (writeback needed)
    bool wasPrefetch = false; //!< ... and it was a never-used prefetch
    Addr addr = 0;          //!< line address of the evicted line
    uint16_t presence = 0;  //!< directory bits of the evicted line
};

class Cache
{
  public:
    Cache(std::string name, const CacheConfig &cfg, bool directory);

    /**
     * Look up a line. On a hit, updates replacement state and marks
     * dirty for writes. @return true on hit.
     */
    bool access(Addr line, bool is_write);

    /** True if the line is resident (no state update). */
    bool contains(Addr line) const;

    /**
     * Insert a line (demand fill or prefetch fill), evicting a victim
     * if the set is full. The returned victim describes any line that
     * was displaced.
     *
     * @param ready_at cycle at which the fill data actually arrives;
     *        a demand access before then pays the residual latency
     *        (used to model in-flight prefetches, so a saturated DRAM
     *        makes prefetched lines late rather than free).
     */
    CacheVictim insert(Addr line, bool dirty, bool is_prefetch,
                       double ready_at = 0.0);

    /** Residual wait until a resident line's fill data arrives. */
    double readyWait(Addr line, double now) const;

    /**
     * Invalidate a line if present. @return true if it was dirty
     * (the caller is responsible for the writeback).
     */
    bool invalidate(Addr line);

    /** Set a presence bit (directory caches only). */
    void markPresence(Addr line, int core);

    /** Presence bits for a resident line (0 if absent). */
    uint16_t presence(Addr line) const;

    /** First-use bookkeeping for prefetch accuracy accounting. */
    bool consumePrefetchFlag(Addr line);

    int numSets() const { return numSets_; }
    int assoc() const { return assoc_; }
    const std::string &name() const { return name_; }

    /** Currently valid lines (occupancy probe for tests/benches). */
    uint64_t validLines() const;

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
    /**
     * The tag of an empty way. Lookups are a pure tag-array probe (no
     * valid bit): line addresses are 64-byte aligned so they can never
     * equal the all-ones sentinel, making "tag matches" equivalent to
     * "valid and tag matches". Keeping the tags of each set contiguous
     * lets findWay compare a whole set per vector instruction instead
     * of striding through Line records.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Per-line state other than the tag (tag lives in tags_). */
    struct Line
    {
        bool dirty = false;
        bool prefetched = false;    //!< filled by prefetch, not yet used
        uint16_t presence = 0;      //!< cores holding this line (L3 only)
        double readyAt = 0.0;       //!< fill-data arrival time
    };

    int setIndex(Addr line) const;
    int findWay(int set, Addr line) const;

    std::string name_;
    int numSets_;
    int assoc_;
    bool directory_;
    bool hashIndex_ = false;
    std::vector<Addr> tags_;        //!< [set * assoc + way], kInvalidTag = empty
    std::vector<Line> lines_;
    std::unique_ptr<ReplacementPolicy> repl_;
};

// The lookup chain (setIndex -> findWay -> access/contains/readyWait)
// runs billions of times per sweep - the timing model's hottest path -
// so these stay in the header where they inline into the hierarchy
// walk instead of paying a call per tag probe.

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
    return static_cast<int>(ln % static_cast<uint64_t>(numSets_));
}

inline int
Cache::findWay(int set, Addr line) const
{
    ZCOMP_DCHECK(line != kInvalidTag, "lookup of the invalid-tag sentinel");
    const uint64_t *tags = tags_.data() + static_cast<size_t>(set) * assoc_;
    for (int w = 0; w < assoc_; w++) {
        if (tags[w] == line)
            return w;
    }
    return -1;
}

inline bool
Cache::access(Addr line, bool is_write)
{
    int set = setIndex(line);
    int way = findWay(set, line);
    if (way < 0) {
        misses++;
        return false;
    }
    hits++;
    Line &l = lines_[static_cast<size_t>(set) * assoc_ + way];
    if (l.prefetched) {
        prefetchUseful++;
        l.prefetched = false;
    }
    if (is_write)
        l.dirty = true;
    repl_->onHit(set, way);
    return true;
}

inline bool
Cache::contains(Addr line) const
{
    return findWay(setIndex(line), line) >= 0;
}

inline double
Cache::readyWait(Addr line, double now) const
{
    int set = setIndex(line);
    int way = findWay(set, line);
    if (way < 0)
        return 0.0;
    double ready =
        lines_[static_cast<size_t>(set) * assoc_ + way].readyAt;
    return ready > now ? ready - now : 0.0;
}

} // namespace zcomp

#endif // ZCOMP_MEM_CACHE_HH
