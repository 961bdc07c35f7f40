#include "mem/cache.hh"

#include <bit>

#include <sys/mman.h>

#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

namespace {

size_t
roundUp(size_t n, size_t to)
{
    return (n + to - 1) / to * to;
}

} // namespace

Cache::Cache(std::string name, const CacheConfig &cfg, bool directory)
    : name_(std::move(name)), assoc_(cfg.assoc), directory_(directory),
      hashIndex_(cfg.hashIndex), lru_(cfg.repl == ReplPolicy::LRU)
{
    fatal_if(assoc_ <= 0 || assoc_ > maxAssoc,
             "cache %s: associativity %d outside 1..%d", name_.c_str(),
             assoc_, maxAssoc);
    uint64_t num_lines = cfg.size / lineBytes;
    fatal_if(num_lines % cfg.assoc != 0,
             "cache %s: %llu lines not divisible by associativity %d",
             name_.c_str(), (unsigned long long)num_lines, cfg.assoc);
    uint64_t sets = num_lines / cfg.assoc;
    fatal_if(!std::has_single_bit(sets),
             "cache %s: %llu sets is not a power of two", name_.c_str(),
             (unsigned long long)sets);
    numSets_ = static_cast<int>(sets);
    setMask_ = sets - 1;

    const auto a = static_cast<size_t>(assoc_);
    stateOff_ = a * sizeof(uint64_t);
    readyOff_ = roundUp(stateOff_ + a * sizeof(uint32_t), sizeof(double));
    stampOff_ = readyOff_ + a * sizeof(double);
    size_t end = stampOff_ + (lru_ ? a * sizeof(uint64_t) : 0);
    blockBytes_ = roundUp(end, 64);

    // Zeroed, untouched pages: a set costs host memory only once used.
    // Each region of a block is only ever accessed as its one type, so
    // the arrays the mapping implicitly creates there are well defined.
    storage_ = std::make_unique<ZeroPages>(blockBytes_ * sets);
    blocks_ = storage_->data();
}

Cache::ZeroPages::ZeroPages(size_t bytes) : bytes_(bytes)
{
    // zcomp-lint: allow(raw-new) - owned here, unmapped by ~ZeroPages
    void *p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(p == MAP_FAILED, "cannot map %zu bytes of cache metadata",
             bytes_);
    base_ = static_cast<unsigned char *>(p);
}

Cache::ZeroPages::~ZeroPages()
{
    munmap(base_, bytes_); // zcomp-lint: allow(raw-new) - the owner
}

int
Cache::victimWay(int set)
{
    if (lru_) {
        const uint64_t *s = stamps(set);
        int v = 0;
        for (int w = 1; w < assoc_; w++) {
            if (s[w] < s[v])
                v = w;
        }
        return v;
    }
    // SRRIP: the first way at the highest RRPV, after aging every way
    // by the distance from that RRPV to kMaxRrpv - the same victim and
    // final RRPVs as aging one step at a time until a way reaches it.
    uint32_t *st = states(set);
    int v = 0;
    uint32_t top = 0;
    for (int w = 0; w < assoc_; w++) {
        uint32_t r = (st[w] & kRrpvMask) >> kRrpvShift;
        if (r > top || w == 0) {
            top = r;
            v = w;
        }
    }
    if (top < kMaxRrpv) {
        uint32_t age = (kMaxRrpv - top) << kRrpvShift;
        for (int w = 0; w < assoc_; w++)
            st[w] += age;
    }
    return v;
}

CacheVictim
Cache::insert(Addr line, bool dirty, bool is_prefetch, double ready_at)
{
    int set = setIndex(line);
    uint64_t *t = tags(set);
    uint32_t *st = states(set);
    const uint64_t key = tagOf(line);
    ZCOMP_DCHECK(key != 0, "insert of the empty-way tag");

    // One pass finds the first empty way, or the line itself if it is
    // already resident (e.g. a demand fill racing a prefetch fill).
    int way = -1;
    CacheVictim victim;
    for (int w = 0; w < assoc_; w++) {
        if (t[w] == key) {
            if (dirty)
                st[w] |= kDirty;
            if (!is_prefetch && (st[w] & kPrefetched)) {
                prefetchUseful++;
                st[w] &= ~kPrefetched;
            }
            victim.slot = posOf(set, w);
            return victim;
        }
        if (t[w] == 0 && way < 0)
            way = w;
    }
    if (way < 0) {
        way = victimWay(set);
        uint32_t vs = st[way];
        victim.valid = true;
        victim.dirty = (vs & kDirty) != 0;
        victim.wasPrefetch = (vs & kPrefetched) != 0;
        victim.addr = ~t[way];
        victim.presence = static_cast<uint16_t>(vs >> kPresenceShift);
        evictions++;
        if (victim.dirty)
            writebacks++;
        if (victim.wasPrefetch)
            prefetchUnused++;
    }
    t[way] = key;
    st[way] = (dirty ? kDirty : 0U) | (is_prefetch ? kPrefetched : 0U);
    readyAts(set)[way] = ready_at;
    touch(set, way, false);
    if (is_prefetch)
        prefetchFills++;
    victim.slot = posOf(set, way);
    ZCOMP_DCHECK(!victim.valid || victim.addr != line,
                 "cache %s: evicted the line being filled",
                 name_.c_str());
    return victim;
}

bool
Cache::invalidate(Addr line)
{
    Slot s = find(line);
    if (!s)
        return false;
    uint32_t &st = stateAt(s);
    bool was_dirty = (st & kDirty) != 0;
    if (st & kPrefetched)
        prefetchUnused++;
    tags(setOf(s))[wayOf(s)] = 0;
    st = 0;
    invalidations++;
    return was_dirty;
}

void
Cache::markPresence(Slot s, int core)
{
    panic_if(!directory_, "cache %s has no directory", name_.c_str());
    ZCOMP_CHECK(static_cast<bool>(s), "cache %s: presence on an absent line",
                name_.c_str());
    stateAt(s) |= (1U << core) << kPresenceShift;
}

uint16_t
Cache::presence(Addr line) const
{
    Slot s = find(line);
    return s ? static_cast<uint16_t>(stateAt(s) >> kPresenceShift) : 0;
}

bool
Cache::consumePrefetchFlag(Slot s)
{
    if (!s)
        return false;
    uint32_t &st = stateAt(s);
    bool was = (st & kPrefetched) != 0;
    st &= ~kPrefetched;
    return was;
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (int set = 0; set < numSets_; set++) {
        const uint64_t *t = tags(set);
        for (int w = 0; w < assoc_; w++)
            n += t[w] != 0;
    }
    return n;
}

void
Cache::resetCounters()
{
    hits = misses = writebacks = prefetchFills = 0;
    prefetchUseful = prefetchUnused = invalidations = evictions = 0;
}

} // namespace zcomp
