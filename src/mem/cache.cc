#include "mem/cache.hh"

#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

Cache::Cache(std::string name, const CacheConfig &cfg, bool directory)
    : name_(std::move(name)), assoc_(cfg.assoc), directory_(directory),
      hashIndex_(cfg.hashIndex)
{
    uint64_t num_lines = cfg.size / lineBytes;
    fatal_if(num_lines % cfg.assoc != 0,
             "cache %s: %llu lines not divisible by associativity %d",
             name_.c_str(), (unsigned long long)num_lines, cfg.assoc);
    numSets_ = static_cast<int>(num_lines / cfg.assoc);
    ZCOMP_CHECK(numSets_ > 0 && assoc_ > 0,
                "cache %s: degenerate geometry %d sets x %d ways",
                name_.c_str(), numSets_, assoc_);
    tags_.assign(num_lines, kInvalidTag);
    lines_.resize(num_lines);
    repl_ = ReplacementPolicy::create(cfg.repl, numSets_, assoc_);
}

CacheVictim
Cache::insert(Addr line, bool dirty, bool is_prefetch, double ready_at)
{
    int set = setIndex(line);
    size_t base = static_cast<size_t>(set) * assoc_;

    // Refresh in place if the line is already resident (e.g. a demand
    // fill racing a prefetch fill).
    int way = findWay(set, line);
    CacheVictim victim;
    if (way < 0) {
        // Prefer the first invalid way (an empty way carries the
        // sentinel tag, so this is just another tag probe).
        for (int w = 0; w < assoc_; w++) {
            if (tags_[base + w] == kInvalidTag) {
                way = w;
                break;
            }
        }
        if (way < 0) {
            way = repl_->victim(set);
            ZCOMP_DCHECK(way >= 0 && way < assoc_,
                         "cache %s: replacement chose bad way %d",
                         name_.c_str(), way);
            Line &v = lines_[base + way];
            victim.valid = true;
            victim.dirty = v.dirty;
            victim.wasPrefetch = v.prefetched;
            victim.addr = tags_[base + way];
            victim.presence = v.presence;
            evictions++;
            if (v.dirty)
                writebacks++;
            if (v.prefetched)
                prefetchUnused++;
        }
        Line &l = lines_[base + way];
        tags_[base + way] = line;
        l.dirty = dirty;
        l.prefetched = is_prefetch;
        l.presence = 0;
        l.readyAt = ready_at;
        repl_->onInsert(set, way);
        if (is_prefetch)
            prefetchFills++;
    } else {
        Line &l = lines_[base + way];
        l.dirty = l.dirty || dirty;
        if (!is_prefetch && l.prefetched) {
            prefetchUseful++;
            l.prefetched = false;
        }
    }
    // Fill postconditions: the line is resident, and any victim left
    // its set for good (it cannot be the line just inserted).
    ZCOMP_DCHECK(contains(line), "cache %s: inserted line not resident",
                 name_.c_str());
    ZCOMP_DCHECK(!victim.valid || victim.addr != line,
                 "cache %s: evicted the line being filled",
                 name_.c_str());
    return victim;
}

bool
Cache::invalidate(Addr line)
{
    int set = setIndex(line);
    int way = findWay(set, line);
    if (way < 0)
        return false;
    size_t idx = static_cast<size_t>(set) * assoc_ + way;
    Line &l = lines_[idx];
    bool was_dirty = l.dirty;
    if (l.prefetched)
        prefetchUnused++;
    tags_[idx] = kInvalidTag;
    l.dirty = false;
    l.prefetched = false;
    l.presence = 0;
    invalidations++;
    return was_dirty;
}

void
Cache::markPresence(Addr line, int core)
{
    panic_if(!directory_, "cache %s has no directory", name_.c_str());
    int set = setIndex(line);
    int way = findWay(set, line);
    if (way >= 0) {
        lines_[static_cast<size_t>(set) * assoc_ + way].presence |=
            static_cast<uint16_t>(1U << core);
    }
}

uint16_t
Cache::presence(Addr line) const
{
    int set = setIndex(line);
    int way = findWay(set, line);
    return way < 0 ? 0
                   : lines_[static_cast<size_t>(set) * assoc_ + way]
                         .presence;
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (Addr t : tags_) {
        if (t != kInvalidTag)
            n++;
    }
    return n;
}

bool
Cache::consumePrefetchFlag(Addr line)
{
    int set = setIndex(line);
    int way = findWay(set, line);
    if (way < 0)
        return false;
    Line &l = lines_[static_cast<size_t>(set) * assoc_ + way];
    bool was = l.prefetched;
    l.prefetched = false;
    return was;
}

} // namespace zcomp
