/**
 * @file
 * MultiCoreSystem - runs barrier-delimited TracePhases over all cores
 * against the shared memory hierarchy.
 *
 * Cores are interleaved op-by-op in (approximate) global time order:
 * at every step the core with the smallest local clock executes its
 * next op, so contention at the shared L3 slices and DRAM channels is
 * resolved in the order it would occur. At the end of a phase every
 * core synchronizes to the slowest core (barrier), and the waiting
 * time is charged to the sync bucket - this is the source of the
 * "sync" component in the Figure 2 cycle breakdown.
 */

#ifndef ZCOMP_CPU_SYSTEM_HH
#define ZCOMP_CPU_SYSTEM_HH

#include <limits>
#include <memory>
#include <vector>

#include "cpu/core.hh"

namespace zcomp {

class MetricsSampler;

/** Timing results of one phase. */
struct PhaseResult
{
    double cycles = 0;          //!< wall-clock cycles of the phase
    double startTime = 0;
    double endTime = 0;

    /**
     * Each core's completion time before the barrier (index = core
     * id); endTime - coreEndTimes[c] is core c's sync wait. Feeds the
     * per-core lanes of the Perfetto trace.
     */
    std::vector<double> coreEndTimes;

    /** Ops each core executed in the phase (index = core id). */
    std::vector<uint64_t> coreOps;
};

class MultiCoreSystem
{
  public:
    explicit MultiCoreSystem(const ArchConfig &cfg);

    /** Execute one parallel phase; all cores barrier at the end. */
    PhaseResult runPhase(const TracePhase &phase);

    /** Global time (cycles since construction / reset). */
    double now() const { return globalTime_; }

    /** Simulated seconds elapsed. */
    double seconds() const
    {
        return globalTime_ / (cfg_.core.freqGHz * 1e9);
    }

    /** Aggregate cycle breakdown summed over all cores. */
    CycleBreakdown breakdown() const;

    /** Populate a gem5-style stats report (cores + hierarchy). */
    void dumpStats(StatGroup &group) const;

    MemoryHierarchy &mem() { return mem_; }
    const ArchConfig &config() const { return cfg_; }

    /** Reset time, breakdowns and hierarchy statistics (keep caches). */
    void resetStats();

    /** Full reset including cache contents. */
    void resetAll();

    /**
     * Attach (null: detach) a cycle-domain metrics sampler. The
     * stepping loop invokes it whenever the global time low-water
     * mark crosses the sampler's next sample cycle. The sampler must
     * outlive its attachment; detached (the default) the loop's only
     * cost is one always-false comparison against +infinity.
     */
    void attachSampler(MetricsSampler *sampler);

  private:
    ArchConfig cfg_;
    MemoryHierarchy mem_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    double globalTime_ = 0;
    MetricsSampler *sampler_ = nullptr;
    double sampleAt_ = std::numeric_limits<double>::infinity();
};

} // namespace zcomp

#endif // ZCOMP_CPU_SYSTEM_HH
