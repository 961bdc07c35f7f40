/**
 * @file
 * ExecContext couples the functional and timing halves of the
 * simulator: it owns the simulated virtual address space (whose
 * buffers the functional kernels read and write on the host) and the
 * multicore timing system that replays the kernels' trace phases.
 */

#ifndef ZCOMP_SIM_EXEC_CONTEXT_HH
#define ZCOMP_SIM_EXEC_CONTEXT_HH

#include <memory>

#include "common/json.hh"
#include "common/metrics.hh"
#include "cpu/system.hh"
#include "mem/vspace.hh"

namespace zcomp {

/** Timing + traffic delta of one or more phases. */
struct RunStats
{
    double cycles = 0;
    CycleBreakdown breakdown;
    HierSnapshot traffic;

    RunStats &operator+=(const RunStats &o);
};

/**
 * Serialize a RunStats delta: cycles, the compute/memory/sync
 * breakdown, and every per-level traffic counter (plus the derived
 * onChip/total byte aggregates the figures report).
 */
Json runStatsToJson(const RunStats &s);

/**
 * Rebuild a RunStats from its runStatsToJson() form (the derived
 * onChipBytes/totalBytes aggregates are ignored - they are
 * recomputed). Round-trips exactly: Json prints doubles with
 * enough digits and integers verbatim. Throws std::runtime_error on
 * missing or mistyped fields, so corrupt result-cache entries fail
 * loudly instead of decoding to zeros.
 */
RunStats runStatsFromJson(const Json &j);

class ExecContext
{
  public:
    explicit ExecContext(const ArchConfig &cfg);

    /**
     * Back the context's VSpace with a caller-owned bump arena: every
     * tensor and scratch buffer is carved from @p arena instead of
     * individual heap allocations. The arena must outlive the context
     * and may only be reset() after the context (and everything
     * holding its buffers) is gone.
     */
    ExecContext(const ArchConfig &cfg, BumpArena *arena);

    VSpace &vs() { return vs_; }
    MultiCoreSystem &sys() { return sys_; }
    const ArchConfig &config() const { return sys_.config(); }

    /**
     * Run one phase and return its cycle/traffic delta (counters are
     * snapshotted around the phase; cache contents persist). A phase
     * with cursors is consumed by the run.
     */
    RunStats run(const TracePhase &phase);

    /** Run a phase without accounting (cache warmup). */
    void warm(const TracePhase &phase);

    /**
     * Route subsequent run() phases to a Perfetto track group: each
     * phase becomes one span per core that executed ops (lane = core
     * id, ts = simulated cycles, args.ops = the ops it executed)
     * under the given trace pid. -1 (the default)
     * disables emission; a null global TraceWriter also disables it.
     */
    void setTracePid(int pid) { tracePid_ = pid; }
    int tracePid() const { return tracePid_; }

    /**
     * Build a cycle-domain MetricsSampler for one (cell, policy)
     * simulation against this context's system: the standard probe
     * set (DRAM bytes, per-level hits/misses, zcomp busy cycles, NoC
     * hops), the --metrics-interval from the global MetricsSink, and
     * the current trace pid for Perfetto counter tracks. Returns null
     * when no global sink is installed (no --metrics flag), so the
     * caller's attach stays a simple null check. The sampler holds a
     * reference to this context and must not outlive it.
     */
    std::unique_ptr<MetricsSampler> makeMetricsSampler(
        const std::string &cell, const std::string &policy);

  private:
    VSpace vs_;
    MultiCoreSystem sys_;
    int tracePid_ = -1;
};

} // namespace zcomp

#endif // ZCOMP_SIM_EXEC_CONTEXT_HH
