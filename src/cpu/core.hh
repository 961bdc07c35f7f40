/**
 * @file
 * CoreModel - a throughput/latency core timing model in the style of
 * high-level mechanistic simulators (Sniper [15]):
 *
 *  - 4-wide issue: every op charges uops / issueWidth cycles of issue
 *    time (compute).
 *  - Loads that miss beyond L1 occupy an MSHR; with all MSHRs busy the
 *    core stalls until the oldest miss returns (memory). Independent
 *    streaming loads therefore achieve MLP = #MSHRs while dependent
 *    chains serialize.
 *  - Stores retire through a finite store buffer that drains at the
 *    hierarchy's pace; a full buffer stalls the core (memory).
 *  - Dependency streams model ZCOMP/compressed-pointer chains: an op
 *    in stream s waits until the stream's ready time, then publishes
 *    a new ready time (completion + chainLat for loads, issue time +
 *    chainLat for stores whose next address needs only the logic
 *    stage).
 *  - The ZCOMP logic unit accepts one instruction per logicThroughput
 *    cycles (Section 3.3), modeled as a per-core busy-until server.
 *
 * Every cycle of core time is attributed to exactly one bucket of the
 * CycleBreakdown (compute / memory / sync), which is what Figure 2
 * reports.
 */

#ifndef ZCOMP_CPU_CORE_HH
#define ZCOMP_CPU_CORE_HH

#include <array>
#include <queue>
#include <vector>

#include "common/config.hh"
#include "cpu/trace.hh"
#include "mem/hierarchy.hh"

namespace zcomp {

/** Where a core's cycles went. */
struct CycleBreakdown
{
    double compute = 0;     //!< issuing instructions / logic-unit bound
    double memory = 0;      //!< stalled on loads, MSHRs or store buffer
    double sync = 0;        //!< waiting at a barrier

    double total() const { return compute + memory + sync; }

    CycleBreakdown &
    operator+=(const CycleBreakdown &o)
    {
        compute += o.compute;
        memory += o.memory;
        sync += o.sync;
        return *this;
    }
};

class CoreModel
{
  public:
    static constexpr int maxStreams = 16;

    CoreModel(int id, const ArchConfig &cfg, MemoryHierarchy &mem);

    /** Ops a core buffers from a cursor per refill. */
    static constexpr size_t fillOps = 256;
    static_assert(fillOps >= OpCursor::minFill);

    /**
     * Begin executing a phase at the given start time: the ops of a
     * materialised trace, read in place, or those a cursor streams
     * through the core's fill buffer.
     */
    void startPhase(const CoreTrace *trace, double start_time);
    void startPhase(OpCursor *cursor, double start_time);

    /** All ops executed and outstanding work drained. */
    bool done() const { return !active_; }

    /** Ops executed since the last startPhase(). */
    uint64_t phaseOps() const { return phaseOps_; }

    /** Execute the next op (or the final drain). */
    void step();

    /** Jump forward to a barrier release time (sync stall). */
    void syncTo(double t);

    double time() const { return time_; }
    int id() const { return id_; }
    const CycleBreakdown &breakdown() const { return breakdown_; }

    /**
     * Cycles the ZCOMP logic unit was occupied on this core (each
     * zcompUnit op holds its pipe for logicThroughput cycles) -
     * Section 3.3 occupancy, reported in the stats tree.
     */
    double zcompBusyCycles() const { return zcompBusyCycles_; }

    void resetBreakdown()
    {
        breakdown_ = {};
        zcompBusyCycles_ = 0;
    }

    /** Rewind the local clock (only valid between phases). */
    void resetTime() { time_ = 0; }

  private:
    using MinHeap = std::priority_queue<double, std::vector<double>,
                                        std::greater<double>>;

    void begin(const TraceOp *ops, size_t count, OpCursor *cursor,
               double start_time);
    bool refill();
    void execOp(const TraceOp &op);
    void drain();

    int id_;
    const ArchConfig &cfg_;
    MemoryHierarchy &mem_;

    // The one op-reading path: ops_[idx_, count_), refilled from
    // cursor_ (if any) into buf_ once consumed.
    bool active_ = false;
    const TraceOp *ops_ = nullptr;
    size_t count_ = 0;
    size_t idx_ = 0;
    OpCursor *cursor_ = nullptr;
    uint64_t phaseOps_ = 0;
    std::array<TraceOp, fillOps> buf_;

    double time_ = 0;
    double zcompBusy_[2] = {0, 0};  //!< load-side / store-side pipes
    double streamReady_[maxStreams] = {};
    MinHeap outstanding_;   //!< in-flight load completions (<= MSHRs)
    MinHeap storeQ_;        //!< store-buffer entry completions

    CycleBreakdown breakdown_;
    double zcompBusyCycles_ = 0;
};

} // namespace zcomp

#endif // ZCOMP_CPU_CORE_HH
