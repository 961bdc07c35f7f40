/**
 * @file
 * Compact kernel-trace representation consumed by the core timing
 * model.
 *
 * Kernels run functionally on host memory first; the timing pass then
 * replays a per-core sequence of TraceOps. An op either issues pure
 * compute uops, or performs one memory access (with the uops that
 * accompany it in the loop body). Memory accesses carry:
 *
 *  - `stream`: a dependency stream id. Ops in the same stream execute
 *    in order, each waiting for the previous op's chain result. This
 *    models ZCOMP's pointer auto-increment chain (the next compressed
 *    address is produced `chainLat` cycles into the previous
 *    instruction's execution - for zcompl, after its header data
 *    arrives; for zcomps, after the logic stage only). Sub-block
 *    unrolling (Section 4.3) maps to multiple independent streams.
 *
 *  - `pc`: a pseudo instruction pointer used by the L1 IP-stride
 *    prefetcher to recognize strided access patterns.
 *
 *  - `zcompUnit`: the op occupies the ZCOMP logic unit, which accepts
 *    one instruction per `logicThroughput` cycles (Section 3.3).
 */

#ifndef ZCOMP_CPU_TRACE_HH
#define ZCOMP_CPU_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"

namespace zcomp {

struct TraceOp
{
    Addr addr = 0;
    uint32_t bytes = 0;     //!< 0 = pure issue op (no memory access)
    uint16_t uops = 0;      //!< fused-domain uops issued with this op
    uint16_t pc = 0;        //!< pseudo-PC for the L1 prefetcher
    int8_t stream = -1;     //!< dependency stream id; -1 = independent
    uint8_t chainLat = 0;   //!< added to the stream-ready time
    bool isWrite = false;
    bool zcompUnit = false; //!< uses the ZCOMP logic pipeline

    /** Pure compute op issuing n uops. */
    static TraceOp
    issue(uint16_t n)
    {
        TraceOp op;
        op.uops = n;
        return op;
    }

    /** Independent load. */
    static TraceOp
    load(Addr a, uint32_t n, uint16_t uops, uint16_t pc)
    {
        TraceOp op;
        op.addr = a;
        op.bytes = n;
        op.uops = uops;
        op.pc = pc;
        return op;
    }

    /** Independent store. */
    static TraceOp
    store(Addr a, uint32_t n, uint16_t uops, uint16_t pc)
    {
        TraceOp op = load(a, n, uops, pc);
        op.isWrite = true;
        return op;
    }
};

/** One core's materialised op sequence for a phase. */
using CoreTrace = std::vector<TraceOp>;

/**
 * Produces one core's ops for a phase, a buffer at a time, so a
 * phase's trace memory is O(cores x buffer) rather than O(ops). A
 * cursor is consumed by the one run that drains it.
 */
class OpCursor
{
  public:
    /**
     * The smallest @p cap a fill() must accept: room for the longest
     * loop iteration an emitter writes in one piece.
     */
    static constexpr size_t minFill = 8;

    OpCursor() = default;
    OpCursor(const OpCursor &) = delete;
    OpCursor &operator=(const OpCursor &) = delete;
    virtual ~OpCursor() = default;

    /**
     * Write the next ops, at most @p cap (>= minFill), into @p out.
     * A fill may return fewer than @p cap ops and still have more.
     * @return the ops written; 0 only once the core has no more ops.
     */
    virtual size_t fill(TraceOp *out, size_t cap) = 0;
};

/**
 * A barrier-delimited parallel region across all cores. Each core
 * runs either its materialised perCore[c] or, when cursors[c] is set,
 * the ops that cursor streams (perCore[c] must then be empty). A
 * phase with cursors is consumed by its one run.
 */
struct TracePhase
{
    std::string name;
    std::vector<CoreTrace> perCore;
    std::vector<std::unique_ptr<OpCursor>> cursors;

    explicit TracePhase(std::string n = "", int num_cores = 0)
        : name(std::move(n)),
          perCore(static_cast<size_t>(num_cores))
    {}

    /** Materialised ops only: a cursor's count is known once drained. */
    size_t
    totalOps() const
    {
        size_t n = 0;
        for (const auto &t : perCore)
            n += t.size();
        return n;
    }
};

} // namespace zcomp

#endif // ZCOMP_CPU_TRACE_HH
