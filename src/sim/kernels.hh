/**
 * @file
 * The ReLU activation-layer kernels the paper evaluates in Figure 12,
 * in three implementations:
 *
 *  - avx512-vec  : the uncompressed AVX512 baseline (load, vmaxps,
 *                  store; retrieval is a plain vector load).
 *  - avx512-comp : software compression with existing AVX512
 *                  vcompressstoreu/vexpandloadu and explicit mask
 *                  arrays (Figures 10 and 11).
 *  - zcomp       : the proposed instructions, ReLU fused into zcomps
 *                  via the LTEZ condition (Figures 8 and 9).
 *
 * Each experiment runs two barrier-separated passes over a snapshot-
 * initialized feature map X:
 *   store pass    - read X, apply ReLU, write Y (compressed or not)
 *   retrieve pass - the consuming layer reads Y back.
 * In the compression-enabled implementations X itself is stored
 * compressed (it is cross-layer data produced by the previous layer),
 * exactly as a mid-network layer would see it.
 *
 * Every kernel executes functionally on host memory (values are
 * checked in tests) and streams per-core trace ops, through cursors,
 * into the timing model. Parallelization uses the partitioned-chunk strategy of
 * Section 4.3 with `subBlocks` independent streams per thread
 * (sub-block unrolling), matching the compiler unrolling of the
 * baseline.
 */

#ifndef ZCOMP_SIM_KERNELS_HH
#define ZCOMP_SIM_KERNELS_HH

#include <memory>

#include "isa/latency.hh"
#include "sim/exec_context.hh"
#include "workload/snapshot.hh"
#include "zcomp/partition.hh"

namespace zcomp {

enum class ReluImpl
{
    Avx512Vec = 0,
    Avx512Comp,
    Zcomp,
};

constexpr int numReluImpls = 3;

const char *reluImplName(ReluImpl impl);

struct ReluExperimentConfig
{
    size_t elems = 0;           //!< fp32 elements, multiple of 16
    double sparsity = 0.53;     //!< input snapshot zero fraction
    double negFraction = 0.05;  //!< negative values for ReLU to clamp
    int subBlocks = 8;          //!< unroll streams per thread (<= 8),
                                //!< matching compiler unrolling (S4.3)
    uint64_t seed = 1;
    bool warmup = true;         //!< untimed priming pass first
    bool verify = false;        //!< check functional results
    int repeats = 1;            //!< timed store+retrieve iterations
                                //!< (amortizes startup on tiny maps)
    bool separateHeader = false; //!< zcomp only: decoupled header
                                 //!< store (Section 3.2)
};

struct ReluExperimentResult
{
    RunStats store;         //!< activation (write) pass
    RunStats retrieve;      //!< consumer (read) pass
    StreamStats xStream;    //!< input compression stats (if any)
    StreamStats yStream;    //!< output compression stats (if any)

    RunStats
    total() const
    {
        RunStats t = store;
        t += retrieve;
        return t;
    }
};

/**
 * One ReLU experiment's functional pass, run on construction, and the
 * trace phases its timing pass replays. Each phase call returns fresh
 * per-core cursors over the prepared state, because a cursor is
 * consumed by the one run that drains it.
 */
class ReluExperiment
{
  public:
    ReluExperiment(ExecContext &ctx, ReluImpl impl,
                   const ReluExperimentConfig &cfg);
    ~ReluExperiment();

    /** Read X, apply ReLU, write Y. */
    TracePhase storePhase() const;

    /** The consuming layer reads Y back. */
    TracePhase retrievePhase() const;

    const StreamStats &xStream() const;
    const StreamStats &yStream() const;

  private:
    struct State;

    TracePhase phase(const char *name, bool store) const;

    ReluImpl impl_;
    bool sep_;
    int cores_;
    int logicLat_;
    std::unique_ptr<const State> st_;
};

/** Run the two-pass ReLU experiment with the given implementation. */
ReluExperimentResult runReluExperiment(ExecContext &ctx, ReluImpl impl,
                                       const ReluExperimentConfig &cfg);

/** Static loop body of the store pass (Section 4.4 comparison). */
KernelBody reluStoreBody(ReluImpl impl);

/** Static loop body of the retrieve pass. */
KernelBody reluRetrieveBody(ReluImpl impl);

} // namespace zcomp

#endif // ZCOMP_SIM_KERNELS_HH
