/**
 * @file
 * PassBuilder - the trace emitter of NetworkSim's layer passes.
 *
 * A pass records segments in call order: streaming passes over tensor
 * specs (stream()) and blocked-GEMM panel walks (gemmCompute()). Its
 * phase() is one cursor per core that walks those segments and
 * regenerates the core's ops on demand - one op per vector, per panel
 * line and per Mc block, and core 0's tail accesses after each
 * streaming segment - so no pass ever holds its ops in memory.
 */

#ifndef ZCOMP_SIM_PASS_BUILDER_HH
#define ZCOMP_SIM_PASS_BUILDER_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/network_sim.hh"

namespace zcomp {

/** One tensor's role in a streaming pass. */
struct StreamSpec
{
    const Tensor *tensor = nullptr;
    Buffer *mask = nullptr;     //!< avx512-comp header array (or null)
    const uint16_t *nnz = nullptr;  //!< memoized per-vector nonzeros
    bool write = false;
    bool fusedLtez = false;     //!< zcomps does the ReLU comparison
    bool compress = false;      //!< this tensor moves compressed
    int extraUops = 0;          //!< layer compute attached per vector
};

/**
 * Builds one barrier-delimited phase for a layer pass and runs it.
 * Streams are partitioned over cores and sub-blocks; compressed
 * streams replay exact per-vector sizes scanned from tensor values.
 */
class PassBuilder
{
  public:
    /** fp32 header/mask bytes per 16-lane vector. */
    static constexpr uint64_t hdrBytes = 2;

    PassBuilder(ExecContext &ctx, const NetworkSimConfig &cfg,
                std::string name, MetricsSampler *sampler = nullptr);

    /** Record an interleaved streaming pass over the given tensors. */
    void stream(std::vector<StreamSpec> specs);

    /**
     * Record a blocked-GEMM compute pass, partitioned over the panel
     * (output-channel / N-K) dimension: each core owns a disjoint
     * 1/cores slice of the weight panel and walks *all* m_rows
     * against it, re-reading its slice once per `gemmBlockRows` rows.
     * This is how library GEMMs parallelize when M is small (batch-
     * sized FC layers read the weights exactly once in total) and is
     * traffic-equivalent to M-partitioning when M is large; per-core
     * slices also stay L2-resident across panel re-reads.
     *
     * Issue uops charge 2 per 16-lane FMA (32 MACs/cycle/core peak).
     * Total MACs = m_rows * panel_bytes / 4.
     */
    void gemmCompute(Addr panel_base, uint64_t panel_bytes,
                     uint64_t m_rows);

    /**
     * The recorded pass as one fresh cursor per core. Every call
     * streams the same ops, so a pass can be replayed or inspected.
     */
    TracePhase phase() const;

    /** Run phase() on the context, after setting the sampler's layer. */
    RunStats run();

  private:
    struct Plan;
    class Cursor;

    ExecContext &ctx_;
    std::string name_;
    std::shared_ptr<Plan> plan_;
    MetricsSampler *sampler_;
    uint64_t origBytes_ = 0;    //!< pass bytes before compression
    uint64_t compBytes_ = 0;    //!< pass bytes as the policy moves them
};

} // namespace zcomp

#endif // ZCOMP_SIM_PASS_BUILDER_HH
