#include "sim/pass_builder.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace zcomp {

namespace {

constexpr uint64_t hdrB = PassBuilder::hdrBytes;

/** Count non-zero fp32 lanes in one vector of a tensor. */
uint32_t
vecNnz(const Tensor &t, size_t vec)
{
    const float *d = t.data() + vec * 16;
    uint32_t n = 0;
    for (int i = 0; i < 16; i++)
        n += d[i] != 0.0f;
    return n;
}

} // namespace

/** What a pass recorded, shared by the cursors of its phases. */
struct PassBuilder::Plan
{
    /** A stream() call, or a gemmCompute() call when specs is empty. */
    struct Segment
    {
        std::vector<StreamSpec> specs;
        int subs = 1;               //!< sub-blocks per core and spec
        Addr panelBase = 0;
        uint64_t panelLines = 0;
        uint64_t mRows = 0;
    };

    IoPolicy policy;
    int cores;
    int subBlocks;
    uint8_t logicLat;
    size_t gemmBlockRows;
    std::vector<Segment> segments;
};

/**
 * Streams one core's ops of a pass, segment by segment in call order.
 * Each loop iteration emits at most two ops; its state survives from
 * one fill to the next.
 */
class PassBuilder::Cursor final : public OpCursor
{
    using Segment = Plan::Segment;

  public:
    Cursor(std::shared_ptr<const Plan> plan, int core)
        : plan_(std::move(plan)), core_(core)
    {}

    size_t
    fill(TraceOp *out, size_t cap) override
    {
        size_t n = 0;
        while (seg_ < plan_->segments.size() && n + maxIterOps <= cap) {
            const Segment &sg = plan_->segments[seg_];
            if (!entered_) {
                sg.specs.empty() ? enterGemm(sg) : enterStream(sg);
                entered_ = true;
            }
            bool more = sg.specs.empty() ? stepGemm(sg, out, n)
                                         : stepStream(sg, out, n);
            if (!more) {
                seg_++;
                entered_ = false;
            }
        }
        return n;
    }

  private:
    static constexpr size_t maxIterOps = 2;

    /** Per (spec, sub) stream state. */
    struct StreamState
    {
        size_t vecBegin = 0;
        size_t vecCount = 0;
        size_t byteOff = 0;     //!< running offset within the window
        Addr base = 0;          //!< window base (simulated address)
        Addr maskBase = 0;
    };

    void
    enterStream(const Segment &sg)
    {
        const auto cores = static_cast<size_t>(plan_->cores);
        const auto core = static_cast<size_t>(core_);
        const auto subs = static_cast<size_t>(sg.subs);
        st_.assign(sg.specs.size() * subs, StreamState{});
        maxCount_ = 0;
        for (size_t s = 0; s < sg.specs.size(); s++) {
            const StreamSpec &spec = sg.specs[s];
            size_t vecs = spec.tensor->elems() / 16;
            size_t core_begin = vecs * core / cores;
            size_t core_end = vecs * (core + 1) / cores;
            for (size_t k = 0; k < subs; k++) {
                StreamState &ss = st_[s * subs + k];
                size_t b = core_begin + (core_end - core_begin) * k / subs;
                size_t e =
                    core_begin + (core_end - core_begin) * (k + 1) / subs;
                ss.vecBegin = b;
                ss.vecCount = e - b;
                // Compressed streams live in the original allocation
                // window of their slice (Section 4.1).
                ss.base = spec.tensor->addrAt(b * 16);
                if (spec.mask)
                    ss.maskBase = spec.mask->addrAt(b * hdrB);
                maxCount_ = std::max(maxCount_, ss.vecCount);
            }
        }
        g_ = 0;
        k_ = 0;
        s_ = 0;
        tail_ = 0;
    }

    /** Vector g of sub k of spec s, in (g, k, s) order, then tails. */
    bool
    stepStream(const Segment &sg, TraceOp *out, size_t &n)
    {
        const size_t nspecs = sg.specs.size();
        if (g_ < maxCount_) {
            const auto subs = static_cast<size_t>(sg.subs);
            StreamState &ss = st_[s_ * subs + k_];
            if (g_ < ss.vecCount) {
                n += emitVec(out + n, sg.specs[s_], ss, ss.vecBegin + g_,
                             static_cast<int>(s_ * subs + k_));
            }
            if (++s_ == nspecs) {
                s_ = 0;
                if (++k_ == subs) {
                    k_ = 0;
                    g_++;
                }
            }
            return true;
        }

        // Tail elements (tensor size not a multiple of 16): one plain
        // access on core 0.
        if (core_ != 0)
            return false;
        while (tail_ < nspecs) {
            const StreamSpec &spec = sg.specs[tail_++];
            size_t tail = spec.tensor->elems() % 16;
            if (tail == 0)
                continue;
            size_t off = spec.tensor->elems() - tail;
            TraceOp op = TraceOp::load(spec.tensor->addrAt(off),
                                       static_cast<uint32_t>(tail * 4), 2,
                                       99);
            op.isWrite = spec.write;
            out[n++] = op;
            return true;
        }
        return false;
    }

    size_t
    emitVec(TraceOp *out, const StreamSpec &spec, StreamState &ss,
            size_t vec, int stream_id) const
    {
        if (!spec.compress) {
            // Plain AVX512 vector move.
            TraceOp op = TraceOp::load(
                spec.tensor->addrAt(vec * 16), 64,
                static_cast<uint16_t>(1 + spec.extraUops +
                                      (spec.write ? 1 : 0)),
                static_cast<uint16_t>(1 + stream_id));
            op.isWrite = spec.write;
            out[0] = op;
            return 1;
        }

        uint32_t nnz = spec.nnz ? spec.nnz[vec]
                                : vecNnz(*spec.tensor, vec);
        if (plan_->policy == IoPolicy::Zcomp) {
            TraceOp op = TraceOp::load(
                ss.base + ss.byteOff,
                static_cast<uint32_t>(hdrB) + nnz * 4,
                static_cast<uint16_t>(
                    1 + spec.extraUops +
                    (spec.fusedLtez ? 0 : (spec.write ? 1 : 0))),
                static_cast<uint16_t>(1 + stream_id));
            op.isWrite = spec.write;
            op.stream = static_cast<int8_t>(stream_id %
                                            CoreModel::maxStreams);
            op.chainLat = plan_->logicLat;
            op.zcompUnit = true;
            out[0] = op;
            ss.byteOff += hdrB + nnz * 4;
            return 1;
        }

        // Avx512Comp: separate mask array + packed payload.
        TraceOp mask_op = TraceOp::load(
            ss.maskBase + (vec - ss.vecBegin) * hdrB,
            static_cast<uint32_t>(hdrB), 1,
            static_cast<uint16_t>(64 + stream_id));
        mask_op.isWrite = spec.write;
        out[0] = mask_op;
        TraceOp data_op = TraceOp::load(
            ss.base + ss.byteOff, nnz * 4,
            static_cast<uint16_t>((spec.write ? 8 : 6) + spec.extraUops),
            static_cast<uint16_t>(1 + stream_id));
        data_op.isWrite = spec.write;
        out[1] = data_op;
        ss.byteOff += nnz * 4;
        return 2;
    }

    void
    enterGemm(const Segment &sg)
    {
        const auto cores = static_cast<uint64_t>(plan_->cores);
        const auto core = static_cast<uint64_t>(core_);
        lineBegin_ = sg.panelLines * core / cores;
        lineEnd_ = sg.panelLines * (core + 1) / cores;
        line_ = lineBegin_;
        rowsDone_ = 0;
    }

    /** Line l of this core's panel slice, once per Mc row block. */
    bool
    stepGemm(const Segment &sg, TraceOp *out, size_t &n)
    {
        if (lineBegin_ == lineEnd_ || rowsDone_ >= sg.mRows)
            return false;
        uint64_t panel_rows = std::min<uint64_t>(sg.mRows - rowsDone_,
                                                 plan_->gemmBlockRows);
        // 2 uops per 16-lane FMA, panel_rows FMAs per line.
        auto uops = static_cast<uint16_t>(
            std::min<uint64_t>(2 * panel_rows, 60000));
        out[n++] = TraceOp::load(sg.panelBase + line_ * lineBytes,
                                 lineBytes, uops, /*pc=*/200);
        if (++line_ == lineEnd_) {
            line_ = lineBegin_;
            rowsDone_ += panel_rows;
        }
        return true;
    }

    std::shared_ptr<const Plan> plan_;
    int core_;
    size_t seg_ = 0;
    bool entered_ = false;

    // Streaming segment state.
    std::vector<StreamState> st_;   //!< [spec * subs + sub]
    size_t maxCount_ = 0;
    size_t g_ = 0, k_ = 0, s_ = 0;
    size_t tail_ = 0;

    // GEMM segment state.
    uint64_t lineBegin_ = 0, lineEnd_ = 0, line_ = 0;
    uint64_t rowsDone_ = 0;
};

PassBuilder::PassBuilder(ExecContext &ctx, const NetworkSimConfig &cfg,
                         std::string name, MetricsSampler *sampler)
    : ctx_(ctx), name_(std::move(name)),
      plan_(std::make_shared<Plan>(Plan{
          cfg.policy, ctx.config().numCores, cfg.subBlocks,
          static_cast<uint8_t>(ctx.config().zcomp.logicLatency),
          cfg.gemmBlockRows, {}})),
      sampler_(sampler)
{
}

void
PassBuilder::stream(std::vector<StreamSpec> specs)
{
    Plan::Segment sg;
    sg.subs = std::max(
        1, std::min(plan_->subBlocks,
                    CoreModel::maxStreams /
                        std::max<int>(1, static_cast<int>(specs.size()))));
    // Static compression ratio of this pass's streams, for the
    // sampler's live per-layer metric. Only paid when a sampler
    // exists (--metrics); the per-vector sizes are the memoized nnz
    // counts the cursors replay anyway.
    if (sampler_) {
        for (const StreamSpec &spec : specs) {
            size_t vecs = spec.tensor->elems() / 16;
            uint64_t orig = static_cast<uint64_t>(vecs) * 64;
            uint64_t comp = orig;
            if (spec.compress) {
                uint64_t payload = 0;
                for (size_t v = 0; v < vecs; v++)
                    payload += spec.nnz ? spec.nnz[v]
                                        : vecNnz(*spec.tensor, v);
                comp = vecs * hdrB + payload * 4;
            }
            origBytes_ += orig;
            compBytes_ += comp;
        }
    }
    sg.specs = std::move(specs);
    plan_->segments.push_back(std::move(sg));
}

void
PassBuilder::gemmCompute(Addr panel_base, uint64_t panel_bytes,
                         uint64_t m_rows)
{
    if (panel_bytes == 0 || m_rows == 0)
        return;
    if (sampler_) {
        // Weight panels always move uncompressed: ratio 1.
        origBytes_ += panel_bytes;
        compBytes_ += panel_bytes;
    }
    Plan::Segment sg;
    sg.panelBase = panel_base;
    sg.panelLines = divCeil(panel_bytes, lineBytes);
    sg.mRows = m_rows;
    plan_->segments.push_back(std::move(sg));
}

TracePhase
PassBuilder::phase() const
{
    TracePhase p(name_, 0);
    for (int c = 0; c < plan_->cores; c++)
        p.cursors.push_back(std::make_unique<Cursor>(plan_, c));
    return p;
}

RunStats
PassBuilder::run()
{
    if (sampler_) {
        sampler_->setLayerContext(
            name_, compBytes_ > 0 ? static_cast<double>(origBytes_) /
                                        static_cast<double>(compBytes_)
                                  : 1.0);
    }
    return ctx_.run(phase());
}

} // namespace zcomp
