#include "sim/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/fault.hh"
#include "common/log.hh"
#include "isa/avx512.hh"
#include "zcomp/intrinsics.hh"

namespace zcomp {

const char *
reluImplName(ReluImpl impl)
{
    switch (impl) {
      case ReluImpl::Avx512Vec:
        return "avx512-vec";
      case ReluImpl::Avx512Comp:
        return "avx512-comp";
      case ReluImpl::Zcomp:
        return "zcomp";
    }
    panic("invalid ReluImpl %d", static_cast<int>(impl));
}

namespace {

/** Per-(core, sub-block) layout and per-vector compressed sizes. */
struct SubStream
{
    Chunk chunk;                    //!< element range + region window
    std::vector<uint8_t> nnzX;      //!< per-vector input NNZ
    std::vector<uint8_t> nnzY;      //!< per-vector output NNZ
};

struct ExperimentState
{
    Buffer *x = nullptr;
    Buffer *y = nullptr;
    Buffer *xMask = nullptr;        //!< avx512-comp header arrays
    Buffer *yMask = nullptr;
    std::vector<std::vector<SubStream>> subs;   //!< [core][sub]
    StreamStats xStream;
    StreamStats yStream;
};

constexpr uint64_t hdrB = 2;        //!< fp32 header bytes

/**
 * Compressed-window layout with header slack.
 *
 * Small sub-chunks (down to one vector) cannot amortize interleaved
 * headers locally: a dense vector needs 66 bytes. Section 4.1's
 * fallback for unknown compressibility is to enlarge the allocation
 * by the metadata size, so every sub-chunk window gets hdrB bytes of
 * slack per vector and region offsets shift accordingly.
 */
size_t
slackOffset(const Chunk &sub)
{
    return sub.regionOffset + (sub.elemBegin / 16) * hdrB;
}

size_t
slackBytes(const Chunk &sub)
{
    return sub.regionBytes + (sub.elems() / 16) * hdrB;
}

/** Region bytes for n elements including per-vector header slack. */
size_t
regionWithSlack(size_t n)
{
    return n * 4 + (n / 16) * hdrB;
}

/**
 * Functional pass: build compressed/uncompressed X and Y contents and
 * the per-vector NNZ records for the timing replay.
 */
ExperimentState
prepare(ExecContext &ctx, ReluImpl impl, const ReluExperimentConfig &cfg)
{
    fatal_if(cfg.elems == 0 || cfg.elems % 16 != 0,
             "relu experiment needs a multiple of 16 elements, got %zu",
             cfg.elems);
    fatal_if(cfg.subBlocks < 1 || cfg.subBlocks > 8,
             "subBlocks must be in [1, 8]");

    const int cores = ctx.config().numCores;
    const size_t n = cfg.elems;

    SnapshotParams sp;
    sp.sparsity = cfg.sparsity;
    sp.negFraction = cfg.negFraction;
    std::vector<float> raw = makeActivations(n, sp, cfg.seed);

    ExperimentState st;
    st.x = &ctx.vs().alloc("relu.x", regionWithSlack(n),
                           AllocClass::FeatureMap);
    st.y = &ctx.vs().alloc("relu.y", regionWithSlack(n),
                           AllocClass::FeatureMap);
    if (impl == ReluImpl::Avx512Comp ||
        (impl == ReluImpl::Zcomp && cfg.separateHeader)) {
        st.xMask = &ctx.vs().alloc("relu.xmask", (n / 16) * hdrB,
                                   AllocClass::FeatureMap);
        st.yMask = &ctx.vs().alloc("relu.ymask", (n / 16) * hdrB,
                                   AllocClass::FeatureMap);
    }

    auto coreChunks = partitionElements(n, cores, ElemType::F32);
    st.subs.resize(static_cast<size_t>(cores));

    for (int c = 0; c < cores; c++) {
        auto subChunks = subPartition(coreChunks[static_cast<size_t>(c)],
                                      cfg.subBlocks, ElemType::F32);
        for (const Chunk &sub : subChunks) {
            SubStream ss;
            ss.chunk = sub;
            if (sub.elems() == 0) {
                st.subs[static_cast<size_t>(c)].push_back(std::move(ss));
                continue;
            }
            switch (impl) {
              case ReluImpl::Avx512Vec: {
                // X plain; Y = relu(X) plain.
                std::memcpy(st.x->host + sub.regionOffset,
                            raw.data() + sub.elemBegin, sub.elems() * 4);
                float *yp = reinterpret_cast<float *>(
                    st.y->host + sub.regionOffset);
                for (size_t i = 0; i < sub.elems(); i++) {
                    float v = raw[sub.elemBegin + i];
                    yp[i] = v > 0 ? v : 0.0f;
                }
                break;
              }
              case ReluImpl::Avx512Comp:
              case ReluImpl::Zcomp: {
                const auto compress = [&](CompressedWriter &wx,
                                          CompressedWriter &wy) {
                    for (size_t i = sub.elemBegin; i < sub.elemEnd;
                         i += 16) {
                        Vec512 v = Vec512::load(raw.data() + i);
                        wx.put(v);
                        wy.put(v);
                    }
                    ss.nnzX = wx.nnzRecord();
                    ss.nnzY = wy.nnzRecord();
                    st.xStream += wx.stats();
                    st.yStream += wy.stats();
                };
                if (st.yMask) {
                    // Separate mask arrays indexed by global vector id:
                    // avx512-comp, and zcomp's Section 3.2/4.1 option 2
                    // (payload stays within the original allocation,
                    // headers live in their own store with a decoupled
                    // auto-incremented pointer; no memory-violation
                    // risk).
                    CompressedWriter wx(
                        st.x->host + sub.regionOffset, sub.regionBytes,
                        st.xMask->host + (sub.elemBegin / 16) * hdrB,
                        (sub.elems() / 16) * hdrB, ElemType::F32,
                        Ccf::EQZ);
                    CompressedWriter wy(
                        st.y->host + sub.regionOffset, sub.regionBytes,
                        st.yMask->host + (sub.elemBegin / 16) * hdrB,
                        (sub.elems() / 16) * hdrB, ElemType::F32,
                        Ccf::LTEZ);
                    compress(wx, wy);
                    break;
                }
                // Interleaved-header streams within the original
                // allocation windows (Section 4.1).
                CompressedWriter wx(st.x->host + slackOffset(sub),
                                    slackBytes(sub), ElemType::F32,
                                    Ccf::EQZ);
                CompressedWriter wy(st.y->host + slackOffset(sub),
                                    slackBytes(sub), ElemType::F32,
                                    Ccf::LTEZ);
                compress(wx, wy);
                break;
              }
            }
            st.subs[static_cast<size_t>(c)].push_back(std::move(ss));
        }
    }

    if (cfg.verify) {
        // Expanding Y must reproduce relu(raw) exactly in every layout:
        // plain, separate mask arrays or interleaved headers.
        for (int c = 0; c < cores; c++) {
            for (const SubStream &ss : st.subs[static_cast<size_t>(c)]) {
                const Chunk &sub = ss.chunk;
                if (sub.elems() == 0)
                    continue;
                std::optional<CompressedReader> r;
                if (st.yMask)
                    r.emplace(st.y->host + sub.regionOffset,
                              sub.regionBytes,
                              st.yMask->host + (sub.elemBegin / 16) * hdrB,
                              (sub.elems() / 16) * hdrB, ElemType::F32);
                else if (impl == ReluImpl::Zcomp)
                    r.emplace(st.y->host + slackOffset(sub),
                              slackBytes(sub), ElemType::F32);
                if (r)
                    r->expectNnzRecord(&ss.nnzY);
                for (size_t i = sub.elemBegin; i < sub.elemEnd; i += 16) {
                    const Vec512 v =
                        r ? r->get()
                          : Vec512::load(st.y->host + sub.regionOffset +
                                         (i - sub.elemBegin) * 4);
                    for (int l = 0; l < 16; l++) {
                        const float x = raw[i + static_cast<size_t>(l)];
                        panic_if(v.lane<float>(l) != (x > 0 ? x : 0.0f),
                                 "%s mismatch at element %zu",
                                 reluImplName(impl),
                                 i + static_cast<size_t>(l));
                    }
                }
            }
        }
    }
    return st;
}

/** Pseudo-PC ids: keep per-sub streams distinct for the prefetcher. */
uint16_t
pcOf(int sub, int which)
{
    return static_cast<uint16_t>(1 + sub * 8 + which);
}

/**
 * Streams one core's ops of a store or retrieve pass: vector i of
 * every sub-block s in turn, (i, s) loop state kept between fills,
 * with running offsets into each sub-block's compressed X and Y.
 */
class ReluCursor final : public OpCursor
{
  public:
    ReluCursor(const ExperimentState &st, ReluImpl impl, bool store,
               bool sep, int logic_lat, int core)
        : st_(st), subs_(st.subs[static_cast<size_t>(core)]),
          impl_(impl), store_(store), sep_(sep),
          logicLat_(static_cast<uint8_t>(logic_lat)),
          xOff_(subs_.size(), 0), yOff_(subs_.size(), 0)
    {
        for (const auto &ss : subs_)
            maxVecs_ = std::max(maxVecs_, ss.chunk.elems() / 16);
    }

    size_t
    fill(TraceOp *out, size_t cap) override
    {
        size_t n = 0;
        // One (i, s) iteration writes at most maxIterOps ops.
        while (i_ < maxVecs_ && n + maxIterOps <= cap) {
            if (i_ < subs_[s_].chunk.elems() / 16)
                n += store_ ? emitStore(out + n) : emitRetrieve(out + n);
            if (++s_ == subs_.size()) {
                s_ = 0;
                i_++;
            }
        }
        return n;
    }

  private:
    static constexpr size_t maxIterOps = 4;

    uint16_t pc(int which) const
    {
        return pcOf(static_cast<int>(s_), which);
    }

    /** zcompl/zcomps op on stream @p stream (fused logic unit). */
    TraceOp
    chained(TraceOp op, size_t stream) const
    {
        op.stream = static_cast<int8_t>(stream);
        op.chainLat = logicLat_;
        op.zcompUnit = true;
        return op;
    }

    /** The store (activation) pass: read X, write relu(X) to Y. */
    size_t
    emitStore(TraceOp *out)
    {
        const SubStream &ss = subs_[s_];
        const Chunk &sub = ss.chunk;
        const size_t i = i_, s = s_;
        const size_t gvec = sub.elemBegin / 16 + i;
        TraceOp *t = out;
        switch (impl_) {
          case ReluImpl::Avx512Vec: {
            // vmovups; vmaxps; vmovups; loop.
            *t++ = TraceOp::load(st_.x->addrAt(sub.regionOffset + i * 64),
                                 64, 1, pc(0));
            *t++ = TraceOp::store(
                st_.y->addrAt(sub.regionOffset + i * 64), 64, 4, pc(1));
            break;
          }
          case ReluImpl::Avx512Comp: {
            uint32_t nx = ss.nnzX[i], ny = ss.nnzY[i];
            // headers[i] load (independent address).
            *t++ = TraceOp::load(st_.xMask->addrAt(gvec * hdrB),
                                 static_cast<uint32_t>(hdrB), 1, pc(0));
            // kmov+vexpandload+popcnt+index add.
            *t++ = TraceOp::load(
                st_.x->addrAt(sub.regionOffset + xOff_[s]), nx * 4, 6,
                pc(1));
            // vcmp+popcnt+vcompressstore+index add.
            *t++ = TraceOp::store(
                st_.y->addrAt(sub.regionOffset + yOff_[s]), ny * 4, 7,
                pc(2));
            // headers store + loop.
            *t++ = TraceOp::store(st_.yMask->addrAt(gvec * hdrB),
                                  static_cast<uint32_t>(hdrB), 3, pc(3));
            xOff_[s] += nx * 4;
            yOff_[s] += ny * 4;
            break;
          }
          case ReluImpl::Zcomp: {
            uint32_t nx = ss.nnzX[i], ny = ss.nnzY[i];
            if (sep_) {
                // Header reads/writes have statically-known addresses
                // (fixed reg3 stride): independent accesses issued as
                // part of the same instruction (no extra uops).
                *t++ = TraceOp::load(st_.xMask->addrAt(gvec * hdrB),
                                     static_cast<uint32_t>(hdrB), 0,
                                     pc(2));
            }
            // zcompl X payload (chained via reg2; interleaved mode
            // also carries the header inline).
            *t++ = chained(
                TraceOp::load(st_.x->addrAt(windowOffset(sub) + xOff_[s]),
                              inlineHdr() + nx * 4, 1, pc(0)),
                2 * s);
            // zcomps Y (LTEZ fused ReLU) + loop overhead.
            *t++ = chained(
                TraceOp::store(
                    st_.y->addrAt(windowOffset(sub) + yOff_[s]),
                    inlineHdr() + ny * 4, 3, pc(1)),
                2 * s + 1);
            if (sep_) {
                *t++ = TraceOp::store(st_.yMask->addrAt(gvec * hdrB),
                                      static_cast<uint32_t>(hdrB), 0,
                                      pc(3));
            }
            xOff_[s] += inlineHdr() + nx * 4;
            yOff_[s] += inlineHdr() + ny * 4;
            break;
          }
        }
        return static_cast<size_t>(t - out);
    }

    /** The retrieve pass: the consuming layer reads Y back. */
    size_t
    emitRetrieve(TraceOp *out)
    {
        const SubStream &ss = subs_[s_];
        const Chunk &sub = ss.chunk;
        const size_t i = i_, s = s_;
        const size_t gvec = sub.elemBegin / 16 + i;
        TraceOp *t = out;
        switch (impl_) {
          case ReluImpl::Avx512Vec: {
            // vmovups + consume + loop.
            *t++ = TraceOp::load(st_.y->addrAt(sub.regionOffset + i * 64),
                                 64, 4, pc(4));
            break;
          }
          case ReluImpl::Avx512Comp: {
            uint32_t ny = ss.nnzY[i];
            *t++ = TraceOp::load(st_.yMask->addrAt(gvec * hdrB),
                                 static_cast<uint32_t>(hdrB), 1, pc(4));
            // kmov+vexpandload+popcnt+add+consume+loop.
            *t++ = TraceOp::load(
                st_.y->addrAt(sub.regionOffset + yOff_[s]), ny * 4, 8,
                pc(5));
            yOff_[s] += ny * 4;
            break;
          }
          case ReluImpl::Zcomp: {
            uint32_t ny = ss.nnzY[i];
            if (sep_) {
                *t++ = TraceOp::load(st_.yMask->addrAt(gvec * hdrB),
                                     static_cast<uint32_t>(hdrB), 0,
                                     pc(5));
            }
            // zcompl + consume + loop.
            *t++ = chained(
                TraceOp::load(st_.y->addrAt(windowOffset(sub) + yOff_[s]),
                              inlineHdr() + ny * 4, 4, pc(4)),
                2 * s);
            yOff_[s] += inlineHdr() + ny * 4;
            break;
          }
        }
        return static_cast<size_t>(t - out);
    }

    /** zcomp stream window: payload-only with separate headers. */
    size_t
    windowOffset(const Chunk &sub) const
    {
        return sep_ ? sub.regionOffset : slackOffset(sub);
    }

    /** zcomp header bytes carried inline with each vector. */
    uint32_t
    inlineHdr() const
    {
        return sep_ ? 0 : static_cast<uint32_t>(hdrB);
    }

    const ExperimentState &st_;
    const std::vector<SubStream> &subs_;
    ReluImpl impl_;
    bool store_;
    bool sep_;
    uint8_t logicLat_;
    size_t maxVecs_ = 0;
    size_t i_ = 0;
    size_t s_ = 0;
    std::vector<size_t> xOff_, yOff_;
};

} // namespace

struct ReluExperiment::State : ExperimentState
{
};

ReluExperiment::ReluExperiment(ExecContext &ctx, ReluImpl impl,
                               const ReluExperimentConfig &cfg)
    : impl_(impl), sep_(cfg.separateHeader),
      cores_(ctx.config().numCores),
      logicLat_(ctx.config().zcomp.logicLatency)
{
    // See NetworkSim::run(): fault before any state is prepared.
    FaultInjector::global().maybeInject(faultsite::KernelTransient);
    st_ = std::make_unique<State>(State{prepare(ctx, impl, cfg)});
}

ReluExperiment::~ReluExperiment() = default;

TracePhase
ReluExperiment::phase(const char *name, bool store) const
{
    TracePhase p(name, 0);
    for (int c = 0; c < cores_; c++) {
        p.cursors.push_back(std::make_unique<ReluCursor>(
            *st_, impl_, store, sep_, logicLat_, c));
    }
    return p;
}

TracePhase
ReluExperiment::storePhase() const
{
    return phase("relu-store", true);
}

TracePhase
ReluExperiment::retrievePhase() const
{
    return phase("relu-retrieve", false);
}

const StreamStats &
ReluExperiment::xStream() const
{
    return st_->xStream;
}

const StreamStats &
ReluExperiment::yStream() const
{
    return st_->yStream;
}

ReluExperimentResult
runReluExperiment(ExecContext &ctx, ReluImpl impl,
                  const ReluExperimentConfig &cfg)
{
    const ReluExperiment exp(ctx, impl, cfg);

    // Cursors are consumed by one run: every pass gets fresh ones.
    if (cfg.warmup) {
        ctx.warm(exp.storePhase());
        ctx.warm(exp.retrievePhase());
    }

    ReluExperimentResult res;
    int repeats = std::max(1, cfg.repeats);
    for (int rep = 0; rep < repeats; rep++) {
        res.store += ctx.run(exp.storePhase());
        res.retrieve += ctx.run(exp.retrievePhase());
    }
    res.xStream = exp.xStream();
    res.yStream = exp.yStream();
    return res;
}

KernelBody
reluStoreBody(ReluImpl impl)
{
    KernelBody body;
    switch (impl) {
      case ReluImpl::Avx512Vec:
        body.name = "relu-store avx512-vec";
        body.instrs = {{InstrClass::VecLoad, 1},
                       {InstrClass::VecMax, 1},
                       {InstrClass::VecStore, 1},
                       {InstrClass::LoopOverhead, 1}};
        body.vecRegs = 2;       // tvec, zero vector
        body.scalarRegs = 3;    // X, Y, i
        break;
      case ReluImpl::Avx512Comp:
        // Figure 10 loop body.
        body.name = "relu-store avx512-comp";
        body.instrs = {{InstrClass::VecLoad, 1},
                       {InstrClass::VecCmpMask, 1},
                       {InstrClass::KMov, 1},
                       {InstrClass::Popcnt, 1},
                       {InstrClass::VecCompressStore, 1},
                       {InstrClass::ScalarAlu, 1},
                       {InstrClass::ScalarStore, 1},
                       {InstrClass::LoopOverhead, 1}};
        body.vecRegs = 2;       // tvec, zvec
        body.maskRegs = 1;
        body.scalarRegs = 6;    // X, Y, headers, index, nnz_cnt, i
        break;
      case ReluImpl::Zcomp:
        // Figure 8 loop body: one intrinsic replaces the store.
        body.name = "relu-store zcomp";
        body.instrs = {{InstrClass::VecLoad, 1},
                       {InstrClass::ZcompS, 1},
                       {InstrClass::LoopOverhead, 1}};
        body.vecRegs = 1;       // tvec
        body.scalarRegs = 3;    // X, Y_ptr, i
        break;
    }
    return body;
}

KernelBody
reluRetrieveBody(ReluImpl impl)
{
    KernelBody body;
    switch (impl) {
      case ReluImpl::Avx512Vec:
        body.name = "retrieve avx512-vec";
        body.instrs = {{InstrClass::VecLoad, 1},
                       {InstrClass::LoopOverhead, 1}};
        body.vecRegs = 1;
        body.scalarRegs = 2;
        break;
      case ReluImpl::Avx512Comp:
        // Figure 11 loop body.
        body.name = "retrieve avx512-comp";
        body.instrs = {{InstrClass::ScalarLoad, 1},
                       {InstrClass::KMov, 1},
                       {InstrClass::VecExpandLoad, 1},
                       {InstrClass::Popcnt, 1},
                       {InstrClass::ScalarAlu, 1},
                       {InstrClass::LoopOverhead, 1}};
        body.vecRegs = 1;
        body.maskRegs = 1;
        body.scalarRegs = 5;    // X, headers, index, nnz_cnt, i
        break;
      case ReluImpl::Zcomp:
        // Figure 9 loop body.
        body.name = "retrieve zcomp";
        body.instrs = {{InstrClass::ZcompL, 1},
                       {InstrClass::LoopOverhead, 1}};
        body.vecRegs = 1;
        body.scalarRegs = 2;    // X_ptr, i
        break;
    }
    return body;
}

} // namespace zcomp
