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

/** Build the store (activation) pass trace. */
TracePhase
buildStorePhase(const ExperimentState &st, ReluImpl impl,
                const ReluExperimentConfig &cfg, int cores, int logic_lat)
{
    TracePhase phase("relu-store", cores);
    for (int c = 0; c < cores; c++) {
        const auto &subs = st.subs[static_cast<size_t>(c)];
        CoreTrace &t = phase.perCore[static_cast<size_t>(c)];

        size_t max_vecs = 0;
        for (const auto &ss : subs)
            max_vecs = std::max(max_vecs, ss.chunk.elems() / 16);

        std::vector<size_t> xOff(subs.size(), 0), yOff(subs.size(), 0);
        for (size_t i = 0; i < max_vecs; i++) {
            for (size_t s = 0; s < subs.size(); s++) {
                const SubStream &ss = subs[s];
                if (i >= ss.chunk.elems() / 16)
                    continue;
                const Chunk &sub = ss.chunk;
                size_t gvec = sub.elemBegin / 16 + i;
                switch (impl) {
                  case ReluImpl::Avx512Vec: {
                    // vmovups; vmaxps; vmovups; loop.
                    t.push_back(TraceOp::load(
                        st.x->addrAt(sub.regionOffset + i * 64), 64, 1,
                        pcOf(static_cast<int>(s), 0)));
                    t.push_back(TraceOp::store(
                        st.y->addrAt(sub.regionOffset + i * 64), 64, 4,
                        pcOf(static_cast<int>(s), 1)));
                    break;
                  }
                  case ReluImpl::Avx512Comp: {
                    uint32_t nx = ss.nnzX[i], ny = ss.nnzY[i];
                    // headers[i] load (independent address).
                    t.push_back(TraceOp::load(
                        st.xMask->addrAt(gvec * hdrB),
                        static_cast<uint32_t>(hdrB), 1,
                        pcOf(static_cast<int>(s), 0)));
                    // kmov+vexpandload+popcnt+index add.
                    t.push_back(TraceOp::load(
                        st.x->addrAt(sub.regionOffset + xOff[s]), nx * 4,
                        6, pcOf(static_cast<int>(s), 1)));
                    // vcmp+popcnt+vcompressstore+index add.
                    t.push_back(TraceOp::store(
                        st.y->addrAt(sub.regionOffset + yOff[s]), ny * 4,
                        7, pcOf(static_cast<int>(s), 2)));
                    // headers store + loop.
                    t.push_back(TraceOp::store(
                        st.yMask->addrAt(gvec * hdrB),
                        static_cast<uint32_t>(hdrB), 3,
                        pcOf(static_cast<int>(s), 3)));
                    xOff[s] += nx * 4;
                    yOff[s] += ny * 4;
                    break;
                  }
                  case ReluImpl::Zcomp: {
                    uint32_t nx = ss.nnzX[i], ny = ss.nnzY[i];
                    bool sep = cfg.separateHeader;
                    if (sep) {
                        // Header reads/writes have statically-known
                        // addresses (fixed reg3 stride): independent
                        // accesses issued as part of the same
                        // instruction (no extra uops).
                        t.push_back(TraceOp::load(
                            st.xMask->addrAt(gvec * hdrB),
                            static_cast<uint32_t>(hdrB), 0,
                            pcOf(static_cast<int>(s), 2)));
                    }
                    // zcompl X payload (chained via reg2; interleaved
                    // mode also carries the header inline).
                    TraceOp ld = TraceOp::load(
                        st.x->addrAt(sep ? sub.regionOffset + xOff[s]
                                         : slackOffset(sub) + xOff[s]),
                        (sep ? 0 : static_cast<uint32_t>(hdrB)) +
                            nx * 4,
                        1, pcOf(static_cast<int>(s), 0));
                    ld.stream = static_cast<int8_t>(2 * s);
                    ld.chainLat = static_cast<uint8_t>(logic_lat);
                    ld.zcompUnit = true;
                    t.push_back(ld);
                    // zcomps Y (LTEZ fused ReLU) + loop overhead.
                    TraceOp stp = TraceOp::store(
                        st.y->addrAt(sep ? sub.regionOffset + yOff[s]
                                         : slackOffset(sub) + yOff[s]),
                        (sep ? 0 : static_cast<uint32_t>(hdrB)) +
                            ny * 4,
                        3, pcOf(static_cast<int>(s), 1));
                    stp.stream = static_cast<int8_t>(2 * s + 1);
                    stp.chainLat = static_cast<uint8_t>(logic_lat);
                    stp.zcompUnit = true;
                    t.push_back(stp);
                    if (sep) {
                        TraceOp hw = TraceOp::store(
                            st.yMask->addrAt(gvec * hdrB),
                            static_cast<uint32_t>(hdrB), 0,
                            pcOf(static_cast<int>(s), 3));
                        t.push_back(hw);
                    }
                    xOff[s] += (sep ? 0 : hdrB) + nx * 4;
                    yOff[s] += (sep ? 0 : hdrB) + ny * 4;
                    break;
                  }
                }
            }
        }
    }
    return phase;
}

/** Build the retrieve (consumer) pass trace. */
TracePhase
buildRetrievePhase(const ExperimentState &st, ReluImpl impl,
                   const ReluExperimentConfig &cfg, int cores,
                   int logic_lat)
{
    TracePhase phase("relu-retrieve", cores);
    for (int c = 0; c < cores; c++) {
        const auto &subs = st.subs[static_cast<size_t>(c)];
        CoreTrace &t = phase.perCore[static_cast<size_t>(c)];

        size_t max_vecs = 0;
        for (const auto &ss : subs)
            max_vecs = std::max(max_vecs, ss.chunk.elems() / 16);

        std::vector<size_t> yOff(subs.size(), 0);
        for (size_t i = 0; i < max_vecs; i++) {
            for (size_t s = 0; s < subs.size(); s++) {
                const SubStream &ss = subs[s];
                if (i >= ss.chunk.elems() / 16)
                    continue;
                const Chunk &sub = ss.chunk;
                size_t gvec = sub.elemBegin / 16 + i;
                switch (impl) {
                  case ReluImpl::Avx512Vec: {
                    // vmovups + consume + loop.
                    t.push_back(TraceOp::load(
                        st.y->addrAt(sub.regionOffset + i * 64), 64, 4,
                        pcOf(static_cast<int>(s), 4)));
                    break;
                  }
                  case ReluImpl::Avx512Comp: {
                    uint32_t ny = ss.nnzY[i];
                    t.push_back(TraceOp::load(
                        st.yMask->addrAt(gvec * hdrB),
                        static_cast<uint32_t>(hdrB), 1,
                        pcOf(static_cast<int>(s), 4)));
                    // kmov+vexpandload+popcnt+add+consume+loop.
                    t.push_back(TraceOp::load(
                        st.y->addrAt(sub.regionOffset + yOff[s]), ny * 4,
                        8, pcOf(static_cast<int>(s), 5)));
                    yOff[s] += ny * 4;
                    break;
                  }
                  case ReluImpl::Zcomp: {
                    uint32_t ny = ss.nnzY[i];
                    bool sep = cfg.separateHeader;
                    if (sep) {
                        t.push_back(TraceOp::load(
                            st.yMask->addrAt(gvec * hdrB),
                            static_cast<uint32_t>(hdrB), 0,
                            pcOf(static_cast<int>(s), 5)));
                    }
                    // zcompl + consume + loop.
                    TraceOp ld = TraceOp::load(
                        st.y->addrAt(sep ? sub.regionOffset + yOff[s]
                                         : slackOffset(sub) + yOff[s]),
                        (sep ? 0 : static_cast<uint32_t>(hdrB)) +
                            ny * 4,
                        4, pcOf(static_cast<int>(s), 4));
                    ld.stream = static_cast<int8_t>(2 * s);
                    ld.chainLat = static_cast<uint8_t>(logic_lat);
                    ld.zcompUnit = true;
                    t.push_back(ld);
                    yOff[s] += (sep ? 0 : hdrB) + ny * 4;
                    break;
                  }
                }
            }
        }
    }
    return phase;
}

} // namespace

ReluExperimentResult
runReluExperiment(ExecContext &ctx, ReluImpl impl,
                  const ReluExperimentConfig &cfg)
{
    const int cores = ctx.config().numCores;
    const int logic_lat = ctx.config().zcomp.logicLatency;

    // See NetworkSim::run(): fault before any state is prepared.
    FaultInjector::global().maybeInject(faultsite::KernelTransient);

    ExperimentState st = prepare(ctx, impl, cfg);
    TracePhase store = buildStorePhase(st, impl, cfg, cores, logic_lat);
    TracePhase retrieve =
        buildRetrievePhase(st, impl, cfg, cores, logic_lat);

    if (cfg.warmup) {
        ctx.warm(store);
        ctx.warm(retrieve);
    }

    ReluExperimentResult res;
    int repeats = std::max(1, cfg.repeats);
    for (int rep = 0; rep < repeats; rep++) {
        res.store += ctx.run(store);
        res.retrieve += ctx.run(retrieve);
    }
    res.xStream = st.xStream;
    res.yStream = st.yStream;
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
