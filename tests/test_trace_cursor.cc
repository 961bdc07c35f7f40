/**
 * @file
 * Differential tests for streamed trace ops: every emitter's per-core
 * cursors, drained into a materialised TracePhase, must time exactly
 * like the cursors run directly - same PhaseResult, cycle breakdown
 * and hierarchy counters - whatever the fill sizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dnn/tensor.hh"
#include "sim/kernels.hh"
#include "sim/pass_builder.hh"

using namespace zcomp;

namespace {

/** Fill capacities: the minimum, a prime, and a core's own buffer. */
const size_t fillCaps[] = {OpCursor::minFill, 13, CoreModel::fillOps};

bool
sameOp(const TraceOp &a, const TraceOp &b)
{
    return a.addr == b.addr && a.bytes == b.bytes && a.uops == b.uops &&
           a.pc == b.pc && a.stream == b.stream &&
           a.chainLat == b.chainLat && a.isWrite == b.isWrite &&
           a.zcompUnit == b.zcompUnit;
}

/** Drain every cursor of @p p, @p cap ops per fill, into plain ops. */
TracePhase
materialise(TracePhase p, size_t cap)
{
    TracePhase m(p.name, static_cast<int>(p.cursors.size()));
    std::vector<TraceOp> buf(cap);
    for (size_t c = 0; c < p.cursors.size(); c++) {
        while (size_t n = p.cursors[c]->fill(buf.data(), cap)) {
            EXPECT_LE(n, cap);
            m.perCore[c].insert(m.perCore[c].end(), buf.begin(),
                                buf.begin() + static_cast<long>(n));
        }
        // An exhausted cursor stays exhausted.
        EXPECT_EQ(p.cursors[c]->fill(buf.data(), cap), 0u);
    }
    return m;
}

/** Everything a phase leaves behind on a fresh system, as text. */
std::string
runFresh(const ArchConfig &cfg, const TracePhase &phase)
{
    MultiCoreSystem sys(cfg);
    PhaseResult r = sys.runPhase(phase);
    RunStats st;
    st.cycles = r.cycles;
    st.breakdown = sys.breakdown();
    st.traffic = sys.mem().snapshot();
    Json j = runStatsToJson(st);
    j["startTime"] = r.startTime;
    j["endTime"] = r.endTime;
    Json &cores = j["cores"];
    cores = Json::array();
    for (size_t c = 0; c < r.coreEndTimes.size(); c++) {
        Json core = Json::object();
        core["end"] = r.coreEndTimes[c];
        core["ops"] = r.coreOps[c];
        cores.push(std::move(core));
    }
    return j.dump();
}

/**
 * The differential check for one emitter: @p make returns a fresh
 * cursor phase on every call. Its drains must agree op for op at
 * every fill size, hold ops on the expected cores, and time exactly
 * like the cursors themselves.
 */
template <typename MakePhase>
void
expectCursorsMatchDrained(const ArchConfig &cfg, MakePhase make,
                          size_t min_empty_cores = 0)
{
    const TracePhase ref = materialise(make(), CoreModel::fillOps);
    ASSERT_GT(ref.totalOps(), 0u);
    size_t empty = 0, uneven = 0;
    for (const CoreTrace &t : ref.perCore) {
        empty += t.empty();
        uneven += t.size() % CoreModel::fillOps != 0;
    }
    EXPECT_GE(empty, min_empty_cores);
    EXPECT_GT(uneven, 0u) << "no core's op count misses the buffer size";

    const std::string want = runFresh(cfg, make());
    EXPECT_EQ(runFresh(cfg, ref), want);
    for (size_t cap : fillCaps) {
        SCOPED_TRACE("fill cap " + std::to_string(cap));
        const TracePhase m = materialise(make(), cap);
        ASSERT_EQ(m.perCore.size(), ref.perCore.size());
        for (size_t c = 0; c < m.perCore.size(); c++) {
            ASSERT_EQ(m.perCore[c].size(), ref.perCore[c].size());
            for (size_t i = 0; i < m.perCore[c].size(); i++)
                ASSERT_TRUE(sameOp(m.perCore[c][i], ref.perCore[c][i]))
                    << "core " << c << " op " << i;
        }
        EXPECT_EQ(runFresh(cfg, m), want);
    }
}

/** Serves fixed ops in short fills of varying size. */
class ShortFillCursor final : public OpCursor
{
  public:
    ShortFillCursor(const CoreTrace &ops, uint64_t seed)
        : ops_(ops), rng_(seed)
    {}

    size_t
    fill(TraceOp *out, size_t cap) override
    {
        size_t n = std::min<size_t>(
            {cap, ops_.size() - pos_, 1 + rng_.below(cap)});
        std::copy_n(ops_.begin() + static_cast<long>(pos_), n, out);
        pos_ += n;
        return n;
    }

  private:
    const CoreTrace &ops_;
    Rng rng_;
    size_t pos_ = 0;
};

ArchConfig
fourCores()
{
    ArchConfig cfg;
    cfg.numCores = 4;
    return cfg;
}

/** A mixed op stream: loads, stores, issue ops, chained streams. */
CoreTrace
mixedOps(size_t n, Addr base, uint64_t seed)
{
    Rng rng(seed);
    CoreTrace t;
    for (size_t i = 0; i < n; i++) {
        Addr a = base + rng.below(1 << 16) * 64;
        switch (rng.below(4)) {
          case 0:
            t.push_back(TraceOp::issue(static_cast<uint16_t>(
                1 + rng.below(8))));
            break;
          case 1:
            t.push_back(TraceOp::store(a, 64, 2, 7));
            break;
          default: {
            TraceOp op = TraceOp::load(
                a, static_cast<uint32_t>(2 + rng.below(63)), 1, 5);
            op.stream = static_cast<int8_t>(rng.below(3)) - 1;
            op.chainLat = 3;
            op.zcompUnit = op.stream >= 0;
            t.push_back(op);
            break;
          }
        }
    }
    return t;
}

} // namespace

TEST(TraceCursor, ShortFillsTimeLikeMaterialisedOps)
{
    const ArchConfig cfg = fourCores();
    // Op counts around the core buffer size, and one empty core.
    const size_t counts[] = {CoreModel::fillOps + 1, 0,
                             CoreModel::fillOps, 1000};
    TracePhase plain("mixed", cfg.numCores);
    for (size_t c = 0; c < plain.perCore.size(); c++) {
        plain.perCore[c] =
            mixedOps(counts[c], Addr{0x10000000} * (c + 1), 40 + c);
    }
    const std::string want = runFresh(cfg, plain);
    for (uint64_t seed : {1, 2, 3}) {
        TracePhase streamed("mixed", 0);
        for (size_t c = 0; c < plain.perCore.size(); c++) {
            streamed.cursors.push_back(std::make_unique<ShortFillCursor>(
                plain.perCore[c], seed * 10 + c));
        }
        EXPECT_EQ(runFresh(cfg, streamed), want) << "seed " << seed;
    }
}

TEST(TraceCursor, CoreDrainsOneStepAfterItsLastStreamedOp)
{
    ArchConfig cfg = fourCores();
    MemoryHierarchy mem(cfg);
    CoreModel core(0, cfg, mem);
    CoreTrace ops = mixedOps(3, 0x400000, 9);
    ShortFillCursor cursor(ops, 1);
    core.startPhase(&cursor, 0.0);
    for (int step = 0; step < 3; step++) {
        ASSERT_FALSE(core.done());
        core.step();
        EXPECT_EQ(core.phaseOps(), static_cast<uint64_t>(step + 1));
    }
    EXPECT_FALSE(core.done());
    core.step();    // the drain
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.phaseOps(), 3u);
}

TEST(TraceCursor, MixingOpsAndCursorOnOneCoreIsFatal)
{
    ArchConfig cfg = fourCores();
    MultiCoreSystem sys(cfg);
    TracePhase p("both", cfg.numCores);
    p.perCore[1].push_back(TraceOp::issue(1));
    CoreTrace ops = mixedOps(4, 0x400000, 9);
    p.cursors.resize(2);
    p.cursors[1] = std::make_unique<ShortFillCursor>(ops, 1);
    EXPECT_DEATH(sys.runPhase(p), "both ops and a cursor");
}

TEST(TraceCursor, ReluCursorsMatchDrainedOps)
{
    ArchConfig cfg;     // 16 cores
    struct Variant
    {
        ReluImpl impl;
        bool sep;
    };
    const Variant variants[] = {{ReluImpl::Avx512Vec, false},
                                {ReluImpl::Avx512Comp, false},
                                {ReluImpl::Zcomp, false},
                                {ReluImpl::Zcomp, true}};
    // 5 vectors leave most of the 16 cores empty; 4099 vectors give
    // every core an op count that misses the buffer size.
    for (size_t vecs : {5, 4099}) {
        for (const Variant &v : variants) {
            SCOPED_TRACE(std::string(reluImplName(v.impl)) +
                         (v.sep ? " sep" : "") + " vecs " +
                         std::to_string(vecs));
            ExecContext ctx(cfg);
            ReluExperimentConfig rc;
            rc.elems = vecs * 16;
            rc.separateHeader = v.sep;
            const ReluExperiment exp(ctx, v.impl, rc);
            const size_t empty = vecs < 16 ? 16 - vecs : 0;
            expectCursorsMatchDrained(
                cfg, [&] { return exp.storePhase(); }, empty);
            expectCursorsMatchDrained(
                cfg, [&] { return exp.retrievePhase(); }, empty);
        }
    }
}

namespace {

/** Tensors and masks for PassBuilder passes on one context. */
struct PassFixture
{
    ArchConfig cfg = fourCores();
    ExecContext ctx{cfg};
    Rng rng{77};

    /** About half the lanes zero, so compressed sizes vary. */
    std::unique_ptr<Tensor>
    tensor(const std::string &name, int elems)
    {
        auto t = std::make_unique<Tensor>(ctx.vs(), name,
                                          TensorShape{1, 1, 1, elems},
                                          AllocClass::FeatureMap);
        for (int i = 0; i < elems; i++) {
            t->data()[i] = rng.below(2) ? 0.0f
                                        : static_cast<float>(i % 7) + 1;
        }
        return t;
    }

    StreamSpec
    spec(const Tensor &t, IoPolicy policy, bool write, int uops)
    {
        StreamSpec s;
        s.tensor = &t;
        s.write = write;
        s.extraUops = uops;
        s.compress = policy != IoPolicy::Uncompressed;
        s.fusedLtez = write && policy == IoPolicy::Zcomp;
        if (s.compress && policy == IoPolicy::Avx512Comp) {
            s.mask = &ctx.vs().alloc(
                t.name() + ".mask",
                std::max<size_t>(1, t.elems() / 16 *
                                        PassBuilder::hdrBytes),
                AllocClass::FeatureMap);
        }
        return s;
    }
};

} // namespace

TEST(TraceCursor, PassBuilderCursorsMatchDrainedOps)
{
    PassFixture f;
    // Tails (sizes not a multiple of 16) on core 0, and a one-vector
    // tensor that leaves three of the four cores without its ops.
    auto x = f.tensor("x", 16 * 2051 + 5);
    auto y = f.tensor("y", 16 * 2051 + 5);
    auto one = f.tensor("one", 16);
    Buffer &w = f.ctx.vs().alloc("w", 300 * 64 + 17, AllocClass::Weight);
    for (int p = 0; p < numIoPolicies; p++) {
        const auto policy = static_cast<IoPolicy>(p);
        SCOPED_TRACE(ioPolicyName(policy));
        NetworkSimConfig nc;
        nc.policy = policy;
        nc.gemmBlockRows = 64;

        // stream -> GEMM -> stream, with the nnz memo left out so
        // the cursors count lanes themselves.
        PassBuilder mixed(f.ctx, nc, "mixed");
        mixed.stream({f.spec(*x, policy, false, 1),
                      f.spec(*y, policy, true, 0)});
        mixed.gemmCompute(w.addrAt(0), 300 * 64 + 17, 150);
        mixed.stream({f.spec(*y, policy, false, 2)});
        expectCursorsMatchDrained(f.cfg, [&] { return mixed.phase(); });

        // GEMM first, then a tiny stream: cores 1-3 only get panels.
        PassBuilder tiny(f.ctx, nc, "tiny");
        tiny.gemmCompute(w.addrAt(0), 3 * 64, 70);
        tiny.stream({f.spec(*one, policy, true, 1)});
        expectCursorsMatchDrained(f.cfg, [&] { return tiny.phase(); }, 1);
    }
}

TEST(TraceCursor, EmptyPassRunsNoOps)
{
    PassFixture f;
    NetworkSimConfig nc;
    PassBuilder pb(f.ctx, nc, "empty");
    pb.gemmCompute(0x1000, 0, 100);     // nothing to walk
    TracePhase p = materialise(pb.phase(), CoreModel::fillOps);
    EXPECT_EQ(p.totalOps(), 0u);
    MultiCoreSystem sys(f.cfg);
    PhaseResult r = sys.runPhase(pb.phase());
    EXPECT_EQ(r.cycles, 0.0);
    for (uint64_t ops : r.coreOps)
        EXPECT_EQ(ops, 0u);
}
