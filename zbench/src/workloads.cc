#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>

#include "bench/bench_common.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "dnn/models.hh"
#include "sim/kernels.hh"
#include "sim/network_sim.hh"
#include "workload/deepbench.hh"
#include "workload/snapshot.hh"
#include "zcomp/stream.hh"

namespace zbench {

using namespace zcomp;

namespace {

/** FNV-1a over bytes, continuing from @p h. */
uint64_t
fnv1a(const void *data, size_t n, uint64_t h = 1469598103934665603ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
l1Accesses(const RunStats &s)
{
    return s.traffic.l1Hits + s.traffic.l1Misses;
}

Unit
failedUnit(const std::string &name, const std::string &why)
{
    Unit u;
    u.name = name;
    u.error = why;
    return u;
}

/**
 * Run @p body for unit @p name; an exception marks the unit failed
 * instead of ending the run.
 */
template <typename F>
Unit
guarded(const std::string &name, F &&body)
{
    try {
        Unit u = body();
        u.name = name;
        u.ok = true;
        return u;
    } catch (const std::exception &e) {
        return failedUnit(name, e.what());
    }
}

// ------------------------------------------------------------------
// study_train

/**
 * Training batch of the study cell. The pinned study batch is 64
 * (bench::studyModels()), about 46 s per cell. At 8 a cell takes
 * about 5 s, so a 36 s run has six or more iterations to take the
 * median of, and the feature plus gradient maps (49 MB) are still
 * twice the 24 MiB L3, so cross-layer traffic keeps reaching DRAM as
 * it does at 64. See README.md.
 */
constexpr int studyBatch = 8;
constexpr int tinyStudyBatch = 2;

Json
networkDigest(const NetworkSimResult &r)
{
    Json d = runStatsToJson(r.total);
    uint64_t h = 1469598103934665603ULL;
    for (const LayerPassStats &l : r.layers) {
        std::string s = runStatsToJson(l.stats).dump();
        h = fnv1a(s.data(), s.size(), h);
        unsigned char bwd = l.backward ? 1 : 0;
        h = fnv1a(&bwd, 1, h);
    }
    d["layerPasses"] = r.layers.size();
    d["layerPassesFnv"] = hex64(h);
    return d;
}

class StudyTrain final : public Workload
{
  public:
    explicit StudyTrain(const Options &opt)
        : opt_(opt),
          model_{ModelId::Resnet32, opt.tiny ? tinyStudyBatch : studyBatch,
                 4, 0, 1.0}
    {}

    void
    prepare(SpanRecorder *rec) override
    {
        // The same steps, in the same order, as bench::prepareNet()
        // up to the functional passes, which run() times.
        ArchConfig cfg;
        {
            SpanScope s(rec, "ExecContext", "sim");
            ctx_ = std::make_unique<ExecContext>(cfg, &arena_);
        }
        ModelOptions mo;
        mo.batch = model_.trainBatch;
        mo.imageSize = model_.imageSize;
        mo.widthScale = model_.widthScale;
        classes_ = mo.classes;
        {
            SpanScope s(rec, "buildModel", "dnn");
            net_ = buildModel(model_.id, ctx_->vs(), mo);
        }
        {
            SpanScope s(rec, "Network::build", "dnn");
            net_->build(/*training=*/true, opt_.seed);
        }
        rng_.emplace(opt_.seed + 17);
        {
            SpanScope s(rec, "Network::fillSyntheticInput", "dnn");
            net_->fillSyntheticInput(*rng_);
        }
        macs_ = net_->totalMacs();
        footprint_ = net_->footprint();
    }

    std::vector<Unit>
    run(SpanRecorder *rec) override
    {
        const std::vector<bench::StudyPolicy> &pols = bench::studyPolicies();
        std::vector<Unit> units;
        try {
            {
                SpanScope s(rec, "Network::forward", "dnn");
                net_->forward();
            }
            std::vector<int> labels(static_cast<size_t>(model_.trainBatch));
            for (int &l : labels)
                l = static_cast<int>(
                    rng_->below(static_cast<uint64_t>(classes_)));
            {
                SpanScope s(rec, "Network::lossAndBackward", "dnn");
                net_->lossAndBackward(labels);
            }
        } catch (const std::exception &e) {
            for (const auto &p : pols)
                units.push_back(failedUnit(
                    p.name, std::string("functional pass: ") + e.what()));
            return units;
        }

        NetworkSim sim(*ctx_, *net_);
        for (const auto &p : pols) {
            units.push_back(guarded(p.name, [&] {
                NetworkSimConfig cfg;
                cfg.policy = p.policy;
                NetworkSimResult r;
                {
                    SpanScope s(rec, "NetworkSim::run", "sim", p.name);
                    r = sim.run(cfg);
                }
                Unit u;
                u.digest = networkDigest(r);
                u.l1Accesses = l1Accesses(r.total);
                return u;
            }));
        }
        return units;
    }

    void
    discard() override
    {
        net_.reset();
        ctx_.reset();
        arena_.reset();
    }

    /**
     * The same cell through the harness: bench::runStudy() always
     * prepares with seed 1, so its units ("runStudy:<policy>") are
     * checked against the seed-1 digests. Its prep and per-policy sim
     * times, as the row reports them, become derived child spans, so
     * the runStudy span's self time is the harness's own overhead.
     */
    std::vector<Unit>
    tracedExtras(SpanRecorder *rec) override
    {
        bench::StudyHarness h;
        h.failBudget = 1;   // report a failed cell, never exit(1)
        bench::StudyOptions so;
        so.trainingOnly = true;
        so.models = {model_};
        so.pool = &ThreadPool::global();
        so.harness = &h;

        std::vector<bench::StudyRow> rows;
        {
            SpanScope s(rec, "bench::runStudy", "harness");
            double t0 = rec ? rec->nowUs() : 0;
            rows = bench::runStudy(so);
            if (rec && rows.size() == 1 &&
                rows[0].status != bench::CellStatus::Failed) {
                const bench::StudyRow &row = rows[0];
                double t = t0;
                rec->addDerived("bench::prepareNet", "dnn", "runStudy", t,
                                t + row.prepMillis * 1e3);
                t += row.prepMillis * 1e3;
                const auto &pols = bench::studyPolicies();
                for (size_t i = 0; i < row.simMillis.size(); i++) {
                    rec->addDerived("NetworkSim::run", "sim",
                                    "runStudy:" + pols[i].name, t,
                                    t + row.simMillis[i] * 1e3);
                    t += row.simMillis[i] * 1e3;
                }
            }
        }

        std::vector<Unit> units;
        const auto &pols = bench::studyPolicies();
        for (size_t i = 0; i < pols.size(); i++) {
            std::string name = "runStudy:" + pols[i].name;
            if (rows.size() != 1 ||
                rows[0].status == bench::CellStatus::Failed) {
                units.push_back(failedUnit(
                    name, rows.empty() ? "no row" : rows[0].error));
                continue;
            }
            Unit u;
            u.name = name;
            u.ok = true;
            u.digest = networkDigest(rows[0].results[i]);
            u.l1Accesses = l1Accesses(rows[0].results[i].total);
            units.push_back(std::move(u));
        }
        return units;
    }

    Json
    info() const override
    {
        Json j = Json::object();
        j["model"] = modelName(model_.id);
        j["batch"] = model_.trainBatch;
        j["forwardMacs"] = macs_;
        j["featureMapBytes"] = footprint_.featureMapBytes;
        j["gradientMapBytes"] = footprint_.gradientMapBytes;
        j["footprintBytes"] = footprint_.total();
        return j;
    }

  private:
    Options opt_;
    bench::StudyModel model_;
    BumpArena arena_;
    std::unique_ptr<ExecContext> ctx_;
    std::unique_ptr<Network> net_;
    std::optional<Rng> rng_;
    int classes_ = 0;
    uint64_t macs_ = 0;
    Network::Footprint footprint_;
};

// ------------------------------------------------------------------
// relu_sweep

struct ReluShapeSpec
{
    const char *regime;  //!< l2fit / l3fit / dram
    const char *shape;   //!< DeepBench shape name
    BenchSuite suite;
};

/**
 * One shape per cache regime of the Table 1 machine (1 MiB L2 per
 * core, 24 MiB shared L3): X + Y of 4 MiB spread over 16 cores fit
 * L2, 16.8 MiB fit L3, 51 MiB spill to DRAM.
 */
const ReluShapeSpec fullShapes[] = {
    {"l2fit", "conv3-512 32x32 n1", BenchSuite::ConvInfer},
    {"l3fit", "conv3-128 128x128 n1", BenchSuite::ConvInfer},
    {"dram", "conv3-256 56x56 n8", BenchSuite::ConvTrain},
};

/** Self-test sizes: same code paths, no cache-regime claims. */
const ReluShapeSpec tinyShapes[] = {
    {"l2fit", "conv3-512 4x4 n1", BenchSuite::ConvInfer},
    {"l3fit", "conv3-512 8x8 n1", BenchSuite::ConvInfer},
    {"dram", "conv3-256 16x16 n1", BenchSuite::ConvInfer},
};

const DeepBenchShape &
findShape(const ReluShapeSpec &spec)
{
    for (const DeepBenchShape &s : deepBenchShapes())
        if (s.name == spec.shape && s.suite == spec.suite)
            return s;
    throw std::runtime_error(std::string("no DeepBench shape ") +
                             spec.shape);
}

Json
streamJson(const StreamStats &s)
{
    Json j = Json::object();
    j["vectors"] = s.vectors;
    j["nnz"] = s.nnz;
    j["payloadBytes"] = s.payloadBytes;
    j["headerBytes"] = s.headerBytes;
    return j;
}

class ReluSweep final : public Workload
{
  public:
    explicit ReluSweep(const Options &opt) : opt_(opt)
    {
        const ReluShapeSpec *specs = opt.tiny ? tinyShapes : fullShapes;
        for (int i = 0; i < 3; i++)
            shapes_.push_back({specs[i].regime, &findShape(specs[i])});
    }

    void
    prepare(SpanRecorder *rec) override
    {
        ArchConfig cfg;
        ctxs_.clear();
        for (const auto &sh : shapes_) {
            for (int i = 0; i < numReluImpls; i++) {
                SpanScope s(rec, "ExecContext", "sim",
                            unitName(static_cast<ReluImpl>(i), sh));
                ctxs_.push_back(std::make_unique<ExecContext>(cfg));
            }
        }
    }

    std::vector<Unit>
    run(SpanRecorder *rec) override
    {
        std::vector<Unit> units;
        size_t k = 0;
        for (const auto &sh : shapes_) {
            ReluExperimentConfig rc = experimentConfig(sh);
            for (int i = 0; i < numReluImpls; i++, k++) {
                auto impl = static_cast<ReluImpl>(i);
                std::string name = unitName(impl, sh);
                units.push_back(guarded(name, [&] {
                    ReluExperimentResult r;
                    {
                        SpanScope s(rec, "runReluExperiment", "sim", name);
                        r = runReluExperiment(*ctxs_[k], impl, rc);
                    }
                    Unit u;
                    u.digest = Json::object();
                    u.digest["store"] = runStatsToJson(r.store);
                    u.digest["retrieve"] = runStatsToJson(r.retrieve);
                    u.digest["xStream"] = streamJson(r.xStream);
                    u.digest["yStream"] = streamJson(r.yStream);
                    u.l1Accesses = l1Accesses(r.total());
                    return u;
                }));
                // Free the context's buffers before the next, larger
                // one is touched; peak RSS stays one experiment wide.
                SpanScope s(rec, "~ExecContext", "sim", name);
                ctxs_[k].reset();
            }
        }
        return units;
    }

    void discard() override { ctxs_.clear(); }

    /**
     * Direct calls into workload and zcomp on the same shapes and
     * snapshot seeds: fillActivations, then a fused-ReLU (LTEZ)
     * compressBufferPs and expandBufferPs round trip, checked
     * against ReLU of the input.
     */
    std::vector<Unit>
    tracedExtras(SpanRecorder *rec) override
    {
        std::vector<Unit> units;
        for (const auto &sh : shapes_) {
            std::string name = std::string("codec@") + sh.regime;
            units.push_back(guarded(name, [&] {
                ReluExperimentConfig rc = experimentConfig(sh);
                const size_t n = rc.elems;
                std::vector<float> x, y;
                std::vector<uint8_t> comp;
                {
                    SpanScope s(rec, "allocate buffers", "bench", name);
                    x.resize(n);
                    y.resize(n);
                    comp.resize(n * 4 + (n / 16) * 2 + 64);
                }
                SnapshotParams sp;
                sp.sparsity = rc.sparsity;
                sp.negFraction = rc.negFraction;
                {
                    SpanScope s(rec, "fillActivations", "workload", name);
                    Rng rng(rc.seed);
                    fillActivations(x.data(), n, sp, rng);
                }
                StreamStats cs, es;
                {
                    SpanScope s(rec, "compressBufferPs", "zcomp", name);
                    cs = compressBufferPs(x.data(), n, comp.data(),
                                          comp.size(), Ccf::LTEZ);
                }
                {
                    SpanScope s(rec, "expandBufferPs", "zcomp", name);
                    es = expandBufferPs(comp.data(), cs.totalBytes(),
                                        y.data(), n);
                }
                for (size_t i = 0; i < n; i++) {
                    float want = x[i] > 0.0f ? x[i] : 0.0f;
                    if (y[i] != want)
                        throw std::runtime_error(
                            "codec round trip differs from ReLU at " +
                            std::to_string(i));
                }
                Unit u;
                u.digest = Json::object();
                u.digest["elems"] = n;
                u.digest["compress"] = streamJson(cs);
                u.digest["expand"] = streamJson(es);
                u.digest["streamFnv"] =
                    hex64(fnv1a(comp.data(), cs.totalBytes()));
                return u;
            }));
        }
        return units;
    }

    Json
    info() const override
    {
        Json j = Json::object();
        for (const auto &sh : shapes_) {
            Json s = Json::object();
            s["shape"] = sh.shape->name;
            s["bytes"] = sh.shape->bytes();
            j[sh.regime] = s;
        }
        return j;
    }

  private:
    struct Shape
    {
        const char *regime;
        const DeepBenchShape *shape;
    };

    static std::string
    unitName(ReluImpl impl, const Shape &sh)
    {
        return std::string(reluImplName(impl)) + "@" + sh.regime;
    }

    /**
     * Figure 12's per-shape settings, seeded from the workload seed
     * (seed 1 reproduces the figure bench's snapshot seeds). Like
     * bench_fig12, DRAM-resident shapes skip the warm-up pass; here
     * that starts at an input larger than the L3 (not 4x it), so the
     * dram shape simulates one pass pair, not two, and a 36 s run has
     * five or more iterations.
     */
    ReluExperimentConfig
    experimentConfig(const Shape &sh) const
    {
        ArchConfig cfg;
        ReluExperimentConfig rc;
        rc.elems = sh.shape->elems;
        rc.sparsity = sh.shape->sparsity;
        rc.seed = 999 + opt_.seed + sh.shape->elems % 977;
        rc.warmup = sh.shape->bytes() < cfg.l3.size;
        rc.repeats = static_cast<int>(std::min<size_t>(
            16, std::max<size_t>(1, (2u << 20) / sh.shape->bytes())));
        return rc;
    }

    Options opt_;
    std::vector<Shape> shapes_;
    std::vector<std::unique_ptr<ExecContext>> ctxs_;
};

// ------------------------------------------------------------------
// timing_replay

/** A pinned per-core stream of 64 B accesses. */
struct AccessLeg
{
    std::string name;
    bool write = false;
    uint16_t pc = 0;
    std::vector<std::vector<Addr>> perCore;

    size_t
    size() const
    {
        size_t n = 0;
        for (const auto &c : perCore)
            n += c.size();
        return n;
    }
};

struct PhaseLeg
{
    std::string name;
    TracePhase phase;
};

/** Leg sizes, in lines per core. */
struct ReplaySizes
{
    uint64_t streamLines;   //!< stream_read/stream_write/stream_rw
    uint64_t panelLines;    //!< l2_reread/gemm_panel reuse set
    int panelPasses;
    uint64_t randomLines;   //!< random: accesses per core
    uint64_t randomSpanLines; //!< random: footprint (all cores)
};

constexpr ReplaySizes fullReplay = {65536, 8192, 8, 65536,
                                    uint64_t{4} << 20};
constexpr ReplaySizes tinyReplay = {1024, 256, 4, 1024, uint64_t{1} << 16};

class TimingReplay final : public Workload
{
  public:
    explicit TimingReplay(const Options &opt)
        : opt_(opt), sizes_(opt.tiny ? tinyReplay : fullReplay)
    {}

    void
    prepare(SpanRecorder *rec) override
    {
        ArchConfig cfg;
        {
            SpanScope s(rec, "MultiCoreSystem", "cpu");
            sys_ = std::make_unique<MultiCoreSystem>(cfg);
        }
        SpanScope s(rec, "build pinned traces", "bench");
        buildLegs(cfg.numCores);
    }

    std::vector<Unit>
    run(SpanRecorder *rec) override
    {
        std::vector<Unit> units;
        for (const AccessLeg &leg : accessLegs_)
            units.push_back(guarded(leg.name,
                                    [&] { return replay(leg, rec); }));
        for (const PhaseLeg &leg : phaseLegs_)
            units.push_back(guarded(leg.name,
                                    [&] { return replay(leg, rec); }));
        return units;
    }

    void
    discard() override
    {
        accessLegs_.clear();
        phaseLegs_.clear();
        sys_.reset();
    }

  private:
    void
    buildLegs(int cores)
    {
        const auto ncores = static_cast<uint64_t>(cores);
        const ReplaySizes &z = sizes_;
        accessLegs_.clear();
        phaseLegs_.clear();
        // Disjoint 64 GiB-aligned regions, one per leg.
        auto region = [](int r) { return Addr{uint64_t(r + 1) << 36}; };

        auto stream = [&](const char *name, bool write, int r) {
            AccessLeg leg{name, write, static_cast<uint16_t>(10 + r), {}};
            for (uint64_t c = 0; c < ncores; c++) {
                std::vector<Addr> a(z.streamLines);
                Addr base = region(r) + c * z.streamLines * lineBytes;
                for (uint64_t l = 0; l < z.streamLines; l++)
                    a[l] = base + l * lineBytes;
                leg.perCore.push_back(std::move(a));
            }
            return leg;
        };
        accessLegs_.push_back(stream("stream_read", false, 0));
        accessLegs_.push_back(stream("stream_write", true, 1));

        // A GEMM-panel-like reuse set: each core re-reads its own
        // L2-sized slice, line by line, panelPasses times.
        AccessLeg reread{"l2_reread", false, 12, {}};
        for (uint64_t c = 0; c < ncores; c++) {
            std::vector<Addr> a;
            a.reserve(z.panelLines * static_cast<uint64_t>(z.panelPasses));
            Addr base = region(2) + c * z.panelLines * lineBytes;
            for (int p = 0; p < z.panelPasses; p++)
                for (uint64_t l = 0; l < z.panelLines; l++)
                    a.push_back(base + l * lineBytes);
            reread.perCore.push_back(std::move(a));
        }
        accessLegs_.push_back(std::move(reread));

        // Uniform random lines over a DRAM-sized footprint; the only
        // leg whose addresses depend on the workload seed.
        AccessLeg random{"random", false, 13, {}};
        Rng rng(opt_.seed);
        for (uint64_t c = 0; c < ncores; c++) {
            std::vector<Addr> a(z.randomLines);
            for (uint64_t i = 0; i < z.randomLines; i++)
                a[i] = region(3) + rng.below(z.randomSpanLines) * lineBytes;
            random.perCore.push_back(std::move(a));
        }
        accessLegs_.push_back(std::move(random));

        // gemm_panel: NetworkSim's blocked-GEMM shape - per-core panel
        // slices re-read once per row block, 2 uops per 16-lane FMA.
        PhaseLeg gemm{"gemm_panel", TracePhase("gemm_panel", cores)};
        for (uint64_t c = 0; c < ncores; c++) {
            CoreTrace &t = gemm.phase.perCore[c];
            Addr base = region(4) + c * z.panelLines * lineBytes;
            for (int p = 0; p < z.panelPasses; p++)
                for (uint64_t l = 0; l < z.panelLines; l++)
                    t.push_back(TraceOp::load(base + l * lineBytes,
                                              lineBytes, 64, 200));
        }
        phaseLegs_.push_back(std::move(gemm));

        // stream_rw: a streaming layer - load X, store Y, per vector.
        PhaseLeg rw{"stream_rw", TracePhase("stream_rw", cores)};
        for (uint64_t c = 0; c < ncores; c++) {
            CoreTrace &t = rw.phase.perCore[c];
            Addr x = region(5) + c * z.streamLines * lineBytes;
            Addr y = region(6) + c * z.streamLines * lineBytes;
            for (uint64_t l = 0; l < z.streamLines; l++) {
                t.push_back(TraceOp::load(x + l * lineBytes, lineBytes, 1,
                                          100));
                t.push_back(TraceOp::store(y + l * lineBytes, lineBytes, 2,
                                           101));
            }
        }
        phaseLegs_.push_back(std::move(rw));
    }

    /**
     * Closed loop: each core issues its next access when its previous
     * one has completed, and the core with the earliest clock goes
     * next, so the hierarchy sees requests in global time order.
     */
    Unit
    replay(const AccessLeg &leg, SpanRecorder *rec)
    {
        MemoryHierarchy &mem = sys_->mem();
        {
            SpanScope s(rec, "MemoryHierarchy::resetAll", "mem", leg.name);
            mem.resetAll();
        }
        const size_t cores = leg.perCore.size();
        std::vector<double> clock(cores, 0.0);
        std::vector<size_t> pos(cores, 0);
        double latency_sum = 0;
        {
            SpanScope s(rec, "MemoryHierarchy::access", "mem", leg.name);
            for (;;) {
                size_t c = cores;
                double best = std::numeric_limits<double>::infinity();
                for (size_t k = 0; k < cores; k++) {
                    if (pos[k] < leg.perCore[k].size() && clock[k] < best) {
                        best = clock[k];
                        c = k;
                    }
                }
                if (c == cores)
                    break;
                AccessResult r = mem.access(
                    static_cast<int>(c), leg.perCore[c][pos[c]++],
                    lineBytes, leg.write, clock[c], leg.pc);
                latency_sum += r.latency;
                clock[c] += r.latency + 1.0;
            }
        }
        RunStats st;
        st.cycles = *std::max_element(clock.begin(), clock.end());
        st.traffic = mem.snapshot();
        Unit u;
        u.digest = runStatsToJson(st);
        u.digest["accesses"] = leg.size();
        u.digest["latencySum"] = latency_sum;
        u.l1Accesses = l1Accesses(st);
        return u;
    }

    Unit
    replay(const PhaseLeg &leg, SpanRecorder *rec)
    {
        {
            SpanScope s(rec, "MultiCoreSystem::resetAll", "cpu", leg.name);
            sys_->resetAll();
        }
        PhaseResult r;
        {
            SpanScope s(rec, "MultiCoreSystem::runPhase", "cpu", leg.name);
            r = sys_->runPhase(leg.phase);
        }
        RunStats st;
        st.cycles = r.cycles;
        st.breakdown = sys_->breakdown();
        st.traffic = sys_->mem().snapshot();
        Unit u;
        u.digest = runStatsToJson(st);
        u.digest["ops"] = leg.phase.totalOps();
        u.l1Accesses = l1Accesses(st);
        return u;
    }

    Options opt_;
    ReplaySizes sizes_;
    std::unique_ptr<MultiCoreSystem> sys_;
    std::vector<AccessLeg> accessLegs_;
    std::vector<PhaseLeg> phaseLegs_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "study_train", "relu_sweep", "timing_replay"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opt)
{
    if (name == "study_train")
        return std::make_unique<StudyTrain>(opt);
    if (name == "relu_sweep")
        return std::make_unique<ReluSweep>(opt);
    if (name == "timing_replay")
        return std::make_unique<TimingReplay>(opt);
    return nullptr;
}

} // namespace zbench
