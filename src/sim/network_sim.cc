#include "sim/network_sim.hh"

#include <algorithm>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "common/trace_writer.hh"
#include "dnn/layers/conv.hh"
#include "dnn/layers/fc.hh"
#include "sim/pass_builder.hh"

namespace zcomp {

const char *
ioPolicyName(IoPolicy p)
{
    switch (p) {
      case IoPolicy::Uncompressed:
        return "uncompressed";
      case IoPolicy::Avx512Comp:
        return "avx512-comp";
      case IoPolicy::Zcomp:
        return "zcomp";
    }
    // An out-of-range value here would otherwise flow silently into
    // report rows and result-cache keys, colliding distinct invalid
    // policies on one cached entry (ISSUE 9).
    panic("invalid IoPolicy %d", static_cast<int>(p));
}

bool
ioPolicyFromName(const std::string &name, IoPolicy &out)
{
    for (int p = 0; p < numIoPolicies; p++) {
        IoPolicy pol = static_cast<IoPolicy>(p);
        if (name == ioPolicyName(pol)) {
            out = pol;
            return true;
        }
    }
    return false;
}

namespace {

constexpr uint64_t hdrB = PassBuilder::hdrBytes;
constexpr size_t scratchBytes = 128 * KiB;  //!< per-core pack buffer

/** Whether a tensor is cross-layer data the policy may compress. */
bool
isCrossLayer(const Tensor &t)
{
    return t.allocClass() == AllocClass::FeatureMap ||
           t.allocClass() == AllocClass::GradientMap;
}

/**
 * Interleaved headers must amortize their metadata to stay within the
 * original allocation (Section 4.1: >= 3.125% compressibility for
 * fp32/512-bit). Dense tensors - e.g. pre-activation conv outputs -
 * therefore move uncompressed under every policy.
 */
constexpr double minSparsityToCompress = 0.05;

/** Per-vector compute uops attached to a layer's streaming pass. */
int
computeUops(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Relu:
        return 1;       // vmaxps
      case LayerKind::Dropout:
        return 2;       // mask load + blend
      case LayerKind::Lrn:
        return 10;      // square/sum window + pow approximation
      case LayerKind::EltwiseAdd:
        return 1;       // vaddps
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        return 6;       // window max/accumulate per output vector
      case LayerKind::Softmax:
        return 8;
      default:
        return 1;
    }
}

} // namespace

NetworkSim::NetworkSim(ExecContext &ctx, Network &net)
    : ctx_(ctx), net_(net)
{
    maskArena_.assign(net.numNodes(), nullptr);
    gradMaskArena_.assign(net.numNodes(), nullptr);
}

Buffer &
NetworkSim::maskFor(int node, bool grad)
{
    auto &arena = grad ? gradMaskArena_ : maskArena_;
    Buffer *&slot = arena[static_cast<size_t>(node)];
    if (!slot) {
        const Tensor &t = grad ? *net_.gradient(node)
                               : net_.activation(node);
        size_t vecs = divCeil(t.elems(), static_cast<size_t>(16));
        slot = &ctx_.vs().alloc(
            format("netsim.mask.%d.%s", node, grad ? "g" : "a"),
            std::max<size_t>(1, vecs * hdrB),
            t.allocClass());
    }
    return *slot;
}

Buffer &
NetworkSim::scratchFor(int core)
{
    while (scratch_.size() <= static_cast<size_t>(core)) {
        scratch_.push_back(&ctx_.vs().alloc(
            format("netsim.scratch.%zu", scratch_.size()),
            scratchBytes, AllocClass::Scratch));
    }
    return *scratch_[static_cast<size_t>(core)];
}

const NetworkSim::TensorScan &
NetworkSim::scanFor(const Tensor &t)
{
    // Lookup-or-compute only; see the determinism note on scans_ in
    // the header before adding any iteration over the map.
    auto it = scans_.find(&t);
    if (it != scans_.end())
        return it->second;

    TensorScan scan;
    const float *d = t.data();
    const size_t elems = t.elems();
    const size_t vecs = elems / 16;
    scan.nnz.resize(vecs);
    for (size_t v = 0; v < vecs; v++) {
        uint32_t n = 0;
        for (int i = 0; i < 16; i++)
            n += d[v * 16 + i] != 0.0f;
        scan.nnz[v] = static_cast<uint16_t>(n);
    }
    size_t nnz_total = 0;
    for (size_t v = 0; v < vecs; v++)
        nnz_total += scan.nnz[v];
    for (size_t i = vecs * 16; i < elems; i++)
        nnz_total += d[i] != 0.0f;
    // Same integer zero count as Tensor::sparsity(), so the derived
    // double (and hence the compressibility gate) is bit-identical.
    scan.sparsity = static_cast<double>(elems - nnz_total) /
                    static_cast<double>(elems);
    return scans_.emplace(&t, std::move(scan)).first->second;
}

NetworkSimResult
NetworkSim::run(const NetworkSimConfig &cfg)
{
    // Transient launch fault: thrown before any simulation state is
    // mutated so a retried cell replays from a clean slate. This is
    // the site the study runner's retry loop is tested against.
    FaultInjector::global().maybeInject(faultsite::KernelTransient);

    if (cfg.coldCaches)
        ctx_.sys().resetAll();

    // Each (network, policy) run gets its own simulated track group
    // so the per-core lanes of back-to-back policy runs (which all
    // restart at cycle 0) do not overlap in the trace.
    const std::string label =
        cfg.traceLabel.empty() ? net_.name() : cfg.traceLabel;
    int prev_pid = ctx_.tracePid();
    if (TraceWriter *tw = TraceWriter::global()) {
        int pid = tw->newProcess(
            label + " [" + ioPolicyName(cfg.policy) + "]");
        for (int c = 0; c < ctx_.config().numCores; c++)
            tw->nameThread(pid, c, format("core %d", c));
        ctx_.setTracePid(pid);
    }

    // Cycle-domain sampler for this (cell, policy) run; null without
    // --metrics. Created after the resetAll/newProcess above so its
    // cycle stream starts at this run's cycle 0 and its counter
    // tracks land in this run's track group. The scope guard drains
    // the final partial window and detaches on every return path.
    std::unique_ptr<MetricsSampler> sampler =
        ctx_.makeMetricsSampler(label, ioPolicyName(cfg.policy));
    struct SamplerScope
    {
        ExecContext &ctx;
        MetricsSampler *s;
        ~SamplerScope()
        {
            if (s) {
                s->finish(ctx.sys().now());
                ctx.sys().attachSampler(nullptr);
            }
        }
    } sampler_scope{ctx_, sampler.get()};
    if (sampler)
        ctx_.sys().attachSampler(sampler.get());

    NetworkSimResult result;
    bool avx = cfg.policy == IoPolicy::Avx512Comp;

    // Compressibility gate off the memoized tensor scan (shared with
    // the other policy runs on this NetworkSim).
    auto compressible = [&](const Tensor &t) {
        if (cfg.policy == IoPolicy::Uncompressed || !isCrossLayer(t))
            return false;
        return scanFor(t).sparsity >= minSparsityToCompress;
    };

    // Build one stream spec, resolving policy, gate and mask arena.
    auto spec = [&](int node, bool grad, bool write, bool fused,
                    int uops) {
        const Tensor &t = grad ? *net_.gradient(node)
                               : net_.activation(node);
        StreamSpec s;
        s.tensor = &t;
        s.write = write;
        s.fusedLtez = fused;
        s.extraUops = uops;
        s.compress = compressible(t);
        if (s.compress) {
            s.nnz = scanFor(t).nnz.data();
            if (avx)
                s.mask = &maskFor(node, grad);
        }
        return s;
    };

    auto record = [&](const std::string &name, bool backward,
                      RunStats stats) {
        result.layers.push_back({name, backward, stats});
        result.total += stats;
    };

    // Pre-create the per-core pack scratch (stable addresses).
    for (int c = 0; c < ctx_.config().numCores; c++)
        scratchFor(c);

    // Conv/FC + ReLU fusion (Intel-Caffe/MKL style, and what the
    // paper's zcomps-LTEZ fusion assumes): when a conv/fc feeds
    // exactly one ReLU, the dense pre-activation map never reaches
    // memory - the producer writes the ReLU's (sparse) output
    // directly, and on the way back the consumer's dx pass writes the
    // masked gradient below the ReLU. The standalone ReLU passes are
    // skipped.
    std::vector<int> fuse_out(net_.numNodes(), -1);
    std::vector<bool> fused_relu(net_.numNodes(), false);
    for (size_t i = 1; i < net_.numNodes(); i++) {
        const auto &n = net_.node(static_cast<int>(i));
        if (n.layer->kind() != LayerKind::Relu)
            continue;
        int producer = n.inputs[0];
        const auto &p = net_.node(producer);
        if ((p.layer->kind() == LayerKind::Conv ||
             p.layer->kind() == LayerKind::Fc) &&
            p.consumers == 1) {
            fuse_out[static_cast<size_t>(producer)] =
                static_cast<int>(i);
            fused_relu[i] = true;
        }
    }
    // A fused ReLU's gradient is written by its consumer's dx pass
    // into the node *below* the ReLU; resolve that indirection.
    auto grad_target = [&](int node) {
        if (node > 0 && fused_relu[static_cast<size_t>(node)])
            return net_.node(node).inputs[0];
        return node;
    };

    // ------------------------------------------------------ forward
    for (size_t i = 1; i < net_.numNodes(); i++) {
        int node = static_cast<int>(i);
        const auto &n = net_.node(node);
        LayerKind kind = n.layer->kind();
        Tensor &out = net_.activation(node);

        if (fused_relu[i])
            continue;   // folded into the producing conv/fc

        if (kind == LayerKind::Conv || kind == LayerKind::Fc) {
            const Tensor &x = net_.activation(n.inputs[0]);
            // Pack: read input through the policy, expand into the
            // per-core L2-resident scratch (whose writes are absorbed
            // locally and charged as the extra uop).
            {
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".pack",
                               sampler.get());
                pb.stream({spec(n.inputs[0], false, false, false, 1)});
                record(n.layer->name() + ".pack", false, pb.run());
            }
            // GEMM: weight panels re-read per Mc rows.
            {
                std::vector<TensorShape> in_shapes{x.shape()};
                uint64_t macs = n.layer->forwardMacs(in_shapes);
                uint64_t wbytes = n.layer->weightBytes();
                Addr wbase = 0;
                if (kind == LayerKind::Conv) {
                    wbase = static_cast<const ConvLayer &>(*n.layer)
                                .weights()
                                .addrAt(0);
                } else {
                    wbase = static_cast<const FcLayer &>(*n.layer)
                                .weights()
                                .addrAt(0);
                }
                uint64_t m_rows =
                    wbytes ? macs / (wbytes / 4) : 0;
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".gemm",
                               sampler.get());
                pb.gemmCompute(wbase, wbytes, m_rows);
                record(n.layer->name() + ".gemm", false, pb.run());
            }
            // Output write through the policy. With a fused ReLU the
            // producer writes the ReLU's sparse output directly
            // (zcomps-LTEZ fuses the comparison, costing no extra
            // uops).
            {
                int out_node = fuse_out[i] >= 0 ? fuse_out[i] : node;
                bool fused = fuse_out[i] >= 0 &&
                             cfg.policy == IoPolicy::Zcomp &&
                             compressible(net_.activation(out_node));
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".out",
                               sampler.get());
                pb.stream({spec(out_node, false, true, fused,
                                fused ? 0 : 1)});
                record(n.layer->name() + ".out", false, pb.run());
            }
            continue;
        }

        // Streaming layers: inputs + output interleaved.
        std::vector<StreamSpec> specs;
        for (int in : n.inputs)
            specs.push_back(spec(in, false, false, false,
                                 computeUops(kind)));
        bool fused = kind == LayerKind::Relu &&
                     cfg.policy == IoPolicy::Zcomp &&
                     compressible(out);
        specs.push_back(spec(node, false, true, fused, fused ? 0 : 1));
        PassBuilder pb(ctx_, cfg, n.layer->name(), sampler.get());
        pb.stream(std::move(specs));
        record(n.layer->name(), false, pb.run());
    }

    if (!net_.training()) {
        ctx_.setTracePid(prev_pid);
        return result;
    }

    // ----------------------------------------------------- backward
    for (size_t i = net_.numNodes(); i-- > 1;) {
        int node = static_cast<int>(i);
        const auto &n = net_.node(node);
        LayerKind kind = n.layer->kind();
        Tensor &dy = *net_.gradient(node);

        if (fused_relu[i])
            continue;   // mask applied by the consumer's dx pass

        if (kind == LayerKind::Conv || kind == LayerKind::Fc) {
            const Tensor &x = net_.activation(n.inputs[0]);
            std::vector<TensorShape> in_shapes{x.shape()};
            uint64_t macs = n.layer->forwardMacs(in_shapes);
            uint64_t wbytes = n.layer->weightBytes();
            uint64_t m_rows = wbytes ? macs / (wbytes / 4) : 0;

            // dW: re-read dY and X (packed), accumulate into the
            // weight-gradient region (modeled over the weight panel).
            {
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".dw",
                               sampler.get());
                pb.stream({spec(node, true, false, false, 1),
                           spec(n.inputs[0], false, false, false, 1)});
                Addr wbase =
                    kind == LayerKind::Conv
                        ? static_cast<const ConvLayer &>(*n.layer)
                              .weights()
                              .addrAt(0)
                        : static_cast<const FcLayer &>(*n.layer)
                              .weights()
                              .addrAt(0);
                pb.gemmCompute(wbase, wbytes, m_rows);
                record(n.layer->name() + ".dw", true, pb.run());
            }
            // dX: weight panels again, write the input gradient map.
            // When the input comes through a fused ReLU, the mask is
            // applied inline (reading the sparse ReLU output for the
            // mask) and the gradient lands below the ReLU.
            int dx_node = grad_target(n.inputs[0]);
            if (dx_node != 0) {
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".dx",
                               sampler.get());
                Addr wbase =
                    kind == LayerKind::Conv
                        ? static_cast<const ConvLayer &>(*n.layer)
                              .weights()
                              .addrAt(0)
                        : static_cast<const FcLayer &>(*n.layer)
                              .weights()
                              .addrAt(0);
                pb.gemmCompute(wbase, wbytes, m_rows);
                std::vector<StreamSpec> dx_specs;
                if (dx_node != n.inputs[0]) {
                    // Mask source: the fused ReLU's sparse output.
                    dx_specs.push_back(
                        spec(n.inputs[0], false, false, false, 0));
                }
                dx_specs.push_back(spec(dx_node, true, true, false, 1));
                pb.stream(std::move(dx_specs));
                record(n.layer->name() + ".dx", true, pb.run());
            }
            continue;
        }

        // Streaming backward: read dY (and X where the derivative
        // needs it), write dX per input.
        (void)dy;
        std::vector<StreamSpec> specs;
        specs.push_back(
            spec(node, true, false, false, computeUops(kind)));
        if (kind == LayerKind::Relu || kind == LayerKind::MaxPool)
            specs.push_back(spec(n.inputs[0], false, false, false, 0));
        for (int in : n.inputs) {
            if (in == 0)
                continue;
            specs.push_back(spec(in, true, true, false, 1));
        }
        PassBuilder pb(ctx_, cfg, n.layer->name() + ".bwd",
                               sampler.get());
        pb.stream(std::move(specs));
        record(n.layer->name() + ".bwd", true, pb.run());
    }

    ctx_.setTracePid(prev_pid);
    return result;
}

} // namespace zcomp
