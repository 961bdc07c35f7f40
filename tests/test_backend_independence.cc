/**
 * @file
 * Standing backend-independence test: the SIMD kernels are host-speed
 * accelerators only, so every simulated number and every functional
 * byte must be the same under simd::Backend::Scalar and Avx512. Runs a
 * tiny training network through NetworkSim under all three I/O
 * policies, and the ReLU experiment under every implementation and
 * header layout, once per backend, and compares:
 *  - the runStatsToJson() dump of every total and every layer pass;
 *  - the host bytes of every buffer in the run's virtual space
 *    (activations, gradient maps, weights, compressed streams).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "dnn/layers/activation.hh"
#include "dnn/layers/conv.hh"
#include "dnn/layers/fc.hh"
#include "dnn/layers/norm.hh"
#include "dnn/layers/pool.hh"
#include "dnn/network.hh"
#include "sim/kernels.hh"
#include "sim/network_sim.hh"

using namespace zcomp;

namespace {

/** Everything one run produces, as (label, bytes) in a fixed order. */
using Outputs = std::vector<std::pair<std::string, std::string>>;

/** Restore the entry backend after each test body. */
class BackendGuard
{
  public:
    BackendGuard() : saved_(simd::activeBackend()) {}
    ~BackendGuard() { simd::setBackend(saved_); }

  private:
    simd::Backend saved_;
};

void
addStats(Outputs &out, const std::string &label, const RunStats &s)
{
    out.emplace_back(label, runStatsToJson(s).dump());
}

void
addBuffers(Outputs &out, const VSpace &vs)
{
    for (size_t i = 0; i < vs.numBuffers(); i++) {
        const Buffer &b = vs.buffer(i);
        if (b.host)
            out.emplace_back("buffer " + b.name,
                             std::string(reinterpret_cast<const char *>(
                                             b.host),
                                         b.size));
    }
}

/** Functional training pass, then one NetworkSim run per policy. */
Outputs
runTrainingNet()
{
    const int batch = 2;
    ExecContext ctx{ArchConfig{}};
    Network net("tiny", ctx.vs(), TensorShape{batch, 3, 16, 16});
    net.add(std::make_unique<ConvLayer>("conv1", 16, 3, 3, 1, 1));
    net.add(std::make_unique<ReluLayer>("relu1"));
    net.add(std::make_unique<PoolLayer>("pool1", LayerKind::MaxPool, 2,
                                        2));
    net.add(std::make_unique<ConvLayer>("conv2", 32, 3, 3, 1, 1));
    net.add(std::make_unique<ReluLayer>("relu2"));
    net.add(std::make_unique<FcLayer>("fc", 10));
    net.add(std::make_unique<SoftmaxLayer>("prob"));
    net.build(true, 31);
    Rng rng(32);
    net.fillSyntheticInput(rng);
    net.forward();
    net.lossAndBackward({3, 7});

    Outputs out;
    NetworkSim sim(ctx, net);
    for (int p = 0; p < numIoPolicies; p++) {
        NetworkSimConfig cfg;
        cfg.policy = static_cast<IoPolicy>(p);
        const NetworkSimResult r = sim.run(cfg);
        const std::string pname = ioPolicyName(cfg.policy);
        addStats(out, pname + " total", r.total);
        for (const LayerPassStats &lp : r.layers)
            addStats(out,
                     pname + " " + lp.name +
                         (lp.backward ? " backward" : " forward"),
                     lp.stats);
    }
    addBuffers(out, ctx.vs());
    return out;
}

/** The ReLU experiment in every implementation and header layout. */
Outputs
runReluSweep()
{
    struct Variant
    {
        ReluImpl impl;
        bool sep;
    };
    Outputs out;
    for (Variant v : {Variant{ReluImpl::Avx512Vec, false},
                      Variant{ReluImpl::Avx512Comp, false},
                      Variant{ReluImpl::Zcomp, false},
                      Variant{ReluImpl::Zcomp, true}}) {
        ExecContext ctx{ArchConfig{}};
        ReluExperimentConfig cfg;
        cfg.elems = 16 * 2048;
        cfg.verify = true;
        cfg.separateHeader = v.sep;
        const ReluExperimentResult r = runReluExperiment(ctx, v.impl, cfg);
        const std::string label = std::string(reluImplName(v.impl)) +
                                  (v.sep ? " separate-header" : "");
        addStats(out, label + " store", r.store);
        addStats(out, label + " retrieve", r.retrieve);
        for (const auto &[name, s] : {std::pair{" x stream", r.xStream},
                                      std::pair{" y stream", r.yStream}})
            out.emplace_back(label + name,
                             std::to_string(s.vectors) + " " +
                                 std::to_string(s.nnz) + " " +
                                 std::to_string(s.payloadBytes) + " " +
                                 std::to_string(s.headerBytes));
        addBuffers(out, ctx.vs());
    }
    return out;
}

/** Run `body` under Scalar, then Avx512, and require equal outputs. */
void
expectBackendIndependent(Outputs (*body)())
{
    BackendGuard guard;
    simd::setBackend(simd::Backend::Scalar);
    const Outputs ref = body();
    ASSERT_FALSE(ref.empty());
    if (!simd::backendSupported(simd::Backend::Avx512))
        GTEST_SKIP() << "host has no AVX-512; scalar half only";

    simd::setBackend(simd::Backend::Avx512);
    const Outputs got = body();
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); i++) {
        ASSERT_EQ(got[i].first, ref[i].first);
        EXPECT_TRUE(got[i].second == ref[i].second)
            << ref[i].first << " differs between scalar and avx512";
    }
}

} // namespace

TEST(BackendIndependence, TrainingNetworkAllPolicies)
{
    expectBackendIndependent(runTrainingNet);
}

TEST(BackendIndependence, ReluAllImplsAndLayouts)
{
    expectBackendIndependent(runReluSweep);
}
