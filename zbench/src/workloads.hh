/**
 * @file
 * The three zbench workloads (see zbench/README.md for why each one
 * exists and which layer metrics it moves):
 *
 *  - study_train   : one ResNet-32 training cell, three I/O policies;
 *  - relu_sweep    : the Figure 12 ReLU experiment on three shapes;
 *  - timing_replay : pinned access streams into MemoryHierarchy::access
 *                    and pinned TracePhases into MultiCoreSystem::runPhase.
 *
 * Every iteration is prepare() (set-up, timed on its own) followed by
 * run() (the timed work). A unit is one policy run, one ReLU impl x
 * shape or one replay leg; its digest holds every simulated number it
 * produced, so host-only changes must leave digests bit-identical.
 */

#ifndef ZBENCH_WORKLOADS_HH
#define ZBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "spans.hh"

namespace zbench {

/** One unit of work and its simulated outputs. */
struct Unit
{
    std::string name;
    bool ok = false;
    std::string error;     //!< why it failed (ok == false)
    zcomp::Json digest;    //!< simulated outputs (ok == true)
    uint64_t l1Accesses = 0; //!< simulated core->L1 accesses
};

struct Options
{
    uint64_t seed = 1;
    bool tiny = false;     //!< self-test sizes, not the benchmark's
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs of one iteration (the set-up). */
    virtual void prepare(SpanRecorder *rec) = 0;

    /** The timed work of one iteration; consumes prepare()'s state. */
    virtual std::vector<Unit> run(SpanRecorder *rec) = 0;

    /** Release what prepare()/run() left behind (untimed). */
    virtual void discard() {}

    /**
     * Layer calls only the traced run makes, outside the timed work
     * (study_train: bench::runStudy; relu_sweep: direct snapshot and
     * codec calls). Returns the units they produce.
     */
    virtual std::vector<Unit> tracedExtras(SpanRecorder *) { return {}; }

    /** Workload facts the report needs (sizes, MAC counts, ...). */
    virtual zcomp::Json info() const { return zcomp::Json::object(); }
};

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opt);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace zbench

#endif // ZBENCH_WORKLOADS_HH
