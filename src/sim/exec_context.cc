#include "sim/exec_context.hh"

#include <stdexcept>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/trace_writer.hh"

namespace zcomp {

namespace {

HierSnapshot
diff(const HierSnapshot &after, const HierSnapshot &before)
{
    HierSnapshot d;
    d.coreL1Bytes = after.coreL1Bytes - before.coreL1Bytes;
    d.l1L2Bytes = after.l1L2Bytes - before.l1L2Bytes;
    d.l2L3Bytes = after.l2L3Bytes - before.l2L3Bytes;
    d.l3DramBytes = after.l3DramBytes - before.l3DramBytes;
    d.l1Hits = after.l1Hits - before.l1Hits;
    d.l1Misses = after.l1Misses - before.l1Misses;
    d.l2Hits = after.l2Hits - before.l2Hits;
    d.l2Misses = after.l2Misses - before.l2Misses;
    d.l3Hits = after.l3Hits - before.l3Hits;
    d.l3Misses = after.l3Misses - before.l3Misses;
    d.l2PrefIssued = after.l2PrefIssued - before.l2PrefIssued;
    d.l2PrefUseful = after.l2PrefUseful - before.l2PrefUseful;
    d.l2PrefUnused = after.l2PrefUnused - before.l2PrefUnused;
    d.l2DemandMissesBelow =
        after.l2DemandMissesBelow - before.l2DemandMissesBelow;
    d.nocHops = after.nocHops - before.nocHops;
    return d;
}

CycleBreakdown
diff(const CycleBreakdown &after, const CycleBreakdown &before)
{
    CycleBreakdown d;
    d.compute = after.compute - before.compute;
    d.memory = after.memory - before.memory;
    d.sync = after.sync - before.sync;
    return d;
}

} // namespace

RunStats &
RunStats::operator+=(const RunStats &o)
{
    cycles += o.cycles;
    breakdown += o.breakdown;
    traffic.coreL1Bytes += o.traffic.coreL1Bytes;
    traffic.l1L2Bytes += o.traffic.l1L2Bytes;
    traffic.l2L3Bytes += o.traffic.l2L3Bytes;
    traffic.l3DramBytes += o.traffic.l3DramBytes;
    traffic.l1Hits += o.traffic.l1Hits;
    traffic.l1Misses += o.traffic.l1Misses;
    traffic.l2Hits += o.traffic.l2Hits;
    traffic.l2Misses += o.traffic.l2Misses;
    traffic.l3Hits += o.traffic.l3Hits;
    traffic.l3Misses += o.traffic.l3Misses;
    traffic.l2PrefIssued += o.traffic.l2PrefIssued;
    traffic.l2PrefUseful += o.traffic.l2PrefUseful;
    traffic.l2PrefUnused += o.traffic.l2PrefUnused;
    traffic.l2DemandMissesBelow += o.traffic.l2DemandMissesBelow;
    traffic.nocHops += o.traffic.nocHops;
    return *this;
}

Json
runStatsToJson(const RunStats &s)
{
    Json j = Json::object();
    j["cycles"] = s.cycles;

    Json &bd = j["breakdown"];
    bd = Json::object();
    bd["compute"] = s.breakdown.compute;
    bd["memory"] = s.breakdown.memory;
    bd["sync"] = s.breakdown.sync;

    const HierSnapshot &t = s.traffic;
    Json &tr = j["traffic"];
    tr = Json::object();
    tr["coreL1Bytes"] = t.coreL1Bytes;
    tr["l1L2Bytes"] = t.l1L2Bytes;
    tr["l2L3Bytes"] = t.l2L3Bytes;
    tr["l3DramBytes"] = t.l3DramBytes;
    tr["onChipBytes"] = t.onChipBytes();
    tr["totalBytes"] = t.totalBytes();
    tr["l1Hits"] = t.l1Hits;
    tr["l1Misses"] = t.l1Misses;
    tr["l2Hits"] = t.l2Hits;
    tr["l2Misses"] = t.l2Misses;
    tr["l3Hits"] = t.l3Hits;
    tr["l3Misses"] = t.l3Misses;
    tr["l2PrefIssued"] = t.l2PrefIssued;
    tr["l2PrefUseful"] = t.l2PrefUseful;
    tr["l2PrefUnused"] = t.l2PrefUnused;
    tr["l2DemandMissesBelow"] = t.l2DemandMissesBelow;
    tr["nocHops"] = t.nocHops;
    return j;
}

namespace {

/** Fetch an object member that must be a number; throws otherwise. */
const Json &
numField(const Json &obj, const char *key)
{
    const Json *p = obj.isObject() ? obj.find(key) : nullptr;
    if (!p || !p->isNumber())
        throw std::runtime_error(
            format("RunStats JSON: missing numeric field '%s'", key));
    return *p;
}

} // namespace

RunStats
runStatsFromJson(const Json &j)
{
    if (!j.isObject())
        throw std::runtime_error("RunStats JSON: not an object");
    RunStats s;
    s.cycles = numField(j, "cycles").asDouble();

    const Json *bd = j.find("breakdown");
    if (!bd)
        throw std::runtime_error("RunStats JSON: missing breakdown");
    s.breakdown.compute = numField(*bd, "compute").asDouble();
    s.breakdown.memory = numField(*bd, "memory").asDouble();
    s.breakdown.sync = numField(*bd, "sync").asDouble();

    const Json *tr = j.find("traffic");
    if (!tr)
        throw std::runtime_error("RunStats JSON: missing traffic");
    HierSnapshot &t = s.traffic;
    t.coreL1Bytes = numField(*tr, "coreL1Bytes").asUint();
    t.l1L2Bytes = numField(*tr, "l1L2Bytes").asUint();
    t.l2L3Bytes = numField(*tr, "l2L3Bytes").asUint();
    t.l3DramBytes = numField(*tr, "l3DramBytes").asUint();
    t.l1Hits = numField(*tr, "l1Hits").asUint();
    t.l1Misses = numField(*tr, "l1Misses").asUint();
    t.l2Hits = numField(*tr, "l2Hits").asUint();
    t.l2Misses = numField(*tr, "l2Misses").asUint();
    t.l3Hits = numField(*tr, "l3Hits").asUint();
    t.l3Misses = numField(*tr, "l3Misses").asUint();
    t.l2PrefIssued = numField(*tr, "l2PrefIssued").asUint();
    t.l2PrefUseful = numField(*tr, "l2PrefUseful").asUint();
    t.l2PrefUnused = numField(*tr, "l2PrefUnused").asUint();
    t.l2DemandMissesBelow =
        numField(*tr, "l2DemandMissesBelow").asUint();
    t.nocHops = numField(*tr, "nocHops").asUint();
    return s;
}

ExecContext::ExecContext(const ArchConfig &cfg) : sys_(cfg)
{
}

ExecContext::ExecContext(const ArchConfig &cfg, BumpArena *arena)
    : vs_(0x10000, /*allocate_host=*/true, arena), sys_(cfg)
{
}

RunStats
ExecContext::run(const TracePhase &phase)
{
    HierSnapshot before = sys_.mem().snapshot();
    CycleBreakdown bd_before = sys_.breakdown();
    PhaseResult r = sys_.runPhase(phase);
    RunStats stats;
    stats.cycles = r.cycles;
    stats.traffic = diff(sys_.mem().snapshot(), before);
    stats.breakdown = diff(sys_.breakdown(), bd_before);

    // One span per active core on the simulated-cycle timebase; the
    // gap to the next phase's start is that core's barrier wait.
    TraceWriter *tw = TraceWriter::global();
    if (tw && tracePid_ >= 0) {
        for (size_t c = 0; c < r.coreEndTimes.size(); c++) {
            if (r.coreOps[c] == 0)
                continue;
            Json args = Json::object();
            args["ops"] = r.coreOps[c];
            tw->span(tracePid_, static_cast<int>(c), r.startTime,
                     r.coreEndTimes[c] - r.startTime, phase.name,
                     "sim", args);
        }
    }
    return stats;
}

void
ExecContext::warm(const TracePhase &phase)
{
    sys_.runPhase(phase);
}

std::unique_ptr<MetricsSampler>
ExecContext::makeMetricsSampler(const std::string &cell,
                                const std::string &policy)
{
    MetricsSink *sink = MetricsSink::global();
    if (!sink)
        return nullptr;
    auto s = std::make_unique<MetricsSampler>(
        sink, cell, policy, sink->intervalCycles(),
        sys_.config().numCores,
        [this](StatGroup &g) { sys_.dumpStats(g); });
    // The probe patterns sum over dumpStats() subtrees; leaf names
    // must come from the registered addCounter() inventory (enforced
    // by the zcomp_lint metrics-names rule).
    s->addCounterProbe("mem.dram.bytes_read");
    s->addCounterProbe("mem.dram.bytes_written");
    s->addCounterProbe("mem.links.l3_dram_bytes");
    s->addCounterProbe("mem.l1_*.hits");
    s->addCounterProbe("mem.l1_*.misses");
    s->addCounterProbe("mem.l2_*.hits");
    s->addCounterProbe("mem.l2_*.misses");
    s->addCounterProbe("mem.l3.hits");
    s->addCounterProbe("mem.l3.misses");
    s->addCounterProbe("core*.zcomp_busy_cycles");
    s->addCounterProbe("mem.noc.hops");
    s->setTracePid(tracePid_);
    s->rebase(sys_.now());
    return s;
}

} // namespace zcomp
