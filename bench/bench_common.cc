#include "bench/bench_common.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "cachecomp/scheme.hh"
#include "common/annotate.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/report.hh"
#include "common/result_cache.hh"
#include "common/stats.hh"
#include "common/sweep_supervisor.hh"
#include "common/trace_writer.hh"

namespace zcomp::bench {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

const std::vector<StudyPolicy> &
studyPolicies()
{
    // Derived once from the scheme registry: the registered schemes
    // that have a NetworkSim IoPolicy dispatch, in registration order
    // (uncompressed, avx512-comp, zcomp - the historical sequence, so
    // row indices, report keys and figure output are unchanged).
    // Cache-model-only schemes (limitcc, twotagcc, ebpc, zvc) have no
    // timing-model dispatch and are skipped here; they enter through
    // bench_fig15_cache_comp instead.
    static const std::vector<StudyPolicy> policies = [] {
        std::vector<StudyPolicy> v;
        for (const CompressionScheme *s : allSchemes()) {
            IoPolicy pol;
            if (ioPolicyFromName(s->name(), pol))
                v.push_back({s->name(), pol});
        }
        panic_if(v.size() != static_cast<size_t>(numIoPolicies),
                 "scheme registry covers %zu of %d I/O policies",
                 v.size(), numIoPolicies);
        return v;
    }();
    return policies;
}

const NetworkSimResult &
StudyRow::result(const std::string &policy) const
{
    const std::vector<StudyPolicy> &pols = studyPolicies();
    for (size_t i = 0; i < pols.size(); i++) {
        if (pols[i].name == policy) {
            panic_if(i >= results.size(),
                     "study row for %s carries no '%s' result "
                     "(failed cell?)",
                     model.c_str(), policy.c_str());
            return results[i];
        }
    }
    panic("'%s' is not a study policy", policy.c_str());
}

const std::vector<StudyModel> &
studyModels()
{
    // Batches/images scaled from the paper's 64 (ResNet 128) / 4 so
    // that early-layer feature maps keep their cache-residency
    // regimes on a single host (see EXPERIMENTS.md).
    static const std::vector<StudyModel> models = {
        {ModelId::AlexNet, 16, 2, 0, 1.0},
        {ModelId::GoogLeNet, 4, 1, 0, 1.0},
        {ModelId::InceptionResnetV2, 4, 1, 0, 0.5},
        {ModelId::Resnet32, 64, 4, 0, 1.0},
        {ModelId::Vgg16, 3, 1, 0, 1.0},
    };
    return models;
}

PreparedNet
prepareNet(const StudyModel &m, bool training, uint64_t seed,
           BumpArena *arena)
{
    PreparedNet p;
    ArchConfig cfg;
    p.ctx = arena ? std::make_unique<ExecContext>(cfg, arena)
                  : std::make_unique<ExecContext>(cfg);

    ModelOptions opt;
    opt.batch = training ? m.trainBatch : m.inferBatch;
    opt.imageSize = m.imageSize;
    opt.widthScale = m.widthScale;
    p.net = buildModel(m.id, p.ctx->vs(), opt);
    p.net->build(training, seed);

    Rng rng(seed + 17);
    p.net->fillSyntheticInput(rng);
    p.net->forward();
    if (training) {
        std::vector<int> labels(
            static_cast<size_t>(opt.batch));
        for (size_t i = 0; i < labels.size(); i++)
            labels[i] = static_cast<int>(rng.below(
                static_cast<uint64_t>(opt.classes)));
        p.net->lossAndBackward(labels);
    }
    return p;
}

namespace {

/** One (model, mode) cell of the sweep. */
struct CellRef
{
    StudyModel m;
    bool training;
};

/** "<model> (<mode>)", the cell's name in logs, traces and labels. */
std::string
cellLabel(const CellRef &c)
{
    return std::string(modelName(c.m.id)) + " (" +
           (c.training ? "training" : "inference") + ")";
}

/** Thrown when a cell attempt overruns its --cell-timeout budget. */
struct CellTimeout : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The one constructor of a CellStatus::Failed row. */
StudyRow
failedRow(std::string model, bool training, std::string error,
          int attempts)
{
    StudyRow row;
    row.model = std::move(model);
    row.training = training;
    row.status = CellStatus::Failed;
    row.error = std::move(error);
    row.attempts = attempts;
    return row;
}

/**
 * One (model, mode) study cell: build + functionally execute the
 * network (the preparation tensors are then shared read-only by the
 * policy runs), and time all three policies back to back. Each cell
 * owns its ExecContext and MemoryHierarchy, so cells are mutually
 * independent; the policies within a cell stay sequential because
 * they share the cell's simulated address space.
 */
StudyRow
runStudyCell(const CellRef &c, const StudyOptions &opt,
             const StudyHarness &h, int attempt, BumpArena &arena,
             bool want_stats)
{
    std::string cell = cellLabel(c);
    inform("preparing %s...", cell.c_str());
    TraceWriter *tw = TraceWriter::global();

    // The per-attempt budget is checked cooperatively at the cell's
    // phase boundaries (after the fault hook, after preparation,
    // after each policy run): no watchdog thread to leak past a
    // sanitizer run, at the cost of granularity - an attempt is over
    // time only once the phase it is inside finishes. Elapsed time
    // stays in double seconds, so a huge or infinite budget never
    // fires.
    Clock::time_point start = Clock::now();
    auto checkDeadline = [&] {
        double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (h.cellTimeoutSec > 0 && elapsed > h.cellTimeoutSec)
            throw CellTimeout(cell + " timed out (--cell-timeout)");
    };

    if (opt.faultHook)
        opt.faultHook(c.m, c.training, attempt);
    checkDeadline();

    // Span timestamps are sampled outside the timed windows: nowUs()
    // before Clock::now() on entry, and after msSince() on exit, so
    // --trace never perturbs the prep/sim wall-clock numbers.
    double tus0 = tw ? tw->nowUs() : 0;
    Clock::time_point t0 = Clock::now();
    PreparedNet p = prepareNet(c.m, c.training, /*seed=*/1, &arena);
    StudyRow row;
    row.model = modelName(c.m.id);
    row.training = c.training;
    row.prepMillis = msSince(t0);
    row.attempts = attempt;
    if (tw)
        tw->hostSpan("prep " + cell, tus0, tw->nowUs());
    checkDeadline();

    const std::vector<StudyPolicy> &pols = studyPolicies();
    row.results.resize(pols.size());
    row.simMillis.assign(pols.size(), 0.0);
    NetworkSim sim(*p.ctx, *p.net);
    for (size_t pi = 0; pi < pols.size(); pi++) {
        NetworkSimConfig cfg;
        cfg.policy = pols[pi].policy;
        cfg.traceLabel = cell;
        double tus1 = tw ? tw->nowUs() : 0;
        Clock::time_point t1 = Clock::now();
        row.results[pi] = sim.run(cfg);
        row.simMillis[pi] = msSince(t1);
        if (tw) {
            tw->hostSpan(std::string("sim ") + pols[pi].name + " " +
                             cell,
                         tus1, tw->nowUs());
        }
        checkDeadline();
    }

    // Snapshot the cell's full stats tree only when a report wants
    // it. Each policy run resets the counters (coldCaches), so the
    // tree reflects the final (Zcomp) run; the per-policy numbers
    // live in results[] either way. The flag is explicit (not
    // RunReport::global()) because an isolated worker has no report
    // installed but must still produce whatever row shape the
    // parent's cache key promises.
    if (want_stats) {
        StatGroup sg("system");
        p.ctx->sys().dumpStats(sg);
        row.stats = sg.dumpJson();
    }
    std::string sim_ms;
    for (size_t pi = 0; pi < row.simMillis.size(); pi++) {
        sim_ms += pi ? "/" : "";
        sim_ms += format("%.0f", row.simMillis[pi]);
    }
    inform("%s row done: prep %.0f ms, sim %s ms", cell.c_str(),
           row.prepMillis, sim_ms.c_str());
    return row;
}

/**
 * Fault-isolated wrapper around runStudyCell(): a throwing or timed
 * out attempt is retried up to harness.retries times with doubling
 * backoff, and exhausted attempts come back as a CellStatus::Failed
 * row instead of propagating out of the pool worker.
 */
StudyRow
runStudyCellGuarded(const CellRef &c, const StudyOptions &opt,
                    const StudyHarness &h, bool want_stats)
{
    int max_attempts = 1 + std::max(0, h.retries);
    // One arena per cell: every attempt's tensors and scratch come
    // from it, and a faulted attempt's memory is reclaimed wholesale
    // by the reset below (chunks and warmed pages are retained).
    BumpArena arena;
    for (int attempt = 1;; attempt++) {
        if (attempt > 1) {
            arena.reset();
            // Doubling backoff, capped so a long retry chain cannot
            // stall the sweep for minutes.
            int shift = std::min(attempt - 2, 10);
            int wait = std::min(h.backoffMillis << shift, 5000);
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(wait));
        }
        std::string error;
        bool aborted = false;
        try {
            return runStudyCell(c, opt, h, attempt, arena, want_stats);
        } catch (const CellAbort &e) {
            // Deterministic failure: retrying would reproduce it.
            error = format("aborted: %s", e.what());
            aborted = true;
        } catch (const SimError &e) {
            // DecodeError / FaultInjected: recoverable, worth a retry.
            error = format("%s: %s", e.kind(), e.what());
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) { // zcomp-lint: allow(catch-swallow)
            // Last resort so one cell can never kill the sweep; the
            // warn() below reports it like every other cell fault.
            error = "non-standard exception";
        }
        warn("%s attempt %d/%d failed: %s", cellLabel(c).c_str(),
             attempt, max_attempts, error.c_str());
        if (aborted || attempt == max_attempts)
            return failedRow(modelName(c.m.id), c.training, error,
                             attempt);
    }
}

} // namespace

std::string
studyCellKey(const StudyModel &m, bool training, bool want_stats)
{
    Json key = Json::object();
    key["schema"] = studyCellSchemaVersion;
    // Rows simulated under fault injection must never stand in for
    // fault-free ones (or for runs with a different spec).
    key["faultSpec"] = FaultInjector::global().spec();
    key["machine"] = machineToJson(ArchConfig{});
    // The policy set is part of the row layout: a cached row can only
    // stand in for a fresh one when both sweep the same schemes.
    Json policies = Json::array();
    for (const StudyPolicy &sp : studyPolicies())
        policies.push(sp.name);
    key["policies"] = std::move(policies);
    Json &cell = key["cell"];
    cell = Json::object();
    cell["model"] = modelName(m.id);
    cell["trainBatch"] = m.trainBatch;
    cell["inferBatch"] = m.inferBatch;
    cell["imageSize"] = m.imageSize;
    cell["widthScale"] = m.widthScale;
    cell["training"] = training;
    cell["stats"] = want_stats;
    return key.dump();
}

Json
studyRowToJson(const StudyRow &row)
{
    Json j = Json::object();
    j["model"] = row.model;
    j["mode"] = row.training ? "training" : "inference";
    if (row.status == CellStatus::Failed) {
        // Failed rows use a separate compact schema so successful
        // rows keep their exact historical byte layout (the cache
        // byte-identity guarantee rests on that).
        j["failed"] = true;
        j["error"] = row.error;
        j["attempts"] = row.attempts;
        return j;
    }
    j["prepMillis"] = row.prepMillis;
    // Only rows that actually consumed retries carry the field, so
    // fault-free rows keep their exact historical byte layout.
    if (row.attempts > 1)
        j["attempts"] = row.attempts;

    const std::vector<StudyPolicy> &policies = studyPolicies();
    Json &pols = j["policies"];
    pols = Json::object();
    for (size_t pi = 0; pi < policies.size(); pi++) {
        const NetworkSimResult &res = row.results.at(pi);
        Json p = Json::object();
        p["simMillis"] = row.simMillis.at(pi);
        p["total"] = runStatsToJson(res.total);

        Json layers = Json::array();
        for (const LayerPassStats &lp : res.layers) {
            Json l = Json::object();
            l["name"] = lp.name;
            l["backward"] = lp.backward;
            l["stats"] = runStatsToJson(lp.stats);
            layers.push(std::move(l));
        }
        p["layers"] = std::move(layers);
        pols[policies[pi].name] = std::move(p);
    }
    if (!row.stats.isNull())
        j["stats"] = row.stats;
    return j;
}

namespace {

const Json &
rowField(const Json &obj, const char *key)
{
    const Json *p = obj.isObject() ? obj.find(key) : nullptr;
    if (!p)
        throw std::runtime_error(
            format("study row JSON: missing field '%s'", key));
    return *p;
}

} // namespace

StudyRow
studyRowFromJson(const Json &j)
{
    if (!j.isObject())
        throw std::runtime_error("study row JSON: not an object");
    const Json &model = rowField(j, "model");
    if (!model.isString())
        throw std::runtime_error("study row JSON: model not a string");
    const Json &mode = rowField(j, "mode");
    if (!mode.isString() || (mode.asString() != "training" &&
                             mode.asString() != "inference"))
        throw std::runtime_error("study row JSON: bad mode");
    bool training = mode.asString() == "training";

    if (const Json *failed = j.find("failed");
        failed && failed->isBool() && failed->asBool()) {
        const Json &error = rowField(j, "error");
        const Json &attempts = rowField(j, "attempts");
        if (!error.isString() || !attempts.isNumber())
            throw std::runtime_error(
                "study row JSON: bad failed-row error/attempts");
        return failedRow(model.asString(), training, error.asString(),
                         static_cast<int>(attempts.asInt()));
    }

    StudyRow row;
    row.model = model.asString();
    row.training = training;

    const Json &prep = rowField(j, "prepMillis");
    if (!prep.isNumber())
        throw std::runtime_error(
            "study row JSON: prepMillis not a number");
    row.prepMillis = prep.asDouble();

    if (const Json *attempts = j.find("attempts")) {
        if (!attempts->isNumber())
            throw std::runtime_error(
                "study row JSON: attempts not a number");
        row.attempts = static_cast<int>(attempts->asInt());
    }

    // Policy names are validated here, at parse time, against the
    // scheme registry: every study policy must be present, and no
    // unknown policy entry may ride along (an unrecognized name would
    // otherwise deserialize into a row whose layout no caller
    // expects).
    const std::vector<StudyPolicy> &policies = studyPolicies();
    const Json &pols = rowField(j, "policies");
    if (!pols.isObject() || pols.size() != policies.size())
        throw std::runtime_error(
            "study row JSON: policies do not match the scheme "
            "registry");
    row.results.resize(policies.size());
    row.simMillis.assign(policies.size(), 0.0);
    for (size_t pi = 0; pi < policies.size(); pi++) {
        const Json &p = rowField(pols, policies[pi].name.c_str());
        const Json &sim_ms = rowField(p, "simMillis");
        if (!sim_ms.isNumber())
            throw std::runtime_error(
                "study row JSON: simMillis not a number");
        row.simMillis[pi] = sim_ms.asDouble();
        row.results[pi].total =
            runStatsFromJson(rowField(p, "total"));

        const Json &layers = rowField(p, "layers");
        if (!layers.isArray())
            throw std::runtime_error(
                "study row JSON: layers not an array");
        row.results[pi].layers.reserve(layers.size());
        for (size_t i = 0; i < layers.size(); i++) {
            const Json &l = layers.at(i);
            LayerPassStats lp;
            const Json &name = rowField(l, "name");
            if (!name.isString())
                throw std::runtime_error(
                    "study row JSON: layer name not a string");
            lp.name = name.asString();
            const Json &backward = rowField(l, "backward");
            if (!backward.isBool())
                throw std::runtime_error(
                    "study row JSON: layer backward not a bool");
            lp.backward = backward.asBool();
            lp.stats = runStatsFromJson(rowField(l, "stats"));
            row.results[pi].layers.push_back(std::move(lp));
        }
    }
    if (const Json *stats = j.find("stats"))
        row.stats = *stats;
    return row;
}

StudyHarness &
studyHarness()
{
    static StudyHarness h;
    return h;
}

namespace {

/**
 * Compute one cell - retries, timeout and failed-row typing included
 * - and record a successful row in the result cache. Both executors
 * run cells through here: the in-process pool task and the
 * --worker-cell process alike.
 */
StudyRow
computeCell(const CellRef &c, const StudyOptions &opt,
            const StudyHarness &h, bool want_stats, ResultCache *cache)
{
    StudyRow row = runStudyCellGuarded(c, opt, h, want_stats);
    if (cache && row.status != CellStatus::Failed)
        cache->store(studyCellKey(c.m, c.training, want_stats),
                     studyRowToJson(row));
    return row;
}

/** Schema tag of the hidden --worker-cell spec JSON. */
constexpr const char *workerCellSchema = "zcomp-worker-cell-v2";

/**
 * Serialize a cell into the --worker-cell spec the worker parses. The
 * full StudyModel rides along (not just an index into studyModels())
 * so tests can sweep their own tiny models, and so does the harness
 * context that shapes a row: cache stores, in-worker retries and
 * their backoff, the cooperative timeout, log verbosity, and the
 * armed fault spec (part of the cache key). Report, trace and metrics
 * sinks stay parent-only.
 */
std::string
workerCellSpec(const CellRef &c, const StudyHarness &h, bool want_stats)
{
    Json s = Json::object();
    s["schema"] = workerCellSchema;
    Json &model = s["model"];
    model = Json::object();
    model["id"] = static_cast<int64_t>(c.m.id);
    model["trainBatch"] = c.m.trainBatch;
    model["inferBatch"] = c.m.inferBatch;
    model["imageSize"] = c.m.imageSize;
    model["widthScale"] = c.m.widthScale;
    s["training"] = c.training;
    s["wantStats"] = want_stats;
    Json &ctx = s["harness"];
    ctx = Json::object();
    ctx["cacheDir"] = h.cacheDir;
    ctx["retries"] = std::max(0, h.retries);
    // JSON has no infinity, and an infinite budget is no budget.
    ctx["cellTimeoutSec"] =
        std::isfinite(h.cellTimeoutSec) ? h.cellTimeoutSec : 0.0;
    ctx["backoffMillis"] = h.backoffMillis;
    ctx["quiet"] = quiet();
    ctx["faultSpec"] = FaultInjector::global().spec();
    return s.dump();
}

/**
 * The --isolate-cells executor: shard the pending cells across worker
 * processes under the SweepSupervisor, handing every outcome to
 * done() as it arrives. Rows round-trip through
 * studyRowToJson/FromJson exactly, so row bytes match the in-process
 * executor, while a cell that SIGSEGVs, deadlocks or spins costs
 * exactly itself.
 */
void
runIsolated(const std::vector<CellRef> &cells,
            const std::vector<size_t> &pending, const StudyHarness &h,
            bool want_stats,
            const std::function<void(size_t, StudyRow)> &done)
{
    std::vector<SweepCell> todo;
    todo.reserve(pending.size());
    for (size_t i : pending)
        todo.push_back({workerCellSpec(cells[i], h, want_stats),
                        cellLabel(cells[i])});

    SweepSupervisorOptions sopt;
    sopt.workers = std::max(1, h.workers);
    sopt.hardTimeoutSec = h.hardTimeoutSec;
    sopt.heartbeatTimeoutSec = h.heartbeatTimeoutSec;
    sopt.backoffMillis = h.backoffMillis;
    sopt.onCellDone = [&](size_t j, const SweepCellResult &r) {
        const CellRef &c = cells[pending[j]];
        StudyRow row;
        try {
            // !r.ok is the out-of-process failure domain: signal
            // name, hard timeout or heartbeat loss, straight from
            // the supervisor.
            row = r.ok ? studyRowFromJson(r.row)
                       : failedRow(modelName(c.m.id), c.training,
                                   r.error, r.attempts);
        } catch (const std::exception &e) {
            row = failedRow(modelName(c.m.id), c.training,
                            format("worker row does not decode: %s",
                                   e.what()),
                            r.attempts);
        }
        done(pending[j], std::move(row));
    };
    SweepSupervisor(sopt).run(todo);
}

} // namespace

std::vector<StudyRow>
runStudy(const StudyOptions &opt)
{
    const std::vector<StudyModel> &models =
        opt.models.empty() ? studyModels() : opt.models;
    ThreadPool &pool = opt.pool ? *opt.pool : ThreadPool::global();
    const StudyHarness &h = opt.harness ? *opt.harness : studyHarness();

    // The stats snapshot is part of the row, so whether one is
    // collected is part of the cache key: a cached row can only stand
    // in for a fresh one when both would carry the same fields.
    bool want_stats = RunReport::global() != nullptr;
    std::optional<ResultCache> cache;
    if (!h.cacheDir.empty())
        cache.emplace(h.cacheDir);

    std::vector<CellRef> cells;
    for (const StudyModel &m : models) {
        for (int mode = 0; mode < 2; mode++) {
            bool training = mode == 0;
            if (training && opt.inferenceOnly)
                continue;
            if (!training && opt.trainingOnly)
                continue;
            cells.push_back({m, training});
        }
    }

    // Host-domain sweep telemetry: progress records into the metrics
    // JSONL and/or the live status line. Constructed only when either
    // consumer exists, so flag-free runs carry zero extra work.
    bool live = h.progress && !quiet() && isatty(STDERR_FILENO);
    std::unique_ptr<SweepProgress> progress;
    if (live || MetricsSink::global())
        progress = std::make_unique<SweepProgress>(cells.size(), live);

    // Every row - cached, computed in-process or reported by a worker
    // - lands here, by cell index, so row order (and hence the figure
    // output) is the cell order whatever finished first. Pool tasks
    // call this concurrently, each for its own index.
    std::vector<StudyRow> rows(cells.size());
    auto done = [&rows, &progress](size_t i, StudyRow row) {
        if (progress) {
            bool cached = row.status == CellStatus::Cached;
            progress->cellDone(cached,
                               row.status == CellStatus::Failed,
                               cached ? 1 : row.attempts);
        }
        rows[i] = std::move(row);
    };

    // Resume pre-pass: cached cells never reach an executor. A failed
    // row is never stored, and decoding one counts as a miss.
    std::vector<size_t> pending;
    for (size_t i = 0; i < cells.size(); i++) {
        const CellRef &c = cells[i];
        std::optional<Json> v;
        if (cache && h.resume)
            v = cache->lookup(studyCellKey(c.m, c.training, want_stats));
        if (v) {
            try {
                StudyRow row = studyRowFromJson(*v);
                if (row.status != CellStatus::Failed) {
                    row.status = CellStatus::Cached;
                    inform("%s restored from cache", cellLabel(c).c_str());
                    done(i, std::move(row));
                    continue;
                }
            } catch (const std::exception &e) {
                warn("result cache: entry for %s does not decode (%s); "
                     "re-simulating",
                     cellLabel(c).c_str(), e.what());
            }
        }
        pending.push_back(i);
    }

    if (h.isolateCells) {
        runIsolated(cells, pending, h, want_stats, done);
    } else {
        // One pool task per cell. With a 1-job pool, submit() runs
        // inline and this is the sequential loop.
        std::vector<std::future<void>> futs;
        futs.reserve(pending.size());
        ResultCache *store = cache ? &*cache : nullptr;
        for (size_t i : pending)
            futs.push_back(pool.submit([&, i] {
                done(i, computeCell(cells[i], opt, h, want_stats, store));
            }));
        // Every task captures this frame by reference: wait for all
        // of them before get() can rethrow and unwind it.
        for (std::future<void> &f : futs)
            f.wait();
        for (std::future<void> &f : futs)
            f.get();
    }
    // Clear the status line before the tables print.
    progress.reset();

    uint64_t cached = 0, failed = 0;
    for (const StudyRow &row : rows) {
        cached += row.status == CellStatus::Cached;
        failed += row.status == CellStatus::Failed;
    }

    // Rows land in the report here, after the ordered collection
    // above, so the report's row order matches the printed tables no
    // matter how the pool scheduled the cells. The harness counters
    // go under "host" (host-side bookkeeping, not simulation output),
    // accumulating across multiple runStudy() calls in one process.
    if (RunReport *rep = RunReport::global()) {
        for (const StudyRow &row : rows)
            rep->addRow(studyRowToJson(row));
        rep->withRoot([&](Json &doc) {
            Json &host = doc["host"];
            auto bump = [&host](const char *key, uint64_t v) {
                const Json *prev = host.find(key);
                host[key] = (prev ? prev->asUint() : 0) + v;
            };
            bump("cellsTotal", rows.size());
            bump("cellsSimulated", rows.size() - cached - failed);
            bump("cellsCached", cached);
            bump("cellsFailed", failed);
            // The fault section only appears when something
            // fault-related happened, keeping fault-free reports
            // byte-identical.
            if (FaultInjector::global().enabled() ||
                decodeErrorCount() > 0)
                host["faults"] = faultStatsJson();
        });
    }

    // Enforce the failure budget only after every row (including the
    // failures) is in the report: fatal() exits through the atexit
    // handlers, so the partial report still flushes for inspection.
    fatal_if(failed > static_cast<uint64_t>(std::max(0, h.failBudget)),
             "%llu study cell(s) failed (budget %d); see the failed "
             "rows above",
             static_cast<unsigned long long>(failed), h.failBudget);
    return rows;
}

std::vector<StudyRow>
runFullStudy(bool training_only, bool inference_only)
{
    StudyOptions opt;
    opt.trainingOnly = training_only;
    opt.inferenceOnly = inference_only;
    return runStudy(opt);
}

namespace {

/**
 * Match "--name V" / "--name=V"; on a hit *value points at V and i is
 * advanced past any consumed extra argv slot.
 */
bool
valueArg(int argc, char **argv, int &i, const char *name,
         const char *shortName, const char **value)
{
    const char *arg = argv[i];
    if (std::strcmp(arg, name) == 0 ||
        (shortName && std::strcmp(arg, shortName) == 0)) {
        fatal_if(i + 1 >= argc, "%s needs a value", arg);
        *value = argv[++i];
        return true;
    }
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

long
intValue(const char *flag, const char *value, long lo, long hi)
{
    char *rest = nullptr;
    long v = std::strtol(value, &rest, 10);
    fatal_if(*value == '\0' || (rest && *rest != '\0') || v < lo ||
                 v > hi,
             "bad %s value '%s' (want an integer in [%ld, %ld])",
             flag, value, lo, hi);
    return v;
}

double
secondsValue(const char *flag, const char *value)
{
    char *rest = nullptr;
    double s = std::strtod(value, &rest);
    fatal_if(*value == '\0' || (rest && *rest != '\0') || !(s >= 0),
             "bad %s value '%s' (want seconds >= 0)", flag, value);
    return s;
}

// ----------------------------------------------------------------
// Worker mode (--worker-cell): one isolated study cell per process,
// speaking the supervisor's JSONL protocol on stdout.
// ----------------------------------------------------------------

/** Serializes hello/heartbeat/result records: the heartbeat thread
 *  and the cell thread share stdout, and the supervisor parses it
 *  line-wise, so every record must land whole. */
Mutex workerOutMu;

void
emitWorkerRecord(Json rec) ZCOMP_EXCLUDES(workerOutMu)
{
    rec["schema"] = "zcomp-worker-v1";
    std::string line = rec.dump();
    line += '\n';
    LockGuard lk(workerOutMu);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
}

/**
 * Background sign-of-life emitter: one heartbeat record every ~500ms
 * until destruction. The supervisor SIGKILLs workers whose status
 * channel goes silent past --heartbeat-timeout, so a worker stuck in
 * uninstrumented code (a deadlocked cell, a hung syscall) is reaped
 * even when no hard timeout is armed. The stop flag is polled every
 * 50ms instead of a timed condition wait to keep the thread trivially
 * sanitizer-clean.
 */
class WorkerHeartbeat
{
  public:
    explicit WorkerHeartbeat(std::string cell)
    {
        th_ = std::thread([this, cell = std::move(cell)] {
            int ticks = 0;
            while (!stop_.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                if (++ticks < 10)
                    continue;
                ticks = 0;
                Json r = Json::object();
                r["kind"] = "heartbeat";
                r["cell"] = cell;
                emitWorkerRecord(std::move(r));
            }
        });
    }

    ~WorkerHeartbeat()
    {
        stop_.store(true, std::memory_order_relaxed);
        th_.join();
    }

  private:
    std::atomic<bool> stop_{false};
    std::thread th_;
};

/**
 * Test-only crash hook: ZCOMP_TEST_CRASH_CELL="<model>:<mode>:<how>"
 * makes the worker running that cell die mid-cell, where <how> is
 *   sigsegv - raise a real SIGSEGV (default disposition restored
 *             first, so sanitizer handlers cannot soften it)
 *   sigkill - raise SIGKILL
 *   spin    - hang forever while the heartbeat thread keeps beating
 *             (only the hard wall-clock deadline can reap this)
 *   exit    - exit 42 without reporting a result
 * The hook only ever fires in worker processes, after the hello
 * record, so the supervisor observes a mid-cell death.
 */
void
maybeCrashForTest(const StudyModel &m, bool training)
{
    const char *spec = std::getenv("ZCOMP_TEST_CRASH_CELL");
    if (!spec)
        return;
    std::string s(spec);
    size_t colon = s.rfind(':');
    if (colon == std::string::npos)
        return;
    std::string target = s.substr(0, colon);
    std::string how = s.substr(colon + 1);
    std::string cell = std::string(modelName(m.id)) + ":" +
                       (training ? "training" : "inference");
    if (target != cell)
        return;
    warn("ZCOMP_TEST_CRASH_CELL: crashing cell %s (%s)",
         cell.c_str(), how.c_str());
    if (how == "sigsegv") {
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
    } else if (how == "sigkill") {
        std::raise(SIGKILL);
    } else if (how == "spin") {
        for (;;)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    } else if (how == "exit") {
        std::exit(42);
    }
}

/** The parsed --worker-cell spec (see workerCellSpec()). */
struct WorkerCell
{
    CellRef cell;
    bool wantStats = false;
    StudyHarness h;
};

/** A required, typed field of the --worker-cell spec; fatal()s when
 *  it is missing or has the wrong JSON type. */
const Json &
specField(const Json &obj, const char *key, bool (Json::*is)() const)
{
    const Json *v = obj.find(key);
    fatal_if(!v || !(v->*is)(),
             "--worker-cell spec: missing or mistyped '%s'", key);
    return *v;
}

/** Parse a --worker-cell spec, applying its quiet flag and fault spec
 *  to this (worker) process. */
WorkerCell
loadWorkerCellSpec(const std::string &spec)
{
    std::string err;
    Json j = Json::parse(spec, &err);
    fatal_if(!err.empty() || !j.isObject(),
             "bad --worker-cell spec: %s",
             err.empty() ? "not an object" : err.c_str());
    fatal_if(specField(j, "schema", &Json::isString).asString() !=
                 workerCellSchema,
             "--worker-cell spec has the wrong schema (want %s)",
             workerCellSchema);
    auto num = [](const Json &obj, const char *key) {
        return specField(obj, key, &Json::isNumber).asDouble();
    };
    // Range-checked before the narrowing cast: an out-of-range double
    // converted to int is undefined behaviour.
    auto integer = [&num](const Json &obj, const char *key, int lo,
                          int hi) {
        double v = num(obj, key);
        fatal_if(!(v >= lo && v <= hi) || v != std::floor(v),
                 "--worker-cell spec: '%s' is %g, not an integer in "
                 "[%d, %d]",
                 key, v, lo, hi);
        return static_cast<int>(v);
    };
    auto flag = [](const Json &obj, const char *key) {
        return specField(obj, key, &Json::isBool).asBool();
    };
    auto text = [](const Json &obj, const char *key) {
        return specField(obj, key, &Json::isString).asString();
    };

    WorkerCell wc;
    const Json &model = specField(j, "model", &Json::isObject);
    wc.cell.m.id = static_cast<ModelId>(
        integer(model, "id", 0, numModels - 1));
    wc.cell.m.trainBatch = integer(model, "trainBatch", 1, 1 << 20);
    wc.cell.m.inferBatch = integer(model, "inferBatch", 1, 1 << 20);
    wc.cell.m.imageSize = integer(model, "imageSize", 0, 1 << 16);
    wc.cell.m.widthScale = num(model, "widthScale");
    wc.cell.training = flag(j, "training");
    wc.wantStats = flag(j, "wantStats");

    const Json &ctx = specField(j, "harness", &Json::isObject);
    wc.h.cacheDir = text(ctx, "cacheDir");
    wc.h.retries = integer(ctx, "retries", 0, 1000000);
    wc.h.cellTimeoutSec = num(ctx, "cellTimeoutSec");
    fatal_if(!(wc.h.cellTimeoutSec >= 0),
             "--worker-cell spec: negative cellTimeoutSec");
    // The bound keeps the retry backoff's left shift from overflowing.
    wc.h.backoffMillis = integer(ctx, "backoffMillis", 0, 1000000);
    setQuiet(flag(ctx, "quiet"));
    FaultInjector::global().configure(text(ctx, "faultSpec"));
    return wc;
}

} // namespace

void
maybeRunWorkerCell(int argc, char **argv)
{
    const char *spec = nullptr;
    int i = 1;
    if (argc < 2 ||
        !valueArg(argc, argv, i, "--worker-cell", nullptr, &spec))
        return;
    // The spec carries the worker's whole context, so a worker goes
    // through no parseBenchArgs: no banner, no report/trace/metrics
    // sinks, no atexit machinery, and no other argument.
    fatal_if(i != argc - 1,
             "a worker takes exactly one argument: --worker-cell SPEC");
    WorkerCell wc = loadWorkerCellSpec(spec);

    std::string cell = cellLabel(wc.cell);
    {
        Json r = Json::object();
        r["kind"] = "hello";
        r["cell"] = cell;
        r["pid"] = static_cast<int64_t>(getpid());
        emitWorkerRecord(std::move(r));
    }
    {
        WorkerHeartbeat heartbeat(cell);
        maybeCrashForTest(wc.cell.m, wc.cell.training);

        // The worker stores its own row: the cache is the data plane
        // between workers and any later --resume, and a supervisor
        // that dies after this point loses coordination, not results.
        std::optional<ResultCache> cache;
        if (!wc.h.cacheDir.empty())
            cache.emplace(wc.h.cacheDir);
        StudyRow row = computeCell(wc.cell, StudyOptions{}, wc.h,
                                   wc.wantStats,
                                   cache ? &*cache : nullptr);

        Json r = Json::object();
        r["kind"] = "result";
        r["cell"] = cell;
        r["row"] = studyRowToJson(row);
        emitWorkerRecord(std::move(r));
    }
    std::exit(0);
}

void
parseBenchArgs(int argc, char **argv, const std::string &title)
{
    // Worker mode first: a --worker-cell invocation computes its one
    // cell and exits before any banner, report or sink is installed.
    maybeRunWorkerCell(argc, argv);

    std::string report_path, trace_path, metrics_path;
    double metrics_interval = MetricsSink::defaultIntervalCycles;
    bool metrics_interval_set = false;
    bool workers_set = false, hard_timeout_set = false;
    bool heartbeat_set = false;
    StudyHarness &h = studyHarness();
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            std::printf(
                "usage: %s [--jobs N] [--quiet] [--report PATH] "
                "[--trace PATH]\n"
                "       [--metrics PATH] [--metrics-interval N] "
                "[--progress]\n"
                "       [--cache DIR] [--resume] [--retries N] "
                "[--cell-timeout S]\n"
                "       [--fail-budget N] [--isolate-cells] "
                "[--workers N]\n"
                "       [--hard-timeout S] [--heartbeat-timeout S]"
                "\n\n"
                "  --jobs N, -j N    run N study cells in parallel "
                "(default: ZCOMP_JOBS\n"
                "                    or the hardware thread count; "
                "1 = sequential)\n"
                "  --quiet, -q       suppress informational messages "
                "(tables still print)\n"
                "  --report PATH     write a structured JSON run "
                "report (schema\n"
                "                    zcomp-run-report-v1; see "
                "EXPERIMENTS.md)\n"
                "  --trace PATH      write a Chrome/Perfetto trace "
                "of the run\n"
                "                    (open at ui.perfetto.dev)\n"
                "  --metrics PATH    append time-series telemetry "
                "JSONL (schema\n"
                "                    zcomp-metrics-v1: cycle-domain "
                "counter samples\n"
                "                    + host sweep progress; see "
                "EXPERIMENTS.md)\n"
                "  --metrics-interval N  simulated cycles between "
                "samples\n"
                "                    (default 100000; needs "
                "--metrics)\n"
                "  --progress        live one-line sweep status on "
                "stderr (TTY\n"
                "                    only; off under --quiet)\n"
                "  --cache DIR       record every completed study "
                "cell in DIR\n"
                "  --resume          restore cached cells instead of "
                "re-simulating\n"
                "                    (needs --cache; rows are "
                "bitwise-identical)\n"
                "  --retries N       retry a faulting cell N times "
                "with backoff\n"
                "  --cell-timeout S  per-attempt budget in seconds "
                "(fractional ok;\n"
                "                    checked at cell phase "
                "boundaries)\n"
                "  --fail-budget N   tolerate up to N failed cells "
                "before exiting\n"
                "                    non-zero (default 0)\n"
                "  --fault-spec SPEC arm deterministic fault "
                "injection, e.g.\n"
                "                    kernel.transient:1:7:2 "
                "(site:prob[:seed[:max]],\n"
                "                    comma-separated; see "
                "EXPERIMENTS.md)\n"
                "  --isolate-cells   run each study cell in its own "
                "worker process\n"
                "                    (a crashing or hung cell costs "
                "exactly itself;\n"
                "                    see DESIGN.md section 4.11)\n"
                "  --workers N       concurrent worker processes "
                "(default 2; needs\n"
                "                    --isolate-cells)\n"
                "  --hard-timeout S  SIGKILL a cell still running "
                "after S seconds\n"
                "                    and record a typed failed row "
                "(needs\n"
                "                    --isolate-cells)\n"
                "  --heartbeat-timeout S  SIGKILL a worker whose "
                "status channel\n"
                "                    is silent for S seconds "
                "(default 30; needs\n"
                "                    --isolate-cells)\n",
                argv[0]);
            std::exit(0);
        } else if (std::strcmp(arg, "--quiet") == 0 ||
                   std::strcmp(arg, "-q") == 0) {
            setQuiet(true);
        } else if (std::strcmp(arg, "--resume") == 0) {
            h.resume = true;
        } else if (std::strcmp(arg, "--progress") == 0) {
            h.progress = true;
        } else if (valueArg(argc, argv, i, "--metrics", nullptr,
                            &value)) {
            metrics_path = value;
        } else if (valueArg(argc, argv, i, "--metrics-interval",
                            nullptr, &value)) {
            metrics_interval = static_cast<double>(intValue(
                "--metrics-interval", value, 1, 1000000000000L));
            metrics_interval_set = true;
        } else if (valueArg(argc, argv, i, "--jobs", "-j", &value)) {
            ThreadPool::setGlobalJobs(static_cast<int>(
                intValue("--jobs", value, 1, 1024)));
        } else if (valueArg(argc, argv, i, "--report", nullptr,
                            &value)) {
            report_path = value;
        } else if (valueArg(argc, argv, i, "--trace", nullptr,
                            &value)) {
            trace_path = value;
        } else if (valueArg(argc, argv, i, "--cache", nullptr,
                            &value)) {
            h.cacheDir = value;
        } else if (valueArg(argc, argv, i, "--retries", nullptr,
                            &value)) {
            h.retries = static_cast<int>(
                intValue("--retries", value, 0, 100));
        } else if (valueArg(argc, argv, i, "--fail-budget", nullptr,
                            &value)) {
            h.failBudget = static_cast<int>(
                intValue("--fail-budget", value, 0, 1000000));
        } else if (valueArg(argc, argv, i, "--fault-spec", nullptr,
                            &value)) {
            FaultInjector::global().configure(value);
        } else if (valueArg(argc, argv, i, "--cell-timeout", nullptr,
                            &value)) {
            h.cellTimeoutSec = secondsValue("--cell-timeout", value);
        } else if (std::strcmp(arg, "--isolate-cells") == 0) {
            h.isolateCells = true;
        } else if (valueArg(argc, argv, i, "--workers", nullptr,
                            &value)) {
            h.workers = static_cast<int>(
                intValue("--workers", value, 1, 256));
            workers_set = true;
        } else if (valueArg(argc, argv, i, "--hard-timeout", nullptr,
                            &value)) {
            h.hardTimeoutSec = secondsValue("--hard-timeout", value);
            hard_timeout_set = true;
        } else if (valueArg(argc, argv, i, "--heartbeat-timeout",
                            nullptr, &value)) {
            h.heartbeatTimeoutSec =
                secondsValue("--heartbeat-timeout", value);
            heartbeat_set = true;
        } else {
            fatal("unknown argument '%s' (try --help)", arg);
        }
    }
    fatal_if(h.resume && h.cacheDir.empty(),
             "--resume needs --cache DIR (nothing to resume from)");
    fatal_if(metrics_interval_set && metrics_path.empty(),
             "--metrics-interval needs --metrics PATH (nothing is "
             "sampled without a sink)");
    fatal_if(workers_set && !h.isolateCells,
             "--workers needs --isolate-cells (in-process "
             "parallelism is --jobs)");
    fatal_if((hard_timeout_set || heartbeat_set) && !h.isolateCells,
             "--hard-timeout/--heartbeat-timeout need "
             "--isolate-cells (the in-process budget is "
             "--cell-timeout)");

    // Install the process-wide report/trace sinks before any work
    // runs, and flush them at exit so every bench main gets both
    // without being edited. The atexit handlers are idempotent.
    if (!report_path.empty()) {
        std::vector<std::string> args(argv, argv + argc);
        RunReport::enableGlobal(report_path, title, std::move(args));
        RunReport::global()->setMachine(ArchConfig{});
        std::atexit(RunReport::finishGlobal);
        // Registered after finishGlobal, so (LIFO) it runs first and
        // the flushed report carries the final fault/decode counters
        // even when the process exits through fatal().
        std::atexit(+[] {
            RunReport *rep = RunReport::global();
            if (!rep)
                return;
            if (!FaultInjector::global().enabled() &&
                decodeErrorCount() == 0)
                return;
            rep->withRoot([](Json &doc) {
                doc["host"]["faults"] = faultStatsJson();
            });
        });
    }
    if (!trace_path.empty()) {
        TraceWriter::enableGlobal(trace_path);
        std::atexit(TraceWriter::finishGlobal);
    }
    if (!metrics_path.empty()) {
        MetricsSink::enableGlobal(metrics_path, metrics_interval);
        std::atexit(MetricsSink::finishGlobal);
    }
    printBanner(title);
}

void
printBanner(const std::string &title)
{
    ArchConfig cfg;
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("machine: %s\n", cfg.summary().c_str());
    std::printf("=============================================="
                "==============================\n");
}

} // namespace zcomp::bench
