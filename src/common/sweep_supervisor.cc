#include "common/sweep_supervisor.hh"

#include <algorithm>
#include <deque>
#include <thread>

#include "common/log.hh"
#include "common/metrics.hh"

namespace zcomp {

namespace {

/** Worker status-channel schema (stdout JSONL records). */
constexpr const char *workerSchema = "zcomp-worker-v1";

/** Backoff after consecutive crashes is capped here (ms). */
constexpr int maxBackoffMillis = 5000;

/** At most one speculative duplicate per cell (original + steal). */
constexpr int maxAttemptsPerCell = 2;

double
secondsSince(std::chrono::steady_clock::time_point t,
             std::chrono::steady_clock::time_point now)
{
    return std::chrono::duration<double>(now - t).count();
}

} // namespace

struct SweepSupervisor::CellState {
    const SweepCell *cell = nullptr;
    bool done = false;
    int attempts = 0;
    int liveWorkers = 0;
    std::string lastError;
    std::string lastSignal;
    SweepCellResult result;
};

struct SweepSupervisor::WorkerSlot {
    int id = 0;
    size_t cellIdx = 0;
    bool stolen = false;
    std::unique_ptr<Subprocess> proc;
    std::unique_ptr<LineReader> out;
    std::unique_ptr<LineReader> err;
    Clock::time_point started;
    Clock::time_point lastHeard;
    bool gotResult = false;
    Json row;
    /** Deadline enforcement reason, set before the SIGKILL. */
    const char *killReason = nullptr;
    std::string killError;
    bool finished = false;
};

SweepSupervisor::SweepSupervisor(SweepSupervisorOptions opt)
    : opt_(std::move(opt)), backoff_(opt_.backoffMillis),
      nextSpawnAt_(Clock::now())
{
    fatal_if(opt_.workerCommand.empty(),
             "sweep supervisor needs a worker command");
    fatal_if(opt_.workers < 1, "sweep supervisor needs >= 1 worker");
    if (backoff_ < 1)
        backoff_ = 1;
}

void
SweepSupervisor::spawnWorker(std::vector<WorkerSlot> &live,
                             std::vector<CellState> &state,
                             size_t cell_idx, bool stolen)
{
    CellState &cs = state[cell_idx];
    Subprocess::Options sopt;
    sopt.argv = opt_.workerCommand;
    sopt.argv.push_back("--worker-cell");
    sopt.argv.push_back(cs.cell->spec);

    WorkerSlot w;
    w.id = nextWorkerId_++;
    w.cellIdx = cell_idx;
    w.stolen = stolen;
    w.proc = std::make_unique<Subprocess>(sopt);
    w.out = std::make_unique<LineReader>(w.proc->stdoutFd());
    w.err = std::make_unique<LineReader>(w.proc->stderrFd());
    w.started = w.lastHeard = Clock::now();
    cs.attempts++;
    cs.liveWorkers++;

    if (MetricsSink *sink = MetricsSink::global()) {
        Json r = Json::object();
        r["schema"] = metricsSchemaVersion;
        r["kind"] = "worker";
        r["event"] = stolen ? "steal" : "spawn";
        r["worker"] = static_cast<int64_t>(w.id);
        r["pid"] = static_cast<int64_t>(w.proc->pid());
        r["cell"] = cs.cell->label;
        r["attempt"] = static_cast<int64_t>(cs.attempts);
        sink->append(std::move(r));
    }
    live.push_back(std::move(w));
}

void
SweepSupervisor::handleRecord(WorkerSlot &w, const std::string &line)
{
    if (line.empty())
        return;
    std::string err;
    Json rec = Json::parse(line, &err);
    if (!err.empty() || !rec.isObject()) {
        // Not protocol traffic - some stray stdout print. Forward it
        // like a log line rather than silently dropping it.
        logRawLine(line);
        return;
    }
    const Json *schema = rec.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != workerSchema) {
        logRawLine(line); // JSON, but not ours - treat as stray output
        return;
    }
    const Json *kind = rec.find("kind");
    if (!kind || !kind->isString())
        return;
    if (kind->asString() == "result") {
        const Json *row = rec.find("row");
        if (row) {
            w.gotResult = true;
            w.row = *row;
        } else {
            warn("worker %d sent a result record with no row", w.id);
        }
    }
    // hello / heartbeat / result all count as signs of life; the
    // lastHeard update in the drain loop already covered this line.
}

void
SweepSupervisor::finishWorker(WorkerSlot &w,
                              std::vector<WorkerSlot> &live,
                              std::vector<CellState> &state)
{
    // Drain both pipes first: the worker may have written its result
    // record microseconds before exiting, and declaring "exited
    // without result" on a still-buffered pipe would turn a success
    // into a phantom crash. One poll() suffices - it consumes
    // everything buffered up to EAGAIN/EOF, and the dead worker can
    // write no more. Never wait for EOF here: an orphaned grandchild
    // (a shell's sleep, say) can hold the write end open long after
    // the worker itself is gone.
    std::vector<std::string> lines;
    w.out->poll(lines);
    for (const std::string &l : lines)
        handleRecord(w, l);
    lines.clear();
    w.err->poll(lines);
    for (const std::string &l : lines)
        logRawLine(l);

    const ExitStatus &st = w.proc->status();
    CellState &cs = state[w.cellIdx];
    cs.liveWorkers--;
    w.finished = true;

    if (MetricsSink *sink = MetricsSink::global()) {
        Json r = Json::object();
        r["schema"] = metricsSchemaVersion;
        r["kind"] = "worker";
        r["event"] = "exit";
        r["worker"] = static_cast<int64_t>(w.id);
        r["pid"] = static_cast<int64_t>(w.proc->pid());
        r["cell"] = cs.cell->label;
        r["status"] = st.describe();
        sink->append(std::move(r));
    }

    bool success = w.gotResult && st.ok();
    if (cs.done) {
        // A duplicate lost the race (or was terminated after the
        // winner reported); nothing more to record.
        return;
    }

    if (success) {
        cs.done = true;
        cs.result.spec = cs.cell->spec;
        cs.result.label = cs.cell->label;
        cs.result.ok = true;
        cs.result.row = std::move(w.row);
        cs.result.attempts = cs.attempts;
        backoff_ = opt_.backoffMillis;
        // Terminate any speculative duplicate still running.
        for (WorkerSlot &other : live) {
            if (&other != &w && !other.finished &&
                other.cellIdx == w.cellIdx)
                other.proc->kill();
        }
        if (opt_.onCellDone)
            opt_.onCellDone(w.cellIdx, cs.result);
        return;
    }

    // Supervisor-domain failure: signal, enforced deadline, or an
    // exit with no result record.
    std::string error;
    std::string signal_name;
    const char *crash_reason = nullptr;
    if (w.killReason) {
        error = w.killError;
        signal_name = "SIGKILL";
        crash_reason = w.killReason;
    } else if (st.signaled()) {
        error = format("killed by %s",
                       ExitStatus::signalName(st.sig).c_str());
        signal_name = ExitStatus::signalName(st.sig);
        crash_reason = "signal";
    } else {
        error = format("worker exited without result (%s)",
                       st.describe().c_str());
    }

    if (crash_reason) {
        if (MetricsSink *sink = MetricsSink::global()) {
            Json r = Json::object();
            r["schema"] = metricsSchemaVersion;
            r["kind"] = "crash";
            r["worker"] = static_cast<int64_t>(w.id);
            r["cell"] = cs.cell->label;
            r["signal"] = signal_name;
            r["reason"] = crash_reason;
            sink->append(std::move(r));
        }
    }
    warn("worker %d: cell %s: %s", w.id, cs.cell->label.c_str(),
         error.c_str());

    // Pace the next spawn: a binary that crashes instantly must
    // degrade to a trickle of typed failures, not a fork storm.
    nextSpawnAt_ = Clock::now() + std::chrono::milliseconds(backoff_);
    backoff_ = std::min(backoff_ * 2, maxBackoffMillis);

    cs.lastError = error;
    cs.lastSignal = signal_name;
    if (cs.liveWorkers > 0)
        return; // a speculative duplicate may still succeed
    cs.done = true;
    cs.result.spec = cs.cell->spec;
    cs.result.label = cs.cell->label;
    cs.result.ok = false;
    cs.result.error = cs.lastError;
    cs.result.signalName = cs.lastSignal;
    cs.result.attempts = cs.attempts;
    if (opt_.onCellDone)
        opt_.onCellDone(w.cellIdx, cs.result);
}

std::vector<SweepCellResult>
SweepSupervisor::run(const std::vector<SweepCell> &cells)
{
    std::vector<CellState> state(cells.size());
    std::deque<size_t> pending;
    for (size_t i = 0; i < cells.size(); i++) {
        state[i].cell = &cells[i];
        pending.push_back(i);
    }

    std::vector<WorkerSlot> live;
    size_t completed = 0;

    while (completed < cells.size()) {
        Clock::time_point now = Clock::now();

        // ------------------------------------------------ spawn
        while (static_cast<int>(live.size()) < opt_.workers &&
               now >= nextSpawnAt_) {
            if (!pending.empty()) {
                size_t idx = pending.front();
                pending.pop_front();
                spawnWorker(live, state, idx, /*stolen=*/false);
                continue;
            }
            if (!opt_.workStealing)
                break;
            // Work-steal: duplicate the longest-running straggler
            // that has no duplicate yet and has run long enough to
            // look like a straggler rather than a fresh cell.
            ssize_t best = -1;
            double best_age = opt_.stealAfterMillis / 1000.0;
            for (size_t i = 0; i < live.size(); i++) {
                const WorkerSlot &w = live[i];
                const CellState &cs = state[w.cellIdx];
                if (w.finished || cs.done || cs.liveWorkers != 1 ||
                    cs.attempts >= maxAttemptsPerCell)
                    continue;
                double age = secondsSince(w.started, now);
                if (age >= best_age) {
                    best_age = age;
                    best = static_cast<ssize_t>(i);
                }
            }
            if (best < 0)
                break;
            spawnWorker(live, state, live[best].cellIdx,
                        /*stolen=*/true);
        }

        // ------------------------------------------------ poll
        bool activity = false;
        for (WorkerSlot &w : live) {
            if (w.finished)
                continue;
            std::vector<std::string> lines;
            w.out->poll(lines);
            if (!lines.empty()) {
                activity = true;
                w.lastHeard = now;
                for (const std::string &l : lines)
                    handleRecord(w, l);
            }
            lines.clear();
            w.err->poll(lines);
            for (const std::string &l : lines) {
                activity = true;
                logRawLine(l);
            }

            if (!w.proc->poll()) {
                // Still running: enforce the hard deadlines the
                // cell itself cannot be trusted to honor.
                if (opt_.hardTimeoutSec > 0 &&
                    secondsSince(w.started, now) >
                        opt_.hardTimeoutSec) {
                    w.killReason = "timeout";
                    w.killError = format(
                        "hard timeout after %.1fs (SIGKILL)",
                        opt_.hardTimeoutSec);
                } else if (opt_.heartbeatTimeoutSec > 0 &&
                           secondsSince(w.lastHeard, now) >
                               opt_.heartbeatTimeoutSec) {
                    w.killReason = "heartbeat";
                    w.killError = format(
                        "no heartbeat for %.1fs (SIGKILL)",
                        opt_.heartbeatTimeoutSec);
                } else {
                    continue;
                }
                w.proc->kill(); // blocking SIGKILL + reap
            }
            activity = true;
            finishWorker(w, live, state);
        }

        // Compact finished slots and tally completed cells.
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [](const WorkerSlot &w) {
                                      return w.finished;
                                  }),
                   live.end());
        completed = 0;
        for (const CellState &cs : state)
            if (cs.done)
                completed++;

        if (!activity && completed < cells.size())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    std::vector<SweepCellResult> results;
    results.reserve(cells.size());
    for (CellState &cs : state)
        results.push_back(std::move(cs.result));
    return results;
}

} // namespace zcomp
