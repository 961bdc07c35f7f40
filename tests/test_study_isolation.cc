/** @file End-to-end tests for --isolate-cells: the real study runner
 *  sharded across worker processes (this very binary, re-invoked via
 *  the hidden --worker-cell flag). Covers row byte-identity against
 *  the in-process path, the SIGSEGV/SIGKILL crash matrix with
 *  byte-identical --resume healing, hard-timeout reaping of a
 *  spinning cell, and tear-free worker output under a sticky status
 *  line. Process-level supervisor mechanics (deadlines, stealing,
 *  backoff) are unit-tested in test_sweep_supervisor.cc. */

#include "bench/bench_common.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "common/fault.hh"
#include "common/log.hh"
#include "common/subprocess.hh"

using namespace zcomp;
using namespace zcomp::bench;

namespace fs = std::filesystem;

namespace {

// The quick two-cell sweep every test uses: ResNet-32 at tiny
// batches, training + inference (same set as test_study_runner).
StudyOptions
quickOptions()
{
    StudyOptions opt;
    opt.models = {{ModelId::Resnet32, 2, 1, 0, 1.0}};
    return opt;
}

// A harness tuned for tests: isolated, fast backoff, and a generous
// heartbeat so slow CI machines never trip it by accident.
StudyHarness
isolatedHarness(int workers)
{
    StudyHarness h;
    h.isolateCells = true;
    h.workers = workers;
    h.backoffMillis = 1;
    h.heartbeatTimeoutSec = 60;
    return h;
}

/**
 * Canonical row bytes modulo host wall-clock: the only fields two
 * runs of the same cell may legitimately differ in are the prep/sim
 * millisecond timings, so zero them and compare the full dump.
 */
std::string
canonRow(StudyRow row)
{
    row.prepMillis = 0;
    for (double &ms : row.simMillis)
        ms = 0;
    return studyRowToJson(row).dump(2);
}

std::vector<StudyRow>
runQuiet(const StudyOptions &opt)
{
    setQuiet(true);
    std::vector<StudyRow> rows = runStudy(opt);
    setQuiet(false);
    return rows;
}

/** Scoped ZCOMP_TEST_CRASH_CELL so no test leaks a crash spec. */
class ScopedCrashEnv
{
  public:
    explicit ScopedCrashEnv(const std::string &spec)
    {
        setenv("ZCOMP_TEST_CRASH_CELL", spec.c_str(), 1);
    }
    ~ScopedCrashEnv() { unsetenv("ZCOMP_TEST_CRASH_CELL"); }
};

class ScopedDir
{
  public:
    explicit ScopedDir(std::string path) : path_(std::move(path))
    {
        fs::remove_all(path_);
    }
    ~ScopedDir() { fs::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

/**
 * The determinism half of DESIGN.md section 4.11: sharding cells
 * across worker processes must yield rows byte-identical (modulo
 * wall-clock) to the in-process pool path.
 */
TEST(StudyIsolation, IsolatedRowsMatchInProcessRowsExactly)
{
    StudyOptions opt = quickOptions();
    ThreadPool seq(1);
    opt.pool = &seq;
    std::vector<StudyRow> inproc = runQuiet(opt);

    StudyHarness h = isolatedHarness(2);
    opt.harness = &h;
    std::vector<StudyRow> isolated = runQuiet(opt);

    ASSERT_EQ(inproc.size(), 2u);
    ASSERT_EQ(isolated.size(), inproc.size());
    for (size_t i = 0; i < inproc.size(); i++) {
        EXPECT_EQ(isolated[i].status, CellStatus::Simulated);
        EXPECT_EQ(canonRow(isolated[i]), canonRow(inproc[i]))
            << "row " << i;
    }
}

/**
 * Isolated workers take the armed fault spec from the cell spec, so
 * an injector configured through the API (not --fault-spec) injects
 * in workers as it does in-process. One cell only: fault caps and
 * streams are per process, so a multi-cell sweep draws differently
 * once its cells are spread over workers.
 */
TEST(StudyIsolation, IsolatedWorkersInjectLikeInProcess)
{
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    ThreadPool seq(1);
    opt.pool = &seq;
    StudyHarness h;
    h.retries = 2;
    h.backoffMillis = 1;
    opt.harness = &h;
    // prob 1, seed 1, at most 2 injections: attempts 1 and 2 fault,
    // attempt 3 completes.
    FaultInjector::global().configure("kernel.transient:1:1:2");
    std::vector<StudyRow> inproc = runQuiet(opt);

    StudyHarness iso = isolatedHarness(1);
    iso.retries = h.retries;
    opt.harness = &iso;
    FaultInjector::global().configure("kernel.transient:1:1:2");
    std::vector<StudyRow> isolated = runQuiet(opt);
    FaultInjector::global().reset();

    ASSERT_EQ(inproc.size(), 1u);
    ASSERT_EQ(isolated.size(), 1u);
    EXPECT_EQ(inproc[0].status, CellStatus::Simulated);
    EXPECT_EQ(isolated[0].status, CellStatus::Simulated);
    EXPECT_EQ(inproc[0].attempts, 3);
    EXPECT_EQ(isolated[0].attempts, 3);
    EXPECT_EQ(canonRow(isolated[0]), canonRow(inproc[0]));
}

/**
 * The --worker-cell spec is input from outside the process: a spec
 * of the old schema, one without the harness context, or one with an
 * out-of-range integer must stop the worker with a non-zero exit
 * instead of running the cell.
 */
TEST(StudyIsolationDeathTest, MalformedWorkerSpecExitsNonZero)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto runWorker = [](const std::string &spec) {
        std::string exe = "worker", flag = "--worker-cell";
        std::string arg = spec;
        char *argv[] = {exe.data(), flag.data(), arg.data(), nullptr};
        maybeRunWorkerCell(3, argv);
    };
    auto nonZero = [](int status) {
        return WIFEXITED(status) && WEXITSTATUS(status) != 0;
    };
    const std::string cell =
        "\"model\":{\"id\":3,\"trainBatch\":2,\"inferBatch\":1,"
        "\"imageSize\":0,\"widthScale\":1},"
        "\"training\":false,\"wantStats\":false";
    EXPECT_EXIT(runWorker("{\"schema\":\"zcomp-worker-cell-v1\"," +
                          cell + "}"),
                nonZero, "wrong schema");
    EXPECT_EXIT(runWorker("{\"schema\":\"zcomp-worker-cell-v2\"," +
                          cell + "}"),
                nonZero, "harness");
    // A value out of range for its int field is refused, not cast.
    EXPECT_EXIT(runWorker("{\"schema\":\"zcomp-worker-cell-v2\"," +
                          cell +
                          ",\"harness\":{\"cacheDir\":\"\","
                          "\"retries\":0,\"cellTimeoutSec\":0,"
                          "\"backoffMillis\":1e12,\"quiet\":true,"
                          "\"faultSpec\":\"\"}}"),
                nonZero, "backoffMillis");
}

/**
 * The crash matrix: a worker dying of SIGSEGV or SIGKILL mid-cell
 * costs exactly that cell (typed with the signal name), and a
 * --resume afterwards heals the sweep into a report byte-identical
 * (modulo wall-clock) to an uninterrupted run.
 */
TEST(StudyIsolation, CrashedCellIsTypedAndResumeHealsByteIdentically)
{
    // Uninterrupted reference rows, computed once for both signals.
    StudyOptions opt = quickOptions();
    StudyHarness h = isolatedHarness(2);
    opt.harness = &h;
    std::vector<StudyRow> ref = runQuiet(opt);
    ASSERT_EQ(ref.size(), 2u);

    struct Crash {
        const char *how;
        const char *signal;
    };
    for (const Crash &c : {Crash{"sigsegv", "SIGSEGV"},
                           Crash{"sigkill", "SIGKILL"}}) {
        SCOPED_TRACE(c.how);
        ScopedDir cache(std::string("study_isolation_cache_") +
                        c.how);
        h.cacheDir = cache.path();
        h.failBudget = 1;

        // Crashed sweep: the training cell dies, the inference cell
        // completes and lands in the cache.
        std::vector<StudyRow> crashed;
        {
            ScopedCrashEnv env(std::string("resnet-32:training:") +
                               c.how);
            crashed = runQuiet(opt);
        }
        ASSERT_EQ(crashed.size(), 2u);
        EXPECT_EQ(crashed[0].status, CellStatus::Failed);
        EXPECT_NE(crashed[0].error.find(c.signal), std::string::npos)
            << crashed[0].error;
        EXPECT_EQ(crashed[1].status, CellStatus::Simulated);
        EXPECT_EQ(canonRow(crashed[1]), canonRow(ref[1]));

        // Resume (crash hook disarmed): the failed cell re-simulates,
        // the surviving cell restores from cache, and both rows match
        // the uninterrupted run byte for byte.
        h.resume = true;
        std::vector<StudyRow> healed = runQuiet(opt);
        h.resume = false;
        ASSERT_EQ(healed.size(), 2u);
        EXPECT_EQ(healed[0].status, CellStatus::Simulated);
        EXPECT_EQ(healed[1].status, CellStatus::Cached);
        for (size_t i = 0; i < healed.size(); i++)
            EXPECT_EQ(canonRow(healed[i]), canonRow(ref[i]))
                << "row " << i;
        h.cacheDir.clear();
        h.failBudget = 0;
    }
}

/**
 * A cell spinning forever while its heartbeat thread keeps beating
 * can only be ended by the hard wall-clock deadline; the sweep must
 * reap it within that budget and type the row accordingly.
 */
TEST(StudyIsolation, SpinningCellIsReapedWithinHardTimeout)
{
    ScopedCrashEnv env("resnet-32:training:spin");
    StudyOptions opt = quickOptions();
    opt.trainingOnly = true;
    StudyHarness h = isolatedHarness(1);
    h.hardTimeoutSec = 2;
    h.failBudget = 1;
    opt.harness = &h;

    auto t0 = std::chrono::steady_clock::now();
    std::vector<StudyRow> rows = runQuiet(opt);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Failed);
    EXPECT_NE(rows[0].error.find("hard timeout"), std::string::npos)
        << rows[0].error;
    // The deadline is 2s; allow generous slack for load, but a spin
    // surviving this long means the reaper never fired.
    EXPECT_LT(elapsed, 30.0);
}

/**
 * Satellite guarantee for --progress: worker log output forwarded by
 * the supervisor must never tear the sticky status line, even with
 * four workers emitting concurrently. The child half (below main())
 * runs a 4-cell sweep at --workers 4 with a status line pinned;
 * here we spawn it and check every stderr line decodes as
 * [status][erase]<whole log line> - a torn write would surface a
 * fragment with no erase sequence or no log prefix.
 */
TEST(StudyIsolation, WorkerOutputDoesNotTearTheStatusLine)
{
    Subprocess::Options sopt;
    sopt.argv = {"/proc/self/exe", "--tear-test-child"};
    Subprocess p(sopt);
    LineReader err(p.stderrFd());
    std::vector<std::string> lines;
    while (err.poll(lines))
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    while (!p.poll())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(p.status().ok()) << p.status().describe();

    const std::string erase = "\r\x1b[2K";
    int forwarded = 0;
    for (const std::string &line : lines) {
        size_t pos = line.rfind(erase);
        // Every emission while the status line is pinned starts by
        // erasing it; a line with no erase sequence is a torn write.
        ASSERT_NE(pos, std::string::npos) << "torn line: " << line;
        std::string rest = line.substr(pos + erase.size());
        if (rest.empty())
            continue; // the final clearStatusLine()
        EXPECT_TRUE(rest.rfind("info: ", 0) == 0 ||
                    rest.rfind("warn: ", 0) == 0)
            << "torn line: " << line;
        forwarded++;
    }
    // Vacuous-pass guard: 4 workers x (preparing + row done) lines.
    EXPECT_GE(forwarded, 8);
}

namespace {

/** The --tear-test-child body: see the test above. */
int
runTearTestChild()
{
    setQuiet(false);
    setStatusLine("sweep: 0/4 cells");
    StudyOptions opt;
    opt.models = {{ModelId::Resnet32, 2, 1, 0, 1.0},
                  {ModelId::Resnet32, 4, 2, 0, 1.0}};
    StudyHarness h = isolatedHarness(4);
    opt.harness = &h;
    std::vector<StudyRow> rows = runStudy(opt);
    clearStatusLine();
    return rows.size() == 4 ? 0 : 1;
}

} // namespace

/**
 * Custom main: the supervisor re-invokes this very binary as its
 * worker (--worker-cell), so that mode must be intercepted before
 * gtest ever sees argv - exactly what the bench binaries do via
 * parseBenchArgs().
 */
int
main(int argc, char **argv)
{
    zcomp::bench::maybeRunWorkerCell(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "--tear-test-child") == 0)
        return runTearTestChild();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
