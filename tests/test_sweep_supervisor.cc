/** @file Unit tests for the sweep supervisor's process-level
 *  behavior, using /bin/sh stand-ins for the bench worker: sharding,
 *  crash isolation, hard/heartbeat deadlines, work stealing, and the
 *  exited-without-result failure path. The end-to-end crash matrix
 *  against the real study runner lives in test_study_isolation.cc. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/sweep_supervisor.hh"

using namespace zcomp;

namespace {

/**
 * A fake worker: /bin/sh -c <script> worker [--worker-cell <spec>].
 * Inside the script $2 is the cell spec the supervisor appended.
 */
SweepSupervisorOptions
fakeWorker(const std::string &script, int workers)
{
    SweepSupervisorOptions opt;
    opt.workerCommand = {"/bin/sh", "-c", script, "worker"};
    opt.workers = workers;
    opt.workStealing = false;
    return opt;
}

/** Script emitting a hello record then a result row for its cell. */
const char *okScript =
    "printf '{\"schema\":\"zcomp-worker-v1\",\"kind\":\"hello\","
    "\"cell\":\"%s\"}\\n' \"$2\"\n"
    "printf '{\"schema\":\"zcomp-worker-v1\",\"kind\":\"result\","
    "\"cell\":\"%s\",\"row\":{\"cell\":\"%s\",\"value\":42}}\\n' "
    "\"$2\" \"$2\"\n";

std::vector<SweepCell>
cellsNamed(const std::vector<std::string> &names)
{
    std::vector<SweepCell> cells;
    for (const std::string &n : names)
        cells.push_back({n, n});
    return cells;
}

} // namespace

TEST(SweepSupervisor, RunsAllCellsInInputOrder)
{
    SweepSupervisor sup(fakeWorker(okScript, 3));
    std::vector<SweepCellResult> results =
        sup.run(cellsNamed({"a", "b", "c", "d", "e"}));
    ASSERT_EQ(results.size(), 5u);
    const char *want[] = {"a", "b", "c", "d", "e"};
    for (size_t i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].spec, want[i]);
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].attempts, 1);
        const Json *cell = results[i].row.find("cell");
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(cell->asString(), want[i]);
    }
}

TEST(SweepSupervisor, CrashedCellIsIsolatedAndTyped)
{
    // Cell "boom" dies of SIGSEGV mid-run; every other cell must
    // complete and the failure must carry the signal name.
    std::string script = std::string("if [ \"$2\" = boom ]; then "
                                     "kill -SEGV $$; fi\n") +
                         okScript;
    SweepSupervisorOptions opt = fakeWorker(script, 2);
    std::vector<std::pair<size_t, std::string>> done;
    opt.onCellDone = [&](size_t index, const SweepCellResult &r) {
        done.emplace_back(index, r.spec);
    };
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results =
        sup.run(cellsNamed({"a", "boom", "c"}));
    ASSERT_EQ(results.size(), 3u);
    // One callback per cell, each naming the cell's input index.
    ASSERT_EQ(done.size(), 3u);
    std::vector<bool> seen(3, false);
    for (const auto &[index, spec] : done) {
        ASSERT_LT(index, results.size());
        EXPECT_EQ(spec, results[index].spec);
        EXPECT_FALSE(seen[index]) << "index " << index << " twice";
        seen[index] = true;
    }
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[2].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].signalName, "SIGSEGV");
    EXPECT_NE(results[1].error.find("SIGSEGV"), std::string::npos)
        << results[1].error;
}

TEST(SweepSupervisor, HungWorkerIsReapedByHeartbeatTimeout)
{
    // The worker says hello, then goes silent forever - only the
    // supervisor's heartbeat deadline can end it.
    std::string script =
        "printf '{\"schema\":\"zcomp-worker-v1\",\"kind\":\"hello\","
        "\"cell\":\"%s\"}\\n' \"$2\"\n"
        "sleep 60\n";
    SweepSupervisorOptions opt = fakeWorker(script, 1);
    opt.heartbeatTimeoutSec = 0.4;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].signalName, "SIGKILL");
    EXPECT_NE(results[0].error.find("no heartbeat"),
              std::string::npos)
        << results[0].error;
}

TEST(SweepSupervisor, SpinningWorkerIsReapedByHardTimeout)
{
    // The worker heartbeats diligently while spinning forever, so
    // only the *hard* wall-clock deadline catches it.
    std::string script =
        "while :; do "
        "printf '{\"schema\":\"zcomp-worker-v1\","
        "\"kind\":\"heartbeat\",\"cell\":\"%s\"}\\n' \"$2\"; "
        "sleep 0.05; done\n";
    SweepSupervisorOptions opt = fakeWorker(script, 1);
    opt.heartbeatTimeoutSec = 10;
    opt.hardTimeoutSec = 0.5;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].signalName, "SIGKILL");
    EXPECT_NE(results[0].error.find("hard timeout"),
              std::string::npos)
        << results[0].error;
}

TEST(SweepSupervisor, ExitWithoutResultIsAFailure)
{
    SweepSupervisor sup(fakeWorker("exit 3\n", 1));
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_TRUE(results[0].signalName.empty());
    EXPECT_NE(results[0].error.find("exit 3"), std::string::npos)
        << results[0].error;
}

TEST(SweepSupervisor, WorkStealingDuplicatesStraggler)
{
    // One straggler cell, two slots: once the queue is empty the
    // idle slot must speculatively duplicate the straggler, and the
    // first copy to finish wins.
    std::string script = std::string("sleep 1\n") + okScript;
    SweepSupervisorOptions opt = fakeWorker(script, 2);
    opt.workStealing = true;
    opt.stealAfterMillis = 100;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].attempts, 2);
}

TEST(SweepSupervisor, StderrIsForwardedWholeLine)
{
    // Worker stderr goes through the status-aware log sink; with
    // quiet() set it must be swallowed entirely (this also exercises
    // the forwarding path without asserting on global stderr).
    std::string script =
        std::string("echo 'info: worker says hi' >&2\n") + okScript;
    setQuiet(true);
    SweepSupervisor sup(fakeWorker(script, 1));
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    setQuiet(false);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
}

TEST(SweepSupervisor, CrashBackoffDoesNotStallHealthyCells)
{
    // A crashing cell must pace respawns, not block the sweep: all
    // cells still complete and the crasher is typed.
    std::string script = std::string("if [ \"$2\" = boom ]; then "
                                     "kill -KILL $$; fi\n") +
                         okScript;
    SweepSupervisorOptions opt = fakeWorker(script, 2);
    opt.backoffMillis = 20;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results =
        sup.run(cellsNamed({"boom", "b", "c", "d"}));
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].signalName, "SIGKILL");
    for (size_t i = 1; i < 4; i++)
        EXPECT_TRUE(results[i].ok) << results[i].error;
}
