/**
 * @file
 * zbench_runner: runs one zbench workload and writes its raw results
 * (set-up samples, per-iteration wall time, unit digests, spans) as
 * one JSON document. zbench/run.py drives it, checks the digests and
 * turns the raw results into the benchmark's metrics.
 *
 *   zbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                 --out PATH [--size full|tiny]
 *
 * The timed loop runs whole iterations (at least one) while the next
 * one is expected to end within half an iteration of S seconds of
 * timed work. Set-up is repeated until `setupSamples` samples exist,
 * so its median is steady. The thread pool has one thread: every
 * simulation is single-threaded and the functional pass runs on the
 * calling thread, so host times carry no pool contention. The
 * host-speed sampler (probe.hh) runs on the same thread throughout;
 * every set-up and iteration records the probe time and samples that
 * fell inside it. With --trace 1 every layer call is bracketed by an
 * in-memory span; the spans are written with the results at exit.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common/log.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "probe.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace zbench;
using zcomp::Json;

namespace {

constexpr int setupSamples = 9;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "zbench_runner: %s\n"
                 "usage: zbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out PATH [--size full|tiny]\n",
                 why);
    std::exit(2);
}

long long
parseInt(const char *s, const char *flag)
{
    char *end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (!end || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Json
unitJson(const Unit &u)
{
    Json j = Json::object();
    j["name"] = u.name;
    j["ok"] = u.ok;
    if (u.ok) {
        j["digest"] = u.digest;
        j["l1Accesses"] = u.l1Accesses;
    } else {
        j["error"] = u.error;
    }
    return j;
}

Json
unitsJson(const std::vector<Unit> &units)
{
    Json arr = Json::array();
    for (const Unit &u : units)
        arr.push(unitJson(u));
    return arr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out, size = "full";
    long long seed = -1, seconds = -1, trace = -1;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--out")
            out = v;
        else if (a == "--size")
            size = v;
        else if (a == "--seed")
            seed = parseInt(v, "--seed");
        else if (a == "--seconds")
            seconds = parseInt(v, "--seconds");
        else if (a == "--trace")
            trace = parseInt(v, "--trace");
        else
            usage(("unknown flag " + a).c_str());
    }
    if (workload.empty() || out.empty() || seed < 0 || seconds < 1 ||
        (trace != 0 && trace != 1) || (size != "full" && size != "tiny"))
        usage("missing or invalid arguments");

    Options opt;
    opt.seed = static_cast<uint64_t>(seed);
    opt.tiny = size == "tiny";

    // Pin glibc's mmap threshold. Left dynamic, it rises after the
    // first large free, later iterations then take their buffers from
    // a fragmented heap, and peak RSS of relu_sweep varied from 180 to
    // 228 MB between runs of identical work.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    zcomp::setQuiet(true);
    zcomp::ThreadPool::setGlobalJobs(1);

    std::unique_ptr<Workload> w;
    try {
        w = makeWorkload(workload, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "zbench_runner: %s\n", e.what());
        return 1;
    }
    if (!w)
        usage(("unknown workload " + workload).c_str());

    SpanRecorder recorder;
    SpanRecorder *rec = trace ? &recorder : nullptr;

    Json extraSetups = Json::array();
    Json iterations = Json::array();
    Json info;

    auto stretch = [](double seconds, const HostSample &h) {
        Json j = Json::object();
        j["s"] = seconds;
        j["probe_s"] = h.probeSeconds;
        j["samples"] = static_cast<long long>(h.samples);
        return j;
    };

    // From here on the host-speed sampler interrupts this thread every
    // 50 ms; each timed stretch records the probe time and sample
    // count that fell inside it.
    try {
        startHostSampler();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "zbench_runner: %s\n", e.what());
        return 1;
    }

    // Extra set-ups first, so the timed loop starts from a warm heap
    // as it would after any earlier iteration.
    for (int k = 1; k < setupSamples; k++) {
        takeHostSample();
        Clock::time_point t0 = Clock::now();
        w->prepare(nullptr);
        double s = secondsSince(t0);
        extraSetups.push(stretch(s, takeHostSample()));
        w->discard();
    }

    double timed = 0;
    int it = 0;
    for (;;) {
        recorder.setRun(it);
        Json setup, run;
        double wall = 0;
        std::vector<Unit> units;
        {
            SpanScope root(rec, "iteration", "root");
            takeHostSample();
            Clock::time_point t0 = Clock::now();
            w->prepare(rec);
            double s = secondsSince(t0);
            setup = stretch(s, takeHostSample());
            Clock::time_point t1 = Clock::now();
            units = w->run(rec);
            wall = secondsSince(t1);
            run = stretch(wall, takeHostSample());
        }
        if (it == 0)
            info = w->info();
        w->discard();

        Json j = Json::object();
        j["setup"] = std::move(setup);
        j["run"] = std::move(run);
        j["units"] = unitsJson(units);
        iterations.push(std::move(j));
        timed += wall;
        it++;
        // Start another iteration only if it should end within half
        // an iteration of the requested measuring time.
        if (timed + 0.5 * timed / it > static_cast<double>(seconds))
            break;
    }

    Json extras = Json::array();
    if (rec) {
        recorder.setRun(it);
        SpanScope root(rec, "traced extras", "root");
        extras = unitsJson(w->tracedExtras(rec));
    }
    stopHostSampler();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    Json meta = Json::object();
    meta["simdBackend"] =
        zcomp::simd::backendName(zcomp::simd::activeBackend());
    meta["poolJobs"] = zcomp::ThreadPool::global().jobs();
    meta["nproc"] = static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN));

    Json doc = Json::object();
    doc["schema"] = "zbench-raw-v2";
    doc["workload"] = workload;
    doc["seed"] = seed;
    doc["size"] = size;
    doc["trace"] = trace;
    doc["seconds"] = seconds;
    doc["meta"] = meta;
    doc["info"] = info;
    doc["extraSetups"] = extraSetups;
    doc["nominalSample_s"] = nominalSampleSeconds;
    doc["iterations"] = iterations;
    doc["extras"] = extras;
    // The sampler's table is resident from the start; it is the
    // benchmark's, not the workload's.
    doc["peakRssKb"] =
        static_cast<long long>(ru.ru_maxrss) - samplerTableBytes / 1024;
    doc["spans"] = rec ? recorder.toJson() : Json::array();

    std::ofstream f(out);
    f << doc.dump() << "\n";
    f.close();
    if (!f) {
        std::fprintf(stderr, "zbench_runner: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    return 0;
}
