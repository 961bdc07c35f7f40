#!/usr/bin/env python3
"""zbench: the repository's benchmark (see zbench/README.md).

One run builds the workload runner from source (first use only), runs
one workload, checks every simulated digest and prints a summary; its
last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics, taken
from the spans of a separate traced run. Host times are scaled to a
reference host speed with the runner's host-speed samples (see
src/probe.hh and speed_factors()).

    python3 zbench/run.py --workload study_train --seed 1 --seconds 36 --trace 0
    python3 zbench/run.py --regen-digests          # rewrite expected digests

Everything it builds or writes goes under .bench_build/ in the
checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "zbench")
RUNNER = os.path.join(BUILD, "zbench_runner")
DIGESTS = os.path.join(HERE, "expected", "digests.json")

WORKLOADS = ("study_train", "relu_sweep", "timing_replay")
DEFAULT_SEED = 1
RUN_DEADLINE_S = 170      # every run must end within 180 s
BUILD_DEADLINE_S = 840    # the first run may take 900 s to build

# --------------------------------------------------------------------
# Metric catalogue: the names and units BENCHMARK.json promises.

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_ns_per_access", "ns"),
    ("pass_frac", "frac"),
]

POLICIES = ("uncompressed", "avx512-comp", "zcomp")
IMPLS = ("avx512-vec", "avx512-comp", "zcomp")
REGIMES = ("l2fit", "l3fit", "dram")
SIM_UNITS = ("uncompressed", "avx512-vec", "avx512-comp", "zcomp")
MEM_LEGS = ("stream_read", "stream_write", "l2_reread", "random")
CPU_LEGS = ("gemm_panel", "stream_rw")


def per_layer_catalogue():
    m = [("harness.self_s", "s"),
         ("dnn.build_s", "s"), ("dnn.forward_s", "s"),
         ("dnn.backward_s", "s"), ("dnn.forward_macs_per_s", "MAC/s")]
    m += [("sim.run_s." + p, "s") for p in POLICIES]
    m += [("sim.host_ns_per_access." + p, "ns") for p in POLICIES]
    m += [("sim.kernel_s." + i, "s") for i in IMPLS]
    m += [("sim.kernel_s." + r, "s") for r in REGIMES]
    m += [("workload.snapshot_s", "s"), ("zcomp.compress_s", "s"),
          ("zcomp.expand_s", "s")]
    m += [("mem.ns_per_access." + leg, "ns") for leg in MEM_LEGS]
    m += [("cpu.ns_per_op." + leg, "ns") for leg in CPU_LEGS]
    m += [("root.uncovered_s", "s")]
    for u in SIM_UNITS:
        m += [("cpu.cycles." + u, "cycles"),
              ("cpu.compute_frac." + u, "frac"),
              ("cpu.memory_frac." + u, "frac"),
              ("cpu.sync_frac." + u, "frac")]
        m += mem_count_metrics(u, prefetch=True)
    for leg in MEM_LEGS + CPU_LEGS:
        if leg in CPU_LEGS:
            m.append(("cpu.cycles." + leg, "cycles"))
        m += mem_count_metrics(leg, prefetch=False)
    return m


def mem_count_metrics(u, prefetch):
    m = [("mem.l1_accesses." + u, "count"),
         ("mem.l1_hit_ratio." + u, "frac"),
         ("mem.l2_accesses." + u, "count"),
         ("mem.l2_hit_ratio." + u, "frac"),
         ("mem.l3_accesses." + u, "count"),
         ("mem.l3_hit_ratio." + u, "frac"),
         ("mem.dram_bytes." + u, "bytes")]
    if prefetch:
        m += [("mem.pref_issued." + u, "count"),
              ("mem.pref_useful_ratio." + u, "frac")]
    return m


PER_LAYER = per_layer_catalogue()

# --------------------------------------------------------------------
# Build


def fail(msg, code=1):
    print("zbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(deadline):
    for need in ("src/CMakeLists.txt", "bench/bench_common.hh"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("simulator sources not found (%s missing); run from a "
                 "full checkout" % need, 2)
    os.makedirs(OUT, exist_ok=True)
    log = os.path.join(OUT, "build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another source path is stale.
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                for name in os.listdir(BUILD):
                    if name != "zbench":
                        p = os.path.join(BUILD, name)
                        if os.path.isdir(p):
                            shutil.rmtree(p)
                        else:
                            os.remove(p)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "zbench_runner",
                  "-j", jobs])
    with open(log, "a") as lf:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                                   timeout=max(1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log)
            if r.returncode != 0:
                with open(log) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


# --------------------------------------------------------------------
# Running the workload


def run_runner(workload, seed, seconds, trace, size, deadline):
    raw = os.path.join(OUT, "raw-%s-%s-s%d-t%d.json"
                       % (workload, size, seed, trace))
    if os.path.exists(raw):
        os.remove(raw)
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--out", raw]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("workload runner exceeded the run deadline")
    if r.returncode != 0 or not os.path.isfile(raw):
        fail("workload runner failed (exit %d):\n%s"
             % (r.returncode, r.stderr[-3000:]))
    with open(raw) as f:
        return json.load(f)


# --------------------------------------------------------------------
# Output check


def load_expected(path, size):
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    return doc.get(size)


def runner_stamp():
    st = os.stat(RUNNER)
    return "%d:%d" % (st.st_size, st.st_mtime_ns)


def check_units(raw, expected, seed):
    """Return (attempted, failed, problems, digests) for one run.

    A unit execution fails when it threw, when its digest differs from
    another execution of the same unit in this run, from the committed
    expected digest (at the expected seed), or from the digest an
    earlier run of the other trace mode recorded for the same seed.
    """
    executions = []
    for it in raw["iterations"]:
        executions += it["units"]
    executions += raw["extras"]

    problems = {}
    digests = {}
    for u in executions:
        name = u["name"]
        if not u["ok"]:
            problems.setdefault(name, "failed: " + u["error"])
            continue
        if name in digests and digests[name] != u["digest"]:
            problems.setdefault(name, "digest differs between repeats")
        digests.setdefault(name, u["digest"])

    if expected is not None:
        exp_units = expected["units"]
        for name, d in digests.items():
            # bench::runStudy always prepares with seed 1.
            if name.startswith("runStudy:"):
                want = exp_units.get(name.split(":", 1)[1]) \
                    if expected["seed"] == DEFAULT_SEED else None
            elif seed == expected["seed"]:
                if name not in exp_units:
                    problems.setdefault(name, "no expected digest")
                    continue
                want = exp_units[name]
            else:
                continue
            if want is not None and want != d:
                problems.setdefault(name, "differs from expected digest: "
                                    + first_difference(want, d))

    # At seed 1 the harness path must reproduce the direct path.
    if seed == DEFAULT_SEED:
        for name, d in digests.items():
            base = name.split(":", 1)[1] if name.startswith("runStudy:") \
                else None
            if base in digests and digests[base] != d:
                problems.setdefault(name, "differs from the direct path: "
                                    + first_difference(digests[base], d))

    # Traced and untraced runs of one seed must agree bit for bit.
    cache = os.path.join(OUT, "digests-%s-%s-s%d.json"
                         % (raw["workload"], raw["size"], seed))
    stamp = runner_stamp()
    seen = {}
    try:
        with open(cache) as f:
            old = json.load(f)
        if old.get("runner") == stamp:
            seen = old["units"]
    except (OSError, ValueError):
        pass    # no earlier run of this seed (or an unreadable record)
    for name, d in digests.items():
        if name in seen and seen[name] != d and name not in problems:
            problems[name] = "differs from the other trace mode's run"
    merged = dict(seen)
    merged.update(digests)
    tmp = "%s.%d.tmp" % (cache, os.getpid())
    with open(tmp, "w") as f:
        json.dump({"runner": stamp, "units": merged}, f)
    os.replace(tmp, cache)

    failed = sum(1 for u in executions
                 if not u["ok"] or u["name"] in problems)
    return len(executions), failed, problems, digests


def first_difference(want, got, path=""):
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if want.get(k) != got.get(k):
                return first_difference(want.get(k), got.get(k),
                                        path + "." + k)
    return "%s: expected %r, got %r" % (path or "value", want, got)


# --------------------------------------------------------------------
# Metrics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def host_seconds(stretch):
    """Host seconds of a timed stretch, without the probe samples that
    interrupted it."""
    return stretch["s"] - stretch["probe_s"]


def speed_factors(raw):
    """Host-speed factors of a run (see src/probe.hh).

    A stretch's factor is the probe's nominal sample time over its mean
    sample time in that stretch; a host time times its factor is that
    time at the reference host's speed. An iteration's set-up and run
    share one factor, and the extra set-ups share another. A stretch
    without a sample (the self-test's tiny sizes) takes the factor of
    the whole run.

    Returns (extra set-ups factor, [factor of iteration i], whole-run
    factor).
    """
    nominal = raw["nominalSample_s"]
    its = raw["iterations"]
    extras = raw["extraSetups"]

    def factor(stretches, fallback):
        n = sum(st["samples"] for st in stretches)
        probe = sum(st["probe_s"] for st in stretches)
        return nominal * n / probe if n and probe > 0 else fallback

    whole = factor(extras + [st for it in its
                             for st in (it["setup"], it["run"])], 1.0)
    return (factor(extras, whole),
            [factor([it["setup"], it["run"]], whole) for it in its],
            whole)


def end_to_end_metrics(raw, attempted, failed):
    f_extra, f_iter, _ = speed_factors(raw)
    its = raw["iterations"]
    walls = [host_seconds(it["run"]) * f for it, f in zip(its, f_iter)]
    per_access = []
    for it, wall in zip(its, walls):
        acc = sum(u.get("l1Accesses", 0) for u in it["units"])
        if acc:
            per_access.append(wall / acc * 1e9)
    setups = ([host_seconds(st) * f_extra for st in raw["extraSetups"]]
              + [host_seconds(it["setup"]) * f
                 for it, f in zip(its, f_iter)])
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": raw["peakRssKb"] / 1024.0,
        "host_ns_per_access": median(per_access),
        "pass_frac": 1.0 - failed / attempted,
    }


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_us"] - s["start_us"]
    return [(s["end_us"] - s["start_us"] - child[i]) / 1e6
            for i, s in enumerate(spans)]


def traffic_sum(digests):
    """Sum the RunStats parts of unit digests (cycles, breakdown and
    traffic counters)."""
    tot = {"cycles": 0.0, "compute": 0.0, "memory": 0.0, "sync": 0.0}
    for d in digests:
        for part in (d["store"], d["retrieve"]) if "store" in d else (d,):
            tot["cycles"] += part["cycles"]
            for k in ("compute", "memory", "sync"):
                tot[k] += part.get("breakdown", {}).get(k, 0.0)
            for k, v in part["traffic"].items():
                tot[k] = tot.get(k, 0) + v
    return tot


def ratio(num, den):
    return num / den if den else 0.0


def count_metrics(u, t, cpu, prefetch):
    m = {}
    if cpu:
        m["cpu.cycles." + u] = t["cycles"]
        bd = t["compute"] + t["memory"] + t["sync"]
        if u in SIM_UNITS:
            for k in ("compute", "memory", "sync"):
                m["cpu.%s_frac.%s" % (k, u)] = ratio(t[k], bd)
    l1 = t.get("l1Hits", 0) + t.get("l1Misses", 0)
    l2 = t.get("l2Hits", 0) + t.get("l2Misses", 0)
    l3 = t.get("l3Hits", 0) + t.get("l3Misses", 0)
    m["mem.l1_accesses." + u] = l1
    m["mem.l1_hit_ratio." + u] = ratio(t.get("l1Hits", 0), l1)
    m["mem.l2_accesses." + u] = l2
    m["mem.l2_hit_ratio." + u] = ratio(t.get("l2Hits", 0), l2)
    m["mem.l3_accesses." + u] = l3
    m["mem.l3_hit_ratio." + u] = ratio(t.get("l3Hits", 0), l3)
    m["mem.dram_bytes." + u] = t.get("l3DramBytes", 0)
    if prefetch:
        m["mem.pref_issued." + u] = t.get("l2PrefIssued", 0)
        m["mem.pref_useful_ratio." + u] = ratio(t.get("l2PrefUseful", 0),
                                                t.get("l2PrefIssued", 0))
    return m


def per_layer_metrics(raw, digests):
    """Per-layer metrics of a traced run. Times are per iteration
    (mean over the timed iterations) for spans of the timed loop and
    once-per-run for the traced extras, each scaled by its stretch's
    host-speed factor like the end-to-end times."""
    spans = raw["spans"]
    selfs = self_times(spans)
    n_iter = len(raw["iterations"])
    _, f_iter, f_whole = speed_factors(raw)

    def span_sum(layer=None, name=None, unit=None, unit_suffix=None):
        tot = 0.0
        for s, st in zip(spans, selfs):
            if s["derived"] or s["layer"] == "root":
                continue
            if layer and s["layer"] != layer:
                continue
            if name and s["name"] != name:
                continue
            if unit is not None and s["unit"] != unit:
                continue
            if unit_suffix and not s["unit"].endswith(unit_suffix):
                continue
            if s["run"] < n_iter:
                tot += st * f_iter[s["run"]] / n_iter
            else:
                tot += st * f_whole
        return tot

    info = raw["info"]
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["harness.self_s"] = span_sum("harness", "bench::runStudy")
    m["dnn.build_s"] = (span_sum("dnn", "buildModel")
                        + span_sum("dnn", "Network::build"))
    m["dnn.forward_s"] = span_sum("dnn", "Network::forward")
    m["dnn.backward_s"] = span_sum("dnn", "Network::lossAndBackward")
    m["dnn.forward_macs_per_s"] = ratio(info.get("forwardMacs", 0),
                                        m["dnn.forward_s"])
    for p in POLICIES:
        run_s = span_sum("sim", "NetworkSim::run", p)
        m["sim.run_s." + p] = run_s
        acc = digests.get(p, {}).get("traffic", {})
        m["sim.host_ns_per_access." + p] = ratio(
            run_s * 1e9, acc.get("l1Hits", 0) + acc.get("l1Misses", 0))
    for i in IMPLS:
        m["sim.kernel_s." + i] = sum(
            span_sum("sim", "runReluExperiment", "%s@%s" % (i, r))
            for r in REGIMES)
    for r in REGIMES:
        m["sim.kernel_s." + r] = span_sum("sim", "runReluExperiment",
                                          unit_suffix="@" + r)
    m["workload.snapshot_s"] = span_sum("workload", "fillActivations")
    m["zcomp.compress_s"] = span_sum("zcomp", "compressBufferPs")
    m["zcomp.expand_s"] = span_sum("zcomp", "expandBufferPs")
    for leg in MEM_LEGS:
        m["mem.ns_per_access." + leg] = ratio(
            span_sum("mem", "MemoryHierarchy::access", leg) * 1e9,
            digests.get(leg, {}).get("accesses", 0))
    for leg in CPU_LEGS:
        m["cpu.ns_per_op." + leg] = ratio(
            span_sum("cpu", "MultiCoreSystem::runPhase", leg) * 1e9,
            digests.get(leg, {}).get("ops", 0))
    m["root.uncovered_s"] = uncovered(raw)[0] * f_whole / n_iter

    groups = {u: [] for u in SIM_UNITS}
    for name, d in digests.items():
        base = name.split("@")[0]
        if base in groups:
            groups[base].append(d)
    for u in SIM_UNITS:
        if groups[u]:
            m.update(count_metrics(u, traffic_sum(groups[u]), True, True))
    for leg in MEM_LEGS + CPU_LEGS:
        if leg in digests:
            m.update(count_metrics(leg, traffic_sum([digests[leg]]),
                                   leg in CPU_LEGS, False))
    return m


def uncovered(raw):
    """Time of the root spans not covered by any layer span, summed
    over the timed iterations and over the traced extras."""
    spans = raw["spans"]
    n_iter = len(raw["iterations"])
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    it_gap = extra_gap = 0.0
    for i, s in enumerate(spans):
        if s["layer"] != "root":
            continue
        covered, end = 0.0, s["start_us"]
        for c in sorted(kids.get(i, []), key=lambda c: c["start_us"]):
            lo = max(c["start_us"], end)
            if c["end_us"] > lo:
                covered += c["end_us"] - lo
                end = c["end_us"]
        gap = (s["end_us"] - s["start_us"] - covered) / 1e6
        if s["run"] < n_iter:
            it_gap += gap
        else:
            extra_gap += gap
    return it_gap, extra_gap


def layer_self_table(raw):
    spans = raw["spans"]
    selfs = self_times(spans)
    tot = {}
    for s, st in zip(spans, selfs):
        if s["layer"] != "root":
            tot[s["layer"]] = tot.get(s["layer"], 0.0) + st
    return tot


def chrome_trace(raw, path):
    events = []
    for i, s in enumerate(raw["spans"]):
        events.append({
            "name": s["name"] + (" [%s]" % s["unit"] if s["unit"] else ""),
            "cat": s["layer"], "ph": "X", "pid": 1,
            "tid": 2 if s["run"] >= len(raw["iterations"]) else 1,
            "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
            "args": {"layer": s["layer"], "unit": s["unit"],
                     "run": s["run"], "span": i, "parent": s["parent"],
                     "derived": s["derived"]}})
    doc = {"displayTimeUnit": "ms", "traceEvents": events,
           "otherData": {"workload": raw["workload"],
                         "seed": raw["seed"]}}
    with open(path, "w") as f:
        json.dump(doc, f)


# --------------------------------------------------------------------
# Metadata


def source_hash():
    h = hashlib.sha1()
    for top in ("src", "bench", "zbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for fn in sorted(files):
                p = os.path.join(dirpath, fn)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


# --------------------------------------------------------------------


def regen_digests(args, deadline):
    """Rewrite the expected digests of one size at the default seed.
    Explicit only: a benchmark run never writes them."""
    path = args.digests
    doc = {}
    if os.path.isfile(path):
        with open(path) as f:
            doc = json.load(f)
    doc["schema"] = "zbench-digests-v1"
    entry = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS:
        raw = run_runner(w, DEFAULT_SEED, 1, 1, args.size,
                         time.time() + RUN_DEADLINE_S)
        _, failed, problems, digests = check_units(raw, None, DEFAULT_SEED)
        if failed:
            fail("cannot record digests, %s has failing units: %s"
                 % (w, problems))
        entry["workloads"][w] = {k: v for k, v in sorted(digests.items())
                                 if not k.startswith("runStudy:")}
        print("recorded %d units of %s" % (len(entry["workloads"][w]), w))
    doc[args.size] = entry
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's sizes")
    ap.add_argument("--digests", default=DIGESTS,
                    help="expected digests file")
    ap.add_argument("--regen-digests", action="store_true",
                    help="rewrite the expected digests and exit")
    args = ap.parse_args()
    t0 = time.time()

    first = not os.path.isfile(RUNNER)
    build(t0 + (BUILD_DEADLINE_S if first else RUN_DEADLINE_S))
    if args.regen_digests:
        regen_digests(args, t0)
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    raw = run_runner(args.workload, args.seed, args.seconds, args.trace,
                     args.size, time.time() + RUN_DEADLINE_S)
    exp_all = load_expected(args.digests, args.size)
    expected = None
    if exp_all and args.workload in exp_all["workloads"]:
        expected = {"seed": exp_all["seed"],
                    "units": exp_all["workloads"][args.workload]}
    attempted, failed, problems, digests = check_units(raw, expected,
                                                       args.seed)

    meta = dict(raw["meta"])
    meta.update({"seed": args.seed, "git_sha": git_sha(),
                 "source_hash": source_hash(), "size": args.size,
                 "iterations": len(raw["iterations"])})
    print("zbench %s seed=%d trace=%d size=%s" % (
        args.workload, args.seed, args.trace, args.size))
    print("  meta: " + json.dumps(meta, sort_keys=True))
    print("  units: %d attempted, %d failed (failed_frac %.4f); digests %s"
          % (attempted, failed, failed / attempted,
             "checked against " + os.path.relpath(args.digests, ROOT)
             if expected and expected["seed"] == args.seed
             else "checked for repeat/trace agreement"))
    for name, why in sorted(problems.items()):
        print("  FAILED %s: %s" % (name, why))
    _, f_iter, whole = speed_factors(raw)
    host_speed = {
        "factor": whole,
        "iteration_factors": f_iter,
        "samples": sum(st["samples"] for st in raw["extraSetups"]) + sum(
            it["setup"]["samples"] + it["run"]["samples"]
            for it in raw["iterations"]),
        "unscaled_wall_s": median([host_seconds(it["run"])
                                   for it in raw["iterations"]]),
    }
    print("  host speed: factor %.3f over the run, %.3f-%.3f by "
          "iteration, %d probe samples; unscaled wall_s median %.4f s"
          % (whole, min(f_iter), max(f_iter), host_speed["samples"],
             host_speed["unscaled_wall_s"]))

    untraced_path = os.path.join(OUT, "result-%s-%s-s%d-t0.json" % (
        args.workload, args.size, args.seed))
    e2e = end_to_end_metrics(raw, attempted, failed)
    if args.trace == 0:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    else:
        pl = per_layer_metrics(raw, digests)
        metrics = {k: {"value": pl[k], "unit": u} for k, u in PER_LAYER}
        trace_path = os.path.join(OUT, "trace-%s-%s-s%d.json" % (
            args.workload, args.size, args.seed))
        chrome_trace(raw, trace_path)
        print("  chrome trace: " + os.path.relpath(trace_path, ROOT))
        print("  layer self time (s, whole traced run):")
        for layer, s in sorted(layer_self_table(raw).items()):
            print("    %-9s %9.4f" % (layer, s))
        it_gap, extra_gap = uncovered(raw)
        print("  root uncovered: %.4f s over %d iterations (%.3f%% of "
              "wall_s), %.4f s in traced extras"
              % (it_gap, len(raw["iterations"]),
                 100 * ratio(it_gap, sum(i["run"]["s"]
                                         for i in raw["iterations"])),
                 extra_gap))
        if os.path.isfile(untraced_path):
            with open(untraced_path) as f:
                base = json.load(f)["result"]["metrics"]["wall_s"]["value"]
            print("  tracing overhead: traced wall_s %.4f - untraced "
                  "wall_s %.4f = %+.4f s"
                  % (e2e["wall_s"], base, e2e["wall_s"] - base))
        else:
            print("  tracing overhead: no untraced run of this seed yet")
    for k, v in metrics.items():
        if v["value"]:
            print("  %-36s %14.6g %s" % (k, v["value"], v["unit"]))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    path = os.path.join(OUT, "result-%s-%s-s%d-t%d.json" % (
        args.workload, args.size, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"meta": meta, "problems": problems, "result": result,
                   "host_speed": host_speed, "info": raw["info"]}, f,
                  indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
