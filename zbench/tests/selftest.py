#!/usr/bin/env python3
"""Self-test of the zbench benchmark.

    python3 zbench/tests/selftest.py

Runs every workload at the tiny self-test sizes in both trace modes
and checks that:
  - the last stdout line is exactly {correct, attempted, failed,
    metrics}, with correct == true;
  - the metric names and units are exactly those of BENCHMARK.json
    (end_to_end for --trace 0, per_layer for --trace 1);
  - a non-default seed passes its repeat and trace-agreement checks;
  - a deliberately corrupted expected digest is reported as a failed
    unit with correct == false, so the output check can fail.

Tiny-size expected digests are recorded first with the explicit
--regen-digests command into .bench_build/zbench/selftest/, never into
the committed digests file. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ZBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(ZBENCH)
RUN = os.path.join(ZBENCH, "run.py")
WORK = os.path.join(ROOT, ".bench_build", "zbench", "selftest")


def run(*args):
    r = subprocess.run([sys.executable, RUN] + list(args),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT, timeout=900)
    if r.returncode != 0:
        sys.exit("FAIL: run.py %s exited %d\n%s%s"
                 % (" ".join(args), r.returncode, r.stdout, r.stderr))
    return r.stdout


def result_of(stdout):
    res = json.loads(stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("FAIL: result keys %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        sys.exit("FAIL: attempted %r" % res["attempted"])
    return res


def check(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)
    print("ok   " + what)


def main():
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]

    digests = os.path.join(WORK, "digests-tiny.json")
    run("--regen-digests", "--size", "tiny", "--digests", digests)
    check(os.path.isfile(digests), "tiny digests recorded")

    for w in workloads:
        for seed in (1, 7):
            for trace in (0, 1):
                out = run("--workload", w, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace),
                          "--size", "tiny", "--digests", digests)
                res = result_of(out)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                tag = "%s seed=%d trace=%d" % (w, seed, trace)
                check(res["correct"] and res["failed"] == 0,
                      tag + " is correct")
                check(list(got) == list(want[trace]) and got == want[trace],
                      tag + " prints exactly the BENCHMARK.json metrics")
                check(all(isinstance(v["value"], (int, float))
                          for v in res["metrics"].values()),
                      tag + " metric values are numbers")

    # Corrupt one simulated number per workload; the run must fail it.
    with open(digests) as f:
        doc = json.load(f)
    victims = {"study_train": "zcomp", "relu_sweep": "zcomp@dram",
               "timing_replay": "l2_reread"}
    for w, unit in victims.items():
        bad = json.loads(json.dumps(doc))
        d = bad["tiny"]["workloads"][w][unit]
        part = d["store"] if "store" in d else d
        part["traffic"]["l1Hits"] += 1
        path = os.path.join(WORK, "digests-corrupt-%s.json" % w)
        with open(path, "w") as f:
            json.dump(bad, f)
        out = run("--workload", w, "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--size", "tiny", "--digests", path)
        res = result_of(out)
        check(not res["correct"] and res["failed"] >= 1
              and ("FAILED %s:" % unit) in out,
              "%s: corrupted digest of %s is a failed unit" % (w, unit))
    print("selftest passed")


if __name__ == "__main__":
    main()
