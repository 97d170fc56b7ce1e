#!/usr/bin/env python3
"""Benchmark self-tests.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json:
  - the same seed generates byte-identical input files, and another seed
    generates different ones (perfbench --emit-inputs);
  - a smoke run (one set-up, a few operations, every correctness check on)
    reads correct with no failed operation, untraced and traced, and reports
    exactly the metric names BENCHMARK.json lists for that mode.
Exits 1 when any check fails.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")


def run(args):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


def emit(workload, seed, tag):
    path = os.path.join(OUT, "%s-%s" % (workload, tag))
    shutil.rmtree(path, ignore_errors=True)
    code, _ = run(["--emit-inputs", path, "--workload", workload,
                   "--seed", str(seed)])
    if code != 0:
        raise RuntimeError("emit-inputs failed for %s seed %d" % (workload, seed))
    return path


def same_files(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)) or not names:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"] for m in bench["end_to_end"]},
        "1": {m["name"] for m in bench["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print("%s  %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        a = emit(w, 1, "a")
        b = emit(w, 1, "b")
        c = emit(w, 2, "c")
        check(same_files(a, b), "%s: same seed, byte-identical inputs" % w)
        check(not same_files(a, c), "%s: different seed, different inputs" % w)
        for trace in ("0", "1"):
            code, lines = run(["--workload", w, "--seed", "1", "--seconds",
                               "0.5", "--trace", trace, "--smoke"])
            result = json.loads(lines[-1]) if code == 0 and lines else None
            check(result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  "%s: smoke run (trace %s) correct" % (w, trace))
            check(result is not None
                  and set(result["metrics"]) == expected[trace],
                  "%s: trace %s reports exactly the listed metrics" % (w, trace))
    shutil.rmtree(OUT, ignore_errors=True)
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
