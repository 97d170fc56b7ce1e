#!/usr/bin/env python3
"""Repeatability report: run each workload N times and show the spread.

    python3 perfbench/repeat.py --runs 10 --seconds 15
    python3 perfbench/repeat.py --runs 5 --workloads serve_fallback --trace 1

Seed i of N is first_seed + i, so every run has fresh inputs.  For each
metric the report prints the median, the first and third quartiles
(statistics.quantiles(n=4)) and the relative IQR, (q3 - q1) / median.  For
end-to-end metrics it compares the relative IQR with the metric's bound in
BENCHMARK.json: STEADY below a third of the bound, WIDE below the bound,
NOISY at or above it (setup_s is only compared by median, so it never reads
NOISY).  It also records the host fingerprint and the schema version, and
flags a build that is not Release.  Exits 1 when a run fails or reads
incorrect, or an end-to-end metric is NOISY.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def result_of(args):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = opts.seconds or bench["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])

    describe = subprocess.run([sys.executable, RUN, "--describe"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
    host = json.loads(describe.stdout.strip().splitlines()[-1])
    print("host: nproc=%s compiler=%s build_type=%s schema_version=%s"
          % (host["nproc"], host["compiler"], host["build_type"],
             host["schema_version"]))
    if host["build_type"] != "Release":
        print("WARNING: not a Release build; timings are not comparable")
    print("runs=%d seconds=%d trace=%s seeds=%d..%d"
          % (opts.runs, seconds, opts.trace, opts.first_seed,
             opts.first_seed + opts.runs - 1))

    ok = True
    for workload in workloads:
        values = {}
        units = {}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            r = result_of(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", opts.trace])
            if r is None or not r["correct"] or r["failed"] != 0:
                print("%s seed %d: FAILED (%s)" % (workload, seed, r))
                ok = False
                continue
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n%s (%d good runs)" % (workload, len(next(iter(values.values()), []))))
        print("  %-36s %14s %14s %14s %8s  %s"
              % ("metric", "median", "q1", "q3", "rel_iqr", "verdict"))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]
                if spread < bound / 3:
                    verdict = "STEADY"
                elif spread < bound or name == "setup_s":
                    verdict = "WIDE (bound %.2f)" % bound
                else:
                    verdict = "NOISY (bound %.2f)" % bound
                    ok = False
            print("  %-36s %14.6g %14.6g %14.6g %8.4f  %s %s"
                  % (name, med, q1, q3, spread, units[name], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
