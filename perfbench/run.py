#!/usr/bin/env python3
"""Build perfbench from source and run it once.

    python3 perfbench/run.py --workload serve_exact --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary.  The binary is built in
.bench_build/perfbench under the checkout root (configured once, then
rebuilt incrementally).  Temporary files and generated inputs go to
scratch directories there, the inputs' removed afterwards, and a --trace 1
run leaves its Chrome trace at .bench_build/perfbench/trace-<workload>.json.  Build output goes to
standard error, so the last line of standard output is the result object.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build(env):
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            return False
    return True


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    # Compilers and the benchmark keep their temporary files in the build
    # tree too, so a run touches nothing outside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    env = dict(os.environ, TMPDIR=tmp)
    try:
        os.makedirs(tmp, exist_ok=True)
        if not build(env):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except OSError as e:
        print("perfbench: cannot build: %s" % e, file=sys.stderr)
        return 1
    workload = flag(args, "--workload") or "none"
    work = os.path.join(BUILD, "work-%s-%d" % (workload, os.getpid()))
    cmd = [BINARY] + args + ["--work-dir", work]
    if flag(args, "--trace") == "1" and "--trace-out" not in args:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s.json" % workload)]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
