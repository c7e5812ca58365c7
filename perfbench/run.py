#!/usr/bin/env python3
"""The STACC benchmark.

Run from the root of a stacc checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds the stacc binary and the measuring program from source with
dune, then runs workload W (see perfbench/README.md).  The last line of
standard output is the JSON result.  `--workload all` runs every
workload, each in a fresh process.

Exit status: 0 when every correctness gate passed, 1 when one failed,
2 when the checkout cannot be built or run.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["svc-mixed", "decide-history", "emulate-coalition", "analyze-queries"]
BENCH_EXE = "_build/default/perfbench/stacc_bench.exe"
STACC_EXE = "_build/default/bin/stacc.exe"
OUT_DIR = "perfbench/_out"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            fail("unknown argument %r" % flag)
        try:
            args[flag] = next(it)
        except StopIteration:
            fail("%s needs a value" % flag)
    if args["--workload"] not in WORKLOADS + ["all"]:
        fail("--workload must be one of %s or all" % ", ".join(WORKLOADS))
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    for flag in ("--seed", "--seconds"):
        try:
            int(args[flag])
        except ValueError:
            fail("%s must be a whole number" % flag)
    return args


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    # the program is built from this checkout's sources only
    for path in ("dune-project", "bin/stacc.ml", "lib", "perfbench/dune"):
        if not os.path.exists(path):
            fail("not a stacc checkout: %s is missing (run from the repository root)" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ".", "./bin/stacc.exe", "./perfbench/stacc_bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run_one(workload, args):
    cmd = [BENCH_EXE, "--workload", workload, "--seed", args["--seed"],
           "--seconds", args["--seconds"], "--trace", args["--trace"],
           "--stacc", STACC_EXE, "--out", OUT_DIR]
    # its own process group, so a timeout can stop it and the server
    # child it may have started
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s timed out" % workload)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def main():
    args = parse(sys.argv[1:])
    build()
    if args["--workload"] != "all":
        code, out = run_one(args["--workload"], args)
        sys.stdout.write(out)
        sys.exit(code)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(w, args)
        lines = out.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, code)
        try:
            r = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("%s printed no result" % w)
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            total["metrics"]["%s/%s" % (w, name)] = m
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
