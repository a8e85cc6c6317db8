#!/usr/bin/env python3
"""The repository benchmark: build from source, run one workload.

    python3 perfbench/run.py --workload serve_short --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds
the library, raceserved and the perfbench binary in Release under
.bench_build/; later runs rebuild incrementally.  The binary's last
stdout line is one JSON object (see perfbench/README.md); this script
passes its output and exit code through.  --self-test builds and runs
the benchmark's unit tests, then a short smoke run of every workload,
traced and untraced, checking each result against BENCHMARK.json, and
one against a stand-in daemon that refuses every solve, which must
fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKDIR = os.path.join(".bench_build", "perfbench-run")
WORKLOADS = ("serve_short", "serve_reads", "screen_db")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def sources_present():
    return all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", os.path.join("src", "rl"),
                         os.path.join("tools", "raceserved.cc")))


def source_digest():
    """Hash of the program's sources: a revision that needs no git."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:12]


def revision():
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "nogit"
    except (OSError, subprocess.TimeoutExpired):
        commit = "nogit"
    return "%s+src.%s" % (commit, source_digest())


def build(targets):
    """Configure once, then build `targets`; build output to stderr."""
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def bench_command(workload, seed, seconds, trace, daemon):
    return [os.path.join(BUILD, "perfbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--raceserved", daemon,
            "--workdir", WORKDIR, "--revision", revision()]


def run_bench(workload, seed, seconds, trace,
              daemon=os.path.join(BUILD, "racelogic", "raceserved")):
    """Run the perfbench binary; returns (exit code, stdout text)."""
    os.makedirs(os.path.join(ROOT, WORKDIR), exist_ok=True)
    try:
        done = subprocess.run(bench_command(workload, seed, seconds, trace,
                                            daemon),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log("perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 4, e.stdout or ""
    return done.returncode, done.stdout


def last_json(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def self_test():
    if not build(["perfbench", "raceserved", "perfbench_tests",
                  "refusing_daemon"]):
        return 1
    tests = os.path.join(ROOT, BUILD, "perfbench_tests")
    if subprocess.run([tests], cwd=ROOT).returncode:
        return 1
    # A daemon that refuses every solve must fail the run, not score
    # as a gain (zero answered items, every request failed).
    code, out = run_bench("serve_short", 1, 2, 0,
                          os.path.join(BUILD, "refusing_daemon"))
    result = last_json(out)
    ok = code != 0 and (result is None or not result["correct"])
    print("smoke refusing    trace=0: %s" % (
        "ok" if ok else "FAIL exit %d, result %s" % (code, result)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_bench(workload, 1, 2, trace)
            result = last_json(out)
            problems = []
            if code != 0:
                problems.append("exit %d" % code)
            if result is None:
                problems.append("no JSON result line")
            else:
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("failed"):
                    problems.append("correct=%s failed=%s" % (
                        result.get("correct"), result.get("failed")))
                names = set(result.get("metrics", {}))
                if names != wanted[trace]:
                    problems.append("metrics differ: missing %s, extra %s" % (
                        sorted(wanted[trace] - names),
                        sorted(names - wanted[trace])))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %-11s trace=%d: %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not sources_present():
        log("no racelogic sources next to perfbench/ (need CMakeLists.txt,"
            " src/rl and tools/raceserved.cc in %s)" % ROOT)
        return 3
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench", "raceserved"]):
        log("build failed")
        return 3
    code, out = run_bench(args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
