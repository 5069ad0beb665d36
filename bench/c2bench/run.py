#!/usr/bin/env python3
"""Build and run the C2Store benchmark (c2bench).

    python3 bench/c2bench/run.py --seed 1                  # all four workloads
    python3 bench/c2bench/run.py --workload ingest --seed 1 --seconds 8 --trace 0
    python3 bench/c2bench/run.py --workload grow --seed 1 --traced
    python3 bench/c2bench/run.py --smoke

Builds bench/c2bench (its own CMake project, which pulls in the repository's
`c2sl` library) into build-c2bench/ at the repository root, then runs each
workload in its own process. Every metric is printed as
`metric <name> <value> <unit>`; with --workload the last line of standard
output is that run's JSON result. The process exits non-zero when the build
fails, a run fails its correctness check, or a run overruns its time limit.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-c2bench")
WORKLOADS = ["ingest", "request", "audit", "grow"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"c2bench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the c2bench binary. Build output goes to stderr so
    standard output carries only results."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):  # not configured yet
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "c2bench", "c2bench_selftest"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if p.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_one(workload, seed, seconds, traced, prefix=""):
    """Runs one workload process, echoing its metric lines with `prefix`.
    Returns (exit code, result dict or None)."""
    cmd = [os.path.join(BUILD, "c2bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")  # writes its spans to build-c2bench/traces/
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, cwd=BUILD)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = p.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(prefix + line)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: no result line (exit {p.returncode})")
        return p.returncode or 1, None
    if p.returncode != 0 or not result["correct"]:
        log(f"{workload}: correctness check failed")
        return p.returncode or 1, result
    return 0, result


def run_traced(workload, seed, seconds, prefix=""):
    """The traced run: an untraced run and a spans run of the same seed, each
    in a fresh process, so trace_overhead_share compares equally cold
    processes. Returns (exit code, result dict or None)."""
    code, base = run_one(workload, seed, seconds, False, prefix + "untraced ")
    if code != 0:
        return code, base
    code, result = run_one(workload, seed, seconds, True, prefix)
    if code != 0:
        return code, result
    metrics = result["metrics"]
    traced_mops = metrics.pop("traced_throughput_mops")["value"]
    share = 1.0 - traced_mops / base["metrics"]["throughput_mops"]["value"]
    metrics["trace_overhead_share"] = {"value": share, "unit": "ratio"}
    print(f"{prefix}metric trace_overhead_share {share:.10g} ratio")
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    return 0, result


def append_record(path, label, workload, seed, seconds, traced, code, result):
    """Appends one run, whatever its outcome: a run that left no result line
    is recorded as incorrect, so compare.py sees every run that was made."""
    if result is None:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    rec = {"label": label, "host": socket.gethostname(), "workload": workload,
           "seed": seed, "seconds": seconds, "trace": int(traced), "exit": code,
           "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "result": result}
    with open(path, "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8,
                    help="measured phase on a 4-vCPU x86 host; fixes the op count")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: the traced run (per-layer metrics)")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="all four workloads at ~1%% size, every check on")
    ap.add_argument("--record", help="append each run's result to this JSONL file")
    ap.add_argument("--label", default="", help="label stored with --record")
    args = ap.parse_args(argv)
    traced = args.traced or args.trace == 1
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")

    if not build():
        return 1
    if args.smoke:
        p = subprocess.run([os.path.join(BUILD, "c2bench"), "--smoke"],
                           timeout=RUN_TIMEOUT_S)
        return p.returncode

    if args.workload:
        code, result = (run_traced(args.workload, args.seed, args.seconds) if traced
                        else run_one(args.workload, args.seed, args.seconds, False))
        if args.record:
            append_record(args.record, args.label, args.workload, args.seed,
                          args.seconds, traced, code, result)
        if result is not None:
            print(json.dumps(result), flush=True)
        return code

    worst = 0
    for w in WORKLOADS:
        code, result = (run_traced(w, args.seed, args.seconds, w + " ") if traced
                        else run_one(w, args.seed, args.seconds, False, w + " "))
        worst = worst or code
        if args.record:
            append_record(args.record, args.label, w, args.seed, args.seconds,
                          traced, code, result)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
