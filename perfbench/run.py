#!/usr/bin/env python3
"""The repository benchmark: builds gdur_perfbench from source and runs one
workload of it.

    python3 perfbench/run.py --workload front-open|sim-fig3 \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload engine-closed --seed N --seconds S \
        --trace 1                         # per-layer only
    python3 perfbench/run.py --smoke      # every workload, a few seconds each
    python3 perfbench/run.py --self-test  # the benchmark's own instruments

Run from anywhere inside a source checkout. The build goes to
.bench_build/perfbench under the checkout root. Each workload runs in its
own process. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1, as declared in BENCHMARK.json. The line before it is the
full report: provenance (git sha or source digest, host cores, seed), the
share of CPU time the hypervisor stole during the run, the workload's
config, reference outputs and any correctness problem. Exit status is 0
only for a correct run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STATE = os.path.join(ROOT, ".bench_build", "state")
BINARY = os.path.join(BUILD, "gdur_perfbench")
WORKLOADS = ("front-open", "engine-closed", "sim-fig3")
TRACED_ONLY = ("engine-closed",)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds; the build log goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {ROOT}/src; run from a full "
            "source checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def provenance():
    sha = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha or "unknown (not a git checkout)",
            "source_sha256": digest.hexdigest(),
            "host_cores": os.cpu_count()}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal (guest* are in user)
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def declared_metrics(trace):
    """(name -> unit) from BENCHMARK.json, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(workload, seed, seconds, trace, digest, smoke=False):
    """Runs one workload process; returns (report dict or None, exit code).

    State kept across runs (the sim determinism record) lives in a directory
    named after the source digest, so it only ever compares runs of one
    source tree."""
    state = os.path.join(STATE, digest[:16])
    os.makedirs(state, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--state", state]
    if smoke:
        cmd.append("--smoke")
    before = cpu_ticks()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, 1
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if report is None:
        log(f"{workload}: exited {done.returncode} without a report")
        return None, done.returncode or 1
    after = cpu_ticks()
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other tenants while this run
        # wanted it: live timings on a shared VM are only as steady as this.
        report["host_steal_pct"] = round(
            100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)
    return report, done.returncode


def result_line(report):
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": report["metrics"]}


def check_declared(report, trace):
    declared = declared_metrics(trace)
    if declared is None:
        return True
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared)
                       if got[k] != declared[k])
        log(f"metrics disagree with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}")
        return False
    return True


def smoke(digest):
    """Every workload, traced and untraced, on scaled-down shapes."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            if workload in TRACED_ONLY and not trace:
                continue
            report, code = run_workload(workload, 1, 2, trace, digest,
                                        smoke=True)
            ok = (report is not None and code == 0 and report["correct"]
                  and check_declared(report, trace))
            failures += 0 if ok else 1
            problems = report["problems"] if report else ["no report"]
            print(f"smoke {workload:<14} trace={int(trace)} "
                  f"{'ok' if ok else 'FAILED'} {'; '.join(problems)}",
                  flush=True)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.smoke or args.self_test):
        ap.error("need --workload, --smoke or --self-test")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload in TRACED_ONLY and not args.trace:
        ap.error(f"{args.workload} has per-layer metrics only: use --trace 1")

    if not build():
        return 2
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    prov = provenance()
    if args.smoke:
        return 1 if smoke(prov["source_sha256"]) else 0

    report, code = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), prov["source_sha256"])
    if report is None or not check_declared(report, bool(args.trace)):
        return code or 1
    report["provenance"] = prov
    print(json.dumps(report, sort_keys=True), flush=True)
    print(json.dumps(result_line(report)), flush=True)
    return 0 if report["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
