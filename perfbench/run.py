#!/usr/bin/env python3
"""End-to-end benchmark of the Pilot trace toolchain.

    python3 perfbench/run.py --workload postmortem|browse|live --seed N \
        --seconds S --trace 0|1

Builds the repository with its own CMake build (Release) plus the
benchmark binary in .bench_build/, runs the workload's set-up and then its
timed phase in two separate processes, prints a table of every measured
metric, and as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer ones, and the spans of the run are written as
a CLOG-2 trace under .bench_work/spans/. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "perfbench", "pilot-perfbench")
SETUP_REPS = 5

# Libraries of the repository the benchmark links, plus the two viewers
# that open the span trace of a traced run.
TARGETS = [
    "pilot_traced", "pilot_digest", "pilot_jumpshot", "pilot_core",
    "pilot_analyze", "pilot_replay", "pilot_fault", "pilot_mpe",
    "pilot_tracegen", "pilot_query", "pilot_slog2", "pilot_clog2",
    "pilot_mpisim", "pilot_util", "pilot-jumpshot", "pilot-tracedigest",
    "pilot-clog2toslog2",
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, timeout):
    log("+ " + " ".join(cmd))
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        raise BenchError("failed (%d): %s" % (r.returncode, " ".join(cmd)))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("repository sources not found next to perfbench/")
    jobs = str(max(1, os.cpu_count() or 1))
    pilot = os.path.join(BUILD, "pilot")
    if not os.path.isfile(os.path.join(pilot, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", pilot, "-DCMAKE_BUILD_TYPE=Release"], 600)
    sh(["cmake", "--build", pilot, "-j", jobs, "--target"] + TARGETS, 900)
    bench = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bench, "-DCMAKE_BUILD_TYPE=Release",
            "-DPILOT_SOURCE_DIR=" + ROOT, "-DPILOT_BUILD_DIR=" + pilot], 600)
    sh(["cmake", "--build", bench, "-j", jobs], 900)


def last_json(cmd, timeout):
    """Run the benchmark binary; its last stdout line is a JSON object."""
    log("+ " + " ".join(cmd))
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        raise BenchError("failed (%d): %s" % (r.returncode, " ".join(cmd)))
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError("no output from " + " ".join(cmd))
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, seconds, trace):
    """One run: returns (result line, every measured metric, self times)."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload " + workload)
    build()
    work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload=" + workload, "--seed=%d" % seed,
              "--dir=" + work, "--trace=%d" % trace]
    try:
        setup = last_json([BINARY, "setup", "--reps=%d" % SETUP_REPS] + common, 170)
        cmd = [BINARY, "run", "--seconds=%g" % seconds] + common
        if trace:
            spans = os.path.join(WORK, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd.append("--spans=" + os.path.join(
                spans, "%s-seed%d.clog2" % (workload, seed)))
        run = last_json(cmd, seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(run["metrics"])
    measured["setup_s"] = {"value": setup["setup_s"], "unit": "s"}
    measured["raw.setup_s"] = {"value": setup["raw_setup_s"], "unit": "s"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise BenchError("end-to-end metric %s not measured" % m["name"])
            # A layer this workload never calls spent no time and did no work.
            got = {"value": 0.0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {
        "correct": bool(run["correct"]) and run["failed"] == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }
    return result, measured, run.get("self_ms", {})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result, measured, self_ms = bench(args.workload, args.seed, args.seconds,
                                          args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2
    print("%s seed=%d trace=%d: %d operations, %d failed" % (
        args.workload, args.seed, args.trace, result["attempted"], result["failed"]))
    for name in sorted(measured):
        print("  %-28s %16.6f %s" % (name, measured[name]["value"],
                                     measured[name]["unit"]))
    if self_ms:
        total = sum(self_ms.values()) or 1.0
        print("  self time per layer (span minus child spans):")
        for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            print("    %-10s %12.1f ms %6.1f%%" % (layer, ms, 100.0 * ms / total))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
