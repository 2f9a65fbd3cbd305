#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark on this host.

    python3 perfbench/steady.py [--workloads postmortem,browse,live]
        [--runs 10] [--sets 2] [--overhead N]

Runs every workload --runs times per set for --sets sets of the same build,
each run for BENCHMARK.json's run_seconds with its own seed (SEED_BASE
onwards). Per workload and end-to-end metric it prints the median and
quartiles of each set (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json, and for
each later set the shift of its median from the first set's. The build is
steady when every spread and every shift, either way, stays within the
bound, and the share of failed operations is identical between sets.
Below each time metric a "raw" line gives the same figures for the
wall-clock time the run measured before host-speed normalization (not
gated; README, "Times are reference-host times").

--overhead N runs N untraced/traced pairs per workload on the same seed
(alternating which goes first) and reports the tracing overhead: how much
longer round_s is with span recording on.
"""
import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED_BASE = 1000


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def worse(m, first, second):
    """Relative amount by which `second` is worse than `first` (< 0: better)."""
    d = (second - first) / first
    return d if m["better"] == "lower" else -d


def main():
    spec = bench.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--overhead", type=int, default=0)
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    ok = True
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = SEED_BASE + s * args.runs + i
                result, measured, _ = bench.bench(w, seed, seconds, 0)
                runs.append((result, measured))
                print("%s set %d seed %d: %s" % (
                    w, s + 1, seed, " ".join("%s=%.6g" % (k, v["value"])
                                              for k, v in result["metrics"].items())),
                      flush=True)
            sets.append(runs)
        print("\n== %s: %d runs x %d sets, %g s each" % (w, args.runs, args.sets,
                                                        seconds))
        shares = {sum(r["failed"] for r, _ in runs) / sum(r["attempted"] for r, _ in runs)
                  for runs in sets}
        print("  failed share per set: %s" % sorted(shares))
        ok = ok and len(shares) == 1 and all(r["correct"] for runs in sets for r, _ in runs)
        for m in spec["end_to_end"]:
            for name, gated in ((m["name"], True), ("raw." + m["name"], False)):
                if any(name not in measured for runs in sets for _, measured in runs):
                    continue
                line = "  %-24s" % name
                meds = []
                for runs in sets:
                    xs = [measured[name]["value"] for _, measured in runs]
                    q1, med, q3 = quartiles(xs)
                    spread = (q3 - q1) / med
                    meds.append(med)
                    flag = " OVER" if spread > m["bound"] else ""
                    ok = ok and not (gated and flag)
                    line += "  med %.6g [%.6g, %.6g] spread %.3f/%.2f%s" % (
                        med, q1, q3, spread, m["bound"], flag)
                for later in meds[1:]:
                    d = worse(m, meds[0], later)
                    flag = " APART" if abs(d) > m["bound"] else ""
                    ok = ok and not (gated and flag)
                    line += "  shift %+.3f%s" % (d, flag)
                print(line, flush=True)

        if args.overhead:
            plain, traced = [], []
            for i in range(args.overhead):
                seed = SEED_BASE + i
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for t in order:
                    _, measured, _ = bench.bench(w, seed, seconds, t)
                    (traced if t else plain).append(measured["round_s"]["value"])
            p, t = statistics.median(plain), statistics.median(traced)
            print("  tracing overhead on round_s: %.4g s untraced, %.4g s traced, %+.2f%%"
                  % (p, t, 100.0 * (t - p) / p), flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
