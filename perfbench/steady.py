#!/usr/bin/env python3
"""Steadiness check: run each workload at several seeds and report, per
end-to-end metric, the spread between the first and third quartile as a
share of the median, next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]

It fails if any set's spread is over its bound, setup_s included.  With
--sets 2 the same seeds run twice; the check then also reports how far the
second set's median moved from the first's, fails if that is worse than
the bound, and fails if a seed's digest or busbw differs between its two
runs.  Run it from the root of the repository; results are printed,
nothing is written.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    digest = next((l.split()[1] for l in out if l.startswith("digest:")), None)
    return json.loads(out[-1]), digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        seen = {}
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = args.seed0 + i
                res, digest = run(bench["command"], workload, seed, bench["run_seconds"])
                if not res["correct"] or res["failed"]:
                    print(f"{workload} seed {seed}: incorrect result {res}")
                    ok = False
                busbw = res["metrics"]["busbw_geomean_gbps"]["value"]
                if seed in seen and seen[seed] != (digest, busbw):
                    print(f"{workload} seed {seed}: digest/busbw changed between runs")
                    ok = False
                seen[seed] = (digest, busbw)
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"  {workload} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
            sets.append(values)
        print(f"{workload}:")
        for name in bounds:
            first = statistics.median(sets[0][name])
            for s, values in enumerate(sets):
                med, sp = spread(values[name])
                line = (f"  {name:20s} set {s} median {med:12.6g} "
                        f"spread {sp:7.4f} bound {bounds[name]:.2f}")
                if sp > bounds[name]:
                    line += "  SPREAD OVER BOUND"
                    ok = False
                elif sp > bounds[name] / 3:
                    line += "  (over a third of the bound)"
                if s > 0:
                    worse = ((med - first) if better[name] == "lower" else (first - med)) / first
                    line += f"  drift from set 0 {worse:+.4f}"
                    if worse > bounds[name]:
                        line += "  DRIFT OVER BOUND"
                        ok = False
                print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
