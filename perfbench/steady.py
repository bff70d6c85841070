"""Steadiness of the benchmark: two interleaved sets of runs of each workload.

    python3 perfbench/steady.py --runs 10

Set A uses seeds 1..runs and set B seeds 1001..1000+runs; run i of both sets
is made back to back, alternating which set goes first, so a drift of the
host lands on both.  For every end-to-end metric and workload it prints each
set's median and quartiles, the spread (quartile distance over the median)
and the difference of the medians, against the bound in BENCHMARK.json.  The
benchmark is steady if every spread and every difference, in either
direction, is within the metric's bound, every run is correct and the share
of failed operations is the same in every run.  It
also makes a traced run of each workload right after each of the first
TRACED runs of set A, with the same seed, and prints the tracing overhead:
the traced runs' median wall_s over that of the untraced ones, minus one.
Everything is also written to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED = 3


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    sets = {"A": 1, "B": 1001}
    results = {w: {s: [] for s in sets} for w in names}
    traced = {w: [] for w in names}
    for i in range(args.runs):
        order = list(sets) if i % 2 == 0 else list(sets)[::-1]
        for s in order:
            for w in names:
                res = run(w, sets[s] + i, seconds, 0)
                results[w][s].append(res)
                print(f"# {w} set {s} seed {sets[s] + i}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} " + " ".join(
                          f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                      flush=True)
                if s == "A" and i < TRACED:
                    run(w, sets["A"] + i, seconds, 1)
                    with open(os.path.join(".perfbench_out",
                                           f"traced-{w}-{sets['A'] + i}.json")) as fh:
                        traced[w].append(json.load(fh)["wall_s"])

    report = {}
    ok = True
    for w in names:
        report[w] = {}
        print(f"\n{w}")
        print(f"  {'metric':12} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for metric, bound in bounds.items():
            row = {}
            for s in sets:
                row[s] = summary([r["metrics"][metric]["value"] for r in results[w][s]])
                print(f"  {metric:12} {s:3} {row[s]['median']:10.4g} {row[s]['q1']:10.4g} "
                      f"{row[s]['q3']:10.4g} {row[s]['spread']:7.3f} {bound:6.2f}")
            row["diff"] = row["B"]["median"] / row["A"]["median"] - 1.0
            print(f"  {metric:12} B/A-1 {row['diff']:+.3f}")
            ok = (ok and max(row["A"]["spread"], row["B"]["spread"]) <= bound
                  and abs(row["diff"]) <= bound)
            report[w][metric] = row
        shares = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in sets}
        correct = all(r["correct"] for s in sets for r in results[w][s])
        overhead = statistics.median(traced[w]) / statistics.median(
            [r["metrics"]["wall_s"]["value"] for r in results[w]["A"][:len(traced[w])]]) - 1.0
        report[w]["failed_shares"] = {s: sorted(v) for s, v in shares.items()}
        report[w]["correct"] = correct
        report[w]["trace_overhead"] = overhead
        print(f"  failed shares {report[w]['failed_shares']}  correct={correct}  "
              f"tracing overhead on wall_s {overhead:+.3f}")
        ok = ok and correct and len(shares["A"] | shares["B"]) == 1
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
