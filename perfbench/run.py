"""The seqpval benchmark: one workload per call, or all three.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
A workload is a fixed list of operations, ROUNDS rounds of it, made from
the seed.  A run makes several passes over the list, each in a fresh
single-threaded interpreter, one after another (see worker.py).  Each
interpreter sets the workload up, so set-up is timed once per pass, then runs
the whole list and checks the results.  Each operation's time is that of its
slowest pass.
Each workload ends its output with one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones (from spans around every call into the
package) with ``--trace 1``.  With ``--workload NAME`` that line is the last
line of standard output; with ``all`` (the default) the three workloads'
reports follow one another.  ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decide", "evaluate", "bootstrap")
#: rounds in a workload's list: enough for forty operations, and for the
#: operation op_tail_ms picks to lie amid the slow kind, not at its edge
ROUNDS = {"decide": 3, "evaluate": 3, "bootstrap": 3}
#: seconds of measuring per pass: a run of --seconds S makes round(S / PASS_S)
#: passes, at least three, so the work in a run depends on S and not on the
#: host's speed.  On the reference machine (see README.md) a pass times about
#: 5 s of operations in decide and 10 s in evaluate; bootstrap's 6 s count
#: as 8, so that at 25 s it makes three passes and a full set of the
#: benchmark's runs stays within the hour
PASS_S = {"decide": 5.0, "evaluate": 8.0, "bootstrap": 8.0}
TIME_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"  # spans of traced runs, relative to the checkout

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def passes_for(workload: str, seconds: float) -> int:
    return max(3, round(seconds / PASS_S[workload]))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index in the sorted times of the highest percentile with at least ten
    operations beyond it (the 11th largest)."""
    return max(0, n - 11)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed),
            "--rounds", str(ROUNDS[workload])]
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
    parts = []
    for k in range(passes_for(workload, seconds)):
        extra = []
        if traced:
            extra += ["--trace", "1",
                      "--out", os.path.join(OUT_DIR, f"spans-{workload}-{seed}-{k}.jsonl")]
        parts.append(_worker(base + extra, deadline))
    # every pass runs the same list, so the times line up by operation.  On a
    # shared host the CPU runs at its usual speed, which repeats to about 5%,
    # or for stretches of 10 to 30 s nearly twice as fast.  The slowest of
    # passes spread over the run reads the usual speed unless every pass fell
    # in a fast stretch; a best or a median pass reads whichever speed the
    # run happened to get (README.md has the figures)
    slowest = [max(times) for times in zip(*(p["op_s"] for p in parts))]
    ops = sorted(slowest)
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "wall_s": math.fsum(slowest),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": 1e3 * ops[tail_index(len(ops))],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    wrong = sum(p["wrong_count"] for p in parts)
    for p in parts:
        for note in p["failures"]:
            print(f"{workload}: failed: {note}", file=sys.stderr)
        for note in p["wrong"]:
            print(f"{workload}: WRONG: {note}", file=sys.stderr)
    tail_pct = 100.0 * (tail_index(len(ops)) + 1) / len(ops)
    print(f"# {workload} seed={seed} passes={len(parts)} operations={len(ops)} "
          f"attempted={attempted} failed={failed} wrong={wrong} op_tail_ms=p{tail_pct:.1f}")
    if traced:
        import spans

        per_layer = spans.metrics([p["totals"] for p in parts],
                                  statistics.median(p["import_s"] for p in parts))
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]} for k, v in per_layer.items()}
        with open(os.path.join(OUT_DIR, f"traced-{workload}-{seed}.json"), "w") as fh:
            json.dump({"wall_s": end_to_end["wall_s"], "per_layer": per_layer}, fh)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "seqpval", "__init__.py")):
        print("error: run from the root of a seqpval checkout (no src/seqpval here)",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        with open("BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(measure(name, args.seed, args.seconds, bool(args.trace))))
            sys.stdout.flush()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
