"""One measured process of the benchmark: import, set up, run, check.

Started by ``run.py`` in a fresh single-threaded interpreter with the
checkout's ``src`` on the path.  It sets the workload up in full and makes
one pass over its fixed list of operations: every round of
``range(rounds)``, in order.  Prints one JSON line with ``import_s``,
``setup_s`` (import plus the workload's set-up), the time of each operation
in list order, the counts of attempted and failed operations, the wrong
answers the checks found and the peak resident set; with ``--trace 1`` also
the per-layer totals, and the spans go to ``--out``.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import seqpval  # noqa: E402  (the import is what is timed)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="file for the spans of a traced run")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(seqpval.__file__).startswith(src + os.sep):
        print(f"seqpval was imported from {seqpval.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()
    import workloads

    t = time.perf_counter()
    wl = workloads.make(args.workload, args.seed, args.rounds)
    wl.setup()
    setup_s = IMPORT_S + time.perf_counter() - t

    problems = workloads.Problems()
    op_s = []
    attempted = 0
    clock = time.perf_counter
    for r in range(args.rounds):
        items = wl.inputs(r)
        results = []
        for item in items:
            if tracer is not None:
                tracer.op = (r, len(results))
            attempted += 1
            t = clock()
            try:
                results.append(wl.op(item))
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                results.append(None)
                problems.fail(f"{item!r}: {type(exc).__name__}: {exc}")
            op_s.append(clock() - t)
        if tracer is not None:
            tracer.op = None
            tracer.enabled = False
        wl.check(items, results, problems)
        if tracer is not None:
            tracer.enabled = True
    if tracer is not None:
        tracer.enabled = False
    wl.finish(problems)

    out = {
        "import_s": IMPORT_S,
        "setup_s": setup_s,
        "op_s": op_s,
        "attempted": attempted,
        "failed": problems.failed,
        "failures": problems.failures[:20],
        "wrong": problems.wrong[:20],
        "wrong_count": len(problems.wrong),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["totals"] = spans.totals(tracer)
        if args.out:
            tracer.write(args.out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
