"""Spans around the calls into each module of ``seqpval``, and the per-layer
metrics derived from them.

``install`` replaces selected functions and methods of the imported package
with wrappers that record a span (name, start, end, parent, operation) and
the work the call did.  Spans stay in memory until ``write``.  A span's self
time is its duration minus the time its direct child spans cover; every
per-layer ``*_s`` metric is a sum of self times.

The wrappers live here, in the benchmark, so the program is measured
unchanged.  They are installed only for a traced run; the end-to-end metrics
come from untraced runs.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # each span: [id, name, start, end, parent, op, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None  # (round, index) of the running operation
        self.charged = 0  # samples charged by the bootstrap workflows
        self.run_steps = 0  # sum of n over the results of every run
        self.table_bytes = 0  # largest footprint of any boundary table
        self.counts_bytes = 0  # largest footprint of any StoppingCounts
        self.masses_ps: set[tuple] = set()  # (op, p) of every masses call
        self.enabled = True  # off while the benchmark checks results

    def open(self, name: str) -> list:
        span = [len(self.spans), name, _clock(), None,
                self._stack[-1] if self._stack else None, self.op, 0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list, work=0):
        span[3] = _clock()
        span[6] = work
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None, closed=None):
        """Record a span around ``owner.attr``.

        ``before(args, kwargs)`` runs ahead of the call; ``after(args, kwargs,
        first, out)`` gets its value and the result and returns the work done;
        ``closed(first, out)`` runs once the span has ended.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            first = before(args, kwargs) if before else None
            span = self.open(name)
            work = 0
            try:
                out = orig(*args, **kwargs)
                if after:
                    work = after(args, kwargs, first, out)
            finally:
                self.close(span, work)
            if closed:
                closed(first, out)
            return out

        setattr(owner, attr, traced)

    def measure(self, obj) -> int:
        """``footprint(obj)``, timed as a child span of the running one so
        that its time is in no layer's self time."""
        span = self.open("trace.measure")
        try:
            return footprint(obj)
        finally:
            self.close(span)

    def write(self, path):
        keys = ("id", "name", "start", "end", "parent", "op", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def footprint(obj) -> int:
    """Bytes that ``obj`` holds: its own size and that of every array,
    container and number reachable from its attributes through containers,
    each counted once.  An array counts its buffer (a view, its base's);
    instances of other classes, such as the table a StoppingCounts refers
    to, are not followed."""
    seen = {id(obj)}
    total = sys.getsizeof(obj)
    todo = list(vars(obj).values())
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        if isinstance(o, np.ndarray):
            if o.base is not None:
                todo.append(o.base)
        elif isinstance(o, (list, tuple, dict, set, frozenset)):
            todo.extend(gc.get_referents(o))
        elif not isinstance(o, (int, float, complex, str, bytes, np.generic)):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
    return total


def install() -> Tracer:
    """Wrap the package's layer entry points; returns the recording tracer.

    Functions are replaced in every module namespace that calls them, so the
    calls the package makes internally are recorded too.
    """
    from seqpval import applications, boundary, inference, runner

    tr = Tracer()

    def table_grown(first, out):
        if out.n_max > first:
            tr.table_bytes = max(tr.table_bytes, tr.measure(out))

    tr.wrap(boundary.BoundaryTable, "extend", "boundary.extend",
            lambda args, kwargs: args[0].n_max,
            lambda args, kwargs, first, out: out.n_max - first, table_grown)

    def ran(args, kwargs, first, out):
        tr.run_steps += out.n
        return out.n

    tr.wrap(runner, "run", "runner.run", after=ran)
    applications.run = runner.run
    for module in (runner, inference, applications):
        tr.wrap(module, "interim_interval", "runner.interim")
    for cls in (runner.BernoulliSampler, applications.NullStatStream,
                applications._DoubleBootstrapStream):
        tr.wrap(cls, "take", "source.take", after=lambda a, k, f, out: int(out.size))

    def sweep_start(args, kwargs):
        # _sweep(table, p, horizon, state=None, ...): a fresh sweep is at n = 1
        state = kwargs.get("state", args[3] if len(args) > 3 else None)
        return state.n if state is not None else 1

    tr.wrap(inference, "_sweep", "inference.sweep", sweep_start,
            lambda args, kwargs, first, out: out.n - first)
    tr.wrap(inference, "resampling_risk", "inference.risk")
    tr.wrap(inference, "expected_stop_time", "inference.etau")

    def counts_grown(first, out):
        if out.horizon > first:
            tr.counts_bytes = max(tr.counts_bytes, tr.measure(out))

    tr.wrap(inference.StoppingCounts, "extend", "inference.counts",
            lambda args, kwargs: args[0].horizon,
            lambda args, kwargs, first, out: out.horizon - first, counts_grown)
    tr.wrap(inference, "confidence_interval", "inference.ci")

    def mass_p(args, kwargs):
        tr.masses_ps.add((tr.op, float(args[1])))

    tr.wrap(inference.StoppingCounts, "masses", "inference.masses", mass_p,
            lambda args, kwargs, first, out: 1)

    tr.wrap(applications, "sample_null_batch", "applications.draw",
            after=lambda args, kwargs, first, out: len(out))
    tr.wrap(applications, "sample_null", "applications.draw",
            after=lambda args, kwargs, first, out: 1)
    tr.wrap(applications, "_lrt_batch", "applications.lrt",
            after=lambda args, kwargs, first, out: len(out))
    tr.wrap(applications, "lrt_statistic", "applications.lrt",
            after=lambda args, kwargs, first, out: 1)
    tr.wrap(applications, "_truncated_indicator", "applications.inner_run")

    def charge(args, kwargs, first, out):
        tr.charged += out.samples_used
        return out.samples_used

    tr.wrap(applications, "bootstrap_pvalue", "applications.bootstrap", after=charge)
    tr.wrap(applications, "double_bootstrap", "applications.double_bootstrap", after=charge)
    return tr


# -- per-layer metrics --------------------------------------------------------

#: name -> unit of every per-layer metric, in the order they are reported
PER_LAYER = {
    "cli.import_s": "s",
    "boundary.extend_steps": "steps",
    "boundary.extend_s": "s",
    "boundary.us_per_step": "us",
    "boundary.table_mb": "MB",
    "runner.scan_s": "s",
    "runner.source_s": "s",
    "runner.bits_drawn": "bits",
    "runner.consumed_per_drawn": "ratio",
    "runner.interim_s": "s",
    "runner.interim_extend_steps": "steps",
    "inference.sweep_steps": "steps",
    "inference.sweep_s": "s",
    "inference.us_per_sweep_step": "us",
    "inference.counts_steps": "steps",
    "inference.counts_s": "s",
    "inference.counts_mb": "MB",
    "inference.masses_calls": "count",
    "inference.masses_distinct_share": "ratio",
    "inference.masses_s": "s",
    "inference.ci_s": "s",
    "applications.tables_drawn": "tables",
    "applications.charged_per_drawn": "ratio",
    "applications.draw_s": "s",
    "applications.lrt_s": "s",
    "applications.us_per_table": "us",
    "applications.inner_run_s": "s",
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def totals(tr: Tracer) -> dict:
    """Self time and work per layer key, and the tracer's counts.

    The totals of several processes add up (``metrics`` merges them).
    """
    spans = tr.spans
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[4] is not None:
            child[sp[4]] += sp[3] - sp[2]
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}

    def add(key, span):
        self_s[key] = self_s.get(key, 0.0) + (span[3] - span[2]) - child[span[0]]
        work[key] = work.get(key, 0) + span[6]

    for sp in spans:
        name = sp[1]
        parent = spans[sp[4]][1] if sp[4] is not None else None
        if name == "source.take":
            if parent == "runner.run":
                add("runner.source", sp)
            elif parent == "applications.inner_run":
                add("applications.inner_run", sp)
        elif name == "boundary.extend":
            add("boundary.extend", sp)
            if parent == "runner.interim":
                work["runner.interim_extend"] = work.get("runner.interim_extend", 0) + sp[6]
        else:
            add(name, sp)
    return {"self_s": self_s, "work": work, "charged": tr.charged, "run_steps": tr.run_steps,
            "table_bytes": tr.table_bytes, "counts_bytes": tr.counts_bytes,
            "masses_distinct": len(tr.masses_ps)}


def metrics(parts: list[dict], import_s: float) -> dict:
    """Per-layer metrics from the totals of one or more traced processes."""

    def s(key):
        return sum(p["self_s"].get(key, 0.0) for p in parts)

    def w(key):
        return sum(p["work"].get(key, 0) for p in parts)

    def total(key):
        return sum(p[key] for p in parts)

    tables = w("applications.draw")
    calls = w("inference.masses")
    return {
        "cli.import_s": import_s,
        "boundary.extend_steps": w("boundary.extend"),
        "boundary.extend_s": s("boundary.extend"),
        "boundary.us_per_step": 1e6 * _ratio(s("boundary.extend"), w("boundary.extend")),
        "boundary.table_mb": max(p["table_bytes"] for p in parts) / 1e6,
        "runner.scan_s": s("runner.run"),
        "runner.source_s": s("runner.source"),
        "runner.bits_drawn": w("runner.source"),
        "runner.consumed_per_drawn": _ratio(total("run_steps"), w("runner.source")),
        "runner.interim_s": s("runner.interim"),
        "runner.interim_extend_steps": w("runner.interim_extend"),
        "inference.sweep_steps": w("inference.sweep"),
        "inference.sweep_s": s("inference.sweep"),
        "inference.us_per_sweep_step": 1e6 * _ratio(s("inference.sweep"), w("inference.sweep")),
        "inference.counts_steps": w("inference.counts"),
        "inference.counts_s": s("inference.counts"),
        "inference.counts_mb": max(p["counts_bytes"] for p in parts) / 1e6,
        "inference.masses_calls": calls,
        "inference.masses_distinct_share": _ratio(total("masses_distinct"), calls),
        "inference.masses_s": s("inference.masses"),
        "inference.ci_s": s("inference.ci"),
        "applications.tables_drawn": tables,
        "applications.charged_per_drawn": _ratio(total("charged"), tables),
        "applications.draw_s": s("applications.draw"),
        "applications.lrt_s": s("applications.lrt"),
        "applications.us_per_table": 1e6 * _ratio(
            s("applications.draw") + s("applications.lrt"), tables),
        "applications.inner_run_s": s("applications.inner_run"),
    }
