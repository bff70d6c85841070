"""Command-line front end.

Subcommands: ``boundaries`` (emit a stopping-boundary table), ``run`` (drive
the sequential test over simulated, piped, or subprocess-produced bits),
``risk`` / ``etau`` (exact curves over a p grid), and ``demo`` (the bundled
contingency-table workflows).  All randomness is seeded and the seed is
always echoed, so identical invocations produce byte-identical stdout;
progress goes to stderr.

Exit codes: 0 success, 1 truncated without a decision, 2 invalid
configuration, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import secrets
import subprocess
import sys

import numpy as np

from . import __version__
from .applications import (
    EngineConfig,
    bootstrap_pvalue,
    check_level,
    check_level_bootstrap,
    double_bootstrap,
    example_table,
)
from .boundary import BoundaryError, BoundaryTable
from .inference import (
    RISK_RESIDUAL,
    confidence_interval,
    expected_stop_time,
    naive_risk,
    resampling_risk,
    wald_lower_bound,
)
from .runner import BernoulliSampler, TextBitSource, interim_interval, run
from .spending import MAX_EPSILON, SpendingError, SpendingSequence

EXIT_OK = 0
EXIT_TRUNCATED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


#: least values of the integer settings, checked before any work is done
_LEAST = {"n": 1, "max_steps": 1, "report_every": 0, "inner_m": 1, "naive_n": 1}


def _build_table(args, load_file: bool = True) -> BoundaryTable:
    # --boundary-file is a load source everywhere except under `boundaries`,
    # where it names the save destination.  Loading runs the recursion, so
    # callers check their other settings first
    if load_file and getattr(args, "boundary_file", None):
        try:
            return BoundaryTable.load(args.boundary_file)
        except (BoundaryError, OSError) as exc:
            raise ConfigError(f"cannot load --boundary-file: {exc}") from None
    if not (0.0 < args.alpha < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {args.alpha}")
    if not (0.0 < args.eps <= MAX_EPSILON):
        raise ConfigError(
            f"epsilon must satisfy 0 < epsilon <= {MAX_EPSILON} "
            f"(the uniform risk bound requires epsilon <= 1/4), got {args.eps}"
        )
    try:
        seq = SpendingSequence.default(args.eps, args.k)
        return BoundaryTable(args.alpha, seq)
    except (SpendingError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return secrets.randbits(63)


def _emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def cmd_boundaries(args) -> int:
    table = _build_table(args, load_file=False)
    table.extend(args.n)
    if args.boundary_file:
        table.save(args.boundary_file)
        print(f"saved boundaries for n <= {args.n} to {args.boundary_file}")
    else:
        _emit(args, table.to_csv_string())
    return EXIT_OK


def _reap_child(proc, at_eof: bool) -> int:
    """Wait for the child once its output has ended; terminate it first when
    the run stopped reading early.  Returns its exit status."""
    proc.stdout.close()
    if not at_eof:
        proc.terminate()
    try:
        return proc.wait(timeout=None if at_eof else 5)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def cmd_run(args) -> int:
    if args.ci is not None and not (0.0 < args.ci < 1.0):
        raise ConfigError(f"--ci must be in (0, 1), got {args.ci}")
    if args.simulate_p is not None and not (0.0 <= args.simulate_p <= 1.0):
        raise ConfigError(f"--simulate-p must be in [0, 1], got {args.simulate_p}")
    table = _build_table(args)
    seed = None
    proc = None
    if args.simulate_p is not None:
        seed = _resolve_seed(args)
        source = BernoulliSampler(args.simulate_p, seed=seed)
    elif args.cmd:
        proc = subprocess.Popen(
            args.cmd, shell=True, stdout=subprocess.PIPE, text=True
        )
        source = TextBitSource(proc.stdout)
    else:
        source = TextBitSource(sys.stdin)

    def progress(rec):
        print(json.dumps(rec, sort_keys=True), file=sys.stderr, flush=True)

    at_eof = False
    try:
        res = run(
            table,
            source,
            max_steps=args.max_steps,
            report_every=args.report_every,
            report_seconds=args.report_seconds,
            progress=progress,
        )
        # before a stop or the step cap, the run ended because the input did
        at_eof = not res.stopped and (args.max_steps is None or res.n < args.max_steps)
    finally:
        status = _reap_child(proc, at_eof) if proc is not None else 0
    if at_eof and status != 0:
        raise RuntimeError(f"command exited with status {status} after {res.n} bits")
    report = {
        "status": res.status,
        "n": res.n,
        "s": res.s,
        "side": res.side,
        "p_hat": res.p_hat,
        "alpha": table.alpha,
        "epsilon": table.spending.epsilon,
        "seed": seed,
    }
    if res.stopped and args.ci is not None:
        ci = confidence_interval(table, res, args.ci)
        if not ci.certified:
            low_lo, low_hi, high_lo, high_hi = ci.enclosure
            print(f"warning: confidence interval not certified: endpoint enclosures of "
                  f"width {low_hi - low_lo:.3g} and {high_hi - high_lo:.3g} at horizon "
                  f"{ci.horizon}", file=sys.stderr)
        report["ci"] = {"beta": args.ci, "p_low": ci.p_low, "p_high": ci.p_high}
    if not res.stopped:
        p_min, p_max = interim_interval(table, res.n)
        report["interim"] = {"p_min": p_min, "p_max": p_max}
    _emit(args, json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK if res.stopped else EXIT_TRUNCATED


def _parse_grid(spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            lo, hi, num = spec.split(":")
            ps = np.linspace(float(lo), float(hi), int(num))
        else:
            ps = np.array([float(x) for x in spec.split(",")])
        if ps.size:
            return ps
    except ValueError:
        pass
    raise ConfigError(f"--p must be lo:hi:num with num >= 1 or a comma list, got {spec!r}")


def _curve_rows(args, table, ps, want_risk: bool):
    rows = []
    for p in ps:
        try:
            rb = resampling_risk(table, p, args.horizon) if want_risk else None
            et, et_residual = expected_stop_time(table, p, args.horizon)
        except ValueError as exc:  # p outside [0, 1] or a horizon below 1
            raise ConfigError(str(exc)) from None
        if want_risk:
            if not rb.certified:
                print(f"warning: risk bracket at p={float(p)!r} not certified: residual "
                      f"{rb.residual:.3g} at horizon {rb.horizon}", file=sys.stderr)
            # a bracket swept to this same horizon shows this residual already
            if et_residual > RISK_RESIDUAL and rb.horizon != args.horizon:
                print(f"warning: e_tau at p={float(p)!r} truncated: P(tau > {args.horizon}) = "
                      f"{et_residual:.3g}, so it is E(min(tau, {args.horizon}))", file=sys.stderr)
            residual = rb.residual
            rr_lo, rr_hi = rb.lower, rb.upper
        else:
            residual = et_residual
            rr_lo = rr_hi = float("nan")
        try:
            wald = wald_lower_bound(p, table.spending.epsilon, table.alpha)
        except ValueError:
            wald = float("inf")
        rows.append((p, rr_lo, rr_hi, et, residual, wald))
    return rows


def _emit_curve(args, rows):
    if args.format == "json":
        keys = ("p", "rr_lower", "rr_upper", "e_tau", "residual", "wald_bound")
        text = "\n".join(json.dumps(dict(zip(keys, r)), sort_keys=True) for r in rows) + "\n"
    else:
        lines = ["p,rr_lower,rr_upper,e_tau,residual,wald_bound"]
        for r in rows:
            lines.append(",".join(repr(float(x)) for x in r))
        text = "\n".join(lines) + "\n"
    _emit(args, text)


def cmd_risk(args) -> int:
    if args.naive_n is not None:
        if args.p_grid is None:
            raise ConfigError("--naive-n needs --p")
        ps = _parse_grid(args.p_grid)
        lines = ["p,n,alpha,naive_risk"]
        for p in ps:
            lines.append(
                f"{float(p)!r},{args.naive_n},{args.alpha!r},"
                f"{naive_risk(float(p), args.naive_n, args.alpha)!r}"
            )
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    ps = _parse_grid(args.p_grid if args.p_grid else "0.01:0.99:25")
    table = _build_table(args)
    _emit_curve(args, _curve_rows(args, table, ps, want_risk=True))
    return EXIT_OK


def cmd_etau(args) -> int:
    ps = _parse_grid(args.p_grid if args.p_grid else "0.01:0.99:25")
    table = _build_table(args)
    _emit_curve(args, _curve_rows(args, table, ps, want_risk=False))
    return EXIT_OK


def cmd_demo(args) -> int:
    _build_table(args)  # checks --alpha, --eps and --k before any work
    seed = _resolve_seed(args)
    data = example_table()
    cfg = EngineConfig(
        alpha=args.alpha, epsilon=args.eps, k=args.k, seed=seed,
        max_steps=args.max_steps,
    )
    if args.name == "bootstrap":
        rep = bootstrap_pvalue(data, cfg)
    elif args.name == "level":
        rep = check_level(data, config=cfg)
    elif args.name == "double-bootstrap":
        rep = double_bootstrap(data, M=args.inner_m, config=cfg)
    elif args.name == "level-bootstrap":
        rep = check_level_bootstrap(data, M=args.inner_m, config=cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown demo {args.name!r}")
    out = rep.to_json_dict()
    out["seed"] = seed
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    return EXIT_OK if rep.result.stopped else EXIT_TRUNCATED


# -- parser -----------------------------------------------------------------


def _add_common(p, boundary_file: bool = True):
    p.add_argument("--alpha", type=float, default=0.05, help="significance threshold")
    p.add_argument("--eps", type=float, default=1e-3, help="total resampling-risk budget")
    p.add_argument("--k", type=int, default=1000, help="spending-sequence shape parameter")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (echoed in output)")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    if boundary_file:
        p.add_argument("--boundary-file", default=None,
                       help="load (or, for `boundaries`, save) a precomputed table")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seqpval",
        description="Sequential Monte Carlo p-values with bounded resampling risk",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("boundaries", help="compute and emit a boundary table")
    _add_common(b)
    b.add_argument("--n", type=int, required=True, help="largest step to tabulate")
    b.set_defaults(func=cmd_boundaries)

    r = sub.add_parser("run", help="drive the sequential test over a bit stream")
    _add_common(r)
    src = r.add_mutually_exclusive_group()
    src.add_argument("--simulate-p", type=float, default=None,
                     help="simulate Bernoulli(P) bits")
    src.add_argument("--cmd", default=None,
                     help="shell command whose stdout lines are the bits")
    r.add_argument("--max-steps", type=int, default=None)
    r.add_argument("--report-every", type=int, default=10_000)
    r.add_argument("--report-seconds", type=float, default=1.0)
    r.add_argument("--ci", type=float, default=None, metavar="BETA",
                   help="append a 1-BETA confidence interval for stopped runs")
    r.set_defaults(func=cmd_run)

    for name, fn in (("risk", cmd_risk), ("etau", cmd_etau)):
        c = sub.add_parser(name, help=f"exact {name} curve over a p grid")
        _add_common(c)
        c.add_argument("--p", dest="p_grid", default=None,
                       help="grid as lo:hi:num or comma list")
        c.add_argument("--horizon", type=int, default=20_000)
        c.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "risk":
            c.add_argument("--naive-n", type=int, default=None,
                           help="emit the fixed-n naive risk instead")
        c.set_defaults(func=fn)

    d = sub.add_parser("demo", help="bundled contingency-table workflows")
    _add_common(d, boundary_file=False)
    d.add_argument("name", choices=("bootstrap", "level", "double-bootstrap", "level-bootstrap"))
    d.add_argument("--max-steps", type=int, default=None)
    d.add_argument("--inner-m", type=int, default=250)
    d.set_defaults(func=cmd_demo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching our config-error convention
        return int(exc.code) if exc.code else 0
    try:
        for name, least in _LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ConfigError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
        return args.func(args)
    except (ConfigError, SpendingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
