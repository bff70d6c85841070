import io
import json
import subprocess
from contextlib import redirect_stderr, redirect_stdout

import pytest

from seqpval.boundary import BoundaryTable
from seqpval.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_TRUNCATED, main
from seqpval.spending import SpendingSequence


def invoke(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    import sys

    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_boundaries_match_library():
    code, out, _ = invoke(["boundaries", "--n", "50"])
    assert code == EXIT_OK
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(50)
    lines = out.splitlines()
    assert lines[1] == "n,lower,upper,eps_n,hit_lower_cum,hit_upper_cum"
    row1 = lines[2].split(",")
    assert (row1[0], row1[1], row1[2]) == ("1", "-1", "2")
    for n in (10, 50):
        cells = lines[n + 1].split(",")
        assert int(cells[1]) == table.lower(n)
        assert int(cells[2]) == table.upper(n)


def test_boundaries_single_row():
    code, out, _ = invoke(["boundaries", "--n", "1"])
    assert code == EXIT_OK
    assert out.splitlines()[2].startswith("1,-1,2,")


def test_boundaries_rejects_large_epsilon():
    code, _, err = invoke(["boundaries", "--n", "10", "--eps", "0.3"])
    assert code == EXIT_CONFIG
    assert "1/4" in err or "0.25" in err


def test_run_byte_determinism():
    a = invoke(["run", "--simulate-p", "0.2", "--seed", "7"])
    b = invoke(["run", "--simulate-p", "0.2", "--seed", "7"])
    assert a[0] == b[0] == EXIT_OK
    assert a[1] == b[1]
    rec = json.loads(a[1])
    assert rec["seed"] == 7
    assert rec["side"] == "upper"


def test_run_stdin_all_zeros():
    # enough zeros to reach the first lower stop
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(3000)
    n_lo = next(n for n in range(1, 3001) if table.lower(n) >= 0)
    code, out, _ = invoke(["run"], stdin_text="0\n" * (n_lo + 5))
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["side"] == "lower" and rec["n"] == n_lo


def test_run_truncation_exit_code():
    code, out, _ = invoke(["run", "--max-steps", "5"], stdin_text="0\n1\n0\n0\n0\n")
    assert code == EXIT_TRUNCATED
    rec = json.loads(out)
    assert rec["status"] == "truncated"
    assert "interim" in rec


def test_run_progress_goes_to_stderr():
    code, out, err = invoke(
        [
            "run",
            "--simulate-p",
            "0.05",
            "--seed",
            "3",
            "--max-steps",
            "3000",
            "--report-every",
            "1000",
        ]
    )
    assert out.count("\n") == 1  # exactly the final report on stdout
    for line in err.splitlines():
        rec = json.loads(line)
        assert {"n", "s", "p_min", "p_max", "elapsed_ms"} == set(rec)


def test_run_with_ci():
    code, out, _ = invoke(
        ["run", "--simulate-p", "0.2", "--seed", "7", "--ci", "0.1"]
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["ci"]["p_low"] < rec["p_hat"] < rec["ci"]["p_high"]
    # the exact endpoints of this seeded run, pinned
    assert rec["ci"] == {"beta": 0.1, "p_high": 0.25635576248168945,
                         "p_low": 0.11134195327758789}


def test_run_with_uncertified_ci_warns(monkeypatch):
    # where the interim hull proves nothing (past its limit N) the interval
    # falls back to enclosures over the counts it has; at 4000 steps they are
    # wide, so the interval is reported uncertified, with one warning on
    # stderr, and the exit code is the run's
    from seqpval import cli, inference

    real = cli.confidence_interval

    def capped(table, res, beta):
        return real(table, res, beta, counts=inference.StoppingCounts(table, 4000))

    monkeypatch.setattr(inference, "interim_edges", lambda table, n: ((0, 1), (1, 1)))
    monkeypatch.setattr(cli, "confidence_interval", capped)
    code, out, err = invoke(["run", "--simulate-p", "0.03", "--seed", "3", "--ci", "0.1",
                             "--report-seconds", "1e9"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "stopped"
    assert rec["ci"]["p_low"] <= rec["p_hat"] <= rec["ci"]["p_high"]
    (line,) = err.splitlines()
    assert line.startswith("warning: confidence interval not certified")
    assert "at horizon 4000" in line


def test_run_invalid_bits_runtime_error():
    code, _, err = invoke(["run"], stdin_text="0\nx\n")
    assert code == EXIT_RUNTIME
    assert "error" in err


def test_run_cmd_failed_child_is_runtime_error():
    code, out, err = invoke(["run", "--cmd", "printf '0\\n1\\n0\\n'; exit 7"])
    assert code == EXIT_RUNTIME and out == ""
    assert "status 7" in err
    # the same bits from a child that exits 0 are an ordinary truncation
    code, out, _ = invoke(["run", "--cmd", "printf '0\\n1\\n0\\n'"])
    assert code == EXIT_TRUNCATED and json.loads(out)["n"] == 3


def test_run_cmd_child_terminated_and_reaped(monkeypatch):
    started = []
    real_popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    try:
        code, out, _ = invoke(["run", "--cmd", "while true; do echo 1; done"])
        assert code == EXIT_OK and json.loads(out)["side"] == "upper"
        (proc,) = started
        assert proc.returncode is not None  # reaped
        assert proc.returncode < 0  # ended by a signal, still printing
    finally:
        for proc in started:
            proc.kill()
            proc.wait()


def test_risk_naive_anchor_row():
    code, out, _ = invoke(
        ["risk", "--naive-n", "999", "--p", "0.11", "--alpha", "0.1"]
    )
    assert code == EXIT_OK
    line = out.splitlines()[1]
    val = float(line.split(",")[3])
    assert val == pytest.approx(0.146, abs=5e-4)


def test_risk_curve_bounded_by_epsilon():
    code, out, err = invoke(["risk", "--p", "0.2,0.5,0.9", "--horizon", "2000"])
    assert code == EXIT_OK
    assert err == ""  # every row certified
    for line in out.splitlines()[1:]:
        p, rr_lo, rr_hi, e_tau, residual, wald = (float(x) for x in line.split(","))
        assert rr_hi <= 1e-3 + residual + 1e-12
        assert e_tau >= 1.0


def test_risk_warns_on_uncertified_rows():
    # at p = alpha the horizon never doubles, so the bracket stays uncertified
    code, out, err = invoke(["risk", "--p", "0.05,0.2", "--horizon", "2000"])
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3 and "warning" not in out
    (line,) = err.splitlines()
    assert line.startswith("warning: risk bracket at p=0.05 not certified")


def test_risk_warns_on_truncated_e_tau():
    # at p = 0.075 E(tau) is truncated at 500 (P(tau > 500) = 0.889), below
    # its Wald bound; at p = 0.3 it is not
    code, out, err = invoke(["risk", "--p", "0.075,0.3", "--horizon", "500"])
    assert code == EXIT_OK
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 2 and rows[0][3] < rows[0][5]
    (line,) = err.splitlines()
    assert line == ("warning: e_tau at p=0.075 truncated: P(tau > 500) = 0.889, "
                    "so it is E(min(tau, 500))")


def test_risk_p_one_row():
    code, out, _ = invoke(["risk", "--p", "1.0", "--horizon", "500"])
    assert code == EXIT_OK
    p, rr_lo, rr_hi, e_tau, residual, wald = (
        float(x) for x in out.splitlines()[1].split(",")
    )
    assert rr_hi == 0.0  # an all-ones stream can never stop low
    assert residual == 0.0
    assert e_tau == pytest.approx(round(e_tau))  # deterministic stopping step


@pytest.mark.parametrize("argv", [
    ["etau", "--p", "1.5,-0.1", "--horizon", "200"],
    ["risk", "--p", "0.3,1.5", "--horizon", "200"],
    ["risk", "--p", "0.3", "--horizon", "0"],
    ["etau", "--p", "0.3", "--horizon", "0"],
])
def test_curves_reject_p_outside_unit_interval_and_horizon_below_one(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_etau_json_format():
    code, out, _ = invoke(
        ["etau", "--p", "0.3", "--horizon", "500", "--format", "json"]
    )
    assert code == EXIT_OK
    rec = json.loads(out.splitlines()[0])
    assert rec["p"] == 0.3
    assert rec["e_tau"] > 1.0


def test_boundary_file_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    code, _, _ = invoke(["boundaries", "--n", "100", "--boundary-file", path])
    assert code == EXIT_OK
    loaded = BoundaryTable.load(path)
    assert loaded.n_max == 100
    # a run can consume the precomputed file
    code, out, _ = invoke(
        ["run", "--simulate-p", "0.3", "--seed", "1", "--boundary-file", path]
    )
    assert code == EXIT_OK
    assert json.loads(out)["side"] == "upper"


def test_run_ci_on_a_custom_table_shorter_than_1000_steps(tmp_path):
    # the interval's horizon stops at the table's end instead of asking for
    # step 1000 of a 500-entry spending table
    path = tmp_path / "short.csv"
    seq = SpendingSequence.custom(1e-3, SpendingSequence.default(1e-3).values(500))
    BoundaryTable(0.05, seq).extend(500).save(path)
    code, out, err = invoke(["run", "--boundary-file", str(path), "--simulate-p", "0.3",
                             "--seed", "1", "--ci", "0.1"])
    assert code == EXIT_OK, err
    rec = json.loads(out)
    assert rec["status"] == "stopped"
    assert rec["ci"]["p_low"] <= rec["p_hat"] <= rec["ci"]["p_high"]


def test_demo_bootstrap_fields():
    code, out, _ = invoke(["demo", "bootstrap", "--seed", "11"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["chisq_p"] == pytest.approx(0.031, abs=1e-3)
    assert rec["seed"] == 11
    assert rec["bootstrap"]["status"] == "stopped"
    assert rec["samples_used"] >= rec["bootstrap"]["tau"]


def test_demo_interim_at_1000():
    code, out, _ = invoke(
        ["demo", "bootstrap", "--seed", "11", "--max-steps", "1000"]
    )
    assert code == EXIT_TRUNCATED
    rec = json.loads(out)
    assert rec["interim"]["p_min"] < 0.05 < rec["interim"]["p_max"]


def test_demo_determinism():
    a = invoke(["demo", "level", "--seed", "2"])
    b = invoke(["demo", "level", "--seed", "2"])
    assert a == b


def test_demo_level_bootstrap():
    code, out, _ = invoke(
        ["demo", "level-bootstrap", "--seed", "3", "--max-steps", "200", "--inner-m", "50"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["bootstrap"]["side"] == "upper"
    assert invoke(["demo", "triple-level", "--seed", "3"])[0] == EXIT_CONFIG


def test_output_file(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = invoke(
        ["run", "--simulate-p", "0.2", "--seed", "7", "--output", str(path)]
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["seed"] == 7


def test_bad_subcommand_exits_2():
    code, _, _ = invoke(["frobnicate"])
    assert code == EXIT_CONFIG


def test_demo_takes_no_boundary_file():
    code, out, err = invoke(["demo", "bootstrap", "--seed", "11", "--boundary-file", "x.csv"])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "unrecognized arguments: --boundary-file" in err


#: --boundary-file arguments that name files the test writes (None: no file)
BOUNDARY_FILES = {
    "missing.csv": None,
    "garbage.csv": "p,q\n1,2\n",
    "no-n-max.csv": '# seqpval-boundaries {"format": 1, "alpha": 0.05}\n'
                    "n,lower,upper,eps_n,hit_lower_cum,hit_upper_cum\n",
    "valid.csv": BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(3).to_csv_string(),
}


@pytest.mark.parametrize("argv", [
    ["run", "--simulate-p", "0.2", "--seed", "7", "--max-steps", "0"],
    ["run", "--simulate-p", "0.2", "--seed", "7", "--max-steps", "-5"],
    ["run", "--simulate-p", "0.2", "--seed", "7", "--report-every", "-5"],
    ["run", "--simulate-p", "0.2", "--seed", "7", "--ci", "0"],
    ["run", "--simulate-p", "0.2", "--seed", "7", "--ci", "1.5"],
    ["demo", "double-bootstrap", "--seed", "5", "--inner-m", "0"],
    ["demo", "level-bootstrap", "--seed", "3", "--inner-m", "0"],
    ["demo", "bootstrap", "--seed", "11", "--max-steps", "0"],
    ["demo", "level", "--seed", "5", "--alpha", "1.5"],
    ["demo", "double-bootstrap", "--seed", "5", "--eps", "0.3"],
    ["demo", "bootstrap", "--seed", "11", "--k", "0"],
    ["boundaries", "--n", "0"],
    ["risk", "--naive-n", "0", "--p", "0.1"],
    ["risk", "--p", "abc"],
    ["risk", "--p", "0.1:0.2"],
    ["risk", "--p", "0.1:0.2:0"],
    ["etau", "--p", ","],
    ["run", "--simulate-p", "0.2", "--seed", "7", "--boundary-file", "missing.csv"],
    ["run", "--simulate-p", "0.2", "--seed", "7", "--boundary-file", "garbage.csv"],
    ["risk", "--p", "0.3", "--boundary-file", "no-n-max.csv"],
    ["etau", "--p", "0.3", "--boundary-file", "garbage.csv"],
    ["run", "--simulate-p", "1.5", "--seed", "7", "--boundary-file", "valid.csv"],
    ["risk", "--p", "abc", "--boundary-file", "valid.csv"],
    ["etau", "--p", ",", "--boundary-file", "valid.csv"],
], ids=lambda argv: " ".join(argv))
def test_invalid_settings_exit_2_before_any_work(argv, monkeypatch, tmp_path):
    import seqpval.cli as cli

    for name, text in BOUNDARY_FILES.items():
        if text is not None:
            (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BOUNDARY_FILES else a for a in argv]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the settings were checked")

    monkeypatch.setattr(BoundaryTable, "extend", no_work)
    for name in ("bootstrap_pvalue", "check_level", "double_bootstrap",
                 "check_level_bootstrap"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = invoke(argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_tampered_boundary_file_exits_2(tmp_path):
    path = tmp_path / "table.csv"
    assert invoke(["boundaries", "--n", "600", "--boundary-file", str(path)])[0] == EXIT_OK
    lines = path.read_text().splitlines()
    cells = lines[502].split(",")  # the row of step 501
    assert cells[0] == "501"
    cells[2] = str(int(cells[2]) + 1)  # U_501
    lines[502] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = invoke(["run", "--simulate-p", "0.2", "--seed", "7",
                             "--boundary-file", str(path)])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "upper column" in err
