import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lmrate
from lmrate import BracketError, NumericalFailureError, SolveStatus, cli, sinkhorn
from lmrate.channel import DiscreteProblem
from lmrate.cli import _EXIT_BY_STATUS, main, parse_angle

LN2 = math.log(2.0)


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    echo = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return echo, header, rows


# ---------------------------------------------------------------------------
# angle parsing
# ---------------------------------------------------------------------------


def test_parse_angle_forms():
    assert parse_angle("0.25") == 0.25
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/18") == math.pi / 18.0
    assert parse_angle("2*pi/9") == 2.0 * math.pi / 9.0
    assert parse_angle("2pi") == 2.0 * math.pi
    assert parse_angle("-pi/4") == -math.pi / 4.0
    assert parse_angle(" PI / 6 ".replace(" ", "")) == math.pi / 6.0
    with pytest.raises(ValueError):
        parse_angle("two pi")
    with pytest.raises(ValueError):
        parse_angle("pi/")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_json_schema(capsys):
    rc, doc = _run_json(capsys, ["solve"])
    assert rc == 0
    expected = {"modulation", "eta", "theta", "snr_db", "n", "iterations",
                "lm_rate_bits", "lambda", "final_residuals", "status",
                "runtime_ms", "config"}
    assert set(doc) == expected
    assert doc["status"] == "converged"
    assert doc["modulation"] == "qpsk"
    assert doc["n"] == 100
    assert doc["lm_rate_bits"] > 0.0
    assert doc["lambda"] > 0.0
    res = doc["final_residuals"]
    assert max(res["r_phi"], res["r_psi"], res["r_lambda"]) <= 1e-10
    assert doc["config"]["theta"] == pytest.approx(math.pi / 18.0)
    assert "out" not in doc["config"]


def test_solve_bits_nats_switch(capsys):
    rc, bits_doc = _run_json(capsys, ["solve", "--grid", "6"])
    assert rc == 0
    rc, nats_doc = _run_json(capsys, ["solve", "--grid", "6", "--nats"])
    assert rc == 0
    assert "lm_rate_nats" in nats_doc and "lm_rate_bits" not in nats_doc
    assert bits_doc["lm_rate_bits"] == pytest.approx(
        nats_doc["lm_rate_nats"] / LN2, rel=1e-12)


def test_solve_deterministic_modulo_runtime(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["solve", "--grid", "8", "--out", str(a)]) == 0
    assert main(["solve", "--grid", "8", "--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    da.pop("runtime_ms")
    db.pop("runtime_ms")
    assert da == db


def test_solve_with_gmi_baseline(capsys):
    rc, doc = _run_json(capsys, ["solve", "--grid", "8", "--with-gmi"])
    assert rc == 0
    assert doc["gmi_bits"] <= doc["lm_rate_bits"] + 1e-8


def test_gmi_of_the_start_is_reused(monkeypatch, capsys, tmp_path):
    # a root run from the default start keeps the GMI whose tilt started
    # it, and solve --with-gmi and sweep report that one instead of
    # computing their own
    reports, calls = [], []

    def capture(p, cfg):
        report = solve(p, cfg)
        reports.append(report)
        return report

    solve = cli.solve
    monkeypatch.setattr(cli, "solve", capture)
    monkeypatch.setattr(cli, "gmi", lambda p: calls.append(p))
    rc, doc = _run_json(capsys, ["solve", "--grid", "8", "--with-gmi", "--nats"])
    assert rc == 0
    assert doc["gmi_nats"] == reports[0].gmi.value_nats
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--snr-db=0,5", "--grid", "8", "--nats", "--out", str(path)]) == 0
    _, header, rows = _read_csv(path)
    assert [float(r[header.index("gmi_nats")]) for r in rows] == [
        r.gmi.value_nats for r in reports[1:]]
    assert calls == []


def test_solve_with_gmi_reports_gmi_error(monkeypatch, capsys):
    # from an explicit start no GMI started the run, so solve --with-gmi
    # computes its own, and a failed one is reported next to a good rate:
    # a tilt past the search cap, or any other numerical failure, such as
    # the scalar search's evaluation budget
    for error in (BracketError("zero still beyond the search cap 1e+06"),
                  NumericalFailureError("Newton search unresolved after 200 evaluations")):
        def failed(p):
            raise error

        monkeypatch.setattr(cli, "gmi", failed)
        rc, doc = _run_json(capsys, ["solve", "--grid", "8", "--with-gmi", "--lambda-init", "1"])
        assert rc == 0
        assert doc["status"] == "converged"
        assert doc["gmi_error"] == str(error)
        assert "gmi_bits" not in doc


def test_solve_failing_in_its_first_iteration(monkeypatch, capsys):
    # no iteration completes: no residuals to report, exit 3 with the reason
    evaluate = sinkhorn.evaluate

    def broken(*args):
        row = evaluate(*args)
        return dataclasses.replace(row, dual_objective=math.nan) if row.iter == 1 else row

    monkeypatch.setattr(sinkhorn, "evaluate", broken)
    rc, doc = _run_json(capsys, ["solve", "--grid", "8"])
    assert rc == 3
    assert (doc["status"], doc["iterations"]) == ("numerical_failure", 0)
    assert doc["final_residuals"] is None
    assert doc["failure_reason"] == "coupling evaluation became non-finite"


def test_config_null_lambda_init_is_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_init": None, "grid": 6}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["solve", "--grid", "6", "--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["config"]["lambda_init"] is None
    assert (da["iterations"], da["lm_rate_bits"]) == (db["iterations"], db["lm_rate_bits"])


def test_solve_budget_exhausted_exit(capsys):
    rc, doc = _run_json(capsys, ["solve", "--max-iters", "1"])
    assert rc == 2
    assert doc["status"] == "max_iters"
    assert doc["iterations"] == 1


def test_solve_threshold_override_deactivates_constraint(capsys):
    rc, doc = _run_json(capsys, ["solve", "--grid", "6", "--threshold", "500",
                                 "--nats"])
    assert rc == 0
    assert doc["lambda"] == 0.0
    assert abs(doc["lm_rate_nats"]) <= 1e-9


def test_solve_explicit_strategy_and_stepsize(capsys):
    rc, doc = _run_json(capsys, ["solve", "--grid", "8",
                                 "--lambda-strategy", "project", "--tau", "1.0"])
    assert rc == 0
    rc2, doc2 = _run_json(capsys, ["solve", "--grid", "8",
                                   "--lambda-strategy", "root"])
    assert rc2 == 0
    assert doc["lm_rate_bits"] == pytest.approx(doc2["lm_rate_bits"], abs=1e-8)


def test_exit_code_table_is_total():
    assert _EXIT_BY_STATUS[SolveStatus.CONVERGED] == 0
    assert _EXIT_BY_STATUS[SolveStatus.MAX_ITERS] == 2
    assert _EXIT_BY_STATUS[SolveStatus.NUMERICAL_FAILURE] == 3
    assert set(_EXIT_BY_STATUS) == set(SolveStatus)


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv,needle", [
    (["solve", "--eta", "0"], "eta"),
    (["solve", "--grid", "1"], "grid"),
    (["solve", "--theta", "sideways"], "theta"),
    (["solve", "--snr-db=0,5"], "snr_db"),
    (["solve", "--tol", "-1"], "tol"),
    (["solve", "--modulation", "qam32"], "modulation"),
    (["solve", "--eta", ","], "eta"),
    (["solve", "--eta", "inf"], "eta"),
    (["solve", "--tau", "inf"], "tau"),
    (["solve", "--tol", "inf"], "tol"),
    # argparse's own errors: exit 2 is reserved for an exhausted iteration budget
    (["solve", "--max-iters", "abc"], "--max-iters"),
    (["solve", "--lambda-strategy", "auto"], "--lambda-strategy"),
    (["solve", "--bogus"], "--bogus"),
    # values that parse but are not finite
    (["solve", "--snr-db", "inf"], "snr_db: must be finite"),
    (["solve", "--theta", "nan"], "theta: must be finite"),
    # finite values no instance can be built from
    (["solve", "--theta", "pi/0"], "theta: bad angle 'pi/0'"),
    (["solve", "--snr-db", "-4000"], "snr_db = -4000.0"),
    (["solve", "--snr-db", "4000"], "snr_db = 4000.0"),
    # a subnormal noise variance and a gain whose squared offsets overflow
    (["solve", "--snr-db", "3100", "--grid", "6"], "noise variance 5e-311"),
    (["solve", "--eta", "1e200", "--grid", "6"], "overflow a double"),
])
def test_invalid_flags_exit_one(capsys, argv, needle):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error:" in captured.err
    assert needle in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--lambda-strategy" in capsys.readouterr().out


# every subcommand's flags, in --help order: (flag, type, choices, default,
# action, help); each flag's dest is its name without the dashes
_FLAGS = [
    ("--help", None, None, argparse.SUPPRESS, "_HelpAction", "show this help message and exit"),
    ("--modulation", None, None, None, "_StoreAction", "scheme name(s), comma separated"),
    ("--eta", None, None, None, "_StoreAction", "second channel gain(s), first gain is 1"),
    ("--theta", None, None, None, "_StoreAction", "rotation angle(s), e.g. pi/18"),
    ("--snr-db", None, None, None, "_StoreAction", "SNR value(s) in dB"),
    ("--grid", None, None, None, "_StoreAction", "output nodes per axis (n_side)"),
    ("--tol", float, None, None, "_StoreAction", "residual tolerance"),
    ("--max-iters", int, None, None, "_StoreAction", None),
    ("--lambda-strategy", None, ["project", "root"], None, "_StoreAction", None),
    ("--tau", float, None, None, "_StoreAction", "projected multiplier step size"),
    ("--lambda-init", float, None, None, "_StoreAction", None),
    ("--threshold", float, None, None, "_StoreAction",
     "override the metric budget computed from the instance"),
    ("--trials", int, None, None, "_StoreAction", "timing repetitions (compare)"),
    ("--workers", int, None, None, "_StoreAction", "worker processes (sweep)"),
    ("--config", None, None, None, "_StoreAction", "JSON config file; flags override it"),
    ("--out", None, None, None, "_StoreAction", "output path (default stdout)"),
    ("--nats", None, None, False, "_StoreTrueAction", "report rates in nats instead of bits"),
]
_WITH_GMI = ("--with-gmi", None, None, False, "_StoreTrueAction",
             "include the GMI baseline in the result")


@pytest.mark.parametrize("command", ["solve", "residuals", "sweep", "compare", "gmi",
                                     "dump-problem"])
def test_flags_pinned(capsys, command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    expected = _FLAGS + [_WITH_GMI] * (command == "solve")
    assert [(a.option_strings[-1], a.type, a.choices, a.default, type(a).__name__, a.help)
            for a in actions] == expected
    assert [a.dest for a in actions] == [f[0][2:].replace("-", "_") for f in expected]
    assert actions[0].option_strings == ["-h", "--help"]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = capsys.readouterr().out.split("\n\n")[-1]
    assert re.findall(r"^  (-h, )?(--[a-z-]+)", options, re.M) == [
        ("-h, " if f[0] == "--help" else "", f[0]) for f in expected]


def test_public_names_pinned():
    # like the flags above, a package name is added or removed on purpose
    assert sorted(lmrate.__all__) == [
        "BracketError", "ChannelSpec", "Constellation", "ConvergenceCertificate", "Coupling",
        "DegenerateGridError", "DiscreteProblem", "DualPoint", "EvaluationError", "GmiResult",
        "InconsistentOracleError", "LambdaStrategy", "LmrateError", "NumericalFailureError",
        "OutputGrid", "ScarlettDualPoint", "Scheme", "SolveReport", "SolveStatus",
        "SolverConfig", "TraceRow", "UnsupportedConfigurationError", "analytic_threshold",
        "build_channel", "build_constellation", "certificate", "discretize", "dual_gradient",
        "dual_hessian", "dual_objective", "gmi", "lm_rate", "multiplier_excess",
        "newton_oracle", "product_coupling", "quadratic_form_positive", "residuals",
        "scaling_null_space", "scarlett_dual_value", "scarlett_point_from_coupling",
        "shannon_entropy", "sinkhorn_step", "solve", "solve_multiplier_root",
        "update_lambda_projection", "update_lambda_rootfind", "validate_constellation"]
    assert all(hasattr(lmrate, name) for name in lmrate.__all__)


def test_config_echo_pinned(capsys, tmp_path):
    rc, doc = _run_json(capsys, ["solve"])
    assert rc == 0
    scalar = [("modulation", "qpsk"), ("eta", 0.9), ("theta", math.pi / 18.0),
              ("snr_db", 0.0), ("grid", 10), ("tol", 1e-10), ("max_iters", 500),
              ("lambda_strategy", "root"), ("tau", None), ("lambda_init", None),
              ("threshold", None), ("trials", 3), ("workers", 1), ("with_gmi", False),
              ("nats", False)]
    assert list(doc["config"].items()) == scalar
    # sweep keeps the swept fields as lists and grid as one value
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(path)]) == 0
    echo, _, _ = _read_csv(path)
    assert list(echo.items()) == [
        (k, [v] if k in ("modulation", "eta", "theta", "snr_db") else v) for k, v in scalar]


@pytest.mark.parametrize("data,field", [
    ({"lambda_init": "abc"}, "lambda_init"),
    ({"lambda_init": -1.0}, "lambda_init"),
    ({"nats": "no"}, "nats"),
    ({"with_gmi": 1}, "with_gmi"),
    ({"max_iters": math.inf}, "max_iters"),   # JSON Infinity
    ({"grid": math.inf}, "grid"),
    # a JSON boolean is never a number, and integer fields take integral values
    ({"max_iters": 2.7}, "max_iters"),
    ({"grid": 6.5}, "grid"),
    ({"trials": 2.5}, "trials"),
    ({"tol": True}, "tol"),
    ({"eta": True}, "eta"),
    ({"snr_db": True}, "snr_db"),
    ({"lambda_init": False}, "lambda_init"),
    ({"lambda_strategy": "newton"}, "lambda_strategy"),
])
def test_config_values_checked_like_flags(tmp_path, capsys, data, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    rc = main(["solve", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_malformed_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out = tmp_path / "result.json"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "malformed JSON" in capsys.readouterr().err
    assert not out.exists()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["solve", "--config", str(cfg)])
    assert rc == 1
    assert "config.bogus" in capsys.readouterr().err


def test_config_top_level_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = main(["solve", "--config", str(cfg)])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


def test_config_file_flags_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snr_db": 5.0, "grid": 6, "theta": "pi/12"}))
    rc, doc = _run_json(capsys, ["solve", "--config", str(cfg), "--snr-db", "3",
                                 "--max-iters", "3000"])
    assert rc == 0
    # the flag wins, the file fills the rest, defaults close the gaps
    assert doc["snr_db"] == 3.0
    assert doc["config"]["grid"] == 6
    assert doc["theta"] == pytest.approx(math.pi / 12.0)
    assert doc["eta"] == 0.9


def test_missing_config_file(capsys):
    rc = main(["solve", "--config", "/nonexistent/cfg.json"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residuals_csv_contract(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    rc = main(["residuals", "--grid", "8", "--out", str(path)])
    assert rc == 0
    echo, header, rows = _read_csv(path)
    assert header == ["iter", "r_phi", "r_psi", "r_lambda", "dual_objective",
                      "lm_rate_nats"]
    assert echo["grid"] == 8
    assert "out" not in echo

    rc, doc = _run_json(capsys, ["solve", "--grid", "8"])
    assert rc == 0
    assert len(rows) == doc["iterations"]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    last = rows[-1]
    assert max(float(last[1]), float(last[2]), float(last[3])) <= 1e-10
    # dual objective column is non-increasing for the root-find default
    duals = [float(r[4]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(duals, duals[1:]))


def test_residuals_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["residuals", "--grid", "8", "--out", str(a)]) == 0
    assert main(["residuals", "--grid", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_sorted_and_bounded(tmp_path):
    path = tmp_path / "sweep.csv"
    # the 5 dB cells take a few thousand iterations on this coarse grid
    rc = main(["sweep", "--modulation", "qpsk", "--eta", "0.8,0.9",
               "--snr-db=-5,0,5", "--grid", "8", "--max-iters", "12000",
               "--out", str(path)])
    assert rc == 0
    echo, header, rows = _read_csv(path)
    assert header == ["modulation", "eta", "theta", "snr_db", "lm_rate_bits",
                      "gmi_bits", "lambda", "iterations", "status"]
    assert len(rows) == 6
    keys = [(r[0], float(r[1]), float(r[2]), float(r[3])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r[8] == "0"
        assert float(r[5]) <= float(r[4]) + 1e-8  # GMI below the full rate
    assert echo["grid"] == 8


def test_readme_sweep_example_converges(tmp_path):
    # the README's sweep example, in this process with one worker: every
    # cell reaches tol, the stalled high-SNR ones through the Newton
    # hand-off, and no rate exceeds log2 M or falls below the GMI
    path = tmp_path / "scan.csv"
    rc = main(["sweep", "--modulation", "qpsk,qam16", "--eta=0.8,0.9",
               "--snr-db=-5,0,5,10,15", "--grid", "50", "--workers", "1",
               "--out", str(path)])
    assert rc == 0
    _, header, rows = _read_csv(path)
    assert len(rows) == 20
    assert [r[header.index("status")] for r in rows] == ["0"] * 20
    for r in rows:
        lm, gmi_bits = float(r[4]), float(r[5])
        assert lm <= {"qpsk": 2.0, "qam16": 4.0}[r[0]], r
        assert gmi_bits <= lm + 1e-8 / LN2, r


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    argv = ["sweep", "--snr-db=0,5", "--grid", "6"]
    assert main(argv + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(parallel)]) == 0
    # identical data; the config echo differs in the workers field only
    s_lines = serial.read_text().splitlines()
    p_lines = parallel.read_text().splitlines()
    assert s_lines[1:] == p_lines[1:]
    s_echo = json.loads(s_lines[0][len("# config: "):])
    p_echo = json.loads(p_lines[0][len("# config: "):])
    s_echo.pop("workers")
    p_echo.pop("workers")
    assert s_echo == p_echo


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures.process and its multiprocessing, socket and
    # subprocess imports are most of the cost of importing the cli module;
    # cmd_sweep imports the pool only when it starts workers, so a solve
    # never pays for it (test_sweep_parallel_matches_serial runs the pool)
    code = "import sys, lmrate.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lmrate.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_failed_cell_reports_status(tmp_path):
    path = tmp_path / "sweep.csv"
    # at 400 dB the whole transition table underflows, and at -4000 dB the
    # noise variance overflows: the sweep keeps going and flags those rows
    # instead of dying
    rc = main(["sweep", "--snr-db=0,400,-4000", "--grid", "6", "--out", str(path)])
    assert rc == 0
    _, _, rows = _read_csv(path)
    assert len(rows) == 3
    no_noise, good, bad = rows
    assert float(good[3]) == 0.0 and good[8] == "0"
    assert float(bad[3]) == 400.0 and bad[8] == "1"
    assert bad[4] == "" and bad[5] == ""
    assert float(no_noise[3]) == -4000.0 and no_noise[8] == "1"
    assert no_noise[4] == "" and no_noise[5] == ""


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_solver_against_oracle(tmp_path):
    path = tmp_path / "cmp.csv"
    rc = main(["compare", "--grid", "6,8", "--trials", "1", "--out", str(path)])
    assert rc == 0
    echo, header, rows = _read_csv(path)
    assert header == ["scheme", "N", "t_sinkhorn_s", "t_oracle_s", "speedup",
                      "abs_diff"]
    assert len(rows) == 2
    for r in rows:
        assert r[0] == "qpsk"
        assert float(r[2]) > 0.0 and float(r[3]) > 0.0
        assert float(r[5]) <= 1e-5


def test_compare_oracle_at_grid_50(tmp_path):
    path = tmp_path / "cmp.csv"
    rc = main(["compare", "--grid", "50", "--trials", "1", "--out", str(path)])
    assert rc == 0
    _, _, rows = _read_csv(path)
    assert len(rows) == 1
    row = rows[0]
    assert int(row[1]) == 2500
    assert float(row[2]) > 0.0 and float(row[3]) > 0.0
    assert float(row[4]) > 0.0
    assert float(row[5]) <= 1e-5


# ---------------------------------------------------------------------------
# gmi
# ---------------------------------------------------------------------------


def test_gmi_command(capsys):
    rc, doc = _run_json(capsys, ["gmi", "--grid", "8"])
    assert rc == 0
    assert doc["status"] == "converged"
    assert doc["gmi_bits"] > 0.0
    assert doc["s_star"] > 0.0
    assert doc["evaluations"] > 0


def test_gmi_command_bracket_error_exits_three(monkeypatch, capsys):
    # a tilt past the search cap and any other numerical failure exit 3
    for error in (BracketError("zero still beyond the search cap 1e+06"),
                  NumericalFailureError("Newton search unresolved after 200 evaluations")):
        def failed(p):
            raise error

        monkeypatch.setattr(cli, "gmi", failed)
        rc, doc = _run_json(capsys, ["gmi", "--grid", "8"])
        assert rc == 3
        assert set(doc) == {"status", "error", "config"}
        assert doc["status"] == "numerical_failure"
        assert doc["error"] == str(error)


# ---------------------------------------------------------------------------
# dump-problem
# ---------------------------------------------------------------------------


def test_dump_problem_round_trip(capsys):
    rc, doc = _run_json(capsys, ["dump-problem", "--grid", "6"])
    assert rc == 0
    assert set(doc) == {"config", "constellation", "grid", "problem"}
    assert doc["grid"]["n_side"] == 6
    assert doc["grid"]["delta"] == pytest.approx(16.0 / 5.0)
    prob = DiscreteProblem.from_json(json.dumps(doc["problem"]))
    assert prob.validate() == []
    assert prob.m == 4
    pts = np.asarray(doc["constellation"]["points"])
    assert pts.shape == (4, 2)
