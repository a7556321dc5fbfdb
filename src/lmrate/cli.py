"""Command-line front end.

Builds problem instances from named presets or a JSON config file, runs
solves, residual traces, SNR sweeps, solver-vs-oracle comparisons, and
GMI evaluations, and emits CSV/JSON artifacts.  Rates are reported in
bits unless --nats is passed; internal math is in nats throughout.

Exit codes: 0 converged / success, 1 invalid configuration, 2 iteration
budget exhausted, 3 numerical failure.
"""

import argparse
import json
import math
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

from .channel import build_channel, discretize
from .constellation import Scheme, build_constellation
from .dual import newton_oracle
from .errors import BracketError, LmrateError
from .gmi import gmi
from .sinkhorn import SolverConfig, SolveStatus, solve

LN2 = math.log(2.0)

_EXIT_BY_STATUS = {
    SolveStatus.CONVERGED: 0,
    SolveStatus.MAX_ITERS: 2,
    SolveStatus.NUMERICAL_FAILURE: 3,
}

_DEFAULTS = {
    "modulation": "qpsk",
    "eta": 0.9,
    "theta": math.pi / 18.0,
    "snr_db": 0.0,
    "grid": 10,
    "tol": 1e-10,
    "max_iters": 500,
    "lambda_strategy": None,   # solver picks root/project from the instance
    "tau": None,
    "lambda_init": 1.0,
    "threshold": None,
    "trials": 3,
    "workers": 1,
    "with_gmi": False,
    "nats": False,
}


class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def parse_angle(text) -> float:
    """Angles as plain floats or 'pi/18', '2*pi/9', '-pi/4' style literals."""
    s = str(text).strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    m = re.fullmatch(r"(-?\d*\.?\d*)\*?pi(?:/(\d+\.?\d*))?", s)
    if m is None:
        raise ValueError(f"cannot parse angle {text!r}")
    coef = m.group(1)
    if coef in ("", "-"):
        num = -1.0 if coef == "-" else 1.0
    else:
        num = float(coef)
    den = float(m.group(2)) if m.group(2) else 1.0
    return num * math.pi / den


# ---------------------------------------------------------------------------
# config resolution: defaults < JSON config file < explicit flags
# ---------------------------------------------------------------------------


def _norm_list(field, value, parse, item_name):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    if not parts:
        raise ConfigError(field, "list must be non-empty")
    out = []
    for part in parts:
        try:
            out.append(parse(part))
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(field, f"bad {item_name} {part!r}: {err}")
    return out


def _norm_modulation(token) -> str:
    return Scheme(str(token).strip().lower()).value


def _one(field, values):
    if len(values) != 1:
        raise ConfigError(field, f"expected a single value, got {len(values)}")
    return values[0]


def _number(value, kind=float):
    """value as kind; a JSON boolean is no number, and an int takes only integral values."""
    if isinstance(value, bool) or (kind is int and int(value) != float(value)):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def _positive(field, value, kind=float, zero_ok=False):
    """value as a finite kind, above zero (or at it, when zero_ok)."""
    try:
        value = _number(value, kind)
    except (ValueError, TypeError, OverflowError):
        raise ConfigError(field, f"expected {kind.__name__}, got {value!r}")
    if not ((value > 0 or zero_ok and value == 0) and math.isfinite(value)):
        sign = "nonnegative" if zero_ok else "positive"
        raise ConfigError(field, f"must be {sign} and finite, got {value!r}")
    return value


def _resolve_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as err:
            raise ConfigError("config", f"cannot read {path}: {err}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError("config", f"malformed JSON: {err}")
        if not isinstance(data, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key, value in data.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"config.{key}", "unknown field")
            cfg[key] = value
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if key in ("with_gmi", "nats"):
            if flag_value:
                cfg[key] = True
        elif flag_value is not None:
            cfg[key] = flag_value

    cfg["modulation"] = _norm_list("modulation", cfg["modulation"],
                                   _norm_modulation, "modulation")
    cfg["eta"] = _norm_list("eta", cfg["eta"], lambda v: _positive("eta", v), "number")
    cfg["theta"] = _norm_list("theta", cfg["theta"], parse_angle, "angle")
    cfg["snr_db"] = _norm_list("snr_db", cfg["snr_db"], _number, "number")
    for field in ("theta", "snr_db"):
        for v in cfg[field]:
            if not math.isfinite(v):
                raise ConfigError(field, f"must be finite, got {v!r}")
    cfg["grid"] = _norm_list("grid", cfg["grid"], lambda v: _positive("grid", v, int),
                             "integer")
    for v in cfg["grid"]:
        if v < 2:
            raise ConfigError("grid", f"n_side must be at least 2, got {v}")
    cfg["tol"] = _positive("tol", cfg["tol"])
    cfg["max_iters"] = _positive("max_iters", cfg["max_iters"], int)
    if cfg["lambda_strategy"] is not None:
        if cfg["lambda_strategy"] not in ("project", "root"):
            raise ConfigError("lambda_strategy",
                              f"must be 'project' or 'root', got {cfg['lambda_strategy']!r}")
    if cfg["tau"] is not None:
        cfg["tau"] = _positive("tau", cfg["tau"])
    cfg["lambda_init"] = _positive("lambda_init", cfg["lambda_init"], zero_ok=True)
    if cfg["threshold"] is not None:
        cfg["threshold"] = _positive("threshold", cfg["threshold"])
    cfg["trials"] = _positive("trials", cfg["trials"], int)
    cfg["workers"] = _positive("workers", cfg["workers"], int)
    for field in ("with_gmi", "nats"):
        if not isinstance(cfg[field], bool):
            raise ConfigError(field, f"must be true or false, got {cfg[field]!r}")
    return cfg


def _scalar_view(cfg) -> dict:
    """Collapse the list-valued fields for single-instance commands."""
    out = dict(cfg)
    for field in ("modulation", "eta", "theta", "snr_db", "grid"):
        out[field] = _one(field, cfg[field])
    return out


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(
        max_iters=cfg["max_iters"],
        tol=cfg["tol"],
        lambda_strategy=cfg["lambda_strategy"] or "auto",
        tau=cfg["tau"],
        lambda_init=cfg["lambda_init"],
    )


def _build_problem(view):
    """(constellation, grid, problem) named by a scalar config view."""
    cons = build_constellation(view["modulation"])
    chan = build_channel(1.0, view["eta"], view["theta"], view["snr_db"])
    grid_obj, prob = discretize(chan, cons, view["grid"])
    if view["threshold"] is not None:
        prob = prob.with_threshold(float(view["threshold"]))
    return cons, grid_obj, prob


def _mean_seconds(trials, run):
    """(mean wall time over trials calls of run(), the last call's result)."""
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return sum(times) / len(times), result


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write_text(out_path, text) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path) -> None:
    _write_text(out_path, json.dumps(obj, indent=2) + "\n")


def _emit_csv(header, rows, cfg, out_path) -> None:
    lines = ["# config: " + json.dumps(cfg), ",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(out_path, "\n".join(lines) + "\n")


def _echo(cfg) -> dict:
    """Config as embedded in artifacts: everything but the output path."""
    return {k: v for k, v in cfg.items() if k != "out"}


def _rate_key(cfg, stem: str) -> str:
    return f"{stem}_nats" if cfg["nats"] else f"{stem}_bits"


def _rate_value(cfg, nats: float) -> float:
    return nats if cfg["nats"] else nats / LN2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg) -> int:
    sc = _scalar_view(cfg)
    start = time.perf_counter()
    _, _, prob = _build_problem(sc)
    report = solve(prob, _solver_config(sc))
    runtime_ms = (time.perf_counter() - start) * 1e3
    if report.residual_trace:
        last = report.residual_trace[-1]
        final_residuals = {"r_phi": last.r_phi, "r_psi": last.r_psi,
                           "r_lambda": last.r_lambda}
    else:
        final_residuals = None
    result = {
        "modulation": sc["modulation"],
        "eta": sc["eta"],
        "theta": sc["theta"],
        "snr_db": sc["snr_db"],
        "n": prob.n,
        "iterations": report.iterations,
        _rate_key(sc, "lm_rate"): _rate_value(sc, report.lm_rate_nats),
        "lambda": report.lambda_final,
        "final_residuals": final_residuals,
        "status": report.status.value,
        "runtime_ms": runtime_ms,
        "config": _echo(sc),
    }
    if sc["with_gmi"]:
        try:
            result[_rate_key(sc, "gmi")] = _rate_value(sc, gmi(prob).value_nats)
        except BracketError as err:
            result["gmi_error"] = str(err)
    if report.failure_reason:
        result["failure_reason"] = report.failure_reason
    _emit_json(result, sc["out"])
    return _EXIT_BY_STATUS[report.status]


def cmd_residuals(cfg) -> int:
    sc = _scalar_view(cfg)
    _, _, prob = _build_problem(sc)
    report = solve(prob, _solver_config(sc))
    header = ["iter", "r_phi", "r_psi", "r_lambda", "dual_objective", "lm_rate_nats"]
    rows = [(r.iter, r.r_phi, r.r_psi, r.r_lambda, r.dual_objective, r.lm_rate_nats)
            for r in report.residual_trace]
    _emit_csv(header, rows, _echo(sc), sc["out"])
    return _EXIT_BY_STATUS[report.status]


def _sweep_cell(payload) -> list:
    """One sweep row; runs in a worker process, must stay picklable."""
    modulation, eta, theta, snr_db = payload["cell"]
    cfg = payload["cfg"]
    row = [modulation, eta, theta, snr_db, None, None, None, None, 0]
    try:
        _, _, prob = _build_problem(dict(cfg, modulation=modulation, eta=eta,
                                         theta=theta, snr_db=snr_db))
        report = solve(prob, _solver_config(cfg))
        row[4] = _rate_value(cfg, report.lm_rate_nats)
        row[6] = report.lambda_final
        row[7] = report.iterations
        row[8] = _EXIT_BY_STATUS[report.status]
        row[5] = _rate_value(cfg, gmi(prob).value_nats)
    except LmrateError:
        row[8] = 1 if row[7] is None else 3
    return row


def cmd_sweep(cfg) -> int:
    cells = sorted(product(cfg["modulation"], cfg["eta"], cfg["theta"], cfg["snr_db"]))
    cell_cfg = _echo(cfg)
    cell_cfg["grid"] = _one("grid", cfg["grid"])
    payloads = [{"cell": cell, "cfg": cell_cfg} for cell in cells]
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            rows = list(pool.map(_sweep_cell, payloads))
    else:
        rows = [_sweep_cell(payload) for payload in payloads]
    header = ["modulation", "eta", "theta", "snr_db", _rate_key(cfg, "lm_rate"),
              _rate_key(cfg, "gmi"), "lambda", "iterations", "status"]
    _emit_csv(header, rows, cell_cfg, cfg["out"])
    return 0


def cmd_compare(cfg) -> int:
    sc = dict(cfg)
    for field in ("eta", "theta", "snr_db"):
        sc[field] = _one(field, cfg[field])
    rows = []
    for modulation in cfg["modulation"]:
        for grid in cfg["grid"]:
            _, _, prob = _build_problem(dict(sc, modulation=modulation, grid=grid))
            solver_cfg = _solver_config(sc)
            t_sink, report = _mean_seconds(sc["trials"], lambda: solve(prob, solver_cfg))
            t_oracle, oracle = _mean_seconds(
                sc["trials"], lambda: newton_oracle(prob, tol=sc["tol"]))
            diff = abs(_rate_value(sc, report.lm_rate_nats)
                       - _rate_value(sc, oracle.lm_rate_nats))
            rows.append([modulation, prob.n, t_sink, t_oracle, t_oracle / t_sink, diff])
    header = ["scheme", "N", "t_sinkhorn_s", "t_oracle_s", "speedup", "abs_diff"]
    _emit_csv(header, rows, _echo(cfg), cfg["out"])
    return 0


def cmd_gmi(cfg) -> int:
    sc = _scalar_view(cfg)
    _, _, prob = _build_problem(sc)
    try:
        result = gmi(prob)
    except BracketError as err:
        _emit_json({"status": "numerical_failure", "error": str(err),
                    "config": _echo(sc)}, sc["out"])
        return 3
    _emit_json({
        "modulation": sc["modulation"],
        "eta": sc["eta"],
        "theta": sc["theta"],
        "snr_db": sc["snr_db"],
        "n": prob.n,
        _rate_key(sc, "gmi"): _rate_value(sc, result.value_nats),
        "s_star": result.s_star,
        "evaluations": result.evaluations,
        "status": "converged",
        "config": _echo(sc),
    }, sc["out"])
    return 0


def cmd_dump_problem(cfg) -> int:
    sc = _scalar_view(cfg)
    cons, grid_obj, prob = _build_problem(sc)
    _emit_json({
        "config": _echo(sc),
        "constellation": json.loads(cons.to_json()),
        "grid": {"delta": grid_obj.delta, "half_width": grid_obj.half_width,
                 "n_side": grid_obj.n_side,
                 "pruned": [int(k) for k in grid_obj.pruned]},
        "problem": json.loads(prob.to_json()),
    }, sc["out"])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_COMMANDS = {
    "solve": cmd_solve,
    "residuals": cmd_residuals,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "gmi": cmd_gmi,
    "dump-problem": cmd_dump_problem,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like a bad config value: exit code 1."""

    def error(self, message):
        raise ConfigError("command line", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lmrate",
        description="Achievable-rate solver for mismatched decoding on AWGN grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--modulation", help="scheme name(s), comma separated")
        sp.add_argument("--eta", help="second channel gain(s), first gain is 1")
        sp.add_argument("--theta", help="rotation angle(s), e.g. pi/18")
        sp.add_argument("--snr-db", dest="snr_db", help="SNR value(s) in dB")
        sp.add_argument("--grid", help="output nodes per axis (n_side)")
        sp.add_argument("--tol", type=float, help="residual tolerance")
        sp.add_argument("--max-iters", dest="max_iters", type=int)
        sp.add_argument("--lambda-strategy", dest="lambda_strategy",
                        choices=["project", "root"])
        sp.add_argument("--tau", type=float, help="projected multiplier step size")
        sp.add_argument("--lambda-init", dest="lambda_init", type=float)
        sp.add_argument("--threshold", type=float,
                        help="override the metric budget computed from the instance")
        sp.add_argument("--trials", type=int, help="timing repetitions (compare)")
        sp.add_argument("--workers", type=int, help="worker processes (sweep)")
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--nats", action="store_true",
                        help="report rates in nats instead of bits")
        if name == "solve":
            sp.add_argument("--with-gmi", dest="with_gmi", action="store_true",
                            help="include the GMI baseline in the result")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        cfg["out"] = getattr(args, "out", None)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, LmrateError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
