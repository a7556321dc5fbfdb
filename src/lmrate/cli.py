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
from dataclasses import fields
from functools import partial
from itertools import product
from pathlib import Path

from .channel import build_channel, discretize
from .constellation import Scheme, build_constellation
from .dual import newton_oracle
from .errors import LmrateError, NumericalFailureError
from .gmi import gmi
from .sinkhorn import LambdaStrategy, SolverConfig, SolveStatus, solve

LN2 = math.log(2.0)

_EXIT_BY_STATUS = {
    SolveStatus.CONVERGED: 0,
    SolveStatus.MAX_ITERS: 2,
    SolveStatus.NUMERICAL_FAILURE: 3,
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
    coef, den = m.group(1), float(m.group(2) or 1.0)
    if den == 0.0:
        raise ValueError(f"angle {text!r} divides by zero")
    return float(coef + "1" if coef in ("", "-") else coef) * math.pi / den


# ---------------------------------------------------------------------------
# config resolution: defaults < JSON config file < explicit flags
# ---------------------------------------------------------------------------


def _listed(parse, item_name="number"):
    """The check of a list setting: a comma-separated string, a list or one
    value, each item through parse(field, item)."""
    def check(field, value):
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip()]
        parts = list(value) if isinstance(value, (list, tuple)) else [value]
        if not parts:
            raise ConfigError(field, "list must be non-empty")
        out = []
        for part in parts:
            try:
                out.append(parse(field, part))
            except (ValueError, TypeError, OverflowError) as err:
                raise ConfigError(field, f"bad {item_name} {part!r}: {err}")
        return out
    return check


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


def _finite(field, value, parse=_number):
    value = parse(value)
    if not math.isfinite(value):
        raise ConfigError(field, f"must be finite, got {value!r}")
    return value


def _n_side(field, value):
    value = _positive(field, value, int)
    if value < 2:
        raise ConfigError(field, f"n_side must be at least 2, got {value}")
    return value


def _optional(check):
    """check, letting None through."""
    return lambda field, value: None if value is None else check(field, value)


def _strategy(field, value):
    if value not in ("project", "root"):
        raise ConfigError(field, f"must be 'project' or 'root', got {value!r}")
    return LambdaStrategy(value).value


def _switch(field, value):
    if not isinstance(value, bool):
        raise ConfigError(field, f"must be true or false, got {value!r}")
    return value


# setting: (default, keywords of its --flag, check(field, value) -> the
# resolved value).  The order is the config echo's; the solver settings take
# SolverConfig's defaults.
_SETTINGS = {
    "modulation": ("qpsk", {"help": "scheme name(s), comma separated"},
                   _listed(lambda _, v: Scheme(str(v).strip().lower()).value, "modulation")),
    "eta": (0.9, {"help": "second channel gain(s), first gain is 1"}, _listed(_positive)),
    "theta": (math.pi / 18.0, {"help": "rotation angle(s), e.g. pi/18"},
              _listed(partial(_finite, parse=parse_angle), "angle")),
    "snr_db": (0.0, {"help": "SNR value(s) in dB"}, _listed(_finite)),
    "grid": (10, {"help": "output nodes per axis (n_side)"}, _listed(_n_side)),
    "tol": (SolverConfig.tol, {"type": float, "help": "residual tolerance"}, _positive),
    "max_iters": (SolverConfig.max_iters, {"type": int}, partial(_positive, kind=int)),
    "lambda_strategy": (SolverConfig.lambda_strategy, {"choices": ["project", "root"]},
                        _strategy),
    "tau": (SolverConfig.tau, {"type": float, "help": "projected multiplier step size"},
            _optional(_positive)),
    "lambda_init": (SolverConfig.lambda_init, {"type": float},
                    _optional(partial(_positive, zero_ok=True))),
    "threshold": (None, {"type": float,
                         "help": "override the metric budget computed from the instance"},
                  _optional(_positive)),
    "trials": (3, {"type": int, "help": "timing repetitions (compare)"},
               partial(_positive, kind=int)),
    "workers": (1, {"type": int, "help": "worker processes (sweep)"},
                partial(_positive, kind=int)),
    "with_gmi": (False, {"action": "store_true",
                         "help": "include the GMI baseline in the result"}, _switch),
    "nats": (False, {"action": "store_true", "help": "report rates in nats instead of bits"},
             _switch),
}


def _resolve_config(args) -> dict:
    cfg = {key: default for key, (default, _, _) in _SETTINGS.items()}
    if args.config:
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
            if key not in _SETTINGS:
                raise ConfigError(f"config.{key}", "unknown field")
            cfg[key] = value
    for key in _SETTINGS:
        flag = getattr(args, key, None)     # no --with-gmi outside solve
        if flag is not None and flag is not False:     # False: a switch not given
            cfg[key] = flag
    return {key: check(key, cfg[key]) for key, (_, _, check) in _SETTINGS.items()}


def _scalar_view(cfg, keys=("modulation", "eta", "theta", "snr_db", "grid")) -> dict:
    """Collapse the list-valued fields (all by default) for single-instance commands."""
    return {**cfg, **{key: _one(key, cfg[key]) for key in keys}}


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(**{f.name: cfg[f.name] for f in fields(SolverConfig)})


def _build_problem(view):
    """(constellation, grid, problem) named by a scalar config view."""
    cons = build_constellation(view["modulation"])
    chan = build_channel(1.0, view["eta"], view["theta"], view["snr_db"])
    grid_obj, prob = discretize(chan, cons, view["grid"])
    if view["threshold"] is not None:
        prob = prob.with_threshold(float(view["threshold"]))
    return cons, grid_obj, prob


def _gmi_of(prob, report):
    """The GMI of prob: the one whose tilt started the solve, if one did."""
    return report.gmi if report.gmi is not None else gmi(prob)


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


def _instance(sc, prob) -> dict:
    """The fields that name the instance at the head of a solve or gmi result."""
    return {**{key: sc[key] for key in ("modulation", "eta", "theta", "snr_db")}, "n": prob.n}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg) -> int:
    sc = _scalar_view(cfg)
    start = time.perf_counter()
    _, _, prob = _build_problem(sc)
    report = solve(prob, _solver_config(sc))
    runtime_ms = (time.perf_counter() - start) * 1e3
    last = report.residual_trace[-1] if report.residual_trace else None
    result = {
        **_instance(sc, prob),
        "iterations": report.iterations,
        _rate_key(sc, "lm_rate"): _rate_value(sc, report.lm_rate_nats),
        "lambda": report.lambda_final,
        "final_residuals": last and {"r_phi": last.r_phi, "r_psi": last.r_psi,
                                     "r_lambda": last.r_lambda},
        "status": report.status.value,
        "runtime_ms": runtime_ms,
        "config": _echo(sc),
    }
    if sc["with_gmi"]:
        try:
            result[_rate_key(sc, "gmi")] = _rate_value(sc, _gmi_of(prob, report).value_nats)
        except NumericalFailureError as err:
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
        row[5] = _rate_value(cfg, _gmi_of(prob, report).value_nats)
    except LmrateError:
        row[8] = 1 if row[7] is None else 3
    return row


def cmd_sweep(cfg) -> int:
    cells = sorted(product(cfg["modulation"], cfg["eta"], cfg["theta"], cfg["snr_db"]))
    cell_cfg = _scalar_view(_echo(cfg), ("grid",))
    payloads = [{"cell": cell, "cfg": cell_cfg} for cell in cells]
    if cfg["workers"] > 1:
        # imported here: concurrent.futures.process pulls in multiprocessing,
        # socket and subprocess, most of the cost of importing this module
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            rows = list(pool.map(_sweep_cell, payloads))
    else:
        rows = [_sweep_cell(payload) for payload in payloads]
    header = ["modulation", "eta", "theta", "snr_db", _rate_key(cfg, "lm_rate"),
              _rate_key(cfg, "gmi"), "lambda", "iterations", "status"]
    _emit_csv(header, rows, cell_cfg, cfg["out"])
    return 0


def cmd_compare(cfg) -> int:
    sc = _scalar_view(cfg, ("eta", "theta", "snr_db"))
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
    except NumericalFailureError as err:
        _emit_json({"status": "numerical_failure", "error": str(err),
                    "config": _echo(sc)}, sc["out"])
        return 3
    _emit_json({
        **_instance(sc, prob),
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
        # --help lists the value flags, --config and --out, then the switches;
        # --with-gmi is solve's alone
        for key, (_, flag, _) in _SETTINGS.items():
            if "action" not in flag:
                sp.add_argument("--" + key.replace("_", "-"), **flag)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="output path (default stdout)")
        for key in ("nats", "with_gmi") if name == "solve" else ("nats",):
            sp.add_argument("--" + key.replace("_", "-"), **_SETTINGS[key][1])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        cfg["out"] = args.out
        return _COMMANDS[args.command](cfg)
    except (ConfigError, LmrateError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
