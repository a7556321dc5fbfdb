"""The three benchmark workloads and the checks on their answers.

Each workload is a list of cells run one after another by a single caller
(a closed loop with one client).  ``setup`` builds the instances the pass
needs, ``run_pass`` makes one full pass through lmrate's public functions,
and ``check`` turns the pass's answers into one ``Outcome`` per cell.  The
checks hold for every instance, so a jittered seed needs no stored
reference values.
"""

import csv
import math
import random
import traceback
from dataclasses import dataclass, field

import numpy as np

THETA = math.pi / 18
DEFAULT_SEED = 0

LN2 = math.log(2.0)
MI_SLACK_NATS = 1e-9          # LM <= I(X;Y) + slack; the true joint is feasible
GMI_SLACK_NATS = 1e-8         # GMI <= LM + slack
ORACLE_AGREEMENT_BITS = 1e-5
SCALAR_DUAL_NATS = 1e-8


def theta_for_seed(seed):
    """pi/18 for the default seed, else pi/18 plus a seeded offset within +-1 degree."""
    if seed == DEFAULT_SEED:
        return THETA
    return THETA + math.radians(random.Random(seed).uniform(-1.0, 1.0))


@dataclass
class Outcome:
    """One cell's verdict: ``converged`` to its tolerance, and check failures."""

    cell: str
    converged: bool = False
    errors: list = field(default_factory=list)

    @property
    def ok(self):
        return self.converged and not self.errors


def mutual_information(p):
    """I(X;Y) in nats of the discretized joint p_x(i) w(i, j)."""
    joint = p.p_x[:, None] * p.w
    mask = joint > 0.0
    ratio = p.w[mask] / np.broadcast_to(p.p_y[None, :], p.w.shape)[mask]
    return float(np.sum(joint[mask] * np.log(ratio)))


def _check_residuals(out, report, tol):
    last = report.residual_trace[-1]
    worst = max(last.r_phi, last.r_psi, last.r_lambda)
    if not worst <= tol:
        out.errors.append(f"reports convergence with residual {worst!r} > tol {tol!r}")


def _check_rates(out, p, lm_nats, gmi_nats=None):
    mi = mutual_information(p)
    if not lm_nats <= mi + MI_SLACK_NATS:
        out.errors.append(f"LM {lm_nats!r} nats exceeds I(X;Y) {mi!r} nats")
    if gmi_nats is not None and not gmi_nats <= lm_nats + GMI_SLACK_NATS:
        out.errors.append(f"GMI {gmi_nats!r} nats exceeds LM {lm_nats!r} nats")


def _failed_call(cell):
    # a cell that raised: keep the run going and report the traceback line
    last = traceback.format_exc().strip().splitlines()[-1]
    return Outcome(cell, errors=[f"raised {last}"])


def _build(lmrate, modulation, grid, theta, eta=0.9, snr_db=0.0):
    chan = lmrate.build_channel(1.0, eta, theta, snr_db)
    _, prob = lmrate.discretize(chan, lmrate.build_constellation(modulation), grid)
    return prob


# --------------------------------------------------------------------------
# case-matrix
# --------------------------------------------------------------------------


class CaseMatrix:
    """The baseline case matrix at 0 dB: solve to 1e-10, then GMI, per cell."""

    name = "case-matrix"
    cells = [("qpsk", 50), ("qam16", 50), ("qam64", 50), ("qam256", 50), ("qpsk", 200)]
    tol = 1e-10

    def __init__(self, theta):
        self.theta = theta

    def setup(self, lmrate):
        return [(f"{mod}/grid{grid}", _build(lmrate, mod, grid, self.theta))
                for mod, grid in self.cells]

    def run_pass(self, lmrate, instances, tracer):
        answers = []
        for cell, p in instances:
            tracer.cell = cell
            try:
                report = lmrate.solve(p, lmrate.SolverConfig(max_iters=2000, tol=self.tol))
                answers.append((cell, p, report, lmrate.gmi(p).value_nats))
            except Exception:
                answers.append(_failed_call(cell))
        return answers

    def check(self, answers):
        outcomes = []
        for answer in answers:
            if isinstance(answer, Outcome):
                outcomes.append(answer)
                continue
            cell, p, report, gmi_nats = answer
            out = Outcome(cell, converged=report.converged)
            if report.converged:
                _check_residuals(out, report, self.tol)
                _check_rates(out, p, report.lm_rate_nats, gmi_nats)
            outcomes.append(out)
        return outcomes


# --------------------------------------------------------------------------
# sweep-snr
# --------------------------------------------------------------------------


def _sweep_cell(modulation, eta, snr_db):
    return f"{modulation}/eta{eta:g}/snr{snr_db:g}/grid50"


class SweepSnr:
    """The README scan plus 20 dB through ``lmrate.cli.main``, one worker."""

    name = "sweep-snr"
    modulations = ("qpsk", "qam16")
    etas = (0.8, 0.9)
    snrs = (-5, 0, 5, 10, 15, 20)
    tol = 1e-10                   # CLI default

    def __init__(self, theta, out_path):
        self.theta = theta
        self.out_path = out_path

    @property
    def argv(self):
        return ["sweep", "--modulation", ",".join(self.modulations),
                "--eta=" + ",".join(map(str, self.etas)),
                "--snr-db=" + ",".join(map(str, self.snrs)),
                "--theta", repr(self.theta), "--grid", "50", "--workers", "1",
                "--out", self.out_path]

    def setup(self, lmrate):
        return []                     # the CLI builds every instance itself

    def run_pass(self, lmrate, instances, tracer):
        tracer.cell = "sweep"
        captured = []
        cli = lmrate.cli
        solve = cli.solve

        def capture(p, cfg):
            # keep each cell's instance and report for the checks
            report = solve(p, cfg)
            captured.append((p, report))
            return report

        cli.solve = capture
        try:
            code = cli.main(self.argv)
        except Exception:
            code = _failed_call("sweep").errors[0]
        finally:
            cli.solve = solve
        return code, captured

    def check(self, answers):
        code, captured = answers
        expected = sorted((m, float(e), float(s)) for m in self.modulations
                          for e in self.etas for s in self.snrs)
        if code != 0:
            return [Outcome(_sweep_cell(*cell), errors=[f"cli.main returned {code}"])
                    for cell in expected]
        with open(self.out_path, newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        header, rows = rows[0], rows[1:]
        got = [(r[0], float(r[1]), float(r[3])) for r in rows]
        if got != expected:
            return [Outcome(_sweep_cell(*cell), errors=[f"CSV has rows for {got}"])
                    for cell in expected]
        outcomes = []
        solved = iter(captured)
        for row in rows:
            cell = _sweep_cell(row[0], float(row[1]), float(row[3]))
            status = int(row[header.index("status")])
            has_report = row[header.index("iterations")] != ""
            p, report = next(solved) if has_report else (None, None)
            out = Outcome(cell, converged=status == 0)
            if status in (1, 3):
                out.errors.append(f"cli status {status}")
            elif status == 0:
                # rates are read from the CSV, and only from converged rows
                lm_nats = float(row[4]) * LN2
                gmi_nats = float(row[5]) * LN2
                _check_residuals(out, report, self.tol)
                _check_rates(out, p, lm_nats, gmi_nats)
            outcomes.append(out)
        return outcomes


# --------------------------------------------------------------------------
# oracle-cert
# --------------------------------------------------------------------------


class OracleCert:
    """Cross-checks at 0 dB: scaling vs Newton oracle vs scalar dual, then a
    projected run and its decay certificate."""

    name = "oracle-cert"
    cells = [(mod, grid) for mod in ("qpsk", "qam16") for grid in (10, 15, 20)]
    tol = 1e-12
    projected_tol = 1e-10

    def __init__(self, theta):
        self.theta = theta

    def setup(self, lmrate):
        return [(f"{mod}/grid{grid}", _build(lmrate, mod, grid, self.theta))
                for mod, grid in self.cells]

    def run_pass(self, lmrate, instances, tracer):
        answers = []
        for cell, p in instances:
            tracer.cell = cell
            try:
                report = lmrate.solve(p, lmrate.SolverConfig(max_iters=2000, tol=self.tol))
                oracle = lmrate.newton_oracle(p, tol=self.tol)
                scalar = lmrate.scarlett_dual_value(
                    lmrate.scarlett_point_from_coupling(report.solution, p), p)
                answers.append((cell, p, report, oracle, scalar))
            except Exception:
                answers.append(_failed_call(cell))
        # the projected run reuses the qpsk grid-10 instance and its oracle
        cell = "qpsk/grid10/project"
        tracer.cell = cell
        try:
            if isinstance(answers[0], Outcome):
                raise RuntimeError("the qpsk grid-10 cell failed, so no oracle value")
            _, p, _, oracle, _ = answers[0]
            report = lmrate.solve(p, lmrate.SolverConfig(
                max_iters=300, tol=self.projected_tol, lambda_strategy="project"))
            cert = lmrate.certificate(report, p, oracle.dual_objective,
                                      "newton_oracle(tol=1e-12)")
            answers.append((cell, p, report, cert))
        except Exception:
            answers.append(_failed_call(cell))
        return answers

    def check(self, answers):
        outcomes = []
        for answer in answers:
            if isinstance(answer, Outcome):
                outcomes.append(answer)
            elif len(answer) == 5:
                outcomes.append(self._check_cross(*answer))
            else:
                outcomes.append(self._check_certificate(*answer))
        return outcomes

    def _check_cross(self, cell, p, report, oracle, scalar):
        out = Outcome(cell, converged=report.converged and oracle.converged)
        if not out.converged:
            return out
        _check_residuals(out, report, self.tol)
        _check_rates(out, p, report.lm_rate_nats)
        gap_bits = abs(report.lm_rate_nats - oracle.lm_rate_nats) / LN2
        if not gap_bits <= ORACLE_AGREEMENT_BITS:
            out.errors.append(f"scaling and oracle differ by {gap_bits!r} bits")
        gap = abs(scalar - report.lm_rate_nats)
        if not gap <= SCALAR_DUAL_NATS:
            out.errors.append(f"scalar dual differs from LM by {gap!r} nats")
        return out

    def _check_certificate(self, cell, p, report, cert):
        # a fixed 300-step projected run: the certificate, not convergence,
        # is what this cell is for
        out = Outcome(cell, converged=report.status.value != "numerical_failure")
        if report.converged:
            _check_residuals(out, report, self.projected_tol)
            _check_rates(out, p, report.lm_rate_nats)
        if not cert.bound_satisfied:
            out.errors.append(f"certificate bound fails, margin {cert.worst_margin!r}")
        return out


WORKLOADS = {w.name: w for w in (CaseMatrix, SweepSnr, OracleCert)}

# the traced layers each workload must reach; tracing fails loudly otherwise
EXPECTED_LAYERS = {
    "case-matrix": {
        "channel.discretize", "kernels.scale_rows", "kernels.scale_cols",
        "kernels.coupling_stats", "kernels.metric_moments", "kernels.mismatch_dual_value",
        "sinkhorn.solve", "sinkhorn.solve_multiplier_root", "gmi.gmi"},
    "sweep-snr": {
        "cli.main", "channel.discretize", "kernels.scale_rows", "kernels.scale_rows_lse",
        "kernels.scale_cols", "kernels.scale_cols_lse", "kernels.coupling_stats",
        "kernels.metric_moments", "kernels.mismatch_dual_value", "sinkhorn.solve",
        "sinkhorn.solve_multiplier_root", "gmi.gmi"},
    "oracle-cert": {
        "channel.discretize", "kernels.scale_rows", "kernels.scale_cols",
        "kernels.coupling_stats", "kernels.metric_moments", "kernels.mismatch_dual_value",
        "sinkhorn.solve", "sinkhorn.solve_multiplier_root", "sinkhorn.multiplier_excess",
        "dual.newton_oracle", "dual.dual_gradient", "dual.dual_hessian",
        "dual.certificate", "dual.scarlett_dual_value"},
}
