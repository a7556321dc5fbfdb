"""Print one JSON line per seed-0 benchmark cell, for comparing two trees.

    python tools/seed_cells.py [src_path]

Runs one pass of each perfbench workload (case-matrix, sweep-snr,
oracle-cert) at seed 0 through the workloads' own ``run_pass``, with the
lmrate package imported from ``src_path`` (default: this checkout's src/).
Each of the 35 root cells and the projected cell gives a line with its
status, iterations, Newton steps, the repr of its LM rate and GMI (and of
the oracle's rate and the scalar dual, or the certificate's margin, where
the workload takes them), a digest of its trace rows and a digest of its
instance (d, p_y and t).  A last line digests the sweep's CSV.  Two trees
whose lines are equal gave the same bits on every cell; the script checks
nothing and always exits 0.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def cell_line(workload, cell, p, report, **extra) -> dict:
    rows = [tuple(vars(r).values()) for r in report.residual_trace]
    return {"workload": workload, "cell": cell, "status": report.status.value,
            "iterations": report.iterations, "newton_steps": report.newton_steps,
            "lm": repr(report.lm_rate_nats), **{k: repr(v) for k, v in extra.items()},
            "trace": digest(rows), "instance": digest(p.d.tobytes(), p.p_y.tobytes(), p.t)}


def main(argv):
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True      # leave no cache files under perfbench/
    import lmrate
    import lmrate.cli  # noqa: F401  (run_pass reaches it as lmrate.cli)
    import workloads

    theta = workloads.theta_for_seed(0)
    tracer = SimpleNamespace(cell=None)
    lines = []
    case_matrix = workloads.CaseMatrix(theta)
    for answer in case_matrix.run_pass(lmrate, case_matrix.setup(lmrate), tracer):
        if isinstance(answer, workloads.Outcome):
            lines.append({"workload": "case-matrix", "cell": answer.cell, "errors": answer.errors})
            continue
        cell, p, report, gmi_nats = answer
        lines.append(cell_line("case-matrix", cell, p, report, gmi=gmi_nats))
    with tempfile.TemporaryDirectory() as tmp:
        sweep = workloads.SweepSnr(theta, str(Path(tmp) / "sweep.csv"))
        code, captured = sweep.run_pass(lmrate, [], tracer)
        cells = sorted((m, e, s) for m in sweep.modulations for e in sweep.etas
                       for s in sweep.snrs)
        if len(captured) != len(cells):
            lines.append({"workload": "sweep-snr", "solved": len(captured), "cells": len(cells)})
        for (modulation, eta, snr_db), (p, report) in zip(cells, captured):
            gmi_nats = (report.gmi or lmrate.gmi(p)).value_nats
            lines.append(cell_line("sweep-snr", workloads._sweep_cell(modulation, eta, snr_db),
                                   p, report, gmi=gmi_nats))
        csv_text = Path(sweep.out_path).read_bytes()
    oracle_cert = workloads.OracleCert(theta)
    for answer in oracle_cert.run_pass(lmrate, oracle_cert.setup(lmrate), tracer):
        if isinstance(answer, workloads.Outcome):
            lines.append({"workload": "oracle-cert", "cell": answer.cell, "errors": answer.errors})
        elif len(answer) == 5:
            cell, p, report, oracle, scalar = answer
            lines.append(cell_line("oracle-cert", cell, p, report,
                                   oracle=oracle.lm_rate_nats, scalar=scalar))
        else:
            cell, p, report, cert = answer
            lines.append(cell_line("oracle-cert", cell, p, report,
                                   margin=cert.worst_margin, bound=cert.bound_satisfied))
    lines.append({"workload": "sweep-snr", "cli_exit": code, "csv": digest(csv_text)})
    print(f"# lmrate from {Path(lmrate.__file__).parent}", file=sys.stderr)
    for line in lines:
        print(json.dumps(line))


if __name__ == "__main__":
    main(sys.argv[1:])
