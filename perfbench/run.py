#!/usr/bin/env python3
"""Benchmark for lmrate, run from the root of a checkout:

    python3 perfbench/run.py --workload case-matrix --seed 0 --seconds 35 --trace 0

Workloads: case-matrix, sweep-snr, oracle-cert (see perfbench/README.md).
The package is imported from ``src/`` of the checkout; nothing is built.

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:

* ``wall_ref_s``: median time of one full pass over the cells, after an
  untimed warm-up, scaled to a reference machine speed (see ``Reference``);
  passes repeat until ``--seconds`` is used up.  The raw median ``wall_s``
  is printed next to it;
* ``setup_s``: median, over fresh interpreters that have imported numpy,
  of ``import lmrate`` plus building every instance the first solver call
  needs;
* ``cells_ok``: cells that converged to their tolerance and passed every
  output check (``cells_attempted - cells_failed``);
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced passes alternate, and the run reports
the per-layer metrics derived from the traced passes' spans (medians over
passes), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
cells that raised or failed an output check; a cell that honestly stops at
its iteration budget is not failed there, but is missing from ``cells_ok``.
"""

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("case-matrix", "sweep-snr", "oracle-cert")
SETUP_PROBES = 7
MIN_PASSES = 3                # per kind of pass, when they fit in PASS_CAP_S
PASS_CAP_S = 120.0
PROBE_TIMEOUT_S = 60.0


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_lmrate(with_cli=True):
    """Import lmrate from this checkout's src/, never from an installed copy."""
    if not (SRC / "lmrate" / "__init__.py").is_file():
        die(f"no src/lmrate under {ROOT}; run from the root of an lmrate checkout")
    sys.path.insert(0, str(SRC))
    import lmrate
    if with_cli:
        import lmrate.cli  # noqa: F401
    if Path(lmrate.__file__).resolve().parent != (SRC / "lmrate").resolve():
        die(f"imported lmrate from {lmrate.__file__}, not from {SRC}")
    return lmrate


def make_workload(name, seed, out_dir):
    import workloads
    theta = workloads.theta_for_seed(seed)
    if name == "sweep-snr":
        return workloads.SweepSnr(theta, os.path.join(out_dir, "sweep.csv"))
    return workloads.WORKLOADS[name](theta)


# --------------------------------------------------------------------------
# set-up time
# --------------------------------------------------------------------------


def setup_probe(args):
    """Child mode: time import plus instance building in a fresh interpreter.

    numpy is imported before the clock starts: its import is the same for
    every version of lmrate and swings with the load of the machine.
    """
    import numpy  # noqa: F401
    start = time.perf_counter()
    lmrate = load_lmrate(with_cli=args.workload == "sweep-snr")
    make_workload(args.workload, args.seed, str(ROOT)).setup(lmrate)
    print(repr(time.perf_counter() - start))


def measure_setup(args):
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            die(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------


def blas_threads(np):
    """Thread count of the OpenBLAS that numpy bundles, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(lmrate):
    import numpy as np
    from lmrate import _kernels
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "using_numba": bool(_kernels.USING_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


def warm_up(lmrate):
    """Untimed: one tiny solve and one tiny oracle (the first LAPACK call)."""
    chan = lmrate.build_channel(1.0, 0.9, 0.1, 0.0)
    _, p = lmrate.discretize(chan, lmrate.build_constellation("qpsk"), 10)
    lmrate.solve(p)
    lmrate.newton_oracle(p)


class Passes:
    """Runs timed passes of one workload and keeps their walls and verdicts."""

    def __init__(self, lmrate, workload, instances, tracer):
        self.lmrate = lmrate
        self.workload = workload
        self.instances = instances
        self.tracer = tracer
        self.outcomes = []            # one list of Outcome per pass
        self.last_answers = None

    def run(self, traced=False):
        gc.collect()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            start = time.perf_counter()
            answers = self.workload.run_pass(self.lmrate, self.instances, self.tracer)
            wall = time.perf_counter() - start
        finally:
            self.tracer.uninstall()
        self.outcomes.append(self.workload.check(answers))
        self.last_answers = answers
        return wall


class Reference:
    """A fixed numpy workload, timed next to every pass to track machine speed.

    Wall time on a shared 2-core machine drifts by up to +-20% over minutes,
    and this loop slows down with the passes.  ``wall_ref_s`` scales each
    pass by ``NOMINAL_S / (mean reference time before and after it)``,
    which removes most of that drift.  The loop is ``exp`` sweeps, what the
    kernels spend their time on.  It stays on one thread and allocates
    nothing, so it does not depend on whether the program kept the BLAS
    threads awake or on the state it left the allocator in.  One untimed
    repetition warms it up; the fastest of the next three counts.
    """

    NOMINAL_S = 0.01

    def __init__(self, np):
        self.np = np
        self.a = np.random.default_rng(0).random((64, 2500))
        self.buf = np.empty_like(self.a)

    def _once(self):
        np, a, buf = self.np, self.a, self.buf
        start = time.perf_counter()
        for _ in range(40):
            np.multiply(a, -1.0, out=buf)
            np.exp(buf, out=buf)
            buf.sum()
        return time.perf_counter() - start

    def measure(self):
        self._once()
        return min(self._once() for _ in range(3))


def loop(budget_s, kinds, run_one, reference):
    """Cycle through ``kinds`` until the next cycle would overrun the budget.

    Returns, per kind, the pass walls and the mean reference time around each.
    """
    walls = {kind: [] for kind in kinds}
    refs = {kind: [] for kind in kinds}
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for kind in kinds:
            before = reference.measure()
            walls[kind].append(run_one(kind))
            refs[kind].append(0.5 * (before + reference.measure()))
        now = time.perf_counter()
        cycle = now - cycle_start
        elapsed = now - start
        enough = len(walls[kinds[0]]) >= MIN_PASSES or elapsed + cycle > PASS_CAP_S
        if enough and elapsed + cycle > budget_s:
            return walls, refs


def verdicts(outcomes_per_pass):
    """(cells attempted, cells not ok, cells with check failures) over passes."""
    not_ok = {}
    errors = {}
    for outcomes in outcomes_per_pass:
        for out in outcomes:
            if not out.ok:
                not_ok.setdefault(out.cell, "not converged")
            if out.errors:
                errors.setdefault(out.cell, out.errors)
                not_ok[out.cell] = "; ".join(out.errors)
    return len(outcomes_per_pass[0]), not_ok, errors


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def largest_metric_array(workload, instances, answers):
    if workload.name == "sweep-snr":
        problems = [p for p, _ in answers[1]]
    else:
        problems = [p for _, p in instances]
    return max(p.d.nbytes for p in problems) if problems else 0


def print_cells(attempted, not_ok):
    print(f"cells_failed {len(not_ok)}/{attempted} (cells_attempted {attempted})")
    for cell, why in sorted(not_ok.items()):
        print(f"  failed cell {cell}: {why}")


def per_cell_table(spans):
    """Seconds in each top-level public call, by cell, for one traced pass."""
    top = {}
    for name, start, end, parent, cell in spans:
        if parent < 0 or spans[parent][0] == "cli.main":
            key = (cell, name)
            top[key] = top.get(key, 0.0) + end - start
    for (cell, name), seconds in sorted(top.items()):
        print(f"  {cell:28s} {name:28s} {seconds:.4f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 gives theta = pi/18 exactly; others jitter it by up to 1 degree")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0

    lmrate = load_lmrate()
    import numpy as np
    import tracer as tracing
    import workloads

    if set().union(*workloads.EXPECTED_LAYERS.values()) != set(tracing.TARGETS):
        die("every traced name must be expected on some workload")
    env = environment(lmrate)
    print("env " + json.dumps(env))

    setup_times = None if args.trace else measure_setup(args)
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as out_dir:
        workload = make_workload(args.workload, args.seed, out_dir)
        print(f"workload {workload.name} seed {args.seed} theta {workload.theta!r}")
        if args.trace:
            tracer.cell = "setup"
            with tracer:
                instances = workload.setup(lmrate)
            setup_layers, setup_calls = tracing.derive_metrics(tracer.spans, tracer.counts)
        else:
            instances = workload.setup(lmrate)
        warm_up(lmrate)

        passes = Passes(lmrate, workload, instances, tracer)
        traced_metrics = []
        traced_calls = []

        def run_one(kind):
            wall = passes.run(traced=kind == "traced")
            if kind == "traced":
                layers, calls = tracing.derive_metrics(tracer.spans, tracer.counts)
                for key in ("channel.discretize.calls", "channel.discretize.s"):
                    layers[key] += setup_layers[key]
                traced_metrics.append(layers)
                traced_calls.append(calls + setup_calls)
            return wall

        reference = Reference(np)
        reference.measure()
        kinds = ["plain", "traced"] if args.trace else ["plain"]
        walls, refs = loop(args.seconds, kinds, run_one, reference)
        largest = largest_metric_array(workload, instances, passes.last_answers)

    attempted, not_ok, errors = verdicts(passes.outcomes)
    plain = walls["plain"]
    print(f"wall_s per pass: {' '.join(f'{w:.4f}' for w in plain)}")
    print(f"reference_s per pass: {' '.join(f'{r:.5f}' for r in refs['plain'])}")
    print(f"wall_s {statistics.median(plain)} s (raw median; see wall_ref_s)")
    print_cells(attempted, not_ok)

    if args.trace:
        for calls in traced_calls:
            missing = sorted(n for n in workloads.EXPECTED_LAYERS[workload.name]
                             if calls[n] == 0)
            if missing:
                die(f"traced layers never ran on {workload.name}: {', '.join(missing)}")
        metrics = {}
        for key, (unit, _) in tracing.PER_LAYER.items():
            if key.startswith("trace."):
                continue
            metrics[key] = metric(statistics.median(m[key] for m in traced_metrics), unit)
        traced_wall = statistics.median(walls["traced"])
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        metrics["trace.plain_wall_s"] = metric(statistics.median(plain), "s")
        metrics["trace.overhead_s"] = metric(traced_wall - statistics.median(plain), "s")
        print(f"traced wall_s per pass: {' '.join(f'{w:.4f}' for w in walls['traced'])}")
        print(f"largest metric array {largest / 1e6:.2f} MB; kernels.bytes_computed "
              f"{metrics['kernels.bytes_computed']['value'] / 1e9:.3f} GB per pass "
              "(from array shapes, not measured)")
        print("time in top-level calls, last traced pass:")
        per_cell_table(tracer.spans)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        at_ref = [w * Reference.NOMINAL_S / r for w, r in zip(plain, refs["plain"])]
        metrics = {
            "wall_ref_s": metric(statistics.median(at_ref), "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "cells_ok": metric(attempted - len(not_ok), "count"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        print(f"setup_s per probe: {' '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"largest metric array {largest / 1e6:.2f} MB")

    for key, value in metrics.items():
        print(f"{key} {value['value']} {value['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
