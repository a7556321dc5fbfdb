"""The names the benchmark in perfbench/ wraps and reads must exist, and
the layers it expects a workload to reach must still be reached.

perfbench/tracer.py wraps every (module, attribute) in its TARGETS table
and perfbench/run.py records lmrate._kernels.USING_NUMBA in its
environment block; perfbench/workloads.py lists the traced layers each
workload must reach.  A refactor that drops a name, or stops calling a
layer, fails here, not halfway through a benchmark run.  The perfbench
modules are loaded by path and only read.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import lmrate
import lmrate._kernels
import lmrate.cli  # noqa: F401  (the tracer wraps cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load("tracer").TARGETS
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"perfbench traces names lmrate no longer has: {missing}"


def test_environment_block_flag_exists():
    assert isinstance(lmrate._kernels.USING_NUMBA, bool)


def test_oracle_cert_layers_reached():
    # one small oracle-cert cell (qpsk, grid 10): a tight solve, the Newton
    # oracle and the scalar dual, then the projected run and its certificate
    tracer_mod = _load("tracer")
    workloads = _load("workloads")
    workload = workloads.OracleCert(math.pi / 18)
    workload.cells = [("qpsk", 10)]
    with tracer_mod.Tracer() as tracer:
        instances = workload.setup(lmrate)
        answers = workload.run_pass(lmrate, instances, tracer)
    # every dual.* layer and sinkhorn.multiplier_excess among them
    missing = workloads.EXPECTED_LAYERS["oracle-cert"] - {span[0] for span in tracer.spans}
    assert not missing, f"oracle-cert layers never reached: {sorted(missing)}"
    outcomes = workload.check(answers)
    assert [o.cell for o in outcomes] == ["qpsk/grid10", "qpsk/grid10/project"]
    assert all(o.ok for o in outcomes), [(o.cell, o.errors) for o in outcomes]


def test_sweep_snr_layers_reached(tmp_path):
    # one sweep-snr cell (qam16, eta 0.8, 20 dB) through cli.main: its 16 x
    # 192 metric is below the size crossover (FACTORED_MIN_ENTRIES), so its
    # scaling kernels run the shifted block loop.  It starts at the GMI tilt
    # and hands off to the Newton finish at iteration 3 (16 trace rows, 13 of
    # them Newton steps), so it converges and passes every output check.
    tracer_mod = _load("tracer")
    workloads = _load("workloads")
    workload = workloads.SweepSnr(math.pi / 18, str(tmp_path / "sweep.csv"))
    workload.modulations, workload.etas, workload.snrs = ("qam16",), (0.8,), (20,)
    with tracer_mod.Tracer() as tracer:
        instances = workload.setup(lmrate)
        answers = workload.run_pass(lmrate, instances, tracer)
    missing = workloads.EXPECTED_LAYERS["sweep-snr"] - {span[0] for span in tracer.spans}
    assert not missing, f"sweep-snr layers never reached: {sorted(missing)}"
    outcomes = workload.check(answers)
    assert [o.cell for o in outcomes] == ["qam16/eta0.8/snr20/grid50"]
    assert outcomes[0].ok, outcomes[0].errors


def test_case_matrix_layers_reached(monkeypatch):
    # one case-matrix cell at a time, each a solve to 1e-10 and then the GMI
    # (which must reach the classical-dual kernel), and each reaching every
    # layer: qpsk at grid 10, below the size crossover (FACTORED_MIN_ENTRIES),
    # runs the block loop; qam16 at grid 50 (16 x 2500) reduces the axis tables
    table_sums = lmrate._kernels._table_sums
    calls = []
    monkeypatch.setattr(lmrate._kernels, "_table_sums",
                        lambda *args: calls.append(args) or table_sums(*args))
    tracer_mod = _load("tracer")
    workloads = _load("workloads")
    for cell, tables in ((("qpsk", 10), False), (("qam16", 50), True)):
        calls.clear()
        workload = workloads.CaseMatrix(math.pi / 18)
        workload.cells = [cell]
        with tracer_mod.Tracer() as tracer:
            instances = workload.setup(lmrate)
            answers = workload.run_pass(lmrate, instances, tracer)
        missing = workloads.EXPECTED_LAYERS["case-matrix"] - {span[0] for span in tracer.spans}
        assert not missing, f"case-matrix layers never reached by {cell}: {sorted(missing)}"
        assert bool(calls) is tables, cell
        outcomes = workload.check(answers)
        assert [o.cell for o in outcomes] == ["{}/grid{}".format(*cell)]
        assert outcomes[0].ok, outcomes[0].errors
