"""The names the benchmark in perfbench/ wraps and reads must exist.

perfbench/tracer.py wraps every (module, attribute) in its TARGETS table
and perfbench/run.py records lmrate._kernels.USING_NUMBA in its
environment block.  A refactor that drops one of them fails here, not
halfway through a benchmark run.  The tracer is loaded by path and only
read.
"""

import importlib
import importlib.util
from pathlib import Path

import lmrate._kernels

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracer().TARGETS
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"perfbench traces names lmrate no longer has: {missing}"


def test_environment_block_flag_exists():
    assert isinstance(lmrate._kernels.USING_NUMBA, bool)
