"""Spans and counters around lmrate's public functions, recorded from outside.

The tracer replaces each traced function with a wrapper at every place the
package binds it.  Some names are looked up at call time through a module
global (``_kernels.metric_moments`` inside ``sinkhorn``); others are copied
by ``from ... import`` (``cli.solve``, ``lmrate.solve``), so wrapping only the
defining module would miss them.  Every binding of the same function object
in any loaded ``lmrate`` module is therefore wrapped, and ``uninstall``
restores the originals.

A span is ``(name, start, end, parent, cell)``: ``parent`` is the index of
the enclosing traced span (-1 at top level) and ``cell`` the id of the
workload cell that was running.  Per-layer metrics are derived from the
spans of one pass by ``derive_metrics``.
"""

import math
import sys
import time
from collections import Counter

# traced function -> (defining module, attribute)
TARGETS = {
    "channel.discretize": ("lmrate.channel", "discretize"),
    "kernels.scale_rows": ("lmrate._kernels", "scale_rows"),
    "kernels.scale_rows_lse": ("lmrate._kernels", "scale_rows_lse"),
    "kernels.scale_cols": ("lmrate._kernels", "scale_cols"),
    "kernels.scale_cols_lse": ("lmrate._kernels", "scale_cols_lse"),
    "kernels.coupling_stats": ("lmrate._kernels", "coupling_stats"),
    "kernels.metric_moments": ("lmrate._kernels", "metric_moments"),
    "kernels.mismatch_dual_value": ("lmrate._kernels", "mismatch_dual_value"),
    "sinkhorn.solve": ("lmrate.sinkhorn", "solve"),
    "sinkhorn.solve_multiplier_root": ("lmrate.sinkhorn", "solve_multiplier_root"),
    "sinkhorn.multiplier_excess": ("lmrate.sinkhorn", "multiplier_excess"),
    "dual.newton_oracle": ("lmrate.dual", "newton_oracle"),
    "dual.dual_gradient": ("lmrate.dual", "dual_gradient"),
    "dual.dual_hessian": ("lmrate.dual", "dual_hessian"),
    "dual.certificate": ("lmrate.dual", "certificate"),
    "dual.scarlett_dual_value": ("lmrate.dual", "scarlett_dual_value"),
    "gmi.gmi": ("lmrate.gmi", "gmi"),
    "cli.main": ("lmrate.cli", "main"),
}

KERNELS = [name for name in TARGETS if name.startswith("kernels.")]

# full passes over the metric per kernel call: the shifted column update
# takes the column maxima first and sums second
PASSES = {name: 1 for name in KERNELS}
PASSES["kernels.scale_cols_lse"] = 2

PLAIN_SCALING = ("kernels.scale_rows", "kernels.scale_cols")
LSE_SCALING = ("kernels.scale_rows_lse", "kernels.scale_cols_lse")

# per-layer metric -> (unit, better); the order is the order of the report
PER_LAYER = {
    "channel.discretize.calls": ("count", "lower"),
    "channel.discretize.s": ("s", "lower"),
}
for _k in KERNELS:
    PER_LAYER[_k + ".calls"] = ("count", "lower")
    PER_LAYER[_k + ".s"] = ("s", "lower")
PER_LAYER.update({
    "kernels.sweeps": ("count", "lower"),
    "kernels.bytes_computed": ("bytes", "lower"),
    "kernels.largest_d_bytes": ("bytes", "lower"),
    "kernels.plain_ok_ratio": ("ratio", "higher"),
    "kernels.lse_share": ("ratio", "lower"),
    "sinkhorn.solve.calls": ("count", "lower"),
    "sinkhorn.solve.s": ("s", "lower"),
    "sinkhorn.solve.self_s": ("s", "lower"),
    "sinkhorn.iterations": ("count", "lower"),
    "sinkhorn.sweeps_per_iter": ("sweeps/iter", "lower"),
    "sinkhorn.multiplier_sweeps_per_iter": ("sweeps/iter", "lower"),
    "sinkhorn.solve_multiplier_root.calls": ("count", "lower"),
    "sinkhorn.solve_multiplier_root.s": ("s", "lower"),
    "sinkhorn.solve_multiplier_root.self_s": ("s", "lower"),
    "sinkhorn.root_evals_per_call": ("evals/call", "lower"),
    "sinkhorn.multiplier_excess.calls": ("count", "lower"),
    "sinkhorn.status.converged": ("count", "higher"),
    "sinkhorn.status.max_iters": ("count", "lower"),
    "sinkhorn.status.numerical_failure": ("count", "lower"),
    "dual.newton_oracle.calls": ("count", "lower"),
    "dual.newton_oracle.s": ("s", "lower"),
    "dual.newton_oracle.self_s": ("s", "lower"),
    "dual.newton_steps": ("count", "lower"),
    "dual.dual_hessian.calls": ("count", "lower"),
    "dual.dual_hessian.s": ("s", "lower"),
    "dual.dual_gradient.calls": ("count", "lower"),
    "dual.dual_gradient.s": ("s", "lower"),
    "dual.line_search_evals": ("count", "lower"),
    "dual.certificate.s": ("s", "lower"),
    "dual.scarlett_dual_value.s": ("s", "lower"),
    "gmi.gmi.calls": ("count", "lower"),
    "gmi.gmi.s": ("s", "lower"),
    "gmi.evaluations": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.plain_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


# position and keyword of the metric argument of each kernel
_METRIC_ARG = {name: (2, "d") for name in KERNELS}
_METRIC_ARG["kernels.coupling_stats"] = (3, "d")
_METRIC_ARG["kernels.metric_moments"] = (3, "d")
_METRIC_ARG["kernels.mismatch_dual_value"] = (4, "d_t")


class TracingError(RuntimeError):
    """A traced name no longer exists."""


def _lmrate_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lmrate" or name.startswith("lmrate."))]


def _cell_of(args):
    # lmrate.build_channel sets sigma2 = 10**(-snr_db/10) / 2
    chan, cons, n_side = args[0], args[1], args[2]
    snr_db = round(-10.0 * math.log10(2.0 * chan.sigma2), 6)
    return f"{cons.label}/eta{chan.eta2:g}/snr{snr_db:g}/grid{n_side}"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.cell = "-"
        self.spans = []
        self.counts = Counter()
        self._open = []               # (span index, name) of unfinished spans
        self._installed = []          # (module, attribute, original)

    def reset(self):
        """Forget the spans and counts so far; the wrappers keep recording."""
        self.spans.clear()
        self.counts.clear()
        self._open.clear()

    def install(self):
        """Wrap every binding of every target; TracingError if one is gone."""
        modules = _lmrate_modules()
        try:
            for name, (module_name, attr) in TARGETS.items():
                home = sys.modules.get(module_name)
                if home is None or not hasattr(home, attr):
                    raise TracingError(f"{module_name}.{attr} no longer exists; "
                                       "update TARGETS in perfbench/tracer.py")
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._installed.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        observe = self._observer(name)
        is_discretize = name == "channel.discretize"
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_discretize and open_spans and open_spans[0][1] == "cli.main":
                # the CLI builds each cell's instance itself, so the cell is
                # named after the instance
                self.cell = _cell_of(args)
            parent = open_spans[-1][0] if open_spans else -1
            cell = self.cell
            index = len(spans)
            spans.append(None)
            open_spans.append((index, name))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent, cell)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, name):
        counts = self.counts
        if name in _METRIC_ARG:
            pos, key = _METRIC_ARG[name]
            passes = PASSES[name]
            plain = name in PLAIN_SCALING

            def observe(args, kwargs, out):
                d = args[pos] if len(args) > pos else kwargs[key]
                counts["bytes_computed"] += passes * d.nbytes
                counts["largest_d_bytes"] = max(counts["largest_d_bytes"], d.nbytes)
                if plain:
                    counts["plain_calls"] += 1
                    counts["plain_ok"] += bool(out[1])
            return observe
        if name == "sinkhorn.solve":
            def observe(args, kwargs, report):
                counts["iterations"] += report.iterations
                counts["status." + report.status.value] += 1
            return observe
        if name == "dual.newton_oracle":
            def observe(args, kwargs, report):
                counts["newton_steps"] += report.iterations
            return observe
        if name == "gmi.gmi":
            def observe(args, kwargs, result):
                counts["gmi_evaluations"] += result.evaluations
            return observe
        return None


def _ratio(num, den):
    return num / den if den else 0.0


def derive_metrics(spans, counts):
    """Per-layer metrics of one traced pass (every PER_LAYER key but trace.*)."""
    n = len(spans)
    child_time = [0.0] * n
    in_solve = [False] * n
    calls = Counter()
    total = Counter()
    self_time = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            # a parent is always recorded before its children
            in_solve[i] = in_solve[parent] or spans[parent][0] == "sinkhorn.solve"
    sweeps = solve_sweeps = multiplier_sweeps = root_evals = line_search = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if name in PASSES:
            sweeps += PASSES[name]
            if in_solve[i]:
                solve_sweeps += PASSES[name]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "kernels.metric_moments":
            multiplier_sweeps += in_solve[i]
            root_evals += parent_name == "sinkhorn.solve_multiplier_root"
        if name == "kernels.coupling_stats" and parent_name == "dual.newton_oracle":
            line_search += 1

    iterations = counts["iterations"]
    lse_calls = sum(calls[k] for k in LSE_SCALING)
    m = {}
    for layer in ("channel.discretize", *KERNELS):
        m[layer + ".calls"] = calls[layer]
        m[layer + ".s"] = float(total[layer])
    m.update({
        "kernels.sweeps": sweeps,
        "kernels.bytes_computed": counts["bytes_computed"],
        "kernels.largest_d_bytes": counts["largest_d_bytes"],
        "kernels.plain_ok_ratio": _ratio(counts["plain_ok"], counts["plain_calls"]),
        "kernels.lse_share": _ratio(lse_calls, counts["plain_ok"] + lse_calls),
        "sinkhorn.iterations": iterations,
        "sinkhorn.sweeps_per_iter": _ratio(solve_sweeps, iterations),
        "sinkhorn.multiplier_sweeps_per_iter": _ratio(multiplier_sweeps, iterations),
        "sinkhorn.root_evals_per_call": _ratio(root_evals,
                                               calls["sinkhorn.solve_multiplier_root"]),
        "sinkhorn.multiplier_excess.calls": calls["sinkhorn.multiplier_excess"],
        "dual.newton_steps": counts["newton_steps"],
        "dual.line_search_evals": line_search,
        "dual.certificate.s": float(total["dual.certificate"]),
        "dual.scarlett_dual_value.s": float(total["dual.scarlett_dual_value"]),
        "gmi.evaluations": counts["gmi_evaluations"],
        "cli.main.s": float(total["cli.main"]),
        "cli.main.self_s": float(self_time["cli.main"]),
    })
    for status in ("converged", "max_iters", "numerical_failure"):
        m["sinkhorn.status." + status] = counts["status." + status]
    for layer in ("sinkhorn.solve", "sinkhorn.solve_multiplier_root", "dual.newton_oracle"):
        m[layer + ".calls"] = calls[layer]
        m[layer + ".s"] = float(total[layer])
        m[layer + ".self_s"] = float(self_time[layer])
    for layer in ("dual.dual_hessian", "dual.dual_gradient", "gmi.gmi"):
        m[layer + ".calls"] = calls[layer]
        m[layer + ".s"] = float(total[layer])
    return m, calls
