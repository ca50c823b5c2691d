"""Span tracing of thickset's layers, installed from outside the package.

`Tracer.installed()` replaces each traced function by a wrapper in every
place it is bound: the defining module, every thickset module that imported
it by name, the package namespace, and the class for methods.  Each call
records a span (name, start, end, parent) in memory, plus the layer counters
below.  Self time of a span is its duration minus the durations of its
direct child spans.
"""
from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" attributes are patched on
# the class.  The span name is the layer (module) plus the function.
TRACED = (
    ("sets.materialize", "thickset.sets", "IntervalSet.materialize"),
    ("sets.thickness", "thickset.sets", "thickness"),
    ("bandlimited.eval", "thickset.bandlimited", "TrigPoly.eval"),
    ("bandlimited.lp_norm", "thickset.bandlimited", "lp_norm"),
    ("bandlimited.random_bandlimited", "thickset.bandlimited", "random_bandlimited"),
    ("quadrature.panel_nodes", "thickset.quadrature", "panel_nodes"),
    ("quadrature.golden_max", "thickset.quadrature", "golden_max"),
    ("concentration.gram_matrix", "thickset.concentration", "gram_matrix"),
    ("concentration.min_concentration", "thickset.concentration", "min_concentration"),
    ("concentration.sharpness_gap", "thickset.concentration", "sharpness_gap"),
    ("proofcheck.classify_intervals", "thickset.proofcheck", "classify_intervals"),
    ("proofcheck.good_mass_check", "thickset.proofcheck", "good_mass_check"),
    ("proofcheck.local_estimate_check", "thickset.proofcheck", "local_estimate_check"),
    ("proofcheck.growth_envelope", "thickset.proofcheck", "growth_envelope"),
    ("proofcheck.exp_sum_verifier", "thickset.proofcheck", "exp_sum_verifier"),
    ("proofcheck.taylor_split", "thickset.proofcheck", "taylor_split"),
    ("proofcheck.band_component_norms", "thickset.proofcheck", "band_component_norms"),
    ("extremal.extremal_ratio", "thickset.extremal", "extremal_ratio"),
    ("extremal.default_truncation", "thickset.extremal", "default_truncation"),
    ("cli.run", "thickset.cli", "run"),
    ("cli.emit_csv", "thickset.cli", "emit_csv"),
)

# Span names whose calls and self time are summed into one metric group.
BOUNDS_GROUP = "bounds"


def _bound_evaluators() -> list[tuple[str, str, str]]:
    """The public closed-form evaluators of thickset.bounds."""
    module = sys.modules["thickset.bounds"]
    out = []
    for name, fn in vars(module).items():
        if (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and not name.startswith("_")
            and (name.endswith("_bound") or name.endswith("_bounds") or name.endswith("_bound_log10"))
        ):
            out.append((f"{BOUNDS_GROUP}.{name}", module.__name__, name))
    return sorted(out)


def _count_materialize(counts, args, kwargs, result):
    counts["sets.materialize.pieces"] += len(result)


def _count_eval(counts, args, kwargs, result):
    poly, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    counts["bandlimited.eval.node_modes"] += int(np.size(x)) * int(poly.ms.size)
    if np.ndim(x) == 0:
        counts["bandlimited.eval.scalar_calls"] += 1


def _count_lp_norm(counts, args, kwargs, result):
    query = args[1] if len(args) > 1 else kwargs["query"]
    if math.isinf(query.p):
        counts["bandlimited.lp_norm.inf_calls"] += 1


def _count_panel_nodes(counts, args, kwargs, result):
    counts["quadrature.panel_nodes.nodes"] += int(result[0].size)


def _count_gram(counts, args, kwargs, result):
    counts["concentration.gram_matrix.entries"] += result.size * result.size


def _count_min_concentration(counts, args, kwargs, result):
    n = result.gram.size
    counts["concentration.min_concentration.n_cubed"] += n ** 3
    key = "concentration.min_concentration.max_n"
    counts[key] = max(counts[key], n)


def _count_emit_csv(counts, args, kwargs, result):
    counts["cli.emit_csv.bytes"] += len(result)


COUNTERS = {
    "sets.materialize": _count_materialize,
    "bandlimited.eval": _count_eval,
    "bandlimited.lp_norm": _count_lp_norm,
    "quadrature.panel_nodes": _count_panel_nodes,
    "concentration.gram_matrix": _count_gram,
    "concentration.min_concentration": _count_min_concentration,
    "cli.emit_csv": _count_emit_csv,
}


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        if name == "quadrature.golden_max":
            def probed(probe, *args, **kwargs):
                def counted(t):
                    tracer.counts["quadrature.golden_max.probes"] += 1
                    return probe(t)
                return fn(counted, *args, **kwargs)
            target = probed
        else:
            target = fn

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        targets = list(TRACED) + _bound_evaluators()
        modules = [m for n, m in list(sys.modules.items()) if n == "thickset" or n.startswith("thickset.")]
        undo = []
        try:
            for name, module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), inner in zip(spans, child):
        out[name] += (end - start - inner) * 1e-9
    return out


def call_counts(spans) -> Counter:
    return Counter(name for name, _, _, _ in spans)


def layer_metrics(spans, counts: Counter) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self seconds and exact counts of one traced pass.

    Returns ``(times, exact)``: times keyed ``<span>.self_s``, exact counts
    keyed ``<span>.calls`` and by counter name.  The bound evaluators are
    folded into ``bounds.self_s`` and ``bounds.calls``.
    """
    selfs = self_times(spans)
    calls = call_counts(spans)
    times: dict[str, float] = {}
    exact = dict(counts)
    names = [name for name, _, _ in TRACED]
    for name in names:
        times[f"{name}.self_s"] = selfs.get(name, 0.0)
        exact[f"{name}.calls"] = calls.get(name, 0)
    prefix = BOUNDS_GROUP + "."
    times[f"{BOUNDS_GROUP}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(prefix))
    exact[f"{BOUNDS_GROUP}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
    return times, exact
