"""Layer spans and work counters, installed on orbitdepth from outside.

A layer is one module of the package.  `instrument` wraps, for the length
of a `with` block, every public function of each layer module (re-bound in
every orbitdepth module that imported it by name, since `from .x import f`
makes patching `orbitdepth.x.f` alone miss most calls) and every public or
arithmetic method of its classes, at class level.  Everything is restored
when the block ends.

Spans are folded into totals as they close instead of being kept, because
the exact layers make millions of calls:

* `<layer>.calls` counts every wrapped call;
* `<layer>.busy_s` is the union of the layer's span intervals;
* `<layer>.self_s` is busy time minus the part covered by spans of other
  layers nested inside.

A call into the layer already on top of the span stack does not open a new
span, so re-entrant calls cost one counter increment.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from enum import Enum

LAYERS = ("words", "magnus", "laurent", "representation", "ratfunc",
          "melnikov", "curves", "integrals", "holonomy", "reporting")

SUITES = ("orbit", "repr", "melnikov", "numeric")

COUNTERS = (
    "words.word_products",
    "magnus.series_products", "magnus.span_vectors",
    "laurent.poly_mults", "laurent.unit_inverses",
    "representation.matrix_products", "representation.result_nnz",
    "representation.sampled_words",
    "ratfunc.constructions", "ratfunc.wronskians", "ratfunc.evals",
    "melnikov.mv_calls",
    "curves.cycles_built", "curves.segments",
    "integrals.iterated_integrals", "integrals.form_evals",
    "holonomy.ode_solves", "holonomy.rhs_evals", "holonomy.ode_failures",
    "holonomy.fits",
)

# Methods whose names start with "_" that are still wrapped: construction,
# calls and arithmetic are where the layers do their work.
DUNDERS = frozenset({
    "__init__", "__call__", "__eq__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__neg__", "__pow__",
})


class Tracer:
    """Per-layer call counts, busy and self time, and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []  # open spans: [layer, start, time covered by children]
        self._open = defaultdict(int)  # layer -> open spans of that layer

    def span(self, layer: str, fn, hook=None):
        """fn wrapped in a span of `layer`; hook(counters, result) counts work."""
        stack, open_, clock = self._stack, self._open, self.clock
        calls, busy, self_time, counters = self.calls, self.busy, self.self_time, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                open_[layer] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    open_[layer] -= 1
                    elapsed = clock() - frame[1]
                    self_time[layer] += elapsed - frame[2]
                    if not open_[layer]:
                        busy[layer] += elapsed
                    if stack:
                        stack[-1][2] += elapsed
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def timer(self, key: str, fn):
        """fn wrapped so that its wall time accumulates in counters[key]."""
        clock, counters = self.clock, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[key] += clock() - start

        return wrapper

    def metrics(self) -> dict:
        """Every per-layer metric as {name: (value, unit)}, zeros included."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        for suite in SUITES:
            key = f"reporting.suite_s.{suite}"
            out[key] = (float(self.counters[key]), "s")
        return out


# ---------------------------------------------------------------------------
# Work counters, keyed by the wrapped target; "*" stands for any class.


def _inc(name, by=None):
    def hook(counters, result):
        counters[name] += 1 if by is None else by(result)
    return hook


def _both(*hooks):
    def hook(counters, result):
        for h in hooks:
            h(counters, result)
    return hook


_solve_hook = _both(
    _inc("holonomy.ode_solves"),
    _inc("holonomy.rhs_evals", lambda sol: int(sol.nfev)),
    _inc("holonomy.ode_failures", lambda sol: int(not sol.success)),
)

HOOKS = {
    "words.Word.__mul__": _inc("words.word_products"),
    "magnus.TruncatedSeries.__mul__": _inc("magnus.series_products"),
    "magnus.TruncatedSeries.mul_letter": _inc("magnus.series_products"),
    "magnus.lie_ideal_span": _inc("magnus.span_vectors", len),
    "laurent.LaurentPoly2.__mul__": _inc("laurent.poly_mults"),
    "laurent.LaurentPoly2.__rmul__": _inc("laurent.poly_mults"),
    "laurent.LaurentPoly2.unit_inverse": _inc("laurent.unit_inverses"),
    "representation.RepMatrix.__mul__": _both(
        _inc("representation.matrix_products"),
        _inc("representation.result_nnz", lambda m: len(m.entries)),
    ),
    "ratfunc.RatFunc.__init__": _inc("ratfunc.constructions"),
    "ratfunc.wronskian": _inc("ratfunc.wronskians"),
    "melnikov.mv": _inc("melnikov.mv_calls"),
    "curves.Cycle.__init__": _inc("curves.cycles_built"),
    "curves.Segment.__init__": _inc("curves.segments"),
    "integrals.iterated_integral": _inc("integrals.iterated_integrals"),
    "integrals.*.values": _inc("integrals.form_evals"),  # every Form subclass
    "holonomy.melnikov_fit": _inc("holonomy.fits"),
}

# Names bound in a layer module to something from outside the layers, or to
# a function whose calls from that module are counted separately:
# (module, name) -> (layer of the span, hook).
BINDINGS = {
    ("orbitdepth.holonomy", "solve_ivp"): ("holonomy", _solve_hook),
    ("orbitdepth.representation", "random_word"):
        ("words", _inc("representation.sampled_words")),
}


def _counted_callable(tracer: Tracer, method):
    """RatFunc.callable whose returned evaluators are ratfunc spans."""
    hook = _inc("ratfunc.evals")

    @functools.wraps(method)
    def callable_(self, *args, **kwargs):
        return tracer.span("ratfunc", method(self, *args, **kwargs), hook)

    return callable_


# Methods that return a function whose calls are work of their own:
# target -> (tracer, method) -> the method to wrap in its span instead.
INNER = {"ratfunc.RatFunc.callable": _counted_callable}


def _is_layer_class(obj, module) -> bool:
    return (inspect.isclass(obj) and obj.__module__ == module.__name__
            and not issubclass(obj, (Enum, BaseException)))


@contextmanager
def instrument(tracer: Tracer):
    """Install spans and counters on every layer; restore on exit."""
    modules = {layer: importlib.import_module(f"orbitdepth.{layer}") for layer in LAYERS}
    patches = []  # (owner, attribute, original value), restored in reverse

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    wrapped = {}  # original module-level function -> its span wrapper
    try:
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = tracer.span(layer, obj, HOOKS.get(f"{layer}.{name}"))
                elif _is_layer_class(obj, mod):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        hook = HOOKS.get(f"{layer}.{name}.{attr}", HOOKS.get(f"{layer}.*.{attr}"))
                        if isinstance(val, (staticmethod, classmethod)):
                            patch(obj, attr, type(val)(tracer.span(layer, val.__func__, hook)))
                        elif inspect.isfunction(val):
                            inner = INNER.get(f"{layer}.{name}.{attr}")
                            if inner is not None:
                                val = inner(tracer, val)
                            patch(obj, attr, tracer.span(layer, val, hook))
        # re-bind each wrapped function wherever the package bound its name
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "orbitdepth":
                continue
            for name, obj in list(vars(mod).items()):
                if (modname, name) in BINDINGS:
                    layer, hook = BINDINGS[modname, name]
                    patch(mod, name, tracer.span(layer, obj, hook))
                elif inspect.isfunction(obj) and obj in wrapped:
                    patch(mod, name, wrapped[obj])
        reporting = modules["reporting"]
        patch(reporting, "SUITES", {
            name: tracer.timer(f"reporting.suite_s.{name}", wrapped.get(fn, fn))
            for name, fn in reporting.SUITES.items()})
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
