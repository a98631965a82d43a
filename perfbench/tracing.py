"""Span tracing from outside the program, for the traced benchmark run.

The tracer replaces the package's public functions at the module attributes
their callers look up (``critshe.momentengine.jfn_times_t`` as well as
``critshe.specfun.jfn_times_t``, because ``momentengine`` imported the name)
with wrappers that record one span per call.  Thread pools are replaced at
the same kind of name, so that each task a pool runs becomes a span whose
parent is the span that started the pool.  Nothing is installed unless
``install`` is called, and ``uninstall`` restores every original.

A span is (id, name, start, end, parent id, thread id, units); ``units`` is
the work count the call carried (points, batch rows, replica steps).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Unit counters: the work a call carried, from its arguments and result.
def _points(args, out):
    return int(np.size(args[0]))


def _rows(args, out):
    return int(getattr(out, "batch", np.size(out)))


def _one(args, out):
    return 1


# (module, attribute, span name, unit counter) for every wrapped name.  A
# function imported by name into another module is listed once per module.
_TARGETS = [
    ("critshe.specfun", "jfn", "specfun.jfn", _points),
    ("critshe.specfun", "jfn_times_t", "specfun.jfn_times_t", _points),
    ("critshe.gausscalc", "jfn_times_t", "specfun.jfn_times_t", _points),
    ("critshe.momentengine", "jfn_times_t", "specfun.jfn_times_t", _points),
    *[("critshe.gausscalc", fn, f"gausscalc.{fn}", _rows) for fn in (
        "product_state", "apply_heat", "apply_out", "apply_in", "apply_med",
        "squeezed_heat", "apply_J", "inner_product",
    )],
    *[(mod, fn, f"diagrams.{fn}", None)
      for mod in ("critshe.diagrams", "critshe.momentengine", "critshe.cli")
      for fn in ("enumerate_diagrams", "count", "classify")],
    ("critshe.momentengine", "correlation", "momentengine.correlation", None),
    ("critshe.momentengine", "diagram_contribution", "momentengine.diagram_contribution", _one),
    *[("critshe.mollifier", fn, f"mollifier.{fn}", None)
      for fn in ("pair_profile", "beta_phi", "beta_star", "beta_eps")],
    ("critshe.shesim", "pair_profile", "mollifier.pair_profile", None),
    ("critshe.shesim", "moment_time_series", "shesim.moment_time_series", None),
    ("critshe.shesim", "step", "shesim.step", _one),
    ("critshe.shesim", "noise_increment", "shesim.noise_increment", _one),
    ("critshe.shesim", "two_particle_oracle", "shesim.two_particle_oracle", None),
    ("critshe.cli", "run", "cli.run", None),
]

# thread pools, replaced in the modules that start them
_POOLS = [("critshe.simplexint", "simplexint.worker"), ("critshe.shesim", "shesim.worker")]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, counter, fn, args, kwargs, parent=None):
        """Run ``fn`` inside a span; ``parent`` overrides the caller's span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        units = counter(args, out) if counter else 0
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), units))
        return out

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, counter, fn, args, kwargs)
        return traced

    def _pool_class(self, name):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer.call, name, None, fn, args, kwargs, parent)

        return TracedPool

    def _integrate(self, integrate):
        """``momentengine.integrate``: a simplexint span whose integrand
        evaluations are momentengine spans (the chain glue lives there)."""
        tracer = self

        class Integrand:
            def __init__(self, inner):
                for attr in ("evaluate_scaled", "evaluate_batch"):
                    fn = getattr(inner, attr, None)
                    if fn is not None:
                        setattr(self, attr, tracer.wrap("momentengine.integrand", fn))

        @functools.wraps(integrate)
        def traced(m, t, integrand, *args, **kwargs):
            return self.call("simplexint.integrate", None, integrate,
                             (m, t, Integrand(integrand)) + args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        import importlib

        for mod_name, attr, name, counter in _TARGETS:
            module = importlib.import_module(mod_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr), counter))
        for mod_name, name in _POOLS:
            self._patch(importlib.import_module(mod_name), "ThreadPoolExecutor", self._pool_class(name))
        momentengine = importlib.import_module("critshe.momentengine")
        self._patch(momentengine, "integrate", self._integrate(momentengine.integrate))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list] = {}
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def dump(self, path) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread", "units"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer) -> dict[str, tuple]:
    """Name -> (value, unit) for one traced pass; zero where a layer did not run."""
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)

    def self_of(pred) -> float:
        return float(sum(selfs[s[0]] for name, spans in by_name.items() if pred(name) for s in spans))

    def layer(prefix):
        return lambda name: name.split(".")[0] == prefix

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    jfn_spans = spans_of("specfun.jfn", "specfun.jfn_times_t")
    points = sum(s[6] for s in jfn_spans)
    gc_spans = [s for name, spans in by_name.items() if layer("gausscalc")(name) for s in spans]
    steps = spans_of("shesim.step")
    count, sec, ms, us = "count", "s", "ms", "us"
    return {
        "specfun.self_s": (self_of(layer("specfun")), sec),
        "specfun.points": (points, count),
        "specfun.us_per_point":
            ((sum(selfs[s[0]] for s in jfn_spans) / points * 1e6) if points else 0.0, us),
        "gausscalc.self_s": (self_of(layer("gausscalc")), sec),
        "gausscalc.calls": (len(gc_spans), count),
        "gausscalc.rows": (sum(s[6] for s in gc_spans), count),
        "momentengine.self_s": (self_of(layer("momentengine")), sec),
        "momentengine.diagrams": (len(spans_of("momentengine.diagram_contribution")), count),
        "diagrams.self_s": (self_of(layer("diagrams")), sec),
        "simplexint.self_s": (self_of(layer("simplexint")), sec),
        "shesim.step.self_s": (self_of(lambda n: n == "shesim.step"), sec),
        "shesim.noise.self_s": (self_of(lambda n: n == "shesim.noise_increment"), sec),
        "shesim.replica_steps": (len(steps), count),
        "shesim.ms_per_replica_step":
            ((sum(s[3] - s[2] for s in steps) / len(steps) * 1e3) if steps else 0.0, ms),
        "shesim.oracle.self_s": (self_of(lambda n: n == "shesim.two_particle_oracle"), sec),
        "mollifier.self_s": (self_of(layer("mollifier")), sec),
        "cli.self_s": (self_of(layer("cli")), sec),
    }
