"""Spans and counters recorded around qlo's layer boundaries, from outside.

``Tracer.install`` replaces each traced public function in every ``qlo``
module that imported it from another module (and in the ``qlo`` package
itself, through which the benchmark makes its calls) by a timing wrapper,
and puts the originals back on exit.  Nothing under ``src/`` changes; calls
a module makes to its own functions are not boundaries and stay untraced.

Every traced call adds to per-name call counts, total time and self time
(duration minus the time its traced children cover).  Spans, with name,
start, end, parent and job id, are kept for the job and for the calls the
benchmark makes directly; calls nested deeper only add to the totals, which
keeps the span list small enough to hold in memory for a whole run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# layer module -> traced public names; the metric prefix is the module name
TRACED = {
    "monoid": ("normalize", "multiply", "join", "wick"),
    "growth": ("enumerate_up_to", "growth_table", "clique_polynomial", "invert_series", "verify_inversion"),
    "thermo": ("ThermoContext", "clique_roots_in_unit_interval", "kms_identity_check", "partition_function", "tail_mass"),
    "fock": ("build_rep", "left_op", "vacuum_projection", "range_projection", "gibbs_numeric", "kms_numeric_check"),
}


def _observers(q):
    """name -> fn(result) giving the counters a traced call adds to.

    A counter whose name ends in ``_max`` keeps the largest value instead.
    """
    return {
        "monoid.join": lambda r: {"monoid.join.infinite": r is q.INFINITY},
        "growth.enumerate_up_to": lambda r: {"growth.enumerate_up_to.elements": len(r)},
        "growth.growth_table": lambda r: {"growth.growth_table.levels": len(r)},
        "thermo.ThermoContext": lambda r: {
            "thermo.scale": r.clique_poly.scale,
            "thermo.poly_degree": int(r.clique_poly.degree * r.clique_poly.scale),
        },
        "thermo.clique_roots_in_unit_interval": lambda r: {"thermo.roots": len(r.roots)},
        "fock.build_rep": lambda r: {"fock.basis_dim": r.dim},
        "fock.left_op": lambda r: {"fock.left_op.kept": len(r.entries) / r.dim},
        "fock.kms_numeric_check": lambda r: {
            "fock.kms_numeric_check.residual_to_bound_max": r.residual / r.bound
        },
    }


class Tracer:
    """In-memory spans, per-name totals and result counters for one run."""

    def __init__(self):
        self.spans = []  # (job, span id, parent id, name, start ns, end ns)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack = []  # open frames: [span id, child ns]
        self._next_id = 0
        self._job = -1

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _leave(self, name, frame, parent, start, end):
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if len(self._stack) <= 1:  # the job span or a direct benchmark call
            self.spans.append((self._job, frame[0], parent, name, start, end))

    @contextlib.contextmanager
    def job(self):
        """Span of one job; jobs are numbered 0, 1, ... in order."""
        self._job += 1
        frame, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._leave("job", frame, parent, start, time.perf_counter_ns())

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            frame, parent = self._enter()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, parent, start, time.perf_counter_ns())
            if observe is not None:
                for key, value in observe(result).items():
                    if key.endswith("_max"):
                        self.counters[key] = max(self.counters[key], value)
                    else:
                        self.counters[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def install(self, q):
        """Interpose on every traced boundary of the imported qlo modules."""
        observers = _observers(q)
        modules = [m for k, m in list(sys.modules.items()) if k == "qlo" or k.startswith("qlo.")]
        patched = []
        try:
            for layer, names in TRACED.items():
                home = sys.modules[f"qlo.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    key = f"{layer}.{name}"
                    wrapper = self.wrap(key, original, observers.get(key))
                    for module in modules:
                        if module is not home and vars(module).get(name) is original:
                            setattr(module, name, wrapper)
                            patched.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)
