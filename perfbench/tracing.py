"""Outside-in tracing of revrel for the benchmark's traced run.

Nothing here edits revrel's source. The tracer works on what the benchmark
hands in and on module namespaces, and only while it is installed:

* models are re-packed with ``dataclasses.replace`` so that every closure
  (pdf, cdf, log_cdf, rhr, eit, rai, quantile) is a counting, timing wrapper;
* checks are re-packed as ``_TracedCheck`` so that the weight callables
  ``CheckSpec.lhs_weights`` assembles are wrapped the same way;
* ``expectation``, ``raw_moment``, ``integrate_*``, ``gap_statistics``,
  ``reports_to_json`` and ``brentq`` are swapped for timed wrappers in the
  namespace of the module that calls them.

Spans (cell, integral and function level) are kept in memory with a parent
link and written out at the end. Closure and weight calls, millions per
run, are not spans: their count and exclusive time are aggregated, and
their total time is charged to the enclosing span, so that a span's self
time is its duration minus its child spans and minus those callbacks.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import revrel.characterizations as characterizations
import revrel.cli as cli
import revrel.distributions as distributions
import revrel.empirics as empirics
import revrel.functionals as functionals
import revrel.quadrature as quadrature
from revrel import CheckSpec, QuadStatus

_CLOSURES = ("pdf", "cdf", "log_cdf", "rhr", "eit", "rai")
_INTEGRATORS = ("integrate_finite", "integrate_lower_unbounded", "integrate_upper_unbounded")

# Cells at or above this many evaluations ran into the engine's budget.
BUDGET_EVALUATIONS = 400_000

class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "callback_s", "attrs")

    def __init__(self, sid, parent, name, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0
        self.callback_s = 0.0
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.callback_s

    def record(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                **self.attrs}


@dataclasses.dataclass(frozen=True)
class _TracedCheck(CheckSpec):
    tracer: object = dataclasses.field(default=None, compare=False, repr=False)

    def lhs_weights(self, model):
        return tuple(self.tracer.callback(w, "weight", "weight")
                     for w in super().lhs_weights(model))


class Tracer:
    """Spans and aggregated callback counters for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []      # (span, callback time of the parent saved at open)
        self._inner = 0.0     # callback time so far under the innermost open span
        self._depth = 0       # > 0 while inside a wrapped callback
        self.calls = defaultdict(int)
        self.excl = defaultdict(float)
        self.brentq_calls = 0
        self._models = {}
        self._undo = []

    # ------------------------------------------------------------ spans

    def _open(self, name, attrs):
        parent = self._stack[-1][0].id if self._stack else None
        span = Span(len(self.spans), parent, name, attrs)
        self.spans.append(span)
        self._stack.append((span, self._inner))
        self._inner = 0.0
        return span

    def _close(self):
        span, saved = self._stack.pop()
        span.end = time.perf_counter()
        span.callback_s = self._inner
        self._inner = saved
        if self._stack:
            self._stack[-1][0].child_s += span.duration

    def span(self, name, fn, **attrs):
        """fn wrapped so that each call outside a callback is one span."""
        def wrapped(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._open(name, dict(attrs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapped

    def top(self):
        return self._stack[-1][0] if self._stack else None

    # -------------------------------------------------------- callbacks

    def callback(self, fn, category, key):
        """fn wrapped to add its call count and exclusive time to the totals."""
        perf = time.perf_counter
        calls = self.calls
        excl = self.excl
        tracer = self

        def wrapped(*args):
            saved = tracer._inner
            tracer._inner = 0.0
            tracer._depth += 1
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t0
                tracer._depth -= 1
                excl[category] += dt - tracer._inner
                calls[key] += 1
                tracer._inner = saved + dt
        return wrapped

    def _quantile(self, fn):
        """Like callback, but a call in which brentq ran counts as root-finding."""
        perf = time.perf_counter
        tracer = self

        def wrapped(p):
            saved = tracer._inner
            tracer._inner = 0.0
            tracer._depth += 1
            before = tracer.brentq_calls
            t0 = perf()
            try:
                return fn(p)
            finally:
                dt = perf() - t0
                tracer._depth -= 1
                rootfind = tracer.brentq_calls != before
                tracer.excl["quantile_rootfind" if rootfind else "quantile_closed"] += \
                    dt - tracer._inner
                tracer.calls["quantile"] += 1
                tracer._inner = saved + dt
        return wrapped

    # ----------------------------------------------------- handing in

    def model(self, m):
        """m re-packed with every closure wrapped (cached per model)."""
        hit = self._models.get(id(m))
        if hit is not None:
            return hit[1]
        changes = {name: self.callback(getattr(m, name), "closure", name)
                   for name in _CLOSURES if getattr(m, name) is not None}
        changes["quantile"] = self._quantile(m.quantile)
        traced = dataclasses.replace(m, **changes)
        self._models[id(m)] = (m, traced)  # keeps m alive so its id stays unique
        return traced

    def check(self, c):
        fields = {f.name: getattr(c, f.name) for f in dataclasses.fields(CheckSpec)}
        return _TracedCheck(**fields, tracer=self)

    # ------------------------------------------------- namespace swaps

    def _swap(self, module, name, replacement):
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _integral(self, fn, owned_by_functionals):
        def wrapped(f, *args, **kwargs):
            top = self.top()
            if self._depth or (owned_by_functionals and (
                    top is None or not top.name.startswith("functionals."))):
                return fn(f, *args, **kwargs)
            span = self._open("quadrature.integral", {})
            try:
                res = fn(self.callback(f, "integrand", "integrand"), *args, **kwargs)
                span.attrs.update(evaluations=res.evaluations, status=res.status.value)
                return res
            finally:
                self._close()
        return wrapped

    def _expectation(self, fn):
        def wrapped(spec, *args, **kwargs):
            if self._depth:
                return fn(spec, *args, **kwargs)
            span = self._open("quadrature.expectation", {})
            try:
                res = fn(spec, *args, **kwargs)
                span.attrs.update(evaluations=res.evaluations, status=res.status.value)
                return res
            finally:
                self._close()
        return wrapped

    def _count_brentq(self, fn):
        def wrapped(*args, **kwargs):
            self.brentq_calls += 1
            return fn(*args, **kwargs)
        return wrapped

    def install(self):
        import scipy.optimize

        self._swap(characterizations, "expectation",
                   self._expectation(characterizations.expectation))
        self._swap(characterizations, "raw_moment",
                   self.span("characterizations.rhs", characterizations.raw_moment))
        self._swap(functionals, "integrate_finite",
                   self._integral(functionals.integrate_finite, False))
        # cdf_cumulative_integral calls these through quadrature's own
        # namespace; they become spans only under a functionals span
        for name in _INTEGRATORS:
            self._swap(quadrature, name, self._integral(getattr(quadrature, name), True))
        self._swap(empirics, "gap_statistics",
                   self.span("empirics.gap_statistics", empirics.gap_statistics))
        self._swap(cli, "reports_to_json",
                   self.span("characterizations.serialize", cli.reports_to_json))
        for module in (distributions, scipy.optimize):
            if hasattr(module, "brentq"):
                self._swap(module, "brentq", self._count_brentq(module.brentq))

    def uninstall(self):
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---------------------------------------------------------- output

    def cell_table(self):
        """One row per traced cell: evaluations, component statuses, time."""
        rows = {}
        for s in self.spans:
            if s.name == "characterizations.cell":
                rows[s.id] = {"cell": s.attrs.get("label", ""), "evaluations": 0,
                              "statuses": [], "traced_s": s.duration}
            elif s.name == "quadrature.expectation" and s.parent in rows:
                rows[s.parent]["evaluations"] += s.attrs.get("evaluations", 0)
                rows[s.parent]["statuses"].append(s.attrs.get("status"))
        return list(rows.values())

    def metrics(self, names):
        """Per-layer totals from the spans and callback counters; every name
        starts at 0, so a layer the run did not use reports 0."""
        m = dict.fromkeys(names, 0)
        wasted = 0
        for s in self.spans:
            if s.name in ("quadrature.expectation", "quadrature.integral"):
                ev = s.attrs.get("evaluations", 0)
                m["quadrature.integrals"] += 1
                m["quadrature.evaluations"] += ev
                m["quadrature.self_s"] += s.self_s
                if s.attrs.get("status") != QuadStatus.Converged.value:
                    m["quadrature.nonconverged"] += 1
                    wasted += ev
            elif s.name == "quadrature.sample":
                m["quadrature.sample_self_s"] += s.self_s
            elif s.name == "characterizations.cell":
                m["characterizations.cells"] += 1
                m["characterizations.cell_self_s"] += s.self_s
            elif s.name == "characterizations.rhs":
                m["characterizations.rhs_s"] += s.duration
            elif s.name == "characterizations.serialize":
                m["characterizations.serialize_s"] += s.duration
            elif s.name.startswith("functionals."):
                m["functionals.calls"] += 1
                m["functionals.self_s"] += s.self_s
            elif s.name == "empirics.identify":
                m["empirics.identify_s"] += s.duration
            elif s.name == "empirics.gap_statistics":
                m["empirics.gap_statistics_calls"] += 1
        m["quadrature.budget_cells"] = sum(
            1 for row in self.cell_table() if row["evaluations"] >= BUDGET_EVALUATIONS)
        if m["quadrature.evaluations"]:
            m["quadrature.wasted_eval_frac"] = wasted / m["quadrature.evaluations"]
        # integrands handed to the engine by functionals are functionals code
        m["functionals.self_s"] += self.excl["integrand"]
        for c in _CLOSURES:
            m[f"distributions.{c}_calls"] = self.calls[c]
        m["distributions.closure_s"] = self.excl["closure"]
        m["distributions.quantile_calls"] = self.calls["quantile"]
        m["distributions.quantile_rootfind_s"] = self.excl["quantile_rootfind"]
        m["distributions.quantile_closed_s"] = self.excl["quantile_closed"]
        m["characterizations.weight_calls"] = self.calls["weight"]
        m["characterizations.weight_self_s"] = self.excl["weight"]
        return m
