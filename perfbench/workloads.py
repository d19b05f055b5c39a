"""The workloads that call revrel in the benchmark's own process: matrix,
sweep and sample. The fourth, cli, is in ``light.py``.

A workload is built from a seed and a size ("full" or "tiny") and yields
rounds. A round is a list of ops; each op is ``(label, run, check)``, where
``run()`` calls revrel and ``check(result)`` returns "" when the result is
correct and a reason otherwise. ``end_round(results)`` does the work that
follows a round (the matrix serializes its report there) and returns
information to record. Rounds draw their inputs from a generator seeded
afresh on every ``rounds()`` call, so an untraced and a traced pass over
the same rounds see the same inputs.

Every op goes through ``hooks``: ``light.Plain`` in timed runs, a ``Tracer`` in
the traced run, which wraps the models, checks and calls handed in.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np

from revrel import (
    TheoremId,
    Verdict,
    cdf_from_rhr,
    default_models,
    equality_family,
    format_family,
    identify,
    reports_to_json,
    rhr_eit_identity_residual,
    run_check,
    sample_inverse_cdf,
    theorem_catalog,
)


def exit2_reason(report):
    """The reason `revrel verify` would exit 2 on this cell, or ""."""
    if report.suspect:
        return ""
    if report.verdict is Verdict.Violation:
        return "Violation"
    if report.expected_equality and report.verdict is not Verdict.Equality:
        return f"expected Equality, got {report.verdict.value}"
    return ""


def cell_label(check, model):
    return f"{check.id.value}/{format_family(model.spec)}"


# ----------------------------------------------------------------- matrix

class Matrix:
    """The default `revrel verify` battery: 20 checks x 11 catalog families.

    An op is one cell. The seed only shuffles the order the cells run in;
    the report is serialized in the CLI's order after each pass.
    """

    name = "matrix"
    trace_rounds = 1

    def __init__(self, seed, size):
        models = default_models()
        checks = theorem_catalog()
        if size == "tiny":
            models, checks = models[:2], checks[:4]
        self.cells = [(c, m) for c in checks for m in models]
        self.order = list(range(len(self.cells)))
        random.Random(seed).shuffle(self.order)
        self.inputs = [cell_label(*self.cells[i]) for i in self.order]

    def rounds(self, hooks):
        while True:
            ops = []
            for i in self.order:
                check, model = self.cells[i]
                run = hooks.span("characterizations.cell", _cell_runner(hooks, check, model),
                                 label=cell_label(check, model))
                ops.append((cell_label(check, model), run, exit2_reason))
            yield ops

    def end_round(self, results, hooks):
        by_label = {label: report for label, report in results if report is not None}
        reports = [by_label[cell_label(c, m)] for c, m in self.cells
                   if cell_label(c, m) in by_label]
        text = hooks.span("characterizations.serialize", reports_to_json)(reports)
        tally = Counter(r.verdict.value for r in reports)
        return {"verdicts": dict(sorted(tally.items())),
                "report_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _cell_runner(hooks, check, model):
    return lambda: run_check(hooks.check(check), hooks.model(model))


# ------------------------------------------------------------------ sweep

_NON_SUSPECT = tuple(c for c in theorem_catalog() if not c.suspect)
_POWER_CHECKS = (TheoremId.T2_2, TheoremId.T3_4)
_OWN_PARAMS = (TheoremId.T2_4, TheoremId.T2_5, TheoremId.T2_6,
               TheoremId.T2_9, TheoremId.T2_10, TheoremId.T3_5)
_RESIDUAL_PROBS = (0.25, 0.75)
# the tolerances the test suite holds the two identities to
IDENTITY_TOL = 1e-4
RECONSTRUCTION_TOL = 1e-6


def sweep_point(rng):
    """Parameters for every non-suspect check's own equality family.

    Checks that share a family (eight on type3ev, two on power) share one
    draw. The box stays where the engine converges without exhausting its
    budget; see README.md for the edge of it.
    """
    u = rng.uniform
    type3ev = {"gamma": u(0.5, 3.0), "b": u(0.0, 2.0)}
    power = {"b": u(0.5, 3.0), "c": u(0.5, 4.0)}
    alpha = u(0.5, 2.0)
    beta = 0.5 * alpha  # T3_5's weight 1 + 0.5*x keeps alpha/beta = 2
    own = {
        TheoremId.T2_4: {"theta": u(0.5, 3.0)},
        TheoremId.T2_5: {"alpha": u(0.5, 3.0), "b": u(-1.0, 1.0)},
        TheoremId.T2_6: {"theta": u(0.5, 3.0), "b": u(-1.0, 1.0)},
        TheoremId.T2_9: {"theta": u(0.25, 2.0)},
        TheoremId.T2_10: {"theta": u(0.25, 2.0)},
        TheoremId.T3_5: {"xi": u(0.2, 0.6) / beta, "alpha": alpha, "beta": beta,
                         "b": u(-1.0, 1.0)},
    }
    point = []
    for check in _NON_SUSPECT:
        if check.id in _OWN_PARAMS:
            point.append((check, own[check.id]))
        else:
            point.append((check, power if check.id in _POWER_CHECKS else type3ev))
    return point


class Sweep:
    """Seeded random parameter points, checked on their own equality family.

    A round is one point: 16 cells, then the two identity residuals at two
    quantile points of each distinct model. An op is one cell or one residual.
    """

    name = "sweep"

    def __init__(self, seed, size):
        self.seed = seed
        self.trace_rounds = 1 if size == "tiny" else 8
        self.inputs = [[(c.id.value, p) for c, p in point]
                       for point in itertools.islice(self.points(), 4)]

    def points(self):
        rng = random.Random(self.seed)
        while True:
            yield sweep_point(rng)

    def rounds(self, hooks):
        for point in self.points():
            ops = []
            models = {}
            for check, params in point:
                model = equality_family(check.id, **params)
                models.setdefault(format_family(model.spec), model)
                run = hooks.span("characterizations.cell", _cell_runner(hooks, check, model),
                                 label=cell_label(check, model))
                ops.append((cell_label(check, model), run, exit2_reason))
            for text, model in models.items():
                traced = hooks.model(model)
                for p in _RESIDUAL_PROBS:
                    t = float(model.quantile(p))
                    ops.append(_residual_op(hooks, "identity", text, traced, t))
                    if math.isfinite(model.support.upper):
                        ops.append(_residual_op(hooks, "reconstruction", text, traced, t,
                                                model.cdf(t)))
            yield ops

    def end_round(self, results, hooks):
        return {}


def _residual_op(hooks, kind, text, model, t, cdf_t=None):
    if kind == "identity":
        fn = hooks.span("functionals.identity_residual", rhr_eit_identity_residual)
        run = lambda: fn(model, t)
        check = lambda r: "" if abs(r) <= IDENTITY_TOL else f"residual {r!r}"
    else:
        fn = hooks.span("functionals.cdf_from_rhr", cdf_from_rhr)
        run = lambda: fn(model, t)
        check = lambda r: "" if abs(r - cdf_t) <= RECONSTRUCTION_TOL else \
            f"cdf {r!r} against {cdf_t!r}"
    return (f"{kind}/{text}@{t!r}", run, check)


# ----------------------------------------------------------------- sample

# Kolmogorov-Smirnov critical value times sqrt(n). Every run draws fresh
# samples, so a level of 0.1% would fail one correct op in a thousand, a few
# per run; at 1e-9 a chance failure is unlikely in a lifetime of runs, while
# a wrong quantile still sits far above it (0.0231 at n = 20,000).
KS_LEVEL = 1e-9
KS_CRIT = math.sqrt(-0.5 * math.log(KS_LEVEL / 2.0))


def ks_distance(cdf, values):
    """Two-sided Kolmogorov-Smirnov distance of sorted values to cdf."""
    n = len(values)
    f = np.fromiter(map(cdf, values.tolist()), dtype=float, count=n)
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))


class Sample:
    """Inverse-cdf sampling at n = 20,000 then `identify`, per catalog family.

    An op is one family; a round covers all eleven with fresh sampling seeds.
    """

    name = "sample"
    trace_rounds = 1

    def __init__(self, seed, size):
        self.seed = seed
        self.n = 500 if size == "tiny" else 20_000
        self.models = default_models()
        self.inputs = list(itertools.islice(self.seeds(), 2))

    def seeds(self):
        """Sampling seeds, one list per round with one seed per family."""
        rng = random.Random(self.seed)
        while True:
            yield [rng.getrandbits(63) for _ in self.models]

    def rounds(self, hooks):
        sample = hooks.span("quadrature.sample", sample_inverse_cdf)
        rank = hooks.span("empirics.identify", identify)
        for seeds in self.seeds():
            ops = []
            for model, s in zip(self.models, seeds):
                traced = hooks.model(model)

                def run(traced=traced, s=s):
                    xs = sample(traced, self.n, s)
                    return xs, rank(xs)

                ops.append((format_family(model.spec), run, _sample_checker(model, self.n)))
            yield ops

    def end_round(self, results, hooks):
        return {}


def _sample_checker(model, n):
    lo, hi = model.support.lower, model.support.upper
    crit = KS_CRIT / math.sqrt(n)

    def check(result):
        values = result[0].values
        if values[0] < lo or values[-1] > hi:
            return "draw outside the support"
        d = ks_distance(model.cdf, values)
        return "" if d <= crit else f"KS distance {d:.4f} above {crit:.4f}"
    return check


def make(name, seed, size):
    """One of the workloads that call revrel in this process; cli is in light.py."""
    return {"matrix": Matrix, "sweep": Sweep, "sample": Sample}[name](seed, size)
