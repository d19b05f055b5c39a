"""Acceptance gate: nine go/no-go criteria, one printed line each.

Every criterion prints exactly one ``ACCEPTANCE n <label>: PASS|FAIL``
line (visible under pytest -s, and in captured output otherwise) and
then asserts. Tolerances are pinned literals; loosening any of them is
a behavior change, not a test fix.
"""

import io
import json
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sc

from revrel.characterizations import (
    TheoremId,
    Verdict,
    claimed_equality_pair,
    make_check,
    run_check,
)
from revrel.cli import main as cli_main
from revrel.distributions import cdf_at, model_from_text, quantile_at
from revrel.empirics import empirical_eit, identify, mc_expectation, sample_inverse_cdf
from revrel.functionals import (
    cdf_from_rhr,
    eit,
    rai,
    rai_integral_form,
    rhr_eit_identity_residual,
)
from revrel.quadrature import Tolerances

ALL_TEXTS = (
    "type3ev:gamma=2,b=0",
    "power:b=1,c=2",
    "invweibull:nu=1,delta=3",
    "truncevpower:alpha=1.5,b=0",
    "basealinkedrhr:theta=1,a_base=2,b=0",
    "reflweibull:theta=0.5,k=1",
    "finiterange:theta=0.5,b=1,k=1",
    "linearmit:xi=0.8,alpha=1,beta=0.5,b=0",
    "explinkedeit:theta=1,b=0",
    "basealinkedeit:gamma=1,delta=1,a_base=2,b=0",
    "uniform:b=1",
)


def _report(num, label, problems, extra=""):
    status = "PASS" if not problems else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} {label}: {status}{tail}")
    assert not problems, "; ".join(problems)


def _run(theorem, text, tol=None, **kwargs):
    return run_check(make_check(theorem, **kwargs), model_from_text(text), tol=tol)


# ---------------------------------------------------------------------------
# 1. the full matrix holds direction everywhere it converges, in under 10 s

def test_criterion_1_matrix_direction_and_runtime(matrix_run):
    reports, elapsed = matrix_run
    problems = []
    if len(reports) != 220:
        problems.append(f"expected 220 cells, got {len(reports)}")
    for r in reports:
        if r.verdict is Verdict.Violation:
            problems.append(f"violation at {r.theorem.value} x {r.family.family}")
        if math.isfinite(r.ratio) and r.ratio < 1.0 - 1e-4:
            problems.append(
                f"{r.theorem.value} x {r.family.family}: ratio {r.ratio} below band")
    if elapsed >= 10.0:
        problems.append(f"matrix took {elapsed:.1f}s, budget is 10s")
    _report(1, "matrix-direction-and-runtime", problems,
            f"220 cells in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. every non-suspect check achieves equality on its named family,
#    two parameter settings or more per check

EQUALITY_SETTINGS = (
    ("T2_1", {}, "type3ev:gamma=1,b=0", None),
    ("T2_1", {}, "type3ev:gamma=2.5,b=1.5", None),
    ("T2_2", {}, "power:b=1,c=2", None),
    ("T2_2", {}, "power:b=2,c=3.5", None),
    ("T2_4", {"k": 2}, "invweibull:nu=1,delta=1", None),
    ("T2_4", {"k": 2}, "invweibull:nu=2.5,delta=1", None),
    ("T2_5", {}, "truncevpower:alpha=1.5,b=0", None),
    ("T2_5", {}, "truncevpower:alpha=0.7,b=1", None),
    ("T2_6", {"base": 2.0}, "basealinkedrhr:theta=1,a_base=2,b=0", None),
    ("T2_6", {"base": 2.0}, "basealinkedrhr:theta=2,a_base=2,b=1", None),
    ("T2_7", {}, "type3ev:gamma=1,b=2", 1.0),    # lhs = gamma * mean
    ("T2_7", {}, "type3ev:gamma=2,b=3", 5.0),
    ("T2_8", {"k": 2}, "type3ev:gamma=1,b=0", 2.0),
    ("T2_8", {"k": 2}, "type3ev:gamma=1,b=3", 5.0),
    ("T2_9", {}, "reflweibull:theta=0.5,k=1", -1.0),
    ("T2_9", {}, "reflweibull:theta=2,k=1", -4.0),
    ("T2_10", {"k": 3}, "reflweibull:theta=0.5,k=3", -2.0),
    ("T2_10", {"k": 3}, "reflweibull:theta=1,k=3", -4.0),
    ("T3_1", {}, "type3ev:gamma=1,b=0", None),
    ("T3_1", {}, "type3ev:gamma=2,b=1", None),
    ("T3_4", {}, "power:b=1,c=2", None),
    ("T3_4", {}, "power:b=1,c=1", None),
    ("T3_4", {}, "linearmit:xi=1,alpha=0,beta=-0.5,b=-1", None),
    ("T3_5", {"alpha": 1.0, "beta": 0.5}, "linearmit:xi=0.8,alpha=1,beta=0.5,b=0", None),
    ("T3_5", {"alpha": 1.0, "beta": 0.0}, "linearmit:xi=1.2,alpha=1,beta=0,b=0", None),
    ("T3_5", {"alpha": 1.0, "beta": -0.5}, "linearmit:xi=0.8,alpha=1,beta=-0.5,b=-3", None),
    ("T4_1", {}, "type3ev:gamma=1,b=2", None),
    ("T4_1", {}, "type3ev:gamma=0.5,b=0", None),
    ("T4_2", {"k": 1}, "type3ev:gamma=1,b=0", 1.0),    # rhs = mean^2
    ("T4_2", {"k": 1}, "type3ev:gamma=2,b=1", 0.25),
    ("T4_3", {}, "type3ev:gamma=1,b=0", None),
    ("T4_3", {}, "type3ev:gamma=3,b=2", None),
    ("T4_4", {"k": 1}, "type3ev:gamma=1,b=0", 1.0),
    ("T4_4", {"k": 1}, "type3ev:gamma=2,b=1", 0.25),
)


def test_criterion_2_equality_settings():
    problems = []
    per_theorem = {}
    for name, kwargs, text, pinned in EQUALITY_SETTINGS:
        tid = TheoremId(name)
        r = _run(tid, text, **kwargs)
        per_theorem[name] = per_theorem.get(name, 0) + 1
        if r.verdict is not Verdict.Equality:
            problems.append(f"{name} x {text}: {r.verdict.value}")
        elif abs(r.ratio - 1.0) > 1e-4:
            problems.append(f"{name} x {text}: |ratio-1| = {abs(r.ratio - 1.0)}")
        if pinned is not None and abs(r.rhs - pinned) > 1e-8 * abs(pinned):
            problems.append(f"{name} x {text}: rhs {r.rhs} != pinned {pinned}")
    suspects = {"T3_2", "T3_3", "T3_6", "T3_7"}
    missing = [tid.value for tid in TheoremId
               if tid.value not in suspects and per_theorem.get(tid.value, 0) < 2]
    if missing:
        problems.append(f"checks with fewer than two settings: {missing}")
    _report(2, "equality-settings", problems,
            f"{len(EQUALITY_SETTINGS)} settings over 16 checks")


# ---------------------------------------------------------------------------
# 3. designated strict pairs clear the band, spot-validated against
#    scipy.integrate.quad

STRICT_PAIRS = (
    ("T2_1", "power:b=1,c=2"), ("T2_1", "truncevpower:alpha=1.5,b=0"),
    ("T2_1", "basealinkedrhr:theta=1,a_base=2,b=0"),
    ("T2_1", "reflweibull:theta=0.5,k=1"),
    ("T2_1", "linearmit:xi=0.8,alpha=1,beta=0.5,b=0"),
    ("T2_1", "explinkedeit:theta=1,b=0"),
    ("T2_1", "basealinkedeit:gamma=1,delta=1,a_base=2,b=0"),
    ("T2_2", "finiterange:theta=0.5,b=1,k=1"),
    ("T2_4", "power:b=1,c=2"), ("T2_4", "invweibull:nu=1,delta=3"),
    ("T2_5", "type3ev:gamma=2,b=0"), ("T2_5", "power:b=1,c=2"),
    ("T2_5", "basealinkedrhr:theta=1,a_base=2,b=0"),
    ("T2_5", "reflweibull:theta=0.5,k=1"),
    ("T2_5", "linearmit:xi=0.8,alpha=1,beta=0.5,b=0"),
    ("T2_6", "type3ev:gamma=2,b=0"), ("T2_6", "power:b=1,c=2"),
    ("T2_6", "truncevpower:alpha=1.5,b=0"), ("T2_6", "reflweibull:theta=0.5,k=1"),
    ("T2_7", "power:b=1,c=2"), ("T2_7", "truncevpower:alpha=1.5,b=0"),
    ("T2_7", "reflweibull:theta=0.5,k=1"), ("T2_7", "uniform:b=1"),
    ("T2_8", "power:b=1,c=2"), ("T2_8", "finiterange:theta=0.5,b=1,k=1"),
    ("T3_1", "power:b=1,c=2"), ("T3_1", "invweibull:nu=1,delta=3"),
    ("T3_1", "truncevpower:alpha=1.5,b=0"),
    ("T3_4", "invweibull:nu=1,delta=3"), ("T3_4", "reflweibull:theta=0.5,k=1"),
    ("T3_4", "finiterange:theta=0.5,b=1,k=1"),
    ("T4_1", "truncevpower:alpha=1.5,b=0"),
    ("T4_1", "basealinkedrhr:theta=1,a_base=2,b=0"),
    ("T4_2", "power:b=1,c=2"),
    ("T4_3", "power:b=1,c=2"), ("T4_3", "uniform:b=1"),
)


def _quad(fn, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = scipy.integrate.quad(fn, lo, hi, limit=300)
    return val


def _weighted(weight, pdf):
    # density-first evaluation: where the pdf has underflowed to zero the
    # weight may overflow, but the product is zero
    def fn(x):
        d = pdf(x)
        if d == 0.0:
            return 0.0
        return weight(x) * d
    return fn


def _quad_spot_checks():
    """Recompute eight designated strict cells with scipy.integrate.quad."""
    problems = []

    def check(name, engine_value, quad_value, rel=1e-6):
        if abs(engine_value - quad_value) > rel * abs(quad_value):
            problems.append(f"{name}: engine {engine_value} vs quad {quad_value}")

    # product checks: quad each weighted factor over the support
    m = model_from_text("power:b=1,c=2")
    r = _run(TheoremId.T2_1, "power:b=1,c=2")
    lhs = _quad(_weighted(lambda x: x / 2.0, m.pdf), 0, 1) * _quad(
        _weighted(lambda x: 2.0 / x, m.pdf), 0, 1)
    check("T2_1 x power", r.lhs, lhs)
    if abs(r.ratio - 4.0 / 3.0) > 1e-8:
        problems.append(f"T2_1 x power ratio {r.ratio} != 4/3")

    m = model_from_text("reflweibull:theta=0.5,k=1")
    r = _run(TheoremId.T2_1, "reflweibull:theta=0.5,k=1")
    lhs = _quad(_weighted(lambda x: 1.0 / -x, m.pdf), -np.inf, 0) * _quad(
        _weighted(lambda x: -x, m.pdf), -np.inf, 0)
    check("T2_1 x reflweibull", r.lhs, lhs)

    m = model_from_text("type3ev:gamma=2,b=0")
    r = _run(TheoremId.T2_5, "type3ev:gamma=2,b=0")
    lhs = _quad(_weighted(lambda x: math.exp(-x) / 2.0, m.pdf), -np.inf, 0) * _quad(
        _weighted(lambda x: math.exp(x) * 2.0, m.pdf), -np.inf, 0)
    check("T2_5 x type3ev", r.lhs, lhs)

    m = model_from_text("power:b=1,c=2")
    r = _run(TheoremId.T2_6, "power:b=1,c=2")
    lhs = _quad(_weighted(lambda x: x / (2.0 ** x * 2.0), m.pdf), 0, 1) * _quad(
        _weighted(lambda x: 2.0 ** x * 2.0 / x, m.pdf), 0, 1)
    check("T2_6 x power", r.lhs, lhs)

    # moment checks: quad the weighted rate and the plain moments
    m = model_from_text("truncevpower:alpha=1.5,b=0")
    r = _run(TheoremId.T2_7, "truncevpower:alpha=1.5,b=0")
    lhs = _quad(_weighted(lambda x: x * 1.5 * math.exp(-x), m.pdf), -np.inf, 0)
    mu = _quad(_weighted(lambda x: x, m.pdf), -np.inf, 0)
    mu2 = _quad(_weighted(lambda x: x * x, m.pdf), -np.inf, 0)
    check("T2_7 x truncevpower lhs", r.lhs, lhs)
    check("T2_7 x truncevpower rhs", r.rhs, 2.0 * mu * mu / (0.0 - mu2))

    m = model_from_text("finiterange:theta=0.5,b=1,k=1")
    r = _run(TheoremId.T2_8, "finiterange:theta=0.5,b=1,k=1", k=2)
    lhs = _quad(_weighted(lambda x: x * x * (1.0 / x + x), m.pdf), 0, 1)
    mu2 = _quad(_weighted(lambda x: x ** 2, m.pdf), 0, 1)
    mu3 = _quad(_weighted(lambda x: x ** 3, m.pdf), 0, 1)
    check("T2_8 x finiterange lhs", r.lhs, lhs)
    check("T2_8 x finiterange rhs", r.rhs, 3.0 * mu2 * mu2 / (1.0 - mu3))

    m = model_from_text("invweibull:nu=1,delta=3")
    r = _run(TheoremId.T3_4, "invweibull:nu=1,delta=3")
    lhs = _quad(_weighted(lambda x: m.eit(x) / x, m.pdf), 0, np.inf) * _quad(
        _weighted(lambda x: x / m.eit(x), m.pdf), 0, np.inf)
    check("T3_4 x invweibull", r.lhs, lhs)

    m = model_from_text("basealinkedrhr:theta=1,a_base=2,b=0")
    r = _run(TheoremId.T4_3, "basealinkedrhr:theta=1,a_base=2,b=0")
    lhs = _quad(_weighted(lambda x: rai(m, x) / m.rhr(x), m.pdf), -np.inf, 0) * _quad(
        _weighted(lambda x: m.rhr(x) / rai(m, x), m.pdf), -np.inf, 0)
    check("T4_3 x basealinkedrhr", r.lhs, lhs)
    return problems


def test_criterion_3_strict_pairs_and_quad_spot_checks():
    problems = []
    for name, text in STRICT_PAIRS:
        r = _run(TheoremId(name), text)
        if r.verdict is not Verdict.StrictInequality:
            problems.append(f"{name} x {text}: {r.verdict.value}")
        elif r.ratio - 1.0 <= 1e-3:
            problems.append(f"{name} x {text}: margin {r.ratio - 1.0}")
    problems += _quad_spot_checks()
    _report(3, "strict-pairs-with-quad-spots", problems,
            f"{len(STRICT_PAIRS)} pairs, 8 quad-validated")


# ---------------------------------------------------------------------------
# 4. the uniform model on (0, 1) diverges under both reciprocal products

def test_criterion_4_uniform_divergence():
    problems = []
    for name in ("T2_1", "T3_1"):
        r = _run(TheoremId(name), "uniform:b=1")
        if r.verdict is not Verdict.Divergent:
            problems.append(f"{name} x uniform: {r.verdict.value}")
    _report(4, "uniform-divergence", problems)


# ---------------------------------------------------------------------------
# 5. functional identities on 32-point probability grids

def test_criterion_5_functional_identities():
    problems = []
    for text in ALL_TEXTS:
        model = model_from_text(text)
        grid = [quantile_at(model, (i + 1) / 33.0) for i in range(32)]
        worst = max(abs(rhr_eit_identity_residual(model, t)) for t in grid)
        if worst > 1e-4:
            problems.append(f"{text}: identity residual {worst}")
        if math.isfinite(model.support.upper):
            worst = max(abs(cdf_from_rhr(model, t) - cdf_at(model, t)) for t in grid)
            if worst > 1e-6:
                problems.append(f"{text}: reconstruction error {worst}")
            worst = max(abs(rai(model, t) - rai_integral_form(model, t)) for t in grid)
            if worst > 1e-6:
                problems.append(f"{text}: aging-intensity forms differ by {worst}")
    model = model_from_text("type3ev:gamma=2,b=0")
    worst = max(abs(rai(model, quantile_at(model, (i + 1) / 33.0)) - 1.0)
                for i in range(32))
    if worst > 1e-6:
        problems.append(f"constant-rate aging intensity off unity by {worst}")
    _report(5, "functional-identities", problems, "11 families, 32-point grids")


# ---------------------------------------------------------------------------
# 6. the four suspect checks stay non-equal and tolerance-stable on the
#    families their equality clauses name

def test_criterion_6_suspect_stability():
    problems = []
    tight = Tolerances(rel_tol=1e-11)
    notes = []

    divergent_suspects = (
        ("T3_2", "finiterange:theta=0.5,b=1,k=1", {}),
        ("T3_3", "finiterange:theta=0.5,b=1,k=2", {"k": 2}),
        ("T3_6", "explinkedeit:theta=1,b=0", {}),
    )
    for name, text, kwargs in divergent_suspects:
        for tol in (None, tight):
            r = _run(TheoremId(name), text, tol=tol, **kwargs)
            if r.verdict is not Verdict.Divergent:
                problems.append(f"{name} x {text} at {tol}: {r.verdict.value}")
        notes.append(f"{name} divergent")

    loose = _run(TheoremId.T3_7, "basealinkedeit:gamma=1,delta=1,a_base=2,b=0")
    hard = _run(TheoremId.T3_7, "basealinkedeit:gamma=1,delta=1,a_base=2,b=0", tol=tight)
    for r, tag in ((loose, "default"), (hard, "tight")):
        if r.verdict is not Verdict.StrictInequality:
            problems.append(f"T3_7 at {tag} tolerances: {r.verdict.value}")
    drift = abs(loose.ratio - hard.ratio)
    if drift > 1e-5:
        problems.append(f"T3_7 ratio drifts {drift} between tolerance settings")
    if abs(loose.ratio - 1.3474347880232533) > 1e-6:
        problems.append(f"T3_7 ratio {loose.ratio} moved off its frozen value")
    notes.append(f"T3_7 ratio {loose.ratio:.10f}")

    for name, text, kwargs in divergent_suspects + (
            ("T3_7", "basealinkedeit:gamma=1,delta=1,a_base=2,b=0", {}),):
        check = make_check(TheoremId(name), **kwargs)
        model = model_from_text(text)
        if not claimed_equality_pair(check, model):
            problems.append(f"{name} x {text} lost its claimed-equality flag")
    _report(6, "suspect-stability", problems, "; ".join(notes))


# ---------------------------------------------------------------------------
# 7. Monte Carlo cross-validation of five weighted expectations

def test_criterion_7_monte_carlo_battery():
    battery = (
        ("power:b=1,c=2", lambda x: 2.0 / x, 4.0),
        ("type3ev:gamma=1,b=0", lambda x: x, -1.0),
        ("reflweibull:theta=0.5,k=1", lambda x: x * x, 2.0),
        ("truncevpower:alpha=1.5,b=0", np.exp,
         1.5 * math.exp(1.5) * float(sc.exp1(1.5))),
        ("basealinkedrhr:theta=1,a_base=2,b=0", lambda x: 2.0 ** x,
         math.e * float(sc.exp1(1.0))),
    )
    problems = []
    for text, g, truth in battery:
        sample = sample_inverse_cdf(model_from_text(text), 1_000_000, seed=3)
        mean, stderr = mc_expectation(sample, g)
        z = abs(mean - truth) / stderr
        if z > 4.0:
            problems.append(f"{text}: z = {z:.2f}")
    _report(7, "monte-carlo-battery", problems, "5 pairs, n=1e6, seed=3")


# ---------------------------------------------------------------------------
# 8. empirical inactivity mean tracks the model, and the ranker
#    identifies the generating family across seeds

def test_criterion_8_empirical_accuracy_and_identification():
    problems = []
    for text in ("power:b=1,c=2", "type3ev:gamma=1,b=0"):
        model = model_from_text(text)
        sample = sample_inverse_cdf(model, 100_000, seed=11)
        worst = 0.0
        for p in np.linspace(0.05, 0.95, 10):
            t = quantile_at(model, float(p))
            rel = abs(empirical_eit(sample, t) - eit(model, t)) / abs(eit(model, t))
            worst = max(worst, rel)
        if worst > 2e-2:
            problems.append(f"{text}: empirical eit off by {worst}")

    for text, want in (("power:b=1,c=2", "power"),
                       ("type3ev:gamma=1,b=0", "type3ev")):
        model = model_from_text(text)
        hits = sum(
            identify(sample_inverse_cdf(model, 20_000, seed=s)).ranking[0].family == want
            for s in range(20))
        if hits < 18:
            problems.append(f"{text}: identified {hits}/20")
    _report(8, "empirical-accuracy-and-identification", problems,
            "rel err <= 2e-2; >= 18/20 seeds")


# ---------------------------------------------------------------------------
# 9. repeated verify runs with identical config are byte-identical

def test_criterion_9_verify_determinism():
    problems = []
    argv = ["verify", "--theorem", "T2_1", "--theorem", "T3_4",
            "--theorem", "T2_9"]
    outputs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(list(argv), stdout=out, stderr=err)
        if code != 0:
            problems.append(f"verify exited {code}")
        outputs.append(out.getvalue())
    if outputs[0] != outputs[1]:
        problems.append("reports differ between runs")
    rows = json.loads(outputs[0])
    if len(rows) != 33:
        problems.append(f"expected 33 rows, got {len(rows)}")
    _report(9, "verify-determinism", problems, "33 rows, two runs")
