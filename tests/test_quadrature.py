"""Quadrature engine tests: frozen statuses, oracle values, properties."""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sp_integrate

import revrel
from revrel import quadrature
from revrel.errors import NonFiniteWeight, ParameterError
from revrel.quadrature import (
    DEFAULT_TOL,
    ExpectationSpec,
    QuadStatus,
    Tolerances,
    expectation,
    integrate_finite,
    integrate_lower_unbounded,
    integrate_upper_unbounded,
)
from revrel.characterizations import TheoremId, Verdict, make_check, run_check
from revrel.distributions import model_from_text
from revrel.empirics import mc_expectation, sample_inverse_cdf


# ---------------------------------------------------------------- finite

def test_finite_polynomial():
    res = integrate_finite(lambda x: x, 0.0, 1.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 0.5) < 1e-10


def test_finite_inverse_sqrt_endpoint_singularity():
    # integrable singularity at 0, open rule must absorb it
    res = integrate_finite(lambda x: x ** -0.5, 0.0, 1.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 2.0) < 1e-8


def test_finite_log_singularity():
    res = integrate_finite(lambda x: math.log(x), 0.0, 1.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - (-1.0)) < 1e-8


def test_finite_harmonic_divergence():
    res = integrate_finite(lambda x: 1.0 / x, 0.0, 1.0)
    assert res.status is QuadStatus.Divergent


def test_finite_inverse_square_divergence():
    res = integrate_finite(lambda x: x ** -2.0, 0.0, 1.0)
    assert res.status is QuadStatus.Divergent


def test_finite_near_divergent_power_hits_depth_cap():
    # x**-0.99 integrates to 100 but decays so slowly toward the endpoint
    # that the rule cannot certify it; the honest answer is MaxDepth with
    # a partial value, never a silent wrong Converged
    res = integrate_finite(lambda x: x ** -0.99, 0.0, 1.0)
    assert res.status is QuadStatus.MaxDepth
    assert abs(res.value - 100.0) < 0.5


def test_a_slowly_settling_power_never_reads_converged_past_its_tolerance():
    # x**-0.97 integrates to 100/3; the sweep's error estimate settles while
    # the endpoint tail still holds more than rel_tol of the mass, and only
    # the tail-mass gate keeps that from reading Converged (4.8e-9 off)
    res = integrate_finite(lambda x: x ** -0.97, 0.0, 1.0)
    exact = 100.0 / 3.0
    assert (res.status is not QuadStatus.Converged
            or abs(res.value - exact) <= DEFAULT_TOL.rel_tol * exact)


@pytest.mark.parametrize("f,lo,hi", (
    (lambda x: math.exp(-x * x) / x ** 3, -1.0, 1.7),
    (lambda x: 1.0 / x ** 3, -1.0, 2.0),
), ids=("damped", "bare"))
def test_an_interior_pole_never_reads_converged(f, lo, hi):
    # an odd pole at 0 inside the interval: the halves' sums grow without
    # bound as the splits close in on it, and the subdivision gives up
    res = integrate_finite(f, lo, hi)
    assert res.status is QuadStatus.MaxDepth


def test_a_spike_that_settles_converges_to_its_closed_form():
    # the running sum climbs level after level while the nodes resolve the
    # spike at 0.3, then settles: that growth is no sign of divergence
    eps = 1e-8
    res = integrate_finite(lambda x: 1.0 / (eps + (x - 0.3) ** 2), 0.0, 1.0)
    want = (math.atan(0.7 / math.sqrt(eps)) + math.atan(0.3 / math.sqrt(eps))) / math.sqrt(eps)
    assert res.status is QuadStatus.Converged
    assert res.value == pytest.approx(want, rel=1e-9)


def test_finite_divergence_past_the_last_placeable_node():
    # nodes within one ulp of -2 round onto it, so the sweep never reaches
    # the tail window there; the probe just inside the last placeable node
    # sees (x+2)^-1.5 fail to decay
    res = integrate_finite(lambda x: (x + 2.0) ** -1.5, -2.0, 0.0)
    assert res.status is QuadStatus.Divergent
    assert res.evaluations < 10_000


def test_finite_convergence_past_the_last_placeable_node():
    res = integrate_finite(lambda x: (x + 2.0) ** -0.5, -2.0, 0.0)
    assert res.status is QuadStatus.Converged
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-7)


def test_finite_oscillatory():
    res = integrate_finite(lambda x: math.sin(x), 0.0, 2.0 * math.pi)
    assert res.status is QuadStatus.Converged
    assert abs(res.value) < 1e-10


def test_finite_interval_validation():
    with pytest.raises(ParameterError):
        integrate_finite(lambda x: x, 1.0, 0.0)
    with pytest.raises(ParameterError):
        integrate_finite(lambda x: x, 0.0, math.inf)


def test_tolerances_validation():
    with pytest.raises(ParameterError):
        Tolerances(rel_tol=-1e-9)
    with pytest.raises(ParameterError):
        Tolerances(rel_tol=0.0)


# ------------------------------------------ convergence relative to |f|

_SCALE_CASES = (
    ("x**-0.5 on (0, 1)", lambda x: x ** -0.5, integrate_finite, (0.0, 1.0)),
    ("exp(-x*x) on (0, 3)", lambda x: math.exp(-x * x), integrate_finite, (0.0, 3.0)),
    ("sin on (0, 2pi)", math.sin, integrate_finite, (0.0, 2.0 * math.pi)),
    ("1/(1+x*x) on (-inf, 0]", lambda x: 1.0 / (1.0 + x * x), integrate_lower_unbounded, (0.0,)),
    ("x**-2 on [1, inf)", lambda x: x ** -2, integrate_upper_unbounded, (1.0,)),
    ("exp(x) on (-inf, 0]", math.exp, integrate_lower_unbounded, (0.0,)),
    ("1/x on (0, 1)", lambda x: 1.0 / x, integrate_finite, (0.0, 1.0)),
)


@pytest.mark.parametrize("name,f,integrate,args", _SCALE_CASES, ids=[c[0] for c in _SCALE_CASES])
@pytest.mark.parametrize("scale", (2.0 ** -100, 2.0 ** -600), ids=("2**-100", "2**-600"))
def test_result_is_equivariant_under_power_of_two_scaling(name, f, integrate, args, scale):
    # no absolute floor: a small integrand is integrated as carefully as a
    # large one, so scaling by 2**-n changes nothing but the value
    unit = integrate(f, *args)
    scaled = integrate(lambda x: scale * f(x), *args)
    assert scaled.value == scale * unit.value
    assert scaled.status is unit.status
    assert scaled.evaluations == unit.evaluations


@pytest.mark.parametrize("f,lo,hi,most", (
    (math.sin, 0.0, 2.0 * math.pi, 74),
    (lambda x: x, -1.0, 1.0, 51),
    (lambda x: x ** 3, -2.0, 2.0, 51),
))
def test_cancelling_integrand_converges_at_the_cost_of_its_magnitude(f, lo, hi, most):
    # the target is rel_tol times the integral of |f|, not of |sum|, which
    # here is rounding noise
    res = integrate_finite(f, lo, hi)
    assert res.status is QuadStatus.Converged
    assert res.evaluations <= most
    assert abs(res.value) < 1e-12


# ------------------------------------------------------- lower unbounded

def test_lower_unbounded_exponential():
    res = integrate_lower_unbounded(lambda x: math.exp(x), 0.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 1.0) < 1e-10


def test_lower_unbounded_gaussian_flank():
    res = integrate_lower_unbounded(lambda x: math.exp(-0.5 * x * x) * (-x), 0.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 1.0) < 1e-8


def test_lower_unbounded_cauchy_half_mass():
    res = integrate_lower_unbounded(lambda x: 1.0 / (1.0 + x * x), 0.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - math.pi / 2.0) < 1e-8


def test_lower_unbounded_constant_divergence():
    res = integrate_lower_unbounded(lambda x: 1.0, 0.0)
    assert res.status is QuadStatus.Divergent


def test_lower_unbounded_slow_tail_divergence():
    res = integrate_lower_unbounded(lambda x: 1.0 / (1.0 + abs(x)), 0.0)
    assert res.status is QuadStatus.Divergent


def test_lower_unbounded_shifted_anchor():
    # anchor far from zero, mass concentrated near it
    res = integrate_lower_unbounded(lambda x: math.exp(x - 5.0), 5.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 1.0) < 1e-10


# ------------------------------------------------------- upper unbounded

def test_upper_unbounded_power_tail():
    res = integrate_upper_unbounded(lambda x: x ** -1.5, 1.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 2.0) < 1e-8


def test_upper_unbounded_harmonic_divergence():
    res = integrate_upper_unbounded(lambda x: 1.0 / x, 1.0)
    assert res.status is QuadStatus.Divergent


def test_upper_unbounded_overflow_is_divergent():
    # exp(x) leaves float range at x ~ 710, a node long before the tail
    # window; no finite chunk peeled off the half line could hold that value
    res = integrate_upper_unbounded(math.exp, 0.0)
    assert res.status is QuadStatus.Divergent
    assert res.evaluations < 100


def test_upper_unbounded_gamma_integrand():
    # x^2 e^-x written in log form so extreme nodes underflow instead of
    # overflowing the power factor; the engine contract wants integrands
    # that degrade to 0.0, not inf, far out in the tail
    def g(x):
        if x <= 0.0:
            return 0.0
        return math.exp(2.0 * math.log(x) - x)

    res = integrate_upper_unbounded(g, 0.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - 2.0) < 1e-9


def test_upper_unbounded_sqrt_damped():
    def g(x):
        if x <= 0.0:
            return 0.0
        return math.exp(-0.5 * math.log(x) - x)

    res = integrate_upper_unbounded(g, 0.0)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - math.sqrt(math.pi)) < 1e-8


def test_half_line_agrees_with_wide_finite_truncation():
    # for fast-decaying tails a [-40, hi] truncation already carries all
    # the mass, so the unbounded rule must agree with the finite one
    cases = [
        (lambda x: math.exp(x), 0.0),
        (lambda x: math.exp(-0.5 * x * x) * (1.0 - x), -1.0),
        (lambda x: math.exp(2.0 * x) * (2.0 + math.sin(x)), 1.0),
    ]
    for f, hi in cases:
        full = integrate_lower_unbounded(f, hi)
        trunc = integrate_finite(f, -40.0, hi)
        assert full.status is QuadStatus.Converged
        assert trunc.status is QuadStatus.Converged
        assert abs(full.value - trunc.value) <= 1e-9 * max(1.0, abs(full.value))


def test_scipy_cross_checks():
    probes = [
        (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.2, 4.0),
        (lambda x: 1.0 / math.sqrt(1.0 + x ** 4), 0.0, 2.0),
        (lambda x: math.atan(x) / (1.0 + x * x), -1.0, 3.0),
    ]
    for f, lo, hi in probes:
        ours = integrate_finite(f, lo, hi)
        ref, _ = sp_integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
        assert ours.status is QuadStatus.Converged
        assert abs(ours.value - ref) < 1e-9 * max(1.0, abs(ref))


def test_error_estimate_honest_on_smooth_case():
    res = integrate_finite(lambda x: math.exp(x), 0.0, 1.0)
    true = math.e - 1.0
    assert abs(res.value - true) <= max(res.err_estimate, 1e-13)
    assert res.evaluations > 0


@given(
    coeffs=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=1, max_size=6),
    width=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    lo=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_matches_antiderivative(coeffs, width, lo):
    hi = lo + width

    def poly(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def antideriv(x):
        acc = 0.0
        for j, c in enumerate(reversed(coeffs)):
            n = len(coeffs) - 1 - j
            acc += c * x ** (n + 1) / (n + 1)
        return acc

    res = integrate_finite(poly, lo, hi)
    exact = antideriv(hi) - antideriv(lo)
    assert res.status is QuadStatus.Converged
    assert abs(res.value - exact) <= 1e-8 * max(1.0, abs(exact))


# ------------------------------------------------------------ node tables

LEVEL_SIZES = (13, 12, 24, 48, 96, 192, 384, 768, 1536, 3072)


def _all_levels():
    """The per-level tables of both maps, every level up to the root cap built."""
    for nodes in (quadrature._FINITE_NODES, quadrature._HALF_LINE_NODES):
        while len(nodes) <= quadrature._ROOT_LEVELS:
            quadrature._add_level(nodes)
    return quadrature._FINITE_NODES, quadrature._HALF_LINE_NODES


def _entries(level, k):
    """A level's nodes as (t, frame, q, w, om) tuples, in either storage."""
    return level if k < quadrature._ARRAY_LEVEL else list(zip(*level))


def test_node_tables_per_level():
    finite, half_line = _all_levels()
    finite = [_entries(level, k) for k, level in enumerate(finite)]
    half_line = [_entries(level, k) for k, level in enumerate(half_line)]
    assert tuple(map(len, finite)) == LEVEL_SIZES
    assert tuple(map(len, half_line)) == LEVEL_SIZES
    assert sum(LEVEL_SIZES) == 6145
    for k, (f_level, h_level) in enumerate(zip(finite, half_line)):
        ts = [entry[0] for entry in f_level]
        assert ts == [entry[0] for entry in h_level]
        if k == 0:
            assert ts == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0]
        else:
            h = 0.5 ** k
            assert ts[0::2] == [j * h for j in range(1, int(6 / h), 2)]
            assert ts[1::2] == [-t for t in ts[0::2]]
        for t_f, t_h in zip(f_level, h_level):
            t = t_f[0]
            assert t_f == (t,) + quadrature._nodes(t)[0]
            assert t_h == (t,) + quadrature._nodes(t)[1]


def test_node_levels_build_alike_in_any_order():
    in_order = [quadrature._level(k) for k in range(quadrature._ROOT_LEVELS + 1)]
    shuffled = list(range(quadrature._ROOT_LEVELS + 1))
    random.Random(3).shuffle(shuffled)
    assert {k: quadrature._level(k) for k in shuffled} == dict(enumerate(in_order))
    finite, half_line = _all_levels()
    assert list(finite) == [level[0] for level in in_order]
    assert list(half_line) == [level[1] for level in in_order]


def test_import_builds_no_node_level():
    src = os.path.dirname(os.path.dirname(os.path.abspath(revrel.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import revrel, revrel.cli, revrel.quadrature as q; "
         "print(len(q._FINITE_NODES), len(q._HALF_LINE_NODES))"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# ------------------------------------------------------ evaluation budget

# A sweep converges no earlier than level 3, after 13 + 12 + 24 + 48 nodes.
SWEEP_TO_MIN_LEVEL = 97


def test_evaluation_budget_exhaustion_ends_maxdepth(monkeypatch):
    budget = 19
    monkeypatch.setattr(quadrature, "_EVAL_BUDGET", budget)  # read at call time
    # Zero below 0.5 and infinite at 0.5, the root sweep's first node, so the
    # interval splits at once; the zero half then takes 74 evaluations.
    finite = integrate_finite(lambda x: 0.0 if x < 0.5 else 1.0 / (x - 0.5), 0.0, 1.0)
    # Zero up to 1 and where exp(-x) underflows, on both sides of the anchor.
    half = integrate_upper_unbounded(lambda x: math.exp(-x) if x > 1.0 else 0.0, 0.0)
    # A zero node costs an evaluation but cannot end a sweep on the budget,
    # so a sweep runs on through zero nodes, at most to its convergence at
    # level 3; each split still pending then costs one evaluation more.
    for res in (finite, half):
        assert res.status is QuadStatus.MaxDepth
        assert budget + 1 < res.evaluations <= budget + SWEEP_TO_MIN_LEVEL + 1
    assert finite.evaluations == 1 + 74 + 1


@pytest.mark.parametrize("f,budget,evaluations", (
    (lambda x: 1.0 + x, 19, 19),  # every node carries mass: the 19th ends the pass
    # converged at level 3, on the 74 nodes that do not round onto 1
    (lambda x: 1.0 + x, 200, 74),
    (lambda x: 1.0 / (x - 0.5), 200, 1),  # inf at the first node ends the pass
), ids=("exhausted", "converged", "non-finite"))
def test_a_pass_charges_the_shared_budget_each_evaluation(f, budget, evaluations):
    shared = [budget]
    res = quadrature._pass(f, quadrature._FINITE_NODES, ((0.0, 1.0), (1.0, -1.0)),
                           0.0, 1.0, 1.0, DEFAULT_TOL, 0, shared)
    assert res.evaluations == evaluations
    assert shared == [budget - evaluations]


def test_a_divergent_half_makes_the_split_divergent():
    # the NaN at the root's first node (x = 1/2) splits (0, 1); the left half
    # meets the pole of 1/x and ends Divergent, the right converges, and the
    # sum keeps Divergent with every evaluation of the root and both halves
    f = lambda x: math.nan if x == 0.5 else 1.0 / x
    res = integrate_finite(f, 0.0, 1.0)
    root = quadrature._pass(f, quadrature._FINITE_NODES, ((0.0, 1.0), (1.0, -1.0)),
                            0.0, 1.0, 1.0, DEFAULT_TOL, 0, [quadrature._EVAL_BUDGET])
    left, right = (quadrature._integrate(f, lo, hi, DEFAULT_TOL, 1, [quadrature._EVAL_BUDGET])
                   for lo, hi in ((0.0, 0.5), (0.5, 1.0)))
    assert res.status is QuadStatus.Divergent
    assert (root.status, left.status, right.status) == (
        QuadStatus.MaxDepth, QuadStatus.Divergent, QuadStatus.Converged)
    assert res.evaluations == root.evaluations + left.evaluations + right.evaluations == 71


# ------------------------------------------------------------ live range

@pytest.mark.parametrize("integrate,value,evaluations", (
    (lambda: integrate_lower_unbounded(math.exp, 0.0), 1.0000000000000002, 216),
    (lambda: expectation(ExpectationSpec(model_from_text("type3ev:gamma=2,b=0"),
                                         lambda x: 1.0)), 1.0, 214),
), ids=("exp on (-inf, 0]", "E[1] on type3ev"))
def test_nodes_past_the_live_range_are_skipped_without_moving_the_result(
        integrate, value, evaluations):
    # past level 3 a sweep evaluates only up to the first grid node beyond the
    # nodes that carry mass; evaluating every node took 385 for the same bits
    res = integrate()
    assert res.status is QuadStatus.Converged
    assert res.value == value
    assert res.evaluations == evaluations


def test_non_finite_node_past_the_live_range_is_not_seen():
    # alpha + beta*x rounds to 0 at a level-4 node next to the lower end, and
    # the log density raises there. That node lies past the live range, so
    # component 0 converges in one full-minimum sweep instead of splitting
    # (204 evaluations), and its value moves by 1 ulp
    model = model_from_text("linearmit:xi=0.209,alpha=0.674,beta=1.367,b=1.455")
    report = run_check(make_check(TheoremId.T2_6), model)
    lhs = report.components[0]
    assert lhs.status is QuadStatus.Converged
    assert lhs.evaluations == SWEEP_TO_MIN_LEVEL
    assert lhs.value == pytest.approx(0.2826468280854914, rel=5e-16)
    assert report.verdict is Verdict.StrictInequality


# ------------------------------------------------------ raising integrand

def _root_pass(f, half_line):
    """The depth-0 sweep over (0, 1), or over (0, inf) on the half-line map."""
    if half_line:
        nodes, frames, hi = quadrature._HALF_LINE_NODES, ((0.0, 1.0),), math.inf
    else:
        nodes, frames, hi = quadrature._FINITE_NODES, ((0.0, 1.0), (1.0, -1.0)), 1.0
    return quadrature._pass(f, nodes, frames, 0.0, hi, 1.0, DEFAULT_TOL, 0,
                            [quadrature._EVAL_BUDGET])


@pytest.mark.parametrize("exc,half_line,t,status", (
    # at the first node, t = 0 (x = 0.5, or x = 1 on the half line)
    (OverflowError, False, 0.0, QuadStatus.MaxDepth),
    (ZeroDivisionError, False, 0.0, QuadStatus.MaxDepth),
    (ValueError, False, 0.0, QuadStatus.MaxDepth),
    (OverflowError, True, 0.0, QuadStatus.Divergent),
    (ZeroDivisionError, True, 0.0, QuadStatus.Divergent),
    (ValueError, True, 0.0, QuadStatus.MaxDepth),
    # at the node t = -5, in the tail window
    (OverflowError, False, -5.0, QuadStatus.Divergent),
    (ZeroDivisionError, False, -5.0, QuadStatus.Divergent),
    (ValueError, False, -5.0, QuadStatus.Converged),
    (OverflowError, True, -5.0, QuadStatus.Divergent),
    (ZeroDivisionError, True, -5.0, QuadStatus.Divergent),
    (ValueError, True, -5.0, QuadStatus.Converged),
))
def test_a_raise_at_a_node_maps_to_inf_or_nan(exc, half_line, t, status):
    # OverflowError and ZeroDivisionError read as inf: Divergent in the tail
    # window or on a half line, MaxDepth inside a finite interval. ValueError
    # reads as NaN: skipped in the tail window, MaxDepth elsewhere
    frame, q = quadrature._nodes(t)[half_line][:2]
    x0 = (0.0, 1.0)[frame] + (1.0, -1.0)[frame] * q
    base = (lambda x: math.exp(-x)) if half_line else (lambda x: 1.0)

    def f(x):
        if x == x0:
            raise exc("at the chosen node")
        return base(x)

    res = _root_pass(f, half_line)
    assert res.status is status
    if status is QuadStatus.Converged:
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.evaluations == _root_pass(base, half_line).evaluations
    elif t == 0.0:
        assert res.evaluations == 1  # t = 0 is the first node of level 0


# ----------------------------------------------------------- expectation

def test_expectation_normalization_over_catalog():
    texts = [
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
    ]
    for text in texts:
        model = model_from_text(text)
        res = expectation(ExpectationSpec(model, lambda x: 1.0))
        assert res.status is QuadStatus.Converged, text
        assert abs(res.value - 1.0) < 1e-8, text


def test_expectation_signed_mean():
    model = model_from_text("type3ev:gamma=1,b=0")
    res = expectation(ExpectationSpec(model, lambda x: x))
    assert res.status is QuadStatus.Converged
    assert abs(res.value - (-1.0)) < 1e-9


def test_expectation_divergent_weight():
    # E[1/X] for a density positive at zero behaves like the harmonic tail
    model = model_from_text("uniform:b=1")
    res = expectation(ExpectationSpec(model, lambda x: 1.0 / x))
    assert res.status is QuadStatus.Divergent


@pytest.mark.parametrize("columns", ((), (("rhr", 1.0), ("eit", -1.0), ("rai", 1.0))),
                         ids=("none", "three"))
def test_weight_data_read_one_or_two_columns(columns):
    # the integrand adds at most two log functionals: a third would be dropped
    model = model_from_text("uniform:b=1")
    with pytest.raises(ParameterError):
        expectation(ExpectationSpec(model, None, (1, 0.0, 1.0, 0.0), columns))


# ----------------------------------------------------- sampling and MC

def test_sample_inverse_cdf_deterministic():
    model = model_from_text("power:b=1,c=2")
    a = sample_inverse_cdf(model, 500, seed=42)
    b = sample_inverse_cdf(model, 500, seed=42)
    c = sample_inverse_cdf(model, 500, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(np.diff(a.values) >= 0.0)
    assert np.all((a.values > 0.0) & (a.values <= 1.0))


def test_sample_inverse_cdf_validation():
    model = model_from_text("uniform:b=1")
    with pytest.raises(ParameterError):
        sample_inverse_cdf(model, 0, seed=1)


def test_mc_expectation_known_values():
    from revrel.empirics import SampleSet

    s = SampleSet(values=np.array([1.0, 2.0, 3.0]))
    mean, stderr = mc_expectation(s, lambda x: x)
    assert mean == pytest.approx(2.0)
    assert stderr == pytest.approx(math.sqrt(1.0 / 3.0))


def test_mc_expectation_nonfinite_weight():
    from revrel.empirics import SampleSet

    s = SampleSet(values=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(NonFiniteWeight):
        mc_expectation(s, lambda x: 1.0 / x)


def test_mc_matches_quadrature_moment():
    model = model_from_text("power:b=1,c=2")
    s = sample_inverse_cdf(model, 200_000, seed=7)
    mean, stderr = mc_expectation(s, lambda x: x)
    assert abs(mean - 2.0 / 3.0) < 4.0 * stderr
