"""Quadrature engine tests: frozen statuses, oracle values, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sp_integrate

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
    mc_expectation,
    sample_inverse_cdf,
)
from revrel.distributions import model_from_text


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
        Tolerances(rel_tol=-1e-9, abs_tol=1e-12)
    with pytest.raises(ParameterError):
        Tolerances(rel_tol=1e-9, abs_tol=0.0)


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
