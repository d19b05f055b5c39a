"""Catalog tests: frozen scalar oracles, self-consistency, validation.

Frozen numbers were fixed ahead of the builders from hand-derived closed
forms (power, type3ev, reflweibull, finiterange cdf algebra) or, for the
families without closed moments, from scipy.integrate.quad cross-checks
that are repeated inline here. They are oracles, not recordings of
package output.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import pytest
import scipy.integrate
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from revrel.distributions import (
    DistributionModel,
    FamilySpec,
    SupportInterval,
    cdf_at,
    format_family,
    make_distribution,
    model_from_text,
    parse_family,
    quantile_at,
    raw_moment,
)
from revrel.errors import DivergentMoment, DomainError, ParameterError, SupportError


# Moment summary and guarded density, used only by the tests below.
@dataclass(frozen=True)
class MomentSet:
    mu: float
    sigma2: float
    raw: Mapping[int, float]
    eta: Optional[float] = None      # upper endpoint over the mean, when defined
    c_ratio: Optional[float] = None  # sd over the mean, when defined


def pdf_at(model: DistributionModel, t: float) -> float:
    if not (model.support.lower < t < model.support.upper):
        raise SupportError(
            f"t={t!r} outside the open support "
            f"({model.support.lower!r}, {model.support.upper!r})")
    return float(model.pdf(t))


def moment_set(model: DistributionModel, ks: Tuple[int, ...] = ()) -> MomentSet:
    orders = sorted(set(ks) | {1, 2})
    raw = {r: raw_moment(model, r) for r in orders}
    mu = raw[1]
    sigma2 = raw[2] - mu * mu
    eta = None
    c_ratio = None
    if mu != 0.0:
        if math.isfinite(model.support.upper):
            eta = model.support.upper / mu + 0.0  # normalize -0.0
        c_ratio = math.sqrt(max(sigma2, 0.0)) / mu
    return MomentSet(mu=mu, sigma2=sigma2, raw=raw, eta=eta, c_ratio=c_ratio)


DEFAULT_TEXTS = (
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

SECOND_TEXTS = (
    "type3ev:gamma=0.7,b=1.5",
    "power:b=2,c=3.5",
    "invweibull:nu=2,delta=1.5",
    "truncevpower:alpha=0.7,b=1",
    "basealinkedrhr:theta=2,a_base=3,b=1",
    "reflweibull:theta=2,k=3",
    "finiterange:theta=1,b=2,k=2",
    "linearmit:xi=0.5,alpha=2,beta=0.9,b=1",
    "explinkedeit:theta=0.5,b=1",
    "basealinkedeit:gamma=0.5,delta=1.5,a_base=3,b=0.5",
    "uniform:b=2",
)


def interior_grid(model: DistributionModel, n: int = 9):
    return [quantile_at(model, (i + 1) / (n + 1)) for i in range(n)]


# ---------------------------------------------------------------------------
# frozen scalar oracles

def test_power_scalars():
    m = model_from_text("power:b=1,c=2")
    assert cdf_at(m, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert pdf_at(m, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert quantile_at(m, 0.25) == pytest.approx(0.5, abs=1e-12)
    assert raw_moment(m, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert raw_moment(m, 2) == pytest.approx(0.5, rel=1e-14)


def test_type3ev_scalars():
    m = model_from_text("type3ev:gamma=2,b=0")
    assert cdf_at(m, -1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert pdf_at(m, -1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    m1 = model_from_text("type3ev:gamma=1,b=0")
    assert quantile_at(m1, math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-12)
    assert raw_moment(m1, 1) == pytest.approx(-1.0, rel=1e-13)


def test_reflweibull_scalars():
    # F(t) = exp(-theta * (-t)^(k+1)) on t < 0
    m = model_from_text("reflweibull:theta=0.5,k=1")
    assert cdf_at(m, -1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert pdf_at(m, -1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_finiterange_cdf_value():
    # F(t) = t^k * exp(theta * (t^(k+1) - b^(k+1))) at theta=.5, b=1, k=1:
    # F(0.5) = 0.5 * exp(0.5 * (0.25 - 1))
    m = model_from_text("finiterange:theta=0.5,b=1,k=1")
    assert cdf_at(m, 0.5) == pytest.approx(0.3436446393954861, rel=1e-14)


def test_uniform_scalars():
    m = model_from_text("uniform:b=1")
    assert cdf_at(m, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert quantile_at(m, 0.7) == pytest.approx(0.7, abs=1e-15)
    ms = moment_set(m)
    assert ms.mu == pytest.approx(0.5, rel=1e-14)
    assert ms.sigma2 == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert ms.eta == pytest.approx(2.0, rel=1e-13)


def test_invweibull_moments_match_gamma_values():
    # E[X^r] = nu^(r/delta) * Gamma(1 - r/delta) for r < delta
    m = model_from_text("invweibull:nu=1,delta=3")
    assert raw_moment(m, 1) == pytest.approx(float(sc.gamma(2.0 / 3.0)), rel=1e-13)
    assert raw_moment(m, 2) == pytest.approx(float(sc.gamma(1.0 / 3.0)), rel=1e-13)
    with pytest.raises(DivergentMoment):
        raw_moment(m, 3)


# ---------------------------------------------------------------------------
# numeric moments for the families without closed forms: frozen values plus
# a live scipy.integrate.quad cross-check of the same integral

NUMERIC_MOMENTS = (
    ("truncevpower:alpha=1.5,b=0", 1, -0.448256669291583),
    ("truncevpower:alpha=1.5,b=0", 2, 0.314427800439978),
    ("truncevpower:alpha=1.5,b=0", 3, -0.276696148944067),
    ("basealinkedrhr:theta=1,a_base=2,b=0", 1, -0.860347382270886),
    ("basealinkedrhr:theta=1,a_base=2,b=0", 2, 1.10714420485534),
    ("finiterange:theta=0.5,b=1,k=1", 1, 0.606530659712633),
    ("finiterange:theta=0.5,b=1,k=1", 2, 0.449556918014152),
    ("explinkedeit:theta=1,b=0", 1, -0.632120558828558),
    ("explinkedeit:theta=1,b=0", 2, 0.969658213991375),
    ("basealinkedeit:gamma=1,delta=1,a_base=2,b=0", 1, -0.687009833773951),
    ("basealinkedeit:gamma=1,delta=1,a_base=2,b=0", 2, 1.07245126216154),
)


@pytest.mark.parametrize("text,order,frozen", NUMERIC_MOMENTS)
def test_numeric_moment_frozen_and_cross_checked(text, order, frozen):
    m = model_from_text(text)
    got = raw_moment(m, order)
    assert got == pytest.approx(frozen, rel=1e-9)
    lo = m.support.lower if math.isfinite(m.support.lower) else -60.0
    ref, _ = scipy.integrate.quad(
        lambda x: x ** order * m.pdf(x), lo, m.support.upper, limit=200)
    assert got == pytest.approx(ref, rel=1e-7)


def test_finiterange_mean_equals_exp_of_negated_rate():
    # for k=1, b=1 the mean collapses to exp(-theta)
    m = model_from_text("finiterange:theta=0.5,b=1,k=1")
    assert raw_moment(m, 1) == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_explinkedeit_mean_identity():
    # mean = exp(-theta) - 1 when b = 0
    m = model_from_text("explinkedeit:theta=1,b=0")
    assert raw_moment(m, 1) == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# self-consistency across the whole catalog

@pytest.mark.parametrize("text", DEFAULT_TEXTS + SECOND_TEXTS)
def test_pdf_matches_cdf_slope(text):
    model = model_from_text(text)
    for t in interior_grid(model):
        h = 1e-6 * max(1.0, abs(t))
        hi = min(t + h, model.support.upper)
        lo = max(t - h, model.support.lower)
        slope = (cdf_at(model, hi) - cdf_at(model, lo)) / (hi - lo)
        assert slope == pytest.approx(pdf_at(model, t), rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("text", DEFAULT_TEXTS + SECOND_TEXTS)
def test_quantile_cdf_roundtrip(text):
    model = model_from_text(text)
    for p in (0.02, 0.1, 0.37, 0.5, 0.73, 0.9, 0.98):
        t = quantile_at(model, p)
        assert model.support.lower < t < model.support.upper
        assert cdf_at(model, t) == pytest.approx(p, abs=1e-8)


@pytest.mark.parametrize("text", DEFAULT_TEXTS)
def test_cdf_is_monotone_and_bounded(text):
    model = model_from_text(text)
    grid = interior_grid(model, 17)
    vals = [cdf_at(model, t) for t in grid]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(p=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_quantile_roundtrip_property(p):
    for text in ("power:b=1,c=2", "truncevpower:alpha=1.5,b=0"):
        model = model_from_text(text)
        assert cdf_at(model, quantile_at(model, p)) == pytest.approx(p, abs=1e-9)


def test_closed_moments_agree_with_quadrature():
    from revrel.quadrature import ExpectationSpec, QuadStatus, expectation

    for text in ("type3ev:gamma=2,b=0", "power:b=2,c=3.5", "uniform:b=2",
                 "reflweibull:theta=0.5,k=1", "linearmit:xi=0.8,alpha=1,beta=0.5,b=0"):
        model = model_from_text(text)
        for order in (1, 2):
            closed = raw_moment(model, order)
            res = expectation(ExpectationSpec(model, lambda x: x ** order))
            assert res.status is QuadStatus.Converged
            assert closed == pytest.approx(res.value, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# moment_set shape

def test_moment_set_at_zero_upper_endpoint_normalizes_eta():
    ms = moment_set(model_from_text("type3ev:gamma=2,b=0"))
    assert ms.mu == pytest.approx(-0.5, rel=1e-13)
    assert ms.eta == 0.0
    assert not math.copysign(1.0, ms.eta) < 0.0


def test_moment_set_unbounded_support_has_no_eta():
    ms = moment_set(model_from_text("invweibull:nu=1,delta=3"), ks=(1, 2))
    assert ms.eta is None
    mu, mu2 = float(sc.gamma(2.0 / 3.0)), float(sc.gamma(1.0 / 3.0))
    assert ms.c_ratio == pytest.approx(math.sqrt(mu2 - mu * mu) / mu, rel=1e-12)


def test_moment_set_extra_orders():
    ms = moment_set(model_from_text("power:b=1,c=2"), ks=(3,))
    assert ms.raw[3] == pytest.approx(2.0 / 5.0, rel=1e-13)


# ---------------------------------------------------------------------------
# prefix integrals of the cdf (the expected-inactivity numerator)

def test_cdf_prefix_integral_examples():
    from revrel.quadrature import cdf_cumulative_integral

    cases = (
        ("type3ev:gamma=2,b=0", 0.0, 0.5),
        ("power:b=1,c=2", 1.0, 1.0 / 3.0),
        ("uniform:b=1", 0.5, 0.125),
    )
    for text, t, want in cases:
        got = cdf_cumulative_integral(model_from_text(text), t)
        assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# guarded accessors

def test_cdf_at_clamps_outside_support():
    m = model_from_text("power:b=1,c=2")
    assert cdf_at(m, -3.0) == 0.0
    assert cdf_at(m, 7.0) == 1.0


def test_pdf_at_rejects_exterior_points():
    m = model_from_text("power:b=1,c=2")
    with pytest.raises(SupportError):
        pdf_at(m, 1.5)
    with pytest.raises(SupportError):
        pdf_at(m, 0.0)


def test_quantile_at_rejects_bad_p():
    m = model_from_text("uniform:b=1")
    for p in (0.0, 1.0, -0.2, 1.7, math.nan):
        with pytest.raises(DomainError):
            quantile_at(m, p)


# ---------------------------------------------------------------------------
# parameter validation

BAD_SPECS = (
    "invweibull:nu=1,delta=0",
    "invweibull:nu=-1,delta=3",
    "reflweibull:theta=0.5,k=2",       # k must be odd
    "reflweibull:theta=0.5,k=0",
    "reflweibull:theta=-1,k=1",
    "linearmit:xi=1,alpha=1,beta=1.2,b=0",   # xi*beta >= 1
    "linearmit:xi=2,alpha=1,beta=0.5,b=0",   # xi*beta = 1
    "linearmit:xi=1,alpha=0,beta=0,b=0",     # degenerate slope and intercept
    "type3ev:gamma=2,b=-1",
    "type3ev:gamma=0,b=0",
    "power:b=0,c=2",
    "power:b=1,c=-2",
    "uniform:b=0",
    "basealinkedrhr:theta=1,a_base=1,b=0",   # base must exceed 1
    "basealinkedeit:gamma=1,delta=1,a_base=0.5,b=0",
    "finiterange:theta=0.5,b=1,k=0",
    "finiterange:theta=0.5,b=1,k=1.5",
    "truncevpower:alpha=0,b=0",
)


@pytest.mark.parametrize("text", BAD_SPECS)
def test_invalid_parameters_are_rejected(text):
    with pytest.raises(ParameterError):
        model_from_text(text)


def test_unknown_family_and_wrong_parameter_set():
    with pytest.raises(ParameterError):
        model_from_text("gompertz:a=1,b=2")
    with pytest.raises(ParameterError):
        model_from_text("power:b=1")            # missing c
    with pytest.raises(ParameterError):
        model_from_text("power:b=1,c=2,d=3")    # extra key


def test_parse_family_error_cases():
    with pytest.raises(ParameterError):
        parse_family("power")                   # no colon
    with pytest.raises(ParameterError):
        parse_family("power:b=1,b=2")           # duplicate key
    with pytest.raises(ParameterError):
        parse_family("power:b=one,c=2")         # non-numeric
    with pytest.raises(ParameterError):
        parse_family("power:b,c=2")             # missing '='


def test_parse_format_roundtrip_over_catalog():
    for text in DEFAULT_TEXTS:
        assert format_family(parse_family(text)) == text


def test_parse_family_is_case_and_order_insensitive():
    a = make_distribution(parse_family("POWER:C=2,B=1"))
    b = make_distribution(parse_family("power:b=1,c=2"))
    assert cdf_at(a, 0.5) == cdf_at(b, 0.5)


def test_support_interval_validation():
    with pytest.raises(ParameterError):
        SupportInterval(1.0, 1.0)
    with pytest.raises(ParameterError):
        SupportInterval(2.0, -1.0)
    with pytest.raises(ParameterError):
        SupportInterval(math.nan, 1.0)


def test_family_spec_rejected_by_builder_not_parser():
    spec = FamilySpec("invweibull", {"nu": 1.0, "delta": -2.0})
    with pytest.raises(ParameterError):
        make_distribution(spec)


# ---------------------------------------------------------------------------
# tail hardening: extreme arguments underflow to zero instead of raising

def test_deep_tail_underflow_is_clean():
    cases = (
        ("type3ev:gamma=2,b=0", -400.0),
        ("truncevpower:alpha=1.5,b=0", -700.0),
        ("reflweibull:theta=0.5,k=1", -50.0),
        ("basealinkedeit:gamma=1,delta=1,a_base=2,b=0", -800.0),
    )
    for text, t in cases:
        model = model_from_text(text)
        assert cdf_at(model, t) == 0.0
        assert pdf_at(model, t) == 0.0


def test_invweibull_near_origin_underflows():
    model = model_from_text("invweibull:nu=1,delta=3")
    assert cdf_at(model, 1e-3) == 0.0
    assert pdf_at(model, 1e-3) == 0.0
