"""Catalog tests: frozen scalar oracles, self-consistency, validation.

Frozen numbers were fixed ahead of the builders from hand-derived closed
forms (power, type3ev, reflweibull, finiterange cdf algebra) or, for the
families without closed moments, from scipy.integrate.quad cross-checks
that are repeated inline here. They are oracles, not recordings of
package output.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from revrel.distributions import (
    _FAMILIES,
    DistributionModel,
    FamilySpec,
    SupportInterval,
    _newton_quantile,
    cdf_at,
    format_family,
    make_distribution,
    model_from_text,
    parent_family,
    parse_family,
    quantile_at,
)
from revrel.errors import DivergentMoment, DomainError, ParameterError, SupportError
from revrel.functionals import raw_moment


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


@pytest.mark.parametrize("text, want", [
    ("type3ev:gamma=2,b=-1", -0.722657233776445),  # -2 e^2 E1(2)
    ("type3ev:gamma=2,b=0", None),
    ("linearmit:xi=0.8,alpha=-0.5,beta=0.5,b=2", 0.6438055098076551),  # support (1, 2]
    ("linearmit:xi=0.8,alpha=1,beta=0.5,b=0", None),
    ("linearmit:xi=1,alpha=1,beta=-0.5,b=-1", -0.5617247113823053),
])
def test_negative_order_moment_without_closed_form_is_integrated(text, want):
    # E[1/X] by mpmath; the binomial sums of type3ev and linearmit hold only for
    # r >= 0, so below that raw_moment integrates (a diverging integral raises)
    m = model_from_text(text)
    if want is None:
        with pytest.raises(DivergentMoment):
            raw_moment(m, -1)
    else:
        assert raw_moment(m, -1) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("text, q, vb, beta", [
    ("power:b=1.5,c=3", 3.0, 1.5, 1.0),
    ("linearmit:xi=0.25,alpha=0,beta=1,b=1.5", 3.0, 1.5, 1.0),
    ("linearmit:xi=0.5,alpha=0,beta=-1,b=-2", -3.0, 2.0, -1.0),  # X = -Y, Y Pareto(3, 2)
])
def test_power_law_moments_of_every_order(text, q, vb, beta):
    # at alpha = 0, E[X^r] = q vb^r / ((q + r) beta^r) wherever it converges
    m = model_from_text(text)
    for r in (-2, -1, 1, 2):
        assert raw_moment(m, r) == pytest.approx(
            q * vb ** r / ((q + r) * beta ** r), rel=1e-15, abs=0.0)
    with pytest.raises(DivergentMoment):
        raw_moment(m, -3 if beta > 0.0 else 3)


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
    "type3ev:gamma=2,b=inf",                 # b is a finite location
    "type3ev:gamma=0,b=0",
    "power:b=0,c=2",
    "power:b=1,c=-2",
    "uniform:b=0",
    "basealinkedrhr:theta=1,a_base=1,b=0",   # base must exceed 1
    "basealinkedeit:gamma=1,delta=1,a_base=0.5,b=0",
    "finiterange:theta=0.5,b=1,k=0",
    "finiterange:theta=0.5,b=1,k=1.5",
    "truncevpower:alpha=0,b=0",
    "reflweibull:theta=0.5,k=nan",
    "finiterange:theta=0.5,b=1,k=inf",
)


@pytest.mark.parametrize("text", BAD_SPECS)
def test_invalid_parameters_are_rejected(text):
    with pytest.raises(ParameterError):
        model_from_text(text)


EXTREME_VALUES = (math.nan, math.inf, -math.inf, 1e-320, 1e308, -1e308, 0.0, 3.0)


@pytest.mark.parametrize("text", DEFAULT_TEXTS)
def test_extreme_parameters_build_a_model_or_raise_parameter_error(text):
    # every combination of extreme values: building never leaks an
    # OverflowError, ZeroDivisionError or ValueError
    spec = parse_family(text)
    keys = tuple(spec.params)
    for values in itertools.product(EXTREME_VALUES, repeat=len(keys)):
        try:
            model = make_distribution(FamilySpec(spec.family, dict(zip(keys, values))))
        except ParameterError:
            continue
        assert isinstance(model, DistributionModel)


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
    for text in DEFAULT_TEXTS + ("linearmit:xi=0.5,alpha=1e-07,beta=-2,b=inf",):
        assert format_family(parse_family(text)) == text


@pytest.mark.parametrize("text, short", [
    ("linearmit:xi=0.41666666666,alpha=1.23456789,beta=0.5,b=0",
     "linearmit:xi=0.416667,alpha=1.23457,beta=0.5,b=0"),
    ("invweibull:nu=0.1,delta=3.0000000000000004", "invweibull:nu=0.1,delta=3"),
    ("basealinkedrhr:theta=1.5,a_base=2.718281828459045,b=1234567",
     "basealinkedrhr:theta=1.5,a_base=2.71828,b=1.23457e+06"),
])
def test_format_family_names_the_model_that_ran(text, short):
    # :g kept six digits, and its text built another model; every value now
    # reads back to itself, and :g stays where it already did
    spec = parse_family(text)
    assert parse_family(format_family(spec)) == spec
    assert format_family(spec) != short


@pytest.mark.parametrize("text", [
    "type3ev:gamma=2,b=0.5", "power:b=1.5,c=3", "uniform:b=2",
    "truncevpower:alpha=1.5,b=0", "explinkedeit:theta=0.7,b=1",
])
def test_an_alias_is_its_parent_family_member(text):
    # the equality rules read only parent families, so the alias table must
    # name the member each alias is
    alias = model_from_text(text)
    family, params = parent_family(alias.spec)
    assert family != alias.spec.family
    parent = make_distribution(FamilySpec(family, params))
    assert parent.support == alias.support
    for p in (0.1, 0.5, 0.9):
        t = alias.quantile(p)
        for name in ("cdf", "rhr", "eit"):
            want = getattr(alias, name)(t)
            assert getattr(parent, name)(t) == pytest.approx(want, rel=1e-12), (name, p)


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
    # z = t^-3 overflows below t = 1e-236; eit = t/(3z) underflows with it
    assert model.eit(1e-240) == 0.0
    assert model.log_eit(1e-240) == pytest.approx(4 * math.log(1e-240) - math.log(3.0), rel=1e-15)


# ---------------------------------------------------------------------------
# Newton quantiles of the three families whose cdf has no closed inverse

NEWTON_TEXTS = (
    "finiterange:theta=0.5,b=1,k=1",
    "explinkedeit:theta=1,b=0",
    "basealinkedeit:gamma=1,delta=1,a_base=2,b=0",
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("p", [1e-300, 1e-310, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize("text", NEWTON_TEXTS)
def test_newton_quantile_at_extreme_p(text, p):
    model = model_from_text(text)
    t = quantile_at(model, p)
    assert model.support.lower < t <= model.support.upper
    if abs(t) >= sys.float_info.min:
        assert model.log_cdf(t) == pytest.approx(math.log(p), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("text", NEWTON_TEXTS)
def test_newton_quantile_of_a_scalar_is_a_float(text):
    assert type(model_from_text(text).quantile(0.3)) is float


def _reference_quantile(model, p):
    """brentq on log F(t) = log p, below the upper endpoint b."""
    b = model.support.upper
    target = math.log(p)
    hi = lo = b
    step = 1.0
    while model.log_cdf(lo) >= target:  # halve toward 0, or step down twice as far
        hi, lo = lo, lo / 2.0 if model.spec.family == "finiterange" else b - step
        step *= 2.0
    return scipy.optimize.brentq(lambda t: model.log_cdf(t) - target, lo, hi,
                                 xtol=1e-300, rtol=1e-15)


NEWTON_SPECS = st.one_of(
    st.builds(lambda theta, b, k: f"finiterange:theta={theta!r},b={b!r},k={k}",
              st.floats(0.01, 20.0), st.floats(0.1, 5.0), st.integers(1, 6)),
    st.builds(lambda theta, b: f"explinkedeit:theta={theta!r},b={b!r}",
              st.floats(0.01, 20.0), st.floats(-5.0, 5.0)),
    st.builds(lambda g, d, a, b: f"basealinkedeit:gamma={g!r},delta={d!r},a_base={a!r},b={b!r}",
              st.floats(0.05, 5.0), st.floats(0.01, 5.0), st.floats(1.1, 10.0),
              st.floats(-5.0, 5.0)),
)


@given(text=NEWTON_SPECS,
       ps=st.lists(st.floats(1e-15, 1.0 - 1e-15), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_newton_quantile_matches_brentq_and_its_scalar_calls(text, ps):
    model = model_from_text(text)
    got = model.quantile(np.array(ps))
    assert _bits(got) == _bits([model.quantile(p) for p in ps])
    for p, t in zip(ps, got):
        want = _reference_quantile(model, p)
        assert abs(t - want) <= 1e-13 + 4e-15 * abs(want), (p, t, want)


def test_newton_quantile_raises_when_it_cannot_converge():
    # a log-cdf that never reaches log p: every step has the same length
    with pytest.raises(DomainError, match="did not converge"):
        _newton_quantile(np.array([0.5, 0.25]), 0.0, lambda x: np.ones_like(x),
                         lambda x: np.ones_like(x), 1e-13)


def test_newton_quantile_stops_where_floats_in_log_t_are_wider_than_its_tolerance():
    # the root sits at log t = -91.4, where neighbouring floats lie 1.4e-14 apart
    model = model_from_text("finiterange:theta=1.01,b=1.1875,k=5")
    t = quantile_at(model, 1e-200)
    assert model.log_cdf(t) == pytest.approx(math.log(1e-200), rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# linearmit's reversed aging intensity near b

@pytest.mark.parametrize("text", ["linearmit:xi=0.8,alpha=1,beta=0.5,b=0",
                                  "linearmit:xi=0.5,alpha=2,beta=0.9,b=1"])
@pytest.mark.parametrize("gap", [3e-15, 1e-16])
def test_linearmit_rai_tends_to_one_at_b(text, gap):
    model = model_from_text(text)
    assert model.rai(model.support.upper - gap) == pytest.approx(1.0, rel=0.0, abs=1e-12)



def test_linearmit_gives_its_lower_end_limit_where_v_rounds_to_zero():
    # -alpha/beta rounds below the root of v = alpha + beta*x, so at the float
    # above the lower end v is 0.0: the logs raised ValueError and rhr
    # ZeroDivisionError. The quantile at a tiny p returns this very x
    model = model_from_text("linearmit:xi=0.209,alpha=0.674,beta=1.367,b=1.455")
    x = -0.493050475493782
    assert x == math.nextafter(model.support.lower, 0.0)
    assert 0.674 + 1.367 * x == 0.0
    assert quantile_at(model, 1e-300) == x
    assert (model.cdf(x), model.log_cdf(x)) == (0.0, -math.inf)
    assert (model.pdf(x), model.log_pdf(x)) == (0.0, -math.inf)
    assert (model.rhr(x), model.rai(x), model.eit(x)) == (math.inf, math.inf, 0.0)
    # one float up, the closures are finite again
    y = math.nextafter(x, 0.0)
    assert 0.0 < model.cdf(y) and math.isfinite(model.log_pdf(y))
    assert math.isfinite(model.rhr(y)) and math.isfinite(model.rai(y))



# ---------------------------------------------------------------------------
# quantiles next to a finite lower endpoint

# per family with a finite lower endpoint, a model whose quantile at p = 1e-320
# lies nearer that endpoint than the spacing of floats there
NEAR_LOWER_TEXTS = {
    "power": "power:b=1,c=0.01",
    "uniform": "uniform:b=1e-300",
    "invweibull": "invweibull:nu=1,delta=0.001",
    "finiterange": "finiterange:theta=0.5,b=1e-5,k=1",
    "linearmit": "linearmit:xi=0.8,alpha=1,beta=0.5,b=0",
}


def test_every_family_with_a_finite_lower_endpoint_is_probed():
    finite = {model_from_text(text).spec.family for text in DEFAULT_TEXTS + SECOND_TEXTS
              if math.isfinite(model_from_text(text).support.lower)}
    assert finite == set(NEAR_LOWER_TEXTS) and set(NEAR_LOWER_TEXTS) <= set(_FAMILIES)


@pytest.mark.parametrize("text", sorted(set(NEAR_LOWER_TEXTS.values()) | {
    t for t in DEFAULT_TEXTS + SECOND_TEXTS if math.isfinite(model_from_text(t).support.lower)}))
def test_quantile_stays_inside_the_open_support_at_tiny_p(text):
    model = model_from_text(text)
    lower, upper = model.support.lower, model.support.upper
    assert lower < quantile_at(model, 1e-320) < upper
    got = model.quantile(np.array([1e-320, 1e-300, 0.5]))
    assert np.all((lower < got) & (got < upper))


# ---------------------------------------------------------------------------
# invweibull's inactivity time at an integer Gamma order s = -1/delta

@pytest.mark.parametrize("delta", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
def test_invweibull_eit_matches_a_direct_mpmath_integral(delta, t):
    # eit(t) = int_0^t F(x) dx / F(t) with F(x) = exp(-nu x^-delta)
    nu = 1.5
    model = model_from_text(f"invweibull:nu={nu},delta={delta}")
    with mpmath.workdps(30):
        cdf = lambda x: mpmath.exp(-nu * mpmath.mpf(x) ** -delta)
        want = mpmath.quad(cdf, [0, t / 4, t]) / cdf(t)
    assert model.eit(t) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("text, t", [
    # s = -1/delta = -30 at z = 46: an asymptotic series used past z = 45 gave -4.2e-50
    ("invweibull:nu=1,delta=0.0333333333333333", 1.3099811594747738e-50),
    # s = -2 at z = 1e-160 and 1e-250: z**s overflowed, eit is t to 4e-51
    ("invweibull:nu=1e-100,delta=0.5", 1e120),
    ("invweibull:nu=1e-100,delta=0.5", 1e300),
])
def test_invweibull_eit_where_gamma_of_its_order_leaves_float_range(text, t):
    model = model_from_text(text)
    nu, delta = model.spec.params["nu"], model.spec.params["delta"]
    with mpmath.workdps(60):
        # eit(t) = t/delta * exp(z) z^-s Gamma(s, z), z = nu t^-delta, s = -1/delta
        z = mpmath.mpf(nu) * mpmath.mpf(t) ** -mpmath.mpf(delta)
        s = -1 / mpmath.mpf(delta)
        want = t / mpmath.mpf(delta) * mpmath.exp(z) * z ** -s * mpmath.gammainc(s, z)
        log_want = float(mpmath.log(want))
    assert model.eit(t) == pytest.approx(float(want), rel=1e-12)
    assert model.log_eit(t) == pytest.approx(log_want, rel=1e-12)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("theta", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
def test_reflweibull_eit_past_k_one_matches_mpmath(k, theta):
    # k > 1 leaves the erfcx closed form for Gamma(s, z) exp(z), s = 1/(k+1)
    model = model_from_text(f"reflweibull:theta={theta},k={k}")
    for t in (-30.0, -3.0, -0.3, -1e-5, -1e-20, -1e-80):
        with mpmath.workdps(40):
            s = mpmath.mpf(1) / (k + 1)
            z = mpmath.mpf(theta) * mpmath.mpf(-t) ** (k + 1)
            want = s * mpmath.mpf(theta) ** -s * mpmath.gammainc(s, z) * mpmath.exp(z)
        assert model.eit(t) == pytest.approx(float(want), rel=1e-13), t


def test_basealinkedeit_eit_past_the_series_overflow():
    # w = delta*a^t runs up to 800 here; the power series overflowed to NaN from w = 710
    model = model_from_text("basealinkedeit:gamma=1,delta=800,a_base=2,b=0")
    t = -0.001
    with mpmath.workdps(30):
        cdf = lambda x: mpmath.exp(x + 800 * (mpmath.mpf(2) ** x - 1))
        want = mpmath.quad(cdf, [-mpmath.inf, t - 0.1, t - 0.01, t]) / cdf(t)
    assert model.eit(t) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("theta", [1e-300, 1e-320])
def test_basealinkedrhr_keeps_its_mass_at_tiny_theta(theta):
    # the median sits where theta*2^-t = ln 2, at u = -t*ln 2 = 690.4 and 736.4,
    # past the u = 690 and u = 700 switch points of the closures
    model = model_from_text(f"basealinkedrhr:theta={theta},a_base=2,b=0")
    t = float(model.quantile(0.5))
    assert model.cdf(t) == pytest.approx(0.5, rel=1e-12)
    with mpmath.workdps(30):
        y = mpmath.mpf(theta) * mpmath.mpf(2) ** -mpmath.mpf(t)
        ln_a = mpmath.log(2)
        want_eit = mpmath.exp(y) * mpmath.e1(y) / ln_a
        want_log_pdf = mpmath.log(y * ln_a) - (y - mpmath.mpf(theta))
    assert model.eit(t) == pytest.approx(float(want_eit), rel=1e-12)
    assert model.rhr(t) == pytest.approx(float(y * ln_a), rel=1e-12)
    assert model.log_pdf(t) == pytest.approx(float(want_log_pdf), rel=1e-12)


@pytest.mark.parametrize("text, t", [
    # y = theta*a^-t underflows: 0 raised ValueError, a subnormal y lost digits
    ("truncevpower:alpha=1.5,b=800", 745.0),
    ("truncevpower:alpha=1.5,b=800", 760.0),
    ("truncevpower:alpha=1.5,b=800", 799.0),
    ("basealinkedrhr:theta=1e-320,a_base=2,b=0", -0.1),
])
def test_basealinkedrhr_eit_where_its_argument_underflows(text, t):
    model = model_from_text(text)
    params = parent_family(model.spec)[1]
    with mpmath.workdps(40):
        ln_a = mpmath.log(params["a_base"])
        y = mpmath.mpf(params["theta"]) * mpmath.exp(-ln_a * t)
        want = mpmath.exp(y) * mpmath.e1(y) / ln_a
    assert model.eit(t) == pytest.approx(float(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("t", [1e-160, 1e-162, 1e-200, 1e-300])
def test_finiterange_eit_where_its_w_is_subnormal(t):
    # w = theta*t^(k+1) is subnormal or 0: eit read 1e-5 off, then 0.0
    model = model_from_text("finiterange:theta=0.5,b=1,k=1")
    with mpmath.workdps(40):
        w = mpmath.mpf(0.5) * mpmath.mpf(t) ** 2
        want = -mpmath.expm1(-w) / (mpmath.mpf(0.5) * 2 * mpmath.mpf(t))
        log_want = float(mpmath.log(want))
    assert model.eit(t) == pytest.approx(float(want), rel=1e-14, abs=0.0)
    assert model.log_eit(t) == pytest.approx(log_want, rel=1e-14, abs=0.0)
