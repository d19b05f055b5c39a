"""Functional-layer tests: frozen oracles, cross-identities, conventions.

The three functionals are tied together by exact identities, so most of
the coverage here is mechanical: the closed-form accessors must agree
with their quadrature/difference counterparts, the reversed hazard rate
must reproduce the cdf by exponentiated integration, and the reversed
aging intensity must be identical under its two algebraic forms.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrel.distributions import cdf_at, model_from_text, quantile_at
from revrel.errors import DomainError, SupportError, UnboundedSupport
from revrel.functionals import (
    cdf_from_rhr,
    eit,
    functional_profile,
    numeric_eit,
    numeric_rhr,
    rai,
    rai_integral_form,
    raw_moment,
    rhr,
    rhr_eit_identity_residual,
)

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
FINITE_B_TEXTS = tuple(t for t in ALL_TEXTS if not t.startswith("invweibull"))


def interior_grid(model, n=32):
    return [quantile_at(model, (i + 1) / (n + 1)) for i in range(n)]


# ---------------------------------------------------------------------------
# frozen scalars

def test_rhr_examples():
    assert rhr(model_from_text("type3ev:gamma=2,b=0"), -0.4) == pytest.approx(2.0, rel=1e-13)
    assert rhr(model_from_text("power:b=1,c=2"), 0.5) == pytest.approx(4.0, rel=1e-13)
    assert rhr(model_from_text("invweibull:nu=1,delta=1"), 2.0) == pytest.approx(0.25, rel=1e-13)


EIT_ORACLES = (
    ("power:b=1,c=2", 0.6, 0.2),
    ("type3ev:gamma=2,b=0", -0.3, 0.5),
    ("uniform:b=1", 0.5, 0.25),
    ("linearmit:xi=0.8,alpha=1,beta=0.5,b=0", -0.9, 0.44),
    ("truncevpower:alpha=1.5,b=0", -1.0, 0.203021350219654),
    ("reflweibull:theta=0.5,k=1", -1.3, 0.5648671289696162),
    ("basealinkedrhr:theta=1,a_base=2,b=0", -0.7, 0.6098347680718249),
    ("explinkedeit:theta=1,b=0", -0.8, 0.8055208150871772),
    ("basealinkedeit:gamma=1,delta=1,a_base=2,b=0", -0.6, 0.7748252114337152),
    ("invweibull:nu=1,delta=3", 1.7, 0.6277453671971358),
)


@pytest.mark.parametrize("text,t,want", EIT_ORACLES)
def test_eit_frozen_values(text, t, want):
    assert eit(model_from_text(text), t) == pytest.approx(want, rel=1e-10)


def test_rai_example_power():
    m = model_from_text("power:b=1,c=2")
    assert rai(m, 0.5) == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
    assert rai(m, 0.5) == pytest.approx(1.4426950408889634, rel=1e-12)


@pytest.mark.parametrize("text", ["uniform:b=1", "linearmit:xi=0.5,alpha=0,beta=1,b=1"])
def test_rai_of_the_power_law_stays_finite_near_the_lower_end(text):
    # (b - t)/(t log(b/t)); t - b rounds to -b here, and log1p(-1) would be -inf
    t = 1e-300
    assert rai(model_from_text(text), t) == pytest.approx(1.0 / (t * 300 * math.log(10)), rel=1e-14)


def test_linearmit_eit_is_exactly_affine():
    m = model_from_text("linearmit:xi=0.8,alpha=1,beta=0.5,b=0")
    t1, t2 = -1.2, -0.4
    slope = (eit(m, t2) - eit(m, t1)) / (t2 - t1)
    assert slope == pytest.approx(0.8 * 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms versus the numeric fallbacks

@pytest.mark.parametrize("text", ALL_TEXTS)
def test_numeric_rhr_tracks_closed_form(text):
    model = model_from_text(text)
    for t in interior_grid(model, 7):
        assert numeric_rhr(model, t) == pytest.approx(rhr(model, t), rel=1e-10)


@pytest.mark.parametrize("text", ALL_TEXTS)
def test_numeric_eit_tracks_closed_form(text):
    model = model_from_text(text)
    for t in interior_grid(model, 7):
        assert numeric_eit(model, t) == pytest.approx(eit(model, t), rel=1e-8)


# ---------------------------------------------------------------------------
# the product identity: rhr(t) * eit(t) + d/dt eit(t) = 1

@pytest.mark.parametrize("text", ALL_TEXTS)
def test_rate_times_inactivity_identity(text):
    model = model_from_text(text)
    worst = max(abs(rhr_eit_identity_residual(model, t))
                for t in interior_grid(model, 32))
    assert worst <= 1e-4


def _catalog_identity_residuals():
    """(cdf calls, worst |residual|) over the catalog at five quantiles."""
    calls = [0]
    worst = 0.0
    for text in ALL_TEXTS:
        model = model_from_text(text)

        def counted(x, cdf=model.cdf):
            calls[0] += 1
            return cdf(x)

        counting = dataclasses.replace(model, cdf=counted)
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            t = quantile_at(model, p)
            worst = max(worst, abs(rhr_eit_identity_residual(counting, t)))
    return calls[0], worst


def test_identity_residual_integrates_up_to_t_once():
    # (lo, t) is integrated once and the neighbours add slabs of width h;
    # three separate integrals up to t, t + h and t - h made 53,809 calls
    calls, _ = _catalog_identity_residuals()
    assert calls <= 28_000


def test_identity_residual_cancels_the_error_of_the_shared_integral():
    # m(t + h) and m(t - h) share the integral up to t, so its error drops
    # out of the central difference (3.3e-10 with three separate integrals)
    _, worst = _catalog_identity_residuals()
    assert worst <= 2e-10


@pytest.mark.parametrize("text, t", (
    ("power:b=1,c=2", 5e-7),   # t - h lies below the lower endpoint 0
    ("power:b=1,c=2", 1.0),    # at b no step h > 0 keeps t + h inside
    ("power:b=1,c=2", 2.0),    # t + h and t itself lie beyond b
))
def test_identity_residual_outside_the_support_is_a_support_error(text, t):
    with pytest.raises(SupportError):
        rhr_eit_identity_residual(model_from_text(text), t)


def test_identity_residual_where_the_cdf_underflows_is_a_domain_error():
    model = model_from_text("type3ev:gamma=2,b=0")
    t = -372.56642326766575
    h = 1e-6 * abs(t)
    assert model.cdf(t) > 0.0 and model.cdf(t - h) == 0.0
    with pytest.raises(DomainError, match="underflows"):
        rhr_eit_identity_residual(model, t)


# ---------------------------------------------------------------------------
# reconstruction: cdf(t) = exp(-integral of rhr from t to the upper endpoint)

@pytest.mark.parametrize("text", FINITE_B_TEXTS)
def test_cdf_reconstruction_from_rhr(text):
    model = model_from_text(text)
    for t in interior_grid(model, 9):
        assert abs(cdf_from_rhr(model, t) - cdf_at(model, t)) <= 1e-6


def test_cdf_reconstruction_example():
    m = model_from_text("type3ev:gamma=2,b=0")
    assert cdf_from_rhr(m, -1.0) == pytest.approx(math.exp(-2.0), rel=1e-9)


@pytest.mark.parametrize("text", ("type3ev:gamma=2,b=1", "power:b=1,c=2"))
def test_rhr_integral_next_to_the_upper_endpoint(text):
    # integrated over x in (t, b) the nodes rounded onto b and each call
    # ended MaxDepth after 400k evaluations; in d = b - x they converge
    model = model_from_text(text)
    t = 1.0 - 1e-6
    assert cdf_from_rhr(model, t) == pytest.approx(model.cdf(t), rel=1e-14)
    assert rai_integral_form(model, t) == pytest.approx(rai(model, t), rel=1e-14)


def test_cdf_reconstruction_needs_finite_upper_endpoint():
    m = model_from_text("invweibull:nu=1,delta=3")
    with pytest.raises(UnboundedSupport):
        cdf_from_rhr(m, 1.0)


# ---------------------------------------------------------------------------
# reversed aging intensity

@pytest.mark.parametrize("text", FINITE_B_TEXTS)
def test_rai_two_forms_agree(text):
    model = model_from_text(text)
    for t in interior_grid(model, 9):
        assert abs(rai(model, t) - rai_integral_form(model, t)) <= 1e-6


def test_rai_constant_one_for_type3ev():
    model = model_from_text("type3ev:gamma=2,b=0")
    assert all(abs(rai(model, t) - 1.0) <= 1e-6 for t in interior_grid(model, 32))


def test_rai_constant_for_reflweibull():
    # the closed form collapses to k + 1 at every interior point
    model = model_from_text("reflweibull:theta=0.5,k=1")
    for t in interior_grid(model, 9):
        assert rai(model, t) == pytest.approx(2.0, rel=1e-12)


def test_rai_sides_of_one():
    power = model_from_text("power:b=1,c=2")
    assert all(rai(power, t) > 1.0 for t in interior_grid(power, 16))
    grower = model_from_text("explinkedeit:theta=1,b=0")
    assert all(rai(grower, t) < 1.0 for t in interior_grid(grower, 16))


def test_rai_boundary_conventions():
    m = model_from_text("power:b=1,c=2")
    assert rai(m, 1.0) == 0.0
    assert rai(m, 2.0) == 0.0
    with pytest.raises(SupportError):
        rai(m, 0.0)
    with pytest.raises(UnboundedSupport):
        rai(model_from_text("invweibull:nu=1,delta=3"), 1.0)


# ---------------------------------------------------------------------------
# coarse sanity: inactivity time is positive and bounded by distance
# to the lower endpoint

@pytest.mark.parametrize("text", ("power:b=1,c=2", "uniform:b=1",
                                  "finiterange:theta=0.5,b=1,k=1"))
def test_eit_bounded_by_distance_to_lower_endpoint(text):
    model = model_from_text(text)
    lo = model.support.lower
    for t in interior_grid(model, 16):
        v = eit(model, t)
        assert 0.0 < v < t - lo


@given(p=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_identity_residual_property_on_power(p):
    model = model_from_text("power:b=1,c=2")
    t = quantile_at(model, p)
    assert abs(rhr_eit_identity_residual(model, t)) <= 1e-4


# ---------------------------------------------------------------------------
# bundled profile

def test_functional_profile_fields():
    m = model_from_text("power:b=1,c=2")
    prof = functional_profile(m, 0.5)
    assert prof["t"] == 0.5
    assert prof["cdf"] == pytest.approx(0.25)
    assert prof["pdf"] == pytest.approx(1.0)
    assert prof["rhr"] == pytest.approx(4.0)
    assert prof["eit"] == pytest.approx(0.5 / 3.0, rel=1e-12)
    assert prof["rai"] == pytest.approx(1.0 / math.log(2.0), rel=1e-12)


def test_functional_profile_drops_rai_when_unbounded():
    m = model_from_text("invweibull:nu=1,delta=3")
    prof = functional_profile(m, 1.7)
    assert "rai" not in prof
    assert prof["eit"] == pytest.approx(0.6277453671971358, rel=1e-10)


# ---------------------------------------------------------------------------
# raw moments without a closed form

def test_raw_moment_reads_log_pdf_from_the_column_table():
    base = model_from_text("truncevpower:alpha=1.5,b=0")
    assert base.moments is None  # integrated, not closed
    calls = []

    def log_pdf(x):
        calls.append(x)
        return base.log_pdf(x)

    model = dataclasses.replace(base, log_pdf=log_pdf)
    first = raw_moment(model, 1)
    assert len(calls) == len(model._columns)  # one call per abscissa
    del calls[:]
    assert raw_moment(model, 1) == first  # the identical float
    assert calls == []
