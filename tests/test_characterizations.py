"""Check-engine tests: catalog shape, frozen verdicts, the full matrix.

The 20 x 11 verdict grid below was computed once, derived independently
cell by cell (each Equality and DomainMismatch follows from the closed
forms; each Divergent from an endpoint expansion of the weighted
integrand), and then frozen. Any engine change that flips a cell fails
loudly here.
"""

import dataclasses
import json
import math

import mpmath
import pytest
import scipy.special as sc

from revrel import characterizations, functionals, quadrature
from revrel.characterizations import (
    CheckReport,
    CheckSpec,
    SupportRequirement,
    TheoremId,
    Verdict,
    claimed_equality_pair,
    default_models,
    equality_family,
    expected_equality_pair,
    make_check,
    report_records,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_matrix,
    theorem_catalog,
)
from revrel.distributions import model_from_text, quantile_at
from revrel.errors import ParameterError
from revrel.functionals import eit, numeric_eit
from revrel.quadrature import QuadStatus, Tolerances, integrate_finite

FAMILY_ORDER = (
    "type3ev", "power", "invweibull", "truncevpower", "basealinkedrhr",
    "reflweibull", "finiterange", "linearmit", "explinkedeit",
    "basealinkedeit", "uniform",
)

# EQ Equality / ST StrictInequality / DV Divergent / DM DomainMismatch
FROZEN_GRID = {
    "T2_1":  "EQ ST DV ST ST ST DV ST ST ST DV",
    "T2_2":  "DM EQ DV DM DM DM ST DM DM DM EQ",
    "T2_4":  "DM ST ST DM DM DM DV DM DM DM DV",
    "T2_5":  "ST ST DV EQ ST ST DV ST DV DV DV",
    "T2_6":  "ST ST DV ST EQ ST DV ST ST ST DV",
    "T2_7":  "EQ ST DM ST ST ST ST ST ST ST ST",
    "T2_8":  "EQ ST DM ST ST ST ST ST ST ST ST",
    "T2_9":  "DV DV DM DV DV EQ DV DV DV DV DV",
    "T2_10": "DV DV DM DV DV DV DV DV DV DV DV",
    "T3_1":  "EQ ST ST ST ST ST DV ST ST ST DV",
    "T3_2":  "DM DV ST DM DM DM DV DM DM DM DV",
    "T3_3":  "DM DV DV DM DM DM DV DM DM DM DV",
    "T3_4":  "DV EQ ST DV DV ST ST DV DV DV EQ",
    "T3_5":  "DM ST ST DM DM DM DV EQ DM DM DV",
    "T3_6":  "ST ST DV ST ST ST DV ST DV DV DV",
    "T3_7":  "ST ST DV ST ST ST DV ST ST ST DV",
    "T4_1":  "EQ DV DV ST ST ST DV DV ST ST DV",
    "T4_2":  "EQ ST DV ST ST ST DV DV ST ST DV",
    "T4_3":  "EQ ST DM ST ST ST ST ST ST ST ST",
    "T4_4":  "EQ ST DM ST ST ST ST ST ST ST ST",
}
_CODE = {"EQ": Verdict.Equality, "ST": Verdict.StrictInequality,
         "DV": Verdict.Divergent, "DM": Verdict.DomainMismatch}


# ---------------------------------------------------------------------------
# catalog shape

def test_catalog_has_twenty_checks_in_id_order():
    catalog = theorem_catalog()
    assert len(catalog) == 20
    assert [c.id for c in catalog] == list(TheoremId)


def test_default_models_cover_eleven_families_in_order():
    models = default_models()
    assert tuple(m.spec.family for m in models) == FAMILY_ORDER


def test_suspect_flags():
    suspects = {c.id.value for c in theorem_catalog() if c.suspect}
    assert suspects == {"T3_2", "T3_3", "T3_6", "T3_7"}


def test_make_check_defaults():
    assert make_check(TheoremId.T2_4).k == 2
    assert make_check(TheoremId.T2_8).k == 2
    assert make_check(TheoremId.T2_10).k == 3
    assert make_check(TheoremId.T4_2).k == 1
    assert make_check(TheoremId.T2_6).base == 2.0
    assert make_check(TheoremId.T3_5).alpha == 1.0
    assert make_check(TheoremId.T3_5).beta == 0.5


@pytest.mark.parametrize("theorem,kwargs", (
    (TheoremId.T2_4, {"k": 1}),
    (TheoremId.T2_8, {"k": 0}),
    (TheoremId.T2_10, {"k": 2}),       # even order flips the weight's sign
    (TheoremId.T2_10, {"k": -1}),
    (TheoremId.T4_2, {"k": -1}),
    (TheoremId.T4_4, {"k": -3}),
    (TheoremId.T2_6, {"base": 1.0}),
    (TheoremId.T3_7, {"base": 0.5}),
    (TheoremId.T3_5, {"alpha": 0.0, "beta": 0.0}),
    (TheoremId.T2_1, {"k": 3, "base": 7, "alpha": 2}),   # takes no parameters
    (TheoremId.T2_9, {"k": 5}),        # k is fixed to 1
    (TheoremId.T2_7, {"k": 2}),        # k is fixed to 1
    (TheoremId.T2_6, {"k": 2}),        # takes base only
))
def test_make_check_rejects_bad_parameters(theorem, kwargs):
    with pytest.raises(ParameterError):
        make_check(theorem, **kwargs)


def test_support_requirements():
    req = {c.id.value: c.support_requirement for c in theorem_catalog()}
    assert req["T2_1"] is SupportRequirement.Any
    assert req["T2_2"] is SupportRequirement.Nonnegative
    assert req["T2_7"] is SupportRequirement.FiniteB
    assert req["T4_4"] is SupportRequirement.FiniteB


# Each check's x-weight as its description prints it, and as a direct formula
PRINTED_WEIGHTS = {
    TheoremId.T2_1: ("E[1/rhr(X)]", lambda c, x: 1.0),
    TheoremId.T2_2: ("E[X*rhr(X)]", lambda c, x: x),
    TheoremId.T2_4: ("E[X^{k}*rhr(X)]", lambda c, x: x ** c.k),
    TheoremId.T2_5: ("E[exp(X)*rhr(X)]", lambda c, x: math.exp(x)),
    TheoremId.T2_6: ("E[{base:g}^X*rhr(X)]", lambda c, x: c.base ** x),
    TheoremId.T2_7: ("E[X*rhr(X)]", lambda c, x: x),
    TheoremId.T2_8: ("E[X^{k}*rhr(X)]", lambda c, x: x ** c.k),
    TheoremId.T2_9: ("E[rhr(X)/X]", lambda c, x: 1.0 / x),
    TheoremId.T2_10: ("E[rhr(X)/X^{k}]", lambda c, x: 1.0 / x ** c.k),
    TheoremId.T3_1: ("E[1/eit(X)]", lambda c, x: 1.0),
    TheoremId.T3_2: ("E[X*eit(X)]", lambda c, x: x),
    TheoremId.T3_3: ("E[X^{k}*eit(X)]", lambda c, x: x ** c.k),
    TheoremId.T3_4: ("E[eit(X)/X]", lambda c, x: 1.0 / x),
    TheoremId.T3_5: ("E[eit(X)/({alpha:g}+{beta:g}*X)]",
                     lambda c, x: 1.0 / (c.alpha + c.beta * x)),
    TheoremId.T3_6: ("E[exp(X)*eit(X)]", lambda c, x: math.exp(x)),
    TheoremId.T3_7: ("E[{base:g}^X*eit(X)]", lambda c, x: c.base ** x),
    TheoremId.T4_1: ("E[rhr(X)/eit(X)]", lambda c, x: 1.0),
    TheoremId.T4_2: ("E[X^{k}*rhr(X)/eit(X)]", lambda c, x: x ** c.k),
    TheoremId.T4_3: ("E[rhr(X)/rai(X)]", lambda c, x: 1.0),
    TheoremId.T4_4: ("E[X^{k}*rhr(X)/rai(X)]", lambda c, x: x ** c.k),
}


@pytest.mark.parametrize("check", theorem_catalog() + (
    make_check(TheoremId.T3_5, alpha=-2.0, beta=3.0),
    make_check(TheoremId.T3_5, alpha=0.0, beta=-1.5),
    make_check(TheoremId.T3_5, alpha=0.5, beta=0.0),
    make_check(TheoremId.T2_6, base=3.0),
    make_check(TheoremId.T3_7, base=3.0),
    make_check(TheoremId.T2_4, k=3),
    make_check(TheoremId.T2_8, k=3),
    make_check(TheoremId.T2_10, k=5),
    make_check(TheoremId.T3_3, k=3),
    make_check(TheoremId.T4_2, k=0),
    make_check(TheoremId.T4_2, k=2),
    make_check(TheoremId.T4_4, k=3),
), ids=lambda c: c.description)
def test_each_weight_tuple_gives_its_printed_weight(check, monkeypatch):
    # the integrands expectation builds from a check's weight data, on a model
    # whose log_pdf and log functionals are 0: each is its factor's x-weight,
    # 1/w for a product's first factor and w otherwise
    text, direct = PRINTED_WEIGHTS[check.id]
    assert text.format(k=check.k, base=check.base, alpha=check.alpha,
                       beta=check.beta) in check.description
    zero = lambda x: 0.0
    stub = dataclasses.replace(model_from_text("type3ev:gamma=1,b=5"), log_pdf=zero,
                               log_rhr=zero, log_eit=zero, rai=lambda x: 1.0)
    integrands = []
    monkeypatch.setattr(quadrature, "integrate_lower_unbounded",
                        lambda f, hi, tol=None: integrands.append(f))
    for spec in characterizations._components(check, stub):
        quadrature.expectation(spec)
    powers = {"product": (-1, 1), "moment-bound": (1,)}.get(check.kind, (1, 1))
    assert len(integrands) == len(powers)
    for f, power in zip(integrands, powers):
        for x in (-2.5, -0.7, 0.3, 1.9):
            assert f(x) == pytest.approx(direct(check, x) ** power, rel=1e-15)


# ---------------------------------------------------------------------------
# frozen single-check verdicts

def _run(theorem, text, **check_kwargs):
    return run_check(make_check(theorem, **check_kwargs), model_from_text(text))


def test_reciprocal_rate_product_on_constant_rate_family():
    r = _run(TheoremId.T2_1, "type3ev:gamma=1,b=0")
    assert r.verdict is Verdict.Equality
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == 1.0
    assert r.expected_equality


def test_reciprocal_rate_product_on_power_is_four_thirds():
    r = _run(TheoremId.T2_1, "power:b=1,c=2")
    assert r.verdict is Verdict.StrictInequality
    # E[1/rhr] = E[X/c] = 2/3 * 1/2; E[rhr] = E[c/X] = 2 * c/(c-1) / ... = 4
    assert r.ratio == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_reciprocal_rate_product_diverges_on_uniform():
    r = _run(TheoremId.T2_1, "uniform:b=1")
    assert r.verdict is Verdict.Divergent
    assert not math.isfinite(r.lhs) or math.isnan(r.lhs)
    assert "component" in r.note


def test_x_weighted_product_equality_on_power():
    r = _run(TheoremId.T2_2, "power:b=1,c=2")
    assert r.verdict is Verdict.Equality
    assert r.expected_equality


def test_x_weighted_product_refuses_negative_support():
    r = _run(TheoremId.T2_2, "type3ev:gamma=2,b=0")
    assert r.verdict is Verdict.DomainMismatch
    assert "below zero" in r.note


def test_x_weighted_product_equality_on_zero_intercept_linear_eit():
    # alpha = 0 makes linearmit a power law: x*rhr(x) = q is constant
    r = _run(TheoremId.T2_2, "linearmit:xi=2,alpha=0,beta=0.25,b=1")
    assert r.verdict is Verdict.Equality
    assert r.expected_equality
    # with beta < 0 the support lies below zero, and no equality is expected
    r = _run(TheoremId.T2_2, "linearmit:xi=1,alpha=0,beta=-0.5,b=-1")
    assert r.verdict is Verdict.DomainMismatch
    assert not r.expected_equality


def test_power_weighted_product_value_on_heavy_tail():
    # at k=2 the two factors reduce to gamma-function moments
    r = _run(TheoremId.T2_4, "invweibull:nu=1,delta=3", k=2)
    assert r.verdict is Verdict.StrictInequality
    want = float(sc.gamma(5.0 / 3.0) * sc.gamma(1.0 / 3.0))
    assert r.lhs == pytest.approx(want, rel=1e-9)
    assert r.lhs == pytest.approx(2.4183991523122903, rel=1e-9)


def test_first_moment_bound_equality_cases():
    r = _run(TheoremId.T2_7, "type3ev:gamma=1,b=2")
    assert r.verdict is Verdict.Equality
    assert r.lhs == pytest.approx(1.0, rel=1e-10)
    assert r.rhs == pytest.approx(1.0, rel=1e-12)
    r = _run(TheoremId.T2_7, "type3ev:gamma=2,b=3")
    assert r.verdict is Verdict.Equality
    assert r.lhs == pytest.approx(5.0, rel=1e-10)
    assert r.rhs == pytest.approx(5.0, rel=1e-12)


def test_first_moment_bound_with_negative_sides():
    # both sides are negative here; the ratio, not the raw difference,
    # decides the verdict
    r = _run(TheoremId.T2_7, "reflweibull:theta=0.5,k=1")
    assert r.lhs == pytest.approx(-2.0, rel=1e-10)
    assert r.rhs == pytest.approx(-math.pi / 2.0, rel=1e-12)
    assert r.ratio == pytest.approx(4.0 / math.pi, rel=1e-9)
    assert r.verdict is Verdict.StrictInequality


def test_reciprocal_x_moment_bound_equality():
    r = _run(TheoremId.T2_9, "reflweibull:theta=0.5,k=1")
    assert r.verdict is Verdict.Equality
    assert r.lhs == pytest.approx(-1.0, rel=1e-10)
    assert r.rhs == pytest.approx(-1.0, rel=1e-12)
    r = _run(TheoremId.T2_9, "reflweibull:theta=2,k=1")
    assert r.lhs == pytest.approx(-4.0, rel=1e-10)
    assert r.verdict is Verdict.Equality


def test_inactivity_ratio_product_equality_through_origin():
    # eit proportional to x: the zero-intercept linear-eit member
    r = _run(TheoremId.T3_4, "linearmit:xi=1,alpha=0,beta=-0.5,b=-1")
    assert r.verdict is Verdict.Equality
    assert r.expected_equality


def test_mixed_moment_product_rhs_is_squared_mean():
    r = _run(TheoremId.T4_2, "type3ev:gamma=2,b=1", k=1)
    assert r.rhs == pytest.approx(0.25, rel=1e-12)
    assert r.verdict is Verdict.Equality
    assert r.lhs == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("theorem,gamma,b", (
    [(TheoremId.T4_1, 1e-6, b) for b in (0.0, 1e3, -1e3, 1e6, -1e6)]
    + [(TheoremId.T4_1, 1e6, b) for b in (0.0, 1e3, -1e3)]
    + [(TheoremId.T4_2, 1e6, 0.0), (TheoremId.T4_4, 1e6, 0.0)]))
def test_constant_rate_equality_holds_at_extreme_scales(theorem, gamma, b):
    # a component of size 1e-12 or below is integrated to rel_tol of its
    # own size, not stopped at an absolute floor after 97 evaluations
    r = _run(theorem, f"type3ev:gamma={gamma!r},b={b!r}")
    assert r.expected_equality
    assert r.verdict is Verdict.Equality, r.ratio


@pytest.mark.parametrize("theorem,moment", (
    (TheoremId.T2_7, "b^2 - mu_2 = 0"),
    (TheoremId.T4_2, "mu_1^2 = 0"),
    (TheoremId.T4_4, "mu_1^2 = 0"),
))
@pytest.mark.parametrize("text", ("type3ev:gamma=1,b=1", "type3ev:gamma=1e-3,b=1e3"))
def test_degenerate_right_hand_side_is_a_domain_mismatch(theorem, moment, text):
    # zero mean: the bound's right-hand side is 0 or has a 0 denominator,
    # so no ratio exists to classify
    r = _run(theorem, text)
    assert r.verdict is Verdict.DomainMismatch
    assert moment in r.note
    assert r.components == ()


@pytest.mark.parametrize("theorem,text,moment", (
    (TheoremId.T2_8, "type3ev:gamma=1,b=1e200", "b^3 - mu_3 = inf"),
    (TheoremId.T2_10, "type3ev:gamma=1,b=1e120", "b^4 - mu_4 = inf"),
))
def test_right_hand_side_overflow_is_a_domain_mismatch(theorem, text, moment):
    # b^(k+1) leaves float range and raised OverflowError out of run_check
    r = _run(theorem, text)
    assert r.verdict is Verdict.DomainMismatch
    assert moment in r.note
    assert r.components == ()


@pytest.mark.parametrize("theorem,text,note", (
    (TheoremId.T2_9, "linearmit:xi=0.8,alpha=1,beta=0.5,b=1",
     "weight 1/x changes sign inside the support"),
    (TheoremId.T2_10, "type3ev:gamma=1,b=1", "weight 1/x^3 changes sign inside the support"),
    (TheoremId.T3_4, "type3ev:gamma=1,b=1", "weight 1/x changes sign inside the support"),
    (TheoremId.T3_5, "type3ev:gamma=1,b=1",
     "weight 1/(alpha+beta*x) changes sign inside the support"),
))
def test_a_pole_inside_the_support_is_a_domain_mismatch(theorem, text, note):
    # a negative power of x (or of alpha+beta*x) has a pole at 0 (or at
    # -alpha/beta) inside these supports, so its expectation means nothing
    # there; the cell is refused before any integral is run
    r = _run(theorem, text)
    assert r.verdict is Verdict.DomainMismatch
    assert r.note == note
    assert r.components == ()
    assert math.isnan(r.ratio)


@pytest.mark.parametrize("theorem,text,note", (
    (TheoremId.T2_9, "type3ev:gamma=1,b=1", "degenerate right-hand side: b^2 - mu_2 = 0"),
    (TheoremId.T2_10, "type3ev:gamma=1,b=1e120",
     "degenerate right-hand side: b^4 - mu_4 = inf"),
))
def test_a_degenerate_right_hand_side_is_named_before_the_pole(theorem, text, note):
    # the support holds the pole at 0 too, but the right-hand side's note wins
    model = model_from_text(text)
    assert model.support.lower < 0.0 < model.support.upper
    r = run_check(make_check(theorem), model)
    assert r.verdict is Verdict.DomainMismatch
    assert r.note == note


def test_divergent_moment_on_the_right_hand_side_is_divergent():
    # invweibull's mean exists only for delta > 1; the closed form says so
    r = _run(TheoremId.T4_2, "invweibull:nu=1,delta=0.5")
    assert r.verdict is Verdict.Divergent
    assert r.note == "invweibull moment of order 1 diverges (needs r < delta=0.5)"
    assert r.components == ()


# Off-catalog cells that once ended Divergent because a factor weight left
# float range where the density had already underflowed; each has a closed
# form.  On power, E[X^r] = c*b^r/(c + r), rhr = c/x and eit = x/(c + 1).
LOG_SPACE_ORACLES = (
    # E[1/(X^2*eit)] * E[X^2*eit] = E[X^-3] * E[X^3]
    (TheoremId.T3_3, "power:b=1.2593783959783937,c=3.605543941500053",
     lambda c: c * c / (c * c - 9.0), 3.605543941500053),
    # E[rhr/X] = c^2/((c - 2)*b^2) against 2/(b^2 - mu_2) = (c + 2)/b^2
    (TheoremId.T2_9, "power:b=1.9887177168673578,c=2.6983436680949473",
     lambda c: c * c / (c * c - 4.0), 2.6983436680949473),
    # rhr = 4*theta*(-x)^3: the product is Gamma(1/4)*Gamma(7/4) for every theta
    (TheoremId.T2_1, "reflweibull:theta=0.5920208087008805,k=3",
     lambda c: float(sc.gamma(0.25) * sc.gamma(1.75)), None),
)


@pytest.mark.parametrize("theorem,text,ratio,c", LOG_SPACE_ORACLES)
def test_log_space_weights_converge_to_closed_forms(theorem, text, ratio, c):
    r = _run(theorem, text)
    assert r.verdict is Verdict.StrictInequality, r.note
    assert r.ratio == pytest.approx(ratio(c), rel=1e-9)


def test_finiterange_inactivity_product_keeps_its_value():
    # eit = -expm1(-w)/(theta*(k+1)*t^k) is 0/0 where t^k underflows; the
    # integrand uses the log-native log_eit there
    r = _run(TheoremId.T3_1, "finiterange:theta=0.7571525810576776,b=1.5560896731567229,k=3")
    assert r.verdict is Verdict.StrictInequality
    assert r.ratio == pytest.approx(1.0211315264855627, rel=1e-9)


# ---------------------------------------------------------------------------
# the full matrix against the frozen grid

def test_matrix_matches_frozen_grid(matrix_run):
    reports, _ = matrix_run
    assert len(reports) == 220
    got = {}
    for r in reports:
        got.setdefault(r.theorem.value, {})[r.family.family] = r.verdict
    for tid, row in FROZEN_GRID.items():
        want = [_CODE[c] for c in row.split()]
        for fam, w in zip(FAMILY_ORDER, want):
            assert got[tid][fam] is w, f"{tid} x {fam}: {got[tid][fam]} != {w}"


def test_matrix_cells_stay_within_ten_thousand_evaluations(matrix_run):
    # no cell may reach the engine's budget: each ends on a decision
    reports, _ = matrix_run
    for r in reports:
        used = sum(c.evaluations for c in r.components)
        assert used <= 10_000, f"{r.theorem.value} x {r.family.family}: {used}"


def test_matrix_total_evaluations_stay_bounded(matrix_run):
    # the engine's machine-independent cost: a change that raises it must
    # raise this bound and say why (58,380 when the bound was last set;
    # 113,310 before sweeps skipped nodes past the live range)
    reports, _ = matrix_run
    assert sum(c.evaluations for r in reports for c in r.components) <= 60_000


def test_matrix_verdict_counts(matrix_run):
    reports, _ = matrix_run
    counts = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    assert counts[Verdict.Equality] == 16
    assert counts[Verdict.StrictInequality] == 97
    assert counts[Verdict.Divergent] == 67
    assert counts[Verdict.DomainMismatch] == 40
    assert counts.get(Verdict.Violation, 0) == 0


def test_reciprocal_products_hold_to_their_error_bars(matrix_run):
    # Cauchy-Schwarz: E[1/u] * E[u] >= 1 for every positive u, so a converged
    # reciprocal-product or unit mixed-product cell may fall below 1 only by
    # the sum of its components' relative error estimates
    reports, _ = matrix_run
    kinds = {c.id: c.kind for c in theorem_catalog()}
    cells = [r for r in reports
             if kinds[r.theorem] in ("product", "mixed-product-unit")
             and r.verdict not in (Verdict.Divergent, Verdict.DomainMismatch)]
    assert len(cells) == 75
    for r in cells:
        bar = sum(c.err_estimate / abs(c.value) for c in r.components)
        assert r.ratio >= 1.0 - bar, f"{r.theorem.value} x {r.family.family}"


def _linearmit_rai_ratios():
    """T4_3 and T4_4 (k=1) on linearmit:xi=0.8,alpha=1,beta=0.5,b=0, at 30 digits.

    F(t) = v^q with v = 1 + t/2 and q = 1.5 on (-2, 0), so
    rai/rhr = (b - t)/(-log F(t)); -log F is written with log1p so the
    integrand stays finite at the nodes tanh-sinh places next to b = 0.
    """
    with mpmath.workdps(30):
        q = mpmath.mpf(3) / 2
        pdf = lambda t: q / 2 * (1 + t / 2) ** (q - 1)
        neg_log_cdf = lambda t: -q * mpmath.log1p(t / 2)
        e = lambda g: mpmath.quad(lambda t: pdf(t) * g(t), [-2, 0])
        a = e(lambda t: -t / neg_log_cdf(t))
        c = e(lambda t: neg_log_cdf(t) / -t)
        ax = e(lambda t: t * -t / neg_log_cdf(t))
        cx = e(lambda t: t * neg_log_cdf(t) / -t)
        mu = e(lambda t: t)
        return float(a * c), float(ax * cx / (mu * mu))


# T4_3 on power(b, c) is c^2 psi_1(c) log(1 + 1/c) (psi_1 the trigamma function),
# and T4_4 at k = 1 is the same expression at c + 1; mpmath values by c
_POWER_T4_3 = {1: 1.1401814106428527, 2: 1.045993044549017, 3: 1.0225390574943718,
               4: 1.0133321966028108}


@pytest.mark.parametrize("text, c", [
    ("uniform:b=1", 1), ("power:b=1,c=2", 2), ("linearmit:xi=0.25,alpha=0,beta=1,b=1.5", 3)])
def test_power_law_rai_checks_match_their_closed_form(text, c):
    model = model_from_text(text)
    for tid, want in ((TheoremId.T4_3, _POWER_T4_3[c]), (TheoremId.T4_4, _POWER_T4_3[c + 1])):
        r = run_check(make_check(tid), model)
        assert r.verdict is Verdict.StrictInequality, (tid, r.note)
        assert r.ratio == pytest.approx(want, rel=1e-15, abs=0.0)


def test_linearmit_rai_checks_match_an_mpmath_oracle():
    model = model_from_text("linearmit:xi=0.8,alpha=1,beta=0.5,b=0")
    for tid, want in zip((TheoremId.T4_3, TheoremId.T4_4), _linearmit_rai_ratios()):
        r = run_check(make_check(tid), model)
        assert r.verdict is Verdict.StrictInequality, (tid, r.note)
        assert r.ratio == pytest.approx(want, rel=1e-9)


def test_matrix_equalities_are_structural_and_tight(matrix_run):
    reports, _ = matrix_run
    for r in reports:
        if r.verdict is Verdict.Equality:
            assert r.expected_equality
            assert abs(r.ratio - 1.0) <= 1e-12
        if r.expected_equality and r.verdict is not Verdict.DomainMismatch:
            assert r.verdict is Verdict.Equality


def test_matrix_strict_rows_clear_the_equality_band(matrix_run):
    reports, _ = matrix_run
    strict = [r for r in reports if r.verdict is Verdict.StrictInequality]
    assert all(r.ratio - 1.0 > 1e-3 for r in strict)


def test_matrix_ordering_is_check_major(matrix_run):
    reports, _ = matrix_run
    assert [r.theorem for r in reports[:11]] == [TheoremId.T2_1] * 11
    assert [r.family.family for r in reports[:11]] == list(FAMILY_ORDER)


def test_run_matrix_accepts_subsets():
    models = [model_from_text("power:b=1,c=2"), model_from_text("uniform:b=1")]
    checks = [make_check(TheoremId.T2_1), make_check(TheoremId.T3_1)]
    reports = run_matrix(models, checks)
    assert [(r.theorem.value, r.family.family) for r in reports] == [
        ("T2_1", "power"), ("T2_1", "uniform"),
        ("T3_1", "power"), ("T3_1", "uniform")]


# ---------------------------------------------------------------------------
# the column table: every check on a model reads log_pdf and its log
# functionals once per abscissa

_LHS_CLOSURES = ("rhr", "eit", "rai", "log_rhr", "log_eit", "log_cdf")


def _counted(models, names):
    """The models re-packed with each closure in names counting its calls in calls[name]."""
    calls = dict.fromkeys(names, 0)

    def counter(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    return [dataclasses.replace(m, **{n: counter(n, getattr(m, n)) for n in names
                                      if getattr(m, n) is not None})
            for m in models], calls


def _rows(model):
    return len(model._columns)  # abscissae with a row


def test_matrix_reads_log_pdf_once_per_abscissa():
    # 66,980 log_pdf calls when each integrand called it at each node; now one
    # per abscissa of each model, the right-hand sides' moments included
    models, calls = _counted(default_models(), ("log_pdf",))
    run_matrix(models)
    assert calls["log_pdf"] == sum(_rows(m) for m in models)


@dataclasses.dataclass(frozen=True)
class _WrappedCheck(CheckSpec):
    """A check re-packed as a tracer re-packs one: a CheckSpec subclass with a
    field of its own, offering weight callables that it would wrap."""

    asked: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    def lhs_weights(self, model):
        self.asked.append(model)
        return ()


def test_wrapped_weights_take_the_same_path_to_the_same_records():
    fields = dataclasses.fields(CheckSpec)
    wrapped = [_WrappedCheck(**{f.name: getattr(c, f.name) for f in fields})
               for c in theorem_catalog()]
    records = report_records(run_matrix(default_models(), wrapped))
    assert records == report_records(run_matrix(default_models()))
    assert sum(len(r["err_estimates"]) for r in records) == 320  # integrals run
    # a check's weights are data: no path asks for callables that a tracer wraps
    assert [c.asked for c in wrapped] == [[]] * len(wrapped)
    # and they read the column table: a second matrix calls no closure
    models, calls = _counted(default_models(), ("log_pdf",) + _LHS_CLOSURES)
    first = report_records(run_matrix(models, wrapped))
    before = dict(calls)
    assert before["log_pdf"] > 0 and before["rhr"] > 0 and before["rai"] > 0
    assert report_records(run_matrix(models, wrapped)) == first
    assert calls == before


def test_a_second_matrix_on_the_same_models_reads_only_its_tables():
    models, calls = _counted(default_models(), ("log_pdf",) + _LHS_CLOSURES)
    first = report_records(run_matrix(models))
    rows = sum(_rows(m) for m in models)
    before = dict(calls)
    second = report_records(run_matrix(models))
    assert second == first
    assert sum(_rows(m) for m in models) == rows
    # the left-hand sides and the right-hand sides' moments: every read is a table hit
    assert calls == before


def test_replace_starts_an_empty_column_table():
    model = model_from_text("power:b=1,c=2")
    run_check(make_check(TheoremId.T2_1), model)
    assert _rows(model) > 0
    assert _rows(dataclasses.replace(model)) == 0


def _moment_integrations(monkeypatch):
    """The evaluations of each moment functionals.raw_moment integrates from now on."""
    integrated = []

    def counted(spec, tol=None):
        res = quadrature.expectation(spec, tol)
        integrated.append(res.evaluations)
        return res

    monkeypatch.setattr(functionals, "expectation", counted)
    return integrated


def test_each_raw_moment_integrates_once_per_model(monkeypatch):
    # 40 integrations (8,600 evaluations) when each check integrated its own
    # moments, for 20 distinct (model, order) pairs
    integrated = _moment_integrations(monkeypatch)
    models = default_models()
    first = report_records(run_matrix(models))
    assert (len(integrated), sum(integrated)) == (20, 4308)
    del integrated[:]
    assert report_records(run_matrix(models)) == first
    assert integrated == []


def test_replace_starts_an_empty_moment_cache():
    model = model_from_text("truncevpower:alpha=1.5,b=0")
    run_check(make_check(TheoremId.T2_7), model)
    assert sorted(model._columns.moments) == [1, 2]
    assert dataclasses.replace(model)._columns.moments == {}


def test_a_moment_that_does_not_converge_is_integrated_once(monkeypatch):
    # mu_2 diverges on this Pareto-tailed law, and T2_7, T2_8 at k = 1 and T2_9
    # each need it first; without the closed form it is integrated
    text = "linearmit:xi=2,alpha=0,beta=-1,b=-2"
    model = dataclasses.replace(model_from_text(text), moments=None)
    integrated = _moment_integrations(monkeypatch)
    checks = (make_check(TheoremId.T2_7), make_check(TheoremId.T2_8, k=1),
              make_check(TheoremId.T2_9))
    reports = [run_check(c, model) for c in checks]
    assert len(integrated) == 1
    assert model._columns.moments[2].status is QuadStatus.Divergent
    for r in reports:
        assert r.verdict is Verdict.Divergent
        assert r.note == f"moment of order 2 did not converge for {text}"


@pytest.mark.parametrize("exc,statuses,verdict", (
    # inf on the half line: each component ends Divergent at its first node
    (ZeroDivisionError, ("Divergent", "Divergent"), Verdict.Divergent),
    # NaN: the root pass gives up, and its split steps around the node
    (ValueError, ("Converged", "Converged"), Verdict.Equality),
))
def test_a_raising_column_is_computed_again_at_each_read(exc, statuses, verdict):
    base = model_from_text("type3ev:gamma=2,b=0")
    raised = []

    def log_rhr(x):
        if x == -1.0:  # the first node on the half line below b = 0
            raised.append(x)
            raise exc("at x = -1")
        return base.log_rhr(x)

    model = dataclasses.replace(base, log_rhr=log_rhr)
    check = make_check(TheoremId.T2_1)
    first = run_check(check, model)
    assert len(raised) == 2  # once for each component: no row was kept
    second = run_check(check, model)
    assert len(raised) == 4
    assert tuple(c.status.value for c in first.components) == statuses
    assert first.verdict is verdict
    assert report_records([second]) == report_records([first])
    if exc is ZeroDivisionError:
        assert [c.evaluations for c in first.components] == [1, 1]


# ---------------------------------------------------------------------------
# equality bookkeeping

def test_expected_equality_pair_rules():
    t2_1 = make_check(TheoremId.T2_1)
    assert expected_equality_pair(t2_1, model_from_text("type3ev:gamma=2,b=0"))
    assert expected_equality_pair(t2_1, model_from_text("linearmit:xi=0.8,alpha=1,beta=0,b=0"))
    assert not expected_equality_pair(t2_1, model_from_text("power:b=1,c=2"))
    t3_4 = make_check(TheoremId.T3_4)
    assert expected_equality_pair(t3_4, model_from_text("uniform:b=1"))
    assert expected_equality_pair(t3_4, model_from_text("linearmit:xi=1,alpha=0,beta=-0.5,b=-1"))


def test_claimed_equality_extends_expected_for_suspects():
    t3_6 = make_check(TheoremId.T3_6)
    m = model_from_text("explinkedeit:theta=1,b=0")
    assert not expected_equality_pair(t3_6, m)
    assert claimed_equality_pair(t3_6, m)
    t3_7 = make_check(TheoremId.T3_7)
    m7 = model_from_text("basealinkedeit:gamma=1,delta=1,a_base=2,b=0")
    assert claimed_equality_pair(t3_7, m7)
    assert not claimed_equality_pair(t3_7, model_from_text("power:b=1,c=2"))


def test_t3_7_ratio_falls_toward_one_as_the_law_concentrates_at_b():
    # the suspect claim holds only in the degenerate limit: as gamma grows the
    # law concentrates at b, w*eit flattens and the ratio falls to 1 from above
    check = make_check(TheoremId.T3_7)
    ratios = [run_check(check, model_from_text(
        f"basealinkedeit:gamma={gamma},delta=0.5,a_base=2,b=0")).ratio
        for gamma in (2.0, 64.0, 256.0)]
    assert ratios == pytest.approx([1.0954441, 1.0001149, 1.0000073], abs=5e-8)
    assert ratios[0] > ratios[1] > ratios[2] >= 1.0


def _windowed_reciprocal_factor(model, weight, eps):
    """E[1/(w(X)*eit(X))] over the window [quantile(eps), b) only."""
    def integrand(x):
        d = model.pdf(x)
        return 0.0 if d == 0.0 else d / (weight(x) * eit(model, x))

    res = integrate_finite(integrand, quantile_at(model, eps), model.support.upper,
                           Tolerances(rel_tol=1e-8))
    assert res.status is QuadStatus.Converged
    return res.value


@pytest.mark.parametrize("theorem,text,kwargs,weight,growth", (
    # const/x**2 near 0 and quantile(eps) ~ eps: x10 per decade
    (TheoremId.T3_2, "finiterange:theta=0.5,b=1,k=1", {}, lambda x: x,
     lambda prev, cur: cur / prev == pytest.approx(10.0, rel=0.02)),
    # the same core with quantile(eps) ~ sqrt(eps): x sqrt(10) per decade
    (TheoremId.T3_3, "finiterange:theta=0.5,b=1,k=2", {"k": 2}, lambda x: x * x,
     lambda prev, cur: cur / prev == pytest.approx(math.sqrt(10.0), rel=0.01)),
    # the integrand tends to 1/e on the left tail and quantile(eps) ~ ln(eps):
    # + ln(10)/e = 0.847 per decade
    (TheoremId.T3_6, "explinkedeit:theta=1,b=0", {}, math.exp,
     lambda prev, cur: cur - prev == pytest.approx(math.log(10.0) / math.e, abs=0.015)),
), ids=("T3_2", "T3_3", "T3_6"))
def test_suspect_factor_grows_without_bound_as_its_window_opens(theorem, text, kwargs,
                                                                weight, growth):
    # each window converges, and widening it by a decade of eps adds mass at
    # the law's rate: the full factor diverges on the family the claim names
    model = model_from_text(text)
    windows = [_windowed_reciprocal_factor(model, weight, 10.0 ** -k) for k in range(2, 7)]
    for prev, cur in zip(windows, windows[1:]):
        assert growth(prev, cur)
    assert run_check(make_check(theorem, **kwargs), model).verdict is Verdict.Divergent


@pytest.mark.parametrize("theta,b", ((1.0, 0.0), (0.25, 2.0), (4.0, -3.0)))
def test_explinkedeit_eit_misses_the_claimed_reciprocal_by_one_minus_exp(theta, b):
    # T3_6's equality needs e**x*eit constant on explinkedeit. But its eit is
    # (1 - e**-w)/w with w = theta*e**x, so e**x*eit = (1 - e**-w)/theta is
    # not: the closed form and the integral of the cdf both say so
    model = model_from_text(f"explinkedeit:theta={theta},b={b}")
    for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
        x = quantile_at(model, p)
        w = theta * math.exp(x)
        assert w * eit(model, x) == pytest.approx(-math.expm1(-w), rel=1e-13)
        assert w * numeric_eit(model, x) == pytest.approx(-math.expm1(-w), rel=1e-9)


def test_equality_family_constructions():
    m = equality_family(TheoremId.T2_4, k=3, theta=2.0)
    assert m.spec.family == "invweibull"
    assert m.spec.params["nu"] == pytest.approx(1.0)
    assert m.spec.params["delta"] == pytest.approx(2.0)
    m = equality_family(TheoremId.T2_6, base=3.0)
    assert m.spec.params["a_base"] == 3.0
    m = equality_family(TheoremId.T2_10, k=5)
    assert m.spec.params["k"] == 5.0
    for theorem, kwargs in (
        (TheoremId.T2_1, {"nonsense": 1.0}),
        (TheoremId.T2_4, {"k": 2.7}),      # no longer truncated to k=2
        (TheoremId.T2_9, {"k": 3}),        # k is fixed to 1 for T2_9
        (TheoremId.T3_2, {"k": 2}),        # and for T3_2
        (TheoremId.T2_8, {"k": 3}),        # the constant-rate family takes no k
    ):
        with pytest.raises(ParameterError):
            equality_family(theorem, **kwargs)


def test_every_nonsuspect_equality_family_achieves_equality():
    for check in theorem_catalog():
        if check.suspect:
            continue
        model = equality_family(check.id)
        r = run_check(check, model)
        assert r.verdict is Verdict.Equality, (check.id, r.verdict, r.ratio)
        assert abs(r.ratio - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# tolerance robustness

def test_verdicts_stable_under_tighter_tolerances():
    tight = Tolerances(rel_tol=1e-11)
    for theorem, text in (
        (TheoremId.T2_1, "power:b=1,c=2"),
        (TheoremId.T3_1, "truncevpower:alpha=1.5,b=0"),
        (TheoremId.T4_1, "basealinkedrhr:theta=1,a_base=2,b=0"),
        (TheoremId.T4_3, "finiterange:theta=0.5,b=1,k=1"),
    ):
        check = make_check(theorem)
        model = model_from_text(text)
        loose = run_check(check, model)
        hard = run_check(check, model, tol=tight)
        assert loose.verdict is hard.verdict
        assert loose.ratio == pytest.approx(hard.ratio, rel=1e-6)


# ---------------------------------------------------------------------------
# serialization

def test_report_records_schema():
    reports = run_matrix([model_from_text("power:b=1,c=2")],
                         [make_check(TheoremId.T2_1)])
    (rec,) = report_records(reports)
    assert set(rec) == {"theorem", "family", "params", "lhs", "rhs", "ratio",
                        "gap", "verdict", "err_estimates", "suspect",
                        "expected_equality", "claimed_equality", "note"}
    assert rec["theorem"] == "T2_1"
    assert rec["family"] == "power"
    assert rec["params"] == "b=1,c=2"
    assert rec["verdict"] == "StrictInequality"


def test_json_serialization_is_deterministic_and_parseable():
    models = [model_from_text("power:b=1,c=2"), model_from_text("uniform:b=1")]
    checks = [make_check(TheoremId.T2_1)]
    a = reports_to_json(run_matrix(models, checks))
    b = reports_to_json(run_matrix(models, checks))
    assert a == b
    rows = json.loads(a)
    assert len(rows) == 2
    assert rows[1]["verdict"] == "Divergent"
    assert rows[1]["lhs"] is None   # non-finite values serialize as null


def test_csv_serialization_quotes_params():
    reports = run_matrix([model_from_text("power:b=1,c=2")],
                         [make_check(TheoremId.T2_1)])
    text = reports_to_csv(reports)
    header, row = text.strip().splitlines()
    assert header.startswith("theorem,family,params,")
    assert '"b=1,c=2"' in row


def test_constant_rate_model_gives_one_report_under_both_spellings():
    # type3ev's b is a location, finite like linearmit's; b < 0 builds under both
    checks = theorem_catalog()
    assert len(checks) == 20
    type3ev = model_from_text("type3ev:gamma=1,b=-1")
    linearmit = model_from_text("linearmit:xi=1,alpha=1,beta=0,b=-1")
    for a, b in zip(report_records([run_check(c, type3ev) for c in checks]),
                    report_records([run_check(c, linearmit) for c in checks])):
        assert (a.pop("family"), b.pop("family")) == ("type3ev", "linearmit")
        del a["params"], b["params"]
        assert a == b


@pytest.mark.parametrize("exp_text, base_text", [
    ("truncevpower:alpha=1.7,b=0.3", f"basealinkedrhr:theta=1.7,a_base={math.e!r},b=0.3"),
    ("explinkedeit:theta=1.7,b=0.3",
     f"basealinkedeit:gamma=1,delta=1.7,a_base={math.e!r},b=0.3"),
    # the power law is linearmit at alpha = 0, beta = 1; these xi give q = c exactly
    ("power:b=1.5,c=3", "linearmit:xi=0.25,alpha=0,beta=1,b=1.5"),
    ("uniform:b=1", "linearmit:xi=0.5,alpha=0,beta=1,b=1"),
])
def test_exp_family_gives_one_report_under_its_base_e_spelling(exp_text, base_text):
    # the exp(x)-weighted families are the base-a families at a = e; the
    # equality rules of T2_5/T2_6 and T3_6/T3_7 know both spellings, and
    # those of T2_2 and T3_4 know the power law's two
    checks = theorem_catalog() + (make_check(TheoremId.T2_6, base=math.e),
                                  make_check(TheoremId.T3_7, base=math.e))
    exp_model, base_model = model_from_text(exp_text), model_from_text(base_text)
    exp_records = report_records([run_check(c, exp_model) for c in checks])
    base_records = report_records([run_check(c, base_model) for c in checks])
    for a, b in zip(exp_records, base_records):
        assert (a.pop("family"), b.pop("family")) == (exp_model.spec.family,
                                                      base_model.spec.family)
        del a["params"], b["params"]
        assert a == b
    # both spellings are the equality family of the exp(x) check and of the
    # base-a check at base e
    by_id = {r["theorem"]: r for r in exp_records[:20]}
    t2_6_at_e, t3_7_at_e = exp_records[20:]
    if base_model.spec.family == "linearmit":
        for r in (by_id["T2_2"], by_id["T3_4"]):
            assert r["expected_equality"] and r["verdict"] == "Equality"
    elif exp_model.spec.family == "truncevpower":
        for r in (by_id["T2_5"], t2_6_at_e):
            assert r["expected_equality"] and r["verdict"] == "Equality"
    else:
        for r in (by_id["T3_6"], t3_7_at_e):  # suspect: claimed, never asserted
            assert r["claimed_equality"] and not r["expected_equality"]
