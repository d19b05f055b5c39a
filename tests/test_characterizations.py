"""Check-engine tests: catalog shape, frozen verdicts, the full matrix.

The 20 x 11 verdict grid below was computed once, derived independently
cell by cell (each Equality and DomainMismatch follows from the closed
forms; each Divergent from an endpoint expansion of the weighted
integrand), and then frozen. Any engine change that flips a cell fails
loudly here.
"""

import json
import math

import pytest
import scipy.special as sc

from revrel.characterizations import (
    CheckReport,
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
from revrel.distributions import model_from_text
from revrel.errors import ParameterError
from revrel.quadrature import Tolerances

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
    "T4_3":  "EQ ST DM ST ST ST ST DV ST ST ST",
    "T4_4":  "EQ ST DM ST ST ST ST DV ST ST ST",
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


def test_run_check_rejects_nonpositive_eq_tol():
    with pytest.raises(ParameterError):
        run_check(make_check(TheoremId.T2_1), model_from_text("power:b=1,c=2"),
                  eq_tol=0.0)


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


def test_matrix_verdict_counts(matrix_run):
    reports, _ = matrix_run
    counts = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    assert counts[Verdict.Equality] == 16
    assert counts[Verdict.StrictInequality] == 95
    assert counts[Verdict.Divergent] == 69
    assert counts[Verdict.DomainMismatch] == 40
    assert counts.get(Verdict.Violation, 0) == 0


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
    tight = Tolerances(rel_tol=1e-11, abs_tol=1e-14)
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
