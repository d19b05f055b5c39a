"""Inequality checks linking weighted means of the reversed-time functionals.

Twenty checks, each a verifiable statement about a right-truncated model.
They come in three shapes:

* reciprocal products  E[1/(w(X)*g(X))] * E[w(X)*g(X)] >= 1, where g is
  the reversed hazard rate or the inactivity mean and w is an x-weight
  (1, x, x^k, exp(x), a^x, or 1/(alpha+beta*x));
* moment bounds        E[w(X)*rhr(X)] >= closed expression in the raw
  moments and the upper endpoint b;
* mixed-ratio products E[w(X)*g1(X)/g2(X)] * E[w(X)*g2(X)/g1(X)] >= rhs,
  pairing the rate with the inactivity mean or the reversed intensity.

Everything particular to one check lives in its row of ``_ROWS``, so
adding a check means adding one row.

Classification is ratio-based: a converged check reports ratio = lhs/rhs
and the verdict compares the ratio against 1.  On negative supports both
sides of a moment bound can be negative and the literal lhs >= rhs
ordering inverts, while the underlying mean-product inequality keeps the
single orientation ratio >= 1; the ratio form is therefore what gets
classified and what the direction invariant quantifies over.

Each check also knows its claimed equality family, and its equality rule
reads a model's parent family (``distributions.parent_family``), so no rule
spells out an alias such as uniform or truncevpower.  Four of the twenty
(T3_2, T3_3, T3_6, T3_7) carry a ``suspect`` flag: equality in their
reciprocal product needs w*eit to be constant, and no stated family has
that.  On X >= 0 (T3_2, T3_3) it means eit = c/x**k, unbounded at 0+, while
eit(t) <= t.  explinkedeit's eit is (1 - e**-u)/u with u = theta*e**x, so
e**x*eit = (1 - e**-u)/theta (T3_6), and T3_7's family misses the same way
at base a.  For the first three the product integrals diverge on that very
family.  Suspect checks still run and report measured behavior, but no
equality is ever asserted for them.

The ``Violation`` verdict (converged ratio below 1 beyond tolerance)
keeps the impossible case visible.  A weight with a pole inside the
support (T2_9, T2_10, T3_4, T3_5) is a DomainMismatch, but the positive odd
powers of T2_7, T4_2 and T4_4 change sign on supports that contain 0
unguarded: on ``truncevpower:alpha=1.708,b=0.513`` they give ratios -4.24,
-21.96 and -0.46 (see the domain-guard item in ROADMAP.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .distributions import (
    DistributionModel,
    FamilySpec,
    format_family,
    make_distribution,
    model_from_text,
    parent_family,
)
from .errors import DivergentMoment, DomainError, ParameterError
from .functionals import raw_moment
from .quadrature import (
    DEFAULT_TOL,
    ExpectationSpec,
    QuadResult,
    QuadStatus,
    Tolerances,
    expectation,
)

__all__ = [
    "CheckReport",
    "CheckSpec",
    "SupportRequirement",
    "TheoremId",
    "Verdict",
    "claimed_equality_pair",
    "default_models",
    "equality_family",
    "expected_equality_pair",
    "make_check",
    "records_to_csv",
    "report_records",
    "reports_to_csv",
    "reports_to_json",
    "run_check",
    "run_matrix",
    "theorem_catalog",
]


class TheoremId(Enum):
    T2_1 = "T2_1"
    T2_2 = "T2_2"
    T2_4 = "T2_4"
    T2_5 = "T2_5"
    T2_6 = "T2_6"
    T2_7 = "T2_7"
    T2_8 = "T2_8"
    T2_9 = "T2_9"
    T2_10 = "T2_10"
    T3_1 = "T3_1"
    T3_2 = "T3_2"
    T3_3 = "T3_3"
    T3_4 = "T3_4"
    T3_5 = "T3_5"
    T3_6 = "T3_6"
    T3_7 = "T3_7"
    T4_1 = "T4_1"
    T4_2 = "T4_2"
    T4_3 = "T4_3"
    T4_4 = "T4_4"


class SupportRequirement(Enum):
    Any = "Any"
    Nonnegative = "Nonnegative"
    FiniteB = "FiniteB"


class Verdict(Enum):
    Equality = "Equality"
    StrictInequality = "StrictInequality"
    Divergent = "Divergent"
    DomainMismatch = "DomainMismatch"
    Violation = "Violation"


# check shape: reciprocal product vs single moment bound vs mixed product
_KIND_PRODUCT = "product"
_KIND_MOMENT = "moment-bound"
_KIND_MIXED_ONE = "mixed-product-unit"
_KIND_MIXED_MUSQ = "mixed-product-moment-sq"

_EQUALITY_BAND = 1e-4  # Equality is |ratio - 1| within it (ROADMAP item 16: error bars)


@dataclass(frozen=True)
class CheckSpec:
    """One runnable inequality check with its parameters resolved."""

    id: TheoremId
    description: str
    kind: str
    support_requirement: SupportRequirement
    k: Optional[int] = None
    base: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    suspect: bool = False


@dataclass(frozen=True)
class CheckReport:
    theorem: TheoremId
    family: FamilySpec
    lhs: float
    rhs: float
    gap: float
    ratio: float
    verdict: Verdict
    components: Tuple[QuadResult, ...] = field(default_factory=tuple)
    suspect: bool = False
    expected_equality: bool = False
    claimed_equality: bool = False
    note: str = ""


# ------------------------------------------------------------- x-weights
#
# Factor integrands are assembled in log-magnitude space with an explicit
# sign.  Component-wise evaluation like 1/(x^2 * rhr(x)) dies long before
# the value does: x^2 underflows to 0 around 1e-154 and the reciprocal
# becomes inf at nodes where the true weight (1/(c*x) after cancellation)
# is perfectly representable, which the engine then misreads as an
# endpoint blow-up.  A factor is therefore a sum of logs that the engine
# adds to log_pdf and exponentiates once, so the integrand leaves float
# range only where the weighted density itself does.
# A check's x-weight is data (p, alpha, beta, s), p an integer and p or s 0:
# w(x) = (alpha+beta*x)^p * e^(s*x).  ``_components`` hands it to
# ``expectation`` with the log functionals each factor adds or subtracts.

_UNIT = lambda c: (0, 0.0, 1.0, 0.0)
_X = lambda c: (1, 0.0, 1.0, 0.0)
_X_TO_K = lambda c: (c.k, 0.0, 1.0, 0.0)
_X_TO_MINUS_K = lambda c: (-c.k, 0.0, 1.0, 0.0)
_EXP_X = lambda c: (0, 0.0, 1.0, 1.0)
_BASE_TO_X = lambda c: (0, 0.0, 1.0, math.log(c.base))


def _integer_k(minimum: int, odd: bool = False):
    def check(tid: TheoremId, k) -> Dict[str, object]:
        if not isinstance(k, int) or k < minimum or (odd and k % 2 == 0):
            what = "odd integer" if odd else "integer"
            raise ParameterError(f"{tid.value} needs {what} k >= {minimum}, got {k!r}")
        return {"k": k}
    return check


def _base_above_one(tid: TheoremId, base) -> Dict[str, object]:
    base = float(base)
    if not base > 1.0:
        raise ParameterError(f"{tid.value} needs base > 1, got {base!r}")
    return {"base": base}


def _linear_coefficients(tid: TheoremId, alpha, beta) -> Dict[str, object]:
    alpha, beta = float(alpha), float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterError(f"{tid.value} needs finite alpha and beta")
    if alpha == 0.0 and beta == 0.0:
        raise ParameterError(f"{tid.value} weight alpha+beta*x must not vanish identically")
    return {"alpha": alpha, "beta": beta}


def _constant_eit(c: CheckSpec, fam: str, p: Mapping[str, float]) -> bool:
    return fam == "linearmit" and p["beta"] == 0.0


def _reflweibull_k(c: CheckSpec, fam: str, p: Mapping[str, float]) -> bool:
    return fam == "reflweibull" and p["k"] == float(c.k)


def _linear_eit(c: CheckSpec, fam: str, p: Mapping[str, float]) -> bool:
    return fam == "linearmit" and p["alpha"] * c.beta == p["beta"] * c.alpha


# ----------------------------------------------------------- check table

@dataclass(frozen=True)
class _Row:
    """Everything particular to one check."""

    template: str  # formatted with the check's parameters and kp1 = k + 1
    kind: str
    support: SupportRequirement
    functional: str  # g of a product or moment bound, or rhr's partner in a mixed one
    weight: Callable  # check -> its x-weight data (p, alpha, beta, s), see above
    family: Tuple[str, Mapping[str, float]]  # equality family, free parameters, defaults
    equality: Callable  # (check, parent family, its params) -> equality, or a suspect's claim
    params: Mapping[str, object] = field(default_factory=dict)  # taken, with defaults
    validate: Callable = lambda tid: {}  # checks params, returns CheckSpec fields
    # family parameters set by the check; a family with them takes its parameters
    family_params: Optional[Callable[[CheckSpec, Dict], Dict]] = None
    suspect: bool = False


_PRODUCT, _MOMENT = _KIND_PRODUCT, _KIND_MOMENT
_ANY, _NONNEG, _FINITE_B = SupportRequirement
_TYPE3EV = ("type3ev", {"gamma": 1.0, "b": 0.0})
_POWER = ("power", {"b": 1.0, "c": 2.0})
_REFLWEIBULL = ("reflweibull", {"theta": 0.5})
_FINITERANGE = ("finiterange", {"theta": 0.5, "b": 1.0})
_K_ONE = lambda tid: {"k": 1}
_WITH_K = lambda c, v: {**v, "k": float(c.k)}
_WITH_BASE = lambda c, v: {**v, "a_base": c.base}

_ROWS: Dict[TheoremId, _Row] = {
    TheoremId.T2_1: _Row("E[1/rhr(X)] * E[rhr(X)] >= 1",
                         _PRODUCT, _ANY, "rhr", _UNIT, _TYPE3EV, _constant_eit),
    TheoremId.T2_2: _Row("E[1/(X*rhr(X))] * E[X*rhr(X)] >= 1, X >= 0",
                         _PRODUCT, _NONNEG, "rhr", _X, _POWER,
                         lambda c, fam, p: fam == "linearmit" and p["alpha"] == 0.0 < p["beta"]),
    TheoremId.T2_4: _Row(
        "E[1/(X^{k}*rhr(X))] * E[X^{k}*rhr(X)] >= 1, X >= 0",
        _PRODUCT, _NONNEG, "rhr", _X_TO_K, ("invweibull", {"theta": 1.0}),
        lambda c, fam, p: fam == "invweibull" and p["delta"] == float(c.k - 1),
        params={"k": 2}, validate=_integer_k(2),
        family_params=lambda c, v: {"nu": v["theta"] / (c.k - 1), "delta": float(c.k - 1)}),
    TheoremId.T2_5: _Row("E[1/(exp(X)*rhr(X))] * E[exp(X)*rhr(X)] >= 1",
                         _PRODUCT, _ANY, "rhr", _EXP_X, ("truncevpower", {"alpha": 1.5, "b": 0.0}),
                         lambda c, fam, p: fam == "basealinkedrhr" and p["a_base"] == math.e),
    TheoremId.T2_6: _Row(
        "E[1/({base:g}^X*rhr(X))] * E[{base:g}^X*rhr(X)] >= 1",
        _PRODUCT, _ANY, "rhr", _BASE_TO_X, ("basealinkedrhr", {"theta": 1.0, "b": 0.0}),
        lambda c, fam, p: fam == "basealinkedrhr" and p["a_base"] == c.base,
        params={"base": 2.0}, validate=_base_above_one, family_params=_WITH_BASE),
    TheoremId.T2_7: _Row("E[X*rhr(X)] >= 2*mu^2/(b^2 - mu_2)",
                         _MOMENT, _FINITE_B, "rhr", _X_TO_K, _TYPE3EV, _constant_eit,
                         validate=_K_ONE),
    TheoremId.T2_8: _Row("E[X^{k}*rhr(X)] >= {kp1}*mu_{k}^2/(b^{kp1} - mu_{kp1})",
                         _MOMENT, _FINITE_B, "rhr", _X_TO_K, _TYPE3EV, _constant_eit,
                         params={"k": 2}, validate=_integer_k(1)),
    TheoremId.T2_9: _Row("E[rhr(X)/X] >= 2/(b^2 - mu_2)",
                         _MOMENT, _FINITE_B, "rhr", _X_TO_MINUS_K, _REFLWEIBULL, _reflweibull_k,
                         validate=_K_ONE, family_params=_WITH_K),
    TheoremId.T2_10: _Row("E[rhr(X)/X^{k}] >= {kp1}/(b^{kp1} - mu_{kp1})",
                          _MOMENT, _FINITE_B, "rhr", _X_TO_MINUS_K, _REFLWEIBULL, _reflweibull_k,
                          params={"k": 3}, validate=_integer_k(1, odd=True),
                          family_params=_WITH_K),
    TheoremId.T3_1: _Row("E[1/eit(X)] * E[eit(X)] >= 1",
                         _PRODUCT, _ANY, "eit", _UNIT, _TYPE3EV, _constant_eit),
    TheoremId.T3_2: _Row("E[1/(X*eit(X))] * E[X*eit(X)] >= 1, X >= 0",
                         _PRODUCT, _NONNEG, "eit", _X, _FINITERANGE,
                         lambda c, fam, p: fam == "finiterange" and p["k"] == 1.0,
                         family_params=lambda c, v: {**v, "k": 1.0}, suspect=True),
    TheoremId.T3_3: _Row("E[1/(X^{k}*eit(X))] * E[X^{k}*eit(X)] >= 1, X >= 0",
                         _PRODUCT, _NONNEG, "eit", _X_TO_K, _FINITERANGE,
                         lambda c, fam, p: fam == "finiterange" and p["k"] == float(c.k),
                         params={"k": 2}, validate=_integer_k(1), family_params=_WITH_K,
                         suspect=True),
    TheoremId.T3_4: _Row(
        "E[eit(X)/X] * E[X/eit(X)] >= 1",
        _PRODUCT, _ANY, "eit", lambda c: (-1, 0.0, 1.0, 0.0), _POWER,
        lambda c, fam, p: fam == "linearmit" and p["alpha"] == 0.0),
    TheoremId.T3_5: _Row(
        "E[eit(X)/({alpha:g}+{beta:g}*X)] * E[({alpha:g}+{beta:g}*X)/eit(X)] >= 1",
        _PRODUCT, _ANY, "eit", lambda c: (-1, c.alpha, c.beta, 0.0),
        ("linearmit", {"xi": 0.8, "alpha": 1.0, "beta": 0.5, "b": 0.0}), _linear_eit,
        params={"alpha": 1.0, "beta": 0.5}, validate=_linear_coefficients),
    TheoremId.T3_6: _Row("E[1/(exp(X)*eit(X))] * E[exp(X)*eit(X)] >= 1",
                         _PRODUCT, _ANY, "eit", _EXP_X, ("explinkedeit", {"theta": 1.0, "b": 0.0}),
                         lambda c, fam, p: (fam == "basealinkedeit" and p["gamma"] == 1.0
                                            and p["a_base"] == math.e),
                         suspect=True),
    TheoremId.T3_7: _Row(
        "E[1/({base:g}^X*eit(X))] * E[{base:g}^X*eit(X)] >= 1",
        _PRODUCT, _ANY, "eit", _BASE_TO_X,
        ("basealinkedeit", {"gamma": 1.0, "delta": 1.0, "b": 0.0}),
        lambda c, fam, p: fam == "basealinkedeit" and p["a_base"] == c.base,
        params={"base": 2.0}, validate=_base_above_one, family_params=_WITH_BASE,
        suspect=True),
    TheoremId.T4_1: _Row("E[eit(X)/rhr(X)] * E[rhr(X)/eit(X)] >= 1",
                         _KIND_MIXED_ONE, _ANY, "eit", _UNIT, _TYPE3EV, _constant_eit),
    TheoremId.T4_2: _Row("E[X^{k}*eit(X)/rhr(X)] * E[X^{k}*rhr(X)/eit(X)] >= mu_{k}^2",
                         _KIND_MIXED_MUSQ, _ANY, "eit", _X_TO_K, _TYPE3EV, _constant_eit,
                         params={"k": 1}, validate=_integer_k(0)),
    TheoremId.T4_3: _Row("E[rai(X)/rhr(X)] * E[rhr(X)/rai(X)] >= 1",
                         _KIND_MIXED_ONE, _FINITE_B, "rai", _UNIT, _TYPE3EV, _constant_eit),
    TheoremId.T4_4: _Row("E[X^{k}*rai(X)/rhr(X)] * E[X^{k}*rhr(X)/rai(X)] >= mu_{k}^2",
                         _KIND_MIXED_MUSQ, _FINITE_B, "rai", _X_TO_K, _TYPE3EV, _constant_eit,
                         params={"k": 1}, validate=_integer_k(0)),
}


def _row(theorem: TheoremId) -> _Row:
    row = _ROWS.get(theorem)
    if row is None:
        raise ParameterError(f"unknown check id {theorem!r}")
    return row


# ------------------------------------------------------------ catalog

def make_check(theorem: TheoremId,
               k: Optional[int] = None,
               base: Optional[float] = None,
               alpha: Optional[float] = None,
               beta: Optional[float] = None) -> CheckSpec:
    """Build a CheckSpec for one check id, validating its parameters.

    k defaults: T2_4 -> 2, T2_8 -> 2, T2_10 -> 3, T3_3 -> 2, T4_2/T4_4 -> 1;
    T2_7 and T2_9 fix k = 1.  base defaults to 2 for T2_6/T3_7; (alpha,
    beta) to (1, 0.5) for T3_5.  A parameter the check does not take is
    a ParameterError.
    """
    row = _row(theorem)
    given = {name: value for name, value in
             (("k", k), ("base", base), ("alpha", alpha), ("beta", beta))
             if value is not None}
    extra = sorted(set(given) - set(row.params))
    if extra:
        raise ParameterError(f"{theorem.value} does not take {', '.join(extra)}")
    values = row.validate(theorem, **{**row.params, **given})
    description = row.template.format(**values, kp1=values.get("k", 0) + 1)
    return CheckSpec(theorem, description, row.kind, row.support,
                     suspect=row.suspect, **values)


def theorem_catalog() -> Tuple[CheckSpec, ...]:
    """All twenty checks at their default parameters."""
    return tuple(make_check(tid) for tid in TheoremId)


_DEFAULT_MODEL_TEXTS = (
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


def default_models() -> Tuple[DistributionModel, ...]:
    """The eleven-family fixture catalog at its default parameter settings."""
    return tuple(model_from_text(text) for text in _DEFAULT_MODEL_TEXTS)


# ----------------------------------------------------- equality families

def equality_family(theorem: TheoremId, **params: float) -> DistributionModel:
    """Construct the family a check's equality clause names.

    For the four suspect checks this returns the family as printed; the
    package never asserts that those models actually achieve equality.
    Accepted keyword parameters per check, all optional, k and base
    validated as make_check validates them; any other is a ParameterError:

    * T2_1/T2_7/T2_8/T3_1/T4_1..T4_4: gamma, b      (constant-rate family)
    * T2_2/T3_4: b, c                                (power family)
    * T2_4: k, theta -> shape nu=theta/(k-1), delta=k-1
    * T2_5: alpha, b;  T2_6: base, theta, b
    * T2_9: theta (k fixed to 1);  T2_10: k, theta (odd k)
    * T3_2: theta, b (k fixed to 1);  T3_3: k, theta, b  [suspect]
    * T3_5: xi, alpha, beta, b                       (linear-eit family)
    * T3_6: theta, b;  T3_7: base, gamma, delta, b   [suspect]
    """
    row = _row(theorem)
    p = dict(params)
    takes_check_params = row.family_params is not None
    check = make_check(theorem, **{name: p.pop(name) for name in row.params
                                   if takes_check_params and name in p})
    name, defaults = row.family
    values = {key: float(p.pop(key, default)) for key, default in defaults.items()}
    if p:
        raise ParameterError(
            f"unexpected parameters for {theorem.value} equality family: {sorted(p)}")
    if takes_check_params:
        values = row.family_params(check, values)
    return make_distribution(FamilySpec(name, values))


def expected_equality_pair(check: CheckSpec, model: DistributionModel) -> bool:
    """True when this model structurally achieves equality for the check.

    Decided by what the model's functional IS, not by measuring: the
    reciprocal-product checks collapse to equality exactly when the
    weighted functional w(x)*g(x) is constant, the mixed products when
    the two functionals are proportional, and the moment bounds for the
    constant-rate family (resp. the reflected-power-rate family for the
    reciprocal-x weights).  The rules read the model's parent family
    (``distributions.parent_family``), so an alias such as uniform is
    decided as the linearmit member it is.  Suspect checks always return
    False here.
    """
    return not _row(check.id).suspect and claimed_equality_pair(check, model)


def claimed_equality_pair(check: CheckSpec, model: DistributionModel) -> bool:
    """expected_equality_pair plus the suspect checks' printed claims."""
    return _row(check.id).equality(check, *parent_family(model.spec))


# --------------------------------------------------------- check runner

def _components(check: CheckSpec, model: DistributionModel) -> Tuple[ExpectationSpec, ...]:
    """The check's left-hand side as expectation data, g the row's functional.

    A moment bound is E[w*g]; a product E[1/(w*g)] and E[w*g]; a mixed
    product E[w*g/rhr] and E[w*rhr/g].  Each adds its logs in that order.
    """
    row = _row(check.id)
    p, a, bt, s = w = row.weight(check)
    g = row.functional
    if check.kind == _KIND_MOMENT:
        parts = ((w, ((g, 1.0),)),)
    elif check.kind == _KIND_PRODUCT:
        parts = (((-p, a, bt, -s), ((g, -1.0),)), (w, ((g, 1.0),)))
    else:
        parts = ((w, ((g, 1.0), ("rhr", -1.0))), (w, (("rhr", 1.0), (g, -1.0))))
    return tuple(ExpectationSpec(model, None, x_weight, columns) for x_weight, columns in parts)


def _rhs(check: CheckSpec, model: DistributionModel) -> float:
    """The right-hand side, finite and non-zero; a DomainError names the term that is not."""
    kind = check.kind
    if kind == _KIND_PRODUCT or kind == _KIND_MIXED_ONE:
        return 1.0
    k = check.k
    denom = f"b^{k + 1} - mu_{k + 1}"
    if kind == _KIND_MOMENT:
        d = _rhs_term(denom, lambda: model.support.upper ** (k + 1) - raw_moment(model, k + 1))
        if _row(check.id).weight(check)[0] < 0:  # E[rhr(X)/X^k]
            return _rhs_term(f"{k + 1}/({denom})", lambda: (k + 1) / d)
    mu_k = raw_moment(model, k)
    musq = _rhs_term(f"mu_{k}^2", lambda: mu_k * mu_k, f" (mu_{k} = {mu_k!r})")
    if kind == _KIND_MIXED_MUSQ:
        return musq
    # not (k + 1) * musq: the reported rhs keeps this rounding
    return _rhs_term(f"{k + 1}*mu_{k}^2/({denom})", lambda: (k + 1) * mu_k * mu_k / d)


def _rhs_term(name: str, compute: Callable[[], float], detail: str = "") -> float:
    """compute(), unless it overflows or is 0 or not finite: then a DomainError names it."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if value == 0.0 or not math.isfinite(value):
        raise DomainError(f"degenerate right-hand side: {name} = {value:g}{detail}")
    return value


def _support_mismatch(check: CheckSpec, model: DistributionModel) -> Optional[str]:
    lo, hi = model.support.lower, model.support.upper
    if check.support_requirement is SupportRequirement.Nonnegative and lo < 0.0:
        return "support extends below zero"
    if check.support_requirement is SupportRequirement.FiniteB and not math.isfinite(hi):
        return "support is unbounded above"
    return None


def _pole(check: CheckSpec, model: DistributionModel) -> Optional[str]:
    """A note when a negative power in the weight has its pole strictly inside the support."""
    p, a, bt, _ = _row(check.id).weight(check)
    if p < 0 and bt != 0.0 and model.support.lower < -a / bt < model.support.upper:
        base = "x" if check.alpha is None else "(alpha+beta*x)"
        power = "" if p == -1 else f"^{-p}"
        return f"weight 1/{base}{power} changes sign inside the support"
    return None


def run_check(check: CheckSpec, model: DistributionModel,
              tol: Optional[Tolerances] = None) -> CheckReport:
    """Evaluate one check against one model and classify the outcome.

    All failure modes are verdicts, never exceptions: a support the
    check does not cover, then a right-hand side term that is 0, overflows
    or is not finite, then a weight with a pole inside the support is
    DomainMismatch; any component integral or required moment that fails
    to converge is Divergent.
    """
    tol = tol or DEFAULT_TOL
    row = _row(check.id)
    claimed = claimed_equality_pair(check, model)
    expected = claimed and not row.suspect
    nan = math.nan

    def report(verdict: Verdict, lhs: float = nan, rhs: float = nan,
               gap: float = nan, ratio: float = nan,
               components: Tuple[QuadResult, ...] = (), note: str = "") -> CheckReport:
        return CheckReport(
            theorem=check.id, family=model.spec, lhs=lhs, rhs=rhs, gap=gap,
            ratio=ratio, verdict=verdict, components=components, suspect=check.suspect,
            expected_equality=expected, claimed_equality=claimed, note=note)

    mismatch = _support_mismatch(check, model)
    if mismatch is not None:
        return report(Verdict.DomainMismatch, note=mismatch)

    try:
        rhs = _rhs(check, model)
    except DomainError as exc:
        return report(Verdict.DomainMismatch, note=str(exc))
    except DivergentMoment as exc:
        return report(Verdict.Divergent, note=str(exc))
    pole = _pole(check, model)
    if pole is not None:
        return report(Verdict.DomainMismatch, note=pole)

    results = tuple(expectation(spec, tol) for spec in _components(check, model))
    bad = [r for r in results if r.status is not QuadStatus.Converged]
    if bad:
        note = "; ".join(f"component {i} {r.status.value}"
                         for i, r in enumerate(results)
                         if r.status is not QuadStatus.Converged)
        return report(Verdict.Divergent, rhs=rhs, components=results, note=note)

    lhs = 1.0
    for r in results:
        lhs *= r.value
    gap = lhs - rhs
    ratio = lhs / rhs
    if abs(ratio - 1.0) <= _EQUALITY_BAND:
        verdict = Verdict.Equality
    elif ratio > 1.0:
        verdict = Verdict.StrictInequality
    else:
        verdict = Verdict.Violation
    return report(verdict, lhs=lhs, rhs=rhs, gap=gap, ratio=ratio,
                  components=results)


def run_matrix(models: Optional[Sequence[DistributionModel]] = None,
               checks: Optional[Sequence[CheckSpec]] = None,
               tol: Optional[Tolerances] = None) -> Tuple[CheckReport, ...]:
    """Cross-product of checks x models, check-major then model-minor."""
    if models is None:
        models = default_models()
    if checks is None:
        checks = theorem_catalog()
    return tuple(run_check(c, m, tol) for c in checks for m in models)


# --------------------------------------------------------- serialization

def _num(v: float) -> Optional[float]:
    return float(v) if isinstance(v, (int, float)) and math.isfinite(v) else None


def report_records(reports: Sequence[CheckReport]) -> List[Dict[str, object]]:
    """Stable-schema records, one per report, ready for JSON or CSV."""
    records: List[Dict[str, object]] = []
    for r in reports:
        text = format_family(r.family)
        family, _, params = text.partition(":")
        records.append({
            "theorem": r.theorem.value,
            "family": family,
            "params": params,
            "lhs": _num(r.lhs),
            "rhs": _num(r.rhs),
            "ratio": _num(r.ratio),
            "gap": _num(r.gap),
            "verdict": r.verdict.value,
            "err_estimates": [_num(c.err_estimate) for c in r.components],
            "suspect": r.suspect,
            "expected_equality": r.expected_equality,
            "claimed_equality": r.claimed_equality,
            "note": r.note,
        })
    return records


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return json.dumps(report_records(reports), indent=2)


def records_to_csv(records: Sequence[Mapping[str, object]]) -> str:
    """CSV with the record keys as header: floats by repr, None empty, lists
    joined by ';', booleans true/false, cells holding ',' or '"' quoted."""
    def cell(v: object) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, list):
            return ";".join(cell(e) for e in v)
        text = str(v)
        return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text

    lines = [",".join(records[0])] if records else []
    lines.extend(",".join(cell(v) for v in rec.values()) for rec in records)
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: Sequence[CheckReport]) -> str:
    return records_to_csv(report_records(reports))
