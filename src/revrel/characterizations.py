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

Each check also knows its claimed equality family.  Four of the twenty
(T3_2, T3_3, T3_6, T3_7) carry a ``suspect`` flag: recomputing the
inactivity mean from their stated equality cdf does not reproduce the
proportionality the equality argument needs, and for three of them the
product integrals demonstrably diverge on that very family.  Suspect
checks still run and report measured behavior, but no equality is ever
asserted for them.

The ``Violation`` verdict (converged ratio below 1 beyond tolerance)
keeps the impossible case visible.  It is reachable: the odd-power
x-weights of T2_7, T4_2 and T4_4 change sign on supports that contain 0,
and only T3_4 and T3_5 guard against that.  On
``truncevpower:alpha=1.708,b=0.513`` they give ratios -4.24, -21.96 and
-0.46 (ROADMAP item 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .distributions import (
    DistributionModel,
    FamilySpec,
    format_family,
    make_distribution,
    model_from_text,
    raw_moment,
)
from .errors import DivergentMoment, ParameterError
from .functionals import numeric_eit, numeric_rhr, rai
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

_EQ_TOL_DEFAULT = 1e-4


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

    def lhs_weights(self, model: DistributionModel) -> Tuple[Callable[[float], float], ...]:
        return _factors(self, model)


@dataclass(frozen=True)
class CheckReport:
    theorem: TheoremId
    family: FamilySpec
    lhs: float
    rhs: float
    gap: float
    ratio: float
    verdict: Verdict
    eq_tol: float
    tol: Tolerances
    components: Tuple[QuadResult, ...] = field(default_factory=tuple)
    suspect: bool = False
    expected_equality: bool = False
    claimed_equality: bool = False
    note: str = ""


_NUMERIC = {"rhr": numeric_rhr, "eit": numeric_eit, "rai": rai}


def _functional(model: DistributionModel, name: str) -> Callable[[float], float]:
    """The model's closed form of rhr, eit or rai, else the numeric definition."""
    closed = getattr(model, name)
    return closed if closed is not None else partial(_NUMERIC[name], model)


# ------------------------------------------------------------- x-weights
#
# Factor integrands are assembled in log-magnitude space with an explicit
# sign.  Component-wise evaluation like 1/(x^2 * rhr(x)) dies long before
# the value does: x^2 underflows to 0 around 1e-154 and the reciprocal
# becomes inf at nodes where the true weight (1/(c*x) after cancellation)
# is perfectly representable, which the engine then misreads as an
# endpoint blow-up.  Summing logs and exponentiating once degrades to
# 0.0 or inf only when the weight value itself leaves float range.
# An x-weight shape maps a check to (log|w|, sign of w).

_plus = lambda x: 1.0
_sign_x = lambda x: 1.0 if x > 0.0 else -1.0


def _power(p: int):
    # exact for p = 1 and p = -1: 1*y and -1*y are y and -y
    return (lambda x: p * math.log(abs(x))), (_plus if p % 2 == 0 else _sign_x)


def _reciprocal_linear(c: CheckSpec):
    a, bt = c.alpha, c.beta
    return (lambda x: -math.log(abs(a + bt * x))), \
           (lambda x: 1.0 if a + bt * x > 0.0 else -1.0)


_UNIT = lambda c: ((lambda x: 0.0), _plus)
_X = lambda c: _power(1)
_X_TO_K = lambda c: _power(c.k)
_X_TO_MINUS_K = lambda c: _power(-c.k)
_EXP_X = lambda c: ((lambda x: x), _plus)
_BASE_TO_X = lambda c: ((lambda x, lb=math.log(c.base): x * lb), _plus)


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


def _reciprocal_linear_guard(c: CheckSpec, lo: float, hi: float) -> Optional[str]:
    if c.beta != 0.0 and lo < -c.alpha / c.beta < hi:
        return "weight 1/(alpha+beta*x) changes sign inside the support"
    return None


def _constant_eit(c: CheckSpec, fam: str, p: Mapping[str, float]) -> bool:
    return fam == "type3ev" or (fam == "linearmit" and p["beta"] == 0.0)


def _reflweibull_k(c: CheckSpec, fam: str, p: Mapping[str, float]) -> bool:
    return fam == "reflweibull" and p["k"] == float(c.k)


def _linear_eit(c: CheckSpec, fam: str, p: Mapping[str, float]) -> bool:
    if fam == "linearmit":
        return p["alpha"] * c.beta == p["beta"] * c.alpha
    return (fam == "type3ev" and c.beta == 0.0) or (fam in ("power", "uniform") and c.alpha == 0.0)


# ----------------------------------------------------------- check table

@dataclass(frozen=True)
class _Row:
    """Everything particular to one check."""

    template: str  # formatted with the check's parameters and kp1 = k + 1
    kind: str
    support: SupportRequirement
    functional: str  # g of a product or moment bound, or rhr's partner in a mixed one
    weight: Callable  # x-weight shape: check -> (log|w|, sign of w)
    family: Tuple[str, Mapping[str, float]]  # equality family, free parameters, defaults
    equality: Callable  # (check, family, its params) -> equality, or a suspect's claim
    params: Mapping[str, object] = field(default_factory=dict)  # taken, with defaults
    validate: Callable = lambda tid: {}  # checks params, returns CheckSpec fields
    # family parameters set by the check; a family with them takes its parameters
    family_params: Optional[Callable[[CheckSpec, Dict], Dict]] = None
    sign_guard: Optional[Callable[[CheckSpec, float, float], Optional[str]]] = None
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
                         lambda c, fam, p: fam in ("power", "uniform")),
    TheoremId.T2_4: _Row(
        "E[1/(X^{k}*rhr(X))] * E[X^{k}*rhr(X)] >= 1, X >= 0",
        _PRODUCT, _NONNEG, "rhr", _X_TO_K, ("invweibull", {"theta": 1.0}),
        lambda c, fam, p: fam == "invweibull" and p["delta"] == float(c.k - 1),
        params={"k": 2}, validate=_integer_k(2),
        family_params=lambda c, v: {"nu": v["theta"] / (c.k - 1), "delta": float(c.k - 1)}),
    TheoremId.T2_5: _Row("E[1/(exp(X)*rhr(X))] * E[exp(X)*rhr(X)] >= 1",
                         _PRODUCT, _ANY, "rhr", _EXP_X, ("truncevpower", {"alpha": 1.5, "b": 0.0}),
                         lambda c, fam, p: fam == "truncevpower"),
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
        _PRODUCT, _ANY, "eit", lambda c: _power(-1), _POWER,
        lambda c, fam, p: fam in ("power", "uniform") or (fam == "linearmit" and p["alpha"] == 0.0),
        sign_guard=lambda c, lo, hi: "weight 1/x changes sign inside the support"
        if lo < 0.0 < hi else None),
    TheoremId.T3_5: _Row(
        "E[eit(X)/({alpha:g}+{beta:g}*X)] * E[({alpha:g}+{beta:g}*X)/eit(X)] >= 1",
        _PRODUCT, _ANY, "eit", _reciprocal_linear,
        ("linearmit", {"xi": 0.8, "alpha": 1.0, "beta": 0.5, "b": 0.0}), _linear_eit,
        params={"alpha": 1.0, "beta": 0.5}, validate=_linear_coefficients,
        sign_guard=_reciprocal_linear_guard),
    TheoremId.T3_6: _Row("E[1/(exp(X)*eit(X))] * E[exp(X)*eit(X)] >= 1",
                         _PRODUCT, _ANY, "eit", _EXP_X, ("explinkedeit", {"theta": 1.0, "b": 0.0}),
                         lambda c, fam, p: fam == "explinkedeit", suspect=True),
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
    reciprocal-x weights).  Members of other families that happen to
    coincide (uniform = power with unit shape; linear-eit with zero
    slope = constant rate) are included.  Suspect checks always return
    False here.
    """
    row = _row(check.id)
    return not row.suspect and row.equality(check, model.spec.family, model.spec.params)


def claimed_equality_pair(check: CheckSpec, model: DistributionModel) -> bool:
    """expected_equality_pair plus the suspect checks' printed claims."""
    return _row(check.id).equality(check, model.spec.family, model.spec.params)


# --------------------------------------------------------- check runner

def _signed_exp(sign: float, mag: float) -> float:
    try:
        return sign * math.exp(mag)
    except OverflowError:
        return sign * math.inf


def _factors(check: CheckSpec, model: DistributionModel) -> Tuple[Callable[[float], float], ...]:
    row = _row(check.id)
    lw, sgn = row.weight(check)
    if check.kind == _KIND_PRODUCT:
        g = _functional(model, row.functional)

        def linked(x: float) -> float:
            return _signed_exp(sgn(x), lw(x) + math.log(g(x)))

        def reciprocal(x: float) -> float:
            return _signed_exp(sgn(x), -lw(x) - math.log(g(x)))

        return (reciprocal, linked)
    if check.kind == _KIND_MOMENT:
        phi = _functional(model, row.functional)
        return (lambda x: _signed_exp(sgn(x), lw(x) + math.log(phi(x))),)
    # mixed products
    phi = _functional(model, "rhr")
    other = _functional(model, row.functional)

    def over(x: float) -> float:
        return _signed_exp(sgn(x), lw(x) + math.log(other(x)) - math.log(phi(x)))

    def under(x: float) -> float:
        return _signed_exp(sgn(x), lw(x) + math.log(phi(x)) - math.log(other(x)))

    return (over, under)


def _rhs(check: CheckSpec, model: DistributionModel) -> float:
    kind = check.kind
    if kind == _KIND_PRODUCT or kind == _KIND_MIXED_ONE:
        return 1.0
    if kind == _KIND_MIXED_MUSQ:
        mu_k = raw_moment(model, check.k)
        return mu_k * mu_k
    # moment bounds; mu_k^2 appears over the x^k weights, not the x^-k ones
    k = check.k
    b = model.support.upper
    denom = b ** (k + 1) - raw_moment(model, k + 1)
    if denom == 0.0:
        raise DivergentMoment(
            f"degenerate moment denominator b^{k + 1} - mu_{k + 1} = 0")
    if _row(check.id).weight is _X_TO_K:
        mu_k = raw_moment(model, k)
        return (k + 1) * mu_k * mu_k / denom
    return (k + 1) / denom


def _support_mismatch(check: CheckSpec, model: DistributionModel) -> Optional[str]:
    lo, hi = model.support.lower, model.support.upper
    if check.support_requirement is SupportRequirement.Nonnegative and lo < 0.0:
        return "support extends below zero"
    if check.support_requirement is SupportRequirement.FiniteB and not math.isfinite(hi):
        return "support is unbounded above"
    # ratio weights must keep one sign on the interior
    guard = _row(check.id).sign_guard
    return None if guard is None else guard(check, lo, hi)


def run_check(check: CheckSpec, model: DistributionModel,
              tol: Optional[Tolerances] = None,
              eq_tol: float = _EQ_TOL_DEFAULT) -> CheckReport:
    """Evaluate one check against one model and classify the outcome.

    All failure modes are verdicts, never exceptions: a support the
    check does not cover is DomainMismatch, any component integral or
    required moment that fails to converge is Divergent.
    """
    if not eq_tol > 0.0:
        raise ParameterError(f"eq_tol must be positive, got {eq_tol!r}")
    tol = tol or DEFAULT_TOL
    expected = expected_equality_pair(check, model)
    claimed = claimed_equality_pair(check, model)
    nan = math.nan

    def report(verdict: Verdict, lhs: float = nan, rhs: float = nan,
               gap: float = nan, ratio: float = nan,
               components: Tuple[QuadResult, ...] = (), note: str = "") -> CheckReport:
        return CheckReport(
            theorem=check.id, family=model.spec, lhs=lhs, rhs=rhs, gap=gap,
            ratio=ratio, verdict=verdict, eq_tol=eq_tol, tol=tol,
            components=components, suspect=check.suspect,
            expected_equality=expected, claimed_equality=claimed, note=note)

    mismatch = _support_mismatch(check, model)
    if mismatch is not None:
        return report(Verdict.DomainMismatch, note=mismatch)

    try:
        rhs = _rhs(check, model)
    except DivergentMoment as exc:
        return report(Verdict.Divergent, note=str(exc))

    results = tuple(expectation(ExpectationSpec(model, w), tol)
                    for w in check.lhs_weights(model))
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
    if rhs != 0.0:
        ratio = lhs / rhs
    else:
        ratio = nan
    if math.isnan(ratio):
        verdict = Verdict.Violation if lhs < 0.0 else (
            Verdict.Equality if lhs == 0.0 else Verdict.StrictInequality)
    elif abs(ratio - 1.0) <= eq_tol:
        verdict = Verdict.Equality
    elif ratio > 1.0:
        verdict = Verdict.StrictInequality
    else:
        verdict = Verdict.Violation
    return report(verdict, lhs=lhs, rhs=rhs, gap=gap, ratio=ratio,
                  components=results)


def run_matrix(models: Optional[Sequence[DistributionModel]] = None,
               checks: Optional[Sequence[CheckSpec]] = None,
               tol: Optional[Tolerances] = None,
               eq_tol: float = _EQ_TOL_DEFAULT) -> Tuple[CheckReport, ...]:
    """Cross-product of checks x models, check-major then model-minor."""
    if models is None:
        models = default_models()
    if checks is None:
        checks = theorem_catalog()
    return tuple(run_check(c, m, tol, eq_tol) for c in checks for m in models)


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


_CSV_FIELDS = ("theorem", "family", "params", "lhs", "rhs", "ratio", "gap",
               "verdict", "err_estimates", "suspect", "expected_equality",
               "claimed_equality", "note")


def reports_to_csv(reports: Sequence[CheckReport]) -> str:
    lines = [",".join(_CSV_FIELDS)]
    for rec in report_records(reports):
        row = []
        for name in _CSV_FIELDS:
            v = rec[name]
            if v is None:
                row.append("")
            elif name == "err_estimates":
                row.append(";".join("" if e is None else repr(e) for e in v))
            elif isinstance(v, bool):
                row.append("true" if v else "false")
            elif isinstance(v, float):
                row.append(repr(v))
            else:
                cell = str(v)
                if "," in cell or '"' in cell:
                    cell = '"' + cell.replace('"', '""') + '"'
                row.append(cell)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
