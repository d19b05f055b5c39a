"""Reversed-time functionals of right-truncated models.

Three quantities drive everything downstream, all defined on the open
interior of the support and tied together by one differential identity:

* reversed hazard rate   phi(t) = f(t) / F(t)
* inactivity mean        m(t)   = (1/F(t)) * integral_a^t F(x) dx
* reversed intensity     L(t)   = (b - t) * phi(t) / integral_t^b phi(x) dx

The identity phi(t) * m(t) = 1 - m'(t) holds wherever both sides exist,
and exp(-integral_t^b phi) reconstructs F(t) when b is finite.  Both are
exposed as residual helpers so tests can exercise the closed forms and
the quadrature engine against each other.  The identity residual
integrates F over (a, t) once, as I, and forms m(t +- h) =
(I +- J+-)/F(t +- h) from the slabs J+- = integral_0^h F(t +- u) du.
Short stretches and stretches ending on b are integrated in the offset
from their anchor (u above t, d = b - x below b), because the engine's
nodes round onto an endpoint x far from 0 and are skipped there.

Every model carries closed forms of phi and m; ``rai`` and ``raw_moment``
use a closed form where the model has one and fall back to the -log F
identity and to quadrature.  The ``numeric_*`` variants never consult
closed forms, which makes them usable as independent cross-checks.

Conventions for the reversed intensity: the support must be bounded
above (otherwise ``UnboundedSupport``), the value at t >= b is fixed to
0.0 (at b itself there is no reversed time left, and downstream tables
want a defined number), and |log F| < 1e-12 is treated as the t -> b
limit.  That limit of (b-t)*phi/-log F is 1 only where phi(b) is finite
and positive: on ``reflweibull``, whose phi vanishes at b like (b-t)^k,
the intensity is k + 1 everywhere.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict

from .distributions import DistributionModel, format_family
from .errors import (
    DivergentMoment,
    DomainError,
    QuadratureError,
    SupportError,
    UnboundedSupport,
)
from .quadrature import (
    ExpectationSpec,
    QuadStatus,
    Tolerances,
    cdf_cumulative_integral,
    expectation,
    integrate_finite,
)

__all__ = [
    "cdf_from_rhr",
    "eit",
    "functional_profile",
    "numeric_eit",
    "numeric_rhr",
    "rai",
    "rai_integral_form",
    "raw_moment",
    "rhr",
    "rhr_eit_identity_residual",
]

# Residual and reconstruction helpers integrate to much tighter targets
# than the default engine contract; they feed 1e-4 / 1e-6 level checks.
_TIGHT_TOL = Tolerances(rel_tol=1e-12)


def _require_interior(model: DistributionModel, t: float) -> None:
    sup = model.support
    if not (sup.lower < t <= sup.upper and math.isfinite(t)):
        raise SupportError(
            f"t={t!r} outside support ({sup.lower!r}, {sup.upper!r}]")


def _positive_cdf(model: DistributionModel, t: float) -> float:
    """F(t) at an interior point; DomainError where it underflows to 0."""
    _require_interior(model, t)
    cdf_val = model.cdf(t)
    if not cdf_val > 0.0:
        raise DomainError(f"cdf underflows to zero at t={t!r}")
    return cdf_val


def rhr(model: DistributionModel, t: float) -> float:
    """Reversed hazard rate f(t)/F(t) at an interior point."""
    _require_interior(model, t)
    return float(model.rhr(t))


def numeric_rhr(model: DistributionModel, t: float) -> float:
    """f(t)/F(t) straight from the density and cdf closures.

    Ignores any closed-form shortcut the model carries, so a mismatch
    between this and ``rhr`` flags a bad closed form.
    """
    cdf_val = _positive_cdf(model, t)
    return model.pdf(t) / cdf_val


def eit(model: DistributionModel, t: float) -> float:
    """Expected inactivity time m(t) = E[t - X | X <= t]."""
    _require_interior(model, t)
    return float(model.eit(t))


def numeric_eit(model: DistributionModel, t: float) -> float:
    """m(t) by quadrature of the cdf, never via closed forms."""
    cdf_val = _positive_cdf(model, t)
    acc = cdf_cumulative_integral(model, t, _TIGHT_TOL)
    return acc / cdf_val


def _rai_upper(model: DistributionModel, t: float) -> float:
    """The upper endpoint b; raises unless b is finite and t lies above the lower end."""
    upper = model.support.upper
    if not math.isfinite(upper):
        raise UnboundedSupport("reversed aging intensity needs a finite upper endpoint")
    if not t > model.support.lower:
        raise SupportError(
            f"t={t!r} outside support ({model.support.lower!r}, {upper!r}]")
    return upper


def rai(model: DistributionModel, t: float) -> float:
    """Reversed aging intensity (b - t) * rhr(t) / (-log F(t)).

    Identically 1 exactly for the exponential-in-reverse family; above 1
    signals faster-than-exponential reversed aging near b, below 1 slower.
    """
    upper = _rai_upper(model, t)
    if t >= upper:
        return 0.0
    return float((model.rai or model.rai_from_log_cdf)(t))


def _offset_integral(f, a: float, sign: float, length: float) -> float:
    """The integral of f(a + sign*u) over u in (0, length); QuadratureError unless it converges.

    Nodes next to u = 0 keep their exact distance from a, so a stretch that
    is short against |a|, or one anchored on b, keeps the nodes that an
    integral over x rounds onto a and skips.
    """
    res = integrate_finite(lambda u: f(a + sign * u), 0.0, length, _TIGHT_TOL)
    if res.status is not QuadStatus.Converged:
        raise QuadratureError(
            f"integral over {length!r} from {a!r} ended {res.status.value}")
    return res.value


def _rhr_integral(model: DistributionModel, t: float) -> float:
    """The integral of rhr over (t, b), taken as rhr(b - d) over d in (0, b - t)."""
    upper = model.support.upper
    return _offset_integral(model.rhr, upper, -1.0, upper - t)


def rai_integral_form(model: DistributionModel, t: float) -> float:
    """Reversed aging intensity with the denominator integrated numerically.

    Evaluates (b - t) * rhr(t) / integral_t^b rhr(x) dx by quadrature
    instead of using the -log F identity, an independent consistency
    check on the closed cdf / rhr pair.
    """
    upper = _rai_upper(model, t)
    if t >= upper:
        return 0.0
    integral = _rhr_integral(model, t)
    if integral <= 0.0:
        raise DomainError(f"rhr integral vanished on ({t!r}, {upper!r})")
    return (upper - t) * rhr(model, t) / integral


def rhr_eit_identity_residual(model: DistributionModel, t: float) -> float:
    """Residual of rhr(t)*m(t) - (1 - m'(t)), all parts numeric.

    m' is a central difference with h ~ 1e-6 * max(1, |t|), halved near a
    finite b.  The cdf is integrated once from the lower end to t, I, and
    m(t) = I/F(t) as in ``numeric_eit``; the neighbours add the slabs of
    width h, m(t + h) = (I + J+)/F(t + h) and m(t - h) = (I - J-)/F(t - h)
    with J+- the integral of F(t +- u) over u in (0, h), so the error of I
    cancels in the difference.  Everything is integrated to a 1e-12
    relative target; the residual on smooth families lands near the
    rounding floor eps * m / h, about 1e-10, well under 1e-4.
    """
    h = 1e-6 * max(1.0, abs(t))
    upper = model.support.upper
    if math.isfinite(upper) and t + h >= upper:
        h = 0.5 * (upper - t)
        if h <= 0.0:
            raise SupportError(f"t={t!r} too close to the upper endpoint {upper!r}")
    f_mid, f_hi, f_lo = (_positive_cdf(model, x) for x in (t, t + h, t - h))
    acc = cdf_cumulative_integral(model, t, _TIGHT_TOL)
    m_mid = acc / f_mid
    m_hi = (acc + _offset_integral(model.cdf, t, 1.0, h)) / f_hi
    m_lo = (acc - _offset_integral(model.cdf, t, -1.0, h)) / f_lo
    m_prime = (m_hi - m_lo) / (2.0 * h)
    return numeric_rhr(model, t) * m_mid - (1.0 - m_prime)


def cdf_from_rhr(model: DistributionModel, t: float) -> float:
    """Reconstruct F(t) as exp(-integral_t^b rhr) for finite b."""
    upper = model.support.upper
    if not math.isfinite(upper):
        raise UnboundedSupport("cdf reconstruction needs a finite upper endpoint")
    _require_interior(model, t)
    if t >= upper:
        return 1.0
    return math.exp(-_rhr_integral(model, t))


def raw_moment(model: DistributionModel, r: int) -> float:
    """E[X^r], preferring the family's closed form where it has one for this r.

    An integrated moment's QuadResult, converged or not, is kept in the
    model's column table by order, so each (model, r) is integrated once.
    """
    closed = None if model.moments is None else model.moments(r)
    if closed is not None:
        return float(closed)
    kept = model._columns.moments
    res = kept.get(r)
    if res is None:
        res = kept[r] = expectation(ExpectationSpec(model, lambda x: x ** r))
    if res.status is not QuadStatus.Converged:
        raise DivergentMoment(
            f"moment of order {r} did not converge for {format_family(model.spec)}")
    return res.value


def functional_profile(model: DistributionModel, t: float) -> Dict[str, float]:
    """One table row: t, cdf, pdf, rhr, eit, and rai where b is finite; an overflow is a DomainError."""
    _require_interior(model, t)
    closures = {"cdf": model.cdf, "pdf": model.pdf,
                "rhr": partial(rhr, model), "eit": partial(eit, model)}
    if math.isfinite(model.support.upper):
        closures["rai"] = partial(rai, model)
    row = {"t": t}
    for name, fn in closures.items():
        try:
            row[name] = fn(t)
        except OverflowError:
            raise DomainError(f"{name} overflows at t={t!r}") from None
    return row
