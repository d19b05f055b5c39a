"""Right-truncated distribution families with closed-form reversed-time functionals.

Each family is built as a bundle of scalar closures (cdf, pdf, quantile,
log-cdf) plus any closed forms known for the reversed hazard rate, the
expected inactivity time, and raw moments. Numerical code elsewhere in the
package treats the bundle as opaque: integration only ever touches cdf and
pdf on the open support, so the closures are written to degrade cleanly
(underflow to exact zero, never overflow) at extreme arguments.

The catalog covers every family that appears as an equality case somewhere
in the check matrix, plus a uniform model that serves as the standard
divergence probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional

import numpy as np
import scipy.special as sc
from scipy.optimize import brentq

from .errors import DivergentMoment, DomainError, ParameterError


@dataclass(frozen=True)
class SupportInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ParameterError("support needs lower < upper")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ParameterError("support endpoints cannot be NaN")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: Mapping[str, float]


@dataclass(frozen=True)
class DistributionModel:
    spec: FamilySpec
    support: SupportInterval
    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    quantile: Callable[[float], float]
    log_cdf: Callable[[float], float]
    rhr: Optional[Callable[[float], float]] = None
    eit: Optional[Callable[[float], float]] = None
    rai: Optional[Callable[[float], float]] = None
    moments: Optional[Callable[[int], float]] = None


# ---------------------------------------------------------------------------
# special-function helpers

def _exp_e1(y: float) -> float:
    """exp(y) * E1(y) for y > 0, stable for large y via the asymptotic series."""
    if y <= 0.0:
        raise ValueError("y must be positive")
    if y < 500.0:
        return float(math.exp(y) * sc.exp1(y))
    # exp(y)E1(y) ~ (1/y) sum (-1)^n n!/y^n, truncated once terms stop mattering
    acc = 0.0
    term = 1.0 / y
    n = 0
    while n < 40:
        acc += term
        n += 1
        nterm = -term * n / y
        if abs(nterm) < 1e-18 * abs(acc):
            break
        term = nterm
    return acc


def _upper_gamma(s: float, z: float) -> float:
    # plain upper incomplete gamma, recursing upward for s <= 0
    if s > 0.0:
        return float(sc.gammaincc(s, z) * sc.gamma(s))
    return (_upper_gamma(s + 1.0, z) - z ** s * math.exp(-z)) / s


def _upper_gamma_exp(s: float, z: float) -> float:
    """Gamma(s, z) * exp(z), usable for negative non-integer s and large z.

    For z beyond 45 the direct route loses digits to cancellation, so the
    standard asymptotic expansion z^(s-1) * (1 + (s-1)/z + ...) is used
    instead; its terms shrink to below 1e-16 in that range.
    """
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        if s > 0.0:
            return float(sc.gamma(s))
        raise ValueError("Gamma(s, 0) diverges for s <= 0")
    if z <= 45.0:
        return _upper_gamma(s, z) * math.exp(z)
    acc = 1.0
    term = 1.0
    for j in range(1, 40):
        term *= (s - j) / z
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    return z ** (s - 1.0) * acc


# ---------------------------------------------------------------------------
# family builders

def _as_positive(params, key, family):
    v = float(params[key])
    if not (v > 0.0 and math.isfinite(v)):
        raise ParameterError(f"{family} needs {key} > 0, got {v!r}")
    return v


def _as_finite(params, key, family):
    v = float(params[key])
    if not math.isfinite(v):
        raise ParameterError(f"{family} needs finite {key}, got {v!r}")
    return v


def _as_int(params, key, family, minimum):
    v = float(params[key])
    if v != int(v):
        raise ParameterError(f"{family} needs integer {key}, got {v!r}")
    iv = int(v)
    if iv < minimum:
        raise ParameterError(f"{family} needs {key} >= {minimum}, got {iv}")
    return iv


def _cdf_from_log(log_cdf):
    """exp(log_cdf(t)), flushed to exact 0 where log_cdf falls below about -745."""
    def cdf(t):
        lf = log_cdf(t)
        return 0.0 if lf < -745.0 else math.exp(lf)
    return cdf


def _build_type3ev(params):
    gamma = _as_positive(params, "gamma", "type3ev")
    b = _as_finite(params, "b", "type3ev")
    if b < 0.0:
        raise ParameterError(f"type3ev needs b >= 0, got {b!r}")
    return _constant_rate(gamma, b)


def _constant_rate(gamma, b):
    log_gamma = math.log(gamma)

    def log_cdf(t):
        return gamma * (t - b)

    def cdf(t):
        return math.exp(gamma * (t - b))

    def pdf(t):
        lp = log_gamma + gamma * (t - b)
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return b + np.log(p) / gamma

    def moments(r):
        # X = b - Y/gamma with Y standard exponential
        acc = 0.0
        for j in range(r + 1):
            acc += math.comb(r, j) * b ** (r - j) * (-1.0 / gamma) ** j * math.factorial(j)
        return acc

    return DistributionModel(
        spec=FamilySpec("type3ev", {"gamma": gamma, "b": b}),
        support=SupportInterval(-math.inf, b),
        cdf=cdf, pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=lambda t: gamma,
        eit=lambda t: 1.0 / gamma,
        rai=lambda t: 1.0,
        moments=moments,
    )


def _build_power(params):
    b = _as_positive(params, "b", "power")
    c = _as_positive(params, "c", "power")
    log_b = math.log(b)

    def log_cdf(t):
        return c * (math.log(t) - log_b)

    def cdf(t):
        return math.exp(log_cdf(t))

    def pdf(t):
        lp = math.log(c) + (c - 1.0) * math.log(t) - c * log_b
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return b * p ** (1.0 / c)

    def rai(t):
        if t >= b:
            return 1.0
        return (b - t) / (t * math.log(b / t))

    def moments(r):
        if r <= -c:
            raise DivergentMoment(f"power moment of order {r} needs r > -c")
        return c * b ** r / (c + r)

    return DistributionModel(
        spec=FamilySpec("power", {"b": b, "c": c}),
        support=SupportInterval(0.0, b),
        cdf=cdf, pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=lambda t: c / t,
        eit=lambda t: t / (c + 1.0),
        rai=rai,
        moments=moments,
    )


def _build_uniform(params):
    # power with c = 1; cdf and pdf keep the exact quotients t/b and 1/b
    b = _as_positive(params, "b", "uniform")
    return replace(_build_power({"b": b, "c": 1.0}), spec=FamilySpec("uniform", {"b": b}),
                   cdf=lambda t: t / b, pdf=lambda t: 1.0 / b)


def _build_invweibull(params):
    """Frechet-type model on (0, inf); the one catalog family with no upper endpoint."""
    nu = _as_positive(params, "nu", "invweibull")
    delta = _as_positive(params, "delta", "invweibull")
    log_nu = math.log(nu)
    s = -1.0 / delta

    def _z_log(t):
        return log_nu - delta * math.log(t)

    def log_cdf(t):
        zl = _z_log(t)
        if zl > 709.0:
            return -math.inf
        return -math.exp(zl)

    def pdf(t):
        zl = _z_log(t)
        if zl > 700.0:
            return 0.0
        z = math.exp(zl)
        lp = log_nu + math.log(delta) - (delta + 1.0) * math.log(t) - z
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return (nu / (-np.log(p))) ** (1.0 / delta)

    def rhr(t):
        zl = _z_log(t)
        lp = math.log(delta) + zl - math.log(t)
        return math.exp(lp)

    def eit(t):
        zl = _z_log(t)
        if zl < -640.0:
            return t  # z underflows; by then the inactivity time is t to 1e-280
        z = math.exp(zl)
        return nu ** (1.0 / delta) / delta * _upper_gamma_exp(s, z)

    def moments(r):
        if r >= delta:
            raise DivergentMoment(
                f"invweibull moment of order {r} diverges (needs r < delta={delta})")
        return nu ** (r / delta) * float(sc.gamma(1.0 - r / delta))

    return DistributionModel(
        spec=FamilySpec("invweibull", {"nu": nu, "delta": delta}),
        support=SupportInterval(0.0, math.inf),
        cdf=_cdf_from_log(log_cdf), pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=rhr, eit=eit, rai=None, moments=moments,
    )


def _build_truncevpower(params):
    alpha = _as_positive(params, "alpha", "truncevpower")
    b = _as_finite(params, "b", "truncevpower")
    emb = math.exp(-b)

    def log_cdf(t):
        u = -t
        if u > 700.0:
            return -math.inf
        return -alpha * (math.exp(u) - emb)

    def pdf(t):
        u = -t
        if u > 700.0:
            return 0.0
        lp = math.log(alpha) + u - alpha * (math.exp(u) - emb)
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return -np.log(emb - np.log(p) / alpha)

    def rhr(t):
        u = -t
        if u > 700.0:
            return math.inf
        return alpha * math.exp(u)

    def eit(t):
        u = -t
        if u > 690.0:
            return math.exp(t) / alpha  # asymptote of exp(y)E1(y) ~ 1/y
        return _exp_e1(alpha * math.exp(u))

    return DistributionModel(
        spec=FamilySpec("truncevpower", {"alpha": alpha, "b": b}),
        support=SupportInterval(-math.inf, b),
        cdf=_cdf_from_log(log_cdf), pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=rhr, eit=eit, rai=None, moments=None,
    )


def _build_basealinkedrhr(params):
    theta = _as_positive(params, "theta", "basealinkedrhr")
    a = float(params["a_base"])
    if not (a > 1.0 and math.isfinite(a)):
        raise ParameterError(f"basealinkedrhr needs a_base > 1, got {a!r}")
    b = _as_finite(params, "b", "basealinkedrhr")
    ln_a = math.log(a)
    yb = theta * math.exp(-b * ln_a)

    def _y_log(t):
        return math.log(theta) - t * ln_a

    def log_cdf(t):
        yl = _y_log(t)
        if yl > 700.0:
            return -math.inf
        return -(math.exp(yl) - yb)

    def pdf(t):
        yl = _y_log(t)
        if yl > 700.0:
            return 0.0
        lp = math.log(theta * ln_a) - t * ln_a - (math.exp(yl) - yb)
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return -np.log(yb / theta - np.log(p) / theta) / ln_a

    def rhr(t):
        return theta * ln_a * math.exp(-t * ln_a)

    def eit(t):
        yl = _y_log(t)
        if yl > 690.0:
            return math.exp(t * ln_a) / (theta * ln_a)
        return _exp_e1(math.exp(yl)) / ln_a

    return DistributionModel(
        spec=FamilySpec("basealinkedrhr", {"theta": theta, "a_base": a, "b": b}),
        support=SupportInterval(-math.inf, b),
        cdf=_cdf_from_log(log_cdf), pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=rhr, eit=eit, rai=None, moments=None,
    )


def _build_reflweibull(params):
    """Weibull mirrored onto the negative half line, upper endpoint pinned at 0."""
    theta = _as_positive(params, "theta", "reflweibull")
    k = _as_int(params, "k", "reflweibull", 1)
    if k % 2 == 0:
        raise ParameterError(f"reflweibull needs odd k, got {k}")
    kp1 = k + 1
    s = 1.0 / kp1
    log_theta = math.log(theta)

    def _w_log(t):
        return log_theta + kp1 * math.log(-t)

    def log_cdf(t):
        if t == 0.0:
            return 0.0
        wl = _w_log(t)
        if wl > 709.0:
            return -math.inf
        return -math.exp(wl)

    def pdf(t):
        if t == 0.0:
            return 0.0  # density vanishes at the endpoint for every k >= 1
        wl = _w_log(t)
        if wl > 700.0:
            return 0.0
        lp = math.log(kp1 * theta) + k * math.log(-t) - math.exp(wl)
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return -((-np.log(p)) / theta) ** s

    def rhr(t):
        return kp1 * theta * (-t) ** k

    def eit(t):
        if t == 0.0:
            return s * theta ** (-s) * float(sc.gamma(s))
        if k == 1:
            return 0.5 * math.sqrt(math.pi / theta) * float(sc.erfcx(math.sqrt(theta) * (-t)))
        wl = _w_log(t)
        if wl > 700.0:
            # deep tail: Gamma(s,z)exp(z) ~ z^(s-1), giving eit ~ 1/rhr there
            return 1.0 / rhr(t)
        return s * theta ** (-s) * _upper_gamma_exp(s, math.exp(wl))

    def moments(r):
        if r < 0 and -r >= kp1:
            raise DivergentMoment("reflweibull negative moment too low")
        return (-1.0) ** r * theta ** (-r * s) * float(sc.gamma(1.0 + r * s))

    return DistributionModel(
        spec=FamilySpec("reflweibull", {"theta": theta, "k": float(k)}),
        support=SupportInterval(-math.inf, 0.0),
        cdf=_cdf_from_log(log_cdf), pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=rhr, eit=eit, rai=lambda t: float(kp1), moments=moments,
    )


def _build_finiterange(params):
    theta = _as_positive(params, "theta", "finiterange")
    b = _as_positive(params, "b", "finiterange")
    k = _as_int(params, "k", "finiterange", 1)
    kp1 = k + 1
    log_b = math.log(b)
    bk1 = b ** kp1

    def log_cdf(t):
        return k * (math.log(t) - log_b) + theta * (t ** kp1 - bk1)

    def cdf(t):
        return math.exp(log_cdf(t))

    def pdf(t):
        # F * (k/t + theta*(k+1)*t^k); t stays comfortably above 1e-290 in use
        return cdf(t) * (k / t + theta * kp1 * t ** k)

    def _quantile_scalar(p):
        target = math.log(p)
        lo = b * 1e-300
        return brentq(lambda t: log_cdf(t) - target, lo, b, xtol=1e-300, rtol=1e-15)

    def quantile(p):
        return _quantile_scalar(float(p))

    def eit(t):
        w = theta * t ** kp1
        return -math.expm1(-w) / (theta * kp1 * t ** k)

    return DistributionModel(
        spec=FamilySpec("finiterange", {"theta": theta, "b": b, "k": float(k)}),
        support=SupportInterval(0.0, b),
        cdf=cdf, pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=lambda t: k / t + theta * kp1 * t ** k,
        eit=eit, rai=None, moments=None,
    )


def _build_linearmit(params):
    """Reconstruction of the family whose inactivity time is linear, xi*(alpha+beta*t).

    Three shapes fall out of the slope sign: beta = 0 collapses to the
    constant-rate model, beta > 0 gives a bounded power-like support
    (-alpha/beta, b], and beta < 0 gives an unbounded left tail whose
    moments only exist up to order -q.
    """
    xi = _as_positive(params, "xi", "linearmit")
    alpha = _as_finite(params, "alpha", "linearmit")
    beta = _as_finite(params, "beta", "linearmit")
    b = _as_finite(params, "b", "linearmit")
    spec = FamilySpec("linearmit", {"xi": xi, "alpha": alpha, "beta": beta, "b": b})

    if beta == 0.0:
        if alpha <= 0.0:
            raise ParameterError("linearmit with beta=0 needs alpha > 0")
        # the constant-rate model under the linearmit identity, with the
        # inactivity time as the family states it
        return replace(_constant_rate(1.0 / (xi * alpha), b), spec=spec,
                       eit=lambda t: xi * alpha)

    vb = alpha + beta * b
    if vb <= 0.0:
        raise ParameterError("linearmit needs alpha + beta*b > 0")
    q = (1.0 - xi * beta) / (xi * beta)
    if beta > 0.0:
        if not 0.0 < xi * beta < 1.0:
            raise ParameterError("linearmit with beta > 0 needs 0 < xi*beta < 1")
        support = SupportInterval(-alpha / beta, b)
    else:
        support = SupportInterval(-math.inf, b)  # q < 0 here
    log_vb = math.log(vb)

    def log_cdf(t):
        return q * (math.log(alpha + beta * t) - log_vb)

    def cdf(t):
        return math.exp(log_cdf(t))

    def pdf(t):
        v = alpha + beta * t
        lp = math.log(q * beta / v) + q * (math.log(v) - log_vb)
        return 0.0 if lp < -745.0 else math.exp(lp)

    def quantile(p):
        return (vb * p ** (1.0 / q) - alpha) / beta

    def rai(t):
        if t >= b:
            return 1.0
        v = alpha + beta * t
        return (t - b) * beta / (v * math.log(v / vb))

    def moments(r):
        if beta < 0.0 and r >= -q:
            raise DivergentMoment(
                f"linearmit moment of order {r} diverges for this beta < 0 shape")
        acc = 0.0
        for j in range(r + 1):
            acc += (math.comb(r, j) * (-alpha) ** (r - j) * vb ** j * q / (q + j))
        return acc / beta ** r

    return DistributionModel(
        spec=spec,
        support=support,
        cdf=cdf, pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=lambda t: q * beta / (alpha + beta * t),
        eit=lambda t: xi * (alpha + beta * t),
        rai=rai,
        moments=moments,
    )


def _build_explinkedeit(params):
    theta = _as_positive(params, "theta", "explinkedeit")
    b = _as_finite(params, "b", "explinkedeit")
    eb = math.exp(b)

    def log_cdf(t):
        return (t - b) + theta * (math.exp(t) - eb)

    def pdf(t):
        lf = log_cdf(t)
        if lf < -745.0:
            return 0.0
        return math.exp(lf) * (1.0 + theta * math.exp(t))

    def quantile(p):
        return _bracketed_quantile(log_cdf, float(p), b)

    def eit(t):
        w = theta * math.exp(t)
        if w < 1e-300:
            return 1.0
        return -math.expm1(-w) / w

    return DistributionModel(
        spec=FamilySpec("explinkedeit", {"theta": theta, "b": b}),
        support=SupportInterval(-math.inf, b),
        cdf=_cdf_from_log(log_cdf), pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=lambda t: 1.0 + theta * math.exp(t),
        eit=eit, rai=None, moments=None,
    )


def _build_basealinkedeit(params):
    gamma = _as_positive(params, "gamma", "basealinkedeit")
    delta = _as_positive(params, "delta", "basealinkedeit")
    a = float(params["a_base"])
    if not (a > 1.0 and math.isfinite(a)):
        raise ParameterError(f"basealinkedeit needs a_base > 1, got {a!r}")
    b = _as_finite(params, "b", "basealinkedeit")
    ln_a = math.log(a)
    ab = math.exp(b * ln_a)
    s = gamma / ln_a

    def log_cdf(t):
        return gamma * (t - b) + delta * (math.exp(t * ln_a) - ab)

    def pdf(t):
        lf = log_cdf(t)
        if lf < -745.0:
            return 0.0
        return math.exp(lf) * (gamma + delta * ln_a * math.exp(t * ln_a))

    def quantile(p):
        return _bracketed_quantile(log_cdf, float(p), b)

    def eit(t):
        # (exp(-w)/ln a) * sum_n w^n / (n! (s+n)) with w = delta*a^t
        w = delta * math.exp(t * ln_a)
        acc = 1.0 / s
        term = 1.0
        n = 0
        while n < 700:
            n += 1
            term *= w / n
            contrib = term / (s + n)
            acc += contrib
            if term < 1e-18 * acc * (s + n) and n > w:
                break
        return math.exp(-w) * acc / ln_a

    return DistributionModel(
        spec=FamilySpec("basealinkedeit",
                        {"gamma": gamma, "delta": delta, "a_base": a, "b": b}),
        support=SupportInterval(-math.inf, b),
        cdf=_cdf_from_log(log_cdf), pdf=pdf, quantile=quantile, log_cdf=log_cdf,
        rhr=lambda t: gamma + delta * ln_a * math.exp(t * ln_a),
        eit=eit, rai=None, moments=None,
    )


def _bracketed_quantile(log_cdf, p, b):
    # expand a bracket below b until the log-cdf falls under log(p)
    target = math.log(p)
    step = 1.0
    lo = b - step
    for _ in range(200):
        if log_cdf(lo) < target:
            break
        step *= 2.0
        lo = b - step
    else:
        raise DomainError("quantile bracket expansion failed")
    return brentq(lambda t: log_cdf(t) - target, lo, b, xtol=1e-13, rtol=1e-15)


_BUILDERS = {
    "type3ev": _build_type3ev,
    "power": _build_power,
    "invweibull": _build_invweibull,
    "truncevpower": _build_truncevpower,
    "basealinkedrhr": _build_basealinkedrhr,
    "reflweibull": _build_reflweibull,
    "finiterange": _build_finiterange,
    "linearmit": _build_linearmit,
    "explinkedeit": _build_explinkedeit,
    "basealinkedeit": _build_basealinkedeit,
    "uniform": _build_uniform,
}

_PARAM_ORDER = {
    "type3ev": ("gamma", "b"),
    "power": ("b", "c"),
    "invweibull": ("nu", "delta"),
    "truncevpower": ("alpha", "b"),
    "basealinkedrhr": ("theta", "a_base", "b"),
    "reflweibull": ("theta", "k"),
    "finiterange": ("theta", "b", "k"),
    "linearmit": ("xi", "alpha", "beta", "b"),
    "explinkedeit": ("theta", "b"),
    "basealinkedeit": ("gamma", "delta", "a_base", "b"),
    "uniform": ("b",),
}


def make_distribution(spec: FamilySpec) -> DistributionModel:
    family = spec.family.lower()
    if family not in _BUILDERS:
        raise ParameterError(f"unknown family {spec.family!r}")
    wanted = set(_PARAM_ORDER[family])
    got = {k.lower() for k in spec.params}
    if got != wanted:
        raise ParameterError(
            f"{family} takes parameters {sorted(wanted)}, got {sorted(got)}")
    params = {k.lower(): float(v) for k, v in spec.params.items()}
    return _BUILDERS[family](params)


def parse_family(text: str) -> FamilySpec:
    """Parse 'family:key=value,key=value' (case-insensitive, any key order)."""
    text = text.strip()
    if ":" not in text:
        raise ParameterError(f"malformed family text {text!r}, expected family:k=v,...")
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    params: Dict[str, float] = {}
    for piece in rest.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ParameterError(f"malformed parameter {piece!r} in {text!r}")
        key, _, val = piece.partition("=")
        key = key.strip().lower()
        if key in params:
            raise ParameterError(f"duplicate parameter {key!r} in {text!r}")
        try:
            params[key] = float(val.strip())
        except ValueError:
            raise ParameterError(f"non-numeric value for {key!r} in {text!r}") from None
    return FamilySpec(family, params)


def format_family(spec: FamilySpec) -> str:
    family = spec.family.lower()
    order = _PARAM_ORDER.get(family)
    keys = order if order else tuple(sorted(spec.params))
    parts = ",".join(f"{k}={spec.params[k]:g}" for k in keys)
    return f"{family}:{parts}"


def model_from_text(text: str) -> DistributionModel:
    return make_distribution(parse_family(text))


# ---------------------------------------------------------------------------
# guarded accessors

def cdf_at(model: DistributionModel, t: float) -> float:
    if t <= model.support.lower:
        return 0.0
    if t >= model.support.upper:
        return 1.0
    return float(model.cdf(t))


def quantile_at(model: DistributionModel, p: float) -> float:
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile needs 0 < p < 1, got {p!r}")
    return float(model.quantile(p))


def raw_moment(model: DistributionModel, r: int) -> float:
    """E[X^r], preferring the family's closed form when one is attached."""
    if model.moments is not None:
        return float(model.moments(r))
    from .quadrature import ExpectationSpec, QuadStatus, expectation

    res = expectation(ExpectationSpec(model, lambda x: x ** r))
    if res.status is not QuadStatus.Converged:
        raise DivergentMoment(
            f"moment of order {r} did not converge for {format_family(model.spec)}")
    return res.value
