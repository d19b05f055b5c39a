"""Right-truncated distribution families with closed-form reversed-time functionals.

Each family is built as a bundle of closures (cdf, pdf, quantile,
log-cdf, log-pdf, and the closed-form reversed hazard rate and expected
inactivity time) plus the reversed aging intensity and raw moments where
closed forms exist. All of them take a float; quantile also takes a numpy
array of probabilities, and the three families without a closed inverse
solve every element at once by Newton's method (``_newton_quantile``). A
quantile stays strictly above a finite lower endpoint. numpy is imported by
the first array the package makes or reads (``np`` below is a handle that
loads it on first attribute use): ``verify`` never loads it, nor does a
scalar quantile of power, uniform or linearmit with beta != 0, which is
plain ``math``. The special functions
the closures need (exp(y)E1(y), Gamma(s, z), erfcx, Gamma and the damped
series exp(-w) sum w^n/(n!(s+n))) are pure ``math``.
Numerical code elsewhere in the package treats the
bundle as opaque: integration only ever touches cdf and log_pdf on the
open support, so the closures are written to degrade cleanly (underflow to
exact zero or -inf, never overflow) at extreme arguments. log_pdf stays
finite where the pdf underflows, and where rhr or eit leaves float range
inside the support a log-native twin (log_rhr, log_eit) does not:
invweibull's rhr at large t and eit at small t, reflweibull's rhr near 0,
and finiterange's eit, 0/0 where t**k underflows.

Each model also keeps a column table (``quadrature.ColumnTable``), private
and empty at first: log_pdf, log rhr, log eit and log rai by abscissa, as
far as ``quadrature.expectation`` has read them for the checks' weights and
the raw moments, and the result of each raw moment integrated. A log
functional (``DistributionModel.log_functional``) is computed only where
log_pdf is finite and only once a weight needs it, a raise stores nothing,
and ``dataclasses.replace`` starts a new model with an empty table. Every
expectation on a model then runs each closure once per abscissa, at about
200 bytes an abscissa.

Each family is one row of ``_FAMILIES``: its builder and its parameters in
canonical order with their admissible ranges. ``make_distribution`` checks
a parameter set against the row; a builder only checks constraints that
tie parameters together. ``_ALIASES`` says which five families are members
of another, and at what parameters (``parent_family``); the checks' equality
rules read only the parent. truncevpower and explinkedeit are built from it,
as log e is exactly 1; the linearmit members type3ev, power and uniform keep
builders of their own, whose bits differ from their parent's. The catalog
covers every family that appears as an equality case in the check matrix,
plus a uniform model that serves as the standard divergence probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from .errors import DivergentMoment, DomainError, ParameterError
from .quadrature import ColumnTable


class _Numpy:
    """numpy, imported by the first attribute read; each name read is then kept
    on the handle, so later reads are plain attribute hits."""

    def __getattr__(self, name):
        import numpy
        if not vars(self):
            numpy.empty(1 << 21)  # the heap-threshold block; empirics says why
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


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
    log_pdf: Callable[[float], float]
    rhr: Callable[[float], float]
    eit: Callable[[float], float]
    rai: Optional[Callable[[float], float]] = None
    moments: Optional[Callable[[int], Optional[float]]] = None  # None: no closed form at r
    # log-native twins, where the linear closure leaves float range inside the support
    log_rhr: Optional[Callable[[float], float]] = None
    log_eit: Optional[Callable[[float], float]] = None
    # log_pdf and the log functionals by abscissa, as far as expectations have
    # read them (quadrature.expectation), and the integrated raw moments;
    # replace() starts an empty one
    _columns: ColumnTable = field(
        default_factory=ColumnTable, init=False, repr=False, compare=False)

    def rai_from_log_cdf(self, t: float) -> float:
        """(t - b)*rhr(t)/log F(t) below a finite b, 1.0 where |log F| < 1e-12 (the t -> b limit)."""
        log_cdf = self.log_cdf(t)
        if abs(log_cdf) < 1e-12:
            return 1.0
        return (t - self.support.upper) * float(self.rhr(t)) / log_cdf

    def log_functional(self, name: str) -> Callable[[float], float]:
        """x -> log of rhr, eit or rai inside the support: the log-native twin if
        any, else the log of the closure; rai without one from the log cdf."""
        native = getattr(self, "log_" + name, None)
        if native is not None:
            return native
        closed = getattr(self, name) or self.rai_from_log_cdf
        return lambda x, log=math.log: log(closed(x))


# ---------------------------------------------------------------------------
# special-function helpers, in pure math (no scipy at run time)

_EULER_GAMMA = 0.5772156649015329
_SQRT_PI = math.sqrt(math.pi)


def _exp_e1(y: float) -> float:
    """exp(y) * E1(y) for y > 0: the power series (DLMF 6.6.2) below 1/2, and from
    there the continued fraction of Gamma(0, y), 222 levels deep at y = 1/2."""
    if y < 0.5:
        # E1(y) = -gamma - log y - sum_{n>=1} (-y)^n / (n n!)
        acc = 0.0
        term = 1.0
        for n in range(1, 30):
            term *= -y / n
            acc += term / n
            if abs(term) < 1e-17 * abs(acc):
                break
        return math.exp(y) * (-_EULER_GAMMA - math.log(y) - acc)
    return _gamma_cf(0.0, y)


def _gamma_cf(s: float, z: float) -> float:
    """exp(z) * z^-s * Gamma(s, z) for z >= 1 and s <= 1, and for s = 0 from z = 1/2.

    The even part of Legendre's continued fraction (DLMF 8.9.2), evaluated
    backward. For -30 <= s <= 1 its truncation error falls below 1e-16 at
    114 levels for z = 1, 45 for z = 3, 11 for z = 45, 5 for z = 300 and 3
    from z = 1000 on (measured with mpmath); the depth follows that, and
    holds for s = 0 down to z = 1/2.
    """
    depth = 12 + int(105.0 / z) if z < 45.0 else 3 + int(1000.0 / z)
    b = z + 1.0 - s
    t = 0.0
    for k in map(float, range(depth, 0, -1)):
        t = k * (k - s) / (b + 2.0 * k - t)
    return 1.0 / (b - t)


def _upper_gamma_scaled(s: float, z: float) -> float:
    """exp(z) * z^-s * Gamma(s, z) for z > 0 and s <= 1, finite where z^s overflows.

    From z = 1 on the continued fraction; below, the lower-gamma series
    subtracted from Gamma(s), s <= 0 first lifted onto E1 or a positive s by
    Gamma(s+1, z) = s Gamma(s, z) + z^s exp(-z), in this scaling H(s) = (z H(s+1) - 1)/s.
    """
    if z >= 1.0:
        return _gamma_cf(s, z)
    if s > 0.0:
        # z^-s gamma(s, z) = sum_{n>=0} (-z)^n / (n! (s+n)) (DLMF 8.7.3)
        acc = 1.0 / s
        term = 1.0
        for n in range(1, 30):
            term *= -z / n
            c = term / (s + n)
            acc += c
            if abs(c) < 1e-17 * acc:
                break
        return (math.gamma(s) * z ** -s - acc) * math.exp(z)
    if s == 0.0:
        return _exp_e1(z)
    return (z * _upper_gamma_scaled(s + 1.0, z) - 1.0) / s


def _upper_gamma_exp(s: float, z: float) -> float:
    """Gamma(s, z) * exp(z) for z > 0 and s <= 1 (z = 0 too when s > 0)."""
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        if s > 0.0:
            return math.gamma(s)
        raise ValueError("Gamma(s, 0) diverges for s <= 0")
    return z ** s * _upper_gamma_scaled(s, z)


def _erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for x >= 0."""
    if x < 26.0:
        # x*x = hi + lo exactly (Dekker's split), so exp(x^2) keeps every digit;
        # erfc stays a normal number below x = 26
        c = 134217729.0 * x
        xh = c - (c - x)
        xl = x - xh
        hi = x * x
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.erfc(x) * math.exp(hi) * (1.0 + lo)
    # Laplace's continued fraction (DLMF 7.9.2); five levels suffice past 26
    t = 0.0
    for k in (2.5, 2.0, 1.5, 1.0, 0.5):
        t = k / (x + t)
    return 1.0 / (_SQRT_PI * (x + t))


# 1 - exp(-x) = sum_{j>=1} a_j x^j: a_j = (-1)^(j+1)/j!, stored from j = 1
_ONE_MINUS_EXP = tuple((-1.0) ** (j + 1) / math.factorial(j) for j in range(1, 60))


def _damped_sum(s: float, w: float) -> float:
    """exp(-w) * sum_{n>=0} w^n / (n! (s+n)) = int_0^1 u^(s-1) exp(-w(1-u)) du, s > 0, w >= 0.

    At s = 1 the closed form (1 - exp(-w))/w; up to w = 200 the series,
    which overflows from w = 710 on; beyond, Watson's lemma in x = -log u:
    sum_k c_k k!/(s+w)^(k+1), with exp(w(x - 1 + e^-x)) = sum_k c_k x^k. Its
    terms shrink like (w/(s+w)^2)^(k/2) <= 200^(-k/2); about 30 reach 1e-17.
    """
    if s == 1.0:
        return 1.0 if w < 1e-300 else -math.expm1(-w) / w
    if w <= 200.0:
        acc = 1.0 / s
        term = 1.0
        n = 0
        while True:
            n += 1
            term *= w / n
            acc += term / (s + n)
            if term < 1e-18 * acc * (s + n) and n > w:
                return math.exp(-w) * acc
    r = 1.0 / (s + w)
    wr = w * r
    d = [1.0]
    acc = 1.0
    for k in range(len(_ONE_MINUS_EXP)):
        # d_k = c_k k! r^k, r = 1/(s+w): d_{k+1} = w r sum_{j=1..k} a_j k!/(k-j)! r^j d_{k-j}
        f = 1.0
        tot = 0.0
        for j in range(1, k + 1):
            f *= (k - j + 1) * r
            tot += _ONE_MINUS_EXP[j - 1] * f * d[k - j]
        d.append(wr * tot)
        acc += d[-1]
        if k >= 2 and abs(d[-1]) + abs(d[-2]) < 1e-17 * acc:
            break
    return r * acc


# ---------------------------------------------------------------------------
# family builders

def _from_log(log_fn):
    """t -> exp(log_fn(t)), flushed to exact 0 where the log falls below about -745."""
    def from_log(t, exp=math.exp):
        lv = log_fn(t)
        return 0.0 if lv < -745.0 else exp(lv)
    return from_log


_NEWTON_CAP = 100


def _newton_quantile(p, x0, log_cdf, slope, abs_tol, rel_tol=0.0, to_t=None):
    """Solve log_cdf(x) = log p by Newton's method for a scalar or an array p.

    log_cdf is a numpy expression, increasing and convex in x, with slope its
    derivative and log_cdf(x0) = 0, so the iteration started at x0 falls
    toward each root without overshooting and needs no bracket. Each element
    stops once its step is within abs_tol + rel_tol*|x|, or turns back: in
    exact arithmetic every step moves left, so a step to the right is
    rounding noise at the root, where the tolerance can lie below the spacing
    of floats. A stopped element is not touched again, so an array solve
    equals the elementwise scalar solves bit for bit. to_t maps the solved x
    back to t. A scalar p gives a float.
    """
    arr = np.asarray(p, dtype=float)
    target = np.log(arr.ravel())
    x = np.full(target.shape, float(x0))
    active = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        xa = x[active]
        step = (log_cdf(xa) - target[active]) / slope(xa)
        xa = xa - step
        x[active] = xa
        active = active[~(step <= abs_tol + rel_tol * np.abs(xa))]  # NaN keeps going
        if active.size == 0:
            if to_t is not None:
                x = to_t(x)
            return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)
    raise DomainError(f"Newton quantile did not converge in {_NEWTON_CAP} steps")


def _constant_rate(spec, gamma, b):
    log_gamma = math.log(gamma)

    def log_cdf(t):
        return gamma * (t - b)

    def cdf(t):
        return math.exp(gamma * (t - b))

    def log_pdf(t):
        return log_gamma + gamma * (t - b)

    def quantile(p):
        return b + np.log(p) / gamma

    def moments(r):
        # X = b - Y/gamma with Y standard exponential
        if r < 0:
            return None  # no closed form; raw_moment integrates
        acc = 0.0
        for j in range(r + 1):
            acc += math.comb(r, j) * b ** (r - j) * (-1.0 / gamma) ** j * math.factorial(j)
        return acc

    return DistributionModel(
        spec=spec,
        support=SupportInterval(-math.inf, b),
        cdf=cdf, pdf=_from_log(log_pdf), quantile=quantile, log_cdf=log_cdf, log_pdf=log_pdf,
        rhr=lambda t: gamma,
        eit=lambda t: 1.0 / gamma,
        rai=lambda t: 1.0,
        moments=moments,
        log_rhr=lambda t: log_gamma,  # constants: each spares the integrand a log call
        log_eit=lambda t: -log_gamma,
    )


def _build_power(spec, b, c):
    # linearmit at alpha = 0, beta = 1, where v = alpha + beta*t is exactly t, with
    # exponent c itself: q = (1 - xi)/xi from xi = 1/(c + 1) can miss c by an ulp
    return _linearmit_closures(spec, 1.0 / (c + 1.0), 0.0, 1.0, b, c)


def _build_uniform(spec, b):
    # power with c = 1; cdf and pdf keep the exact quotients t/b and 1/b
    return replace(_build_power(spec, b, 1.0), cdf=lambda t: t / b, pdf=lambda t: 1.0 / b)


def _build_invweibull(spec, nu, delta):
    """Frechet-type model on (0, inf); the one catalog family with no upper endpoint."""
    log_nu = math.log(nu)
    log_delta = math.log(delta)
    s = -1.0 / delta

    def _z_log(t):
        return log_nu - delta * math.log(t)

    def log_cdf(t):
        zl = _z_log(t)
        if zl > 709.0:
            return -math.inf
        return -math.exp(zl)

    def log_pdf(t):
        zl = _z_log(t)
        if zl > 700.0:
            return -math.inf
        return log_nu + log_delta - (delta + 1.0) * math.log(t) - math.exp(zl)

    def quantile(p):
        return (nu / (-np.log(p))) ** (1.0 / delta)

    def log_rhr(t):
        return log_delta + _z_log(t) - math.log(t)  # its exp underflows at large t

    # nu^(1/delta) z^s = t, so eit(t) = t/delta * exp(z) z^-s Gamma(s, z)
    def eit(t):
        zl = _z_log(t)
        if zl < -640.0:
            return t  # z underflows; by then the inactivity time is t to 1e-280
        if zl > 700.0:
            return math.exp(log_eit(t))  # z overflows, and eit underflows with it
        return t * (_upper_gamma_scaled(s, math.exp(zl)) / delta)

    def log_eit(t):
        # eit underflows at small t; its log does not
        zl = _z_log(t)
        if zl <= 0.0:
            return math.log(eit(t))
        # past z = e^700 the scaled Gamma(s, z) is 1/z to within 1e-300
        lh = -zl if zl > 700.0 else math.log(_gamma_cf(s, math.exp(zl)))
        return math.log(t) - log_delta + lh

    def moments(r):
        if r >= delta:
            raise DivergentMoment(
                f"invweibull moment of order {r} diverges (needs r < delta={delta})")
        return nu ** (r / delta) * math.gamma(1.0 - r / delta)

    return DistributionModel(
        spec=spec,
        support=SupportInterval(0.0, math.inf),
        cdf=_from_log(log_cdf), pdf=_from_log(log_pdf), quantile=quantile, log_cdf=log_cdf,
        log_pdf=log_pdf, rhr=lambda t: math.exp(log_rhr(t)), eit=eit, moments=moments,
        log_rhr=log_rhr, log_eit=log_eit,
    )


def _build_basealinkedrhr(spec, theta, a_base, b):
    """log F(t) = -theta*(a^-t - a^-b); rhr(t) = theta*ln(a)*a^-t."""
    ln_a = math.log(a_base)
    neg_ln_a = -ln_a  # u = t*neg_ln_a is exactly -t*ln_a, and -t at a_base = e
    log_theta = math.log(theta)
    theta_ln_a = theta * ln_a
    log_theta_ln_a = log_theta + math.log(ln_a)
    amb = math.exp(b * neg_ln_a)
    theta_amb = theta * amb
    # past u = 700, where exp(u) nears overflow, theta*a^-t = exp(u + log_theta) comes from
    # logs; it passes e^700 (F = 0 to the last bit) at u = cut, beyond 700 only if theta < 1
    cut = 700.0 - log_theta

    def log_cdf(t, exp=math.exp):
        u = t * neg_ln_a
        if u > 700.0:
            return -math.inf if u > cut else theta_amb - exp(u + log_theta)
        return -theta * (exp(u) - amb)

    def log_pdf(t, exp=math.exp):
        u = t * neg_ln_a
        if u > 700.0:
            return -math.inf if u > cut else log_theta_ln_a + u - (exp(u + log_theta) - theta_amb)
        return log_theta_ln_a + u - theta * (exp(u) - amb)

    def quantile(p):
        if theta < 1e-300:  # -log(p)/theta overflows; the division goes inside the log
            return (log_theta - np.log(theta_amb - np.log(p))) / ln_a
        return -np.log(amb - np.log(p) / theta) / ln_a

    def rhr(t, exp=math.exp):
        u = t * neg_ln_a
        if u > 700.0:
            return math.inf if u > cut else ln_a * exp(u + log_theta)
        return theta_ln_a * exp(u)

    def eit(t, exp=math.exp):
        u = t * neg_ln_a
        yl = u + log_theta  # theta*a^-t = exp(yl); a^-t leaves float range past |u| = 690
        if yl < -690.0:
            return (-_EULER_GAMMA - yl) / ln_a  # exp(y)E1(y) = -gamma - log y + O(y log y)
        if yl > 690.0:
            return exp(-yl) / ln_a  # asymptote of exp(y)E1(y) ~ 1/y
        return _exp_e1(exp(yl) if abs(u) > 690.0 else theta * exp(u)) / ln_a

    return DistributionModel(
        spec=spec,
        support=SupportInterval(-math.inf, b),
        cdf=_from_log(log_cdf), pdf=_from_log(log_pdf), quantile=quantile, log_cdf=log_cdf,
        log_pdf=log_pdf, rhr=rhr, eit=eit,
    )


def _build_reflweibull(spec, theta, k):
    """Weibull mirrored onto the negative half line, upper endpoint pinned at 0."""
    kp1 = k + 1
    s = 1.0 / kp1
    log_theta = math.log(theta)
    log_kp1_theta = math.log(kp1 * theta)
    root_theta = math.sqrt(theta)
    erfcx_scale = 0.5 * _SQRT_PI / root_theta  # not sqrt(pi/theta): that overflows

    def _w_log(t):
        return log_theta + kp1 * math.log(-t)

    def log_cdf(t):
        if t == 0.0:
            return 0.0
        wl = _w_log(t)
        if wl > 709.0:
            return -math.inf
        return -math.exp(wl)

    def log_pdf(t):
        if t == 0.0:
            return -math.inf  # density vanishes at the endpoint for every k >= 1
        wl = _w_log(t)
        if wl > 700.0:
            return -math.inf
        return log_kp1_theta + k * math.log(-t) - math.exp(wl)

    def quantile(p):
        # in log space: (-log p)/theta overflows once theta is subnormal
        return -np.exp(s * (np.log(-np.log(p)) - log_theta))

    def rhr(t):
        return kp1 * theta * (-t) ** k

    def log_rhr(t):
        return log_kp1_theta + k * math.log(-t)  # (-t)**k underflows near 0

    def eit(t):
        if t == 0.0:
            return s * theta ** (-s) * math.gamma(s)
        if k == 1:
            return erfcx_scale * _erfcx(root_theta * (-t))
        wl = _w_log(t)
        if wl > 700.0:
            # deep tail: Gamma(s,z)exp(z) ~ z^(s-1), giving eit ~ 1/rhr there
            return 1.0 / rhr(t)
        return s * theta ** (-s) * _upper_gamma_exp(s, math.exp(wl))

    def moments(r):
        if r < 0 and -r >= kp1:
            raise DivergentMoment("reflweibull negative moment too low")
        return (-1.0) ** r * theta ** (-r * s) * math.gamma(1.0 + r * s)

    return DistributionModel(
        spec=spec,
        support=SupportInterval(-math.inf, 0.0),
        cdf=_from_log(log_cdf), pdf=_from_log(log_pdf), quantile=quantile, log_cdf=log_cdf,
        log_pdf=log_pdf, rhr=rhr, eit=eit, rai=lambda t: float(kp1), moments=moments,
        log_rhr=log_rhr,
    )


def _build_finiterange(spec, theta, b, k):
    kp1 = k + 1
    log_b = math.log(b)
    log_theta = math.log(theta)
    bk1 = b ** kp1

    def log_cdf(t):
        return k * (math.log(t) - log_b) + theta * (t ** kp1 - bk1)

    def cdf(t):
        return math.exp(log_cdf(t))

    def rhr(t):
        # k/t + theta*(k+1)*t^k; t stays comfortably above 1e-290 in use
        return k / t + theta * kp1 * t ** k

    def quantile(p):
        # log F is convex in s = log t, with slope t*rhr(t)
        return _newton_quantile(
            p, log_b,
            lambda s: k * (s - log_b) + theta * (np.exp(kp1 * s) - bk1),
            lambda s: k + theta * kp1 * np.exp(kp1 * s),
            4e-15, to_t=np.exp)

    def eit(t):
        w = theta * t ** kp1
        if w < 1e-300:  # subnormal or 0: -expm1(-w)/w = 1 - w/2 is 1 in floats
            return t / kp1
        return -math.expm1(-w) / (theta * kp1 * t ** k)

    def log_eit(t):
        # eit's t^k and w underflow into 0/0 at small t; log(1 - exp(-w)) -> log w
        lw = log_theta + kp1 * math.log(t)
        head = lw if lw < -700.0 else math.log(-math.expm1(-math.exp(min(lw, 700.0))))
        return head - log_theta - math.log(kp1) - k * math.log(t)

    return DistributionModel(
        spec=spec,
        support=SupportInterval(0.0, b),
        cdf=cdf, pdf=lambda t: cdf(t) * rhr(t), quantile=quantile, log_cdf=log_cdf,
        log_pdf=lambda t, log=math.log: log_cdf(t) + log(rhr(t)),
        rhr=rhr, eit=eit, log_eit=log_eit,
    )


def _build_linearmit(spec, xi, alpha, beta, b):
    """The family whose inactivity time is linear, xi*(alpha+beta*t), F = (v/vb)^q.

    Three shapes fall out of the slope sign: beta = 0 collapses to the
    constant-rate model, beta > 0 gives a bounded support (-alpha/beta, b]
    whose alpha = 0 member is the power law (t/b)^q, and beta < 0 gives an
    unbounded left tail whose moments only exist up to order -q. Here
    v = alpha + beta*t, vb = alpha + beta*b and q = (1 - xi*beta)/(xi*beta).
    """
    if beta == 0.0:
        if alpha <= 0.0:
            raise ParameterError("linearmit with beta=0 needs alpha > 0")
        # the constant-rate model under the linearmit identity, with the
        # inactivity time as the family states it
        log_xa = math.log(xi * alpha)
        return replace(_constant_rate(spec, 1.0 / (xi * alpha), b), eit=lambda t: xi * alpha,
                       log_eit=lambda t: log_xa)
    if not alpha + beta * b > 0.0:
        raise ParameterError("linearmit needs alpha + beta*b > 0")
    if beta > 0.0 and not 0.0 < xi * beta < 1.0:
        raise ParameterError("linearmit with beta > 0 needs 0 < xi*beta < 1")
    return _linearmit_closures(spec, xi, alpha, beta, b, (1.0 - xi * beta) / (xi * beta))


def _linearmit_closures(spec, xi, alpha, beta, b, q):
    """linearmit's closures for beta != 0, with the exponent q given.

    Where -alpha/beta rounds below the root of v = alpha + beta*t, v rounds
    to 0 at the float above the lower end. The closures give the lower-end
    limit there: F = 0, log F = -inf, rhr and rai inf, and density 0, as at
    the endpoint itself, which the open quadrature rule never evaluates.
    """
    vb = alpha + beta * b
    log_vb = math.log(vb)
    qb = q * beta
    log_qb = math.log(qb)
    q_log_vb = q * log_vb
    # 0.0 - alpha, not -alpha: the power law's lower end is 0.0, not -0.0
    lower = (0.0 - alpha) / beta if beta > 0.0 else -math.inf  # q < 0 when beta < 0

    def log_cdf(t):
        v = alpha + beta * t
        return q * (math.log(v) - log_vb) if v != 0.0 else -math.inf

    def cdf(t):
        return math.exp(log_cdf(t))

    def log_pdf(t):
        v = alpha + beta * t
        return log_qb + (q - 1.0) * math.log(v) - q_log_vb if v != 0.0 else -math.inf

    def rhr(t):
        v = alpha + beta * t
        return qb / v if v != 0.0 else math.inf

    def quantile(p):
        return (vb * p ** (1.0 / q) - alpha) / beta

    def rai(t):
        if t >= b:
            return 1.0
        v = alpha + beta * t
        if v == 0.0:
            return math.inf
        d = beta * (t - b) / vb
        # log(v/vb): log1p keeps its digits as t -> b; toward the lower end t - b
        # rounds until d reaches -1, where log1p is -inf and the two logs are not
        lv = math.log1p(d) if d > -0.5 else math.log(v) - log_vb
        return (t - b) * beta / (v * lv)

    def moments(r):
        if beta < 0.0 and r >= -q:
            raise DivergentMoment(
                f"linearmit moment of order {r} diverges for this beta < 0 shape")
        if alpha == 0.0:
            # X = V/beta, where F = (V/vb)^q is uniform: E[V^r] = q vb^r/(q + r)
            if beta > 0.0 and r <= -q:
                raise DivergentMoment(f"power moment of order {r} needs r > -q = {-q}")
            return q * vb ** r / ((q + r) * beta ** r)
        if r < 0:
            return None  # no closed form; raw_moment integrates
        acc = 0.0
        for j in range(r + 1):
            acc += (math.comb(r, j) * (-alpha) ** (r - j) * vb ** j * q / (q + j))
        return acc / beta ** r

    return DistributionModel(
        spec=spec,
        support=SupportInterval(lower, b),
        cdf=cdf, pdf=_from_log(log_pdf), quantile=quantile, log_cdf=log_cdf, log_pdf=log_pdf,
        rhr=rhr,
        eit=lambda t: xi * (alpha + beta * t),
        rai=rai,
        moments=moments,
    )


def _build_basealinkedeit(spec, gamma, delta, a_base, b):
    """log F(t) = gamma*(t - b) + delta*(a^t - a^b); rhr(t) = gamma + delta*ln(a)*a^t."""
    ln_a = math.log(a_base)
    delta_ln_a = delta * ln_a
    ab = math.exp(b * ln_a)
    s = gamma / ln_a

    def log_cdf(t, exp=math.exp):
        return gamma * (t - b) + delta * (exp(t * ln_a) - ab)

    def rhr(t, exp=math.exp):
        return gamma + delta_ln_a * exp(t * ln_a)

    def log_pdf(t, exp=math.exp, log=math.log):
        # log F + log rhr, sharing one exp
        e = exp(t * ln_a)
        return gamma * (t - b) + delta * (e - ab) + log(gamma + delta_ln_a * e)

    def quantile(p):
        return _newton_quantile(p, b, lambda t: log_cdf(t, np.exp), lambda t: rhr(t, np.exp),
                                1e-13, 4e-15)

    def eit(t):
        return _damped_sum(s, delta * math.exp(t * ln_a)) / ln_a

    cdf = _from_log(log_cdf)
    return DistributionModel(
        spec=spec,
        support=SupportInterval(-math.inf, b),
        cdf=cdf, pdf=lambda t: cdf(t) * rhr(t), quantile=quantile, log_cdf=log_cdf,
        log_pdf=log_pdf,
        rhr=rhr, eit=eit,
    )


# alias family -> (parent family, alias parameters -> the parent's, in its order)
_ALIASES = {
    "type3ev": ("linearmit", lambda gamma, b: (1.0 / gamma, 1.0, 0.0, b)),  # xi alpha beta b
    "power": ("linearmit", lambda b, c: (1.0 / (c + 1.0), 0.0, 1.0, b)),
    "uniform": ("linearmit", lambda b: (0.5, 0.0, 1.0, b)),
    "truncevpower": ("basealinkedrhr", lambda alpha, b: (alpha, math.e, b)),  # theta a_base b
    "explinkedeit": ("basealinkedeit", lambda theta, b: (1.0, theta, math.e, b)),
}


def parent_family(spec: FamilySpec) -> Tuple[str, Mapping[str, float]]:
    """(family, params) of a canonical spec's parent at its member, or of the spec itself."""
    if spec.family not in _ALIASES:
        return spec.family, spec.params
    parent, to_parent = _ALIASES[spec.family]
    return parent, dict(zip(_FAMILIES[parent][1], to_parent(**spec.params)))


def _as_parent(alias):
    """An alias's builder: its parent's builder at the parent's parameters."""
    parent, to_parent = _ALIASES[alias]
    return lambda spec, **values: _FAMILIES[parent][0](spec, *to_parent(**values))


# admissible-range rules: (what the message says, test, value handed to the builder)
_POSITIVE = ("> 0", lambda v: 0.0 < v < math.inf, float)
_FINITE = ("finite", math.isfinite, float)
_ABOVE_ONE = ("> 1", lambda v: 1.0 < v < math.inf, float)
_INTEGER = ("integer >= 1", lambda v: 1.0 <= v < math.inf and v == int(v), int)
_ODD_INTEGER = ("odd integer >= 1", lambda v: _INTEGER[1](v) and v % 2.0 == 1.0, int)

# family -> (builder, parameters in canonical order with their rules)
_FAMILIES = {
    "type3ev": (_constant_rate, {"gamma": _POSITIVE, "b": _FINITE}),
    "power": (_build_power, {"b": _POSITIVE, "c": _POSITIVE}),
    "invweibull": (_build_invweibull, {"nu": _POSITIVE, "delta": _POSITIVE}),
    "truncevpower": (_as_parent("truncevpower"), {"alpha": _POSITIVE, "b": _FINITE}),
    "basealinkedrhr": (_build_basealinkedrhr,
                       {"theta": _POSITIVE, "a_base": _ABOVE_ONE, "b": _FINITE}),
    "reflweibull": (_build_reflweibull, {"theta": _POSITIVE, "k": _ODD_INTEGER}),
    "finiterange": (_build_finiterange, {"theta": _POSITIVE, "b": _POSITIVE, "k": _INTEGER}),
    "linearmit": (_build_linearmit,
                  {"xi": _POSITIVE, "alpha": _FINITE, "beta": _FINITE, "b": _FINITE}),
    "explinkedeit": (_as_parent("explinkedeit"), {"theta": _POSITIVE, "b": _FINITE}),
    "basealinkedeit": (_build_basealinkedeit, {"gamma": _POSITIVE, "delta": _POSITIVE,
                                               "a_base": _ABOVE_ONE, "b": _FINITE}),
    "uniform": (_build_uniform, {"b": _POSITIVE}),
}


def make_distribution(spec: FamilySpec) -> DistributionModel:
    family = spec.family.lower()
    if family not in _FAMILIES:
        raise ParameterError(f"unknown family {spec.family!r}")
    build, rules = _FAMILIES[family]
    got = {k.lower() for k in spec.params}
    if got != set(rules):
        raise ParameterError(
            f"{family} takes parameters {sorted(rules)}, got {sorted(got)}")
    params = {k.lower(): float(v) for k, v in spec.params.items()}
    values = {}
    for key, (wanted, admissible, cast) in rules.items():
        if not admissible(params[key]):
            raise ParameterError(f"{family} needs {key} {wanted}, got {params[key]!r}")
        values[key] = cast(params[key])
    canonical = FamilySpec(family, {key: params[key] for key in rules})
    try:
        model = build(canonical, **values)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        # a value inside every single-parameter range that still leaves float range
        raise ParameterError(f"{family} parameters out of range: {exc}") from None
    if math.isinf(model.support.lower):
        return model
    return replace(model, quantile=_above(model.quantile, model.support))


def _above(quantile, support):
    """quantile, kept strictly above a finite lower endpoint.

    Near that endpoint a root can lie closer to it than the spacing of
    floats there (p**(1/c) underflows, or t = lower + tiny rounds onto
    lower); the nearest float inside the support stands in for it.
    """
    floor = math.nextafter(support.lower, support.upper)

    def q(p):
        t = quantile(p)
        return max(t, floor) if isinstance(t, float) else np.maximum(t, floor)

    return q


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
    """The text that parse_family reads back to the same spec: ``:g`` where it keeps every digit."""
    family = spec.family.lower()
    keys = tuple(_FAMILIES[family][1]) if family in _FAMILIES else tuple(sorted(spec.params))
    parts = []
    for k in keys:
        v = spec.params[k]
        g = f"{v:g}"
        parts.append(f"{k}={g}" if float(g) == v else f"{k}={v!r}")
    return f"{family}:{','.join(parts)}"


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
