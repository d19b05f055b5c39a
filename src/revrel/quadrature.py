"""Expectation engine: double-exponential quadrature with divergence classification.

The inequality checks in this package lean on an integrator with three
properties that off-the-shelf fixed rules do not combine:

* open rules only: integrands such as c/x or reciprocal inactivity times
  are singular at an endpoint of the support and must never be evaluated
  there;
* a trustworthy error estimate tied to the requested tolerances;
* an explicit verdict when the integral simply does not exist. Several
  expectations in the check matrix diverge (harmonic-type tails), and the
  engine has to say so instead of returning a large number or crashing.

The core rule is tanh-sinh (double-exponential) quadrature on a finite
interval. Abscissas cluster doubly-exponentially at both endpoints, so
integrable endpoint singularities like x**-1/2 converge at machine-level
accuracy without any special casing. Divergence is classified by two
heuristics: the transformed integrand failing to decay near the clamp of
the node window, and the running estimate growing by more than a fixed
factor over several consecutive refinement levels. Interval halving is
the fallback for interior trouble. Integrands that only become tractable
past the double-precision node horizon (exponents within ~1e-6 of a
divergent power) are reported Divergent by the decay heuristic; that is a
documented limitation of the classification, not of the estimate.

One pass serves finite intervals and half lines through two node maps,
x = lo + q*(hi - lo) and x = anchor +/- u/(1-u) (see _build_levels). Only
the split rule differs: a finite interval is halved, a half line peels off
a finite chunk next to its anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteWeight, ParameterError, QuadratureError, SupportError


class QuadStatus(Enum):
    Converged = "Converged"
    Divergent = "Divergent"
    MaxDepth = "MaxDepth"


@dataclass(frozen=True)
class Tolerances:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ParameterError("tolerances must be positive")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    status: QuadStatus
    evaluations: int = 0


@dataclass(frozen=True)
class ExpectationSpec:
    """A weighted expectation E[weight(X)] against a distribution model."""

    model: object
    weight: Callable[[float], float]


# Node horizon. At |t| = 6 the endpoint distance sigma*sigmac is ~8.6e-276,
# still comfortably above the double-precision floor.
_T_MAX = 6.0
_ROOT_LEVELS = 9
_CHILD_LEVELS = 7
_TAIL_WINDOW = 1.2
_TAIL_SLOPE = -0.05
_GROWTH_FACTOR = 1.5
_GROWTH_RUNS = 5
_MIN_LEVEL = 3
_MAX_DEPTH = 50
_EVAL_BUDGET = 400_000


def _build_levels(max_level):
    """Per-level node tables (t, frame, q, w, om) of the finite and half-line maps.

    A node sits at x = base + step*q for its frame's (base, step), and its
    du weight w is divided by the Jacobian factor om twice.  A finite
    interval (lo, hi) has frames (lo, hi - lo) and (hi, -(hi - lo)), q is
    the node's fraction of the length to its nearest endpoint, and om = 1.
    A half line maps x = anchor + sign*u/(1-u), Jacobian 1/(1-u)**2, through
    the one frame (anchor, sign).  Its u/(1-u) and 1-u come from the
    endpoint-distance fractions instead of from u as a float, so the far
    tail keeps its full double-exponential reach (|x| up to ~1e275) instead
    of being clipped at 1/ulp.
    """
    finite, half_line = [], []
    for k in range(max_level + 1):
        h = 0.5 ** k
        ts = []
        if k == 0:
            ts.extend(float(j) for j in range(0, int(_T_MAX) + 1))
            ts.extend(-float(j) for j in range(1, int(_T_MAX) + 1))
        else:
            j = 1
            while j * h <= _T_MAX:
                ts.append(j * h)
                ts.append(-j * h)
                j += 2
        finite.append([])
        half_line.append([])
        for t in ts:
            s = 0.5 * math.pi * math.sinh(t)
            em = math.exp(-2.0 * abs(s))
            near = em / (1.0 + em)          # fraction of length to the nearest endpoint
            far = 1.0 / (1.0 + em)
            w = math.pi * math.cosh(t) * near * far
            if near == 0.0 or w == 0.0:
                continue
            finite[-1].append((t, 0 if t <= 0.0 else 1, near, w, 1.0))
            # 1 - near is exact: near <= 0.5 by construction
            u, om = (near, 1.0 - near) if t < 0.0 else (1.0 - near, near)
            half_line[-1].append((t, 0, u / om, w, om))
    return tuple(map(tuple, finite)), tuple(map(tuple, half_line))


_FINITE_NODES, _HALF_LINE_NODES = _build_levels(_ROOT_LEVELS)


def _safe_eval(f, x):
    try:
        v = f(x)
    except (OverflowError, ZeroDivisionError):
        return math.inf
    except ValueError:
        return math.nan
    return float(v)


def _fit_slope(points):
    # least squares slope of log|g| against |t|
    n = len(points)
    mt = sum(p[0] for p in points) / n
    mg = sum(p[1] for p in points) / n
    num = sum((p[0] - mt) * (p[1] - mg) for p in points)
    den = sum((p[0] - mt) ** 2 for p in points)
    if den == 0.0:
        return 0.0
    return num / den


def _pass(f, nodes, frames, lo, hi, length, tol, depth, budget) -> QuadResult:
    """One tanh-sinh sweep over the nodes of one map that fall inside (lo, hi).

    The level sum is scaled by h and then by length (1 on a half line).
    Status MaxDepth means the sweep settled nothing: a non-finite value away
    from the endpoints, or the level cap or the evaluation budget reached.
    """
    levels_cap = _ROOT_LEVELS if depth == 0 else _CHILD_LEVELS
    total_wf = 0.0
    s_prev = math.nan
    err = math.inf
    growth_run = 0
    evaluations = 0
    # pooled non-zero tail samples (|t|, log|g|), one pool per endpoint side
    tail = {-1: [], 1: []}
    tail_abs_sum = 0.0

    for k in range(levels_cap + 1):
        h = 0.5 ** k
        new_wf = 0.0
        for (t, frame, q, w, om) in nodes[k]:
            base, step = frames[frame]
            x = base + step * q
            if x <= lo or x >= hi:
                continue  # node rounded onto an endpoint, open rule skips it
            fx = _safe_eval(f, x)
            evaluations += 1
            budget[0] -= 1
            if fx == 0.0:
                continue  # no mass; only a non-zero node can end a pass on the budget
            g = fx * w
            if om != 1.0:  # dividing by 1 is exact, so finite nodes skip it
                g = g / om / om
            if not math.isfinite(g):
                if abs(t) >= _T_MAX - _TAIL_WINDOW:
                    if math.isnan(g):
                        continue  # 0*inf artifact at an extreme node, no real mass
                    # blow-up right at an endpoint that the open rule cannot absorb
                    return QuadResult(total_wf * h * length, math.inf,
                                      QuadStatus.Divergent, evaluations)
                return QuadResult(total_wf * h * length, math.inf,
                                  QuadStatus.MaxDepth, evaluations)
            new_wf += g
            if abs(t) >= _T_MAX - _TAIL_WINDOW and g != 0.0:
                side = -1 if t < 0.0 else 1
                tail[side].append((abs(t), math.log(abs(g))))
                tail_abs_sum += abs(g)
            if budget[0] <= 0:
                return QuadResult((total_wf + new_wf) * h * length, err,
                                  QuadStatus.MaxDepth, evaluations)
        total_wf += new_wf
        s_cur = total_wf * h * length
        target = max(tol.abs_tol, tol.rel_tol * abs(s_cur))
        tail_mass = tail_abs_sum * h * length

        if not math.isnan(s_prev):
            err = abs(s_cur - s_prev)
            if abs(s_cur) > _GROWTH_FACTOR * abs(s_prev) and abs(s_cur) > 10.0 * tol.abs_tol:
                growth_run += 1
                if growth_run >= _GROWTH_RUNS:
                    return QuadResult(s_cur, math.inf, QuadStatus.Divergent, evaluations)
            else:
                growth_run = 0
            for side in (-1, 1):
                pts = tail[side]
                if len(pts) >= 3 and tail_mass > target:
                    if _fit_slope(pts) > _TAIL_SLOPE:
                        return QuadResult(s_cur, math.inf, QuadStatus.Divergent, evaluations)
            if k >= _MIN_LEVEL and err <= target and tail_mass <= target:
                return QuadResult(s_cur, max(err, tail_mass), QuadStatus.Converged,
                                  evaluations)
        s_prev = s_cur

    return QuadResult(s_prev, err, QuadStatus.MaxDepth, evaluations)


def _settled(p: QuadResult, depth: int, budget) -> bool:
    """Whether a pass result stands as it is, or its interval should be split."""
    return p.status is not QuadStatus.MaxDepth or depth >= _MAX_DEPTH or budget[0] <= 0


def _combine(left: QuadResult, right: QuadResult, tol: Tolerances,
             pass_evaluations: int) -> QuadResult:
    value = left.value + right.value
    err = left.err_estimate + right.err_estimate
    evaluations = left.evaluations + right.evaluations + pass_evaluations
    if left.status is QuadStatus.Divergent or right.status is QuadStatus.Divergent:
        status = QuadStatus.Divergent
    elif left.status is QuadStatus.MaxDepth or right.status is QuadStatus.MaxDepth:
        status = QuadStatus.MaxDepth
    else:
        status = QuadStatus.Converged
        if err > max(tol.abs_tol, tol.rel_tol * abs(value)):
            # the halves converged individually but their combined error
            # no longer meets the contract, so do not claim convergence
            status = QuadStatus.MaxDepth
    return QuadResult(value, err, status, evaluations)


def _integrate(f, lo, hi, tol, depth, budget) -> QuadResult:
    length = hi - lo
    p = _pass(f, _FINITE_NODES, ((lo, length), (hi, -length)), lo, hi, length,
              tol, depth, budget)
    if _settled(p, depth, budget):
        return p
    mid = 0.5 * (lo + hi)
    if not (lo < mid < hi):
        return p
    left = _integrate(f, lo, mid, tol, depth + 1, budget)
    right = _integrate(f, mid, hi, tol, depth + 1, budget)
    return _combine(left, right, tol, p.evaluations)


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     tol: Optional[Tolerances] = None) -> QuadResult:
    """Adaptive estimate of the integral of f over the finite interval (lo, hi).

    Endpoints are never evaluated. Returns a QuadResult whose status is
    Converged, Divergent, or MaxDepth when the subdivision budget ran out
    before the tolerance was met.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("integrate_finite needs finite endpoints")
    if not lo < hi:
        raise ParameterError("integrate_finite needs lo < hi")
    return _integrate(f, lo, hi, tol or DEFAULT_TOL, 0, [_EVAL_BUDGET])


def _half_line(f, anchor, sign, tol, depth, budget) -> QuadResult:
    lo, hi = (anchor, math.inf) if sign > 0 else (-math.inf, anchor)
    p = _pass(f, _HALF_LINE_NODES, ((anchor, sign),), lo, hi, 1.0, tol, depth, budget)
    if _settled(p, depth, budget):
        return p
    # peel off a finite chunk next to the anchor and push the anchor outward;
    # doubling offsets reach any finite trouble spot in O(log) splits
    cut = anchor + sign * 2.0 ** depth
    finite_part = _integrate(f, min(anchor, cut), max(anchor, cut), tol, depth + 1, budget)
    rest = _half_line(f, cut, sign, tol, depth + 1, budget)
    return _combine(finite_part, rest, tol, p.evaluations)


def integrate_lower_unbounded(f: Callable[[float], float], hi: float,
                              tol: Optional[Tolerances] = None) -> QuadResult:
    """Integral of f over (-inf, hi] via the substitution x = hi - u/(1-u)."""
    if not math.isfinite(hi):
        raise ParameterError("integrate_lower_unbounded needs a finite upper endpoint")
    return _half_line(f, hi, -1.0, tol or DEFAULT_TOL, 0, [_EVAL_BUDGET])


def integrate_upper_unbounded(f: Callable[[float], float], lo: float,
                              tol: Optional[Tolerances] = None) -> QuadResult:
    """Integral of f over [lo, inf), the mirror of integrate_lower_unbounded."""
    if not math.isfinite(lo):
        raise ParameterError("integrate_upper_unbounded needs a finite lower endpoint")
    return _half_line(f, lo, 1.0, tol or DEFAULT_TOL, 0, [_EVAL_BUDGET])


def expectation(spec: ExpectationSpec, tol: Optional[Tolerances] = None) -> QuadResult:
    """E[weight(X)] for the model in spec, signs preserved.

    The integrand evaluates the density first and short-circuits to zero
    wherever it vanishes, so weights may blow up in regions the model puts
    no mass on.
    """
    model = spec.model
    weight = spec.weight
    lo = model.support.lower
    hi = model.support.upper

    def integrand(x):
        p = model.pdf(x)
        if p == 0.0:
            return 0.0
        return p * weight(x)

    if math.isinf(lo) and math.isinf(hi):
        raise ParameterError("doubly unbounded supports are not used here")
    if math.isinf(lo):
        return integrate_lower_unbounded(integrand, hi, tol)
    if math.isinf(hi):
        return integrate_upper_unbounded(integrand, lo, tol)
    return integrate_finite(integrand, lo, hi, tol)


def cdf_cumulative_integral(model, t: float, tol: Optional[Tolerances] = None) -> float:
    """The integral of the cdf from the lower support endpoint up to t."""
    lo = model.support.lower
    hi = model.support.upper
    if not (lo < t <= hi):
        raise SupportError(f"t={t!r} outside ({lo!r}, {hi!r}]")
    if math.isinf(lo):
        r = integrate_lower_unbounded(model.cdf, t, tol)
    else:
        r = integrate_finite(model.cdf, lo, t, tol)
    if r.status is not QuadStatus.Converged:
        raise QuadratureError(f"cumulative cdf integral did not converge at t={t!r}")
    return r.value


def sample_inverse_cdf(model, n: int, seed: int):
    """n inverse-cdf draws from the model, deterministic for a fixed seed."""
    if n < 1:
        raise ParameterError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.integers(1, 2 ** 53, size=n) / float(2 ** 53)  # open (0,1)
    xs = None
    try:
        arr = model.quantile(u)
        arr = np.asarray(arr, dtype=float)
        if arr.shape == u.shape:
            xs = arr
    except (TypeError, ValueError):
        xs = None
    if xs is None:
        xs = np.fromiter((model.quantile(float(v)) for v in u), dtype=float, count=n)
    from .empirics import SampleSet  # imported here to avoid a module cycle

    return SampleSet(values=np.sort(xs))


def mc_expectation(samples, g: Callable[[float], float]):
    """Sample mean and standard error of g over the sample values."""
    vals = None
    with np.errstate(all="ignore"):
        try:
            arr = np.asarray(g(samples.values), dtype=float)
            if arr.shape == samples.values.shape:
                vals = arr
        except (TypeError, ValueError):
            vals = None
        if vals is None:
            vals = np.fromiter((g(float(v)) for v in samples.values), dtype=float,
                               count=len(samples.values))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteWeight("weight function produced a non-finite value on the sample")
    n = len(vals)
    mean = float(vals.mean())
    stderr = math.inf if n < 2 else float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr
