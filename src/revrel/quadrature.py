"""Expectation engine: double-exponential quadrature with divergence classification.

The inequality checks in this package lean on an integrator with three
properties that off-the-shelf fixed rules do not combine:

* open rules only: integrands such as c/x or reciprocal inactivity times
  are singular at an endpoint of the support and must never be evaluated
  there;
* a trustworthy error estimate: ``Converged`` means err_estimate <=
  rel_tol * integral of |f|, with no absolute floor, so scaling f by 2**-n
  scales the value and keeps the status and the evaluation count;
* an explicit verdict when the integral simply does not exist. Several
  expectations in the check matrix diverge (harmonic-type tails), and the
  engine has to say so instead of returning a large number or crashing.

The core rule is tanh-sinh (double-exponential) quadrature on a finite
interval. Abscissas cluster doubly-exponentially at both endpoints, so
integrable endpoint singularities like x**-1/2 converge at machine-level
accuracy without any special casing. Divergence has three signals: the
transformed integrand failing to decay near the clamp of the node window
(the tail-slope rule); an infinite value at any node of a half line, which
no finite chunk peeled off it could hold; and, on a pass about to give up,
the tail-slope rule on a probe just inside the last node that can be
placed, where an endpoint's nodes round onto it (closer than one ulp)
before the tail window. Interval halving is the fallback for
interior trouble. Integrands that only become tractable past the
double-precision node horizon are reported Divergent by the decay rules:
exponents within ~1e-6 of a divergent power, or within ~0.1 at an endpoint
that rounds ((1-x)**-0.91 on (0, 1) has 4% of its mass within one ulp of
1). That is a documented limitation of the classification, not of the
estimate.

One pass serves finite intervals and half lines through two node maps,
x = lo + q*(hi - lo) and x = anchor +/- u/(1-u) (see _nodes). Only the split
rule differs: a finite interval is halved, a half line peels off a finite
chunk next to its anchor. ``expectation`` integrates in log space. Sampling
lives in ``empirics``.

``expectation`` takes a check's weight as data (``ExpectationSpec``): an
x-weight (p, alpha, beta, s) and the log functionals it adds or subtracts,
from which one integrand computes log|w| and its sign inline, one Python
call per node. It reads log_pdf and those log functionals from the model's
``ColumnTable``: one dict read per node, each value computed at the first
read of its abscissa by any expectation on the model and then kept, so a
raw moment's plain weight reads the same rows as the checks. A pass maps a
raise in its integrand itself, in its node loop, and a raise is never kept
in a table.

A pass evaluates only where the integrand is alive. Levels 0 to 3 (97
nodes, the fewest a pass converges on) run in full. Each later level
evaluates only the nodes up to the first node of the coarser grid beyond
the live range: the t-range of the nodes so far whose |g| exceeds 2**-100
of the running integral of |f|. The floor is relative, so scaling f by
2**-n keeps the live range, and it lies far below rounding, so a skipped
term cannot move a sum. A pass with no live node skips nothing. This has a
blind spot: a non-finite value or an isolated bump past the live range is
never evaluated, so it neither ends the pass nor adds to it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

from .errors import ParameterError, QuadratureError, SupportError


class QuadStatus(Enum):
    Converged = "Converged"
    Divergent = "Divergent"
    MaxDepth = "MaxDepth"


@dataclass(frozen=True)
class Tolerances:
    """The engine's one knob: error relative to the integral of |f|."""
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ParameterError("rel_tol must be positive")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    status: QuadStatus
    evaluations: int = 0


@dataclass(frozen=True)
class ExpectationSpec:
    """E[w(X)] against a model, for a plain weight w or for weight data.

    A plain weight is a callable x -> w(x).  The data are an x-weight
    (p, alpha, beta, s), w(x) = (alpha + beta*x)**p * exp(s*x) with p an
    integer and p or s 0, and the log functionals the weight is multiplied
    by: one or two (column name, +1.0 or -1.0) pairs, in the order their
    logs are added to log|w|.  E[1/w] is the x-weight (-p, alpha, beta, -s).
    """

    model: object
    weight: Optional[Callable[[float], float]] = None
    x_weight: Tuple[int, float, float, float] = (0, 0.0, 1.0, 0.0)
    columns: Tuple[Tuple[str, float], ...] = ()


# The log functionals' columns of a column table, by name; column 0 is log_pdf
_COLUMN_SLOTS = {"rhr": 1, "eit": 2, "rai": 3}


class ColumnTable(dict):
    """A model's column table: abscissa x -> row number k.

    Row k's values sit in ``columns``, one list per column: columns[0][k] is
    log_pdf(x), and columns[1], [2] and [3] hold log rhr, log eit and log rai
    at x, each None until a weight first needs it there. A row is no
    object of its own, so the table holds no container per abscissa for the
    garbage collector to walk.  Beside it, ``moments`` keeps the QuadResult
    of each raw moment ``functionals.raw_moment`` integrated, by order.
    """

    __slots__ = ("columns", "moments")

    def __init__(self):
        super().__init__()
        self.columns = ([], [], [], [])
        self.moments = {}


# Node horizon. At |t| = 6 the endpoint distance sigma*sigmac is ~8.6e-276,
# still comfortably above the double-precision floor.
_T_MAX = 6.0
_ROOT_LEVELS = 9
_CHILD_LEVELS = 7
_TAIL_WINDOW = 1.2
_TAIL_SLOPE = -0.05
_MIN_LEVEL = 3
_MAX_DEPTH = 50
# Evaluations per integral. Only a non-zero node ends a sweep on it, so zero-valued
# nodes can overrun it by at most one level-3 sweep (97 nodes) per pending split.
_EVAL_BUDGET = 400_000
_PROBE_NODES = 8
# A node is live when its |g| exceeds this fraction of the running sum of |g|.
_LIVE_FLOOR = 2.0 ** -100
# Levels from here on hold 5,376 of a map's 6,145 nodes, and few sweeps reach
# them, so they are kept as arrays of doubles: a quarter of the memory of
# tuples of floats, for a slower walk over them.
_ARRAY_LEVEL = 7


def _nodes(t):
    """The node at t as (frame, q, w, om) in the finite and in the half-line map.

    A node sits at x = base + step*q for its frame's (base, step), and its
    du weight w is divided by the Jacobian factor om twice.  A finite
    interval (lo, hi) has frames (lo, hi - lo) and (hi, -(hi - lo)), q is
    the node's fraction of the length to its nearest endpoint, and om = 1.
    A half line maps x = anchor + sign*u/(1-u), Jacobian 1/(1-u)**2, through
    the one frame (anchor, sign).  Its u/(1-u) and 1-u come from the
    endpoint-distance fractions instead of from u as a float, so the far
    tail keeps its full double-exponential reach (|x| up to ~1e275) instead
    of being clipped at 1/ulp.  None where the node has no weight left.
    """
    s = 0.5 * math.pi * math.sinh(t)
    em = math.exp(-2.0 * abs(s))
    near = em / (1.0 + em)          # fraction of length to the nearest endpoint
    far = 1.0 / (1.0 + em)
    w = math.pi * math.cosh(t) * near * far
    if near == 0.0 or w == 0.0:
        return None
    # 1 - near is exact: near <= 0.5 by construction
    u, om = (near, 1.0 - near) if t < 0.0 else (1.0 - near, near)
    return (0 if t <= 0.0 else 1, near, w, 1.0), (0, u / om, w, om)


def _level(k):
    """Level k's node tables (t, frame, q, w, om) of the finite and half-line maps.

    Level 0 holds the integers t in [-_T_MAX, _T_MAX]; level k > 0 the odd
    multiples of 2**-k there, in the order +h, -h, +3h, -3h, ...  From
    _ARRAY_LEVEL on a table is stored as five arrays (``_as_arrays``).
    """
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
    finite, half_line = [], []
    for t in ts:
        pair = _nodes(t)
        if pair is not None:
            finite.append((t,) + pair[0])
            half_line.append((t,) + pair[1])
    if k < _ARRAY_LEVEL:
        return tuple(finite), tuple(half_line)
    return _as_arrays(finite), _as_arrays(half_line)


def _as_arrays(nodes):
    """A level's nodes as the arrays t, frame, q, w, om; zip(*arrays) gives them back."""
    return tuple(array(code, column) for code, column in zip("dbddd", zip(*nodes)))


# Node tables by level, one list per map, appended by _pass the first time a
# sweep on that map reaches a level: a process whose sweeps all converge by
# level 6 builds 769 of a map's 6,145 nodes, and one that never integrates
# builds none. The default battery takes finite sweeps to level 9 and half
# lines only to level 7.
_FINITE_NODES, _HALF_LINE_NODES = [], []


def _add_level(nodes):
    """Append the next level to nodes, the table of one map."""
    nodes.append(_level(len(nodes))[nodes is _HALF_LINE_NODES])


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


def _edge_probe(f, half_line, frames, lo, hi, length, target, budget):
    """Signal 2 as (evaluations, divergent), for a pass about to give up.

    Where a side's nodes round onto its endpoint before the tail window, apply
    the tail-slope rule to _PROBE_NODES nodes over one window just inside the
    last node that can be placed.
    """
    evaluations = 0
    tail_start = _T_MAX - _TAIL_WINDOW
    dt = _TAIL_WINDOW / _PROBE_NODES

    def place(t):  # (x, weight over the Jacobian) of the node at t
        frame, q, w, om = _nodes(t)[half_line]
        base, step = frames[frame]
        return base + step * q, w / om / om

    inside = lambda t: lo < place(t)[0] < hi
    for side in (-1.0, 1.0):
        if inside(side * tail_start):
            continue  # the tail window is placeable, the sweep's own rule covers it
        a, b = 0.0, tail_start  # bisect for the last placeable |t|
        for _ in range(40):
            m = 0.5 * (a + b)
            a, b = (m, b) if inside(side * m) else (a, m)
        pts, mass = [], 0.0
        for j in range(1, _PROBE_NODES + 1):
            if a - j * dt <= 0.0:
                break
            t = side * (a - j * dt)
            x, w = place(t)
            g = _safe_eval(f, x) * w
            evaluations += 1
            budget[0] -= 1
            if g != 0.0 and math.isfinite(g):
                pts.append((abs(t), math.log(abs(g))))
                mass += abs(g) * dt * length
        if len(pts) >= 3 and mass > target and _fit_slope(pts) > _TAIL_SLOPE:
            return evaluations, True
    return evaluations, False


def _pass(f, nodes, frames, lo, hi, length, tol, depth, budget) -> QuadResult:
    """One tanh-sinh sweep over the nodes of one map that fall inside (lo, hi).

    Sums scale by h and then by length (1 on a half line); the target is rel_tol
    times the integral of |f|, sum(g) - 2*sum(g < 0).  The live range is the
    t-range of the nodes whose |g| exceeds _LIVE_FLOOR times that sum; it grows
    after each level from the nodes that fell outside it.  Past level
    _MIN_LEVEL, level k + 1 evaluates only nodes within 2**-k of it, so a
    non-finite value or a bump beyond it goes unseen.  A raise in f reads as
    inf (OverflowError, ZeroDivisionError) or NaN (ValueError).  Status
    MaxDepth means the sweep settled nothing: a non-finite value inside a
    finite interval, or the level cap or the evaluation budget reached.  The
    shared budget is written back at the end of each level and on return.
    """
    levels_cap = _ROOT_LEVELS if depth == 0 else _CHILD_LEVELS
    half_line = math.isinf(hi - lo)
    total_wf = 0.0
    total_neg = 0.0  # the negative part of total_wf, so |f| needs no abs() per node
    s_prev = math.nan
    err = math.inf
    evaluations = 0
    left = budget[0]  # the shared budget as this pass found it
    # pooled non-zero tail samples (|t|, log|g|), one pool per endpoint side
    tail = {-1: [], 1: []}
    tail_abs_sum = 0.0
    tail_start = _T_MAX - _TAIL_WINDOW
    isfinite = math.isfinite  # a local: the node loop runs once per evaluation
    live_lo, live_hi = math.inf, -math.inf  # the live range, empty until a node carries mass
    reach_lo, reach_hi = -math.inf, math.inf  # the t-range the next level evaluates

    for k in range(levels_cap + 1):
        if k == len(nodes):
            _add_level(nodes)
        h = 0.5 ** k
        new_wf = 0.0
        new_neg = 0.0
        outside = []  # (t, |g|) of this level's nodes that fell outside the live range
        level = nodes[k] if k < _ARRAY_LEVEL else zip(*nodes[k])
        reach_abs = max(reach_hi, -reach_lo)
        for (t, frame, q, w, om) in level:
            if t < reach_lo or t > reach_hi:
                if abs(t) > reach_abs:
                    break  # a level past 0 runs outward in |t|: every node left lies beyond
                continue  # past the first grid node beyond the live range
            base, step = frames[frame]
            x = base + step * q
            if x <= lo or x >= hi:
                continue  # node rounded onto an endpoint, open rule skips it
            try:
                fx = float(f(x))
            except (OverflowError, ZeroDivisionError):
                fx = math.inf
            except ValueError:
                fx = math.nan
            evaluations += 1
            if fx == 0.0:
                continue  # no mass; only a non-zero node can end a pass on the budget
            g = fx * w
            if om != 1.0:  # dividing by 1 is exact, so finite nodes skip it
                g = g / om / om
            if not isfinite(g):
                edge = abs(t) >= tail_start
                nan = math.isnan(g)
                if nan and edge:
                    continue  # 0*inf artifact at an extreme node, no real mass
                budget[0] = left - evaluations
                # inf at an endpoint the open rule cannot absorb, or signal 1: beyond
                # float range on a half line; a NaN or an inf inside settles nothing
                divergent = not nan and (edge or half_line)
                return QuadResult(total_wf * h * length, math.inf,
                                  QuadStatus.Divergent if divergent else QuadStatus.MaxDepth,
                                  evaluations)
            new_wf += g
            if g < 0.0:
                new_neg += g
            if t < live_lo or t > live_hi:
                outside.append((t, abs(g)))
            if abs(t) >= tail_start and g != 0.0:
                side = -1 if t < 0.0 else 1
                tail[side].append((abs(t), math.log(abs(g))))
                tail_abs_sum += abs(g)
            if evaluations >= left:
                budget[0] = left - evaluations
                return QuadResult((total_wf + new_wf) * h * length, err,
                                  QuadStatus.MaxDepth, evaluations)
        budget[0] = left - evaluations
        total_wf += new_wf
        total_neg += new_neg
        abs_sum = total_wf - 2.0 * total_neg
        floor = _LIVE_FLOOR * abs_sum
        for t, a in outside:
            if a > floor:
                live_lo, live_hi = min(live_lo, t), max(live_hi, t)
        if k >= _MIN_LEVEL and live_lo <= live_hi:
            reach_lo, reach_hi = live_lo - h, live_hi + h
        s_cur = total_wf * h * length
        target = tol.rel_tol * (abs_sum * h * length)
        tail_mass = tail_abs_sum * h * length

        if not math.isnan(s_prev):
            err = abs(s_cur - s_prev)
            for side in (-1, 1):
                pts = tail[side]
                if len(pts) >= 3 and tail_mass > target:
                    if _fit_slope(pts) > _TAIL_SLOPE:
                        return QuadResult(s_cur, math.inf, QuadStatus.Divergent, evaluations)
            if k >= _MIN_LEVEL and err <= target and tail_mass <= target:
                return QuadResult(s_cur, max(err, tail_mass), QuadStatus.Converged,
                                  evaluations)
        s_prev = s_cur

    probed, divergent = _edge_probe(f, half_line, frames, lo, hi, length, target, budget)
    status = QuadStatus.Divergent if divergent else QuadStatus.MaxDepth
    return QuadResult(s_prev, math.inf if divergent else err, status, evaluations + probed)


def _settled(p: QuadResult, depth: int, budget) -> bool:
    """Whether a pass result stands as it is, or its interval should be split."""
    return p.status is not QuadStatus.MaxDepth or depth >= _MAX_DEPTH or budget[0] <= 0


def _combine(left: QuadResult, right: QuadResult, pass_evaluations: int) -> QuadResult:
    """The halves' sum: each met rel_tol times its own integral of |f|, so the sum does."""
    value = left.value + right.value
    err = left.err_estimate + right.err_estimate
    evaluations = left.evaluations + right.evaluations + pass_evaluations
    if left.status is QuadStatus.Divergent or right.status is QuadStatus.Divergent:
        status = QuadStatus.Divergent
    elif left.status is QuadStatus.MaxDepth or right.status is QuadStatus.MaxDepth:
        status = QuadStatus.MaxDepth
    else:
        status = QuadStatus.Converged
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
    return _combine(left, right, p.evaluations)


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     tol: Optional[Tolerances] = None) -> QuadResult:
    """Adaptive estimate of the integral of f over the finite interval (lo, hi).

    Endpoints are never evaluated. Returns a QuadResult whose status is
    Converged (err_estimate <= rel_tol * integral of |f|), Divergent, or
    MaxDepth when the subdivision budget ran out before that was met.
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
    return _combine(finite_part, rest, p.evaluations)


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
    """E[w(X)] for the model in spec, signs preserved.

    The one integrand is w(x)*exp(log_pdf(x)) for a plain weight.  For
    weight data it is sign(w(x))*exp(log_pdf(x) + e) with e = (log|w(x)| +
    c0*l0(x)) + c1*l1(x), where l0 and l1 are the log functionals of the
    spec's columns and c0, c1 their coefficients: one Python call per node,
    which exponentiates once, so a density below float range keeps its finite
    product with a weight above it.  It is 0 without the weight where log_pdf
    is -inf.  log_pdf(x) and l0, l1 come from the model's column table, one
    dict read per node; ``model.log_functional`` fills a log functional's
    column where it is first read.
    """
    model = spec.model
    lo = model.support.lower
    hi = model.support.upper
    table, log_pdf = model._columns, model.log_pdf
    get = table.get
    log_pdfs, rhr, eit, rai = table.columns
    plain = spec.weight
    if plain is None and not 1 <= len(spec.columns) <= 2:
        raise ParameterError("weight data read one or two columns")
    p, a, bt, s = spec.x_weight
    affine = a != 0.0 or bt != 1.0  # a power of x needs no alpha + beta*x per node
    odd = p % 2 == 1
    reads = [(table.columns[_COLUMN_SLOTS[name]], model.log_functional(name), c)
             for name, c in spec.columns] + [(None, None, 0.0)] * 2
    (col0, fill0, c0), (col1, fill1, c1) = reads[:2]

    def integrand(x, exp=math.exp, log=math.log, no_mass=-math.inf):
        k = get(x)
        if k is None:
            lp = log_pdf(x)
            k = table[x] = len(log_pdfs)
            log_pdfs.append(lp)
            rhr.append(None)
            eit.append(None)
            rai.append(None)
        else:
            lp = log_pdfs[k]
        if lp == no_mass:
            return 0.0
        if plain is not None:
            m = exp(lp)
            return plain(x) * m if m != 0.0 else m
        l0 = col0[k]
        if l0 is None:
            l0 = col0[k] = fill0(x)
        if col1 is not None:
            l1 = col1[k]
            if l1 is None:
                l1 = col1[k] = fill1(x)
        if p:
            v = a + bt * x if affine else x
            e = p * log(abs(v)) + c0 * l0
        else:
            e = x * s + c0 * l0
        if col1 is not None:
            e = e + c1 * l1
        m = exp(lp + e)
        return -m if odd and m != 0.0 and not v > 0.0 else m

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
