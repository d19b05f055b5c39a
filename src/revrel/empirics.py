"""Plug-in estimation of the inactivity mean and family ranking from data.

Everything here is estimation plumbing layered over sorted samples, and
inverse-cdf sampling from a model produces them.  The
inactivity mean has a clean empirical counterpart: replace the cdf by
the empirical cdf and the estimate at t becomes the average of (t - x_i)
over the sample points at or below t.  The product-form checks built on
the inactivity mean (and only those; the rate-based checks would need
density estimation, which is out of scope) then get plug-in gap
statistics, and ranking candidates by how close their characterizing
ratio sits to 1 gives a crude but usable identification procedure.

The smallest order statistics make 1/m-hat explode, so gap statistics
evaluate only above a trimmed fraction of the sample (default 0.05) and
never at the minimum itself, where the estimate is exactly zero.

A sample lives in one of two containers, picked by what the caller hands
in: a list or tuple of at most ``_FLOATS_MAX`` values stays a sorted tuple
of floats, and ``empirical_eit``, ``gap_statistics`` and ``identify`` run
on it in plain Python without loading numpy (a cold ``revrel identify``
on a sample file is mostly numpy's import otherwise); an ndarray or a
longer sequence becomes a sorted float64 array.  The tuple path repeats
numpy's operations one by one, its pairwise summation included, so both
give the same floats bit for bit.  Both store -0.0 as +0.0: sorting leaves
the order of the two zeros to the input, and with it the sign of m-hat at
a zero order statistic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import Callable, Sequence, Tuple, Union

from .characterizations import TheoremId
from .distributions import np
from .errors import NoMass, NonFiniteWeight, ParameterError, TooFewPoints

# glibc's malloc serves blocks above its mmap threshold (128 KiB at start) by
# mmap and trims freed heap above twice that, so every sample-sized array
# (20,000 draws fill 160 KiB) would fault its pages in afresh. Freeing one
# large mmapped block raises both thresholds for the rest of the process and
# keeps such arrays on a reused heap: a 20k-draw sample plus identify runs
# about 25% faster. The block is never touched, so it costs no resident memory.
# The lazy ``np`` handle (distributions._Numpy) frees it right after it first
# imports numpy, before any sample-sized array exists.

__all__ = [
    "DEFAULT_CANDIDATES",
    "GapStatistic",
    "RankedCandidate",
    "RankingReport",
    "SampleSet",
    "empirical_eit",
    "gap_statistics",
    "identify",
    "mc_expectation",
    "read_samples",
    "sample_inverse_cdf",
]

# Longest list or tuple a SampleSet keeps as plain floats: the largest power
# of two at which a cold `revrel identify` on the float path is no slower
# than on the numpy path, whose import alone takes about 130 ms (2-core x86
# host, medians of 15: 162 against 222 ms at 2**15, 273 against 260 ms at 2**16).
_FLOATS_MAX = 32768


@dataclass(frozen=True)
class SampleSet:
    """Sorted finite sample; the constructor sorts whatever order comes in.

    ``values`` is a sorted tuple of floats when a list or tuple of at most
    ``_FLOATS_MAX`` values comes in, and a sorted float64 ndarray otherwise
    (an ndarray, or a longer sequence). The statistics in this module give
    the same floats on both.
    """

    values: Union[Tuple[float, ...], np.ndarray]

    def __post_init__(self) -> None:
        if isinstance(self.values, (list, tuple)) and len(self.values) <= _FLOATS_MAX:
            try:
                floats = tuple(sorted(float(v) + 0.0 for v in self.values))  # -0.0 + 0.0 is +0.0
            except (TypeError, ValueError):
                raise ParameterError("sample must be a nonempty 1-d array of numbers")
            if not floats:
                raise ParameterError("sample must be a nonempty 1-d array")
            if not all(map(math.isfinite, floats)):
                raise ParameterError("sample values must all be finite")
            object.__setattr__(self, "values", floats)
            return
        try:
            arr = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):
            raise ParameterError("sample must be a nonempty 1-d array of numbers")
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("sample must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("sample values must all be finite")
        values = np.sort(arr)
        values += 0.0  # in place on the sorted copy: -0.0 becomes +0.0
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)


def sample_inverse_cdf(model, n: int, seed: int):
    """n inverse-cdf draws from the model, deterministic for a fixed seed."""
    if n < 1:
        raise ParameterError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.integers(1, 2 ** 53, size=n) / float(2 ** 53)  # open (0,1)
    return SampleSet(values=_apply(model.quantile, u))  # SampleSet sorts


def _apply(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """f over xs: one call on the whole array where f takes arrays, else value by value."""
    try:
        arr = np.asarray(f(xs), dtype=float)
        if arr.shape == xs.shape:
            return arr
    except (TypeError, ValueError):
        pass
    return np.fromiter((f(float(v)) for v in xs), dtype=float, count=xs.size)


def mc_expectation(samples, g: Callable[[float], float]):
    """Sample mean and standard error of g over the sample values."""
    with np.errstate(all="ignore"):
        vals = _apply(g, np.asarray(samples.values, dtype=float))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteWeight("weight function produced a non-finite value on the sample")
    n = len(vals)
    mean = float(vals.mean())
    stderr = math.inf if n < 2 else float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr


@dataclass(frozen=True)
class GapStatistic:
    theorem: TheoremId
    lhs_hat: float
    rhs_hat: float
    ratio_hat: float
    trimmed_fraction: float


@dataclass(frozen=True)
class RankedCandidate:
    family: str
    theorem: TheoremId
    ratio_hat: float
    score: float   # |ratio_hat - 1|, smaller is better
    spread: float  # tie-break: |ratio(trim=0.02) - ratio(trim=0.10)|


@dataclass(frozen=True)
class RankingReport:
    n: int
    trim: float
    ranking: Tuple[RankedCandidate, ...] = field(default_factory=tuple)


# label -> characterizing product check on the inactivity mean:
# constant m, m inverse-linked to x, m proportional to x
DEFAULT_CANDIDATES: Tuple[Tuple[str, TheoremId], ...] = (
    ("type3ev", TheoremId.T3_1),
    ("finiterange", TheoremId.T3_2),
    ("power", TheoremId.T3_4),
)


def empirical_eit(sample: SampleSet, t: float) -> float:
    """Average of (t - x_i) over sample points x_i <= t.

    Raises NoMass below the sample minimum, where the empirical cdf
    vanishes and the conditional mean is undefined.
    """
    vals = sample.values
    floats = isinstance(vals, tuple)
    k = bisect.bisect_right(vals, t) if floats else int(np.searchsorted(vals, t, side="right"))
    if k == 0:
        raise NoMass(f"no sample mass at or below t={t!r}")
    total = _pairwise_sum(vals[:k]) if floats else vals[:k].sum()
    return float(t - total / k)


def _pairwise_sum(xs: Sequence[float]) -> float:
    """numpy's float64 ``add.reduce`` of xs, bit for bit: its initial 0.0
    plus the pairwise sum of ``_pairwise``."""
    return 0.0 + _pairwise(xs, 0, len(xs))


def _pairwise(xs: Sequence[float], lo: int, hi: int) -> float:
    # numpy's pairwise_sum over xs[lo:hi]: fewer than 8 terms in order from
    # 0.0; up to 128 terms in 8 strided running sums, combined as a tree, then
    # the remainder in order; longer runs split at n/2 rounded down to a
    # multiple of 8
    n = hi - lo
    if n < 8:
        return reduce(add, xs[lo:hi], 0.0)
    if n <= 128:
        body = hi - n % 8
        r = [reduce(add, xs[j:body:8]) for j in range(lo, lo + 8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[body:hi], tree)
    half = n // 2
    half -= half % 8
    return _pairwise(xs, lo, lo + half) + _pairwise(xs, lo + half, hi)


def _mean(xs: Sequence[float]) -> float:
    """np.mean of a float64 array holding xs; nan when xs is empty."""
    return _pairwise_sum(xs) / len(xs) if xs else math.nan


def _reciprocals(xs: Sequence[float]) -> list:
    """1.0 / x for each x, a zero giving numpy's signed infinity."""
    try:
        return [1.0 / x for x in xs]
    except ZeroDivisionError:
        return [1.0 / x if x else math.copysign(math.inf, x) for x in xs]


def _eit_at_order_statistics(vals: np.ndarray) -> np.ndarray:
    # m-hat at x_(i) via prefix sums: x_(i) - mean(x_(1..i)), 0-based here
    prefix = np.cumsum(vals)
    idx = np.arange(1, vals.size + 1, dtype=float)
    return vals - prefix / idx


def gap_statistics(sample: SampleSet, trim: float = 0.05) -> Tuple[GapStatistic, ...]:
    """Plug-in product ratios for the inactivity-mean product checks.

    Evaluates m-hat at every order statistic above the trimmed head of
    the sample (never at the minimum, where m-hat is exactly 0), then
    averages each check's two weight transforms and reports the product
    of the averages as ratio_hat.  Order statistics exactly at zero are
    skipped in the x-weighted transforms.
    """
    if not 0.0 <= trim < 1.0:
        raise ParameterError(f"trim must lie in [0, 1), got {trim!r}")
    n = sample.n
    if n < 50:
        raise TooFewPoints(f"need at least 50 points, got {n}")
    vals = sample.values
    start = max(math.ceil(trim * n) + 1, 2)  # 1-based order statistic index
    if start > n:
        raise TooFewPoints(f"trim {trim!r} leaves none of the {n} order statistics")
    if isinstance(vals, tuple):
        return _float_gap_statistics(vals, start, trim)
    m_hat = _eit_at_order_statistics(vals)
    m_used = m_hat[start - 1:]
    x_used = vals[start - 1:]

    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # constant inactivity mean: mean(1/m) * mean(m)
        lhs = float(np.mean(1.0 / m_used))
        inv_rhs = float(np.mean(m_used))
        out.append(GapStatistic(TheoremId.T3_1, lhs,
                                _safe_recip(inv_rhs), lhs * inv_rhs, trim))

        nz = x_used != 0.0
        xm = x_used[nz] * m_used[nz]
        lhs = float(np.mean(1.0 / xm))
        inv_rhs = float(np.mean(xm))
        out.append(GapStatistic(TheoremId.T3_2, lhs,
                                _safe_recip(inv_rhs), lhs * inv_rhs, trim))

        ratio_mx = m_used[nz] / x_used[nz]
        lhs = float(np.mean(ratio_mx))
        inv_rhs = float(np.mean(1.0 / ratio_mx))
        out.append(GapStatistic(TheoremId.T3_4, lhs,
                                _safe_recip(inv_rhs), lhs * inv_rhs, trim))
    return tuple(out)


def _float_gap_statistics(vals: Tuple[float, ...], start: int,
                          trim: float) -> Tuple[GapStatistic, ...]:
    # gap_statistics' ndarray code on plain floats, one numpy operation at a
    # time: cumsum is a running sum in order, then x - prefix / i elementwise
    m_hat = [x - p / i for i, x, p in zip(range(1, len(vals) + 1), vals, accumulate(vals))]
    m_used = m_hat[start - 1:]
    x_used = vals[start - 1:]
    xm = [x * m for x, m in zip(x_used, m_used) if x != 0.0]
    ratio_mx = [m / x for x, m in zip(x_used, m_used) if x != 0.0]
    return tuple(GapStatistic(theorem, lhs, _safe_recip(inv_rhs), lhs * inv_rhs, trim)
                 for theorem, lhs, inv_rhs in (
                     (TheoremId.T3_1, _mean(_reciprocals(m_used)), _mean(m_used)),
                     (TheoremId.T3_2, _mean(_reciprocals(xm)), _mean(xm)),
                     (TheoremId.T3_4, _mean(ratio_mx), _mean(_reciprocals(ratio_mx)))))


def _safe_recip(v: float) -> float:
    return 1.0 / v if v != 0.0 else math.inf


def _ratio_by_theorem(stats: Sequence[GapStatistic]) -> dict:
    return {s.theorem: s.ratio_hat for s in stats}


def identify(sample: SampleSet, trim: float = 0.05) -> RankingReport:
    """Rank the DEFAULT_CANDIDATES families by closeness of their plug-in ratio to 1.

    Ties in |ratio_hat - 1| break toward the candidate whose ratio moves
    least when the trim fraction is re-run at 0.02 and 0.10; remaining
    ties keep DEFAULT_CANDIDATES order (stable sort).
    """
    main = _ratio_by_theorem(gap_statistics(sample, trim))
    lo = _ratio_by_theorem(gap_statistics(sample, 0.02))
    hi = _ratio_by_theorem(gap_statistics(sample, 0.10))

    ranked = []
    for label, theorem in DEFAULT_CANDIDATES:
        ratio = main[theorem]
        score = abs(ratio - 1.0)
        if math.isnan(score):
            score = math.inf
        spread = abs(lo[theorem] - hi[theorem])
        if math.isnan(spread):
            spread = math.inf
        ranked.append(RankedCandidate(label, theorem, ratio, score, spread))
    ranked.sort(key=lambda rc: (rc.score, rc.spread))
    return RankingReport(n=sample.n, trim=trim, ranking=tuple(ranked))


def read_samples(path: Union[str, Path]) -> SampleSet:
    """One decimal value per line; '#' comment lines and blanks skipped."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ParameterError(
                    f"{path}: line {lineno}: not a decimal value: {line!r}")
            if not math.isfinite(value):
                raise ParameterError(
                    f"{path}: line {lineno}: not a finite value: {line!r}")
            values.append(value)
    if not values:
        raise ParameterError(f"{path}: no sample values found")
    return SampleSet(values=values)
