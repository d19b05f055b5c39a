"""The pure-math special functions of ``distributions`` against mpmath.

exp(y)E1(y), Gamma(s, z)exp(z), erfcx and Gamma are computed without scipy
at run time; exp(y)E1(y) is a power series below 1/2 and the continued
fraction of Gamma(0, y) from there. Each is checked at rel 1e-14 over the
arguments the check matrix passes to it and the edges of its branches, and
its worst error there is held to at most twice that of the scipy call it
replaced (scipy stays a test-time reference only). The scaled Gamma(s, z)exp(z)z^-s behind invweibull's
inactivity time and the damped series behind basealinkedeit's are checked
against mpmath where the unscaled forms leave float range.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc

from revrel import distributions as d


def _logspace(lo, hi, n):
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _around(*points):
    out = []
    for x in points:
        out += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return out


# The matrix passes y in [1, 470] to E1, z in [1e-277, 43.6] with s = 2/3
# (after one upward step from invweibull's s = -1/3) to Gamma(s, z), and
# x in [4e-276, 7e151] to erfcx. The edges: the series/continued-fraction
# switch at y = 1/2, the continued fraction's depth switch at 45, the old
# asymptotic switch at 500; the series/continued-fraction switch at z = 1
# and the depth switch at 45; erfcx's switch at 26.
E1_ARGS = (_logspace(1.0, 470.0, 240) + _logspace(1e-300, 1.0, 40)
           + _logspace(470.0, 1e300, 20) + _around(0.5, 45.0, 500.0))
GAMMA_Z = _logspace(1e-277, 43.6, 120) + _around(1.0, 45.0)
ERFCX_ARGS = (_logspace(4e-276, 7e151, 240) + _logspace(0.3, 40.0, 60)
              + _around(26.0))
# s of the reflweibull closures, 1/(k+1), and the moment arguments
# 1 + r/(k+1) and 1 - r/delta for the catalog-like k and delta
GAMMA_ARGS = sorted({1.0 / (k + 1) for k in (1, 3, 5, 7)}
                    | {1.0 + r / (k + 1) for k in (1, 3, 5) for r in range(-k, 5)}
                    | {1.0 - r / delta for delta in (1.5, 3.0) for r in range(-4, 1)})


def _rel(value, ref):
    return float(abs(mp.mpf(value) - ref) / abs(ref))


def _worst(fn, ref, args):
    with mp.workdps(40):
        return max((_rel(fn(x), ref(x)), x) for x in args)


def _cached(ref):
    # mpmath's incomplete gamma takes milliseconds at tiny z; both tests share each value
    @functools.lru_cache(maxsize=None)
    def at(x):
        with mp.workdps(40):
            return ref(x)
    return at


def _e1_ref(y):
    return mp.exp(y) * mp.e1(y)


def _gamma_ref(s):
    return lambda z: mp.gammainc(s, z) * mp.exp(z)


def _erfcx_ref(x):
    return mp.erfc(x) * mp.exp(mp.mpf(x) ** 2)


def _scipy_e1(y):
    return math.exp(y) * float(sc.exp1(y))


def _scipy_upper_gamma_exp(s, z):
    # the replaced route: gammaincc*gamma, stepped up to a positive s
    def upper(s):
        if s > 0.0:
            return float(sc.gammaincc(s, z) * sc.gamma(s))
        return (upper(s + 1.0) - z ** s * math.exp(-z)) / s
    return upper(s) * math.exp(z)


CASES = {
    "E1": (d._exp_e1, _scipy_e1, _cached(_e1_ref), E1_ARGS),
    "Gamma(2/3, z)": (lambda z: d._upper_gamma_exp(2.0 / 3.0, z),
                      lambda z: _scipy_upper_gamma_exp(2.0 / 3.0, z),
                      _cached(_gamma_ref(2.0 / 3.0)), GAMMA_Z),
    "Gamma(-1/3, z)": (lambda z: d._upper_gamma_exp(-1.0 / 3.0, z),
                       lambda z: _scipy_upper_gamma_exp(-1.0 / 3.0, z),
                       _cached(_gamma_ref(-1.0 / 3.0)), GAMMA_Z),
    "erfcx": (d._erfcx, lambda x: float(sc.erfcx(x)), _cached(_erfcx_ref), ERFCX_ARGS),
    "Gamma": (math.gamma, lambda x: float(sc.gamma(x)), _cached(mp.gamma), GAMMA_ARGS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_replacement_matches_mpmath(name):
    fn, _, ref, args = CASES[name]
    err, at = _worst(fn, ref, args)
    assert err <= 1e-14, f"{name}: rel error {err:.3g} at {at!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_replacement_is_no_worse_than_twice_scipy(name):
    fn, old, ref, args = CASES[name]
    # exp(y)*E1(y) through scipy overflows past y = 709; the old code switched
    # to an asymptotic series there, which the first test covers
    args = [x for x in args if name != "E1" or x < 700.0]
    err, at = _worst(fn, ref, args)
    old_err, old_at = _worst(old, ref, args)
    assert err <= 2.0 * old_err, (
        f"{name}: worst {err:.3g} at {at!r}, scipy's {old_err:.3g} at {old_at!r}")


def _scaled_gamma_ref(s):
    def ref(z):
        with mp.workdps(60):  # at 40 digits mpmath itself is off by 1e-12 at s = -30, z = 173
            return mp.gammainc(s, z) * mp.exp(z) * mp.mpf(z) ** -s
    return ref


@pytest.mark.parametrize("s", [1.0, 0.5, 0.25, 0.0, -1.0, -2.0, -5.5, -30.0])
def test_gamma_continued_fraction_depth_holds_over_its_range(s):
    # the depth claims -30 <= s <= 1 for every z >= 1, across its switch at 45,
    # and s = 0 from z = 1/2, where exp(y)E1(y) leaves its series
    lo = 0.5 if s == 0.0 else 1.0
    err, at = _worst(lambda z: d._upper_gamma_exp(s, z), _gamma_ref(s),
                     _logspace(lo, 45.0, 40))
    assert err <= 1e-14, f"s={s}: rel error {err:.3g} at z={at!r}"
    # scaled by z^-s, so that the value does not underflow out to z = 1e12
    err, at = _worst(lambda z: d._gamma_cf(s, z), _scaled_gamma_ref(s),
                     _logspace(lo, 1e12, 60) + _around(45.0))
    assert err <= 1e-14, f"s={s}: rel error {err:.3g} at z={at!r}"


def test_e1_continued_fraction_stays_near_the_rounding_floor():
    # an ulp is at most 2.2e-16 relative; on [1/2, 64) the backward recursion's
    # rounding costs up to 3.1e-16 (the worst of 3,000 random y), its
    # truncation under 1e-17
    args = [float(v) for v in np.random.default_rng(1).uniform(0.5, 64.0, 400)]
    err, at = _worst(d._exp_e1, _e1_ref, args + _logspace(0.5, 64.0, 200))
    assert err <= 3.5e-16, f"rel error {err:.3g} at {at!r}"


@pytest.mark.parametrize("s", [-30.0, -2.0, -1.0, -0.5, 0.25])
def test_scaled_upper_gamma_is_finite_where_the_unscaled_overflows(s):
    # Gamma(s, z)exp(z) ~ z^s/(-s) leaves float range at tiny z for s < 0;
    # invweibull's inactivity time is t/delta times the scaled form
    err, at = _worst(lambda z: d._upper_gamma_scaled(s, z), _scaled_gamma_ref(s),
                     _logspace(1e-300, 1.0, 10) + _around(1.0))
    assert err <= 1e-14, f"s={s}: rel error {err:.3g} at z={at!r}"


# basealinkedeit's inactivity time is damped_sum(s, w)/ln(a) with s = gamma/ln(a)
# and w = delta*a^t; the catalog has s = 1/ln(2) and w <= 1. The edges: the
# closed form at s = 1, the series/expansion switch at w = 200, and w = 710,
# where the series overflowed.
DAMPED_S = (0.05, 0.3, 1.0, 1.0 / math.log(2.0), 2.5, 13.0, 60.0)
DAMPED_W = (1e-300, 1e-3, 1.0, 50.0) + tuple(_around(200.0)) + (709.0, 711.0, 5e3, 1e5)


@pytest.mark.parametrize("s", DAMPED_S)
def test_damped_sum_matches_mpmath(s):
    # exp(-w) sum_n w^n/(n! (s+n)) = M(1, s+1, -w)/s
    err, at = _worst(lambda w: d._damped_sum(s, w),
                     lambda w: mp.hyp1f1(1, mp.mpf(s) + 1, -mp.mpf(w)) / s, DAMPED_W)
    assert err <= 1e-13, f"s={s}: rel error {err:.3g} at w={at!r}"


@pytest.mark.parametrize("s", [-1.0, -2.0, -0.5, 0.25])
def test_upper_gamma_at_small_z_for_other_orders(s):
    # the upward step lands on Gamma(0, z) = E1(z) for integer s <= 0
    err, at = _worst(lambda z: d._upper_gamma_exp(s, z), _gamma_ref(s),
                     _logspace(1e-30, 1.0, 40) + _around(1.0))
    assert err <= 1e-14, f"s={s}: rel error {err:.3g} at z={at!r}"
