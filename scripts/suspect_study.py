#!/usr/bin/env python3
"""Numerical study of the four suspect checks.

Four of the twenty cataloged checks carry equality claims that the
engine never reproduces on the families those claims name. This script
shows why, from two directions:

1. For T3_2, T3_3 and T3_6 the reciprocal-weighted factor genuinely
   diverges: the windowed integral over [quantile(eps), b) is computed
   for shrinking eps and grows without bound, with the growth exponent
   printed next to each window.

2. For T3_7 both factors converge, so the product is a well-defined
   number; at the catalog default it is not 1. The ratio is swept across
   a tolerance ladder (stable) and a parameter grid. It is not bounded
   away from 1: as gamma grows the law concentrates at b, w*eit flattens
   and the ratio falls toward 1, reading Equality from gamma = 256.

Usage:
    python3 scripts/suspect_study.py
"""

import math
import sys

from revrel.characterizations import TheoremId, make_check, run_check
from revrel.distributions import model_from_text, quantile_at
from revrel.functionals import eit
from revrel.quadrature import QuadStatus, Tolerances, integrate_finite


def windowed_reciprocal_factor(model, weight, eps):
    """Integral of pdf(x) / (weight(x) * eit(x)) over [quantile(eps), b)."""
    lo = quantile_at(model, eps)
    hi = model.support.upper

    def integrand(x):
        d = model.pdf(x)
        if d == 0.0:
            return 0.0
        return d / (weight(x) * eit(model, x))

    res = integrate_finite(integrand, lo, hi, Tolerances(rel_tol=1e-8))
    if res.status is not QuadStatus.Converged:
        return math.inf
    return res.value


def divergence_table(label, text, weight, note):
    print(f"\n{label} on {text}")
    print(f"  {'eps':>8s}  {'window integral':>16s}  {'x growth':>10s}  {'+ growth':>10s}")
    prev = None
    for k in range(2, 7):
        eps = 10.0 ** -k
        val = windowed_reciprocal_factor(model_from_text(text), weight, eps)
        if prev is None:
            ratio_col = diff_col = ""
        else:
            ratio_col = f"{val / prev:10.3f}"
            diff_col = f"{val - prev:10.4g}"
        print(f"  {eps:8.0e}  {val:16.6g}  {ratio_col:>10s}  {diff_col:>10s}")
        prev = val
    print(f"  {note}")


def t3_7_stability():
    text = "basealinkedeit:gamma=1,delta=1,a_base=2,b=0"
    check = make_check(TheoremId.T3_7)
    print(f"\nT3_7 on {text}")
    print("  tolerance ladder:")
    for rel in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        tol = Tolerances(rel_tol=rel)
        r = run_check(check, model_from_text(text), tol=tol)
        print(f"    rel_tol={rel:.0e}  ratio={r.ratio:.12f}  {r.verdict.value}")

    print("  parameter grid (lhs/rhs ratio, delta = 0.5, 1, 2 across):")
    worst = math.inf
    for gamma in (0.75, 1.0, 2.0):
        cells = []
        for delta in (0.5, 1.0, 2.0):
            m = model_from_text(f"basealinkedeit:gamma={gamma},delta={delta},a_base=2,b=0")
            r = run_check(check, m)
            cells.append(f"{r.ratio:8.4f}")
            worst = min(worst, r.ratio)
        print(f"    gamma={gamma:<4g} " + "  ".join(cells))
    print(f"  minimum ratio over the grid: {worst:.4f}")
    print("  as gamma grows the law concentrates at b and the ratio falls to 1:")
    for gamma in (2.0, 64.0, 256.0):
        m = model_from_text(f"basealinkedeit:gamma={gamma},delta=0.5,a_base=2,b=0")
        r = run_check(check, m)
        print(f"    gamma={gamma:<4g} delta=0.5  ratio={r.ratio:.7f}  {r.verdict.value}")
    print("  below gamma = ln(2) the left tail outruns the 2^-x weight and the")
    print("  factor itself stops existing; the engine reports those Divergent")


def main():
    # near the lower endpoint the integrand behaves like const/x^2
    # while quantile(eps) ~ eps, so the window integral scales as 1/eps
    divergence_table("T3_2 factor E[1/(X*eit(X))]",
                     "finiterange:theta=0.5,b=1,k=1", lambda x: x,
                     "value multiplies by ~10 per decade (scales as 1/eps): diverges")
    # same const/x^2 core, but quantile(eps) ~ sqrt(eps) here
    divergence_table("T3_3 factor E[1/(X^2*eit(X))]",
                     "finiterange:theta=0.5,b=1,k=2", lambda x: x * x,
                     "value multiplies by ~sqrt(10) per decade (scales as 1/sqrt(eps)): diverges")
    # integrand tends to a constant on the left tail, quantile(eps) ~ ln(eps)
    divergence_table("T3_6 factor E[1/(exp(X)*eit(X))]",
                     "explinkedeit:theta=1,b=0", math.exp,
                     "value gains a fixed increment per decade (scales as |ln eps|): diverges")
    t3_7_stability()
    return 0


if __name__ == "__main__":
    sys.exit(main())
