#!/usr/bin/env python3
"""Generate src/revrel/_e1_table.py, the polynomial table behind exp(y)*E1(y).

On each octave [2^k, 2^(k+1)], k = -1..5, the smooth function
g(y) = y*exp(y)*E1(y), which rises from 0.461 at y = 1/2 to 0.985 at y = 64,
is fitted by mpmath.chebyfit as a polynomial in u = y/2^k*2 - 3, which runs
over [-1, 1]. ``frexp`` gives that u exactly: with y = m*2^e and m in
[0.5, 1), u = 4m - 3 and k = e - 1, which is row e of the table. Twenty
coefficients per octave bring the fit error of g below 2e-17, so the error
of the table lies in the rounding of its coefficients and of Horner's rule,
about 1e-16 relative.

Usage:
    python3 scripts/fit_e1.py            # rewrite src/revrel/_e1_table.py
    python3 scripts/fit_e1.py --check    # exit 1 if the committed table differs

Needs mpmath (in the ``test`` extra).
"""

import argparse
import sys
from pathlib import Path

import mpmath as mp

OCTAVES = range(-1, 6)  # [1/2, 1), [1, 2), ..., [32, 64)
COEFFICIENTS = 20        # degree 19
DIGITS = 40
TARGET = Path(__file__).resolve().parents[1] / "src" / "revrel" / "_e1_table.py"

HEADER = '''"""Horner coefficients of y*exp(y)*E1(y) on the octaves [2^k, 2^(k+1)), k = -1..5.

Row k + 1 holds the coefficients, highest degree first, of a polynomial in
u = 4m - 3, where y = m*2^(k+1) with m in [0.5, 1). Generated by
scripts/fit_e1.py; do not edit by hand.
"""

E1_OCTAVES = (
'''


def fit():
    mp.mp.dps = DIGITS
    rows = []
    for k in OCTAVES:
        lo = mp.mpf(2) ** k

        def g(u, lo=lo):
            y = lo * (u + 3) / 2
            return y * mp.exp(y) * mp.e1(y)

        coeffs, err = mp.chebyfit(g, [-1, 1], COEFFICIENTS, error=True)
        if err > 2e-17:
            raise SystemExit(f"octave {k}: fit error {mp.nstr(err, 3)} above 2e-17")
        rows.append([float(c) for c in coeffs])
    return rows


def render(rows):
    lines = [HEADER]
    for row in rows:
        lines.append("    (\n")
        for i in range(0, len(row), 3):
            lines.append("        " + " ".join(f"{c!r}," for c in row[i:i + 3]) + "\n")
        lines.append("    ),\n")
    lines.append(")\n")
    return "".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed table instead of writing it")
    args = ap.parse_args(argv)
    text = render(fit())
    if args.check:
        same = TARGET.read_text(encoding="utf-8") == text
        print("table up to date" if same else "table differs from the fit")
        return 0 if same else 1
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
