#!/usr/bin/env python3
"""Print one line per check cell off the catalog, for diffing two trees.

A line is: check, family text, verdict, repr(ratio), evaluations summed over
the cell's components. The cells are every check at --points seeded
admissible parameter points per family, then the constant-rate grid: type3ev
at gamma in {1e-6, 1e-3, 1, 1e3, 1e6} and b in {0, +-1e3, +-1e6}, on each
check that expects equality there (200 cells). revrel is imported from the
src/ next to this script, so the outputs of two checkouts diff directly:

    python3 scripts/probe_cells.py --seed 7 > before.txt   # in one tree
    python3 scripts/probe_cells.py --seed 7 > after.txt    # in the other
    diff before.txt after.txt
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from revrel.characterizations import (  # noqa: E402
    TheoremId, expected_equality_pair, make_check, run_check)
from revrel.distributions import _FAMILIES, FamilySpec, make_distribution  # noqa: E402
from revrel.errors import ParameterError  # noqa: E402

# a draw per admissible-range rule, keyed by the text the rule prints
_DRAW = {
    "> 0": lambda rng: round(10.0 ** rng.uniform(-0.7, 0.7), 3),
    "finite": lambda rng: round(rng.uniform(-2.0, 2.0), 3),
    "> 1": lambda rng: round(1.0 + 10.0 ** rng.uniform(-1.0, 1.0), 3),
    "integer >= 1": lambda rng: rng.randint(1, 4),
    "odd integer >= 1": lambda rng: rng.choice((1, 3, 5)),
}
_CHECKS = [make_check(theorem) for theorem in TheoremId]


def seeded_models(seed, points):
    """points admissible models per family, redrawing a set a builder rejects."""
    rng = random.Random(seed)
    for family, (_, rules) in _FAMILIES.items():
        made = 0
        while made < points:
            params = {key: _DRAW[rule[0]](rng) for key, rule in rules.items()}
            try:
                yield make_distribution(FamilySpec(family, params))
            except ParameterError:
                continue
            made += 1


def constant_rate_grid():
    for gamma in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for b in (0.0, 1e3, -1e3, 1e6, -1e6):
            yield make_distribution(FamilySpec("type3ev", {"gamma": gamma, "b": b}))


def line(check, model):
    r = run_check(check, model)
    params = ",".join(f"{k}={v!r}" for k, v in model.spec.params.items())
    evaluations = sum(c.evaluations for c in r.components)
    return f"{check.id.value} {model.spec.family}:{params} {r.verdict.value} {r.ratio!r} {evaluations}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--points", type=int, default=3, help="points per family")
    args = parser.parse_args(argv)
    for model in seeded_models(args.seed, args.points):
        for check in _CHECKS:
            print(line(check, model), flush=True)
    for model in constant_rate_grid():
        for check in _CHECKS:
            if expected_equality_pair(check, model):
                print(line(check, model), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
