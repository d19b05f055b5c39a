"""Command-line front end: verify the check matrix, tabulate, identify.

Three subcommands share one deterministic-output contract: identical
flags produce byte-identical reports (floats serialized via repr, field
order fixed, no timestamps).

* verify   -- run checks x models, emit the report, exit 0/2 by verdict
* table    -- tabulate cdf/pdf/rhr/eit/rai on a probability-spaced grid
* identify -- rank candidate families for a plain-text sample file

Exit codes: 0 success; 1 configuration or input errors (bad flag value,
unparseable family text, unreadable sample file); 2 when a non-suspect
converged check violates its direction or an expected equality fails.
Suspect checks are reported with "suspect": true and never move the
exit code; the exit code reflects engine correctness, not open science
questions.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence, TextIO

from .characterizations import (
    TheoremId,
    Verdict,
    _num,
    make_check,
    records_to_csv,
    reports_to_csv,
    reports_to_json,
    run_matrix,
)
from .distributions import model_from_text
from .errors import RevrelError
from .empirics import identify, read_samples
from .functionals import functional_profile
from .quadrature import Tolerances

__all__ = ["main"]


class _ConfigError(Exception):
    """Flag-level validation failure; the message names the flag."""


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2: this tool
    # reserves exit 2 for genuine inequality violations
    def error(self, message):
        raise _ConfigError(message)


def _checked(kind, valid, rule: str):
    """An argparse type: kind(text), rejected unless valid; names the rule."""
    def parse(text: str):
        value = kind(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_FLAGS = {
    "--family": dict(action="append", dest="families", default=[], metavar="TEXT",
                     help="family in text form, e.g. power:b=1,c=2 (repeatable)"),
    "--theorem": dict(action="append", dest="theorems", default=[], metavar="ID",
                      help="check id filter, e.g. T2_1 (repeatable)"),
    "--grid": dict(type=_checked(int, lambda v: v >= 8, "be at least 8"), default=16,
                   help="table grid size (>= 8)"),
    "--rel-tol": dict(type=_checked(float, lambda v: v > 0.0, "be positive"),
                      dest="rel_tol", default=1e-9),
    "--trim": dict(type=_checked(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
                   default=0.05,
                   help="fraction of the sample head excluded from gap statistics"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revrel",
        description="Reversed-time functional checks for right-truncated models.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads
    for name, help_text, fmt, flags in (
            ("verify", "run the inequality check matrix", "json",
             ("--family", "--theorem", "--rel-tol")),
            ("table", "tabulate the functionals of one family", "csv", ("--family", "--grid")),
            ("identify", "rank candidate families for a sample", "json", ("--trim",))):
        p = sub.add_parser(name, help=help_text)
        if name == "identify":
            p.add_argument("sample_path", metavar="sample",
                           help="text file, one value per line, # comments")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv"), default=fmt, dest="fmt")
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
    return parser


def _emit(text: str, out: Optional[str], stdout: TextIO) -> None:
    if out is None:
        stdout.write(text)
        if not text.endswith("\n"):
            stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render(payload, rows, args: argparse.Namespace, stdout: TextIO) -> None:
    """The payload as JSON or its rows as CSV, to --out or stdout."""
    text = json.dumps(payload, indent=2) if args.fmt == "json" else records_to_csv(rows)
    _emit(text, args.out, stdout)


def _selected_checks(args: argparse.Namespace):
    if not args.theorems:
        return None  # run_matrix default: the full catalog
    by_value = {tid.value: tid for tid in TheoremId}
    checks = []
    for name in args.theorems:
        if name not in by_value:
            raise _ConfigError(
                f"--theorem {name!r} is not a known check id "
                f"(expected one of {', '.join(by_value)})")
        checks.append(make_check(by_value[name]))
    return checks


def _selected_models(args: argparse.Namespace):
    if not args.families:
        return None  # run_matrix default: the fixture catalog
    return [model_from_text(text) for text in args.families]


def cmd_verify(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    tol = Tolerances(rel_tol=args.rel_tol)
    reports = run_matrix(_selected_models(args), _selected_checks(args), tol)
    text = reports_to_json(reports) if args.fmt == "json" else reports_to_csv(reports)
    _emit(text, args.out, stdout)

    counts = {}
    for r in reports:
        counts[r.verdict.value] = counts.get(r.verdict.value, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    stderr.write(f"{len(reports)} checks: {summary}\n")

    failures = [
        r for r in reports if not r.suspect and (
            r.verdict is Verdict.Violation
            or (r.expected_equality and r.verdict is not Verdict.Equality))]
    if failures:
        for r in failures:
            stderr.write(
                f"FAIL {r.theorem.value} on {r.family.family}: {r.verdict.value}\n")
        return 2
    return 0


def cmd_table(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if len(args.families) != 1:
        raise _ConfigError("table needs exactly one --family")
    model = model_from_text(args.families[0])
    if not math.isfinite(model.support.upper):
        stderr.write("rai column omitted: support is unbounded above\n")
    rows = [functional_profile(model, float(model.quantile((i + 1) / (args.grid + 1))))
            for i in range(args.grid)]
    _render(rows, rows, args, stdout)
    return 0


def cmd_identify(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    report = identify(read_samples(args.sample_path), trim=args.trim)
    rows = [{"family": rc.family, "theorem": rc.theorem.value, "ratio_hat": _num(rc.ratio_hat),
             "score": _num(rc.score), "spread": _num(rc.spread)}
            for rc in report.ranking]
    _render({"n": report.n, "trim": report.trim, "ranking": rows}, rows, args, stdout)
    return 0


def main(argv: Optional[Sequence[str]] = None,
         stdout: TextIO = sys.stdout, stderr: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = {"verify": cmd_verify, "table": cmd_table, "identify": cmd_identify}
        return command[args.command](args, stdout, stderr)
    except (_ConfigError, RevrelError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
