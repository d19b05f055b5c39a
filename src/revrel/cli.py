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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TextIO

from .characterizations import (
    TheoremId,
    Verdict,
    default_models,
    make_check,
    reports_to_csv,
    reports_to_json,
    run_matrix,
)
from .distributions import model_from_text
from .errors import RevrelError
from .empirics import identify, read_samples
from .functionals import functional_profile
from .quadrature import Tolerances

__all__ = ["RunConfig", "main"]


class _ConfigError(Exception):
    """Flag-level validation failure; the message names the flag."""


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2: this tool
    # reserves exit 2 for genuine inequality violations
    def error(self, message):
        raise _ConfigError(message)


@dataclass
class RunConfig:
    command: str
    families: List[str] = field(default_factory=list)
    theorems: List[str] = field(default_factory=list)
    grid: int = 16
    rel_tol: float = 1e-9
    eq_tol: float = 1e-4
    trim: float = 0.05
    fmt: str = "json"
    out: Optional[str] = None
    sample_path: Optional[str] = None


_FLAGS = {
    "--family": dict(action="append", dest="families", metavar="TEXT",
                     help="family in text form, e.g. power:b=1,c=2 (repeatable)"),
    "--theorem": dict(action="append", dest="theorems", metavar="ID",
                      help="check id filter, e.g. T2_1 (repeatable)"),
    "--grid": dict(type=int, help="table grid size (>= 8)"),
    "--rel-tol": dict(type=float, dest="rel_tol"),
    "--eq-tol": dict(type=float, dest="eq_tol",
                     help="relative half-width of the equality band"),
    "--trim": dict(type=float,
                   help="fraction of the sample head excluded from gap statistics"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revrel",
        description="Reversed-time functional checks for right-truncated models.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads; an unset flag leaves
    # the RunConfig default in place
    for name, help_text, fmt, flags in (
            ("verify", "run the inequality check matrix", "json",
             ("--family", "--theorem", "--rel-tol", "--eq-tol")),
            ("table", "tabulate the functionals of one family", "csv", ("--family", "--grid")),
            ("identify", "rank candidate families for a sample", "json", ("--trim",))):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if name == "identify":
            p.add_argument("sample_path", metavar="sample",
                           help="text file, one value per line, # comments")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv"), default=fmt, dest="fmt")
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    if not cfg.rel_tol > 0.0:
        raise _ConfigError(f"--rel-tol must be positive, got {cfg.rel_tol!r}")
    if not cfg.eq_tol > 0.0:
        raise _ConfigError(f"--eq-tol must be positive, got {cfg.eq_tol!r}")
    if cfg.grid < 8:
        raise _ConfigError(f"--grid must be at least 8, got {cfg.grid!r}")
    if not 0.0 <= cfg.trim < 1.0:
        raise _ConfigError(f"--trim must lie in [0, 1), got {cfg.trim!r}")
    return cfg


def _emit(text: str, out: Optional[str], stdout: TextIO) -> None:
    if out is None:
        stdout.write(text)
        if not text.endswith("\n"):
            stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _selected_checks(cfg: RunConfig):
    if not cfg.theorems:
        return None  # run_matrix default: the full catalog
    by_value = {tid.value: tid for tid in TheoremId}
    checks = []
    for name in cfg.theorems:
        if name not in by_value:
            raise _ConfigError(
                f"--theorem {name!r} is not a known check id "
                f"(expected one of {', '.join(by_value)})")
        checks.append(make_check(by_value[name]))
    return checks


def _selected_models(cfg: RunConfig):
    if not cfg.families:
        return None  # run_matrix default: the fixture catalog
    return [model_from_text(text) for text in cfg.families]


def cmd_verify(cfg: RunConfig, stdout: TextIO, stderr: TextIO) -> int:
    tol = Tolerances(rel_tol=cfg.rel_tol)
    reports = run_matrix(_selected_models(cfg), _selected_checks(cfg),
                         tol, cfg.eq_tol)
    text = reports_to_json(reports) if cfg.fmt == "json" else reports_to_csv(reports)
    _emit(text, cfg.out, stdout)

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


def cmd_table(cfg: RunConfig, stdout: TextIO, stderr: TextIO) -> int:
    if len(cfg.families) != 1:
        raise _ConfigError("table needs exactly one --family")
    model = model_from_text(cfg.families[0])
    with_rai = math.isfinite(model.support.upper)
    if not with_rai:
        stderr.write("rai column omitted: support is unbounded above\n")
    rows = []
    for i in range(cfg.grid):
        p = (i + 1) / (cfg.grid + 1)
        prof = functional_profile(model, float(model.quantile(p)))
        row = {"t": prof.t, "cdf": prof.cdf, "pdf": prof.pdf,
               "rhr": prof.rhr, "eit": prof.eit}
        if with_rai:
            row["rai"] = prof.rai
        rows.append(row)
    if cfg.fmt == "json":
        text = json.dumps(rows, indent=2)
    else:
        names = list(rows[0].keys())
        lines = [",".join(names)]
        lines.extend(",".join(repr(row[n]) for n in names) for row in rows)
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out, stdout)
    return 0


def cmd_identify(cfg: RunConfig, stdout: TextIO, stderr: TextIO) -> int:
    sample = read_samples(cfg.sample_path)
    report = identify(sample, trim=cfg.trim)
    payload = {
        "n": report.n,
        "trim": report.trim,
        "ranking": [
            {"family": rc.family, "theorem": rc.theorem.value,
             "ratio_hat": _jnum(rc.ratio_hat), "score": _jnum(rc.score),
             "spread": _jnum(rc.spread)}
            for rc in report.ranking],
    }
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        lines = ["family,theorem,ratio_hat,score,spread"]
        lines.extend(
            ",".join([rc.family, rc.theorem.value, repr(rc.ratio_hat),
                      repr(rc.score), repr(rc.spread)])
            for rc in report.ranking)
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out, stdout)
    return 0


def _jnum(v: float) -> Optional[float]:
    return v if math.isfinite(v) else None


def main(argv: Optional[Sequence[str]] = None,
         stdout: TextIO = sys.stdout, stderr: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        command = {"verify": cmd_verify, "table": cmd_table, "identify": cmd_identify}
        return command[cfg.command](cfg, stdout, stderr)
    except (_ConfigError, RevrelError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
