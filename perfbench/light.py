"""The parts of the benchmark that import nothing but the standard library:
the untraced hooks and the cli workload.

A timed cli run uses only these, so its own process stays small. That
matters for ``peak_rss_mb``: a child's peak resident size, as ``wait4``
reports it, is at least its parent's size when it was spawned, and a
harness that had imported revrel would be about as large as a revrel.cli
child, hiding any change in the child's own memory.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

CLI_TIMEOUT_S = 120


class Plain:
    """The untraced hooks: hand everything in unchanged."""

    def model(self, m):
        return m

    def check(self, c):
        return c

    def span(self, name, fn, **attrs):
        return fn


class Cli:
    """Fresh-interpreter `python -m revrel.cli` runs, one at a time.

    A round is three invocations: `verify` on one cell, `table` on one
    family and `identify` on a 400-point sample file, all drawn from the
    seed. An op fails on a nonzero exit or on output that differs from the
    first run of the same command. ``child_peak_kb`` is the largest peak
    resident size of any invocation, each taken from its own ``wait4``.
    """

    name = "cli"
    trace_rounds = 1

    def __init__(self, seed, size, src, out_dir):
        rng = random.Random(seed)
        gamma, b = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        pb, pc = rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        sample_path = out_dir / f"cli-sample-{seed}.txt"
        values = [pb * rng.random() ** (1.0 / pc) for _ in range(400)]
        sample_path.write_text("# power sample\n" + "".join(f"{v!r}\n" for v in values))
        self.commands = {
            "verify": ["verify", "--family", f"type3ev:gamma={gamma!r},b={b!r}",
                       "--theorem", "T2_1"],
            "table": ["table", "--family", f"power:b={pb!r},c={pc!r}"],
            "identify": ["identify", str(sample_path)],
        }
        self.inputs = dict(self.commands, sample=values)
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.first = {}
        self.child_peak_kb = 0

    def invoke(self, args):
        """One invocation. Output goes through files, not pipes, so that the
        child can be reaped with ``wait4`` for its own resource usage."""
        with open(self.out_dir / "cli-stdout.txt", "w+") as out, \
                open(self.out_dir / "cli-stderr.txt", "w+") as err:
            proc = subprocess.Popen([sys.executable, "-m", "revrel.cli", *args],
                                    env=self.env, stdout=out, stderr=err)
            deadline = time.monotonic() + CLI_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, _ = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    raise TimeoutError(f"{args[0]} ran over {CLI_TIMEOUT_S} s")
                time.sleep(0.0005)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read())

    def rounds(self, hooks):
        while True:
            ops = []
            for name, args in self.commands.items():
                run = hooks.span("cli.invocation", lambda args=args: self.invoke(args),
                                 label=name)
                ops.append((name, run, self._checker(name)))
            yield ops

    def _checker(self, name):
        def check(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            first = self.first.setdefault(name, proc.stdout)
            return "" if proc.stdout == first else "output differs from the first run"
        return check

    def end_round(self, results, hooks):
        return {}
