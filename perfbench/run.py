"""revrel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; revrel is imported from its ``src/``.
With ``--trace 0`` the workload runs untraced in a closed loop (one
client, one op at a time) for whole rounds until ``--seconds`` of work
have been measured, and the end-to-end metrics are reported. With
``--trace 1`` a fixed amount of work runs once untraced and once traced,
and the per-layer metrics are reported; spans and, for ``matrix``, a
per-cell count table go to ``perfbench/out/``. The last line of stdout is
the result as one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import light

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# BENCHMARK.json is the one list of workloads and of metrics with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 5
# A timed run does at least two rounds: only then does matrix's tail
# percentile (p97.5 of 440 cells) fall inside its budget cells, however slow
# the machine is.
MIN_ROUNDS = 2
# op_tail_ms is the highest percentile with at least ten ops beyond it, but
# at most TAIL_CAP: on sweep's ~30,000 ops, p99.9 and beyond are set by
# sub-second bursts of a contended core.
TAIL_CAP = 99.0
IMPORT_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs, print the set-up time and exit")
    return p.parse_args(argv)


def check_sources():
    if not (SRC / "revrel" / "__init__.py").is_file():
        raise SystemExit(f"error: no revrel sources under {SRC}")


def load_revrel():
    """Import revrel from this checkout's src/ and the benchmark's modules."""
    sys.path.insert(0, str(SRC))
    import revrel

    if Path(revrel.__file__).resolve().parent != SRC / "revrel":
        raise SystemExit(f"error: imported revrel from {revrel.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def build(args):
    """The workload. cli imports no revrel here: its harness stays small (light.py)."""
    if args.workload == "cli":
        return light.Cli(args.seed, args.size, SRC, OUT)
    workloads, _ = load_revrel()
    return workloads.make(args.workload, args.seed, args.size)


# ------------------------------------------------------------ environment

# This host's speed drifts by up to half, for minutes at a time and in
# bursts (a contended core: CPU time rises with wall time, and there is no
# steal time). No run length averages that out. So a run times a fixed
# pure-Python slice every REF_EVERY_S, outside the timed work, and expresses
# each op's time in seconds of an uncontended core: it divides by the median
# of the SMOOTH_SLICES slices nearest the op, over NOMINAL_REF_S, the slice's
# time on an uncontended core (Intel Xeon, Python 3.11.7). Around short ops
# those slices span about two seconds; around ops longer than REF_EVERY_S they
# span several ops, since the two slices at an op's ends miss bursts inside
# it. The unscaled values are printed too.
REF_ITERATIONS = 100_000
NOMINAL_REF_S = 0.008
REF_EVERY_S = 0.25
SMOOTH_SLICES = 8


def reference_slice_s():
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class Drift:
    """Reference slices taken through a run; a factor > 1 means a slow machine."""

    def __init__(self):
        self.slices = []
        self.last = -math.inf

    def tick(self, force=False):
        if force or time.perf_counter() - self.last >= REF_EVERY_S:
            self.slices.append(reference_slice_s())
            self.last = time.perf_counter()

    @property
    def window(self):
        """The window the next timed work falls in: after slice window-1."""
        return len(self.slices)

    def local(self, window):
        """Drift factor of the work done between slices window-1 and window."""
        start = min(max(window - SMOOTH_SLICES // 2, 0),
                    max(len(self.slices) - SMOOTH_SLICES, 0))
        return statistics.median(self.slices[start:start + SMOOTH_SLICES]) / NOMINAL_REF_S

    def record(self):
        return {"reference_slice_s": statistics.median(self.slices),
                "min": min(self.slices), "max": max(self.slices),
                "slices": len(self.slices),
                "drift_factor": statistics.median(self.slices) / NOMINAL_REF_S}


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


# ------------------------------------------------------------------ loops

def run_rounds(wl, hooks, drift, seconds=None, rounds=None):
    """Closed loop over whole rounds, with drift slices between ops.

    Returns every timed segment as (seconds, drift window, is an op), the
    failures and the last round's information. Slices and checks run
    outside the timed segments. Stops after `rounds` rounds, or once
    `seconds` of work have been timed over at least MIN_ROUNDS rounds.
    """
    gen = wl.rounds(hooks)
    timed, failures, info = [], [], {}
    busy = 0.0
    done = 0

    def segment(t0, is_op):
        dt = time.perf_counter() - t0
        timed.append((dt, drift.window, is_op))
        return dt

    drift.tick(force=True)
    while True:
        t0 = time.perf_counter()
        ops = next(gen)
        busy += segment(t0, False)
        results = []
        for label, run, check in ops:
            t0 = time.perf_counter()
            try:
                out, err = run(), None
            except Exception as exc:  # a raised exception is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            busy += segment(t0, True)
            results.append((label, out, check, err))
            drift.tick()
        t0 = time.perf_counter()
        info = wl.end_round([(label, out) for label, out, _, _ in results], hooks)
        busy += segment(t0, False)
        for label, out, check, err in results:
            reason = err if err is not None else check(out)
            if reason:
                failures.append(f"{label}: {reason}")
        done += 1
        if (rounds is not None and done >= rounds) or \
                (seconds is not None and busy >= seconds and done >= MIN_ROUNDS):
            drift.tick(force=True)
            return timed, failures, info


def percentile(values, pct):
    """Nearest-rank percentile of values."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered) - 1e-9)  # no round-up past an exact rank
    return ordered[max(0, rank - 1)]


def tail_percentile(n):
    """The highest percentile with at least ten of n ops beyond it, within [50, TAIL_CAP]."""
    return min(TAIL_CAP, max(50.0, 100.0 * (n - 10) / n))


def measure_setup(args):
    """Median set-up time over fresh interpreters building the inputs, scaled for drift."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(child["setup_s"])
        scaled.append(child["setup_s"] / child["drift_factor"])
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb(child_kb):
    """This program's peak resident size plus child_kb, in MB.

    The peak is VmHWM, which starts afresh at exec; ru_maxrss would also
    hold whatever process started this one, at its size when it did.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return (kb + child_kb) / 1024.0


# ---------------------------------------------------------------- imports

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_profile(env):
    """(total, scipy) import ms of `import revrel.cli` from one -X importtime run."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import revrel.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
    total = scipy_ms = 0.0
    # children print before their parent, so read bottom-up: parents first
    stack = []  # (level, inside a scipy import)
    for line in reversed(proc.stderr.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative_ms = int(m.group(2)) / 1000.0
        level, root = (len(m.group(3)) - 1) // 2, m.group(4).split(".")[0]
        while stack and stack[-1][0] >= level:
            stack.pop()
        in_scipy = bool(stack) and stack[-1][1]
        if level == 0 and root == "revrel":
            total += cumulative_ms
        if root == "scipy" and not in_scipy:
            scipy_ms += cumulative_ms
        stack.append((level, in_scipy or root == "scipy"))
    return total, scipy_ms


def cli_layer_ms(env):
    """Median interpreter floor and `import revrel.cli` cost, in ms."""
    floor = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        floor.append((time.perf_counter() - t0) * 1000.0)
    profiles = [import_profile(env) for _ in range(IMPORT_REPEATS)]
    return {"cli.interpreter_ms": statistics.median(floor),
            "cli.import_ms": statistics.median(p[0] for p in profiles),
            "cli.import_scipy_ms": statistics.median(p[1] for p in profiles)}


def cli_main_ms(wl, tracer):
    """In-process `revrel.cli.main` per subcommand, traced; median in ms."""
    import revrel.cli

    times = []
    for name, args in wl.commands.items():
        main = tracer.span("cli.main", revrel.cli.main, label=name)
        t0 = time.perf_counter()
        code = main(args, stdout=io.StringIO(), stderr=io.StringIO())
        times.append((time.perf_counter() - t0) * 1000.0)
        if code != 0:
            raise RuntimeError(f"in-process cli {name} exited {code}")
    return statistics.median(times)


# ------------------------------------------------------------------ modes

def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def show(name, value, unit, note=""):
    text = str(value) if isinstance(value, int) else f"{value:.6g}"
    print(f"{name} {text} {unit}" + (f" ({note})" if note else ""))


def timed_run(args):
    setup_s, setup_raw = measure_setup(args)
    wl = build(args)
    drift = Drift()
    timed, failures, info = run_rounds(wl, light.Plain(), drift, seconds=args.seconds)
    child_kb = wl.child_peak_kb if args.workload == "cli" else 0
    # read before environment() imports numpy and scipy into a cli harness
    self_mb, rss_mb = peak_rss_mb(0), peak_rss_mb(child_kb)
    raw = [t for t, _, is_op in timed if is_op]
    scaled = [t / drift.local(w) for t, w, is_op in timed if is_op]
    busy_raw = sum(t for t, _, _ in timed)
    busy = sum(t / drift.local(w) for t, w, _ in timed)
    n = len(raw)
    pct = tail_percentile(n)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / busy,
        "op_p50_ms": percentile(scaled, 50.0) * 1000.0,
        "op_tail_ms": percentile(scaled, pct) * 1000.0,
        "peak_rss_mb": rss_mb,
    }
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace 0")
    print("env " + json.dumps({**environment(), **drift.record()}))
    show("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups; unscaled {setup_raw:.6g}")
    show("ops_per_s", metrics["ops_per_s"], "1/s",
         f"{n} ops in {busy_raw:.3f} s of work; unscaled {n / busy_raw:.6g}")
    show("op_p50_ms", metrics["op_p50_ms"], "ms",
         f"of {n} ops; unscaled {percentile(raw, 50.0) * 1e3:.6g}")
    show("op_tail_ms", metrics["op_tail_ms"], "ms",
         f"p{pct:.4g} of {n} ops; unscaled {percentile(raw, pct) * 1e3:.6g}")
    show("fail_frac", len(failures) / n, "fraction", f"{len(failures)} of {n} ops failed")
    show("peak_rss_mb", rss_mb, "MB", f"this process {self_mb:.6g}, largest revrel.cli "
         f"child {child_kb / 1024.0:.6g}" if args.workload == "cli" else "")
    if info:
        print("info " + json.dumps(info))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    emit(not failures, n, len(failures),
         {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()})


def traced_run(args):
    wl = build(args)
    _, tracing = load_revrel()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    drift = Drift()
    # the same fixed work twice: untraced, then traced
    timed0, fail0, _ = run_rounds(wl, light.Plain(), drift, rounds=wl.trace_rounds)
    tracer = tracing.Tracer()
    with tracer:
        timed1, fail1, info = run_rounds(wl, tracer, drift, rounds=wl.trace_rounds)
        main_ms = cli_main_ms(wl, tracer) if args.workload == "cli" else 0.0
    lat0 = [t for t, _, is_op in timed0 if is_op]
    lat1 = [t for t, _, is_op in timed1 if is_op]
    busy0 = sum(t for t, _, _ in timed0)
    busy1 = sum(t for t, _, _ in timed1)
    metrics = tracer.metrics(PER_LAYER)
    metrics.update(cli_layer_ms(env))
    metrics["cli.main_ms"] = main_ms
    untraced, traced = len(lat0) / busy0, len(lat1) / busy1
    metrics["trace.ops_per_s_untraced"] = untraced
    metrics["trace.ops_per_s_traced"] = traced
    metrics["trace.overhead_frac"] = 1.0 - traced / untraced

    cells = tracer.cell_table()
    for row, latency in zip(cells, lat0 if args.workload == "matrix" else ()):
        row["untraced_s"] = latency
    OUT.mkdir(parents=True, exist_ok=True)
    tiny = "-tiny" if args.size == "tiny" else ""
    out_path = OUT / f"trace-{args.workload}-seed{args.seed}{tiny}.json"
    record = {"workload": args.workload, "seed": args.seed,
              "env": {**environment(), **drift.record()},
              "info": info, "metrics": metrics, "cells": cells,
              "spans": [s.record() for s in tracer.spans]}
    out_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace 1 "
          f"({wl.trace_rounds} round(s), {len(lat1)} ops)")
    print("env " + json.dumps(record["env"]))
    for name, unit in PER_LAYER.items():
        show(name, metrics[name], unit)
    if args.workload == "matrix":
        for row in sorted(cells, key=lambda r: -r["evaluations"])[:12]:
            print(f"cell {row['cell']} evaluations {row['evaluations']} "
                  f"statuses {','.join(row['statuses'])} untraced_s {row['untraced_s']:.4f}")
    if info:
        print("info " + json.dumps(info))
    print(f"trace written to {out_path.relative_to(ROOT)}")
    failures = fail0 + fail1
    for f in failures[:20]:
        print(f"FAILED {f}")
    emit(not failures, len(lat0) + len(lat1), len(failures),
         {k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER.items()})


def setup_only(args):
    drift = Drift()
    drift.tick(force=True)
    t0 = time.perf_counter()
    load_revrel()  # cli's set-up includes the import its invocations pay
    build(args)
    setup_s = time.perf_counter() - t0
    drift.tick(force=True)
    print(json.dumps({"setup_s": setup_s, "drift_factor": drift.local(1)}))


def main(argv=None):
    args = parse_args(argv)
    check_sources()
    if args.setup_only:
        setup_only(args)
    elif args.trace:
        traced_run(args)
    else:
        timed_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
