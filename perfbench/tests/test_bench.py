"""Tests of the benchmark itself: tiny runs, seeding, and the bare-directory failure.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
import light  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, seed=1, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = result_of(run_bench(workload, trace))
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if not trace:
        assert any(line.startswith("fail_frac 0 ") for line in lines)
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", ["matrix", "sweep", "sample"])
def test_one_seed_gives_identical_inputs(workload):
    first = workloads.make(workload, 7, "full")
    second = workloads.make(workload, 7, "full")
    assert first.inputs == second.inputs


def test_one_seed_gives_identical_cli_inputs(tmp_path):
    first = light.Cli(7, "full", ROOT / "src", tmp_path / "a")
    second = light.Cli(7, "full", ROOT / "src", tmp_path / "b")
    assert first.inputs["sample"] == second.inputs["sample"]
    assert first.commands["verify"] == second.commands["verify"]


@pytest.mark.parametrize("workload", ["sweep", "sample"])
def test_another_seed_changes_the_inputs(workload):
    one = workloads.make(workload, 1, "full")
    two = workloads.make(workload, 2, "full")
    assert one.inputs != two.inputs


@pytest.mark.parametrize("workload", ["matrix", "sweep", "sample"])
def test_one_seed_repeats_every_count_exactly(workload):
    counts = [name for name, unit in
              ((m["name"], m["unit"]) for m in SPEC["per_layer"]) if unit == "count"]
    _, a = result_of(run_bench(workload, 1, seed=3))
    _, b = result_of(run_bench(workload, 1, seed=3))
    assert {k: a["metrics"][k]["value"] for k in counts} == \
        {k: b["metrics"][k]["value"] for k in counts}
    assert a["metrics"]["quadrature.evaluations"]["value"] > 0 or workload == "sample"
    assert a["metrics"]["distributions.quantile_calls"]["value"] > 0 or workload != "sample"


def test_cli_peak_rss_is_taken_from_its_own_invocations():
    lines, result = result_of(run_bench("cli", 0))
    line = next(line for line in lines if line.startswith("peak_rss_mb "))
    m = re.search(r"this process ([\d.]+), largest revrel.cli child ([\d.]+)", line)
    own, child = float(m.group(1)), float(m.group(2))
    assert result["metrics"]["peak_rss_mb"]["value"] == pytest.approx(own + child, rel=1e-4)
    # A child reads at least its parent's size at spawn. revrel.cli imports
    # numpy and scipy, so a child term from its invocations, not from the
    # harness or its set-up processes, stands far above a harness that
    # imported none of them.
    assert child > 2 * own > 0


def test_cli_invocation_reports_the_childs_peak(tmp_path):
    wl = light.Cli(5, "tiny", ROOT / "src", tmp_path)
    assert wl.child_peak_kb == 0
    label, run, check = next(wl.rounds(light.Plain()))[0]
    proc = run()
    assert check(proc) == "", label
    assert proc.args[1:3] == ["-m", "revrel.cli"]
    assert wl.child_peak_kb > 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("matrix", 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
