"""Command-line contract tests, driven through main() with captured streams."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from revrel.cli import main
from revrel.distributions import model_from_text
from revrel.quadrature import sample_inverse_cdf


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_sample(path, text, n=2000, seed=5):
    sample = sample_inverse_cdf(model_from_text(text), n, seed=seed)
    path.write_text("".join(f"{float(v)!r}\n" for v in sample.values))
    return path


# ---------------------------------------------------------------------------
# verify

def test_verify_single_pair_passes():
    code, out, err = run_cli("verify", "--theorem", "T2_1",
                             "--family", "type3ev:gamma=1,b=0")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["verdict"] == "Equality"
    assert "1 checks" in err


def test_verify_is_byte_identical_across_runs():
    args = ("verify", "--theorem", "T2_1", "--theorem", "T3_4")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_csv_format():
    code, out, _ = run_cli("verify", "--theorem", "T2_1",
                           "--family", "power:b=1,c=2", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("theorem,family,params,lhs,rhs,ratio,gap,verdict")


def test_verify_exit_two_when_an_asserted_equality_misses():
    # an equality band far below float precision forces the asserted
    # Equality row to land StrictInequality, which must fail the run
    code, _, err = run_cli("verify", "--theorem", "T2_1",
                           "--family", "type3ev:gamma=1,b=0",
                           "--eq-tol", "1e-18")
    assert code == 2
    assert "FAIL" in err


def test_verify_suspect_rows_never_fail_the_run():
    code, out, _ = run_cli("verify", "--theorem", "T3_7",
                           "--family", "basealinkedeit:gamma=1,delta=1,a_base=2,b=0")
    assert code == 0
    (row,) = json.loads(out)
    assert row["suspect"] is True
    assert row["claimed_equality"] is True
    assert row["verdict"] == "StrictInequality"   # the claim does not hold


def test_verify_writes_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("verify", "--theorem", "T2_1",
                           "--family", "uniform:b=1", "--out", str(target))
    assert code == 0
    assert out == ""
    (row,) = json.loads(target.read_text())
    assert row["verdict"] == "Divergent"


# ---------------------------------------------------------------------------
# config errors

@pytest.mark.parametrize("argv,needle", (
    (("verify", "--eq-tol", "-1"), "eq-tol"),
    (("verify", "--rel-tol", "0"), "rel-tol"),
    (("verify", "--family", "notafam:x=1"), "notafam"),
    (("verify", "--theorem", "T9_9"), "T9_9"),
    (("table", "--family", "power:b=1,c=2", "--grid", "4"), "grid"),
    (("identify", "nowhere.txt", "--trim", "1.5"), "trim"),
    (("table",), "family"),
    (("table", "--family", "power:b=1,c=2", "--family", "uniform:b=1"), "family"),
    # each subcommand rejects the flags it does not read
    (("verify", "--grid", "9"), "--grid"),
    (("table", "--family", "power:b=1,c=2", "--theorem", "T2_1"), "--theorem"),
    (("identify", "nowhere.txt", "--seed", "3"), "--seed"),
))
def test_config_errors_exit_one_and_name_the_problem(argv, needle):
    code, _, err = run_cli(*argv)
    assert code == 1
    assert needle in err


def test_usage_errors_exit_one_not_two():
    code, _, err = run_cli("verify", "--no-such-flag")
    assert code == 1
    assert "no-such-flag" in err


# ---------------------------------------------------------------------------
# table

def test_table_power_has_rai_above_one():
    code, out, _ = run_cli("table", "--family", "power:b=1,c=2", "--grid", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,cdf,pdf,rhr,eit,rai"
    assert len(lines) == 17
    rai_vals = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(v > 1.0 for v in rai_vals)


def test_table_constant_rate_family_has_unit_rai():
    code, out, _ = run_cli("table", "--family", "type3ev:gamma=2,b=0")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert abs(float(line.split(",")[5]) - 1.0) <= 1e-6


def test_table_unbounded_support_drops_rai_and_warns():
    code, out, err = run_cli("table", "--family", "invweibull:nu=1,delta=3",
                             "--grid", "8")
    assert code == 0
    assert out.splitlines()[0] == "t,cdf,pdf,rhr,eit"
    assert "rai column omitted" in err


def test_table_json_format():
    code, out, _ = run_cli("table", "--family", "uniform:b=1", "--grid", "8",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[0]["t"] == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert set(rows[0]) == {"t", "cdf", "pdf", "rhr", "eit", "rai"}


def test_table_grid_points_are_probability_spaced():
    code, out, _ = run_cli("table", "--family", "uniform:b=2", "--grid", "9")
    assert code == 0
    ts = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    want = [2.0 * (i + 1) / 10.0 for i in range(9)]
    assert ts == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# identify

def test_identify_ranks_the_generating_family(tmp_path):
    path = write_sample(tmp_path / "power.txt", "power:b=1,c=2")
    code, out, _ = run_cli("identify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 2000
    assert report["ranking"][0]["family"] == "power"
    assert report["ranking"][0]["theorem"] == "T3_4"


def test_identify_csv_format(tmp_path):
    path = write_sample(tmp_path / "t3.txt", "type3ev:gamma=1,b=0", n=1000)
    code, out, _ = run_cli("identify", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,theorem,ratio_hat,score,spread"
    assert lines[1].startswith("type3ev,T3_1,")


def test_identify_too_few_points(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("".join(f"{v}\n" for v in range(10)))
    code, _, err = run_cli("identify", str(path))
    assert code == 1
    assert "50" in err


def test_identify_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n2.0\nbanana\n")
    code, _, err = run_cli("identify", str(path))
    assert code == 1
    assert "line 3" in err


def test_identify_missing_file(tmp_path):
    code, _, err = run_cli("identify", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "absent.txt" in err


# ---------------------------------------------------------------------------
# module entry point

def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "revrel.cli", "verify", "--theorem", "T2_1",
         "--family", "power:b=1,c=2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    (row,) = json.loads(proc.stdout)
    assert row["verdict"] == "StrictInequality"
