import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rieszbounds
from rieszbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_d1_s2_asd_column(capsys):
    code, out, err = run(capsys, "bounds", "--d", "1", "--s", "2")
    assert code == 0 and err == ""
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["a_sd"]) - math.pi**2 / 3.0) < 1e-7
    assert cols["c_tilde"] == ""  # no conjectured constant at d=1


def test_bounds_d2_s4_theta_column(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--s", "4")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["theta"]) - math.pi**2 / 16.0) < 1e-7
    assert abs(float(cols["xi"]) - math.pi**2 / 4.0) < 1e-7
    assert float(cols["c_tilde"]) > float(cols["a_sd"])


def test_bounds_rejects_s_below_d(capsys):
    code, out, err = run(capsys, "bounds", "--d", "2", "--s", "1")
    assert code == 2
    assert out == ""
    assert "requires s > d" in err


def test_bounds_exit_three_on_unreachable_tol(capsys):
    code, _, err = run(capsys, "bounds", "--d", "2", "--s", "3", "--tol", "1e-30")
    assert code == 3
    assert err.startswith("rieszbounds:")


def test_bounds_json_parses(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--s", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2 and payload["s"] == 4.0
    assert abs(payload["theta"] - math.pi**2 / 16.0) < 1e-12


def test_table_bd_rows_and_determinism(capsys):
    code, out, _ = run(capsys, "table-bd")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,b_d,conjectured"
    assert len(lines) == 10
    table = {int(r.split(",")[0]): r.split(",")[1:] for r in lines[1:]}
    assert table[1][0] == "1.00000000"
    assert table[2][0] == "1.00589479"
    assert table[4] == ["1.02440844", "yes"]
    assert table[8] == ["1.01742074", "no"]
    # the printed table's d=24 entry drops a digit; the computed value is right
    assert table[24][0] == "1.02413055"
    code2, out2, _ = run(capsys, "table-bd")
    assert out2 == out


def test_table_bd_json(capsys):
    code, out, _ = run(capsys, "table-bd", "--format", "json")
    rows = json.loads(out)
    assert [r["d"] for r in rows] == [1, 2, 3, 4, 5, 6, 7, 8, 24]
    assert all(isinstance(r["conjectured"], bool) for r in rows)
    assert sum(r["conjectured"] for r in rows) == 4


def test_plot_fs_grid_properties(capsys):
    code, out, _ = run(capsys, "plot-fs", "--d", "2", "--s-range", "2.1:50:0.7")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["s", "a_sd", "c_tilde", "f", "root_gap"]
    assert "theta_root" in header and "xi_root" in header
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    fs = [float(r["f"]) for r in rows]
    assert all(f >= 1.0 - 1e-9 for f in fs)
    assert abs(fs[0] - 1.0) < 5e-3  # s -> d from above pulls f to 1
    b2 = 1.00589479
    assert abs(float(rows[-1]["f"]) - b2) < 1e-3  # s = 49.8 sits near the limit
    ss = [float(r["s"]) for r in rows]
    assert ss == sorted(ss)
    assert abs(ss[0] - 2.1) < 1e-12 and ss[-1] <= 50.0 + 1e-9


def test_plot_fs_no_companion_columns_outside_d2(capsys):
    code, out, _ = run(capsys, "plot-fs", "--d", "8", "--s-range", "9:12:1.5")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    assert header == ["s", "a_sd", "c_tilde", "f", "root_gap"]


def test_plot_fs_rejects_bad_ranges(capsys):
    for rng in ("1.5:10:1", "5:4:1", "3:6:0", "3:6", "a:b:c"):
        code, _, err = run(capsys, "plot-fs", "--d", "2", "--s-range", rng)
        assert code == 2, rng
        assert err


def test_plot_fs_rejects_unsupported_dimension(capsys):
    code, _, err = run(capsys, "plot-fs", "--d", "3", "--s-range", "4:6:1")
    assert code == 2
    assert err


def test_quadrature_golden_tetrahedron(capsys):
    code, out, _ = run(capsys, "quadrature", "--d", "2", "--N", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,weight,kind"
    cells = [ln.split(",") for ln in lines[1:]]
    assert abs(float(cells[0][0]) + 1.0 / 3.0) < 1e-14
    assert abs(float(cells[0][1]) - 0.75) < 1e-12
    assert cells[-1][0] == "1" and cells[-1][2] == "endpoint"
    assert abs(float(cells[-1][1]) - 0.25) < 1e-15


def test_quadrature_json_structure(capsys):
    code, out, _ = run(capsys, "quadrature", "--d", "3", "--N", "14", "--format", "json")
    payload = json.loads(out)
    assert payload["d"] == 3 and payload["N"] == 14
    assert len(payload["nodes"]) == len(payload["weights"])
    assert payload["endpoint_weight"] == pytest.approx(1.0 / 14.0)
    assert payload["exact_degree"] >= payload["tau"]


def test_ulb_octahedron_value(capsys):
    code, out, _ = run(capsys, "ulb", "--d", "2", "--N", "6", "--potential", "riesz:4")
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[-1])
    assert abs(value - 6.375) < 1e-12


def test_ulb_rejects_bad_potential(capsys):
    code, _, err = run(capsys, "ulb", "--d", "2", "--N", "6", "--potential", "coulomb:1")
    assert code == 2
    assert "potential" in err


def test_gauss_decreasing_in_alpha(capsys):
    _, out1, _ = run(capsys, "gauss", "--d", "2", "--alpha", "1", "--rho", "1")
    _, out2, _ = run(capsys, "gauss", "--d", "2", "--alpha", "2", "--rho", "1")
    v1 = float(out1.strip().splitlines()[1].split(",")[3])
    v2 = float(out2.strip().splitlines()[1].split(",")[3])
    assert v1 > v2 > 0.0
    assert abs(v1 - 2.1417388079459667) < 1e-12


def test_gauss_rejects_negative_alpha(capsys):
    code, _, err = run(capsys, "gauss", "--d", "2", "--alpha", "-1", "--rho", "1")
    assert code == 2
    assert err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "bounds", "--d", "2", "--s", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("d,s,theta")


@pytest.mark.parametrize("argv", [("bounds", "--d", "2", "--s", "inf"),
                                  ("bounds", "--d", "3", "--s", "inf"),
                                  ("gauss", "--d", "2", "--alpha", "1", "--rho", "inf")])
def test_non_finite_arguments_exit_two_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("rieszbounds:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("bounds", "--d", "3", "--s", "3.5", "--tol", "1e-13"),
                                  ("gauss", "--d", "2", "--alpha", "1e-6"),
                                  ("gauss", "--d", "171", "--alpha", "1"),
                                  ("gauss", "--d", "130", "--alpha", "1")])
def test_certain_failures_exit_three_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.05
    assert code == 3
    assert out == ""
    assert err.startswith("rieszbounds:") and err.count("\n") == 1


def test_quadrature_huge_n_exits_three_without_traceback(capsys):
    code, out, err = run(capsys, "quadrature", "--d", "2", "--N", str(10**30))
    assert code == 3
    assert out == ""
    assert err.startswith("rieszbounds:") and err.count("\n") == 1


@pytest.mark.parametrize("potential", ["riesz:inf", "gauss:inf"])
def test_ulb_rejects_infinite_potential_parameter(capsys, potential):
    code, out, err = run(capsys, "ulb", "--d", "2", "--N", "6", "--potential", potential)
    assert code == 2
    assert out == ""
    assert err.startswith("rieszbounds:") and err.count("\n") == 1
    assert "finite" in err


def _fresh_cli(*argv):
    # the CLI in a new interpreter, so that warnings print as a user sees them
    src = str(Path(rieszbounds.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "rieszbounds.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv", [("gauss", "--d", "171", "--alpha", "1"),
                                  ("gauss", "--d", "130", "--alpha", "1"),
                                  ("bounds", "--d", "2", "--s", "1e5"),
                                  ("bounds", "--d", "400", "--s", "401")])
def test_overflow_is_a_one_line_refusal_in_a_fresh_process(argv):
    proc = _fresh_cli(*argv)
    assert proc.returncode in (2, 3)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("rieszbounds:") and proc.stderr.count("\n") == 1


def test_huge_n_refusal_prints_no_warning():
    # D(8, 600) is so close to this N that the regula falsi start of the
    # Levenshtein inversion rounds to the bracket end; a secant through two
    # equal points would divide by zero and numpy would warn on stderr
    proc = _fresh_cli("ulb", "--d", "8", "--N", "3617698316688337", "--potential", "riesz:1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("rieszbounds:") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr
