import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rieszbounds
from rieszbounds import cli
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


@pytest.mark.parametrize("s", ["1240", "1240.5"])
def test_bounds_prints_theta_where_pi_to_the_s_over_2_overflows(capsys, s):
    # 2^-s underflows and, from s = 1240.5, pi^(s/2) overflows, while
    # theta = (sqrt(pi)/2)^s is about 9e-66
    code, out, err = run(capsys, "bounds", "--d", "2", "--s", s)
    assert (code, err) == (0, "")
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    want = math.exp(float(s) * math.log(math.sqrt(math.pi) / 2.0))
    assert abs(float(cols["theta"]) - want) <= 1e-12 * want


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
    for rng in ("1.5:10:1", "5:4:1", "3:6:0", "3:6", "a:b:c",
                "3:4:inf", "3:nan:1", "3:inf:1", "inf:inf:1"):
        code, _, err = run(capsys, "plot-fs", "--d", "2", "--s-range", rng)
        assert code == 2, rng
        assert err


def test_plot_fs_refuses_a_long_grid_before_any_row(capsys, monkeypatch):
    # 10^18 rows by the loop's own rule; no row may be evaluated first
    monkeypatch.setattr(cli, "asd_bound", lambda *args: pytest.fail("row evaluated"))
    start = time.perf_counter()
    code, out, err = run(capsys, "plot-fs", "--d", "2", "--s-range", "3:1e9:1e-9")
    assert time.perf_counter() - start < 0.05
    assert code == 3
    assert out == ""
    assert err.startswith("rieszbounds:") and err.count("\n") == 1


def test_plot_fs_row_cap_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_ROWS", 3)
    code, out, _ = run(capsys, "plot-fs", "--d", "2", "--s-range", "3:4:0.5")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3
    code, out, err = run(capsys, "plot-fs", "--d", "2", "--s-range", "3:4.5:0.5")
    assert code == 3
    assert out == ""
    assert "more than 3 rows" in err


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


def _fresh_python(*args):
    # a new interpreter on this source tree
    src = str(Path(rieszbounds.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})


def _fresh_cli(*argv):
    # the CLI in a new interpreter, so that warnings print as a user sees them
    return _fresh_python("-m", "rieszbounds.cli", *argv)


@pytest.mark.parametrize("argv", [("gauss", "--d", "171", "--alpha", "1"),
                                  ("gauss", "--d", "130", "--alpha", "1"),
                                  ("bounds", "--d", "2", "--s", "1e5"),
                                  ("bounds", "--d", "400", "--s", "401"),
                                  ("plot-fs", "--d", "2", "--s-range", "1e5:1e5:1")])
def test_overflow_is_a_one_line_refusal_in_a_fresh_process(argv):
    proc = _fresh_cli(*argv)
    assert proc.returncode in (2, 3)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("rieszbounds:") and proc.stderr.count("\n") == 1


def test_usage_error_is_a_one_line_refusal_in_a_fresh_process():
    proc = _fresh_cli("bounds", "--d", "x", "--s", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "rieszbounds: argument --d: invalid int value: 'x'\n"
    # --help still prints the usage to stdout and succeeds
    proc = _fresh_cli("bounds", "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: rieszbounds bounds")


def test_huge_n_refusal_prints_no_warning():
    # D(8, 600) is so close to the first N that a search on the sign of L - N
    # could not bracket its root (the regula falsi start rounded to the
    # bracket end); with s taken from N exactly, the rule builds.  An N past
    # the order budget refuses in one line, with no numpy warning
    argv = ("ulb", "--d", "8", "--potential", "riesz:1", "--N")
    proc = _fresh_cli(*argv, "3617698316688337")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("d,N,potential,value\n8,3617698316688337,riesz:1,")
    proc = _fresh_cli(*argv, str(3 * 10**25))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("rieszbounds:") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("argv", [("bounds", "--d", "2", "--s", "4"),
                                  ("gauss", "--d", "2", "--alpha", "1"),
                                  ("table-bd",),
                                  ("plot-fs", "--d", "2", "--s-range", "2.5:4:0.5")],
                         ids=lambda argv: argv[0])
def test_subcommand_without_a_rule_imports_no_numpy_in_a_fresh_process(argv):
    # the import log of -X importtime, as the CI step reads it for the
    # installed console script
    proc = _fresh_python("-X", "importtime", "-m", "rieszbounds.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "mpmath" in imported  # the log is read: every one of these loads mpmath
    for module in ("numpy", "fractions"):
        assert not {m for m in imported if m.split(".")[0] == module}, (argv, module)


_NUMPY_PROBE = r"""
import contextlib, io, sys
from rieszbounds.cli import main

def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

for argv, code in [(("bounds", "--d", "8", "--s", "9.5"), 0),
                   (("bounds", "--d", "5", "--s", "7"), 0),
                   (("plot-fs", "--d", "2", "--s-range", "2.5:4:0.5"), 0),
                   (("gauss", "--d", "3", "--alpha", "1"), 0),
                   (("table-bd",), 0),
                   (("bounds", "--s", "2.5", "--d", "3"), 2),
                   (("bounds", "--d", "2", "--s", "inf"), 2),
                   (("ulb", "--d", "2", "--N", "1", "--potential", "riesz:1"), 2),
                   (("quadrature", "--d", "3", "--N", "0"), 2),
                   (("quadrature", "--d", "1", "--N", "5"), 2),
                   (("quadrature", "--d", "2", "--N", str(10**30)), 3)]:
    assert call(*argv) == code, argv
    assert "numpy" not in sys.modules, argv
    assert "fractions" not in sys.modules, argv
assert call("ulb", "--d", "2", "--N", "10", "--potential", "riesz:1") == 0
assert "numpy" in sys.modules
"""


_MPMATH_PROBE = r"""
import contextlib, io, sys
import rieszbounds
from rieszbounds import lattices
from rieszbounds.cli import main
from rieszbounds.errors import DomainError

def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

assert "mpmath" not in sys.modules
for argv, code in [(("quadrature", "--d", "2", "--N", "100"), 0),
                   (("ulb", "--d", "2", "--N", "961", "--potential", "riesz:1"), 0),
                   (("bounds", "--d", "3", "--s", "2.5"), 2),
                   (("ulb", "--d", "2", "--N", "1", "--potential", "riesz:1"), 2),
                   (("bounds", "--d", "2", "--s", "inf"), 2),
                   (("bounds", "--d", "3", "--s", "3.5", "--tol", "1e-13"), 3),
                   (("gauss", "--d", "1", "--alpha", "1e-6"), 3)]:
    assert call(*argv) == code, argv
    assert "mpmath" not in sys.modules, argv
for f, args in [(lattices.c_tilde, (3, 4.0)), (lattices.c_tilde, (2, 2.0)),
                (lattices.c_tilde, (8, float("nan"))), (lattices.epstein_zeta, ("fcc", 5.0)),
                (lattices.epstein_zeta, ("E8", 8.0))]:
    try:
        f(*args)
    except DomainError:
        pass
    else:
        raise AssertionError(args)
    assert "mpmath" not in sys.modules, args
assert call("bounds", "--d", "2", "--s", "4") == 0
assert "mpmath" in sys.modules
"""


def test_subcommands_without_a_rule_load_no_numpy():
    # numpy is most of a cold start; only building a rule or evaluating a
    # potential needs it, and the last call shows the probe sees a load
    proc = _fresh_python("-c", _NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    # mpmath likewise: only Bessel series and lattice zeta values load it,
    # after their argument checks, so a rule and every refusal start without
    proc = _fresh_python("-c", _MPMATH_PROBE)
    assert proc.returncode == 0, proc.stderr
