"""Golden corpus: the CLI's exact bytes on fixed invocations.

Each case in ``golden_cli.json`` runs ``main(argv)`` in process and pins
stdout, stderr and the exit code byte for byte; the ``--out`` case pins
the written file as well.  The corpus covers all six subcommands in CSV
and JSON plus the refusals that fail within milliseconds, so refactoring
under ``src/`` can be checked to move no printed digit.

Regenerate only when an output changes on purpose, and say which digits
moved and why:

    PYTHONPATH=src python3 tests/test_golden_cli.py

It prints each invocation whose bytes changed with how many printed numbers
moved, and leaves the file untouched when none did.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from rieszbounds.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
ORACLE_PATH = Path(__file__).with_name("golden_oracle.json")
OUT = "{out}"  # stands for the --out path in argv
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

ARGVS = (
    ("bounds", "--d", "2", "--s", "4"),
    ("bounds", "--d", "2", "--s", "4", "--format", "json"),
    ("bounds", "--d", "1", "--s", "2"),
    ("bounds", "--d", "3", "--s", "3.5"),
    ("bounds", "--d", "4", "--s", "34"),
    ("bounds", "--d", "8", "--s", "12", "--format", "json"),
    ("bounds", "--d", "24", "--s", "25"),
    ("table-bd",),
    ("table-bd", "--format", "json"),
    ("plot-fs", "--d", "2", "--s-range", "2.1:10:0.7"),
    ("plot-fs", "--d", "4", "--s-range", "5:20:5"),
    ("plot-fs", "--d", "8", "--s-range", "9:12:1.5", "--format", "json"),
    ("plot-fs", "--d", "24", "--s-range", "25:40:7.5"),
    ("quadrature", "--d", "2", "--N", "4"),
    ("quadrature", "--d", "2", "--N", "6"),
    ("quadrature", "--d", "2", "--N", "100"),
    ("quadrature", "--d", "2", "--N", "961", "--format", "json"),
    ("quadrature", "--d", "2", "--N", "20000"),
    ("quadrature", "--d", "3", "--N", "14", "--format", "json"),
    ("quadrature", "--d", "4", "--N", "7"),
    ("quadrature", "--d", "8", "--N", "50", "--format", "json"),
    ("quadrature", "--d", "24", "--N", "1205640294021801"),
    ("ulb", "--d", "2", "--N", "6", "--potential", "riesz:4"),
    ("ulb", "--d", "2", "--N", "961", "--potential", "riesz:1", "--format", "json"),
    ("ulb", "--d", "3", "--N", "120", "--potential", "gauss:1.5"),
    ("ulb", "--d", "8", "--N", "1000", "--potential", "riesz:10"),
    ("gauss", "--d", "1", "--alpha", "2"),
    ("gauss", "--d", "2", "--alpha", "1", "--rho", "1"),
    ("gauss", "--d", "3", "--alpha", "0.5", "--rho", "2", "--format", "json"),
    ("gauss", "--d", "8", "--alpha", "0.3"),
    ("quadrature", "--d", "3", "--N", "30", "--format", "json", "--out", OUT),
    # refusals that fail fast
    ("bounds", "--d", "2", "--s", "1"),
    ("quadrature", "--d", "3", "--N", "1"),
    ("plot-fs", "--d", "2", "--s-range", "3:6"),
    ("ulb", "--d", "2", "--N", "6", "--potential", "coulomb:1"),
    ("quadrature", "--d", "2", "--N", str(10**30)),
)


def run_case(argv: list[str], out_path: str) -> dict:
    """Run the CLI in process; return its exit code, streams and --out file."""
    writes_file = OUT in argv
    argv = [out_path if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    result = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if writes_file:
        with open(out_path, encoding="utf-8") as fh:
            result["file"] = fh.read()
    return result


@functools.lru_cache(maxsize=None)
def _golden() -> dict[tuple[str, ...], dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return {tuple(case.pop("argv")): case for case in json.load(fh)}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_bytes_match_golden(argv, tmp_path):
    assert run_case(list(argv), str(tmp_path / "out.txt")) == _golden()[argv]


def test_corpus_matches_invocation_list():
    assert list(_golden()) == list(ARGVS)


@functools.lru_cache(maxsize=None)
def _oracle() -> dict[str, list[dict]]:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _ulp(printed: str, exact: str) -> Fraction:
    # the distance of a printed double from its exact value, in its ulp
    x = float(printed)
    return abs(Fraction(x) - Fraction(exact)) / Fraction(math.ulp(x))


def _worst_ulp(case: dict) -> Fraction:
    # the largest distance of a printed node from its 40-digit zero
    return max(_ulp(x, z) for x, z in zip(case["nodes"], case["zeros"]))


def test_endpoint_rule_nodes_are_correctly_rounded():
    # each printed node of a golden endpoint rule is within half an ulp of
    # its 40-digit zero (tests/make_golden_oracle.py); before endpoint rules
    # were built from P_k itself, N = 100 and 961 on S^2 were 11.3 and 705
    # ulp off
    worst = [_worst_ulp(case) for case in _oracle()["quadrature"] if case["endpoint"]]
    assert len(worst) == 6 and max(worst) <= Fraction(1, 2), [float(e) for e in worst]


# The worst node of each golden interior rule, in ulp, as measured when the
# rules were first built from N alone.  Built for L(s) at the rounded s,
# they read 11,010, 1.32 and 0.81 ulp.  At (2, 20000) the node 0.0992, whose
# ulp is 1.4e-17, lay 0.504 ulp off while the Newton step was formed from
# rows rounded to double.  (24, 1205640294021801) is N = D(24, 58) + 1, which
# was refused while the weight of -1 came from a kernel determinant.
_INTERIOR_WORST_ULP = {(2, 20000): 0.4963, (4, 7): 0.3201, (8, 50): 0.2158,
                       (24, 1205640294021801): 0.4828}


def test_interior_rule_nodes_lie_within_their_measured_ulp():
    worst = {(case["d"], case["N"]): _worst_ulp(case) for case in _oracle()["quadrature"]
             if not case["endpoint"]}
    assert set(worst) == set(_INTERIOR_WORST_ULP)
    for key, bound in _INTERIOR_WORST_ULP.items():
        assert worst[key] <= bound, (key, float(worst[key]))


def test_oracle_holds_the_nodes_the_corpus_prints():
    # and the weights and ULB values
    from make_golden_oracle import printed_rule, printed_value

    for case in _oracle()["quadrature"]:
        printed = printed_rule(case["argv"], _golden()[tuple(case["argv"])])
        assert (case["nodes"], case["weights"]) == printed
    assert [case["value"] for case in _oracle()["ulb"]] == [
        printed_value(case["argv"], _golden()[tuple(case["argv"])]) for case in _oracle()["ulb"]]


def test_printed_values_move_no_farther_from_the_oracle(tmp_path):
    # every node, weight and ULB value the CLI prints now lies no farther,
    # in ulp, from its 40- or 50-digit value than the one the committed
    # corpus holds, so a change that moves a golden byte moves it closer
    from make_golden_oracle import printed_rule, printed_value

    out = str(tmp_path / "out.txt")
    for case in _oracle()["quadrature"]:
        nodes, weights = printed_rule(case["argv"], run_case(list(case["argv"]), out))
        for now, was, exact in zip(nodes + weights, case["nodes"] + case["weights"],
                                   case["zeros"] + case["exact_weights"]):
            assert _ulp(now, exact) <= _ulp(was, exact), (case["argv"], now, was)
    for case in _oracle()["ulb"]:
        now = printed_value(case["argv"], run_case(list(case["argv"]), out))
        assert _ulp(now, case["exact"]) <= _ulp(case["value"], case["exact"]), case["argv"]


def _moved_numbers(old: dict, new: dict) -> int:
    """How many printed numbers differ between two results of one invocation."""
    count = 0
    for key in ("stdout", "stderr", "file"):
        before, after = (NUMBER.findall(r.get(key, "")) for r in (old, new))
        count += sum(x != y for x, y in zip(before, after)) + abs(len(before) - len(after))
    return count


if __name__ == "__main__":
    old = _golden() if GOLDEN_PATH.exists() else {}
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            cases.append({"argv": list(argv),
                          **run_case(list(argv), os.path.join(tmp, "out.txt"))})
    changed = [case for case in cases if old.get(tuple(case["argv"])) != {
        k: v for k, v in case.items() if k != "argv"}]
    if not changed and list(old) == list(ARGVS):
        print(f"no invocation changed; {GOLDEN_PATH.name} left as it is")
        sys.exit(0)
    for case in changed:
        argv = tuple(case["argv"])
        what = f"{_moved_numbers(old[argv], case)} printed numbers moved" if argv in old else "new"
        print(f"{' '.join(argv)}: {what}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    sys.exit(0)
