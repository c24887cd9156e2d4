"""Output checks for the benchmark ops, run after the timed region.

Usage: python3 perfbench/checks.py < {"workload": ..., "ops": [...]}
writes {"failed": [...], "failures": [...], "notes": [...], "correct": ...}.

An op fails when it raised on a valid input, refused an input uncleanly,
or returned an output that disagrees with the stored reference or breaks
an invariant.  The last kind is a wrong output and makes the run
incorrect.  Stored references are compared at a relative tolerance loose
enough for last-digit moves.  The checks run in their own process, which
imports the library to rebuild rules and evaluate the sharp
configurations; the parent stays small, because a child's peak RSS
counts the parent's memory at spawn.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads

ORACLES_PATH = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"

REL_TOL = 1e-8
EXACTNESS_TOL = 1e-12
SHARP_TOL = 1e-12
ASD_TOL = 1e-10               # the default tol of asd_bound
ZETA_TOL = 1e-8               # asd(1, s) against 2 zeta(s), as in the acceptance test
SHARP_RIESZ_S = 4.0


def load_oracles():
    """``tests/oracles.py``, the independent reference routes, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
    if spec is None or spec.loader is None:
        raise OSError(f"cannot load oracles from {ORACLES_PATH}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Report:
    failed: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    correct: bool = True

    def fail(self, k: int, op: dict, reason: str, wrong: bool) -> None:
        if k not in self.failed:
            self.failed.add(k)
            self.failures.append({"op": k, "kind": op["kind"], "args": op["args"],
                                  "reason": reason, "wrong_output": wrong})
        if wrong:
            self.correct = False


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(abs(want), 1e-300)


def check(workload: str, ops: list[dict], pool: list[dict]) -> Report:
    report = Report()
    for k, op in enumerate(ops):
        if workload != "cli-cold" and not op["ok"]:
            report.fail(k, op, op["err"], wrong=False)
    CHECKS[workload](ops, pool, report)
    return report


def _valid(ops: list[dict], report: Report):
    return ((k, op) for k, op in enumerate(ops) if op["ok"] and k not in report.failed)


def _check_ulb_sweep(ops, pool, report):
    import rieszbounds as rb
    for k, op in _valid(ops, report):
        ref = pool[op["i"]]["ref"]
        if not math.isfinite(op["out"]) or op["out"] <= 0.0:
            report.fail(k, op, f"value {op['out']} not finite and positive", wrong=True)
        elif ref is not None and not close(op["out"], ref):
            report.fail(k, op, f"value {op['out']!r} differs from reference {ref!r}", wrong=True)
    # L(d, s) is nondecreasing in s
    lev = sorted((op["args"]["d"], op["args"]["s"], op["out"], k) for k, op in _valid(ops, report)
                 if op["kind"] == "lev")
    for (d0, s0, v0, _), (d1, s1, v1, k1) in zip(lev, lev[1:]):
        if d0 == d1 and s1 > s0 and v1 < v0 * (1.0 - 1e-12):
            report.fail(k1, ops[k1], f"L({d1}, {s1}) = {v1} below L({d0}, {s0}) = {v0}",
                        wrong=True)
    # rebuilt rules of round 0 integrate to their degree: every rule with
    # N < 1e4 and the first larger one per dimension
    large_seen = set()
    for k, op in _valid(ops, report):
        if op["kind"] != "ulb" or op["round"] != 0:
            continue
        d, n = op["args"]["d"], op["args"]["N"]
        if n >= 10_000:
            if d in large_seen:
                continue
            large_seen.add(d)
        rule = rb.build_rule(d, n)
        defect = rb.verify_exactness(rule, rule.exact_degree)
        if not defect <= EXACTNESS_TOL:
            report.fail(k, op, f"rule exactness defect {defect:.3e} to degree "
                               f"{rule.exact_degree}", wrong=True)
    report.notes.append(f"exactness checked on {len(large_seen)} large rules of round 0")
    # sharp configurations: simplex N = d + 2 and cross-polytope N = 2d + 2
    h = lambda t: (2.0 - 2.0 * t) ** (-SHARP_RIESZ_S / 2.0)
    for d in workloads.ULB_DIMS:
        for n, want in ((d + 2, (d + 2) * (d + 1) * h(-1.0 / (d + 1))),
                        (2 * d + 2, (2 * d + 2) * (2 * d * h(0.0) + h(-1.0)))):
            got = rb.ulb_energy(d, n, rb.RieszPotential(SHARP_RIESZ_S))
            if not close(got, want, SHARP_TOL):
                report.correct = False
                report.notes.append(f"sharp value d={d} N={n}: {got!r} != {want!r}")


def _check_fs_curve(ops, pool, report):
    for k, op in _valid(ops, report):
        theta, xi, a, tail, ct = op["out"]
        ref = pool[op["i"]]["ref"]
        if ref is not None:
            for name, got, want in (("theta", theta, ref[0]), ("xi", xi, ref[1]),
                                    ("a_sd", a, ref[2]), ("c_tilde", ct, ref[4])):
                if not close(got, want):
                    report.fail(k, op, f"{name} {got!r} differs from reference {want!r}",
                                wrong=True)
        # theta and xi are both below A; neither dominates the other for
        # large s - d, so their mutual order is not checked
        if not max(theta, xi) < a <= ct:
            report.fail(k, op, f"order max(theta, xi) < A <= C~ broken: {op['out']}", wrong=True)
        if not tail <= ASD_TOL * a:
            report.fail(k, op, f"tail {tail} above tol * A", wrong=True)


def _check_asd_cold(ops, pool, report):
    oracles = load_oracles()
    for k, op in _valid(ops, report):
        value, _terms, tail = op["out"]
        ref = pool[op["i"]]["ref"]
        d, s = op["args"]["d"], op["args"]["s"]
        if ref is not None and not close(value, ref[0]):
            report.fail(k, op, f"value {value!r} differs from reference {ref[0]!r}", wrong=True)
        if not tail <= ASD_TOL * value:
            report.fail(k, op, f"tail {tail} above tol * value", wrong=True)
        if d == 1:
            want = 2.0 * oracles.zeta_em(s)
            if not close(value, want, ZETA_TOL):
                report.fail(k, op, f"A(s,1) = {value!r}, 2 zeta(s) = {want!r}", wrong=True)


def _same_csv(got: str, want: str) -> bool:
    a, b = got.splitlines(), want.splitlines()
    if len(a) != len(b) or (a and a[0] != b[0]):
        return False
    for la, lb in zip(a[1:], b[1:]):
        fa, fb = la.split(","), lb.split(",")
        if len(fa) != len(fb):
            return False
        for x, y in zip(fa, fb):
            if x == y:
                continue
            try:
                if not close(float(x), float(y)):
                    return False
            except ValueError:
                return False
    return True


def _check_cli_cold(ops, pool, report):
    for k, op in enumerate(ops):
        entry = pool[op["i"]]
        rc, out, err = op["out"]["rc"], op["out"]["stdout"], op["out"]["stderr"]
        if entry["tag"][0] == "invalid":
            lines = err.splitlines()
            if rc == 0:
                report.fail(k, op, "invalid input accepted", wrong=True)
            elif rc not in (2, 3) or out or len(lines) != 1 \
                    or not lines[0].startswith("rieszbounds:") or "Traceback" in err:
                report.fail(k, op, f"unclean refusal: exit {rc}, stderr {err[-300:]!r}",
                            wrong=False)
            continue
        if rc != 0 or err:
            report.fail(k, op, f"exit {rc}, stderr {err[-300:]!r}", wrong=False)
        elif not _same_csv(out, entry["ref"]["stdout"]):
            report.fail(k, op, f"stdout differs from reference: {out[:200]!r}", wrong=True)


CHECKS = {"ulb-sweep": _check_ulb_sweep, "fs-curve": _check_fs_curve,
          "asd-cold": _check_asd_cold, "cli-cold": _check_cli_cold}


def main() -> int:
    request = json.load(sys.stdin)
    workload = request["workload"]
    report = check(workload, request["ops"], workloads.load_pool()[workload])
    out = asdict(report)
    out["failed"] = sorted(report.failed)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
