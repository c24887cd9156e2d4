"""Command line front end.

Emits the bound table, the B_d ratio table, figure-curve data, and
quadrature/energy reports as CSV or JSON.  Output is deterministic:
floats are printed with 17 significant digits (8 decimals for the B_d
table, which is quoted to that precision), rows follow the grid order,
and the delimiter and decimal separator are fixed.

Exit status: 0 on success, 2 for domain errors, 3 for numerical or
resource errors; the reason goes to standard error as a single line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .energy import (
    asd_bound,
    bd_ratio,
    gauss_bound,
    parse_potential,
    theta_bound,
    ulb_energy,
    xi_bound,
    xi_flags,
)
from .errors import DomainError, NumericalError, ResourceError
from .lattices import (C_TILDE_DIMENSIONS, CONJECTURED_DIMENSIONS, LATTICE_FOR_DIMENSION,
                       c_tilde, packing_density)
from .quadrature import build_rule

__all__ = ["main"]
# the longest s grid plot-fs evaluates; a longer one is refused before any row
_MAX_ROWS = 1000


def _fmt(x: float) -> str:
    return "%.17g" % x


def _csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each renders its parsed arguments to the output text
# ---------------------------------------------------------------------------


def _bounds(ns: argparse.Namespace) -> str:
    """All asymptotic bounds at one (d, s), with the conjectured constant
    when the dimension has one."""
    d, s = ns.d, ns.s
    if not s > d:
        raise DomainError(f"bounds requires s > d, got s={s}, d={d}")
    ct = c_tilde(d, s) if d in C_TILDE_DIMENSIONS else None
    theta, xi = theta_bound(d, s), xi_bound(d, s)
    asd = asd_bound(d, s, ns.tol)
    flags = xi_flags(d, s)
    if ns.format == "json":
        payload = {"d": d, "s": s, "theta": theta, "xi": xi, "xi_flag": list(flags),
                   "a_sd": asd.value, "a_sd_terms_used": asd.terms_used,
                   "a_sd_tail_bound": asd.tail_bound}
        if ct is not None:
            payload["c_tilde"] = ct
        return json.dumps(payload) + "\n"
    return _csv(("d", "s", "theta", "xi", "xi_flag", "a_sd", "tail_bound", "terms", "c_tilde"),
                [(str(d), _fmt(s), _fmt(theta), _fmt(xi), "|".join(flags), _fmt(asd.value),
                  _fmt(asd.tail_bound), str(asd.terms_used), "" if ct is None else _fmt(ct))])


def _table_bd(ns: argparse.Namespace) -> str:
    """Rows (d, B_d, conjectured) of the limiting ratio table.

    B_d compares the sphere-packing corollary's density bound with the
    best known packing density; optimality of that packing is open in
    d = 4..7, so those rows carry the conjectured flag.
    """
    rows = []
    for d, lattice in LATTICE_FOR_DIMENSION.items():
        delta = packing_density(lattice)
        rows.append((d, bd_ratio(d, delta), d in CONJECTURED_DIMENSIONS))
    if ns.format == "json":
        return json.dumps([
            {"d": d, "b_d": float(f"{b:.8f}"), "conjectured": flag}
            for d, b, flag in rows]) + "\n"
    return _csv(("d", "b_d", "conjectured"),
                [(str(d), f"{b:.8f}", "yes" if flag else "no")
                 for d, b, flag in rows])


def _parse_s_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"s-range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"s-range must be three numbers, got {text!r}") from None
    return start, stop, step


def _plot_fs(ns: argparse.Namespace) -> str:
    """Figure-curve grid: (s, A, C-tilde, f = (C~/A)^(1/s)) per row.

    The root-scale gap column |c_tilde^(1/s) - a_sd^(1/s)| quantifies how
    close the two curves run; for d = 2 the companion columns add the
    root-scale volume and Gamma-ratio bounds.
    """
    d = ns.d
    start, stop, step = _parse_s_range(ns.s_range)
    if d not in C_TILDE_DIMENSIONS:
        raise DomainError(
            f"plot-fs requires d in {C_TILDE_DIMENSIONS} (conjectured constant), got {d}")
    if not 0.0 < step < math.inf:
        raise DomainError(f"s-range step must be positive and finite, got {step}")
    if not d < start < math.inf:
        raise DomainError(f"s-range start must be finite and exceed d={d}, got {start}")
    if not start <= stop < math.inf:
        raise DomainError(f"s-range stop must be finite and at least start {start}, got {stop}")
    grid: list[float] = []
    while not (s := start + len(grid) * step) > stop + 1e-9 * step:
        if len(grid) == _MAX_ROWS:
            raise ResourceError(f"s-range {ns.s_range} has more than {_MAX_ROWS} rows")
        grid.append(s)
    header: tuple[str, ...] = ("s", "a_sd", "c_tilde", "f", "root_gap")
    if d == 2:
        header = header + ("theta_root", "xi_root", "a_sd_root")
    rows = []
    for s in grid:
        a = asd_bound(d, s, ns.tol).value
        ct = c_tilde(d, s)
        a_root = a ** (1.0 / s)
        ct_root = ct ** (1.0 / s)
        row = (s, a, ct, ct_root / a_root, abs(ct_root - a_root))
        if d == 2:
            row = row + (theta_bound(d, s) ** (1.0 / s),
                         xi_bound(d, s) ** (1.0 / s), a_root)
        rows.append(row)
    if ns.format == "json":
        return json.dumps([dict(zip(header, row)) for row in rows]) + "\n"
    return _csv(header, [tuple(_fmt(x) for x in row) for row in rows])


def _quadrature(ns: argparse.Namespace) -> str:
    rule = build_rule(ns.d, ns.n)
    interior = list(zip(rule.nodes, rule.weights))[::-1]  # ascending
    if ns.format == "json":
        payload = {
            "d": rule.d, "N": rule.n, "tau": rule.tau,
            "exact_degree": rule.exact_degree, "parity": rule.parity,
            "nodes": [t for t, _ in interior],
            "weights": [w for _, w in interior],
            "endpoint_weight": 1.0 / rule.n,
        }
        return json.dumps(payload) + "\n"
    rows = [(_fmt(t), _fmt(w), "interior") for t, w in interior]
    rows.append((_fmt(1.0), _fmt(1.0 / rule.n), "endpoint"))
    return _csv(("node", "weight", "kind"), rows)


def _ulb(ns: argparse.Namespace) -> str:
    value = ulb_energy(ns.d, ns.n, parse_potential(ns.potential))
    if ns.format == "json":
        return json.dumps({"d": ns.d, "N": ns.n, "potential": ns.potential,
                           "value": value}) + "\n"
    return _csv(("d", "N", "potential", "value"),
                [(str(ns.d), str(ns.n), ns.potential, _fmt(value))])


def _gauss(ns: argparse.Namespace) -> str:
    gb = gauss_bound(ns.d, ns.alpha, ns.rho)
    if ns.format == "json":
        return json.dumps({"d": ns.d, "alpha": ns.alpha, "rho": ns.rho,
                           "value": gb.value,
                           "terms_used": gb.terms_used,
                           "tail_bound": gb.tail_bound}) + "\n"
    return _csv(("d", "alpha", "rho", "value", "terms_used", "tail_bound"),
                [(str(ns.d), _fmt(ns.alpha), _fmt(ns.rho), _fmt(gb.value),
                  str(gb.terms_used), _fmt(gb.tail_bound))])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # a usage error is one stderr line and exit 2; subcommands inherit this
    def error(self, message: str):
        self.exit(2, f"rieszbounds: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rieszbounds",
        description="Linear-programming lower bounds for minimal energy on spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, render) -> None:
        # the options every subcommand shares, and the renderer it runs
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(render=render)

    p = sub.add_parser("bounds", help="all asymptotic bounds at one (d, s)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p, _bounds)

    p = sub.add_parser("table-bd", help="limiting-ratio table B_d")
    common(p, _table_bd)

    p = sub.add_parser("plot-fs", help="figure curves over an s grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s-range", type=str, required=True, metavar="START:STOP:STEP")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p, _plot_fs)

    p = sub.add_parser("quadrature", help="1/N-quadrature rule nodes and weights")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="n")
    common(p, _quadrature)

    p = sub.add_parser("ulb", help="universal lower bound N^2 sum w h(x)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="n")
    p.add_argument("--potential", type=str, required=True,
                   help="riesz:s or gauss:alpha")
    common(p, _ulb)

    p = sub.add_parser("gauss", help="Gaussian energy bound in R^d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    common(p, _gauss)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        text = ns.render(ns)
    except DomainError as exc:
        print(f"rieszbounds: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ResourceError) as exc:
        print(f"rieszbounds: {exc}", file=sys.stderr)
        return 3
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
