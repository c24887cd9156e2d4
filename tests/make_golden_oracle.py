"""Write golden_oracle.json: 40-digit nodes of the golden quadrature rules.

The Levenshtein rule's nodes below 1 are the k zeros of P_k(t) P_{k-1}(s) -
P_{k-1}(t) P_k(s) in the (1, b) family, k = (tau+1)//2, b = tau + 1 mod 2,
where L_tau(d, s) = N, and, for even tau, the node -1.  At N = D(d, tau+1)
they are the zeros of P_k itself, found by mpmath Newton from the printed
node (oracles.jacobi_zero_mp).  At any other N, s* is the 50-digit root of
the branch formula bracketed around the printed s (oracles.lev_root_mp),
and each node the zero found from the printed one by the secant method
(oracles.rule_node_mp).  Every quadrature invocation of the golden corpus
gets its nodes stored beside these zeros, so the tests of the printed nodes
need neither mpmath nor the library:

    python3 tests/make_golden_oracle.py

Rerun it whenever tests/golden_cli.json is regenerated.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp

import oracles

HERE = Path(__file__).parent


def design_size(d: int, tau: int) -> int:
    # D(d, tau), the cardinality at which the strength tau rules end
    k = (tau + 1) // 2
    if tau % 2:
        return 2 * math.comb(d + k - 1, d)
    return math.comb(d + k, d) + math.comb(d + k - 1, d)


def printed_nodes(argv: list[str], result: dict) -> list[str]:
    # the nodes below 1, ascending, as the CSV or JSON output prints them
    text = result.get("file", result["stdout"])
    if "--format" in argv:
        return [repr(x) for x in json.loads(text)["nodes"]]
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [node for node, _, kind in rows if kind == "interior"]


def oracle_cases() -> list[dict]:
    with open(HERE / "golden_cli.json", encoding="utf-8") as fh:
        corpus = json.load(fh)
    cases = []
    for case in corpus:
        argv = case["argv"]
        if argv[0] != "quadrature" or case["code"] != 0:
            continue
        d, n = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--N") + 1])
        tau = next(t for t in range(1, n) if n <= design_size(d, t + 1))
        k, b = (tau + 1) // 2, 1 - tau % 2
        nodes = printed_nodes(argv, case)
        entry = {"argv": argv, "d": d, "N": n, "tau": tau, "family": [1, b],
                 "endpoint": n == design_size(d, tau + 1)}
        if entry["endpoint"]:
            zeros = [oracles.jacobi_zero_mp(k, d, 1, b, float(x)) for x in nodes[b:]]
        else:
            s = oracles.lev_root_mp(d, tau, n, float(nodes[-1]))
            entry["s"] = mp.nstr(s, 50)
            zeros = [oracles.rule_node_mp(d, tau, s, float(x)) for x in nodes[b:]]
        cases.append({**entry, "nodes": nodes,
                      "zeros": ["-1"] * b + [mp.nstr(z, 40) for z in zeros]})
    return cases


if __name__ == "__main__":
    with open(HERE / "golden_oracle.json", "w", encoding="utf-8") as fh:
        json.dump(oracle_cases(), fh, indent=1)
        fh.write("\n")
