"""Write golden_oracle.json: the golden corpus's rules and ULB values to 40+ digits.

The Levenshtein rule's nodes below 1 are the k zeros of P_k(t) P_{k-1}(s) -
P_{k-1}(t) P_k(s) in the (1, b) family, k = (tau+1)//2, b = tau + 1 mod 2,
where L_tau(d, s) = N, and, for even tau, the node -1.  At N = D(d, tau+1)
they are the zeros of P_k itself, found by mpmath Newton from the printed
node (oracles.jacobi_zero_mp).  At any other N, s* is the 50-digit root of
the branch formula bracketed around the printed s (oracles.lev_root_mp),
and each node the zero found from the printed one by the secant method
(oracles.rule_node_mp).  The weights are the Christoffel numbers at those
zeros, M / (f(t) Q_{k-1}(t, t)), and the node -1's from the Gegenbauer
kernel (oracles.rule_weights_mp).  Every quadrature invocation of the golden
corpus gets its printed nodes and weights stored beside these values, and
every ulb invocation its printed value beside N^2 sum w h over the exact
rule at 50 digits (oracles.ulb_mp), so the tests of the printed values
need neither mpmath nor the library:

    python3 tests/make_golden_oracle.py

Rerun it whenever tests/golden_cli.json is regenerated.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

import oracles

HERE = Path(__file__).parent


def printed_rule(argv: list[str], result: dict) -> tuple[list[str], list[str]]:
    # the nodes below 1, ascending, and their weights, as the CSV or JSON
    # output prints them
    text = result.get("file", result["stdout"])
    if "--format" in argv:
        data = json.loads(text)
        return [repr(x) for x in data["nodes"]], [repr(w) for w in data["weights"]]
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return ([node for node, _, kind in rows if kind == "interior"],
            [weight for _, weight, kind in rows if kind == "interior"])


def printed_value(argv: list[str], result: dict) -> str:
    # the value an ulb invocation prints, in CSV or JSON
    if "--format" in argv:
        return repr(json.loads(result["stdout"])["value"])
    return result["stdout"].splitlines()[1].split(",")[-1]


def potential_mp(text: str):
    # h(t) of a CLI potential, riesz:s or gauss:alpha, on mpf arguments
    kind, value = text.split(":")
    par = mp.mpf(value)
    if kind == "riesz":
        return lambda t: (2 - 2 * t) ** (-par / 2)
    return lambda t: mp.exp(-par * (2 - 2 * t))


def quadrature_case(argv: list[str], result: dict) -> dict:
    d, n = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--N") + 1])
    tau = next(t for t in range(1, n) if n <= oracles.design_size(d, t + 1))
    k, b = (tau + 1) // 2, 1 - tau % 2
    nodes, weights = printed_rule(argv, result)
    entry = {"argv": argv, "d": d, "N": n, "tau": tau, "family": [1, b],
             "endpoint": n == oracles.design_size(d, tau + 1)}
    if entry["endpoint"]:
        zeros = [oracles.jacobi_zero_mp(k, d, 1, b, float(x)) for x in nodes[b:]]
    else:
        s = oracles.lev_root_mp(d, tau, n, float(nodes[-1]))
        entry["s"] = mp.nstr(s, 50)
        zeros = [oracles.rule_node_mp(d, tau, s, float(x)) for x in nodes[b:]]
    zeros = [mp.mpf(-1)] * b + zeros
    exact = oracles.rule_weights_mp(d, tau, zeros)
    return {**entry, "nodes": nodes, "zeros": ["-1"] * b + [mp.nstr(z, 40) for z in zeros[b:]],
            "weights": weights, "exact_weights": [mp.nstr(w, 40) for w in exact]}


def ulb_case(argv: list[str], result: dict) -> dict:
    d, n = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--N") + 1])
    potential = argv[argv.index("--potential") + 1]
    exact = oracles.ulb_mp(d, n, potential_mp(potential))
    return {"argv": argv, "d": d, "N": n, "potential": potential,
            "value": printed_value(argv, result), "exact": mp.nstr(exact, 50)}


def oracle_cases() -> dict:
    with open(HERE / "golden_cli.json", encoding="utf-8") as fh:
        corpus = json.load(fh)
    made = {"quadrature": quadrature_case, "ulb": ulb_case}
    cases = {kind: [] for kind in made}
    for case in corpus:
        if case["argv"][0] in made and case["code"] == 0:
            cases[case["argv"][0]].append(made[case["argv"][0]](case["argv"], case))
    return cases


if __name__ == "__main__":
    with open(HERE / "golden_oracle.json", "w", encoding="utf-8") as fh:
        json.dump(oracle_cases(), fh, indent=1)
        fh.write("\n")
