"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL line
with the measured quantity before asserting, so a full run reads as a
checklist. Tolerances are the contract values, not what the code happens
to achieve.
"""

import math
import random
import time

import oracles
from rieszbounds import energy, jacobi, lattices, quadrature
from rieszbounds.cli import main as cli_main


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_table_bd(capsys):
    printed = {
        1: "1.00000000", 2: "1.00589479", 3: "1.02703993", 4: "1.02440844",
        5: "1.03861371", 6: "1.03461793", 7: "1.03156355", 8: "1.01742074",
        24: "1.02413055",  # paper prints 1.02403055 with a dropped digit
    }
    start = time.perf_counter()
    code = cli_main(["table-bd"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = {int(r.split(",")[0]): r.split(",")[1] for r in out.strip().splitlines()[1:]}
    bad = {d: (rows[d], printed[d]) for d in printed if rows[d] != printed[d]}
    ok = code == 0 and not bad and elapsed < 30.0
    with capsys.disabled():
        _report(1, ok,
                f"all nine B_d to 8 dp in {elapsed:.2f}s (B_24 corrected to "
                f"1.02413055; the printed 1.02403055 drops a digit); mismatches: {bad or 'none'}")


def test_criterion_02_d1_closed_form(capsys):
    worst = 0.0
    for s in (1.5, 2.0, 3.0, 6.0):
        want = 2.0 * oracles.zeta_em(s)
        got = energy.asd_bound(1, s, 1e-10).value
        worst = max(worst, abs(got - want) / want)
    with capsys.disabled():
        _report(2, worst < 1e-8,
                f"asd(1,s) vs independent Euler-Maclaurin 2*zeta(s), worst rel {worst:.3e} < 1e-8")


def _tet_oct_energies(s):
    """Riesz s-energies of the regular tetrahedron and octahedron on S^2."""
    return 12.0 * (8.0 / 3.0) ** (-s / 2.0), 24.0 * 2.0 ** (-s / 2.0) + 6.0 * 2.0**-s


def test_criterion_03_sharp_configurations(capsys):
    worst = 0.0
    for s in (2.0, 3.0, 4.0, 6.0):
        tet = energy.ulb_energy(2, 4, energy.RieszPotential(s))
        oct_ = energy.ulb_energy(2, 6, energy.RieszPotential(s))
        want_tet, want_oct = _tet_oct_energies(s)
        worst = max(worst, abs(tet - want_tet) / want_tet, abs(oct_ - want_oct) / want_oct)
    with capsys.disabled():
        _report(3, worst < 1e-12,
                f"tetrahedron and octahedron ULB energies, worst rel {worst:.3e} < 1e-12")


def test_criterion_04_residue_limits(capsys):
    worst_dev = 0.0
    worst_ratio = (0.0, 0.0)
    ok = True
    for d in (1, 2, 3):
        target = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        for bound in (energy.xi_bound, lambda d, s: energy.asd_bound(d, s, 1e-10).value):
            dev4 = abs(1e-4 * bound(d, d + 1e-4) - target) / target
            dev5 = abs(1e-5 * bound(d, d + 1e-5) - target) / target
            worst_dev = max(worst_dev, dev4)
            ratio = dev4 / dev5
            if not 5.0 < ratio < 20.0:
                ok = False
                worst_ratio = (d, ratio)
            ok = ok and dev4 < 0.01
    with capsys.disabled():
        _report(4, ok,
                f"(s-d)*xi and (s-d)*asd at delta=1e-4, worst dev {worst_dev:.3e} < 1%, "
                f"tenfold shrink verified (bad: {worst_ratio if not ok else 'none'})")


def test_criterion_05_quadrature_exactness(capsys):
    rng = random.Random(20260822)
    worst_exact = 0.0
    weakest_witness = math.inf
    for d in (2, 3, 8):
        sizes = [quadrature.dgs_bound(d, 2 * k) for k in range(1, 11)]
        sizes += [rng.randint(2, 2500) for _ in range(20)]
        for n in sizes:
            rule = quadrature.build_rule(d, n)
            tau = rule.exact_degree
            worst_exact = max(worst_exact, quadrature.verify_exactness(rule, tau))
            witness = 0.0
            for deg in (tau + 1, tau + 2):
                pv = jacobi.jacobi_values(deg, d, 0, 0, rule.nodes)[deg]
                defect = abs(1.0 / n + sum(w * v for w, v in zip(rule.weights, pv)))
                witness = max(witness, defect)
            weakest_witness = min(weakest_witness, witness)
    ok = worst_exact < 1e-10 and weakest_witness > 1e-4
    with capsys.disabled():
        _report(5, ok,
                f"d in {{2,3,8}}, design and 20 random sizes: exact-degree defect "
                f"{worst_exact:.3e} < 1e-10, degree tau+2 witness {weakest_witness:.3e} > 1e-4")


def test_criterion_06_endpoint_identities(capsys):
    worst = 0.0
    for d in (2, 3, 4, 8):
        for k in range(1, 11):
            g10 = jacobi.largest_zero(k, d, 1, 0)
            d_even = quadrature.dgs_bound(d, 2 * k)
            for tau in (2 * k - 1, 2 * k):
                worst = max(worst, abs(quadrature.lev_branch(d, tau, g10) - d_even) / d_even)
            if k >= 2:
                g11 = jacobi.largest_zero(k - 1, d, 1, 1)
                d_odd = quadrature.dgs_bound(d, 2 * k - 1)
                for tau in (2 * k - 2, 2 * k - 1):
                    worst = max(worst, abs(quadrature.lev_branch(d, tau, g11) - d_odd) / d_odd)
    with capsys.disabled():
        _report(6, worst < 1e-8,
                f"adjacent Levenshtein branches meet the design cardinalities at the "
                f"interval endpoints, worst rel defect {worst:.3e} < 1e-8")


def test_criterion_07_ulb_convergence(capsys):
    start = time.perf_counter()
    h = energy.RieszPotential(4.0)
    area = 4.0 * math.pi
    seq = []
    for k in range(1, 51):
        n = quadrature.dgs_bound(2, 2 * k)
        seq.append(energy.ulb_energy(2, n, h) * area**2 / n**3)
    elapsed = time.perf_counter() - start
    increasing = all(b > a for a, b in zip(seq, seq[1:]))
    a42 = energy.asd_bound(2, 4.0).value
    gap = abs(seq[-1] - a42) / a42
    ok = increasing and gap < 0.05 and elapsed < 120.0
    with capsys.disabled():
        _report(7, ok,
                f"normalized ULB along N_k=D(2,2k) increasing, k=50 within {gap:.3%} "
                f"of A_(4,2) (< 5%), {elapsed:.2f}s")


def test_criterion_08_theta_oracles(capsys):
    n4 = lattices.theta_coefficients("D4", 1)[0]
    n8 = lattices.theta_coefficients("E8", 1)[0]
    leech = lattices.theta_coefficients("Leech", 200)
    brute = oracles.d4_counts_brute(30)
    d4 = lattices.theta_coefficients("D4", 15)
    d4_ok = all(d4[m - 1] == brute[2 * m] for m in range(1, 16))
    leech_ok = leech[1] == 196560 and all(
        isinstance(c, int) and c >= 0 for c in leech)
    ok = n4 == 24 and n8 == 240 and leech_ok and d4_ok
    with capsys.disabled():
        _report(8, ok,
                f"N_4(1)={n4}, N_8(1)={n8}, N_24(2)={leech[1]}; Leech integrality "
                f"m<=200 holds; D4 formula matches brute force m<=30: {d4_ok}")


def test_criterion_09_conjecture_dominance(capsys):
    worst_margin = math.inf
    ok = True
    for d in (2, 4, 8, 24):
        for j in range(1, 25):
            s = d * (1.0 + j / 8.0)
            ct = lattices.c_tilde(d, s)
            a = energy.asd_bound(d, s).value
            margin = (ct - a) / a
            worst_margin = min(worst_margin, margin)
            ok = ok and ct >= a * (1.0 - 1e-9)
    with capsys.disabled():
        _report(9, ok,
                f"c_tilde >= asd on 96 grid points over (d,4d], d in {{2,4,8,24}}, "
                f"smallest relative margin {worst_margin:.3e}")


def test_criterion_10_integrable_asymptotics(capsys):
    # The minimal energy itself lies O(N^{-1/2}) below the continuum value 1
    # (second-order term ~ -1.106 N^{3/2}), so the 2% is measured from an
    # explicit 961-point configuration, an upper bound on the minimal energy.
    # The oracle is first checked on the closed forms of criterion 3.
    tet = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    tet = [[c / math.sqrt(3.0) for c in v] for v in tet]
    oct_ = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    oracle_err = 0.0
    for s in (1.0, 2.0, 3.0, 4.0, 6.0):
        want_tet, want_oct = _tet_oct_energies(s)
        oracle_err = max(oracle_err,
                         abs(oracles.riesz_energy(tet, s) - want_tet) / want_tet,
                         abs(oracles.riesz_energy(oct_, s) - want_oct) / want_oct)

    h = energy.RieszPotential(1.0)
    sizes, seq = [], []
    for k in (5, 10, 15, 20, 25, 30):
        n = quadrature.dgs_bound(2, 2 * k)
        sizes.append(n)
        seq.append(energy.ulb_energy(2, n, h) / n**2)
    n = sizes[-1]
    fib = oracles.riesz_energy(oracles.fibonacci_sphere(n), 1.0) / n**2
    limit = 1.0  # (1/lambda_2) integral of (2-2t)^(-1/2) over [-1,1]
    monotone = all(b > a for a, b in zip(seq, seq[1:]))
    # gap to the limit times sqrt(N): constant if the decay is N^{-1/2}
    rate = [(limit - u) * math.sqrt(m) for u, m in zip(seq, sizes)]
    rate_drift = abs(rate[-1] - rate[-2]) / rate[-1]
    gap_to_fib = (fib - seq[-1]) / fib
    ok = (
        oracle_err < 1e-12
        and monotone
        and seq[-1] < limit
        and seq[-1] <= fib
        and gap_to_fib < 0.02
        and rate_drift < 0.01
    )
    with capsys.disabled():
        _report(10, ok,
                f"ulb/N^2 for s=1 on S^2 climbs to 1 from below (monotone: "
                f"{monotone}); at N={n} ulb is {limit - seq[-1]:.3%} below 1 "
                f"and the Fibonacci spiral {limit - fib:.3%}, so ulb lies "
                f"{gap_to_fib:.3%} below an achievable energy, required in "
                f"[0, 2%); gap*sqrt(N) = {rate[-2]:.5f}, {rate[-1]:.5f} at "
                f"N = {sizes[-2]}, {n}, drift {rate_drift:.1e} < 1%; energy "
                f"oracle on tetrahedron and octahedron, worst rel "
                f"{oracle_err:.1e} < 1e-12")


def test_figure_properties(capsys):
    # rider on the criteria: the figure curves are checked as properties,
    # f(s) = (c_tilde/a_sd)^{1/s} >= 1, rising toward B_2, and -> 1 at s -> 2+
    b2 = energy.bd_ratio(2, lattices.packing_density("A2"))
    grid = (2.05, 3.0, 6.0, 12.0, 25.0, 50.0)
    fs = []
    for s in grid:
        f = (lattices.c_tilde(2, s) / energy.asd_bound(2, s).value) ** (1.0 / s)
        fs.append(f)
    ok = (
        all(f >= 1.0 - 1e-9 for f in fs)
        and all(b > a for a, b in zip(fs, fs[1:]))
        and fs[0] - 1.0 < 5e-3
        and abs(fs[-1] - b2) < 1e-3
    )
    with capsys.disabled():
        _report("figures", ok,
                f"f(s) on d=2: all >= 1, increasing, f(2.05)-1={fs[0] - 1:.2e}, "
                f"|f(50)-B_2|={abs(fs[-1] - b2):.2e}")
