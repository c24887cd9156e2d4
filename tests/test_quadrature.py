import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rieszbounds import energy, jacobi, quadrature
from rieszbounds.errors import DomainError, NumericalError, ResourceError


def test_design_cardinality_anchors():
    # tetrahedron, octahedron, and the next three strengths on S^2
    assert quadrature.dgs_bound(2, 2) == 4
    assert quadrature.dgs_bound(2, 3) == 6
    assert quadrature.dgs_bound(2, 4) == 9
    assert quadrature.dgs_bound(2, 5) == 12
    assert quadrature.dgs_bound(3, 3) == 8
    assert quadrature.dgs_bound(2, 60) == 961
    assert quadrature.dgs_bound(2, 100) == 2601


def test_design_cardinality_domain_errors():
    with pytest.raises(DomainError):
        quadrature.dgs_bound(0, 3)
    with pytest.raises(DomainError):
        quadrature.dgs_bound(2, 0)


def test_lev_function_matches_design_sizes_at_endpoints():
    for d in (2, 3, 4):
        for k in (1, 2, 3, 5):
            g10 = jacobi.largest_zero(k, d, 1, 0)
            g11 = jacobi.largest_zero(k, d, 1, 1)
            want_even = quadrature.dgs_bound(d, 2 * k)
            want_odd = quadrature.dgs_bound(d, 2 * k + 1)
            assert abs(quadrature.lev_function(d, g10) - want_even) < 1e-8 * want_even
            assert abs(quadrature.lev_function(d, g11) - want_odd) < 1e-8 * want_odd


def test_lev_function_monotone_and_domain():
    d = 3
    grid = np.linspace(-0.999, 0.92, 160)
    vals = [quadrature.lev_function(d, float(s)) for s in grid]
    assert all(b - a > -1e-9 * abs(a) for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        quadrature.lev_function(2, 1.0)
    with pytest.raises(DomainError):
        quadrature.lev_function(2, -1.01)


def test_adjacent_branches_agree_at_interval_ends():
    for d in (2, 3, 8):
        for k in (2, 3, 6):
            g11 = jacobi.largest_zero(k - 1, d, 1, 1)
            lo = quadrature.lev_branch(d, 2 * k - 2, g11)
            hi = quadrature.lev_branch(d, 2 * k - 1, g11)
            assert abs(lo - hi) < 1e-9 * abs(hi)


def test_solve_s_for_n_roundtrip():
    for d in (2, 3, 8):
        for n in (5, 7.5, 23, 101.25):
            s = quadrature.solve_s_for_n(d, n)
            assert abs(quadrature.lev_function(d, s) - n) < 1e-9 * n
    assert quadrature.solve_s_for_n(2, 2.0) == -1.0
    # design-size N lands exactly on the adjacent largest zero
    s9 = quadrature.solve_s_for_n(2, 9.0)
    assert abs(s9 - jacobi.largest_zero(2, 2, 1, 0)) < 1e-14
    with pytest.raises(DomainError):
        quadrature.solve_s_for_n(2, 1.5)


def test_tetrahedron_rule_by_hand():
    rule = quadrature.build_rule(2, 4)
    assert rule.n == 4 and rule.tau == 1 and rule.endpoint
    assert len(rule.nodes) == 1
    assert abs(rule.nodes[0] + 1.0 / 3.0) < 1e-14
    assert abs(rule.weights[0] - 0.75) < 1e-14
    assert -1.0 not in rule.nodes
    assert rule.exact_degree == 2


def test_octahedron_rule_by_hand():
    rule = quadrature.build_rule(2, 6)
    assert rule.tau == 2 and rule.exact_degree == 3
    # interior node 0 with weight 2/3, plus node -1 carrying 1/6
    flat = dict(zip(rule.nodes, rule.weights))
    assert any(abs(t) < 1e-13 for t in rule.nodes)
    assert abs(sum(rule.weights) - (1.0 - 1.0 / 6.0)) < 1e-13
    assert min(rule.nodes) == -1.0
    assert abs(flat[min(rule.nodes)] - 1.0 / 6.0) < 1e-13


def test_nine_point_rule_uses_adjacent_zeros():
    rule = quadrature.build_rule(2, 9)
    # the zeros of P_2^{(1, 0)}, proportional to 5t^2 + 2t - 1
    want = [(-1.0 + math.sqrt(6.0)) / 5.0, (-1.0 - math.sqrt(6.0)) / 5.0]
    assert rule.tau == 3 and rule.exact_degree == 4
    assert np.allclose(rule.nodes, want, atol=1e-12)


def test_rule_validation_invariants():
    for d, n in ((2, 2), (3, 2), (4, 2), (8, 2), (24, 2),
                 (2, 4), (2, 12), (3, 8), (3, 30), (8, 100)):
        rule = quadrature.build_rule(d, n)
        rule.validate()
        if n == 2:
            # the general path's one node is -1 itself, with weight 1/2
            assert rule.nodes == (-1.0,) and rule.weights == (0.5,)
        assert all(w > 0 for w in rule.weights)
        assert all(t < 1.0 for t in rule.nodes)
        assert all(a > b for a, b in zip(rule.nodes, rule.nodes[1:]))
        assert abs(1.0 / n + sum(rule.weights) - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8, 24])
@pytest.mark.parametrize("k", [5, 50, 300])
def test_minus_one_weight_denominator_cannot_cancel(d, k):
    # even strength 2k: s runs over (gamma_k^{1,0}, gamma_k^{1,1}], and the
    # weight at -1 is q_s1 / (q_mm q_s1 - q_m1 q_sm).  q_m1 q_sm < 0 there,
    # so the denominator exceeds q_mm q_s1 > 0 and needs no fallback
    lo = jacobi.largest_zero(k, d, 1, 0)
    hi = jacobi.largest_zero(k, d, 1, 1)
    q_mm = jacobi.cd_kernel(k, d, 0, 0, -1.0, -1.0)
    q_m1 = jacobi.cd_kernel(k, d, 0, 0, -1.0, 1.0)
    for s in (0.5 * (lo + hi), hi):
        q_s1 = jacobi.cd_kernel(k, d, 0, 0, s, 1.0)
        q_sm = jacobi.cd_kernel(k, d, 0, 0, s, -1.0)
        assert q_m1 * q_sm < 0.0, (s, q_m1, q_sm)
        assert q_mm * q_s1 > 0.0
        assert q_mm * q_s1 - q_m1 * q_sm > q_mm * q_s1


@pytest.mark.parametrize("d,n", [(2, 6), (2, 20000), (3, 200003), (8, 20000)])
def test_weights_match_kernel_oracle(d, n):
    # w = M / (f(x) Q_{k-1}(x, x)) in the (1, b) family, M = 1 (odd tau) or
    # d/(d+1) (even tau), f = 1 - t or 1 - t^2, at the rule's own nodes;
    # the smallest nodes carry the smallest weights
    rule = quadrature.build_rule(d, n)
    k = (rule.tau + 1) // 2
    odd = rule.parity == "odd"
    mass, b = (1.0, 0) if odd else (d / (d + 1.0), 1)
    for i in sorted({0, k // 2, max(k - 2, 0), k - 1}):
        x = rule.nodes[i]
        factor = (1.0 - x) if odd else (1.0 - x) * (1.0 + x)
        want = mass / (factor * oracles.cd_kernel_sum(k - 1, d, 1, b, x, x))
        assert abs(rule.weights[i] / want - 1.0) < 1e-14, (i, x)
    if not odd:
        s = rule.nodes[0]
        q_s1, q_mm, q_m1, q_sm = (oracles.cd_kernel_sum(k, d, 0, 0, x, y) for x, y in
                                  ((s, 1.0), (-1.0, -1.0), (-1.0, 1.0), (s, -1.0)))
        want = q_s1 / (q_mm * q_s1 - q_m1 * q_sm)
        assert abs(rule.weights[-1] / want - 1.0) < 1e-14


def test_weights_are_the_public_kernel_bit_for_bit():
    # build_rule takes Q_{k-1}(t, t) from the last pass of the node solve;
    # it must equal cd_kernel at the same nodes, s being the top one.  N = 3
    # and 5 are k = 1 at odd and even tau, 9 and 12 the endpoints D(2, 4)
    # and D(2, 5), odd and even
    for d, n in ((2, 3), (2, 5), (2, 9), (2, 12), (3, 50), (4, 777), (8, 2000), (2, 100000)):
        rule = quadrature.build_rule(d, n)
        k = (rule.tau + 1) // 2
        odd = rule.parity == "odd"
        interior = np.array(rule.nodes[:k][::-1])
        t = interior.astype(np.longdouble)
        mass = np.longdouble(1.0) if odd else np.longdouble(d) / (d + 1)
        factor = (1.0 - t) if odd else (1.0 - t) * (1.0 + t)
        q = jacobi.cd_kernel(k - 1, d, 1, 0 if odd else 1, interior, interior)
        want = (mass / (factor * q)).astype(float)[::-1]
        assert rule.weights[:k] == tuple(want.tolist()), (d, n)


def test_rule_and_kernel_build_no_table_of_every_order():
    # the kernel is summed inside one recurrence pass, so neither a rule at
    # k = 999 nor the kernel at 1,000 points holds a (k+1) x k table (23.5
    # and 23.3 MiB traced when they did); the rule's peak is its matrix.
    # verify_exactness reduces each order against the weights as it is made
    # (a table of orders 0..1998 at the rule's 999 nodes peaked at 46 MiB)
    import tracemalloc

    x = np.linspace(-0.999, 0.999, 1000)
    peaks, rule = [], []
    tracemalloc.start()
    try:
        for call in (lambda: rule.append(quadrature.build_rule(2, 10**6)),
                     lambda: jacobi.cd_kernel(999, 2, 1, 0, x, x),
                     lambda: quadrature.verify_exactness(rule[0], 1998)):
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 12.0 and peaks[1] < 1.0 and peaks[2] < 1.0, peaks


@pytest.mark.parametrize("n", [6480, 34410])
def test_endpoint_rule_meets_its_top_degree(n):
    # at N = D(2, tau+1) the rule is exact for P_{tau+1} as well; built at
    # the double s instead of at the zero of P_k these read 1.6e-14 and
    # 5.7e-13, and with P_k(s) taken as 0 they read 8e-19 and 4e-18
    rule = quadrature.build_rule(2, n)
    deg = rule.exact_degree
    assert rule.endpoint and deg == rule.tau + 1
    pv = jacobi.jacobi_values(deg, 2, 0, 0, rule.nodes)[deg]
    defect = abs(1.0 / n + math.fsum(w * v for w, v in zip(rule.weights, pv)))
    assert defect <= 1e-15, defect


@pytest.mark.parametrize("d", [2, 3])
def test_exactness_certificate_sees_a_perturbed_rule(d):
    # the Gegenbauer certificate of the rule at N = 100007 is at rounding
    # level (2.3e-16 and below); scaling one interior weight by 1 + 1e-10 or
    # moving one node by 1e-12 lifts it far above that
    rule = quadrature.build_rule(d, 100007)
    deg = rule.exact_degree
    assert quadrature.verify_exactness(rule, deg) <= 3e-16
    i = len(rule.nodes) // 2
    weights, nodes = list(rule.weights), list(rule.nodes)
    weights[i] *= 1.0 + 1e-10
    nodes[i] += 1e-12
    for bad in (dataclasses.replace(rule, weights=tuple(weights)),
                dataclasses.replace(rule, nodes=tuple(nodes))):
        assert quadrature.verify_exactness(bad, deg) > 1e-14


@pytest.mark.parametrize("n", [148066, 500009])
def test_large_rule_passes_weight_sum_gate(n):
    rule = quadrature.build_rule(2, n)
    assert quadrature.verify_exactness(rule, rule.exact_degree) <= 1e-12


def test_exactness_on_design_sizes():
    for d in (2, 3):
        for k in (1, 2, 3, 4):
            for tau in (2 * k - 1, 2 * k):
                n = quadrature.dgs_bound(d, tau)
                rule = quadrature.build_rule(d, n)
                assert quadrature.verify_exactness(rule, rule.exact_degree) < 1e-10
                assert quadrature.verify_exactness(rule, rule.exact_degree + 2) > 1e-6


def test_rule_validation_refuses_each_broken_invariant():
    rule = quadrature.build_rule(2, 12)
    nodes, weights = rule.nodes, rule.weights
    for bad, match in [({"weights": (0.0,) + weights[1:]}, "nonpositive weights"),
                       ({"nodes": (1.0,) + nodes[1:]}, "a node >= 1"),
                       ({"nodes": (nodes[1], nodes[0]) + nodes[2:]}, "nodes not decreasing"),
                       ({"weights": tuple(1.01 * w for w in weights)}, "weight sum off")]:
        with pytest.raises(NumericalError, match=match):
            dataclasses.replace(rule, **bad).validate()


@given(st.integers(min_value=2, max_value=60), st.sampled_from([2, 3, 8]))
@settings(max_examples=40, deadline=None)
def test_exactness_at_arbitrary_sizes(n, d):
    rule = quadrature.build_rule(d, n)
    rule.validate()
    assert quadrature.verify_exactness(rule, rule.exact_degree) < 1e-10


def test_separation_bound_behaviour():
    vals = [quadrature.solve_s_for_n(2, n) for n in (4, 6, 12, 50, 400)]
    assert all(-1.0 <= v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # a set that large must have two points with inner product >= the bound
    assert vals[-1] > 0.9
    with pytest.raises(DomainError):
        quadrature.solve_s_for_n(2, 1)


def _linear_scan_tau(d, s):
    # the interval search as it was first written: k = 1, 2, ... in turn
    k = 1
    while True:
        if s <= jacobi.largest_zero(k, d, 1, 0):
            return 2 * k - 1
        if s <= jacobi.largest_zero(k, d, 1, 1):
            return 2 * k
        k += 1


@pytest.mark.parametrize("d", [2, 3, 8])
def test_interval_search_matches_linear_scan(d):
    for k in range(1, 61):
        for b in (0, 1):
            g = jacobi.largest_zero(k, d, 1, b)
            for s in (math.nextafter(g, -2.0), g, math.nextafter(g, 2.0)):
                tau = _linear_scan_tau(d, s)
                assert quadrature._resolve_interval(d, s) == tau, (k, b, s)
                assert quadrature.lev_function(d, s) == quadrature.lev_branch(d, tau, s)


# float.hex of lev_function and solve_s_for_n, which no CLI command calls,
# so neither the golden corpus nor the stored outputs pin their bits.
# Six s lie within 1e-3 of 1; N = 9, 100 and 5 are endpoint cardinalities,
# and N = 3 and 6 are interior to tau = 1 (k = 1, left end -1).
_LEV_BITS = [
    (2, -1.0, '0x1.0000000000000p+1'),
    (2, -0.5, '0x1.8000000000000p+1'),
    (2, 0.0, '0x1.8000000000000p+2'),
    (2, 0.5, '0x1.a924924924925p+3'),
    (2, 0.9, '0x1.20b26d2ca15dep+6'),
    (2, 0.999, '0x1.cabc1e1eece7cp+12'),
    (2, 0.9995, '0x1.cac5f3f986bb2p+13'),
    (2, 0.99999, '0x1.667229dba395fp+19'),
    (3, 0.3, '0x1.d95bc609a90e8p+3'),
    (3, 0.9991, '0x1.82a24d43dc06cp+18'),
    (4, 0.99, '0x1.1a18827532e72p+17'),
    (5, -0.2, '0x1.8000000000000p+2'),
    (8, 0.75, '0x1.c95556b3ef7e0p+12'),
    (8, 0.9993, '0x1.021b64e75af02p+47'),
    (24, 0.9999, '0x1.db99678031424p+166'),
]
_SOLVE_BITS = [
    (2, 3, '-0x1.0000000000000p-1'),
    (2, 9, '0x1.28db0200e9b7ep-2'),
    (2, 10, '0x1.6edb12821ca6fp-2'),
    (2, 100, '0x1.dadf3b5dc4bd3p-1'),
    (2, 1001, '0x1.fc3ff28df02ccp-1'),
    (2, 12345, '0x1.ffb210c0f1b5dp-1'),
    (2, 250001, '0x1.fffc26b7e88a8p-1'),
    (3, 5, '-0x1.0000000000000p-2'),
    (3, 77, '0x1.7cfd014235d21p-1'),
    (3, 100003, '0x1.fed8d91c50356p-1'),
    (4, 51, '0x1.067634275a3b0p-1'),
    (5, 6, '-0x1.999999999999ap-3'),
    (8, 20000, '0x1.9b6a062d118f6p-1'),
    (24, 30, '-0x1.d41d41d41d41bp-6'),
    (24, 1000, '0x1.ca3840722d570p-3'),
]


def test_lev_function_and_inversion_keep_their_bits():
    got = [(d, s, quadrature.lev_function(d, s).hex()) for d, s, _ in _LEV_BITS]
    assert got == _LEV_BITS
    got = [(d, n, quadrature.solve_s_for_n(d, n).hex()) for d, n, _ in _SOLVE_BITS]
    assert got == _SOLVE_BITS


def _bisection_s(d, n):
    # the inversion as plain bisection of the bracket down to adjacent
    # doubles, the one of the pair with the smaller |L - N|, then three
    # finite-difference secant steps
    tau = quadrature._resolve_tau(d, n)
    k = (tau + 1) // 2
    assert n != quadrature.dgs_bound(d, tau + 1)
    if tau % 2 == 1:
        lo = -1.0 if k == 1 else jacobi.largest_zero(k - 1, d, 1, 1)
        hi = jacobi.largest_zero(k, d, 1, 0)
    else:
        lo, hi = jacobi.largest_zero(k, d, 1, 0), jacobi.largest_zero(k, d, 1, 1)

    def f(x):
        return quadrature.lev_branch(d, tau, x) - n

    a, b, fa = lo, hi, f(lo)
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    s = a if abs(fa) <= abs(f(b)) else b
    for _ in range(3):
        h = max(1e-9, 1e-9 * abs(s))
        right, left = min(s + h, hi), max(s - h, lo)
        s = min(max(s - f(s) * (right - left) / (f(right) - f(left)), lo), hi)
    return s


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_solve_s_for_n_lands_where_bisection_does(d):
    # the search evaluates L only near the root but must end on the same
    # double as a full bisection; these N include pairs where rounding
    # spreads the sign change of L - N over up to 30 doubles
    for n in (3, 5, 7, 8, 17, 19, 21, 23, 60, 89, 197, 1001, 5001):
        if n != quadrature.dgs_bound(d, quadrature._resolve_tau(d, n) + 1):
            assert quadrature.solve_s_for_n(d, n) == _bisection_s(d, n), n


def test_solve_s_for_n_needs_few_branch_evaluations(monkeypatch):
    calls = []
    branch = quadrature.lev_branch
    monkeypatch.setattr(quadrature, "lev_branch", lambda *args: calls.append(args) or branch(*args))
    for n in (10, 11, 100, 101, 1000, 1001, 10**4, 10**4 + 1, 10**5, 10**5 + 1):
        calls.clear()
        s = quadrature.solve_s_for_n(2, n)
        assert len(calls) <= 12, (n, len(calls))
        assert abs(quadrature.lev_function(2, s) - n) <= 1e-11 * n


@pytest.mark.parametrize("n", [10, 101, 5001])
def test_solve_s_for_n_refuses_a_bracket_with_no_sign_change(monkeypatch, n):
    # a branch that never reaches N leaves the pair bisection ends on
    # without a sign change; that is refused at once, with no second search
    quadrature.solve_s_for_n(2, n)  # the first solve loads numpy
    monkeypatch.setattr(quadrature, "lev_branch", lambda d, tau, s: n - 1.0)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="bracket failure"):
        quadrature.solve_s_for_n(2, n)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("call, error, message", [
    (lambda: quadrature.lev_function(2, 0.999999), ResourceError,
     "lev_function at s=0.999999 needs an order above the budget of 2000 for d=2"),
    (lambda: quadrature.solve_s_for_n(2, 1600000), NumericalError,
     "Levenshtein inversion stalled"),
], ids=["lev_function", "solve_s_for_n"])
def test_refusals_near_the_budget_run_no_eigen_solve(monkeypatch, call, error, message):
    # interval ends and the root bracket are largest zeros, which Newton on
    # one point finds; only a full node set takes the dense solve
    calls = []
    eig = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eig(m))
    with pytest.raises(error, match=message):
        call()
    assert calls == []


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_n_rejected(bad):
    with pytest.raises(DomainError):
        quadrature.solve_s_for_n(2, bad)
    with pytest.raises(DomainError):
        quadrature.build_rule(2, bad)
    with pytest.raises(DomainError):
        energy.ulb_energy(2, bad, energy.RieszPotential(1.0))


def test_huge_n_refused_before_allocation():
    # at N = 2**40 the rule has about 2**20 nodes, an 8 TiB eigen-matrix
    import time
    import tracemalloc

    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            quadrature.solve_s_for_n(2, 2**40)
        with pytest.raises(ResourceError):
            quadrature.build_rule(2, 10**30)
        with pytest.raises(ResourceError):
            energy.ulb_energy(8, 10**400, energy.RieszPotential(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert time.perf_counter() - start < 1.0
