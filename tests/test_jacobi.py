import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rieszbounds import jacobi
from rieszbounds.errors import DomainError, NumericalError, ResourceError


def _plain_zeros(k, d, a, b):
    # all k zeros of the order-k family member, ascending: the plain
    # Gauss-Jacobi solve, kept as the reference largest_zero is pinned to.
    # Golub-Welsch eigenvalues of the k x k recurrence matrix, built by the
    # library's operations, then two Newton steps on P_k
    alpha, beta = jacobi.family_params(d, a, b)
    s_ab = alpha + beta
    j = np.arange(1.0, k)
    q = 2.0 * j + s_ab
    mat = np.diag(np.append((beta - alpha) / (s_ab + 2.0),
                            (beta * beta - alpha * alpha) / (q * (q + 2.0))))
    off = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + s_ab) / (q * q * (q * q - 1.0)))
    mat.flat[1::k + 1] = off
    mat.flat[k::k + 1] = off
    nodes = np.linalg.eigvalsh(mat)
    for _ in range(2):
        p = jacobi._rows(k, alpha, beta, nodes, k)[0]
        dp = jacobi._deriv_rows(k, alpha, beta, nodes, k)[0]
        nodes = np.sort(nodes - np.where(dp != 0.0, p / np.where(dp == 0.0, 1.0, dp), 0.0))
    return nodes


def _zeros(k, d, a, b):
    # all k zeros of the order-k family member, ascending, from the shifted
    # solve at R = 0, where F = P_k - R P_{k-1} is P_k itself
    return jacobi._zeros_raw(k, d, a, b, 0, 1)[0]


def _p(k, d, a, b, t):
    # the order-k row of jacobi_values, shaped like t
    arr = np.asarray(t, dtype=float)
    return jacobi.jacobi_values(k, d, a, b, arr.ravel())[k].reshape(arr.shape)


def test_family_params_convention():
    assert jacobi.family_params(2, 0, 0) == (0.0, 0.0)
    assert jacobi.family_params(3, 0, 0) == (0.5, 0.5)
    assert jacobi.family_params(2, 1, 0) == (1.0, 0.0)
    assert jacobi.family_params(4, 1, 1) == (2.0, 2.0)


@pytest.mark.parametrize("d,a,b", [(2, 0, 0), (3, 0, 0), (4, 1, 0), (8, 1, 1)])
def test_normalization_at_one(d, a, b):
    for k in range(0, 12):
        assert abs(_p(k, d, a, b, 1.0) - 1.0) < 1e-13


def test_legendre_anchors():
    for t in (-0.9, -0.3, 0.2, 0.7):
        assert abs(_p(2, 2, 0, 0, t) - (3 * t * t - 1) / 2) < 1e-14
        assert abs(_p(3, 2, 0, 0, t) - (5 * t**3 - 3 * t) / 2) < 1e-14


def test_dimension_below_two_rejected():
    with pytest.raises(DomainError):
        jacobi.family_params(1, 0, 0)


def test_values_rows_match_point_evaluators():
    rows = jacobi.jacobi_values(6, 3, 1, 0, 0.4)
    for k in range(7):
        assert abs(rows[k][0] - _p(k, 3, 1, 0, 0.4)) < 1e-15


@pytest.mark.parametrize("d,a,b", [(2, 0, 0), (3, 0, 0), (5, 1, 1)])
def test_orthogonality_under_weight(d, a, b):
    nodes, glw = oracles.gauss_legendre(4096)
    vals = np.stack([_p(k, d, a, b, nodes) for k in range(21)])
    norms = np.array(
        [oracles.weighted_inner(vals[k] * vals[k], d, a, b, nodes, glw) for k in range(21)]
    )
    assert np.all(norms > 0)
    for j in range(21):
        for k in range(j + 1, 21):
            inner = oracles.weighted_inner(vals[j] * vals[k], d, a, b, nodes, glw)
            assert abs(inner) < 1e-9, (j, k, inner)


def test_norm_ratios_are_harmonic_dimensions():
    r2 = jacobi.norm_ratios(6, 2, 0, 0)
    assert np.allclose(r2, [2 * k + 1 for k in range(7)], rtol=1e-12)
    r3 = jacobi.norm_ratios(5, 3, 0, 0)
    assert np.allclose(r3, [(k + 1) ** 2 for k in range(6)], rtol=1e-12)


def test_norm_ratios_match_quadrature_means():
    # r_k must invert the mean of P_k^2 against the family's probability measure
    d, a, b = 4, 1, 0
    nodes, glw = oracles.gauss_legendre(2048)
    mass = oracles.weighted_inner(np.ones_like(nodes), d, a, b, nodes, glw)
    r = jacobi.norm_ratios(8, d, a, b)
    for k in range(9):
        vals = _p(k, d, a, b, nodes)
        mean = oracles.weighted_inner(vals * vals, d, a, b, nodes, glw) / mass
        assert abs(r[k] * mean - 1.0) < 1e-9


def test_norm_ratio_closed_form_cubic():
    # (1, 0) family on S^2: the inverse mean of P_k^2 is exactly (k+1)^3,
    # pinned independently by the quadrature-mean test below
    r = jacobi.norm_ratios(400, 2, 1, 0)
    for k in (0, 1, 5, 40, 400):
        assert abs(r[k] / (k + 1.0) ** 3 - 1.0) < 1e-12


def test_deriv_against_finite_difference():
    grid = np.linspace(-0.98, 0.98, 50)
    for d, a, b in ((2, 0, 0), (3, 1, 0), (8, 1, 1)):
        for k in (3, 11, 20):
            for t in grid:
                alpha, beta = jacobi.family_params(d, a, b)
                got = jacobi._deriv_rows(k, alpha, beta, np.array([t]))[k][0]
                ref = oracles.finite_diff(lambda x: _p(k, d, a, b, x), float(t))
                assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))


def test_legendre_zeros_against_numpy():
    got = _zeros(5, 2, 0, 0)
    want = np.polynomial.legendre.Legendre.basis(5).roots()
    assert np.allclose(got, want, atol=1e-13)


def test_low_degree_zero_anchors():
    z2 = _zeros(2, 2, 0, 0)
    assert np.allclose(z2, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-14)
    z1 = _zeros(1, 2, 1, 0)
    assert abs(z1[0] + 1.0 / 3.0) < 1e-14


@pytest.mark.parametrize("d,a,b,k", [(2, 0, 0, 8), (3, 1, 0, 6), (8, 1, 1, 10), (24, 0, 0, 4)])
def test_zeros_structure(d, a, b, k):
    z = _zeros(k, d, a, b)
    assert len(z) == k
    assert np.all(np.diff(z) > 0)
    assert z[0] > -1.0 and z[-1] < 1.0
    assert abs(jacobi.largest_zero(k, d, a, b) - z[-1]) < 1e-15
    deriv = jacobi._deriv_rows(k, *jacobi.family_params(d, a, b), z)[k]
    for zi, dz in zip(z, deriv):
        resid = abs(_p(k, d, a, b, zi))
        assert resid < 1e-11 * max(1.0, abs(dz))


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=10),
    st.sampled_from([(0, 0), (1, 0), (1, 1)]),
)
@settings(max_examples=60, deadline=None)
def test_consecutive_zeros_interlace(k, d, ab):
    a, b = ab
    zk = _zeros(k, d, a, b)
    zk1 = _zeros(k + 1, d, a, b)
    for i in range(k):
        assert zk1[i] < zk[i] < zk1[i + 1]


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_adjacent_family_largest_zeros_interlace(d):
    # the interval ends of quadrature rise with tau up to the order budget
    for k in [*range(2, 11), 100, 999, 2000]:
        g11_prev = jacobi.largest_zero(k - 1, d, 1, 1)
        g10 = jacobi.largest_zero(k, d, 1, 0)
        g11 = jacobi.largest_zero(k, d, 1, 1)
        assert g11_prev < g10 < g11


@given(
    st.integers(min_value=1, max_value=14),
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=-0.999, max_value=0.999),
    st.just((3, 1, 0)),
)
# P_1 vanishes at 0, the middle node of the octahedron rule build_rule(2, 6)
@example(1, 0.0, 1.0, (2, 0, 0))
@settings(max_examples=80, deadline=None)
def test_kernel_routes_agree(k, x, y, family):
    direct = oracles.cd_kernel_sum(k, *family, x, y)
    auto = jacobi.cd_kernel(k, *family, x, y)
    assert abs(auto - direct) < 1e-8 * max(1.0, abs(direct))


def test_kernel_near_diagonal_at_large_order():
    # a gap of 9e-7 at x near 1 is far from the diagonal at k = 1000: the
    # slope of Q_k there is of order k^2
    x = 0.99999
    y = x - 9e-7
    direct = oracles.cd_kernel_sum(1000, 3, 0, 0, x, y)
    auto = jacobi.cd_kernel(1000, 3, 0, 0, x, y)
    assert abs(auto - direct) < 1e-10 * abs(direct)


def test_kernel_pass_has_the_bits_of_a_matmul_of_all_rows():
    # the former route, kept as the reference: every order at every point,
    # then one extended-precision matmul; the in-pass sum adds the same
    # products in the same order, so it must match bit for bit
    rng = np.random.default_rng(28)
    for k in (0, 1, 2, 7, 120, 700):
        for d, a, b in ((2, 1, 0), (3, 0, 0), (8, 1, 1), (5, 0, 1)):
            alpha, beta = jacobi.family_params(d, a, b)
            x = rng.uniform(-1.0, 1.0, 5)
            s = rng.uniform(-0.5, 0.99)
            for xs, ys in ((x, x), (x, rng.uniform(-1.0, 1.0, 5)),
                           ([s, -1.0, -1.0, s], [1.0, -1.0, 1.0, -1.0])):
                px, py = (jacobi._rows(k, alpha, beta, np.array(v)) for v in (xs, ys))
                r = jacobi.norm_ratios(k, d, a, b).astype(np.longdouble)
                want = (r @ np.multiply(px, py, dtype=np.longdouble)).astype(float)
                assert np.array_equal(jacobi.cd_kernel(k, d, a, b, xs, ys), want), (k, d, a, b)


def test_kernel_diagonal_positive_and_errors():
    assert jacobi.cd_kernel(6, 2, 1, 1, 0.3, 0.3) > 0
    with pytest.raises(DomainError):
        jacobi.cd_kernel(4, 2, 0, 0, 1.2, 0.0)
    with pytest.raises(DomainError):
        jacobi.cd_kernel(4, 2, 0, 0, 0.0, -1.5)


def test_largest_zero_scaling_limit():
    # k arccos(largest zero) of the (1,0) family approaches the first
    # positive zero of J_1 on S^2; the error behaves like z_1/(k+1), so
    # it drops below 0.05 around k=80 and decreases monotonically
    target = 3.8317059702075125
    errs = []
    for k in (10, 20, 40, 80):
        val = k * math.acos(jacobi.largest_zero(k, 2, 1, 0))
        errs.append(abs(val - target))
    assert errs[3] < 0.05
    assert errs[0] > errs[1] > errs[2] > errs[3]


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_rows_one_point_matches_multi_point_column(a, b):
    # a single point takes the scalar recurrence, which must reproduce the
    # matching column of the array recurrence bit for bit
    pts = np.array([-1.0, -0.73, -0.2, 0.0, 0.41, 0.9, 0.999, np.nextafter(1.0, 0.0)])
    for d in (2, 3, 8):
        alpha, beta = jacobi.family_params(d, a, b)
        for kmax in (0, 1, 2, 17, 700):
            full = jacobi._rows(kmax, alpha, beta, pts)
            for i in range(pts.size):
                one = jacobi._rows(kmax, alpha, beta, pts[i:i + 1])
                assert one.shape == (kmax + 1, 1)
                assert np.array_equal(one[:, 0], full[:, i]), (d, kmax, pts[i])
            one_deriv = jacobi._deriv_rows(kmax, alpha, beta, pts[2:3])
            assert np.array_equal(one_deriv[:, 0], jacobi._deriv_rows(kmax, alpha, beta, pts)[:, 2])


def test_largest_zero_is_the_full_solve_top_and_memoized(monkeypatch):
    # monotone Newton from t = 1 lands on the double the polished full
    # solve puts on top, bit for bit; order 1 is that 1 x 1 solve itself
    cases = [(k, d, a, b) for d, a, b in ((2, 1, 0), (2, 1, 1), (3, 1, 1), (5, 1, 0), (8, 0, 0),
                                          (24, 1, 0)) for k in [*range(1, 61), 100, 250, 400]]
    for k, d, a, b in cases + [(8, 2, 0, 0), (6, 3, 1, 0), (10, 8, 1, 1), (4, 24, 0, 0)]:
        assert jacobi.largest_zero(k, d, a, b) == _plain_zeros(k, d, a, b)[-1], (k, d, a, b)
    monkeypatch.setattr(jacobi, "_LARGEST_ZERO_CACHE", {})
    calls, rows = [], []
    eig, recur = np.linalg.eigvalsh, jacobi._rows
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eig(m))
    monkeypatch.setattr(jacobi, "_rows",
                        lambda *args, **kw: rows.append(args[0]) or recur(*args, **kw))
    first = jacobi.largest_zero(37, 5, 1, 1)
    assert calls == [] and rows
    rows.clear()
    assert jacobi.largest_zero(37, 5, 1, 1) == first
    assert calls == [] and rows == []


@pytest.mark.parametrize("bad", [math.nan, [0.2, math.nan], 1.5, -math.inf])
def test_non_finite_or_outside_points_rejected(bad):
    with pytest.raises(DomainError):
        jacobi.jacobi_values(4, 3, 1, 0, bad)
    with pytest.raises(DomainError):
        jacobi.cd_kernel(4, 3, 1, 0, bad, 0.5)
    with pytest.raises(DomainError):
        jacobi.cd_kernel(4, 3, 1, 0, bad, bad)


def test_eigen_solve_budget_checked_before_allocation():
    # the k x k matrix at k = 2**20 would take 8 TiB, and the norm-ratio
    # table of cd_kernel at k = 10**6 67 MiB; each refusal must come before
    # anything of that order is allocated
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            jacobi.largest_zero(2**20, 2, 1, 0)
        with pytest.raises(ResourceError):
            jacobi._zeros_raw(jacobi._MAX_ORDER + 1, 3, 0, 0, -1, 2)
        for call in (lambda: jacobi.norm_ratios(10**6, 2, 0, 0),
                     lambda: jacobi.cd_kernel(10**6, 2, 0, 0, 0.5, 0.5)):
            with pytest.raises(ResourceError, match="recurrence budget"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert jacobi.norm_ratios(jacobi._MAX_ORDER + 1, 2, 0, 0)[-1] == 2 * jacobi._MAX_ORDER + 3


def test_recurrence_and_eigen_solve_memory_peaks(monkeypatch):
    # _rows keeps one extended-precision row per order and converts the
    # list once (the output alone is 7.6 MiB); largest_zero runs one-point
    # recurrences and no matrix; from order 64 on the full solve seeds its
    # nodes with no matrix, and its Newton polish and last pass keep orders
    # k-1 and k; so does the largest rule, k = 1999, its exactness check
    # included.  Each call starts from empty caches, so its peak includes
    # the recurrence tables it builds
    import tracemalloc

    from rieszbounds import quadrature

    pts = np.linspace(-0.999, 0.999, 999)
    # the node solve takes R = P_k(s)/P_{k-1}(s) = -1/2, as an interior rule has
    monkeypatch.setattr(jacobi, "_LARGEST_ZERO_CACHE", {})
    monkeypatch.setattr(jacobi, "_COEFFS", {})
    peaks = []
    tracemalloc.start()
    try:
        for call in (lambda: jacobi._rows(999, 1.0, 1.0, pts),
                     lambda: jacobi.largest_zero(999, 2, 1, 0),
                     lambda: jacobi._zeros_raw(999, 2, 1, 0, -1, 2),
                     lambda: quadrature.build_rule(2, 4002000)):
            jacobi._COEFFS.clear()
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 26.0 and max(peaks[1:]) <= 1.0, peaks


@pytest.mark.parametrize("d,a,b,orders", [
    (2, 0, 0, (64, 65, 333)), (2, 1, 0, (64, 65, 333, 1999)), (3, 1, 1, (64, 333, 1999)),
    (8, 1, 0, (64, 333)), (24, 1, 1, (64, 333))])
def test_seeded_nodes_match_the_dense_reference(d, a, b, orders):
    # from _DENSE_BELOW on the nodes are seeded asymptotically, and at R = 0
    # they agree with the plain Golub-Welsch solve to an ulp of 1 (where
    # t = 0 is a zero, the symmetric solve puts it at 0.0 exactly)
    assert jacobi._DENSE_BELOW == 64
    for k in orders:
        assert np.max(np.abs(_zeros(k, d, a, b) - _plain_zeros(k, d, a, b))) <= 2.0 ** -52, k


def test_two_seeds_in_one_gap_refuse(monkeypatch):
    # seeds 40 and 41 moved into the gap above zero 41, so zero 40 has no
    # seed and that gap two: the solve must end in NumericalError, never in
    # a rule that has one zero twice and another not at all
    from rieszbounds import quadrature
    from rieszbounds.errors import NumericalError

    seeds = jacobi._seeds

    def crowded(k, alpha, beta, r):
        z = seeds(k, alpha, beta, r)
        z[40], z[41] = z[41] + np.array([0.3, 0.7]) * (z[42] - z[41])
        return z

    monkeypatch.setattr(jacobi, "_seeds", crowded)
    for n in (20000, 20164):  # k = 140 inside an interval, k = 141 at its end
        with pytest.raises(NumericalError):
            quadrature.build_rule(2, n)
    monkeypatch.undo()
    assert len(quadrature.build_rule(2, 20000).nodes) == 141


def test_polish_refuses_a_residual_above_its_gate(monkeypatch):
    # a derivative 1e12 times too large makes every Newton step negligible,
    # so the polish stops at the phase seeds, whose |F| the last pass refuses
    deriv = jacobi._deriv_rows
    monkeypatch.setattr(jacobi, "_deriv_rows", lambda *args, **kw: 1e12 * deriv(*args, **kw))
    with pytest.raises(NumericalError, match="node residual above its gate at polynomial degree 100"):
        jacobi._zeros_raw(100, 2, 1, 0, -1, 2)


def test_polish_refuses_when_its_newton_passes_run_out(monkeypatch):
    # with the derivative halved each step overshoots a zero by as much as it
    # missed it, so nodes seeded 1e-4 off oscillate about their zeros
    seeds, deriv = jacobi._seeds, jacobi._deriv_rows
    monkeypatch.setattr(jacobi, "_seeds", lambda *args: seeds(*args) + 1e-4)
    monkeypatch.setattr(jacobi, "_deriv_rows", lambda *args, **kw: deriv(*args, **kw) / 2.0)
    with pytest.raises(NumericalError, match="node polish ran out of Newton passes at polynomial "
                                             "degree 100"):
        jacobi._zeros_raw(100, 2, 1, 0, -1, 2)


def test_no_dense_solve_from_the_dense_order_on(monkeypatch):
    # below _DENSE_BELOW the seeds are eigenvalues of the shifted recurrence
    # matrix; from there on no node solve calls np.linalg
    from rieszbounds import quadrature

    calls = []
    eig = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eig(m))
    quadrature.build_rule(2, 961)
    assert calls == [(30, 30)]
    calls.clear()
    for d, n in ((2, 8000), (2, 8128), (3, 10**6), (2, 10**6), (8, 10**12)):
        rule = quadrature.build_rule(d, n)
        assert (rule.tau + 1) // 2 >= jacobi._DENSE_BELOW, (d, n)
    jacobi._zeros_raw(jacobi._DENSE_BELOW, 5, 0, 0, 0, 1)
    assert calls == []


def test_recurrence_table_stops_at_its_budget():
    # verify_exactness reads up to a rule's exact degree, at most
    # 2 _MAX_ORDER + 1 (an endpoint rule of even strength 2 _MAX_ORDER), so
    # the tables reach that order and no further
    assert jacobi._MAX_ROW == 2 * jacobi._MAX_ORDER + 1
    with pytest.raises(ResourceError, match="recurrence budget"):
        jacobi.jacobi_values(jacobi._MAX_ROW + 1, 3, 1, 0, 0.5)
    assert all(len(table[-1]) <= jacobi._MAX_ROW + 1 for table in jacobi._COEFFS.values())
    jacobi.jacobi_values(jacobi._MAX_ROW, 3, 1, 0, 0.5)
    assert max(len(table[-1]) for table in jacobi._COEFFS.values()) == jacobi._MAX_ROW + 1
