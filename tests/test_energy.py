import math
import time

import mpmath as mp
import pytest

import oracles
from rieszbounds import energy, jacobi, lattices, quadrature, special
from rieszbounds.errors import DomainError, NumericalError, ResourceError


def test_parse_potential_families():
    p = energy.parse_potential("riesz:4")
    assert isinstance(p, energy.RieszPotential) and p.s == 4.0
    g = energy.parse_potential("gauss:1.5")
    assert isinstance(g, energy.GaussianPotential)
    assert abs(g(0.0) - math.exp(-3.0)) < 1e-16


def test_parse_potential_errors():
    for bad in ("riesz", "riesz:x", "newton:3", "riesz:4:5"):
        with pytest.raises(DomainError):
            energy.parse_potential(bad)
    with pytest.raises(DomainError):
        energy.parse_potential("riesz:-1")
    with pytest.raises(DomainError):
        energy.parse_potential("gauss:0")


def test_riesz_potential_values():
    h = energy.RieszPotential(3.0)
    assert abs(h(0.5) - 1.0) < 1e-16  # chordal distance 1 at t = 1/2
    assert abs(h(-1.0) - 2.0**-3) < 1e-16  # antipodal distance 2


@pytest.mark.parametrize("d, n", [(2, 6), (3, 120), (8, 1000)])
def test_ulb_takes_any_callable(d, n):
    # the rule is exact on degree 1, and the node t = 1 adds 1 - t = 0
    got = energy.ulb_energy(d, n, lambda t: 1.0 - t)
    assert abs(got - n * n) <= 1e-13 * n * n


def test_ulb_refuses_a_potential_that_does_not_map_the_node_array():
    # a constant Python float is not an array of the nodes' shape
    with pytest.raises(DomainError, match="potential must map the nodes"):
        energy.ulb_energy(2, 4, lambda t: 1.0)


@pytest.mark.parametrize("name", list(oracles.SHARP_CODES))
def test_ulb_is_attained_by_sharp_codes(name):
    # a sharp code's energy is the bound itself; the rule has one node per
    # inner product, and the largest gap measured was 2.5e-16 relative
    # (Leech minimal vectors, riesz:26), so 1e-15 leaves four times that
    d, n, dist = oracles.SHARP_CODES[name]
    assert sum(dist.values()) == n - 1
    for text in ("riesz:1", f"riesz:{d + 3}", "gauss:0.7"):
        h = energy.parse_potential(text)
        want = n * math.fsum(count * float(h(t)) for t, count in dist.items())
        got = energy.ulb_energy(d, n, h)
        assert abs(got - want) <= 1e-15 * want, (name, text, got, want)


def test_ulb_tetrahedron_closed_form():
    for s in (2.0, 3.0, 4.0, 6.0):
        got = energy.ulb_energy(2, 4, energy.RieszPotential(s))
        want = 12.0 * (8.0 / 3.0) ** (-s / 2.0)
        assert abs(got - want) < 1e-12 * want


def test_ulb_octahedron_closed_form():
    for s in (2.0, 3.0, 4.0, 6.0):
        got = energy.ulb_energy(2, 6, energy.RieszPotential(s))
        want = 24.0 * 2.0 ** (-s / 2.0) + 6.0 * 2.0**-s
        assert abs(got - want) < 1e-12 * want


def test_ulb_monotone_in_n():
    h = energy.RieszPotential(3.0)
    vals = [energy.ulb_energy(2, n, h) / n**2 for n in (6, 12, 24, 48, 96)]
    # normalized energy of the bound increases toward the continuum limit
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_theta_bound_anchors():
    # on the circle the crude constant degenerates to 1 for every s
    assert abs(energy.theta_bound(1, 2.0) - 1.0) < 1e-14
    assert abs(energy.theta_bound(1, 5.0) - 1.0) < 1e-14
    assert abs(energy.theta_bound(2, 4.0) - math.pi**2 / 16.0) < 1e-14
    with pytest.raises(DomainError):
        energy.theta_bound(2, 2.0)


@pytest.mark.parametrize("s", [1075.0, 1240.0, 1240.5, 3000.0])
def test_theta_bound_where_one_factor_leaves_the_double_range(s):
    # at d = 2, 2^-s underflows from s = 1075 and pi^(s/2) overflows from
    # s = 1240.5, while theta = (sqrt(pi)/2)^s stays normal up to s ~ 5860
    with mp.workdps(30):
        want = (mp.sqrt(mp.pi) / 2) ** s
    got = energy.theta_bound(2, s)
    assert abs(got - want) <= 1e-12 * want, (s, got)


def test_theta_bound_is_nonzero_while_a_double_holds_it():
    # (sqrt(pi)/2)^6150 = 2.5e-323 is subnormal; (sqrt(pi)/2)^6200 = 4e-326
    # is below the least one
    assert energy.theta_bound(2, 6150.0) > 0.0
    assert energy.theta_bound(1, 5000.0) == 1.0
    # below it theta is refused, on either route: at (30, 1000) both
    # factors are normal but their product is about 1e-456
    for d, s in ((2, 6200.0), (30, 1000.0), (100, 1000.0)):
        with pytest.raises(NumericalError, match="underflows"):
            energy.theta_bound(d, s)


def test_xi_bound_anchor_and_flags():
    assert abs(energy.xi_bound(2, 4.0) - math.pi**2 / 4.0) < 1e-13
    assert energy.xi_flags(2, 4.0) == ("integer-(s-d)/2",)
    assert energy.xi_flags(1, 2.5) == ("d-below-2",)
    assert energy.xi_flags(3, 4.5) == ()
    with pytest.raises(DomainError):
        energy.xi_bound(3, 3.0)


def test_xi_exceeds_theta():
    # the quadrature-based constant improves on the simple one
    for d, s in ((2, 3.0), (2, 5.5), (3, 4.0), (4, 7.0)):
        assert energy.xi_bound(d, s) > energy.theta_bound(d, s)


def test_asd_d1_is_twice_zeta():
    for s in (1.5, 2.0, 3.0, 6.0):
        got = energy.asd_bound(1, s).value
        want = 2.0 * oracles.zeta_em(s)
        assert abs(got - want) < 1e-10 * want


def test_asd_42_against_bessel_series():
    # independent route: direct mpmath summation over J_2 zeros of
    # 4/(lambda_2 Gamma(3)) * z^0 J_3(z)^{-2} ... the s=4, d=2 constant;
    # frozen after two routes agreed to 12 digits
    frozen = 5.757269233968793
    got = energy.asd_bound(2, 4.0)
    assert abs(got.value - frozen) < 1e-11 * frozen
    assert got.terms_used >= 100
    assert 0.0 <= got.tail_bound < 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 8, 24, 48])
def test_hankel_g_against_mpmath(d):
    # At the k-th zero z of J_{d/2}, 2/(pi z) J_{d/2+1}(z)^{-2} = G(z); the
    # remainder after g6 is about the next DLMF 10.18.17 term, which
    # vanishes for d = 1 and 3, where the series terminates
    g2, g4, g6 = energy._hankel_g(d)
    mu = d * d
    with mp.workdps(40):
        for k in (50, 200, 600):
            z = mp.besseljzero(mp.mpf(d) / 2, k)
            want = 2 / (mp.pi * z) / mp.besselj(mp.mpf(d) / 2 + 1, z) ** 2
            rem = abs(want - (1 + g2 / z**2 + g4 / z**4 + g6 / z**6))
            nxt = abs(mp.mpf(105) / 384 * (mu - 1) * (mu - 9) * (mu - 25) * (mu - 49)
                      / (2 * z) ** 8)
            assert rem <= 2 * nxt + mp.mpf("1e-30"), (d, k, rem, nxt)


@pytest.mark.parametrize("d", [1, 3, 24, 48])
@pytest.mark.parametrize("delta", [28.0, 40.0])
def test_truncation_majorant_bounds_the_summed_tail(d, delta):
    # the delta >= 28 branch bounds the terms past m by the next term
    # t_{m+1} times 1 + z_{m+1}/(pi delta); the terms m+1..4m, summed
    # directly and relative to t_{m+1}, must stay below that factor
    for m in (1, 10, 60, 240):
        zs, ws = energy._zero_weights(d, 4 * m)
        z_next, w_next = zs[m], ws[m]
        summed = math.fsum(math.exp(-(delta + 2.0) * math.log(zs[k] / z_next)) * ws[k] / w_next
                           for k in range(m, 4 * m))
        assert 1.0 <= summed <= 1.0 + z_next / (math.pi * delta), (d, delta, m)


def test_truncation_branch_needs_no_hankel_coefficients(monkeypatch):
    def refuse(d):
        raise AssertionError("the delta >= 28 branch asked for the Hankel coefficients")

    monkeypatch.setattr(energy, "_hankel_g", refuse)
    for d in (1, 2, 24):
        got = energy.asd_bound(d, d + 30.0)
        assert got.terms_used == 240 and 0.0 < got.tail_bound <= 1e-10 * got.value


@pytest.fixture
def cold_zeros(monkeypatch):
    """An empty zero cache for one test; the warm one comes back."""
    monkeypatch.setattr(special, "_zero_cache", {})


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(special, name)

    def counted(nu, x):
        calls.append(x)
        return inner(nu, x)

    monkeypatch.setattr(special, name, counted)
    return calls


@pytest.mark.parametrize("d", [2, 24, 48])
def test_zero_weights_evaluate_each_bessel_value_once(cold_zeros, monkeypatch, d):
    # Newton's last step, the zero check and the weight share their values
    calls = _count_calls(monkeypatch, "bessel_j")
    energy._zero_weights(d, 601)
    assert len(calls) <= 4.5 * 601


@pytest.mark.parametrize("d", [1, 2, 3, 8, 24, 48])
def test_zero_weights_equal_direct_bessel(d):
    zs, ws = energy._zero_weights(d, 601)
    for z, w in zip(zs, ws):
        j1 = special.bessel_j(d / 2.0 + 1.0, z)
        assert w == 1.0 / (j1 * j1)


@pytest.mark.parametrize("d", [48, 64])
def test_cold_asd_at_large_order_leaves_series_to_small_x(cold_zeros, monkeypatch, d):
    # Hankel used to give up at nu ~ 24 well past x = 2 nu, and the series
    # at 0.46 x digits took about 10 s for d = 48
    xs = _count_calls(monkeypatch, "_bessel_series")
    got = energy.asd_bound(d, d + 12.0)
    assert max(xs) <= 200.0
    assert got.tail_bound <= 1e-10 * got.value


def test_asd_d48_anchor_values():
    # the d = 48 anchor of the asd-cold benchmark, bit for bit
    for s, want in ((58.484616, (4.658542178124878e-16, 600, 9.317084356249791e-29)),
                    (71.238681, (1.388625613082437e-21, 600, 2.7772512261648835e-34)),
                    (61.999757, (1.34302463417198e-17, 600, 2.686049268343963e-30)),
                    (75.155429, (2.9038768199920755e-23, 600, 5.807753639984152e-36)),
                    (68.533422, (2.0177034982148414e-20, 600, 4.035406996429677e-33))):
        assert tuple(energy.asd_bound(48, s)) == want, s


def test_asd_refuses_an_underflow_from_its_first_zero(cold_zeros):
    # the first zero bounds log A above by log_scale + log t_1 + log1p(z_1 /
    # (pi delta)), about -1056 here, so no table of 241 zeros is built
    with pytest.raises(NumericalError, match="asd_bound underflows"):
        energy.asd_bound(540, 600)
    assert len(special._zero_cache[270.0][0]) == 1


@pytest.mark.parametrize("tol", [1e-13, 1.9999999999999998e-13, 1e-30])
def test_asd_tol_below_floor_refused_at_once(tol):
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        energy.asd_bound(3, 3.5, tol)
    assert time.perf_counter() - start < 0.05


def test_asd_tol_at_floor_still_tried():
    # at (2, 4) only rounding lets the floor pass, with the tail model's term
    # far below it; the gate before the first table leaves room for that
    for d, s, terms in ((3, 40.0, 240), (2, 4.0, 2400)):
        got = energy.asd_bound(d, s, 2e-13)
        assert got.terms_used == terms and got.tail_bound <= 2e-13 * got.value


def test_asd_refuses_a_tol_its_tail_model_cannot_meet(cold_zeros):
    # at the 80,000-term cap the model term is still 1.7e-23 of the first
    # term, against the 1.2e-26 that this tol leaves: refused from the first
    # zero alone, where the loop used to build 76,800 zeros (3.4 s) first
    special.bessel_zeros(1.0, 1)  # the Bessel series loads mpmath
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="tail model cannot reach tol=2e-13"):
        energy.asd_bound(60, 60.1, 2e-13)
    assert time.perf_counter() - start < 0.05
    assert len(special._zero_cache[30.0][0]) == 1


def test_asd_doubling_meets_a_tol_the_first_pass_misses():
    # at the default tol the first 600 terms leave a tail of 7.7e-13 value,
    # so 5e-13 doubles the series once
    tight = energy.asd_bound(48, 48.5, 5e-13)
    loose = energy.asd_bound(48, 48.5)
    assert loose.terms_used == 600 and loose.tail_bound > 5e-13 * loose.value
    assert tight.terms_used == 1200 and tight.tail_bound <= 5e-13 * tight.value
    assert abs(tight.value - loose.value) <= loose.tail_bound


def test_asd_tail_bound_honest():
    loose = energy.asd_bound(3, 4.5, 1e-6)
    tight = energy.asd_bound(3, 4.5, 1e-12)
    assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-12 * abs(tight.value)
    assert loose.terms_used <= tight.terms_used


def test_asd_domain_errors():
    with pytest.raises(DomainError):
        energy.asd_bound(2, 2.0)
    with pytest.raises(DomainError):
        energy.asd_bound(2, 4.0, 0.0)
    for s, tol in ((math.inf, 1e-10), (math.nan, 1e-10), (4.0, math.inf), (4.0, math.nan)):
        with pytest.raises(DomainError):
            energy.asd_bound(2, s, tol)


_GUARDED_CALLS = [
    (jacobi.family_params, (2, 2, 0)),
    (jacobi.jacobi_values, (-1, 2, 0, 0, 0.5)),
    (jacobi.norm_ratios, (-1, 2, 0, 0)),
    (jacobi.cd_kernel, (-1, 2, 0, 0, 0.5, 0.5)),
    (jacobi.largest_zero, (0, 2, 0, 0)),
    (quadrature.lev_branch, (2, 3, 1.0)),
    (quadrature.lev_branch, (2, 0, 0.5)),
    (quadrature.lev_branch, (2, -1, 0.5)),
    (quadrature.lev_branch, (2, 2.5, 0.5)),
    (quadrature.lev_branch, (2, 4, -1.0)),
    (quadrature.build_rule, (2, 2.5)),
    (quadrature.verify_exactness, (quadrature.build_rule(2, 4), -1)),
    (energy.theta_bound, (0, 1.0)),
    (energy.gauss_bound, (0, 1.0)),
    (energy.packing_bound, (0,)),
    (lattices.packing_density, ("Z9",)),
    (lattices.tau_coefficients, (0,)),
    (lattices.theta_coefficients, ("A2", 0)),
    (special.unit_sphere_area, (-1,)),
    (special.ball_volume, (0,)),
]


@pytest.mark.parametrize("fn,args", _GUARDED_CALLS, ids=[fn.__name__ for fn, _ in _GUARDED_CALLS])
def test_input_guards_refuse_at_once(fn, args):
    start = time.perf_counter()
    with pytest.raises(DomainError):
        fn(*args)
    assert time.perf_counter() - start < 0.05


def test_non_finite_s_rejected():
    # theta_bound(2, inf) used to return NaN
    for fn in (energy.theta_bound, energy.xi_bound, energy.xi_flags):
        for s in (math.inf, math.nan):
            with pytest.raises(DomainError):
                fn(2, s)


def test_residue_targets():
    # delta * bound(d, d + delta) approaches 2 pi^{d/2}/Gamma(d/2) for the
    # two constants with a pole at s = d (theta stays bounded there)
    delta = 1e-5
    for d in (1, 2, 3):
        target = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        for bound, got in (("xi", delta * energy.xi_bound(d, d + delta)),
                           ("asd", delta * energy.asd_bound(d, d + delta, 1e-10).value)):
            assert abs(got - target) < 5e-3 * target, (d, bound, got, target)


def test_gauss_bound_d1_direct_series():
    for alpha in (0.5, 1.0, 2.0):
        got = energy.gauss_bound(1, alpha, 1.0)
        want = oracles.gauss_d1_direct(alpha)
        assert abs(got.value - want) < 1e-10 * want
        assert got.tail_bound <= 1e-12


def test_gauss_bound_monotone_and_vanishing():
    v1 = energy.gauss_bound(2, 1.0).value
    v2 = energy.gauss_bound(2, 2.0).value
    v4 = energy.gauss_bound(2, 4.0).value
    assert v1 > v2 > v4 > 0.0
    assert energy.gauss_bound(2, 200.0).value < 1e-30
    assert abs(v1 - 2.1417388079459667) < 1e-12 * v1
    assert energy.gauss_bound(2, 100.0).value == 1.1192696844357648e-50
    # at alpha = 1000 the sum underflows; a 0 would claim an exactness the
    # positive true value does not have
    with pytest.raises(NumericalError, match="gauss_bound underflows for d=2"):
        energy.gauss_bound(2, 1000.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gauss_bound_refuses_impossible_alpha_at_once(d):
    # the ratio test past the last zero before the term cap cannot pass
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        energy.gauss_bound(d, 1e-6)
    assert time.perf_counter() - start < 0.05


def test_gauss_bound_density_scaling():
    # denser configurations cannot lower the energy bound
    lo = energy.gauss_bound(3, 1.0, 0.5).value
    hi = energy.gauss_bound(3, 1.0, 2.0).value
    assert hi > lo


def test_gauss_bound_domain_errors():
    with pytest.raises(DomainError):
        energy.gauss_bound(2, 0.0)
    with pytest.raises(DomainError):
        energy.gauss_bound(2, 1.0, -2.0)
    # rho = inf used to run for seconds before ResourceError
    for alpha, rho in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(DomainError):
            energy.gauss_bound(2, alpha, rho)


def test_packing_bound_values():
    assert abs(energy.packing_bound(1) - 1.0) < 1e-12
    assert abs(energy.packing_bound(2) - 0.91762316) < 1e-7
    assert abs(energy.packing_bound(24) - 0.00341970978) < 1e-10


def test_bd_ratio():
    b2 = energy.bd_ratio(2, math.pi / math.sqrt(12.0))
    assert abs(b2 - 1.00589479) < 1e-8
    assert abs(energy.bd_ratio(1, 1.0) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        energy.bd_ratio(2, 0.0)
    with pytest.raises(DomainError):
        energy.bd_ratio(2, 1.5)


def test_bounds_at_d2_s4_closed_forms_and_ordering():
    # the four constants the bounds subcommand prints at (2, 4); its CSV and
    # JSON layout is pinned by the golden corpus
    theta = energy.theta_bound(2, 4.0)
    xi = energy.xi_bound(2, 4.0)
    a_sd = energy.asd_bound(2, 4.0, 1e-10).value
    ct = lattices.c_tilde(2, 4.0)
    assert theta == pytest.approx(math.pi**2 / 16.0, rel=1e-13)
    assert xi == pytest.approx(math.pi**2 / 4.0, rel=1e-12)
    assert ct == pytest.approx(5.783359299678672, rel=1e-12)
    # the asymptotic ordering theta <= xi <= asd <= c_tilde at this point
    assert theta < xi < a_sd < ct
