import math
import time

import pytest

import oracles
from rieszbounds import lattices
from rieszbounds.errors import DomainError, ResourceError


def test_dimension_tables():
    assert set(lattices.LATTICE_FOR_DIMENSION) == {1, 2, 3, 4, 5, 6, 7, 8, 24}
    assert lattices.LATTICE_FOR_DIMENSION[24] == "Leech"
    assert lattices.CONJECTURED_DIMENSIONS == frozenset({4, 5, 6, 7})
    for name in lattices.LATTICE_FOR_DIMENSION.values():
        assert name in lattices.LATTICES


def test_packing_densities_exact():
    # closed forms for the densest known packings in each dimension
    want = {
        "A1": 1.0,
        "A2": math.pi / math.sqrt(12.0),
        "fcc": math.pi / math.sqrt(18.0),
        "D4": math.pi**2 / 16.0,
        "D5": math.pi**2 * math.sqrt(2.0) / 30.0,
        "E6": math.pi**3 / (48.0 * math.sqrt(3.0)),
        "E7": math.pi**3 / 105.0,
        "E8": math.pi**4 / 384.0,
        "Leech": math.pi**12 / math.factorial(12),
    }
    for name, target in want.items():
        got = lattices.packing_density(name)
        assert abs(got - target) < 1e-13 * target, (name, got, target)


def _sigma(k, m_max):
    return lattices._divisor_sums(lambda e: e**k, m_max)


def test_sigma_anchors_and_naive_agreement():
    for k in (1, 3, 11):
        sieve = _sigma(k, 97)
        for m in (1, 7, 12, 36, 97):
            assert sieve[m] == oracles.sigma_naive(m, k)
    assert _sigma(3, 2)[2] == 9
    assert _sigma(11, 2)[2] == 2049
    assert _sigma(1, 6)[6] == 12


def test_tau_against_eta_product():
    want = oracles.tau_naive(200)
    got = lattices.tau_coefficients(200)
    assert got[0] == 0  # slot 0 pads the list so tau(m) sits at index m
    assert got[1:] == want
    assert got[1] == 1 and got[2] == -24 and got[3] == 252


def test_tau_anchors_and_resource_cap():
    assert lattices.tau_coefficients(1)[1] == 1
    assert lattices.tau_coefficients(2)[2] == -24
    assert lattices.tau_coefficients(6)[6] == -6048
    with pytest.raises(ResourceError):
        lattices.tau_coefficients(lattices.TAU_TRUNCATION_DEFAULT + 1)


def test_kissing_numbers():
    # A1 has 2 vectors on each square shell and none elsewhere
    assert lattices.theta_coefficients("A1", 10) == [2, 0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert lattices.theta_coefficients("A2", 1)[0] == 6
    assert lattices.theta_coefficients("D4", 1)[0] == 24
    assert lattices.theta_coefficients("E8", 1)[0] == 240
    assert lattices.theta_coefficients("Leech", 2) == [0, 196560]


def test_d4_formula_against_brute_force():
    brute = oracles.d4_counts_brute(30)
    coeffs = lattices.theta_coefficients("D4", 15)
    for m in range(1, 16):
        assert coeffs[m - 1] == brute[2 * m], m


def test_a2_counts_against_brute_force():
    brute = oracles.a2_counts_brute(40)
    coeffs = lattices.theta_coefficients("A2", 40)
    assert coeffs == [brute[m] for m in range(1, 41)]


def test_e8_enumeration_matches_formula():
    formula = lattices.theta_coefficients("E8", 20)
    assert oracles.e8_coset_counts(20) == formula


def test_leech_counts_are_divisible_integers():
    coeffs = lattices.theta_coefficients("Leech", 200)
    assert all(isinstance(c, int) and c >= 0 for c in coeffs)
    assert coeffs[0] == 0
    assert coeffs[2] == 16773120
    # every nonempty shell count is a multiple of the group-order factor 65520/691
    for m, c in enumerate(coeffs, start=1):
        if m >= 2:
            assert c > 0


def test_count_by_norm_direct_gram():
    # quick cross-check on the explicit D4 Gram matrix
    counts = oracles.count_by_norm(oracles.D4_GRAM, 6)
    brute = oracles.d4_counts_brute(6)
    for q in range(1, 7):
        assert counts.get(q, 0) == brute[q]


def test_count_by_norm_rejects_bad_gram():
    with pytest.raises(ValueError):
        oracles.count_by_norm(((1, 2), (2, 1)), 4)  # indefinite
    with pytest.raises(ValueError):
        oracles.count_by_norm(((1, 0), (1, 0)), 4)  # not symmetric


@pytest.mark.parametrize(
    "name,s",
    [("A2", 4.0), ("A2", 5.5), ("A2", 9.0), ("D4", 5.0), ("D4", 9.0), ("D4", 16.0),
     ("E8", 10.0), ("E8", 14.0), ("E8", 20.0)],
)
def test_epstein_zeta_against_closed_forms(name, s):
    closed = {"A2": oracles.a2_zeta_closed, "D4": oracles.d4_zeta_closed,
              "E8": oracles.e8_zeta_closed}[name](s)
    got = lattices.epstein_zeta(name, s, 1e-10)
    assert abs(got.value - closed) <= got.tail_bound + 1e-10 * closed, (name, s)
    assert got.tail_bound < 1e-8 * closed


@pytest.mark.parametrize("s", [26.0, 35.0])
def test_leech_zeta_against_closed_form(s):
    closed, closed_err = oracles.leech_zeta_closed(s)
    got = lattices.epstein_zeta("Leech", s, 1e-10)
    assert abs(got.value - closed) <= got.tail_bound + closed_err + 1e-10 * closed


def test_epstein_route_crossover_consistent():
    # s = d + 6 was the border between two routes that one closed form
    # now replaces; both sides must still hit the double-precision oracle
    for s in (7.9, 8.1):
        closed = oracles.a2_zeta_closed(s)
        got = lattices.epstein_zeta("A2", s, 1e-10)
        assert abs(got.value - closed) <= got.tail_bound + 1e-9 * closed


def test_epstein_near_pole_values_finite():
    tight = lattices.epstein_zeta("A2", 2.05, 1e-8)
    assert tight.value > 100.0  # pole at s = 2 dominates
    assert tight.tail_bound < 1e-8 * tight.value


def test_epstein_tail_honesty():
    loose = lattices.epstein_zeta("E8", 10.0, 1e-6)
    tight = lattices.epstein_zeta("E8", 10.0, 1e-12)
    assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-12 * tight.value


def test_epstein_domain_errors():
    with pytest.raises(DomainError):
        lattices.epstein_zeta("fcc", 5.0)
    with pytest.raises(DomainError):
        lattices.epstein_zeta("A2", 2.0)
    with pytest.raises(DomainError):
        lattices.epstein_zeta("A2", 4.0, 0.0)
    with pytest.raises(DomainError):
        lattices.theta_coefficients("fcc", 5)  # no closed formula
    for s, tol in ((math.inf, 1e-10), (math.nan, 1e-10), (5.0, math.inf), (5.0, math.nan)):
        with pytest.raises(DomainError):
            lattices.epstein_zeta("A2", s, tol)


def test_c_tilde_values_and_domain():
    # covolume^{s/d} times the lattice zeta; E8 has covolume 1 so the
    # conjectured constant equals the zeta value there
    assert abs(lattices.c_tilde(8, 10.0) - oracles.e8_zeta_closed(10.0)) < 1e-9
    frozen = 5.783359299678672
    assert abs(lattices.c_tilde(2, 4.0) - frozen) < 1e-11 * frozen
    covol = math.sqrt(3.0) / 2.0
    want = covol ** (4.0 / 2.0) * oracles.a2_zeta_closed(4.0)
    assert abs(lattices.c_tilde(2, 4.0) - want) < 1e-10 * want
    with pytest.raises(DomainError):
        lattices.c_tilde(3, 5.0)
    with pytest.raises(DomainError):
        lattices.c_tilde(2, 2.0)
    with pytest.raises(DomainError):
        lattices.c_tilde(2, math.inf)


# zeta lattice per dimension; A1 has no c_tilde but the same closed-form route
_ZETA_DIMS = {"A1": 1, "A2": 2, "D4": 4, "E8": 8, "Leech": 24}


def _oracle_grid(d):
    # next to the pole, both sides of the old route border (d + 6, or d + 10
    # for Leech), and out to d + 40
    border = 10.0 if d == 24 else 6.0
    return ([d + 1e-9, d + 1e-6, d + border - 1e-9, d + border + 1e-9]
            + [d + 40.0 * (i / 6) ** 2 for i in range(1, 7)])


def _ulps(x, ref):
    return float(abs(oracles.mp.mpf(x) - ref)) / math.ulp(float(ref))


@pytest.mark.parametrize("d,name", [(2, "A2"), (4, "D4"), (8, "E8"), (24, "Leech")])
def test_c_tilde_matches_full_48_shell_theta_transform(d, name):
    # against a 50-digit oracle (mpmath's zeta and L-functions, and for
    # Leech the theta transformation), c_tilde is rounded once from a value
    # far inside an ulp, so it is the nearest double, and never farther than
    # the double of the 48-shell theta transformation
    lat = lattices.LATTICES[name]
    counts = lattices.theta_coefficients(lat, 48)
    kappa = 2.0 if lat.index_convention == "even" else 1.0
    dual_scale = {"A2": 4.0 / 3.0, "D4": 0.5, "E8": 1.0, "Leech": 1.0}[name]
    for s in _oracle_grid(d):
        ref = oracles.c_tilde_mp(d, s)
        theta = lat.covolume ** (s / d) * oracles.epstein_theta_mp(
            counts, kappa, dual_scale, lat.covolume, d, s)
        got = _ulps(lattices.c_tilde(d, s), ref)
        assert got <= 0.5 + 1e-9, (name, s, got)
        assert got <= _ulps(theta, ref), (name, s, got, _ulps(theta, ref))


@pytest.mark.parametrize("name", list(_ZETA_DIMS))
def test_epstein_zeta_within_tail_bound_of_oracle(name):
    d = _ZETA_DIMS[name]
    for s in _oracle_grid(d):
        ref = oracles.lattice_zeta_mp(d, s)
        got = lattices.epstein_zeta(name, s, 1e-10)
        assert float(abs(oracles.mp.mpf(got.value) - ref)) <= got.tail_bound, (name, s)
        assert _ulps(got.value, ref) <= 0.5 + 1e-9, (name, s)


_FLOOR = 2.0**-52


@pytest.mark.parametrize("name,s,tol", [("A1", 3.0, 2.2e-16), ("A2", 4.0, 2.2e-16),
                                        ("A2", 9.0, 2.2e-16), ("D4", 12.0, 2.2e-16),
                                        ("E8", 16.0, 2.2e-16), ("Leech", 30.0, 1e-20)])
def test_epstein_tolerance_below_floor_refused_at_once(name, s, tol):
    # every tail bound is at most 2^-52 of the value (one rounding plus a
    # truncation below a quarter ulp), so a tolerance below that is refused
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="floor"):
        lattices.epstein_zeta(name, s, tol)
    assert time.perf_counter() - start < 0.05


def test_epstein_tolerance_at_floor_still_met():
    for name, s in (("A1", 1.5), ("A2", 2.0 + 1e-9), ("A2", 40.0), ("D4", 12.0),
                    ("E8", 16.0), ("Leech", 30.0)):
        lattices.epstein_zeta(name, s, 1e-10)  # first-call setup (tau table) not timed
        start = time.perf_counter()
        got = lattices.epstein_zeta(name, s, _FLOOR)
        assert time.perf_counter() - start < 0.05, (name, s)
        assert 0.0 < got.tail_bound <= _FLOOR * got.value, (name, s)


@pytest.mark.parametrize("name,s", [("E8", 16.0), ("D4", 12.0)])
def test_old_plain_route_floor_answers_at_once(name, s):
    # the plain shell sum spun for seconds here before refusing
    start = time.perf_counter()
    got = lattices.epstein_zeta(name, s, 1e-14)
    assert time.perf_counter() - start < 0.05
    assert got.tail_bound <= 1e-14 * got.value
