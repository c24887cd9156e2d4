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


def test_sigma_anchors_and_naive_agreement():
    for k in (1, 3, 11):
        sieve = lattices._sieve_sigma(k, 97)
        for m in (1, 7, 12, 36, 97):
            assert sieve[m] == oracles.sigma_naive(m, k)
    assert lattices._sieve_sigma(3, 2)[2] == 9
    assert lattices._sieve_sigma(11, 2)[2] == 2049
    assert lattices._sieve_sigma(1, 6)[6] == 12


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
    # s = d + 5.9 accelerates, s = d + 6.1 sums plainly; both must hit
    # the closed form, so the two internal routes cross-validate
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


def _theta_range(d):
    # the s at which epstein_zeta takes the theta transformation
    top = 10.0 if d == 24 else 6.0
    return [d + 1e-6] + [d + top * i / 51 for i in range(1, 51)] + [d + top - 1e-9]


@pytest.mark.parametrize("d,name", [(2, "A2"), (4, "D4"), (8, "E8"), (24, "Leech")])
def test_c_tilde_matches_full_48_shell_theta_transform(d, name):
    # truncating each sum where its tail is below 2^-110 of the value must
    # not move a bit against summing all 48 shells of both sums
    lat = lattices.LATTICES[name]
    counts = lattices.theta_coefficients(lat, 48)
    kappa = 2.0 if lat.index_convention == "even" else 1.0
    dual_scale = {"A2": 4.0 / 3.0, "D4": 0.5, "E8": 1.0, "Leech": 1.0}[name]
    for s in _theta_range(d):
        full = oracles.epstein_theta_mp(counts, kappa, dual_scale, lat.covolume, d, s)
        assert lattices.c_tilde(d, s) == lat.covolume ** (s / d) * full, (name, s)


def test_theta_transform_gammainc_calls_per_evaluation(monkeypatch):
    calls = []
    real = lattices.gammainc

    def counting(a, z):
        calls.append(a)
        return real(a, z)

    monkeypatch.setattr(lattices, "gammainc", counting)
    for d, name in ((2, "A2"), (4, "D4"), (8, "E8"), (24, "Leech")):
        for s in _theta_range(d)[::10]:
            calls.clear()
            lattices.epstein_zeta(name, s, 1e-10)
            assert 0 < len(calls) <= 2 * 25, (name, s, len(calls))


@pytest.mark.parametrize("name,s,tol", [("A2", 9.0, 1e-15), ("D4", 12.0, 9.9e-15),
                                        ("E8", 16.0, 9.9e-15), ("A2", 4.0, 4.9e-15),
                                        ("Leech", 30.0, 1e-20)])
def test_epstein_tolerance_below_floor_refused_at_once(name, s, tol):
    # the plain route adds 1e-14 * value to its tail and the theta route
    # 5e-15 * value, so a tolerance below that can never be met
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="floor"):
        lattices.epstein_zeta(name, s, tol)
    assert time.perf_counter() - start < 0.05


def test_epstein_tolerance_at_floor_still_met():
    # a truncation tail below half an ulp of the floor term rounds away,
    # so a tolerance equal to the floor is met on both routes
    plain = lattices.epstein_zeta("A2", 40.0, 1e-14)
    assert plain.tail_bound == 1e-14 * plain.value
    theta = lattices.epstein_zeta("A2", 4.0, 5e-15)
    assert theta.tail_bound == 5e-15 * theta.value
