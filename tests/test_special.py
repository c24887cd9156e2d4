import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rieszbounds import special
from rieszbounds.errors import DomainError, NumericalError


def test_lambda_d_values():
    # lambda_2 = 2 exactly; the others from sqrt(pi) Gamma(d/2)/Gamma((d+1)/2)
    assert abs(special.lambda_d(2) - 2.0) < 1e-15
    assert abs(special.lambda_d(1) - math.pi) < 1e-15
    assert abs(special.lambda_d(4) - 4.0 / 3.0) < 1e-15
    assert special.lambda_d(24) > 0.0
    with pytest.raises(DomainError):
        special.lambda_d(0)


def test_sphere_area_and_ball_volume():
    assert abs(special.unit_sphere_area(1) - 2.0 * math.pi) < 1e-14
    assert abs(special.unit_sphere_area(2) - 4.0 * math.pi) < 1e-14
    assert abs(special.unit_sphere_area(3) - 2.0 * math.pi**2) < 1e-13
    assert abs(special.ball_volume(2, 1.0) - math.pi) < 1e-15
    assert abs(special.ball_volume(3, 2.0) - 32.0 * math.pi / 3.0) < 1e-13
    assert abs(special.ball_volume(1, 0.5) - 1.0) < 1e-15
    for d, r in ((2, 1e200), (2, 1e154)):
        with pytest.raises(NumericalError, match="ball_volume overflows"):
            special.ball_volume(d, r)
    # the area of S^343 is 5.2e-224 and the volume of the 342-ball 8.3e-225,
    # but Gamma(172) overflows a double; one dimension lower both answer
    with pytest.raises(NumericalError, match=r"Gamma\(172\) overflows a double, though"):
        special.unit_sphere_area(343)
    with pytest.raises(NumericalError, match=r"Gamma\(172\) overflows a double, though"):
        special.ball_volume(342)
    assert special.unit_sphere_area(342).hex() == "0x1.1ce3dcd5091c0p-739"
    assert special.ball_volume(341).hex() == "0x1.6abbbb47ebf95p-742"
    for r in (math.inf, math.nan):
        with pytest.raises(DomainError):
            special.ball_volume(2, r)


@given(st.floats(min_value=0.01, max_value=3.0), st.floats(min_value=1.001, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_ball_volume_monotone_in_radius(r, factor):
    assert special.ball_volume(3, r * factor) > special.ball_volume(3, r)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 6.5, 12.0, 24.0, 32.0])
def test_bessel_j_matches_mpmath(nu):
    with mp.workdps(30):
        for x in (0.1, 1.0, 5.0, 10.0, 40.0, 120.0):
            want = float(mp.besselj(nu, x))
            got = special.bessel_j(nu, x)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (nu, x, got, want)


def test_bessel_j_at_zero_argument():
    assert special.bessel_j(0.0, 0.0) == 1.0
    assert special.bessel_j(2.0, 0.0) == 0.0


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 6.5, 12.0])
def test_bessel_zeros_against_bisection(nu):
    # each zero sits in a bracket of relative width 1e-14 across which J_nu
    # changes sign, as a bisection on mpmath's besselj ends; J_nu is positive
    # below the first zero, so the sign below the k-th is (-1)^(k-1)
    table = special.bessel_zeros(nu, 10)
    with mp.workdps(30):
        for k, z in enumerate(table.zeros, start=1):
            below = mp.besselj(nu, mp.mpf(z) * (1 - mp.mpf(1e-14)))
            above = mp.besselj(nu, mp.mpf(z) * (1 + mp.mpf(1e-14)))
            assert mp.sign(below) == (-1) ** (k - 1) == -mp.sign(above), (nu, k)


def test_half_order_zeros_are_multiples_of_pi():
    table = special.bessel_zeros(0.5, 8)
    for i, z in enumerate(table.zeros, start=1):
        assert abs(z - i * math.pi) < 1e-12 * i


def test_bessel_zeros_table_certification():
    table = special.bessel_zeros(3.0, 6)
    assert len(table.zeros) == len(table.j_next) == 6


def test_bessel_zeros_domain_errors():
    with pytest.raises(DomainError):
        special.bessel_zeros(-1.0, 5)
    with pytest.raises(DomainError):
        special.bessel_zeros(1.0, 0)
    for nu in (math.nan, math.inf):
        with pytest.raises(DomainError):
            special.bessel_zeros(nu, 3)
    for n in (math.nan, math.inf, 2.5):
        with pytest.raises(DomainError):
            special.bessel_zeros(1.0, n)
    assert special.bessel_zeros(1.0, 3.0) == special.bessel_zeros(1.0, 3)


@pytest.mark.parametrize("nu, x", [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                                   (1.0, math.nan), (1.0, math.inf)])
def test_bessel_j_domain_errors(nu, x):
    with pytest.raises(DomainError):
        special.bessel_j(nu, x)


def test_zero_table_rejects_a_corrupt_zero(monkeypatch):
    # the fourth zero (the first seeded above 13) comes back from Newton
    # 0.5 too high, with the Bessel values there: the residual check
    # refuses the table
    polish = special._newton_polish

    def corrupt(nu, z0):
        z, f, j1 = polish(nu, z0)
        if z0 > 13.0:
            z += 0.5
            f, j1 = special.bessel_j(nu, z), special.bessel_j(nu + 1.0, z)
        return z, f, j1

    monkeypatch.setattr(special, "_zero_cache", {})
    assert len(special.bessel_zeros(2.0, 3).zeros) == 3
    monkeypatch.setattr(special, "_newton_polish", corrupt)
    with pytest.raises(NumericalError, match="residual"):
        special.bessel_zeros(2.0, 7)


@pytest.mark.parametrize("nu, seed", [(2.0, "_mcmahon_guess"), (40.0, "_olver_guess")])
@pytest.mark.parametrize("first, late", [(1, 1), (1, 2), (2, 2), (5, 1), (5, 2)])
def test_zero_table_rejects_a_skipped_zero(monkeypatch, nu, seed, first, late):
    # seeding zero number `first` and all after it `late` zeros too far
    # on makes Newton skip zeros: the sign of J_{nu+1} catches an odd
    # skip, the bound L_{k+2} an even one at k <= 2, the gaps one later
    guess = getattr(special, seed)
    monkeypatch.setattr(special, "_zero_cache", {})
    monkeypatch.setattr(special, seed, lambda nu, i: guess(nu, i + late if i >= first else i))
    with pytest.raises(NumericalError, match=f"not zero number {first}"):
        special.bessel_zeros(nu, 10)
    # a single zero seeded late is refused too, at its own index or, as a
    # repeat of the zero after it, at the next
    monkeypatch.setattr(special, "_zero_cache", {})
    monkeypatch.setattr(special, seed, lambda nu, i: guess(nu, i + late if i == first else i))
    with pytest.raises(NumericalError, match="not zero number"):
        special.bessel_zeros(nu, 10)


@pytest.mark.parametrize("nu", [0.5 * i for i in range(130)] + [100.0, 150.0])
def test_index_bounds_hold_against_mpmath(nu):
    # j_{nu,k} < L_{k+2}(nu) <= j_{nu,k+2} for k = 1 at every order of the
    # grid and k = 2 at every fourth, so a true table always passes and a
    # table starting at a later zero never does
    for k, (j0, a) in enumerate(special._INDEX_BOUNDS, start=1):
        if k == 2 and nu % 2.0:
            continue
        bound = max(j0, nu + a * (0.5 * nu) ** (1.0 / 3.0))
        with mp.workdps(17):
            assert mp.besseljzero(nu, k) < bound <= mp.besseljzero(nu, k + 2), (nu, k)


def test_zero_spacing_approaches_pi():
    table = special.bessel_zeros(2.0, 30)
    gaps = [b - a for a, b in zip(table.zeros, table.zeros[1:])]
    assert abs(gaps[-1] - math.pi) < abs(gaps[0] - math.pi)
    assert abs(gaps[-1] - math.pi) < 5e-3
    # the index check rests on |gap - pi| never growing along a table by
    # more than rounding: gaps fall to pi for nu > 1/2, rise to pi below
    # and equal pi at 1/2
    for nu in (0.0, 0.5, 1.0, 2.0, 24.5, 64.0):
        z = special.bessel_zeros(nu, 600).zeros
        dev = [abs(b - a - math.pi) for a, b in zip(z, z[1:])]
        rise = max((y - x) / zk for x, y, zk in zip(dev, dev[1:], z[2:]))
        assert rise <= 4 * 2.0**-52, (nu, rise)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 6.0, 12.0])
@pytest.mark.parametrize("a", [100.0, 250.5, 1000.0])
def test_hurwitz_zeta_matches_mpmath(s, a):
    want = oracles.hurwitz_mp(s, a)
    got = special.hurwitz_zeta(s, a)
    assert abs(got - want) < 1e-13 * abs(want), (s, a, got, want)


def test_hurwitz_zeta_domain_errors():
    with pytest.raises(DomainError):
        special.hurwitz_zeta(1.0, 10.0)
    with pytest.raises(DomainError):
        special.hurwitz_zeta(2.0, 0.0)
    for s, a in ((math.inf, 100.0), (math.nan, 100.0), (2.0, math.inf), (2.0, math.nan)):
        with pytest.raises(DomainError):
            special.hurwitz_zeta(s, a)


def test_hurwitz_zeta_refuses_small_a():
    # five Euler-Maclaurin terms at a = 1 give 1.69957 for zeta(2) = 1.64493;
    # below a = 100 the expansion makes no accuracy claim, so it refuses
    for a in (1.0, 10.0, 99.9):
        with pytest.raises(DomainError):
            special.hurwitz_zeta(2.0, a)


def test_hankel_certificate_bounds_true_error():
    # every point bessel_j takes the Hankel route at must have its true
    # error, against mpmath at 40 digits, within err + phase_err; the
    # phase term matters: without it err alone is exceeded up to ~200x
    accepted = 0
    for i in range(27):
        nu = 1.5 * i
        x = max(12.0, 2.0 * nu)
        while x <= 5000.0:
            value, err, phase_err = special._bessel_asymptotic(nu, x)
            if err < 1e-13:
                accepted += 1
                with mp.workdps(40):
                    true = mp.besselj(nu, x)
                assert abs(mp.mpf(value) - true) <= err + phase_err, (nu, x)
            x *= 1.2
    assert accepted > 600


def test_hankel_takes_the_dlmf_term_count_at_large_order():
    # the terms fall below 1e-18 before the term count is reached; the
    # expansion used to give up there and hand over to the series, which
    # at x = 26175 did not converge at all.  Above nu = 80.5 the count
    # is more than 80 terms, where the loop used to stop.
    for nu, x in ((25.0, 1925.0), (33.0, 3000.0), (13.0, 26174.96),
                  (100.0, 31572.06), (150.0, 40000.0)):
        value, err, phase_err = special._bessel_asymptotic(nu, x)
        assert err < 1e-13, (nu, x)
        with mp.workdps(40):
            true = mp.besselj(nu, x)
        assert abs(mp.mpf(value) - true) <= err + phase_err, (nu, x)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 6.5, 12.0, 24.0, 24.5, 32.0, 36.5, 37.0,
                                44.5, 64.0])
def test_bessel_zeros_match_mpmath(nu):
    table = special.bessel_zeros(nu, 600)
    for k in (*range(1, 11), 100, 600):
        with mp.workdps(30):
            want = mp.besseljzero(nu, k)
        assert abs(table.zeros[k - 1] - want) <= 1e-14 * want, (nu, k)


@pytest.mark.parametrize("nu", [37.0, 44.5])
def test_mcmahon_newton_stalls_where_olver_seeds(nu):
    # Newton from the McMahon seed of the first zero stalls at nu = 37 and
    # steps below 0 at nu = 44.5; both count as a stall, which is why
    # orders above 36.5 are seeded from Olver's expansion instead
    with pytest.raises(NumericalError):
        special._newton_polish(nu, special._mcmahon_guess(nu, 1))


def test_first_zero_from_an_empty_cache_above_the_switch(monkeypatch):
    # the seed must find the first zero: the index check would refuse a
    # later one, and the oracle confirms the one it accepts
    for d in (74, 75, 100, 128):
        monkeypatch.setattr(special, "_zero_cache", {})
        got = special.bessel_zeros(d / 2.0, 1).zeros[0]
        with mp.workdps(30):
            want = mp.besseljzero(d / 2.0, 1)
        assert abs(got - want) <= 1e-14 * want, d
