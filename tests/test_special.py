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
    for d, r in ((342, 1.0), (2, 1e200), (2, 1e154)):
        with pytest.raises(NumericalError):
            special.ball_volume(d, r)
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
    table = special.bessel_zeros(nu, 10)
    want = oracles.bessel_zero_bisect(nu, 10)
    for got, ref in zip(table.zeros, want):
        assert abs(got - ref) < 1e-12 * ref


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


def test_zero_range_validation_rejects_corrupt_table():
    zeros = special.bessel_zeros(2.0, 7).zeros
    special._validate_zero_range(2.0, zeros, 0, len(zeros))
    corrupt = zeros[:3] + (zeros[3] + 0.5,)
    with pytest.raises(NumericalError):
        special._validate_zero_range(2.0, corrupt, 0, len(corrupt))


def test_zero_spacing_approaches_pi():
    table = special.bessel_zeros(2.0, 30)
    gaps = [b - a for a, b in zip(table.zeros, table.zeros[1:])]
    assert abs(gaps[-1] - math.pi) < abs(gaps[0] - math.pi)
    assert abs(gaps[-1] - math.pi) < 5e-3


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
    # at x = 26175 did not converge at all
    for nu, x in ((25.0, 1925.0), (33.0, 3000.0), (13.0, 26174.96)):
        assert special._bessel_asymptotic(nu, x)[1] < 1e-13, (nu, x)


@pytest.mark.parametrize("nu", [0.5, 12.0, 24.0, 24.5, 32.0])
def test_bessel_zeros_match_mpmath(nu):
    table = special.bessel_zeros(nu, 600)
    for k in (1, 2, 3, 10, 100, 600):
        with mp.workdps(30):
            want = mp.besseljzero(nu, k)
        assert abs(table.zeros[k - 1] - want) <= 1e-14 * want, (nu, k)


@pytest.mark.parametrize("nu", [37.0, 44.5])
def test_bessel_zeros_scan_where_mcmahon_newton_fails(monkeypatch, nu):
    # Newton from the McMahon seed of the first zero stalls at nu = 37 and
    # steps below 0 at nu = 44.5; both count as a stall, and the table is
    # rebuilt by the scan
    with pytest.raises(NumericalError):
        special._newton_polish(nu, special._mcmahon_guess(nu, 1))
    monkeypatch.setattr(special, "_zero_cache", {})
    scans = []
    scan = special._scan_zeros
    monkeypatch.setattr(special, "_scan_zeros", lambda v, n: scans.append(v) or scan(v, n))
    table = special.bessel_zeros(nu, 40)
    assert scans == [nu]
    for k in (1, 2, 3, 10, 40):
        with mp.workdps(30):
            want = mp.besseljzero(nu, k)
        assert abs(table.zeros[k - 1] - want) <= 1e-14 * want, (nu, k)
