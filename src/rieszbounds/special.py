"""Classical special functions used by the bound computations.

Everything here is self-contained apart from ``math``/``mpmath``: the
Bessel evaluator switches between the ascending power series (small
argument, summed at elevated working precision so the alternating-series
cancellation never reaches the double result) and the Hankel asymptotic
expansion (large argument, truncated at its smallest term and accepted
only when the first omitted term certifies an absolute error below
1e-13).  Bessel zeros start from McMahon's expansion and are finished by
Newton iteration; a bracketed scan repairs the rare misconvergence for
large orders where the McMahon guess is poor.

Accuracy targets: ``bessel_j`` absolute error <= 1e-12 for 0 <= x <= 500 and
0 <= nu <= 15, zeros to |dz| ~ 1e-14 (or a few ulp once that is below
the floating point spacing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError, NumericalError

_TWO_PI = 2.0 * math.pi
_EPS = 2.220446049250313e-16


def lambda_d(d: int) -> float:
    """Normalizing constant sqrt(pi)*Gamma(d/2)/Gamma((d+1)/2).

    Equals the total mass of the projected sphere measure with density
    (1-t^2)^((d-2)/2) on [-1, 1], so (1/lambda_d) * w_d is a probability
    density.  lambda_1 = pi, lambda_2 = 2, lambda_3 = pi/2.
    """
    if d < 1 or d != int(d):
        raise DomainError(f"lambda_d requires a positive integer dimension, got {d}")
    return math.sqrt(math.pi) * math.exp(math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


def unit_sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^d embedded in R^(d+1)."""
    if d < 0 or d != int(d):
        raise DomainError(f"unit_sphere_area requires integer d >= 0, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ball_volume(d: int, r: float = 1.0) -> float:
    """Volume of the d-dimensional ball of radius r."""
    if d < 1 or d != int(d):
        raise DomainError(f"ball_volume requires a positive integer dimension, got {d}")
    if r < 0.0:
        raise DomainError(f"ball_volume requires r >= 0, got {r}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d


_BERNOULLI_2R = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66)


def hurwitz_zeta(s: float, a: float) -> float:
    """Euler-Maclaurin zeta(s, a) = sum_{k>=0} (k+a)^-s.

    Five Bernoulli correction terms; for s > 1 and a >= 100 the first
    omitted term is below 1e-20 relative, so the result is limited only
    by double rounding.  Smaller a is refused, since the expansion is not
    accurate there.  Callers wanting a tail over k >= K pass a += K.
    """
    if not (1.0 < s < math.inf and 100.0 <= a < math.inf):
        raise DomainError(
            f"hurwitz_zeta requires finite s > 1 and a >= 100, got s={s}, a={a}")
    total = 0.5 * a ** (-s) + a ** (1.0 - s) / (s - 1.0)
    poch = s
    apow = a ** (-s - 1.0)
    fact = 1.0
    for r, b in enumerate(_BERNOULLI_2R, start=1):
        fact *= (2.0 * r) * (2.0 * r - 1.0)
        total += b / fact * poch * apow
        poch *= (s + 2.0 * r - 1.0) * (s + 2.0 * r)
        apow /= a * a
    return total


# ---------------------------------------------------------------------------
# Bessel J of real nonnegative order
# ---------------------------------------------------------------------------


def _bessel_series(nu: float, x: float) -> float:
    # Ascending series sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)).
    # The largest intermediate term is of order e^x, so the working
    # precision grows linearly with x; the double rounding happens once,
    # at the end.
    dps = 25 + int(0.46 * x)
    with mp.workdps(dps):
        mx = mp.mpf(x)
        half = mx / 2
        term = mp.e ** (nu * mp.log(half) - mp.loggamma(nu + 1)) if x > 0 else mp.mpf(1)
        total = term
        peak = abs(term)
        quarter = -(half * half)
        cutoff = mp.mpf(10) ** (-dps - 2)
        k = 1
        while k <= 30000:
            term = term * quarter / (k * (nu + k))
            total += term
            mag = abs(term)
            if mag > peak:
                peak = mag
            if mag <= cutoff * peak:
                return float(total)
            k += 1
    raise NumericalError(f"bessel series did not converge for nu={nu}, x={x}")


def _bessel_asymptotic(nu: float, x: float) -> tuple[float, float]:
    # Hankel expansion J_nu(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w) with
    # w = x - (nu/2 + 1/4) pi.  Both P and Q are truncated at their
    # smallest term; for real order the remainder is bounded by the
    # first neglected term once the truncation index clears ~nu/2, so
    # the second return value is a certified absolute error bound.
    mu = 4.0 * nu * nu
    coeffs = [1.0]
    c = 1.0
    k = 1
    while k < 80:
        c *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if k > 2 and abs(c) >= abs(coeffs[-1]):
            break
        coeffs.append(c)
        if abs(c) < 1e-18:
            c = 0.0
            break
        k += 1
    omitted = abs(c)
    p_sum = 0.0
    q_sum = 0.0
    for j, cj in enumerate(coeffs):
        if j % 2 == 0:
            p_sum += cj if (j // 2) % 2 == 0 else -cj
        else:
            q_sum += cj if (j // 2) % 2 == 0 else -cj
    pref = math.sqrt(2.0 / (math.pi * x))
    omega = x - (0.5 * nu + 0.25) * math.pi
    value = pref * (math.cos(omega) * p_sum - math.sin(omega) * q_sum)
    err = pref * (2.5 * omitted + 8.0 * _EPS)
    if len(coeffs) < nu / 2.0 + 1.0:
        err = math.inf  # remainder bound not valid this close to the turnover
    return value, err


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    The evaluation regime switches at x = max(12, 2 nu): below, the
    ascending series at elevated precision; above, the Hankel asymptotic
    expansion, which self-certifies its truncation error and defers back
    to the series in the rare window where it cannot reach 1e-13.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_j requires nu >= 0, got {nu}")
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x >= max(12.0, 2.0 * nu):
        value, err = _bessel_asymptotic(nu, x)
        if err < 1e-13:
            return value
    return _bessel_series(nu, x)


def _bessel_j_prime(nu: float, x: float, jx: float | None = None) -> float:
    # J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x)
    if jx is None:
        jx = bessel_j(nu, x)
    return (nu / x) * jx - bessel_j(nu + 1.0, x)


# ---------------------------------------------------------------------------
# Bessel zeros
# ---------------------------------------------------------------------------


def _mcmahon_guess(nu: float, i: int) -> float:
    # McMahon's expansion for the i-th positive zero; three correction
    # terms, adequate as a Newton seed for nu up to ~15.
    beta = (i + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    e8 = 8.0 * beta
    z = beta
    z -= (mu - 1.0) / e8
    z -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e8**3)
    z -= 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e8**5)
    return z


def _newton_polish(nu: float, z0: float) -> float:
    z = z0
    for _ in range(100):
        f = bessel_j(nu, z)
        fp = _bessel_j_prime(nu, z, f)
        if fp == 0.0:
            break
        dz = f / fp
        z -= dz
        if abs(dz) <= max(1e-14, 8.0 * _EPS * abs(z)):
            return z
    raise NumericalError(
        f"Newton iteration for a zero of J_{nu} stalled near z={z!r} (seed {z0!r})"
    )


def _scan_zeros(nu: float, n: int) -> list[float]:
    # Fallback: walk right from x = nu (J_nu > 0 on (0, first zero)),
    # bracket each sign change, bisect, then polish.  Zero spacing is
    # always > 2.5 so a step of 0.5 cannot jump a pair of zeros.
    zeros: list[float] = []
    x = max(nu, 1e-3)
    fx = bessel_j(nu, x)
    step = 0.5
    guard = 0
    while len(zeros) < n:
        guard += 1
        if guard > 200000:
            raise NumericalError(f"zero scan for J_{nu} exhausted its budget")
        y = x + step
        fy = bessel_j(nu, y)
        if fx == 0.0:
            zeros.append(x)
        elif fx * fy < 0.0:
            a, b, fa = x, y, fx
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = bessel_j(nu, m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < 1e-12:
                    break
            zeros.append(_newton_polish(nu, 0.5 * (a + b)))
        x, fx = y, fy
    return zeros[:n]


@dataclass(frozen=True)
class BesselZeroTable:
    """Immutable table of the first positive zeros of J_nu, each of which
    has passed the residual and spacing checks."""

    nu: float
    zeros: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, i: int) -> float:
        return self.zeros[i]


def _validate_zero_range(nu: float, zeros: tuple[float, ...] | list[float], lo: int, hi: int) -> None:
    prev = zeros[lo - 1] if lo > 0 else 0.0
    for z in zeros[lo:hi]:
        if not z > prev:
            raise NumericalError(f"zeros of J_{nu} are not increasing near {z}")
        if prev > 0.0 and z - prev <= 2.0:
            raise NumericalError(f"zeros of J_{nu} separated by {z - prev} <= 2 near {z}")
        resid = abs(bessel_j(nu, z))
        scale = max(1.0, abs(_bessel_j_prime(nu, z)) * z)
        if resid >= 1e-12 * scale:
            raise NumericalError(f"zero {z} of J_{nu} has residual {resid} above tolerance")
        prev = z


_zero_cache: dict[float, list[float]] = {}
_zero_checked: dict[float, int] = {}


def bessel_zeros(nu: float, n: int) -> BesselZeroTable:
    """First n positive zeros of J_nu, validated and cached per order."""
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"bessel_zeros requires finite nu >= 0, got {nu}")
    if n < 1 or n != int(n):
        raise DomainError(f"bessel_zeros requires a positive integer count, got {n}")
    known = _zero_cache.setdefault(nu, [])
    if len(known) < n:
        fresh = [_newton_polish(nu, _mcmahon_guess(nu, i)) for i in range(len(known) + 1, n + 1)]
        candidate = known + fresh
        ok = all(b - a > 2.0 for a, b in zip(candidate, candidate[1:])) and (
            not candidate or candidate[0] > max(nu, 0.0)
        )
        if not ok:
            candidate = _scan_zeros(nu, n)
        known[:] = candidate
    checked = _zero_checked.get(nu, 0)
    if checked < n:
        _validate_zero_range(nu, known, checked, n)
        _zero_checked[nu] = n
    return BesselZeroTable(nu=nu, zeros=tuple(known[:n]))
