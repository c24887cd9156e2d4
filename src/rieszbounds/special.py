"""Classical special functions used by the bound computations.

Everything here is self-contained apart from ``math``/``mpmath``: the
Bessel evaluator switches between the ascending power series (small
argument, summed in fixed point at a precision that grows with x so the
alternating-series cancellation never reaches the double result) and the
Hankel asymptotic expansion (large argument, taken to at least the DLMF
10.17(iii) term count and accepted only when its first omitted terms
certify an absolute error below 1e-13).  Each Bessel zero is seeded
(McMahon's expansion for nu <= 36.5, whose coefficients ``energy`` reads
for the A_{s,d} tail, else Olver's uniform expansion), finished by Newton
and certified as it is appended: by order, residual and index.  Only
the series uses mpmath, and imports it on first use.

Accuracy targets, pinned by the tests against mpmath: ``bessel_j``
absolute error <= 1e-12 for 0 <= nu <= 32 and x <= 5000, zeros to 1e-14
relative for the first 600 zeros at orders from 0.5 to 64.  The Hankel
expansion has no term cap, so at any order it certifies from about
x = nu^2 / 6 on, where the third term ratio falls below 1 (0.167 to
0.170 nu^2 for nu = 40 to 400).  The tests pin that certificate against
mpmath for nu <= 39 and x <= 5000, and at (nu, x) = (100, 31572.06) and
(150, 40000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError

__all__ = ["BesselZeroTable", "ball_volume", "bessel_j", "bessel_zeros", "hurwitz_zeta",
           "lambda_d", "unit_sphere_area"]

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
    try:
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    except OverflowError:
        raise NumericalError(f"unit_sphere_area for d={d}: Gamma({(d + 1) / 2:g}) overflows "
                             "a double, though the area does not") from None


def ball_volume(d: int, r: float = 1.0) -> float:
    """Volume of the d-dimensional ball of radius r."""
    if d < 1 or d != int(d):
        raise DomainError(f"ball_volume requires a positive integer dimension, got {d}")
    if not 0.0 <= r < math.inf:
        raise DomainError(f"ball_volume requires finite r >= 0, got {r}")
    try:
        gamma = math.gamma(d / 2.0 + 1.0)
    except OverflowError:
        raise NumericalError(f"ball_volume for d={d}: Gamma({d / 2 + 1:g}) overflows a "
                             "double, though the unit ball's volume does not") from None
    try:
        value = math.pi ** (d / 2.0) / gamma * r**d
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericalError(f"ball_volume overflows for d={d}, r={r}")
    return value


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
    # Ascending series J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_k (-q)^k /
    # (k! (nu+1)_k), q = (x/2)^2.  The largest term is of order e^x, so
    # the working precision grows linearly with x.  The sum runs in binary
    # fixed point on Python integers, each term ratio taken from the exact
    # rationals of x and nu; the double rounding happens once, at the end.
    dps = 25 + int(0.46 * x)
    bits = int(3.33 * dps) + 8
    xn, xd = x.as_integer_ratio()
    vn, vd = nu.as_integer_ratio()
    num = xn * xn * vd
    den = 4 * xd * xd
    term = total = 1 << bits
    k = 1
    while term:
        if k > 30000:
            raise NumericalError(f"bessel series did not converge for nu={nu}, x={x}")
        term = term * num // (den * k * (vn + k * vd))
        total += -term if k % 2 else term
        k += 1
    from mpmath import mp
    with mp.workdps(dps):
        pref = mp.e ** (nu * mp.log(mp.mpf(x) / 2) - mp.loggamma(nu + 1))
        return float(pref * mp.ldexp(total, -bits))


def _bessel_asymptotic(nu: float, x: float) -> tuple[float, float, float]:
    # Hankel expansion J_nu(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w) with
    # w = x - (nu/2 + 1/4) pi.  The term c_k = a_k(nu)/x^k goes to P for
    # even k and to Q for odd k, with sign (-1)^(k//2), as it is made.  For
    # real order, DLMF 10.17(iii) bounds the remainder of P after l terms by
    # its first neglected term once l >= max(nu/2 - 1/4, 1), and that of Q
    # once l >= max(nu/2 - 3/4, 1).  Keeping the n terms c_0..c_{n-1} with
    # n >= nu - 1/2 meets both: P has ceil(n/2) >= nu/2 - 1/4 terms and Q
    # floor(n/2) >= (n-1)/2 >= nu/2 - 3/4, and n >= 2 since c_1 is always
    # kept.  So terms are taken while they shrink until that count is
    # reached, and only then cut below 1e-18.  When the loop stops at the
    # turnover the first neglected terms are the omitted c and the one
    # after it; past the sign change of mu - (2k-1)^2 each term ratio
    # exceeds the previous one by less than 1/x, so that one is at most
    # 1 + 2/x times larger, hence the 2.5.  A term that underflows to 0.0
    # is a cut too, even before the term count: below the sign change the
    # ratio |mu - (2k-1)^2| / (8 k x) falls as k grows, so once the
    # turnover test has passed it stays below 1 up to the DLMF count, and
    # every omitted term up to there, and the remainder past it, is below
    # that one.  So the loop ends, at the latest where the terms turn over
    # or underflow.
    #
    # Returns (value, err, phase_err).  err covers truncation and
    # arithmetic; phase_err covers the rounding of w, at most about 1.3
    # ulp(x) for x >= 2 nu, which moves the value by at most
    # pref sqrt(P^2 + Q^2) <= 1.1 pref times that.
    # |value - J_nu(x)| <= err + phase_err.
    mu = 4.0 * nu * nu
    need = nu - 0.5
    p_sum = last = c = 1.0
    q_sum = 0.0
    k = 1  # c_k is made next, after the k terms c_0..c_{k-1}
    while True:
        c *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if k > 2 and abs(c) >= abs(last):
            # turned over: certified only past the DLMF term count
            omitted = abs(c) if k >= need else math.inf
            break
        if k % 2:
            q_sum += c if k % 4 == 1 else -c
        else:
            p_sum += c if k % 4 == 0 else -c
        last = c
        if c == 0.0 or (abs(c) < 1e-18 and k + 1 >= need):
            omitted = 0.0
            break
        k += 1
    pref = math.sqrt(2.0 / (math.pi * x))
    omega = x - (0.5 * nu + 0.25) * math.pi
    value = pref * (math.cos(omega) * p_sum - math.sin(omega) * q_sum)
    err = pref * (2.5 * omitted + 8.0 * _EPS)
    return value, err, 2.0 * pref * math.ulp(x)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    The evaluation regime switches at x = max(12, 2 nu): below, the
    ascending series at elevated precision; above, the Hankel asymptotic
    expansion, which self-certifies its truncation error and defers back
    to the series where that error cannot be brought below 1e-13.  The
    rounding of the Hankel phase is left out of that test: it is 2e-16 to
    3.5e-16 times sqrt(x), so it passes 1e-13 only beyond x ~ 1e5, where
    the series would need 0.46 x digits.
    """
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"bessel_j requires finite nu >= 0, got {nu}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"bessel_j requires finite x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x >= max(12.0, 2.0 * nu):
        value, err, _ = _bessel_asymptotic(nu, x)
        if err < 1e-13:
            return value
    return _bessel_series(nu, x)


# ---------------------------------------------------------------------------
# Bessel zeros
# ---------------------------------------------------------------------------


def _mcmahon_p(nu: float) -> tuple[float, float, float]:
    # McMahon's expansion of the i-th positive zero of J_nu, DLMF 10.21.19:
    # z = beta + p1/beta + p3/beta^3 + p5/beta^5 + ..., with
    # beta = (i + nu/2 - 1/4) pi and mu = 4 nu^2.
    mu = 4.0 * nu * nu
    p1 = -(mu - 1.0) / 8.0
    p3 = -4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / 1536.0
    p5 = -32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / 491520.0
    return p1, p3, p5


def _mcmahon_guess(nu: float, i: int) -> float:
    # Three correction terms, adequate as a Newton seed for nu <= 36.5.
    # At nu = 37 Newton stalls from the seed of the first zero, and at
    # nu = 44.5 it steps below 0, so larger orders take _olver_guess.
    beta = (i + 0.5 * nu - 0.25) * math.pi
    p1, p3, p5 = _mcmahon_p(nu)
    return beta + p1 / beta + p3 / beta**3 + p5 / beta**5


def _airy_zero(k: int) -> float:
    # k-th zero a_k < 0 of Ai: a_k = -T(3 pi (4k - 1) / 8), DLMF 9.9.6,
    # with T(t) ~ t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4 + 77125/82944 t^-6),
    # DLMF 9.9.18.  About 2e-4 relative at k = 1 and 2e-8 at k = 3, which
    # is ample for a Newton seed.
    t = 0.375 * math.pi * (4 * k - 1)
    u = t ** -2
    return -t ** (2.0 / 3.0) * (1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * 77125.0 / 82944.0)))


def _olver_guess(nu: float, i: int) -> float:
    # Leading term nu z(zeta) of Olver's uniform expansion of the i-th
    # zero, DLMF 10.21.41, at zeta = nu^(-2/3) a_i.  z > 1 solves DLMF
    # 10.20.3, sqrt(z^2 - 1) - arcsec z = (2/3) (-zeta)^(3/2) = r.  The
    # left side is increasing and convex in z and exceeds z - pi/2, so
    # Newton from r + pi/2 descends to the root without overshooting.
    r = (2.0 / 3.0) * (-_airy_zero(i)) ** 1.5 / nu
    z = r + 0.5 * math.pi
    for _ in range(20):
        w = math.sqrt(z * z - 1.0)
        dz = (w - math.acos(1.0 / z) - r) * z / w
        z -= dz
        if dz <= 1e-15 * z:
            break
    return nu * z


def _newton_polish(nu: float, z0: float) -> tuple[float, float, float]:
    # Returns the zero and J_nu, J_{nu+1} there, evaluated once more only
    # when Newton's last step moved z.  A step to z <= 0 counts as a stall.
    # J_nu'(z) = (nu/z) J_nu(z) - J_{nu+1}(z).
    z = z0
    for _ in range(100):
        f = bessel_j(nu, z)
        j1 = bessel_j(nu + 1.0, z)
        fp = (nu / z) * f - j1
        if fp == 0.0:
            break
        dz = f / fp
        z_new = z - dz
        if not z_new > 0.0:
            break
        if abs(dz) <= max(1e-14, 8.0 * _EPS * abs(z_new)):
            if z_new == z:
                return z, f, j1
            return z_new, bessel_j(nu, z_new), bessel_j(nu + 1.0, z_new)
        z = z_new
    raise NumericalError(f"Newton iteration for a zero of J_{nu} stalled near z={z!r} "
                         f"(seed {z0!r})")


@dataclass(frozen=True)
class BesselZeroTable:
    """Immutable table of the first positive zeros of J_nu, each certified by
    order, residual and index (bessel_zeros), with J_{nu+1} = -J_nu' there."""

    nu: float
    zeros: tuple[float, ...]
    j_next: tuple[float, ...]


# per order: the certified zeros and J_{nu+1} at each
_zero_cache: dict[float, tuple[list[float], list[float]]] = {}

# k = 1, 2: j_{0,k+2} and the Airy |a_{k+2}| rounded down (A&S 9.5, 10.13), so
# L_{k+2} = max(j_{0,k+2}, nu + |a_{k+2}| (nu/2)^(1/3)) <= j_{nu,k+2}: zeros grow
# with nu (Watson 15.6), and Qu & Wong (Trans. AMS 351, 1999) give the second.
_INDEX_BOUNDS = ((8.65, 5.5205598), (11.79, 6.7867080))


def bessel_zeros(nu: float, n: int) -> BesselZeroTable:
    """First n positive zeros of J_nu, certified and cached per order.

    The k-th zero z is certified by order (above nu or the zero before),
    residual, and index: J_{nu+1}(z) has the sign (-1)^(k+1), so no odd
    number of zeros was skipped; for k <= 2, z < L_{k+2}(nu); for k >= 3,
    |z - z_{k-1} - pi| may not exceed the gap before it, as gaps tend to pi
    monotonically (Sturm comparison, Watson ch. XV).  Two skipped zeros add
    at least 2 pi to a gap, so this catches them where j_{nu,2} - j_{nu,1}
    < 3 pi: for every nu <= 266, by Qu & Wong's two-sided bound.
    """
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"bessel_zeros requires finite nu >= 0, got {nu}")
    if not (1 <= n < math.inf and n == int(n)):
        raise DomainError(f"bessel_zeros requires a positive integer count, got {n}")
    n = int(n)
    zeros, j_next = _zero_cache.setdefault(nu, ([], []))
    guess = _mcmahon_guess if nu <= 36.5 else _olver_guess
    for k in range(len(zeros) + 1, n + 1):
        z, f, j1 = _newton_polish(nu, guess(nu, k))
        prev = zeros[-1] if zeros else nu
        if abs(f) >= 1e-12 * max(1.0, abs((nu / z) * f - j1) * z):
            raise NumericalError(f"zero {z} of J_{nu} has residual {abs(f)} above tolerance")
        if k <= 2:
            j0, a = _INDEX_BOUNDS[k - 1]
            late = z >= max(j0, nu + a * (0.5 * nu) ** (1.0 / 3.0))
        else:
            late = abs(z - prev - math.pi) > abs(prev - zeros[-2] - math.pi) + 64.0 * _EPS * z
        if late or not z > prev or (j1 > 0.0) != (k % 2 == 1):
            raise NumericalError(f"zero {z} of J_{nu} is not zero number {k} (after {prev})")
        zeros.append(z)
        j_next.append(j1)
    return BesselZeroTable(nu=nu, zeros=tuple(zeros[:n]), j_next=tuple(j_next[:n]))
