"""Classical special functions used by the bound computations.

Everything here is self-contained apart from ``math``/``mpmath``: the
Bessel evaluator switches between the ascending power series (small
argument, summed in fixed point at a precision that grows with x so the
alternating-series cancellation never reaches the double result) and the
Hankel asymptotic expansion (large argument, taken to at least the DLMF
10.17(iii) term count and accepted only when its first omitted terms
certify an absolute error below 1e-13).  Bessel zeros start from
McMahon's expansion, whose coefficients this module owns (``energy`` reads
them for the A_{s,d} tail), and are finished by Newton iteration, whose last
Bessel values the zero check and the weights reuse; where that route fails
its stall or table checks (from nu ~ 37 on) a bracketed scan rebuilds the
table.

Accuracy targets, pinned by the tests against mpmath: ``bessel_j``
absolute error <= 1e-12 for 0 <= nu <= 32 and x <= 5000, zeros to 1e-14
relative for nu <= 32 and the first 600 zeros.
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
    try:
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    except OverflowError:
        raise NumericalError(f"unit_sphere_area overflows for d={d}") from None


def ball_volume(d: int, r: float = 1.0) -> float:
    """Volume of the d-dimensional ball of radius r."""
    if d < 1 or d != int(d):
        raise DomainError(f"ball_volume requires a positive integer dimension, got {d}")
    if not 0.0 <= r < math.inf:
        raise DomainError(f"ball_volume requires finite r >= 0, got {r}")
    try:
        value = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d
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
    with mp.workdps(dps):
        pref = mp.e ** (nu * mp.log(mp.mpf(x) / 2) - mp.loggamma(nu + 1))
        return float(pref * mp.ldexp(total, -bits))


def _bessel_asymptotic(nu: float, x: float) -> tuple[float, float, float]:
    # Hankel expansion J_nu(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w) with
    # w = x - (nu/2 + 1/4) pi.  coeffs[k] is a_k(nu)/x^k: P sums the even
    # k and Q the odd k, with alternating signs.  For real order, DLMF
    # 10.17(iii) bounds the remainder of P after l terms by its first
    # neglected term once l >= max(nu/2 - 1/4, 1), and that of Q once
    # l >= max(nu/2 - 3/4, 1).  n = len(coeffs) >= nu - 1/2 meets both: P
    # has ceil(n/2) >= nu/2 - 1/4 terms and Q floor(n/2) >= (n-1)/2 >=
    # nu/2 - 3/4, and n >= 2 since coeffs[1] is always kept.  So terms are
    # taken while they shrink until that count is reached, and only then
    # cut below 1e-18.  When the loop stops at the turnover the first
    # neglected terms are the omitted c and the one after it; past the
    # sign change of mu - (2k-1)^2 each term ratio exceeds the previous
    # one by less than 1/x, so that one is at most 1 + 2/x times larger,
    # hence the 2.5.
    #
    # Returns (value, err, phase_err).  err covers truncation and
    # arithmetic; phase_err covers the rounding of w, at most about 1.3
    # ulp(x) for x >= 2 nu, which moves the value by at most
    # pref sqrt(P^2 + Q^2) <= 1.1 pref times that.
    # |value - J_nu(x)| <= err + phase_err.
    mu = 4.0 * nu * nu
    need = nu - 0.5
    coeffs = [1.0]
    c = 1.0
    k = 1
    while k < 80:
        c *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if k > 2 and abs(c) >= abs(coeffs[-1]):
            break
        coeffs.append(c)
        if abs(c) < 1e-18 and len(coeffs) >= need:
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
    if len(coeffs) < need:
        err = math.inf  # the loop turned over before the DLMF term count
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
    # Three correction terms, adequate as a Newton seed for nu up to at
    # least 36.5.  From nu ~ 37 on, Newton can stall from it or step below
    # 0 at the first zero, and bessel_zeros falls back to the scan.
    beta = (i + 0.5 * nu - 0.25) * math.pi
    p1, p3, p5 = _mcmahon_p(nu)
    return beta + p1 / beta + p3 / beta**3 + p5 / beta**5


def _newton_polish(nu: float, z0: float) -> tuple[float, tuple[float, float] | None]:
    # Returns the zero and (J_nu, J_{nu+1}) there.  Newton's last step
    # usually leaves z unchanged, and then the values it evaluated are
    # those at the zero; when the step moved z they are None.  A step to
    # z <= 0 counts as a stall.  J_nu'(z) = (nu/z) J_nu(z) - J_{nu+1}(z).
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
            return (z, (f, j1)) if z_new == z else (z_new, None)
        z = z_new
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
            zeros.append(_newton_polish(nu, 0.5 * (a + b))[0])
        x, fx = y, fy
    return zeros[:n]


@dataclass(frozen=True)
class BesselZeroTable:
    """Immutable table of the first positive zeros of J_nu, each of which
    has passed the residual and spacing checks, with J_{nu+1} at each
    zero (equal to -J_nu' there) as evaluated by that check."""

    nu: float
    zeros: tuple[float, ...]
    j_next: tuple[float, ...]


def _validate_zero_range(nu: float, zeros: tuple[float, ...] | list[float], lo: int, hi: int,
                         values: list | None = None) -> list[float]:
    # Checks zeros[lo:hi] and returns J_{nu+1} at each.  values[i - lo],
    # when given and not None, is (J_nu, J_{nu+1}) at zeros[i] already.
    # The first zero lies above nu (J_nu > 0 on (0, nu]), where a Newton
    # iterate could otherwise settle on a merely tiny J_nu; consecutive
    # zeros are more than 2 apart.
    prev = zeros[lo - 1] if lo > 0 else nu
    j_next = []
    for i in range(lo, hi):
        z = zeros[i]
        if not z > prev:
            raise NumericalError(f"zeros of J_{nu} are not increasing above {prev} near {z}")
        if i > 0 and z - prev <= 2.0:
            raise NumericalError(f"zeros of J_{nu} separated by {z - prev} <= 2 near {z}")
        pair = values[i - lo] if values else None
        f, j1 = pair if pair else (bessel_j(nu, z), bessel_j(nu + 1.0, z))
        resid = abs(f)
        scale = max(1.0, abs((nu / z) * f - j1) * z)
        if resid >= 1e-12 * scale:
            raise NumericalError(f"zero {z} of J_{nu} has residual {resid} above tolerance")
        j_next.append(j1)
        prev = z
    return j_next


# per order: the validated zeros and J_{nu+1} at each
_zero_cache: dict[float, tuple[list[float], list[float]]] = {}


def bessel_zeros(nu: float, n: int) -> BesselZeroTable:
    """First n positive zeros of J_nu, validated and cached per order."""
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"bessel_zeros requires finite nu >= 0, got {nu}")
    if not (1 <= n < math.inf and n == int(n)):
        raise DomainError(f"bessel_zeros requires a positive integer count, got {n}")
    n = int(n)
    zeros, j_next = _zero_cache.setdefault(nu, ([], []))
    lo = len(zeros)
    if lo < n:
        try:
            polished = [_newton_polish(nu, _mcmahon_guess(nu, i))
                        for i in range(lo + 1, n + 1)]
            candidate = zeros + [z for z, _ in polished]
            fresh = _validate_zero_range(nu, candidate, lo, n, [v for _, v in polished])
        except NumericalError:
            candidate = _scan_zeros(nu, n)
            lo = 0
            fresh = _validate_zero_range(nu, candidate, 0, n)
        zeros[:] = candidate
        j_next[lo:] = fresh
    return BesselZeroTable(nu=nu, zeros=tuple(zeros[:n]), j_next=tuple(j_next[:n]))
