"""Independent reference implementations used as test oracles.

Nothing in this module imports the package under test.  Each function
recomputes a quantity by a route deliberately different from the one
the library takes, so agreement is evidence rather than tautology.  A
quantity has one reference here, with two exceptions: zeta_em, the
double-precision zeta that perfbench/checks.py loads this file by path
for (lattice_zeta_mp(1, s) is 2 zeta(s) at 50 digits), and
epstein_theta_mp, the 48-shell route c_tilde must be at least as close as.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_16 as exact fractions.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)


def zeta_em(s: float, terms: int = 40) -> float:
    """Riemann zeta via Euler-Maclaurin with eight Bernoulli corrections.

    Accurate to roughly 1e-15 relative for s in (1, 60].
    """
    if s <= 1.0:
        raise ValueError(f"zeta_em needs s > 1, got {s}")
    total = math.fsum((k + 1.0) ** -s for k in range(terms))
    n = float(terms)
    total += n ** (1.0 - s) / (s - 1.0) - 0.5 * n**-s
    # ascending factorial (s)_{2r-1} accumulated across correction terms
    rising = s
    power = n ** (-s - 1.0)
    for r, b in enumerate(_BERNOULLI, start=1):
        total += float(b) / math.factorial(2 * r) * rising * power
        rising *= (s + 2.0 * r - 1.0) * (s + 2.0 * r)
        power /= n * n
    return total


def hurwitz_mp(s: float, a: float) -> float:
    """Hurwitz zeta by mpmath at 40 digits; moderate s only (s <= 80)."""
    with mp.workdps(40):
        return float(mp.zeta(s, a))


def tau_naive(m_max: int) -> list[int]:
    """Ramanujan tau(1..m_max) from the 24th power of the eta product.

    Multiplies out prod (1 - q^n)^24 term by term in exact integers,
    no sparse tricks; only usable for small m_max.
    """
    limit = m_max  # coefficients of q^0 .. q^{m_max - 1} in the product
    poly = [0] * limit
    poly[0] = 1
    for n in range(1, limit):
        for _ in range(24):
            # multiply by (1 - q^n) in place
            for i in range(limit - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly[:m_max]  # tau(m) = poly[m - 1] after the q shift


def sigma_naive(m: int, k: int) -> int:
    """Divisor power sum by trial division."""
    return sum(d**k for d in range(1, m + 1) if m % d == 0)


def d4_counts_brute(m_max: int) -> dict[int, int]:
    """Vectors of each norm in the even-coordinate-sum sublattice of Z^4."""
    counts = {m: 0 for m in range(1, m_max + 1)}
    r = math.isqrt(m_max)
    rng = range(-r, r + 1)
    for x1 in rng:
        for x2 in rng:
            for x3 in rng:
                partial = x1 * x1 + x2 * x2 + x3 * x3
                if partial > m_max:
                    continue
                for x4 in rng:
                    q = partial + x4 * x4
                    if 0 < q <= m_max and (x1 + x2 + x3 + x4) % 2 == 0:
                        counts[q] += 1
    return counts


def a2_counts_brute(m_max: int) -> dict[int, int]:
    """Norm counts in the hexagonal lattice scaled to minimal norm 1.

    Vectors u e1 + v e2 with |.|^2 = u^2 + uv + v^2.
    """
    counts = {}
    r = 2 * math.isqrt(m_max) + 2
    for u in range(-r, r + 1):
        for v in range(-r, r + 1):
            q = u * u + u * v + v * v
            if 0 < q <= m_max:
                counts[q] = counts.get(q, 0) + 1
    return {m: counts.get(m, 0) for m in range(1, m_max + 1)}


def gauss_d1_direct(alpha: float) -> float:
    """Gaussian bound on the line at unit density: 2 sum e^{-alpha i^2}."""
    total = 0.0
    i = 1
    while True:
        term = math.exp(-alpha * i * i)
        total += term
        if term < 1e-18:
            break
        i += 1
    return 2.0 * total


def finite_diff(f, x: float, h: float = 1e-6) -> float:
    """Central difference derivative estimate."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights, computed once per n.

    numpy builds them from an n x n eigenproblem (about 4 s at n = 4096),
    so tests that share a rule share one computation.  The arrays are
    read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def weighted_inner(fvals, d: int, a: int, b: int, nodes, gl_weights) -> float:
    """Inner product against (1-t)^alpha (1+t)^beta on Gauss-Legendre nodes."""
    alpha = (d - 2) / 2.0 + a
    beta = (d - 2) / 2.0 + b
    w = gl_weights * (1.0 - nodes) ** alpha * (1.0 + nodes) ** beta
    return float(np.dot(fvals, w))


def _theta_transform_mp(counts: list[int], kappa: float, dual_scale: float, covol: float,
                        d: int, s: float, shells: int):
    # the sum of epstein_theta_mp at the current mpmath precision
    w = s / 2.0
    half_d = d / 2.0
    mw = mp.mpf(w)
    s1 = mp.mpf(0)
    s2 = mp.mpf(0)
    for k in range(shells, 0, -1):
        c = counts[k - 1]
        if not c:
            continue
        q = mp.mpf(kappa) * k
        qd = mp.mpf(dual_scale) * q
        s1 += c * (mp.pi * q) ** (-mw) * mp.gammainc(mw, mp.pi * q)
        s2 += c * ((mp.pi * qd) ** (mw - half_d)
                   * mp.gammainc(mp.mpf(half_d) - mw, mp.pi * qd))
    lam = s1 + s2 / covol + 1 / (covol * (mw - half_d)) - 1 / mw
    return mp.pi ** mw / mp.gamma(mw) * lam


def epstein_theta_mp(counts: list[int], kappa: float, dual_scale: float, covol: float,
                     d: int, s: float, shells: int = 48) -> float:
    """Epstein zeta by the theta transformation over a fixed shell count.

    counts[m - 1] is the number of vectors of squared norm kappa * m; the
    dual lattice has the same counts at dual_scale times those norms.  Both
    incomplete-gamma sums run over all `shells` shells, interleaved in
    descending order, at 30 digits.
    """
    with mp.workdps(30):
        return float(_theta_transform_mp(counts, kappa, dual_scale, covol, d, s, shells))


def leech_counts(m_max: int) -> list[int]:
    """Leech shell counts (65520/691)(sigma_11(m) - tau(m)), squared norm 2m."""
    taus = tau_naive(m_max)
    return [65520 * (sigma_naive(m, 11) - taus[m - 1]) // 691 for m in range(1, m_max + 1)]


# squared covolume of the zeta lattice in each dimension (A1, A2, D4, E8, Leech)
ZETA_COVOLUME_SQ = {1: mp.mpf(1), 2: mp.mpf(3) / 4, 4: mp.mpf(4), 8: mp.mpf(1), 24: mp.mpf(1)}


def lattice_zeta_mp(d: int, s: float, dps: int = 50):
    """Zeta of the d = 1, 2, 4, 8 or 24 lattice at s as an mpf of dps digits.

    A1, A2, D4 and E8 from mpmath's zeta and Dirichlet L-function in their
    closed forms; Leech from the theta transformation over 48 shells, which
    needs neither L(w, Delta) nor its truncation.  Index conventions as in
    the library: minimal norm 1 for A1 and A2, the Cartan scale otherwise.
    """
    with mp.workdps(dps):
        w = mp.mpf(s) / 2
        if d == 1:
            return 2 * mp.zeta(mp.mpf(s))
        if d == 2:
            return 6 * mp.zeta(w) * mp.dirichlet(w, [0, 1, -1])
        if d == 4:
            return 24 * 2 ** -w * (1 - 2 ** (1 - w)) * mp.zeta(w) * mp.zeta(w - 1)
        if d == 8:
            return 240 * 2 ** -w * mp.zeta(w) * mp.zeta(w - 3)
        if d == 24:
            return _theta_transform_mp(leech_counts(48), 2.0, 1.0, 1.0, 24, s, 48)
    raise ValueError(f"no zeta lattice in dimension {d}")


def c_tilde_mp(d: int, s: float, dps: int = 50):
    """covol^(s/d) * zeta_Lambda(s) as an mpf of dps digits, exact covolume."""
    with mp.workdps(dps):
        return ZETA_COVOLUME_SQ[d] ** (mp.mpf(s) / (2 * d)) * lattice_zeta_mp(d, s, dps)


# Explicit point configurations on S^2: any one of them is an upper bound
# on the minimal energy, so it caps every valid lower bound from above.


def fibonacci_sphere(n: int) -> np.ndarray:
    """n golden-angle spiral points on S^2, heights z_i = 1 - (2i+1)/n."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def riesz_energy(points, s: float) -> float:
    """sum over ordered pairs i != j of |x_i - x_j|^{-s}, from coordinates."""
    p = np.asarray(points, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    return float(np.sum(dist**-s))


# Sharp codes (Cohn & Kumar, J. Amer. Math. Soc. 20, 2007): each is a
# spherical (2m-1)-design with m distinct inner products between distinct
# points, so it attains the Levenshtein bound and its h-energy,
# N sum count * h(t), is the universal lower bound for every absolutely
# monotone h.  Entry: (d of S^d, N, {t: how many other points lie at inner
# product t with any one point}); the counts are those of Conway & Sloane,
# Sphere Packings, Lattices and Groups, ch. 4 and 14.
SHARP_CODES = {
    "icosahedron": (2, 12, {-1.0: 1, -1.0 / math.sqrt(5.0): 5, 1.0 / math.sqrt(5.0): 5}),
    "E8 roots": (7, 240, {-1.0: 1, -0.5: 56, 0.0: 126, 0.5: 56}),
    "Leech minimal vectors": (23, 196560, {-1.0: 1, -0.5: 4600, -0.25: 47104, 0.0: 93150,
                                           0.25: 47104, 0.5: 4600}),
    "Schlafli": (5, 27, {-0.5: 10, 0.25: 16}),
    "E7* minimal vectors": (6, 56, {-1.0: 1, -1.0 / 3.0: 27, 1.0 / 3.0: 27}),
}
# the simplex (d + 2 points) and the cross-polytope (2d + 2) of every S^d
SHARP_CODES.update({f"simplex S^{d}": (d, d + 2, {-1.0 / (d + 1): d + 1}) for d in range(2, 25)})
SHARP_CODES.update({f"cross-polytope S^{d}": (d, 2 * d + 2, {-1.0: 1, 0.0: 2 * d})
                    for d in range(2, 25)})

# The 600-cell (S^3, 120) is universally optimal but not sharp: an 11-design
# with eight inner products, so its energy lies above the ULB.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
SIX_HUNDRED_CELL = (3, 120, {-1.0: 1, -_PHI / 2.0: 12, -0.5: 20, -0.5 / _PHI: 12, 0.0: 30,
                             0.5 / _PHI: 12, 0.5: 20, _PHI / 2.0: 12})


def jacobi_zero_mp(k: int, d: int, a: int, b: int, guess: float, dps: int = 40):
    """The zero of the order-k (a, b) family member on S^d nearest guess.

    Newton on mpmath's hypergeometric P_k^{(alpha, beta)}, alpha = (d-2)/2 +
    a, beta = (d-2)/2 + b, with its derivative from the (alpha+1, beta+1)
    family, at dps + 20 digits; returns an mpf rounded to dps digits.
    """
    with mp.workdps(dps + 20):
        al = mp.mpf(d - 2) / 2 + a
        be = mp.mpf(d - 2) / 2 + b
        t = mp.mpf(guess)
        for _ in range(100):
            # an exact zero, such as P_1(0) at alpha = beta, would make
            # hypsum raise without zeroprec
            value = mp.jacobi(k, al, be, t, zeroprec=4 * mp.mp.prec)
            step = value / ((k + al + be + 1) / 2 * mp.jacobi(k - 1, al + 1, be + 1, t))
            t -= step
            if abs(step) <= mp.mpf(10) ** (-dps - 10):
                break
        else:
            raise ArithmeticError(f"Newton did not settle on a zero near {guess}")
    with mp.workdps(dps):
        return +t


# Christoffel-Darboux kernel by its defining sum, in mpmath.


def cd_kernel_sum(k: int, d: int, a: int, b: int, x: float, y: float) -> float:
    """Q_k(x, y) = sum_{i<=k} r_i P_i(x) P_i(y) term by term at 30 digits.

    P_i is the Jacobi polynomial of parameters alpha = (d-2)/2 + a,
    beta = (d-2)/2 + b normalized to 1 at t = 1, from mpmath's
    hypergeometric evaluation; r_i is the total mass of the weight
    (1-t)^alpha (1+t)^beta times P_i(1)^2 over the classical squared norm.
    """
    with mp.workdps(30):
        al = mp.mpf(d - 2) / 2 + a
        be = mp.mpf(d - 2) / 2 + b
        two = mp.mpf(2) ** (al + be + 1)
        mass = two * mp.gamma(al + 1) * mp.gamma(be + 1) / mp.gamma(al + be + 2)
        total = mp.mpf(0)
        for i in range(k + 1):
            at_one = mp.binomial(i + al, i)
            h = (two / (2 * i + al + be + 1) * mp.gamma(i + al + 1) * mp.gamma(i + be + 1)
                 / (mp.gamma(i + al + be + 1) * mp.factorial(i)))
            # a value cancelling past zeroprec bits is an exact zero such
            # as P_1(0), on which hypsum would otherwise raise
            px = mp.jacobi(i, al, be, x, zeroprec=4 * mp.mp.prec) / at_one
            py = mp.jacobi(i, al, be, y, zeroprec=4 * mp.mp.prec) / at_one
            total += mass * at_one**2 / h * px * py
        return float(total)


def e8_coset_counts(m_max: int) -> list[int]:
    """E8 shell counts N(1..m_max), index m <-> squared norm 2m.

    Vectors are the even-coordinate-sum points of Z^8 together with the
    same constraint on Z^8 + (1/2,...,1/2).  Both pieces reduce to 8-fold
    convolutions of one-dimensional square series: the parity constraint
    keeps (theta3^8 + theta4^8)/2 on the integral part and exactly half of
    the half-integral part.  Exponents are tracked in quarter-steps so
    everything stays integral.
    """
    qmax4 = 8 * m_max  # squared norm 2m -> quarter-units 8m
    size = qmax4 + 1
    a3 = np.zeros(size, dtype=np.int64)
    a4 = np.zeros(size, dtype=np.int64)
    a3[0] = a4[0] = 1
    k = 1
    while 4 * k * k < size:
        a3[4 * k * k] = 2
        a4[4 * k * k] = 2 if k % 2 == 0 else -2
        k += 1
    a2 = np.zeros(size, dtype=np.int64)
    k = 1
    while k * k < size:
        a2[k * k] = 2
        k += 2

    def conv_pow8(a: np.ndarray) -> np.ndarray:
        p2 = np.convolve(a, a)[:size]
        p4 = np.convolve(p2, p2)[:size]
        return np.convolve(p4, p4)[:size]

    total = conv_pow8(a3) + conv_pow8(a4) + conv_pow8(a2)
    out = []
    for m in range(1, m_max + 1):
        v = total[8 * m]
        if v % 2 != 0:
            raise ValueError("E8 coset expansion lost the parity pairing")
        out.append(int(v) // 2)
    return out
