"""Lattice theta series, Epstein zeta values, and packing data.

The conjectured sharp constants compare the Bessel-series constant with
covolume-normalized Epstein zeta values of the best known lattices.  Theta
coefficients are exact integers: A1 marks the squares, and every other
count comes from one weighted divisor sieve, sum_{e | m} weight(e), with
the weight and scale from one table of the lattices that have a zeta
value (Leech also needs tau, which the same sieve's sigma_1 generates).
The test suite checks the counts against direct enumeration of short
vectors.

Index convention per lattice: for the even lattices in the Cartan scale
(fcc through E8, Leech) index m corresponds to squared norm 2m, so N(1)
is the kissing number.  A1 and A2 are kept at minimal distance 1 and use
index m = squared norm directly.

Zeta evaluation uses two routes.  Far from the abscissa the plain shell
sum converges and is truncated under a coefficient majorant
N(m) <= C * m^(d/2 - 1 + 1/4) with C calibrated on the computed range
(factor-2 safety).  Near the abscissa no feasible truncation reaches
tolerance -- the tail only decays like M^(-(s-d)/2) -- so the series is
rewritten through the theta transformation as two exponentially
convergent incomplete-gamma sums over the lattice and its dual.  Every
lattice on this route is similar to its dual, so the dual shell counts
are the lattice's own counts at rescaled values.  Each of the two sums
stops at its own shell (at most 48), the first past which the majorant
bounds its tail by 2^-110 times the first nonzero shell term, a lower
bound on the value: below the 30-digit working precision, so the double
is that of all 48 shells.  Each route adds a relative floating-point
floor to its tail (1e-14 plain, 5e-15 theta); a tolerance below it is
refused before any work, so on the theta route tol only gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from mpmath import gammainc, mp, mpf

from .errors import DomainError, NumericalError, ResourceError
from .special import ball_volume

__all__ = [
    "LatticeSpec",
    "LATTICES",
    "LATTICE_FOR_DIMENSION",
    "CONJECTURED_DIMENSIONS",
    "C_TILDE_DIMENSIONS",
    "tau_coefficients",
    "theta_coefficients",
    "EpsteinZeta",
    "epstein_zeta",
    "c_tilde",
    "packing_density",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Static description of one lattice in a fixed scale.

    ``index_convention`` is ``"even"`` (index m <-> squared norm 2m) or
    ``"direct"`` (index m <-> squared norm m).
    """

    name: str
    d: int
    covolume: float
    min_sq_norm: int
    index_convention: str


LATTICES: dict[str, LatticeSpec] = {
    # integers at spacing 1: covolume 1, shortest vector 1
    "A1": LatticeSpec("A1", 1, 1.0, 1, "direct"),
    # hexagonal at minimal distance 1: form u^2 + uv + v^2, covolume sqrt(3)/2
    "A2": LatticeSpec("A2", 2, math.sqrt(3.0) / 2.0, 1, "direct"),
    # face-centered cubic = D3, Cartan scale: covolume 2, shortest sq norm 2
    "fcc": LatticeSpec("fcc", 3, 2.0, 2, "even"),
    "D4": LatticeSpec("D4", 4, 2.0, 2, "even"),
    "D5": LatticeSpec("D5", 5, 2.0, 2, "even"),
    "E6": LatticeSpec("E6", 6, math.sqrt(3.0), 2, "even"),
    "E7": LatticeSpec("E7", 7, math.sqrt(2.0), 2, "even"),
    "E8": LatticeSpec("E8", 8, 1.0, 2, "even"),
    # Leech: even unimodular, shortest sq norm 4
    "Leech": LatticeSpec("Leech", 24, 1.0, 4, "even"),
}

# best known packing lattice per dimension; optimality in d = 4..7 is open
LATTICE_FOR_DIMENSION = {1: "A1", 2: "A2", 3: "fcc", 4: "D4", 5: "D5",
                         6: "E6", 7: "E7", 8: "E8", 24: "Leech"}
CONJECTURED_DIMENSIONS = frozenset({4, 5, 6, 7})
# dimensions whose lattice is conjecturally optimal, so C~ is defined
C_TILDE_DIMENSIONS = (2, 4, 8, 24)

# name -> (dual_scale, scale, weight) for the lattices with a zeta value.
# Each is similar to its dual, whose form values are the primal ones times
# dual_scale (same count sequence).  The shell count is
# N(m) = scale * sum_{e | m} weight(e), except that A1 (no weight) puts
# scale at the squares and Leech subtracts tau and divides by 691.
_ZETA_LATTICES = {
    "A1": (1.0, 2, None),
    "A2": (4.0 / 3.0, 6, lambda e: (0, 1, -1)[e % 3]),  # chi_{-3}
    "D4": (0.5, 24, lambda e: e % 2 * e),  # odd divisors
    "E8": (1.0, 240, lambda e: e**3),
    "Leech": (1.0, 65520, lambda e: e**11),
}


def _spec(lattice: LatticeSpec | str) -> LatticeSpec:
    if isinstance(lattice, LatticeSpec):
        return lattice
    try:
        return LATTICES[lattice]
    except KeyError:
        raise DomainError(f"unknown lattice {lattice!r}; have {sorted(LATTICES)}") from None


def packing_density(lattice: LatticeSpec | str) -> float:
    """Fraction of space covered by balls of radius half the minimal distance."""
    lat = _spec(lattice)
    return ball_volume(lat.d, math.sqrt(lat.min_sq_norm) / 2.0) / lat.covolume


# ---------------------------------------------------------------------------
# divisor sums, the discriminant cusp form and theta coefficients
# ---------------------------------------------------------------------------


def _divisor_sums(weight: Callable[[int], int], m_max: int) -> list[int]:
    # out[m] = sum of weight(e) over the divisors e of m; index 0 unused
    out = [0] * (m_max + 1)
    for e in range(1, m_max + 1):
        we = weight(e)
        if we:
            for n in range(e, m_max + 1, e):
                out[n] += we
    return out


TAU_TRUNCATION_DEFAULT = 1000

# [0, tau(1), tau(2), ...]; tau(1) = 1 starts the recurrence
_TAU_CACHE: list[int] = [0, 1]


def tau_coefficients(m_max: int) -> list[int]:
    """Coefficients tau(1..m_max) of the weight-12 discriminant form, exact.

    tau(n + 1) = a_n, the coefficients of prod (1-q^n)^24.  Its logarithmic
    derivative gives n a_n = -24 sum_{j=1}^{n} sigma_1(j) a_{n-j}, which
    extends the cached coefficients one at a time.  Index 0 of the result
    is 0, so tau(m) sits at index m.  m_max beyond TAU_TRUNCATION_DEFAULT
    raises ResourceError.
    """
    if m_max < 1:
        raise DomainError(f"tau_coefficients requires m_max >= 1, got {m_max}")
    if m_max > TAU_TRUNCATION_DEFAULT:
        raise ResourceError(
            f"tau truncation {m_max} exceeds the limit {TAU_TRUNCATION_DEFAULT}")
    if len(_TAU_CACHE) <= m_max:
        sigma = _divisor_sums(lambda e: e, m_max)
        a = _TAU_CACHE[1:]
        for n in range(len(a), m_max):
            a.append(-24 * sum(sigma[j] * a[n - j] for j in range(1, n + 1)) // n)
        _TAU_CACHE[:] = [0] + a
    return _TAU_CACHE[: m_max + 1]


def theta_coefficients(lattice: LatticeSpec | str, m_max: int) -> list[int]:
    """Shell counts N(1..m_max) in the lattice's index convention.

    Every count is a classical divisor sum (Conway & Sloane, ch. 4): A2
    has 6 sum chi_{-3}(e), D4 24 times the odd-divisor sum, E8 240 sigma_3,
    and Leech (65520/691)(sigma_11 - tau) from Theta = E_12 - (65520/691)
    Delta; A1 has 2 at the squares.  Other lattices raise DomainError.
    The test suite checks the counts against direct enumeration of short
    vectors.
    """
    lat = _spec(lattice)
    if m_max < 1:
        raise DomainError(f"theta_coefficients requires m_max >= 1, got {m_max}")
    name = lat.name
    if name not in _ZETA_LATTICES:
        raise DomainError(f"no closed coefficient formula for lattice {name}")
    _, scale, weight = _ZETA_LATTICES[name]
    if weight is None:
        out = [0] * m_max
        for r in range(1, math.isqrt(m_max) + 1):
            out[r * r - 1] = scale
        return out
    sums = _divisor_sums(weight, m_max)
    if name != "Leech":
        return [scale * sums[m] for m in range(1, m_max + 1)]
    tau = tau_coefficients(m_max)
    out = []
    for m in range(1, m_max + 1):
        num = scale * (sums[m] - tau[m])
        if num % 691 != 0:
            raise NumericalError(
                f"Leech theta coefficient at m={m} is not divisible by 691; "
                "divisor-sum or cusp-form expansion is inconsistent")
        out.append(num // 691)
    return out


# ---------------------------------------------------------------------------
# Epstein zeta
# ---------------------------------------------------------------------------


class EpsteinZeta(NamedTuple):
    value: float
    tail_bound: float


# below this gap s - d the plain shell sum cannot reach tolerance and the
# theta-transformation route takes over; Leech switches earlier so the
# plain route never needs tau beyond its default truncation
_PLAIN_GAP = 6.0
_PLAIN_GAP_LEECH = 10.0
_PLAIN_M_CAP = 1 << 20
_ACCEL_SHELLS = 48
_ACCEL_LEVEL = 2.0**-110
_PLAIN_FLOOR = 1e-14
_ACCEL_FLOOR = 5e-15


def _coeff_majorant(lat: LatticeSpec, counts: list[int]) -> tuple[float, float]:
    """Calibrated C with N(m) <= C m^p, p = d/2 - 1 + 1/4, factor-2 safety."""
    p = lat.d / 2.0 - 1.0 + 0.25
    m_lo = max(1, len(counts) // 2)
    c = max(counts[m - 1] / m**p for m in range(m_lo, len(counts) + 1))
    return 2.0 * max(c, 1e-300), p


def _epstein_plain(lat: LatticeSpec, s: float, tol: float) -> EpsteinZeta:
    w = s / 2.0
    kappa = 2.0 if lat.index_convention == "even" else 1.0
    m = 256
    while True:
        counts = theta_coefficients(lat, m)
        total = math.fsum(counts[k - 1] * (kappa * k) ** -w
                          for k in range(m, 0, -1) if counts[k - 1])
        cmaj, p = _coeff_majorant(lat, counts)
        # integral comparison: sum_{k>m} k^(p-w) <= m^(p-w+1)/(w-p-1)
        tail = cmaj * kappa**-w * m ** (p - w + 1.0) / (w - p - 1.0)
        tail += _PLAIN_FLOOR * total
        if tail <= tol * total:
            return EpsteinZeta(total, tail)
        if 2 * m > _PLAIN_M_CAP or (lat.name == "Leech"
                                    and 2 * m > TAU_TRUNCATION_DEFAULT):
            raise ResourceError(
                f"plain zeta sum for {lat.name} at s={s} still has tail "
                f"{tail:.3e} (relative {tail / total:.3e}) at m_max={m}")
        m *= 2


def _epstein_accel(lat: LatticeSpec, s: float, tol: float) -> EpsteinZeta:
    w = s / 2.0
    half_d = lat.d / 2.0
    kappa = 2.0 if lat.index_convention == "even" else 1.0
    dual_scale = _ZETA_LATTICES[lat.name][0]
    covol = lat.covolume
    counts = theta_coefficients(lat, _ACCEL_SHELLS)
    cmaj, p = _coeff_majorant(lat, counts)
    scale_out = math.pi**w / math.gamma(w)

    def tails(k: int) -> tuple[float, float]:
        # geometric bounds on both sums past shell k (inf where invalid):
        # with z = pi q and Gamma(a, z) <= z^(a-1) e^-z f for z > a - 1, the
        # primal term is <= C m^p e^-z f/z, the dual one <= C m^p e^-z / z
        m1 = k + 1
        z1 = math.pi * kappa * m1
        z2 = math.pi * kappa * dual_scale * m1
        grow = (1.0 + 1.0 / m1) ** max(p, 1.0)
        r1 = grow * math.exp(-math.pi * kappa)
        r2 = grow * math.exp(-math.pi * kappa * dual_scale)
        t1 = t2 = math.inf
        if z1 > w + 2.0 and r1 < 0.5:
            f1 = 1.0 / (1.0 - (w - 1.0) / z1) if w > 1.0 else 1.0
            t1 = cmaj * m1**p * math.exp(-z1) * f1 / z1 / (1.0 - r1)
        if r2 < 0.5:
            t2 = cmaj * m1**p * math.exp(-z2) / z2 / (covol * (1.0 - r2))
        return t1, t2

    m0 = next(m for m, c in enumerate(counts, start=1) if c)
    cut = _ACCEL_LEVEL * counts[m0 - 1] * (kappa * m0) ** -w / scale_out
    table = [tails(k) for k in range(1, _ACCEL_SHELLS + 1)]
    k1 = next((k for k, (t1, _) in enumerate(table, start=1) if t1 <= cut), _ACCEL_SHELLS)
    k2 = next((k for k, (_, t2) in enumerate(table, start=1) if t2 <= cut), _ACCEL_SHELLS)
    with mp.workdps(30):
        mw = mpf(w)
        s1 = s2 = mpf(0)
        for k in range(k1, 0, -1):
            if counts[k - 1]:
                q = mpf(kappa) * k
                s1 += counts[k - 1] * (mp.pi * q) ** (-mw) * gammainc(mw, mp.pi * q)
        for k in range(k2, 0, -1):
            if counts[k - 1]:
                qd = mpf(dual_scale) * (mpf(kappa) * k)
                s2 += counts[k - 1] * ((mp.pi * qd) ** (mw - half_d)
                                       * gammainc(mpf(half_d) - mw, mp.pi * qd))
        lam = s1 + s2 / covol + 1.0 / (covol * (mw - half_d)) - 1.0 / mw
        value = float(mp.pi ** mw / mp.gamma(mw) * lam)
    if not math.isfinite(value) or value <= 0.0:
        raise NumericalError(
            f"theta-transformation zeta for {lat.name} at s={s} "
            f"evaluated to {value}")
    tail = scale_out * (table[k1 - 1][0] + table[k2 - 1][1]) + _ACCEL_FLOOR * abs(value)
    if not tail <= tol * abs(value):
        raise ResourceError(
            f"theta-transformation zeta for {lat.name} at s={s} has tail "
            f"{tail:.3e} above tol {tol:g} at {k1} and {k2} shells")
    return EpsteinZeta(value, tail)


def epstein_zeta(lattice: LatticeSpec | str, s: float, tol: float = 1e-10) -> EpsteinZeta:
    """Zeta function of the lattice, sum of |x|^-s over nonzero vectors.

    Returns the value and a tail bound; the bound accounts for shell
    truncation under the calibrated coefficient majorant plus a floating
    point floor, and the target is tail <= tol * value; a tol below the
    floor raises ResourceError at once.  Only lattices with exact shell
    counts in theta_coefficients are supported; the other root lattices
    would need infeasibly deep vector counts.
    """
    lat = _spec(lattice)
    if lat.name not in _ZETA_LATTICES:
        raise DomainError(
            f"zeta evaluation is not configured for {lat.name}; "
            f"supported lattices: {', '.join(_ZETA_LATTICES)}")
    if not lat.d < s < math.inf:
        raise DomainError(f"lattice zeta of {lat.name} requires finite s > {lat.d}, got {s}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    gap_switch = _PLAIN_GAP_LEECH if lat.name == "Leech" else _PLAIN_GAP
    plain = s - lat.d >= gap_switch
    floor = _PLAIN_FLOOR if plain else _ACCEL_FLOOR
    if tol < floor:
        raise ResourceError(
            f"zeta tolerance {tol:g} for {lat.name} at s={s} is below the "
            f"relative floating-point floor {floor:g} of its route")
    return (_epstein_plain if plain else _epstein_accel)(lat, s, tol)


def c_tilde(d: int, s: float) -> float:
    """Conjectured asymptotic constant covol^(s/d) * zeta_Lambda(s).

    Available in the dimensions with a conjecturally optimal modular
    lattice: 2 (hexagonal), 4 (D4), 8 (E8), 24 (Leech).
    """
    if d not in C_TILDE_DIMENSIONS:
        raise DomainError(f"c_tilde is defined for d in {C_TILDE_DIMENSIONS}, got {d}")
    lat = LATTICES[LATTICE_FOR_DIMENSION[d]]
    if not d < s < math.inf:
        raise DomainError(f"c_tilde requires finite s > d = {d}, got s={s}")
    z = epstein_zeta(lat, s, 1e-10)
    return lat.covolume ** (s / d) * z.value
