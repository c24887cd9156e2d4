"""Lattice theta series, Epstein zeta values, and packing data.

The conjectured sharp constants compare the Bessel-series constant with
covolume-normalized Epstein zeta values of the best known lattices.  Theta
coefficients are exact integers: A1 marks the squares, and every other
count comes from one weighted divisor sieve, sum_{e | m} weight(e), with
the weight and scale from its row of LATTICES (Leech also needs tau,
which the same sieve's sigma_1 generates).
The test suite checks the counts against direct enumeration of short
vectors.

Index convention per lattice: for the even lattices in the Cartan scale
(fcc through E8, Leech) index m corresponds to squared norm 2m, so N(1)
is the kissing number.  A1 and A2 are kept at minimal distance 1 and use
index m = squared norm directly.

Because the counts are divisor sums, each zeta value is a product of
classical Dirichlet series (Riemann zeta, L(w, chi_-3) and, for Leech,
L(w, Delta)).  They are evaluated at 110 bits as head sums plus
Euler-Maclaurin tails, whose remainders are below their first omitted
terms, and the tau sum stops where Deligne's bound puts its tail below a
quarter ulp; the value is rounded to a double once.  mpmath is imported
by the zeta helpers after the argument checks, so refusals load none."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def __getattr__(name: str):
    # gammainc is unused but traced by name in perfbench/tracer.py; resolved here, not at import
    if name == "gammainc":
        from mpmath import gammainc
        return gammainc
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Static description of one lattice in a fixed scale.

    ``index_convention`` is ``"even"`` (index m <-> squared norm 2m) or
    ``"direct"`` (index m <-> squared norm m).  ``covolume_sq`` is exact,
    as (numerator, denominator).  A lattice with a zeta value has shell
    counts N(m) = scale * sum_{e | m} weight(e), except that A1 (no weight)
    puts scale at the squares and Leech subtracts tau and divides by 691.
    """

    name: str
    d: int
    covolume_sq: tuple[int, int]
    min_sq_norm: int
    index_convention: str
    scale: int | None = None
    weight: Callable[[int], int] | None = None

    @property
    def covolume(self) -> float:
        return math.sqrt(self.covolume_sq[0] / self.covolume_sq[1])


LATTICES: dict[str, LatticeSpec] = {
    # integers at spacing 1: covolume 1, shortest vector 1
    "A1": LatticeSpec("A1", 1, (1, 1), 1, "direct", 2),
    # hexagonal at minimal distance 1: form u^2 + uv + v^2, covolume sqrt(3)/2
    "A2": LatticeSpec("A2", 2, (3, 4), 1, "direct", 6, lambda e: (0, 1, -1)[e % 3]),  # chi_-3
    # face-centered cubic = D3, Cartan scale: covolume 2, shortest sq norm 2
    "fcc": LatticeSpec("fcc", 3, (4, 1), 2, "even"),
    "D4": LatticeSpec("D4", 4, (4, 1), 2, "even", 24, lambda e: e % 2 * e),  # odd divisors
    "D5": LatticeSpec("D5", 5, (4, 1), 2, "even"),
    "E6": LatticeSpec("E6", 6, (3, 1), 2, "even"),
    "E7": LatticeSpec("E7", 7, (2, 1), 2, "even"),
    "E8": LatticeSpec("E8", 8, (1, 1), 2, "even", 240, lambda e: e**3),
    # Leech: even unimodular, shortest sq norm 4
    "Leech": LatticeSpec("Leech", 24, (1, 1), 4, "even", 65520, lambda e: e**11),
}

# best known packing lattice per dimension; optimality in d = 4..7 is open
LATTICE_FOR_DIMENSION = {lat.d: name for name, lat in LATTICES.items()}
CONJECTURED_DIMENSIONS = frozenset({4, 5, 6, 7})
# dimensions whose lattice is conjecturally optimal, so C~ is defined
C_TILDE_DIMENSIONS = (2, 4, 8, 24)


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
    if lat.scale is None:
        raise DomainError(f"no closed coefficient formula for lattice {lat.name}")
    if lat.weight is None:
        out = [0] * m_max
        for r in range(1, math.isqrt(m_max) + 1):
            out[r * r - 1] = lat.scale
        return out
    sums = _divisor_sums(lat.weight, m_max)
    if lat.name != "Leech":
        return [lat.scale * sums[m] for m in range(1, m_max + 1)]
    tau = tau_coefficients(m_max)
    out = []
    for m in range(1, m_max + 1):
        num = lat.scale * (sums[m] - tau[m])
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


# The closed forms run at _PREC bits and round once.  Each zeta or L series
# stops its Euler-Maclaurin tail at the first term below 2^-104 of itself.
# _ROUNDING is the rounding to double (2^-53 relative) plus 2^-60, which
# covers those remainders and the arithmetic (together below 2^-95).  The
# Leech tau tail adds at most 2^-55 where M <= TAU_TRUNCATION_DEFAULT
# reaches it, so tail bounds stay below _FLOOR, and a smaller tol is refused.
_PREC = 110
_ROUNDING = 2.0**-53 + 2.0**-60
_FLOOR = 2.0**-52
_EM_START = 24  # zeta heads sum n < 24; L(w, chi_-3) pairs n < 72
# smallest prime factor of each m <= TAU_TRUNCATION_DEFAULT
_SPF = list(range(TAU_TRUNCATION_DEFAULT + 1))
for _p in range(math.isqrt(TAU_TRUNCATION_DEFAULT), 1, -1):
    _SPF[_p * _p::_p] = [_p] * len(_SPF[_p * _p::_p])


def _inverse_powers(a: mpf, n: int) -> list[mpf]:
    # [0, 1, 2^-a, ..., n^-a]; m^-a is completely multiplicative, so only
    # the primes take a power
    from mpmath import mpf
    out = [mpf(0), mpf(1)]
    for m in range(2, n + 1):
        p = _SPF[m]
        out.append(mpf(m) ** -a if p == m else out[p] * out[m // p])
    return out


@functools.cache
def _em_coeffs() -> tuple[mpf, ...]:
    # B_2r / (2r)!, r = 1..24, built on first use to keep the import light
    from mpmath import bernfrac, mp, mpf
    with mp.workprec(_PREC):
        return tuple(mpf(p) / q / math.factorial(2 * r)
                     for r, (p, q) in enumerate(map(bernfrac, range(2, 50, 2)), 1))


def _em_sum(a: mpf, step: int, ends: list, head: mpf, integral: mpf) -> mpf:
    """head + sum_{x >= K} f(x) for f(x) = sum_i c_i (step x + b_i)^-a.

    ends holds (c_i, y_i, y_i^-a) with y_i = step K + b_i, and integral is
    that of f over [K, oo).  f is completely monotone, so the Euler-Maclaurin
    remainder (DLMF 2.10(i)) lies between 0 and the first omitted term, and
    the tail stops at the first term below 2^-104 of the sum.
    """
    from mpmath import mpf
    total = head + integral + sum(c * p for c, _, p in ends) / 2
    poch = a  # (a)_{2r-1}
    ends = [(c, step * step / mpf(y) ** 2, p * step / y) for c, y, p in ends]
    for r, coeff in enumerate(_em_coeffs(), 1):
        term = coeff * poch * sum(c * q for c, _, q in ends)
        if abs(term) <= total * 2**-104:
            return total
        total += term
        poch *= (a + 2 * r - 1) * (a + 2 * r)
        ends = [(c, i, q * i) for c, i, q in ends]
    raise NumericalError(f"Euler-Maclaurin tail at a={a} did not reach 2^-104")


def _zeta_minus_one(a: mpf) -> mpf:
    # zeta(a) - 1 for a > 1, so that Leech subtracts no 1 where zeta(a) ~ 1
    from mpmath import mp
    k = _EM_START
    pw = _inverse_powers(a, k)
    return _em_sum(a, 1, [(1, k, pw[k])], mp.fsum(pw[2:k]), k * pw[k] / (a - 1))


def _l_chi3(w: mpf) -> mpf:
    # L(w, chi_-3) in pairs (3k+1)^-w - (3k+2)^-w; the tail's integral goes
    # through expm1, so near w = 1 no two large Hurwitz values are subtracted
    from mpmath import mp, mpf
    k = _EM_START
    u, v = 3 * k + 1, 3 * k + 2
    pw = _inverse_powers(w, v)
    integral = u * pw[u] * mp.expm1((1 - w) * mp.log(mpf(v) / u)) / (3 * (1 - w))
    head = mp.fsum(pw[3 * j + 1] - pw[3 * j + 2] for j in range(k))
    return _em_sum(w, 3, [(1, u, pw[u]), (-1, v, pw[v])], head, integral)


def _leech_bracket(w: mpf) -> tuple[mpf, mpf]:
    # zeta(w) zeta(w-11) - L(w, Delta) and its tau tail bound.  The m = 1
    # terms cancel: (zeta(w)-1) zeta(w-11) + zeta(w-11) - 1 - sum_{2..M} tau(m)
    # m^-w.  Deligne (Publ. Math. IHES 43, 1974), |tau(m)| <= d(m) m^(11/2),
    # and d(m) <= 2 sqrt(m) bound the tail past M by 2 M^(7-w)/(w-7).  M is
    # the smallest, up to TAU_TRUNCATION_DEFAULT, that puts it below 2^-55 of
    # the zeta part less that majorant over m >= 2 (<= 2^(7-w) (1 + 2/(w-7))).
    from mpmath import mp, mpf
    z0, z11 = _zeta_minus_one(w), _zeta_minus_one(w - 11)
    head = z0 * (1 + z11) + z11
    lower = head - mpf(2) ** (7 - w) * (1 + 2 / (w - 7))
    need = (mpf(2) ** 56 / ((w - 7) * lower)) ** (1 / (w - 7))
    m_max = max(2, min(TAU_TRUNCATION_DEFAULT, int(mp.ceil(need))))
    tau, pw = tau_coefficients(m_max), _inverse_powers(w, m_max)
    l_delta = mp.fsum(tau[m] * pw[m] for m in range(2, m_max + 1))
    return head - l_delta, 2 * mpf(m_max) ** (7 - w) / (w - 7)


def _closed_form(lat: LatticeSpec, w: mpf) -> tuple[mpf, mpf]:
    # the zeta at s = 2w of a lattice with a shell scale and its tau tail
    # bound (0 but for Leech): each theta series is a divisor sum, so its
    # Dirichlet series is a product of classical ones
    from mpmath import mpf
    if lat.name == "Leech":
        scale = mpf(lat.scale) / 691 * mpf(2) ** -w
        bracket, tail = _leech_bracket(w)
        return scale * bracket, scale * tail
    if lat.name == "A1":
        return lat.scale * (1 + _zeta_minus_one(2 * w)), mpf(0)
    zeta = 1 + _zeta_minus_one(w)
    if lat.name == "A2":
        return lat.scale * zeta * _l_chi3(w), mpf(0)
    if lat.name == "D4":
        scale = lat.scale * mpf(2) ** -w * (1 - mpf(2) ** (1 - w))
        return scale * zeta * (1 + _zeta_minus_one(w - 1)), mpf(0)
    return lat.scale * mpf(2) ** -w * zeta * (1 + _zeta_minus_one(w - 3)), mpf(0)


def epstein_zeta(lattice: LatticeSpec | str, s: float, tol: float = 1e-10) -> EpsteinZeta:
    """Zeta function of the lattice, sum of |x|^-s over nonzero vectors.

    With w = s/2 it is a product of Dirichlet series (Sarnak & Strombergsson,
    Invent. Math. 165, 2006; Zagier, The 1-2-3 of Modular Forms, 2008):
    A1 2 zeta(s), A2 6 zeta(w) L(w, chi_-3), D4 24 2^-w (1 - 2^(1-w))
    zeta(w) zeta(w-1), E8 240 2^-w zeta(w) zeta(w-3), and Leech
    (65520/691) 2^-w [zeta(w) zeta(w-11) - L(w, Delta)].  Each zeta and L
    is a head sum plus an Euler-Maclaurin tail, and the tau sum of
    L(w, Delta) stops where Deligne's bound puts its tail below a quarter
    ulp.  tail_bound is that tau tail plus one rounding, which also covers
    the Euler-Maclaurin remainders; the target is tail_bound <= tol * value,
    and a tol below 2^-52, which bounds every tail_bound, raises
    ResourceError at once.  Other lattices raise DomainError.
    """
    lat = _spec(lattice)
    if lat.scale is None:
        raise DomainError(f"zeta evaluation is not configured for {lat.name}; supported "
                          f"lattices: {', '.join(n for n, x in LATTICES.items() if x.scale)}")
    if not lat.d < s < math.inf:
        raise DomainError(f"lattice zeta of {lat.name} requires finite s > {lat.d}, got {s}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if tol < _FLOOR:
        raise ResourceError(
            f"zeta tolerance {tol:g} for {lat.name} at s={s} is below the "
            f"relative floating-point floor {_FLOOR:g}")
    from mpmath import mp, mpf
    with mp.workprec(_PREC):
        z, tau_tail = _closed_form(lat, mpf(s) / 2)
        value = float(z)
        tail = float(tau_tail) + _ROUNDING * value
    if not tail <= tol * value:
        raise ResourceError(
            f"zeta of {lat.name} at s={s} has tail {tail:.3e} above tol {tol:g}")
    return EpsteinZeta(value, tail)


def c_tilde(d: int, s: float) -> float:
    """Conjectured asymptotic constant covol^(s/d) * zeta_Lambda(s).

    Available in the dimensions with a conjecturally optimal modular
    lattice: 2 (hexagonal), 4 (D4), 8 (E8), 24 (Leech).  The zeta value of
    epstein_zeta is multiplied by the exact covolume power before its one
    rounding.
    """
    if d not in C_TILDE_DIMENSIONS:
        raise DomainError(f"c_tilde is defined for d in {C_TILDE_DIMENSIONS}, got {d}")
    if not d < s < math.inf:
        raise DomainError(f"c_tilde requires finite s > d = {d}, got s={s}")
    lat = LATTICES[LATTICE_FOR_DIMENSION[d]]
    num, den = lat.covolume_sq
    from mpmath import mp, mpf
    with mp.workprec(_PREC):
        z, _ = _closed_form(lat, mpf(s) / 2)
        return float(z * (mpf(num) / den) ** (mpf(s) / (2 * d)))
