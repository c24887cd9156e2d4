"""Lower bounds for minimal energy on spheres.

Finite-N bounds come from the 1/N-quadrature rules: the energy of any
N-point configuration under an absolutely monotone potential h is at least
N^2 * sum_i w_i h(x_i) over the rule's nodes below 1.  Asymptotic constants
cover the trivial volume bound, the Gamma-ratio bound, the Bessel-zero
series constant A_{s,d}, the Gaussian bound for unit-density configurations
in R^d, and the sphere-packing corollary.

Riesz exponent convention: the potential for |x - y|^{-s} on the sphere is
(2 - 2t)^{-s/2} in the inner-product variable t, since |x - y|^2 = 2 - 2t
for unit vectors.  numpy is imported only where a rule or a potential is
evaluated, as in jacobi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, NumericalError, ResourceError, _integer
from .quadrature import build_rule
from .special import (
    _mcmahon_p,
    ball_volume,
    bessel_zeros,
    hurwitz_zeta,
    lambda_d,
    unit_sphere_area,
)

__all__ = ["RieszPotential", "GaussianPotential", "parse_potential", "ulb_energy",
           "theta_bound", "xi_bound", "xi_flags", "AsdBound", "asd_bound", "GaussBound",
           "gauss_bound", "packing_bound", "bd_ratio"]


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RieszPotential:
    """h(t) = (2 - 2t)^(-s/2), the kernel |x-y|^(-s) in t = <x,y>."""

    s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s < math.inf:
            raise DomainError(f"Riesz exponent must be positive and finite, got {self.s}")

    def __call__(self, t):
        import numpy as np
        return (2.0 - 2.0 * np.asarray(t, dtype=float)) ** (-0.5 * self.s)


@dataclass(frozen=True)
class GaussianPotential:
    """h(t) = exp(-alpha (2 - 2t)); alpha absorbs any density rescaling."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"Gaussian width must be positive and finite, got {self.alpha}")

    def __call__(self, t):
        import numpy as np
        return np.exp(-self.alpha * (2.0 - 2.0 * np.asarray(t, dtype=float)))


def parse_potential(text: str):
    """Parse "riesz:S" or "gauss:A" into a potential object."""
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError(f"potential must look like 'riesz:4' or 'gauss:1.5', got {text!r}")
    family, raw = parts[0].strip().lower(), parts[1]
    try:
        value = float(raw)
    except ValueError:
        raise DomainError(f"potential parameter {raw!r} is not a number") from None
    if family == "riesz":
        return RieszPotential(value)
    if family == "gauss":
        return GaussianPotential(value)
    raise DomainError(f"unknown potential family {parts[0]!r}")


# ---------------------------------------------------------------------------
# Finite-N universal lower bound
# ---------------------------------------------------------------------------


def ulb_energy(d: int, n: int, h) -> float:
    """Lower bound N^2 sum w_i h(x_i) for the h-energy of N points on S^d.

    h must map the array of rule nodes to an array of the same shape, as
    both potentials here do, and be finite on [-1, 1); the nodes never
    include 1.  A result of another shape raises DomainError.
    """
    rule = build_rule(d, n)
    import numpy as np
    x = np.array(rule.nodes, dtype=float)
    vals = np.asarray(h(x), dtype=float)
    if vals.shape != x.shape:
        raise DomainError(f"potential must map the nodes to shape {x.shape}, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NumericalError("potential not finite at a quadrature node")
    return float(n) * float(n) * float(np.dot(np.array(rule.weights), vals))


# ---------------------------------------------------------------------------
# Asymptotic constants: volume bound and Gamma-ratio bound
# ---------------------------------------------------------------------------


def _check_s_gt_d(d: int, s: float) -> None:
    _integer(d, 1, "dimension must be a positive integer, got {}")
    if not d < s < math.inf:
        raise DomainError(f"requires finite s > d, got s={s}, d={d}")


def theta_bound(d: int, s: float) -> float:
    """Volume lower bound 2^-s (H_{d-1}(S^{d-1})/d)^(s/d) for s > d, if a double holds it."""
    _check_s_gt_d(d, s)
    base = unit_sphere_area(d - 1) / d
    # the product while both factors are normal (base^(1/d) <= 2), else one exp
    if s <= 1022.0 and (power := base ** (s / d)) >= sys.float_info.min:
        theta = 2.0 ** (-s) * power
    else:
        theta = math.exp((s / d) * math.log(base) - s * math.log(2.0))
    if theta == 0.0:
        raise NumericalError(f"theta_bound underflows for d={d}, s={s}")
    return theta


def xi_bound(d: int, s: float) -> float:
    """Gamma-ratio lower bound [pi^{d/2} G(1+(s-d)/2)/G(1+s/2)]^{s/d} d/(s-d).

    Stated for d >= 2 with (s-d)/2 not an integer; outside that set the
    formula is still evaluated and xi_flags() reports the caveat.
    """
    _check_s_gt_d(d, s)
    log_bracket = (0.5 * d * math.log(math.pi)
                   + math.lgamma(1.0 + 0.5 * (s - d))
                   - math.lgamma(1.0 + 0.5 * s))
    return math.exp((s / d) * log_bracket + math.log(d) - math.log(s - d))


def xi_flags(d: int, s: float) -> tuple[str, ...]:
    """Validity caveats for xi_bound at (d, s); empty when none apply."""
    _check_s_gt_d(d, s)
    flags = []
    if d < 2:
        flags.append("d-below-2")
    half_gap = 0.5 * (s - d)
    if abs(half_gap - round(half_gap)) < 1e-12:
        flags.append("integer-(s-d)/2")
    return tuple(flags)


# ---------------------------------------------------------------------------
# A_{s,d}: Bessel-zero series with a certified tail
# ---------------------------------------------------------------------------

# Series terms are z_i^{d-s-2} J_{d/2+1}(z_i)^{-2} over the zeros z_i of
# J_{d/2}.  At a zero of J_nu the Wronskian (DLMF 10.5.2) gives
# J_{nu+1}(z) Y_nu(z) = 2/(pi z), so J_{nu+1}(z)^{-2} = (pi z/2) G(z) with
# G = (pi z/2) M_nu(z)^2, M_nu^2 = J_nu^2 + Y_nu^2, and DLMF 10.18.17 expands
# G = 1 + g2/z^2 + g4/z^4 + g6/z^6 + ...  Composing with McMahon's zero
# expansion z(c) = pi c + p1/(pi c) + ..., c = i + nu/2 - 1/4, turns the
# tail into Hurwitz zeta values:
#
#   sum_{i>M} z^{-delta-2} J^{-2}
#     = (pi/2)[pi^{-D-1} zeta(D+1,a) + u2 pi^{-D-3} zeta(D+3,a)
#              + u4 pi^{-D-5} zeta(D+5,a)] + O(zeta(D+7,a)),   D = delta,
#
# with a = M+1+q.  The O-term is certified below with the explicitly
# computed next coefficient u6 and a safety factor of 4 measured against
# brute-force sums (worst observed ratio 1.34 over d in {1,2,3,8,24},
# delta in [1e-4, 25]).


def _hankel_g(d: int) -> tuple[float, float, float]:
    """(g2, g4, g6) of G(z) = 1 + g2/z^2 + g4/z^4 + g6/z^6 + O(z^-8).

    DLMF 10.18.17 at mu = d^2, in integer arithmetic: the int true
    division rounds once, correctly.
    """
    m = int(d) ** 2 - 1
    return m / 8, 3 * m * (m - 8) / 128, 5 * m * (m - 8) * (m - 24) / 1024


def _tail_u(d: int, delta: float) -> tuple[float, float, float]:
    """Coefficients of the Hurwitz-zeta tail expansion at exponent delta."""
    g2, g4, g6 = _hankel_g(d)
    p1, p3, p5 = _mcmahon_p(d / 2.0)
    e = delta + 1.0
    u2 = g2 - e * p1
    u4 = (g4 - 2.0 * g2 * p1 - e * p1 * g2 - e * p3
          + 0.5 * e * (delta + 2.0) * p1 * p1)
    u6 = (g6 - 4.0 * g4 * p1 - e * p1 * g4
          + g2 * (3.0 * p1 * p1 - 2.0 * p3)
          + 2.0 * e * p1 * p1 * g2
          + g2 * (0.5 * e * (delta + 2.0) * p1 * p1 - e * p3)
          - e * p5 + e * (delta + 2.0) * p1 * p3
          - e * (delta + 2.0) * (delta + 3.0) / 6.0 * p1 ** 3)
    return u2, u4, u6


def _zero_weights(d: int, n: int) -> tuple[tuple, list]:
    """First n Bessel zeros z_i of J_{d/2} with weights J_{d/2+1}(z_i)^-2."""
    table = bessel_zeros(d / 2.0, n)
    return table.zeros, [1.0 / (j1 * j1) for j1 in table.j_next]


class AsdBound(NamedTuple):
    value: float
    terms_used: int
    tail_bound: float


# analytic-tail route switches to plain truncation at this exponent gap;
# above it the series decays fast enough that truncation alone certifies
_TRUNCATION_DELTA = 28.0
_MAX_TERMS = 80_000
# relative floor of the certificate: per-term Bessel evaluation
# certificates (~1e-13 relative), the Hurwitz pow rounding, and
# summation roundoff
_ASD_FLOOR = 2e-13


def asd_bound(d: int, s: float, tol: float = 1e-10) -> AsdBound:
    """Asymptotic minimal-energy constant as a certified Bessel-zero series, if a double holds it.

    Returns (value, terms_used, tail_bound) with tail_bound an absolute
    majorant of the truncation-plus-model error of the reported value; the
    loop extends the series until tail_bound <= tol * value.  tol is
    relative.  The certificate carries a floor of _ASD_FLOOR times the
    value, so a tol below it can never be met and raises ResourceError
    at once; tol equal to the floor is still tried.
    """
    _check_s_gt_d(d, s)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if tol < _ASD_FLOOR:
        raise ResourceError(
            f"asd_bound tol={tol} is below its relative error floor {_ASD_FLOOR}")
    delta = s - d
    q = d / 4.0 - 0.25
    log_scale = ((s / d) * (0.5 * (d + 1) * math.log(math.pi)
                            + math.lgamma(d + 1.0) - math.lgamma((d + 1) / 2.0))
                 + math.log(4.0) - math.log(lambda_d(d)) - math.lgamma(d + 1.0))
    # The first zero bounds the value before the table is built: w = (pi z/2)
    # G(z), G falls for nu > 1/2 and is 1 at nu = 1/2 (Watson 13.74, Nicholson's
    # formula), and zeros pi apart or more put total_rel, whose first term is 1,
    # in [1, 1 + z_1/(pi delta)] by an integral comparison.  The end checks add
    # log(total_rel) >= 0: they refuse all refused here, as the margin of 1
    # dwarfs the tail model's error and the roundings.
    (z1,), (w1,) = _zero_weights(d, 1)
    log_t1 = -(delta + 2.0) * math.log(z1) + math.log(w1)
    if log_scale + log_t1 > 700.0:
        raise NumericalError(f"asd_bound overflows for d={d}, s={s}")
    if log_scale + log_t1 + math.log1p(z1 / (math.pi * delta)) < math.log(math.ulp(0.0)) - 1:
        raise NumericalError(f"asd_bound underflows for d={d}, s={s}")

    m = 600 if delta < _TRUNCATION_DELTA else 240
    if delta < _TRUNCATION_DELTA:
        u2, u4, u6 = _tail_u(d, delta)

        def model_rel(a: float) -> float:
            # the O(zeta(D+7, a)) term of the tail model, relative to the first term
            return (4.0 * (math.pi / 2.0) * (1.0 + abs(u6)) * math.pi ** (-delta - 7.0)
                    * hurwitz_zeta(delta + 7.0, a)) * math.exp(-log_t1)

        # The model term falls with m, so no pass up to _MAX_TERMS gets it
        # below its value there, while a pass certifies only with it below
        # (tol - _ASD_FLOOR) total_rel, and total_rel <= 1 + z_1/(pi delta)
        # (above).  4 ulps of tol keep the tols at the floor that the
        # rounding of that test lets through.
        total_max = 1.0 + z1 / (math.pi * delta)
        if model_rel(_MAX_TERMS + 1.0 + q) > (tol - _ASD_FLOOR + 4 * math.ulp(tol)) * total_max:
            raise ResourceError(f"asd_bound tail model cannot reach tol={tol} within "
                                f"{_MAX_TERMS} terms for d={d}, s={s}")
    while True:
        zs, ws = _zero_weights(d, m + 1)
        logz1 = math.log(zs[0])
        # partial sum scaled by the first term to stay in a safe float range
        rel = [math.exp(-(delta + 2.0) * (math.log(zs[i]) - logz1)) * (ws[i] / ws[0])
               for i in range(m)]
        s_rel = math.fsum(rel)

        if delta < _TRUNCATION_DELTA:
            a = m + 1.0 + q
            tail = (math.pi / 2.0) * (
                math.pi ** (-delta - 1.0) * hurwitz_zeta(delta + 1.0, a)
                + u2 * math.pi ** (-delta - 3.0) * hurwitz_zeta(delta + 3.0, a)
                + u4 * math.pi ** (-delta - 5.0) * hurwitz_zeta(delta + 5.0, a))
            tail_rel = tail * math.exp(-log_t1)
            err_rel = model_rel(a)
        else:
            # Past zs[m], w <= (z/zs[m]) ws[m] and the zero spacing (see above)
            # bound the tail by the term at zs[m] times 1 + zs[m]/(pi delta).
            tail_rel = 0.0
            err_rel = math.exp(math.log(ws[m]) - (delta + 2.0) * math.log(zs[m]) - log_t1
                               + math.log1p(zs[m] / (math.pi * delta)))

        total_rel = s_rel + tail_rel
        err_rel += _ASD_FLOOR * total_rel
        if err_rel <= tol * total_rel:
            log_value = log_scale + log_t1 + math.log(total_rel)
            if log_value > 700.0:
                raise NumericalError(f"asd_bound overflows for d={d}, s={s}")
            if (value := math.exp(log_value)) == 0.0:
                raise NumericalError(f"asd_bound underflows for d={d}, s={s}")
            return AsdBound(value, m, math.exp(log_scale + log_t1) * err_rel)
        if 2 * m > _MAX_TERMS:
            raise ResourceError(
                f"asd_bound tail {err_rel / total_rel:.3e} cannot reach "
                f"tol={tol} within {_MAX_TERMS} terms for d={d}, s={s}")
        m *= 2


# ---------------------------------------------------------------------------
# Gaussian bound for unit-density configurations in R^d
# ---------------------------------------------------------------------------


class GaussBound(NamedTuple):
    value: float
    terms_used: int
    tail_bound: float


# most series terms tried: the doubling 64, 128, 256, ... stops at this count
_GAUSS_MAX_TERMS = 64 * 2**11
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def gauss_bound(d: int, alpha: float, rho: float = 1.0) -> GaussBound:
    """Lower bound for Gaussian e^{-alpha r^2} energy at point density rho.

    Evaluates (4/(lambda_d d!)) sum z_i^{d-2} J_{d/2+1}(z_i)^{-2}
    exp(-alpha (z_i/(pi R))^2) with vol(B^d(R/2)) = rho, truncated once the
    remaining terms are certified below 1e-12 of the sum.
    """
    d = _integer(d, 1, "dimension must be a positive integer, got {}")
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho}")
    # The first pass below takes z^(d-2) up to zs[64], which exceeds
    # nu + 64 pi (j_{nu,1} > nu and the spacing exceeds pi for nu >= 1/2),
    # so where that power leaves the double range d alone decides.
    if (d - 2) * math.log(d / 2.0 + 64 * math.pi) > _LOG_DOUBLE_MAX:
        raise NumericalError(
            f"gauss_bound overflows for d={d}: z^(d-2) leaves the double range by zs[64]")
    radius = 2.0 * (rho / ball_volume(d)) ** (1.0 / d)
    scale = 4.0 / (lambda_d(d) * math.gamma(d + 1.0))
    decay = alpha / (math.pi * radius) ** 2
    # The loop below returns only once the term ratio past z_next is below
    # 1/2, which needs 2 pi decay z_next > ln 2.  The largest z_next tested
    # is zs[_GAUSS_MAX_TERMS], and j_{nu,k} <= (k + nu/2 - 1/4) pi for
    # nu >= 1/2.  0.69 < ln 2 leaves room for the rounding of the test itself.
    z_last = (_GAUSS_MAX_TERMS + 1 + d / 4.0 - 0.25) * math.pi
    if 2.0 * math.pi * decay * z_last < 0.69:
        raise ResourceError(
            f"gauss_bound truncation cannot be certified within {_GAUSS_MAX_TERMS} "
            f"terms for d={d}, alpha={alpha}, rho={rho}")

    total = 0.0
    m = 0
    while True:
        grow = max(64, m)
        zs, ws = _zero_weights(d, m + grow + 1)
        try:
            for i in range(m, m + grow):
                z = zs[i]
                total += z ** (d - 2) * ws[i] * math.exp(-decay * z * z)
            m += grow
            z_next = zs[m]
            t_next = z_next ** (d - 2) * ws[m] * math.exp(-decay * z_next * z_next)
        except OverflowError:
            total = math.inf  # a power z^(d-2) left the double range
        if total == math.inf:
            raise NumericalError(f"gauss_bound overflows for d={d}, alpha={alpha}, rho={rho}")
        # beyond z_next the term ratio is at most exp((d-1)pi/z - 2 decay pi z),
        # decreasing in z; certify once it is below 1/2
        ratio = math.exp((d - 1) * math.pi / z_next - 2.0 * decay * math.pi * z_next)
        if ratio < 0.5:
            cert = t_next / (1.0 - ratio)
            if cert <= 1e-12 * total:
                if (value := scale * total) == 0.0:
                    raise NumericalError(
                        f"gauss_bound underflows for d={d}, alpha={alpha}, rho={rho}")
                return GaussBound(value, m, scale * cert)
        if m == _GAUSS_MAX_TERMS:
            raise ResourceError(
                f"gauss_bound truncation not certified within {_GAUSS_MAX_TERMS} terms "
                f"for d={d}, alpha={alpha}, rho={rho}")


# ---------------------------------------------------------------------------
# Packing bound and the ratio B_d
# ---------------------------------------------------------------------------


def packing_bound(d: int) -> float:
    """Sphere-packing density bound z_1^d/(Gamma(d/2+1)^2 4^d), z_1 the
    first zero of J_{d/2}."""
    d = _integer(d, 1, "dimension must be a positive integer, got {}")
    z1 = bessel_zeros(d / 2.0, 1).zeros[0]
    return math.exp(d * math.log(z1) - 2.0 * math.lgamma(d / 2.0 + 1.0)
                    - d * math.log(4.0))


def bd_ratio(d: int, delta_d: float) -> float:
    """(L_d / Delta_d)^{1/d}: limiting ratio of conjectured to proven
    energy constants as s grows, given the packing density Delta_d."""
    if not 0.0 < delta_d <= 1.0:
        raise DomainError(f"packing density must lie in (0, 1], got {delta_d}")
    return (packing_bound(d) / delta_d) ** (1.0 / d)

