"""Jacobi polynomials adapted to spheres.

All polynomials are normalized to equal 1 at t = 1.  A family is
addressed by the sphere dimension d >= 2 and a parameter pair
(a, b) in {0, 1}^2, corresponding to Jacobi parameters
alpha = (d-2)/2 + a, beta = (d-2)/2 + b; (0, 0) is the Gegenbauer
family attached to harmonic analysis on S^(d-1).

Evaluation runs the conventional three-term recurrence in extended
precision and rescales once at the end; norm ratios and leading
coefficient ratios are assembled in log space from lgamma so they stay
finite for every order that fits in a double.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, ResourceError

_LONG = np.longdouble

# Largest polynomial degree given to the dense k x k eigen-solve, checked
# before anything is allocated: the matrix takes 8 k^2 bytes (32 MB at the
# budget), and the Newton polish of all k nodes holds several k x k
# extended-precision arrays besides.
_MAX_ORDER = 2000


def family_params(d: int, a: int, b: int) -> tuple[float, float]:
    """Jacobi (alpha, beta) for the (a, b) family on S^d."""
    if d < 2 or d != int(d):
        raise DomainError(f"dimension must be an integer >= 2, got {d}")
    if a not in (0, 1) or b not in (0, 1):
        raise DomainError(f"family indices must lie in {{0, 1}}, got ({a}, {b})")
    return (d - 2) / 2.0 + a, (d - 2) / 2.0 + b


def _rows(kmax: int, alpha: float, beta: float, t: np.ndarray) -> np.ndarray:
    # Conventional normalization (value C(k+alpha, k) at 1), rescaled to
    # 1 at the right endpoint afterwards.  One point runs on numpy scalars,
    # free of per-step array overhead, through the same operations in the
    # same order, so a column does not depend on the points beside it.
    t = np.asarray(t, dtype=float)
    tl = _LONG(t.item()) if t.size == 1 else t.astype(_LONG).ravel()
    out = [tl ** 0]  # ones shaped like tl
    if kmax >= 1:
        out.append((alpha + 1.0) + (alpha + beta + 2.0) * (tl - 1.0) / 2.0)
    s = alpha + beta
    for k in range(2, kmax + 1):
        c0 = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
        c1 = (2.0 * k + s - 1.0) * (2.0 * k + s) * (2.0 * k + s - 2.0)
        c2 = (2.0 * k + s - 1.0) * (alpha * alpha - beta * beta)
        c3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + s)
        out.append(((c1 * tl + c2) * out[k - 1] - c3 * out[k - 2]) / c0)
    scale = _LONG(1.0)
    for k in range(1, kmax + 1):
        scale = scale * (k + alpha) / k  # C(k+alpha, k) recursively
        out[k] = out[k] / scale
    return np.array(out).astype(float).reshape(kmax + 1, tl.size)


def _check_points(pts: np.ndarray) -> None:
    # written so that NaN points fail too
    if not np.all(np.abs(pts) <= 1.0):
        raise DomainError("evaluation points must lie in [-1, 1]")


def jacobi_values(kmax: int, d: int, a: int, b: int, t) -> np.ndarray:
    """All orders 0..kmax of the normalized family at the points t.

    Returns an array of shape (kmax+1, len(t)); scalar t gives
    shape (kmax+1, 1).
    """
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    alpha, beta = family_params(d, a, b)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_points(pts)
    return _rows(kmax, alpha, beta, pts)


def _deriv_rows(kmax: int, alpha: float, beta: float, t: np.ndarray) -> np.ndarray:
    # d/dt of the normalized order-k polynomial equals
    # k (k+alpha+beta+1) / (2 (alpha+1)) times the normalized order-(k-1)
    # polynomial of the (alpha+1, beta+1) family.
    shifted = _rows(max(kmax - 1, 0), alpha + 1.0, beta + 1.0, t)
    out = np.zeros((kmax + 1, t.size), dtype=float)
    k = np.arange(1.0, kmax + 1.0)
    ck = k * (k + alpha + beta + 1.0) / (2.0 * (alpha + 1.0))
    out[1:] = ck[:, None] * shifted[:kmax]
    return out


def _log_norm_const(alpha: float, beta: float) -> float:
    # log of 2^(alpha+beta+1) B(alpha+1, beta+1), the total mass of the
    # weight (1-t)^alpha (1+t)^beta on [-1, 1]
    return (
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )


def norm_ratios(kmax: int, d: int, a: int, b: int) -> np.ndarray:
    """Inverse squared norms r_0..r_kmax of the normalized family.

    r_k is 1 over the mean of P_k^2 against the probability measure of
    the family, so the Fourier expansion of a function f reads
    sum_k r_k <f, P_k> P_k and r_0 = 1.  For (a, b) = (0, 0) the r_k are
    the dimensions of the spaces of spherical harmonics.
    """
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    alpha, beta = family_params(d, a, b)
    log_lam = _log_norm_const(alpha, beta)
    return np.array([_norm_ratio(k, alpha, beta, log_lam) for k in range(kmax + 1)],
                    dtype=float)


def _norm_ratio(k: int, alpha: float, beta: float, log_lam: float) -> float:
    # r_k of norm_ratios; log_lam is _log_norm_const(alpha, beta)
    log_binom = math.lgamma(k + alpha + 1.0) - math.lgamma(alpha + 1.0) - math.lgamma(k + 1.0)
    log_h = (
        (alpha + beta + 1.0) * math.log(2.0)
        - math.log(2.0 * k + alpha + beta + 1.0)
        + math.lgamma(k + alpha + 1.0)
        + math.lgamma(k + beta + 1.0)
        - math.lgamma(k + alpha + beta + 1.0)
        - math.lgamma(k + 1.0)
    )
    return math.exp(log_lam + 2.0 * log_binom - log_h)


def _log_lead(k: int, alpha: float, beta: float) -> float:
    # leading coefficient of the normalized polynomial, in logs
    log_tilde = (
        math.lgamma(2.0 * k + alpha + beta + 1.0)
        - k * math.log(2.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(k + alpha + beta + 1.0)
    )
    log_binom = math.lgamma(k + alpha + 1.0) - math.lgamma(alpha + 1.0) - math.lgamma(k + 1.0)
    return log_tilde - log_binom


def lead_ratio(k: int, d: int, a: int, b: int) -> float:
    """Ratio of leading coefficients, order k over order k+1.

    Tends to 1/2 as k grows; this is the factor that turns the
    Christoffel-Darboux numerator into the kernel.
    """
    if k < 0:
        raise DomainError(f"order must be >= 0, got {k}")
    alpha, beta = family_params(d, a, b)
    return math.exp(_log_lead(k, alpha, beta) - _log_lead(k + 1, alpha, beta))


def _kernel_ratio(k: int, d: int, a: int, b: int, xr: np.ndarray, yr: np.ndarray,
                  rk: float) -> np.ndarray:
    mk = lead_ratio(k, d, a, b)
    px = jacobi_values(k + 1, d, a, b, xr)
    py = jacobi_values(k + 1, d, a, b, yr)
    return mk * rk * (px[k + 1] * py[k] - px[k] * py[k + 1]) / (xr - yr)


def _kernel_confluent(k: int, d: int, a: int, b: int, pts: np.ndarray,
                      rk: float) -> np.ndarray:
    mk = lead_ratio(k, d, a, b)
    alpha, beta = family_params(d, a, b)
    pv = _rows(k + 1, alpha, beta, pts)
    dv = _deriv_rows(k + 1, alpha, beta, pts)
    return mk * rk * (dv[k + 1] * pv[k] - dv[k] * pv[k + 1])


def cd_kernel(k: int, d: int, a: int, b: int, x, y, method: str = "auto"):
    """Reproducing kernel Q_k(x, y) = sum_{i<=k} r_i P_i(x) P_i(y).

    The default dispatch evaluates the Christoffel-Darboux quotient away
    from the diagonal and the confluent limit at the midpoint when x and
    y are within 1e-6 of each other, where the quotient starts losing
    digits to cancellation.  "ratio" and "confluent" force a single
    branch and raise when fed points the branch cannot handle.  The test
    suite pins the routes against the direct positive-term sum.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    xa, ya = np.broadcast_arrays(xa, ya)
    _check_points(xa)
    _check_points(ya)
    if k < 0:
        raise DomainError(f"order must be >= 0, got {k}")
    alpha, beta = family_params(d, a, b)
    rk = _norm_ratio(k, alpha, beta, _log_norm_const(alpha, beta))
    if method == "auto":
        xr, yr = xa.ravel(), ya.ravel()
        eq = np.abs(xr - yr) <= 1e-6
        vals = np.empty(xr.size, dtype=float)
        if np.any(~eq):
            vals[~eq] = _kernel_ratio(k, d, a, b, xr[~eq], yr[~eq], rk)
        if np.any(eq):
            vals[eq] = _kernel_confluent(k, d, a, b, 0.5 * (xr[eq] + yr[eq]), rk)
    elif method == "ratio":
        diff = xa.ravel() - ya.ravel()
        if np.any(diff == 0.0):
            raise DomainError("ratio form of the kernel needs x != y")
        vals = _kernel_ratio(k, d, a, b, xa.ravel(), ya.ravel(), rk)
    elif method == "confluent":
        if not np.array_equal(xa, ya):
            raise DomainError("confluent form of the kernel needs x == y")
        vals = _kernel_confluent(k, d, a, b, xa.ravel(), rk)
    else:
        raise DomainError(f"unknown kernel method {method!r}")
    if np.asarray(x).ndim == 0 and np.asarray(y).ndim == 0:
        return float(vals[0])
    return vals.reshape(xa.shape)


def _monic_recurrence(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """First n monic recurrence coefficient pairs for the Jacobi weight.

    p_{j+1}(x) = (x - a_j) p_j(x) - b_j p_{j-1}(x); b_0 is set to 0
    (by convention the j = 0 step has no lower term).  Needs n >= 1.
    """
    avals = np.empty(n, dtype=float)
    bvals = np.zeros(n, dtype=float)
    s = alpha + beta
    avals[0] = (beta - alpha) / (s + 2.0)
    for j in range(1, n):
        den = (2.0 * j + s) * (2.0 * j + s + 2.0)
        avals[j] = (beta * beta - alpha * alpha) / den
        q = 2.0 * j + s
        bvals[j] = 4.0 * j * (j + alpha) * (j + beta) * (j + s) / (q * q * (q * q - 1.0))
    return avals, bvals


def _zeros_raw(k: int, alpha: float, beta: float, s: float | None = None,
               top_only: bool = False) -> np.ndarray:
    # Golub-Welsch: the zeros of P_k are the eigenvalues of the k x k
    # recurrence matrix.  Given s, the same matrix with its last diagonal
    # entry shifted by gamma has as eigenvalues the zeros of the order-k
    # polynomial F(t) = P_k(t) P_{k-1}(s) - P_{k-1}(t) P_k(s), gamma being
    # chosen to make monic p_k - gamma p_{k-1} proportional to F; s = None
    # is gamma = 0, F = P_k.  Two Newton steps on F, evaluated in extended
    # precision, tighten each eigenvalue (only the largest with top_only)
    # to a residual at rounding level.
    if k == 0:
        return np.empty(0, dtype=float)
    if k > _MAX_ORDER:
        raise ResourceError(
            f"polynomial degree {k} exceeds the eigen-solve budget of {_MAX_ORDER}")
    avals, bvals = _monic_recurrence(k, alpha, beta)
    mat = np.diag(avals)
    pk_s, pk1_s = 0.0, 1.0
    if s is not None:
        ps = _rows(k, alpha, beta, np.array([s]))
        pk_s = ps[k][0]
        pk1_s = ps[k - 1][0]
        if pk1_s == 0.0:
            raise NumericalError(f"degenerate shift: P_{k-1}({s}) = 0")
        mk1 = math.exp(_log_lead(k - 1, alpha, beta) - _log_lead(k, alpha, beta))
        mat[k - 1, k - 1] += mk1 * pk_s / pk1_s
    if k > 1:
        off = np.sqrt(bvals[1:])
        mat += np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(mat)
    if top_only:
        nodes = nodes[-1:]
    for _ in range(2):
        pv = _rows(k, alpha, beta, nodes)
        dv = _deriv_rows(k, alpha, beta, nodes)
        fval = pv[k] * pk1_s - pv[k - 1] * pk_s
        fder = dv[k] * pk1_s - dv[k - 1] * pk_s
        step = np.where(fder != 0.0, fval / np.where(fder == 0.0, 1.0, fder), 0.0)
        nodes = nodes - step
    pv = _rows(k, alpha, beta, nodes)
    if s is None:
        dv = _deriv_rows(k, alpha, beta, nodes)
        if np.any(np.abs(pv[k]) > 1e-13 * np.maximum(1.0, np.abs(dv[k]))):
            raise NumericalError(
                f"Jacobi zeros failed to converge for k={k}, alpha={alpha}, beta={beta}")
        return nodes
    fval = pv[k] * pk1_s - pv[k - 1] * pk_s
    if np.any(np.abs(fval) > 1e-10 * max(abs(pk_s), abs(pk1_s), 1e-30)):
        raise NumericalError(f"node polish failed at polynomial degree {k}")
    return nodes


def jacobi_zeros(k: int, d: int, a: int, b: int) -> np.ndarray:
    """All k zeros of the order-k family member, ascending."""
    if k < 0:
        raise DomainError(f"order must be >= 0, got {k}")
    alpha, beta = family_params(d, a, b)
    return _zeros_raw(k, alpha, beta)


_LARGEST_ZERO_CACHE: dict[tuple[int, float, float], float] = {}


def largest_zero(k: int, d: int, a: int, b: int) -> float:
    """Largest zero gamma_k of the order-k family member (k >= 1).

    Memoized per (k, alpha, beta) for the life of the process.
    """
    if k < 1:
        raise DomainError(f"largest_zero needs k >= 1, got {k}")
    alpha, beta = family_params(d, a, b)
    key = (k, alpha, beta)
    z = _LARGEST_ZERO_CACHE.get(key)
    if z is None:
        z = _LARGEST_ZERO_CACHE[key] = float(_zeros_raw(k, alpha, beta, top_only=True)[0])
    return z
