"""Jacobi polynomials adapted to spheres.

All polynomials are normalized to equal 1 at t = 1.  A family is
addressed by the sphere dimension d >= 2 and a parameter pair
(a, b) in {0, 1}^2, corresponding to Jacobi parameters
alpha = (d-2)/2 + a, beta = (d-2)/2 + b; (0, 0) is the Gegenbauer
family attached to harmonic analysis on S^d.

Evaluation runs the conventional three-term recurrence in extended
precision on coefficients tabulated once per family.  Norm ratios are the
cumulative product of their exact order-to-order ratio, also in extended
precision; the Christoffel-Darboux kernel, its defining sum of positive
terms on the diagonal, is summed inside a recurrence pass, as the node
solve's last pass does for the rule weights.  numpy is imported where it is
used, so that importing the package, and constants needing no rule, load none.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError, ResourceError, _integer

__all__ = ["cd_kernel", "family_params", "jacobi_values", "largest_zero", "norm_ratios"]

# Largest polynomial degree given to the dense k x k eigen-solve or to
# _top_zero, checked before anything is allocated.  The matrix and
# eigvalsh's copy of it (unseen by tracemalloc) take 16 k^2 bytes, 64 MB at
# the budget: the peak of a node set.  Recurrence tables stop at order
# _MAX_ROW = 2 _MAX_ORDER + 1, the largest exact degree of a rule, which
# verify_exactness reads: 660 kB a family, grown only as far as asked.
_MAX_ORDER = 2000
_MAX_ROW = 2 * _MAX_ORDER + 1
_COEFFS: dict[tuple[float, float], tuple] = {}


def family_params(d: int, a: int, b: int) -> tuple[float, float]:
    """Jacobi (alpha, beta) for the (a, b) family on S^d."""
    _integer(d, 2, "dimension must be an integer >= 2, got {}")
    if a not in (0, 1) or b not in (0, 1):
        raise DomainError(f"family indices must lie in {{0, 1}}, got ({a}, {b})")
    return (d - 2) / 2.0 + a, (d - 2) / 2.0 + b


def _coeffs(kmax: int, alpha: float, beta: float) -> tuple:
    # c0..c3 of the recurrence (read from order 2 on) and C(k+alpha, k), by
    # the operations the recurrence step once ran itself, so rows keep their bits
    if kmax > _MAX_ROW:
        raise ResourceError(f"order {kmax} exceeds the recurrence budget of {_MAX_ROW}")
    table = _COEFFS.get((alpha, beta))
    if table is None or len(table[-1]) <= kmax:
        # at least doubled, so orders asked for one by one cost O(K) in all
        kmax = min(max(kmax, 2 * len(table[-1]) if table else 0), _MAX_ROW)
        import numpy as np
        k = np.arange(kmax + 1.0)
        s = alpha + beta
        q = 2.0 * k + s
        scale = [np.longdouble(1.0)]
        for j in range(1, kmax + 1):
            scale.append(scale[-1] * (j + alpha) / j)
        table = _COEFFS[alpha, beta] = (
            (2.0 * k * (k + s) * (q - 2.0)).tolist(), ((q - 1.0) * q * (q - 2.0)).tolist(),
            ((q - 1.0) * (alpha * alpha - beta * beta)).tolist(),
            (2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * q).tolist(), scale)
    return table


def _rows(kmax: int, alpha: float, beta: float, t: np.ndarray, first: int = 0, kern=None,
          weights=None):
    import numpy as np
    # Orders first..kmax, conventionally normalized (C(k+alpha, k) at 1) and
    # divided by that value as stored.  One point runs on numpy scalars, free
    # of per-step array overhead, through the same operations in the same
    # order, so a column does not depend on the points beside it.  Given
    # kern = (r, m), it also returns sum_{i < len(r)} r_i P_i(x) P_i(y) at x =
    # t[:m], y = t[-m:], added in order in extended precision (in double it
    # lost 6e-16 relative at order 383).  Given weights, each order is reduced
    # to sum_i weights_i P_k(t_i) in extended precision as it is made, and
    # those sums are returned, in memory linear in kmax and the points.
    c0, c1, c2, c3, scale = _coeffs(max(kmax, 1), alpha, beta)
    t = np.asarray(t, dtype=float)
    tl = np.longdouble(t.item()) if t.size == 1 else t.astype(np.longdouble).ravel()
    (r, m), lo, out, total = kern or ((), 0), 0 if kern else first, [], 0.0
    keep = out.append if weights is None else lambda row: out.append(np.dot(weights, row))
    # orders k-1 and k before rescaling; order 0 is ones shaped like tl
    prev, cur = tl ** 0, (alpha + 1.0) + (alpha + beta + 2.0) * (tl - 1.0) / 2.0
    for k in range(kmax + 1):
        if k > 1:
            prev, cur = cur, ((c1[k] * tl + c2[k]) * cur - c3[k] * prev) / c0[k]
        if k >= lo:
            row = cur / scale[k] if k else prev
            if k < len(r):
                v = np.asarray(row, dtype=float).ravel()
                total = total + r[k] * np.multiply(v[:m], v[-m:], dtype=np.longdouble)
            if k >= first:
                keep(row)
    if weights is not None:
        return np.array(out).ravel()
    rows = np.array(out, dtype=float).reshape(kmax + 1 - first, tl.size)
    return (rows, total.astype(float)) if kern else rows


def _check_points(pts: np.ndarray) -> None:
    import numpy as np
    # written so that NaN points fail too
    if not np.all(np.abs(pts) <= 1.0):
        raise DomainError("evaluation points must lie in [-1, 1]")


def jacobi_values(kmax: int, d: int, a: int, b: int, t) -> np.ndarray:
    """All orders 0..kmax of the normalized family at the points t.

    Returns an array of shape (kmax+1, len(t)); scalar t gives
    shape (kmax+1, 1).
    """
    import numpy as np
    kmax = _integer(kmax, 0, "kmax must be >= 0, got {}")
    alpha, beta = family_params(d, a, b)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_points(pts)
    return _rows(kmax, alpha, beta, pts)


def _deriv_rows(kmax: int, alpha: float, beta: float, t: np.ndarray,
                first: int = 0) -> np.ndarray:
    import numpy as np
    # Orders first..kmax.  d/dt of the normalized order-k polynomial equals
    # k (k+alpha+beta+1) / (2 (alpha+1)) times the normalized order-(k-1)
    # polynomial of the (alpha+1, beta+1) family.
    lo = max(first, 1)
    shifted = _rows(max(kmax - 1, 0), alpha + 1.0, beta + 1.0, t, lo - 1)
    k = np.arange(lo, kmax + 1.0)
    ck = k * (k + alpha + beta + 1.0) / (2.0 * (alpha + 1.0))
    out = ck[:, None] * shifted[:kmax + 1 - lo]
    return out if first else np.vstack((np.zeros((1, t.size)), out))


def norm_ratios(kmax: int, d: int, a: int, b: int) -> np.ndarray:
    """Inverse squared norms r_0..r_kmax of the normalized family.

    r_k is 1 over the mean of P_k^2 against the probability measure of
    the family, so the Fourier expansion of a function f reads
    sum_k r_k <f, P_k> P_k and r_0 = 1.  For (a, b) = (0, 0) the r_k are
    the dimensions of the spaces of spherical harmonics.
    """
    import numpy as np
    kmax = _integer(kmax, 0, "kmax must be >= 0, got {}")
    if kmax > _MAX_ROW:
        raise ResourceError(f"order {kmax} exceeds the recurrence budget of {_MAX_ROW}")
    alpha, beta = family_params(d, a, b)
    # r_k / r_{k-1} = (k+alpha)(k+alpha+beta)(2k+alpha+beta+1)
    #                 / (k (k+beta) (2k+alpha+beta-1));
    # in extended precision the products of half-integers are exact, and
    # each order adds two roundings of 2^-64 (the integer r_k at d = 2
    # come out exact)
    k = np.arange(1, kmax + 1, dtype=np.longdouble)
    s = alpha + beta
    step = (k + alpha) * (k + s) * (2 * k + s + 1) / (k * (k + beta) * (2 * k + s - 1))
    return np.cumprod(np.concatenate(([np.longdouble(1)], step))).astype(float)


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


def cd_kernel(k: int, d: int, a: int, b: int, x, y):
    """Reproducing kernel Q_k(x, y) = sum_{i<=k} r_i P_i(x) P_i(y).

    Evaluated as that sum inside one recurrence pass over x and y, in
    memory linear in their size; on the diagonal every term is positive,
    so nothing cancels there.  The tests pin it to the sum at 30 digits.
    """
    import numpy as np
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    xa, ya = np.broadcast_arrays(xa, ya)
    pts = xa if np.array_equal(xa, ya) else np.concatenate((xa, ya), axis=None)
    _check_points(pts)
    k = _integer(k, 0, "order must be >= 0, got {}")
    alpha, beta = family_params(d, a, b)
    vals = _rows(k, alpha, beta, pts, k, (norm_ratios(k, d, a, b), xa.size))[1]
    return float(vals[0]) if np.ndim(x) == 0 == np.ndim(y) else vals.reshape(xa.shape)


def _zeros_raw(k: int, d: int, a: int, b: int, num: int, den: int) -> tuple:
    # Golub-Welsch: the zeros of P_k are the eigenvalues of the k x k
    # recurrence matrix.  The same matrix with its last diagonal entry
    # shifted by gamma has as eigenvalues the zeros of the order-k
    # polynomial F = P_k - R P_{k-1}, R = num/den, gamma being chosen to make
    # monic p_k - gamma p_{k-1} proportional to F.  Two Newton steps on F,
    # evaluated in extended precision from orders k-1 and k alone, tighten
    # each eigenvalue to a residual at rounding level; the largest becomes
    # _top_zero's, and the pass that checks them also returns the kernel
    # Q_{k-1}(t, t) at the nodes.  At R = 0 in a family with alpha = beta,
    # F = P_k is odd or even, and the nodes are made so to the last bit.
    alpha, beta = family_params(d, a, b)
    top = _top_zero(k, alpha, beta, num, den)
    import numpy as np
    # the monic recurrence p_{j+1}(t) = (t - a_j) p_j(t) - b_j p_{j-1}(t):
    # a_j on the diagonal, sqrt(b_j) beside it, set in place on both sides
    s_ab = alpha + beta
    j = np.arange(1.0, k)
    q = 2.0 * j + s_ab
    mat = np.diag(np.append((beta - alpha) / (s_ab + 2.0),
                            (beta * beta - alpha * alpha) / (q * (q + 2.0))))
    off = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + s_ab) / (q * q * (q * q - 1.0)))
    mat.flat[1::k + 1] = off
    mat.flat[k::k + 1] = off
    r = num / den
    mk1 = math.exp(_log_lead(k - 1, alpha, beta) - _log_lead(k, alpha, beta))
    mat[k - 1, k - 1] += mk1 * r
    nodes = np.linalg.eigvalsh(mat)
    for _ in range(2):
        pv = _rows(k, alpha, beta, nodes, k - 1)
        dv = _deriv_rows(k, alpha, beta, nodes, k - 1)
        fval = pv[1] - r * pv[0]
        fder = dv[1] - r * dv[0]
        step = np.where(fder != 0.0, fval / np.where(fder == 0.0, 1.0, fder), 0.0)
        nodes = np.sort(nodes - step)
    if abs(nodes[-1] - top) > 5e-11:
        raise NumericalError(f"largest node drifted from its zero at polynomial degree {k}")
    nodes[-1] = top
    if num == 0 and alpha == beta:
        nodes = (nodes - nodes[::-1]) / 2.0
    pv, diag = _rows(k, alpha, beta, nodes, k - 1, (norm_ratios(k - 1, d, a, b), k))
    if np.any(np.abs(pv[1] - r * pv[0]) > 1e-10 * max(1.0, abs(r))):
        raise NumericalError(f"node polish failed at polynomial degree {k}")
    return nodes, diag


def _top_zero(k: int, alpha: float, beta: float, num: int = 0, den: int = 1) -> float:
    # The largest zero of F = P_k - R P_{k-1}, R = num/den <= 0.  F(1) = 1 - R
    # is positive and no zero of F lies right of its largest, so F is
    # positive, increasing and convex there, and Newton from t = 1 falls
    # monotonically to it.  The first step that does not lower t ends the
    # loop, and the value there must be within 1e-13 of the slope; F is
    # evaluated in extended precision, and of t and its two neighbouring
    # doubles the one with the least |F| is returned.  Order 1 is linear.
    if k > _MAX_ORDER:
        raise ResourceError(
            f"polynomial degree {k} exceeds the eigen-solve budget of {_MAX_ORDER}")
    if k == 1:
        # P_1(t) = 1 + (t - 1)(alpha + beta + 2) / (2 alpha + 2) = R, in integers
        p, q = round(2.0 * alpha + 2.0), round(alpha + beta + 2.0)
        return (den * q + (num - den) * p) / (den * q)
    import numpy as np
    # R in extended precision: the double nearest it plus the double nearest
    # the rest, each an integer ratio rounded once
    hi = num / den
    a, b = hi.as_integer_ratio()
    r = np.longdouble(hi) + (num * b - a * den) / (den * b)
    one = np.ones(1, dtype=np.longdouble)

    def f(x: float):
        pk1, pk = _rows(k, alpha, beta, np.array([x]), k - 1, weights=one)
        return pk - r * pk1

    t = 1.0
    for _ in range(100):
        fv = f(t)
        dpk1, dpk = _deriv_rows(k, alpha, beta, np.array([t]), k - 1)[:, 0]
        dfv = dpk - r * dpk1
        lower = float(t - fv / dfv)
        if not lower < t:
            if abs(fv) <= 1e-13 * max(1.0, abs(dfv)):
                return min((t, math.nextafter(t, -2.0), math.nextafter(t, 2.0)),
                           key=lambda x: abs(f(x)) if x != t else abs(fv))
            break
        t = lower
    raise NumericalError(f"largest zero failed to converge for k={k}, alpha={alpha}, beta={beta}")


_LARGEST_ZERO_CACHE: dict[tuple[int, float, float], float] = {}


def largest_zero(k: int, d: int, a: int, b: int) -> float:
    """Largest zero gamma_k of the order-k family member (k >= 1).

    Memoized per (k, alpha, beta) for the life of the process.
    """
    k = _integer(k, 1, "largest_zero needs k >= 1, got {}")
    alpha, beta = family_params(d, a, b)
    key = (k, alpha, beta)
    z = _LARGEST_ZERO_CACHE.get(key)
    if z is None:
        z = _LARGEST_ZERO_CACHE[key] = _top_zero(k, alpha, beta)
    return z
