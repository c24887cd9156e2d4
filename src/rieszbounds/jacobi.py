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
solve's last pass does for the rule weights.  The node solve seeds the zeros
by their asymptotic phase, polishes them by Newton and certifies them by
sign changes, in memory linear in the order.  numpy is imported where it is
used, so that importing the package, and constants needing no rule, load none.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError, ResourceError, _integer

__all__ = ["cd_kernel", "family_params", "jacobi_values", "largest_zero", "norm_ratios"]

# Largest polynomial degree given to the node solve or to _top_zero, checked
# before anything is allocated (a rule at the budget takes about 0.5 s), and
# the order from which node seeds take no matrix.  Recurrence tables stop at
# _MAX_ROW = 2 _MAX_ORDER + 1, the largest exact degree of a rule, which
# verify_exactness reads: 190 kB a family, grown as far as asked.
_MAX_ORDER, _DENSE_BELOW = 2000, 64
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
        from array import array
        scale = np.ones(kmax + 1, dtype=np.longdouble)
        for j in range(1, kmax + 1):
            scale[j] = scale[j - 1] * (j + alpha) / j
        table = _COEFFS[alpha, beta] = (*(array("d", c.tobytes()) for c in (
            2.0 * k * (k + s) * (q - 2.0), (q - 1.0) * q * (q - 2.0),
            (q - 1.0) * (alpha * alpha - beta * beta),
            2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * q)), scale)
    return table


def _rows(kmax: int, alpha: float, beta: float, t: np.ndarray, first: int = 0, kern=None,
          weights=None, dtype=float):
    import numpy as np
    # Orders first..kmax, conventionally normalized (C(k+alpha, k) at 1) and
    # divided by that value as stored.  One point runs on numpy scalars, free
    # of per-step array overhead, through the same operations in the same
    # order, so a column does not depend on the points beside it.  Given
    # kern = (r, m, o), it also returns sum_{i < len(r)} r_i P_i(x) P_i(y) at
    # x = t[:m], y = t[o:o + m], added in order in extended precision (in
    # double it lost 6e-16 relative at order 383).  Given weights, each order is reduced
    # to sum_i weights_i P_k(t_i) in extended precision as it is made, and
    # those sums are returned, in memory linear in kmax and the points.
    # dtype=np.longdouble returns the rows unrounded.
    c0, c1, c2, c3, scale = _coeffs(max(kmax, 1), alpha, beta)
    t = np.asarray(t, dtype=float)
    tl = np.longdouble(t.item()) if t.size == 1 else t.astype(np.longdouble).ravel()
    (r, m, o), lo, out, total = kern or ((), 0, 0), 0 if kern else first, [], 0.0
    keep = out.append if weights is None else lambda row: out.append(np.dot(weights, row))
    # orders k-1 and k before rescaling; order 0 is ones shaped like tl
    prev, cur = tl ** 0, (alpha + 1.0) + (alpha + beta + 2.0) * (tl - 1.0) / 2.0
    for k, a0, a1, a2, a3 in zip(range(kmax + 1), c0, c1, c2, c3):
        if k > 1:
            prev, cur = cur, ((a1 * tl + a2) * cur - a3 * prev) / a0
        if k >= lo:
            row = cur / scale[k] if k else prev
            if k < len(r):
                v = np.asarray(row, dtype=float).ravel()
                total = total + r[k] * np.multiply(v[:m], v[o:o + m], dtype=np.longdouble)
            if k >= first:
                keep(row)
    if weights is not None:
        return np.array(out).ravel()
    rows = np.array(out, dtype=dtype).reshape(kmax + 1 - first, tl.size)
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
                first: int = 0, dtype=float) -> np.ndarray:
    import numpy as np
    # Orders first..kmax.  d/dt of the normalized order-k polynomial equals
    # k (k+alpha+beta+1) / (2 (alpha+1)) times the normalized order-(k-1)
    # polynomial of the (alpha+1, beta+1) family.
    lo = max(first, 1)
    shifted = _rows(max(kmax - 1, 0), alpha + 1.0, beta + 1.0, t, lo - 1, dtype=dtype)
    k = np.arange(lo, kmax + 1, dtype=dtype)
    ck = k * (k + alpha + beta + 1.0) / (2.0 * (alpha + 1.0))
    out = ck[:, None] * shifted[:kmax + 1 - lo]
    return out if first else np.vstack((np.zeros((1, t.size), dtype=dtype), out))


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
    kern = (norm_ratios(k, d, a, b), xa.size, pts.size - xa.size)
    vals = _rows(k, alpha, beta, pts, k, kern)[1]
    return float(vals[0]) if np.ndim(x) == 0 == np.ndim(y) else vals.reshape(xa.shape)


def _seeds(k: int, alpha: float, beta: float, r: float):
    import numpy as np
    # The zeros of F, ascending, to a few digits: theta = arccos t solves
    # Phi - c + delta = (m - 1/4) pi, m = 1..k.  Phi: the Liouville-Green
    # phase of the Jacobi equation with Langer's change, in closed form from
    # its turning point lo ((k + 1/2) pi at hi); c = cot(theta)/(8 sqrt(Q)) +
    # 5 Q'/(48 Q^1.5), Q = Phi'^2, its next term; delta: the phase -R P_{k-1}
    # adds, lagging by psi = dPhi/drho, R times as large as Szego's constants.
    rho = k + (alpha + beta + 1.0) / 2.0
    a2, b2, p2 = alpha * alpha / 4.0, beta * beta / 4.0, rho * rho
    bb = p2 + a2 - b2
    root = math.sqrt(bb * bb - 4.0 * p2 * a2)
    lo, hi = (2.0 * math.asin(math.sqrt((bb + sign * root) / (2.0 * p2))) for sign in (-1, 1))
    mu = r * (2 * k + alpha + beta + 1.0) * (2 * k + alpha + beta) / (4.0 * k * (k + beta))
    asin = lambda x: np.arcsin(np.clip(x / root, -1.0, 1.0)) + np.pi / 2.0
    target = (np.arange(1, k + 1) - 0.25) * np.pi
    theta = lo + (hi - lo) * target / ((k + 0.5) * np.pi)
    for _ in range(30):
        sn, cs = np.sin(theta / 2.0), np.cos(theta / 2.0)
        psi = asin(2.0 * p2 * sn * sn - bb)
        phi = (rho * psi - alpha / 2.0 * asin(bb - 2.0 * a2 / (sn * sn))
               + beta / 2.0 * (asin(2.0 * p2 - bb - 2.0 * b2 / (cs * cs)) - np.pi))
        q = np.maximum(p2 - a2 / (sn * sn) - b2 / (cs * cs), 1e-30)
        c = (1.0 / np.tan(theta) + 5.0 * (a2 * cs / sn ** 3 - b2 * sn / cs ** 3) / (12.0 * q))
        step = (phi - c / (8.0 * np.sqrt(q)) - target
                + np.arctan2(mu * np.sin(psi), 1.0 - mu * np.cos(psi))) / np.sqrt(q)
        theta, last = np.clip(theta - step, (lo + theta) / 2.0, (hi + theta) / 2.0), theta
        # with R < 0 the smallest zero may not settle (near -1 it is seeded apart)
        if np.max(np.abs(theta - last)[:k - (r < 0)], initial=0.0) < 1e-10:
            break
    return np.cos(theta[::-1])


def _zeros_raw(k: int, d: int, a: int, b: int, num: int, den: int) -> tuple:
    # The k zeros of F = P_k - R P_{k-1}, R = num/den <= 0, ascending, and
    # Q_{k-1}(t, t) there.  Newton steps on F, formed in extended precision
    # and rounded once, run until the next would be far below an ulp, from
    # seeds: _seeds, and _top_zero on F(-t), whose ratio is R' = -R (k+alpha)
    # / (k+beta), for the smallest zero near -1; below _DENSE_BELOW, two steps from
    # the eigenvalues of the Golub-Welsch matrix shifted to make monic p_k -
    # gamma p_{k-1} ~ F.  The top node is _top_zero's; a parity of F = P_k
    # is kept to the last bit.  The last pass returns the kernel and checks
    # that F changes sign between a point below -1, the nodes' midpoints and 1.
    alpha, beta = family_params(d, a, b)
    top = _top_zero(k, alpha, beta, num, den)
    import numpy as np
    dense = k < _DENSE_BELOW
    if dense:
        # p_{j+1} = (t - a_j) p_j - b_j p_{j-1}: a_j on the diagonal, sqrt(b_j) off it
        s_ab, j = alpha + beta, np.arange(1.0, k)
        q = 2.0 * j + s_ab
        off = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + s_ab) / (q * q * (q * q - 1.0)))
        mat = np.diag(off, 1) + np.diag(off, -1) + np.diag(np.append(
            (beta - alpha) / (s_ab + 2.0), (beta * beta - alpha * alpha) / (q * (q + 2.0))))
        # gamma: R times the ratio of leading coefficients, from their logs
        lead = lambda n: (math.lgamma(2.0 * n + s_ab + 1.0) - n * math.log(2.0)
                          - math.lgamma(n + 1.0) - math.lgamma(n + s_ab + 1.0)) - (
            math.lgamma(n + alpha + 1.0) - math.lgamma(alpha + 1.0) - math.lgamma(n + 1.0))
        mat[k - 1, k - 1] += math.exp(lead(k - 1) - lead(k)) * (num / den)
        nodes = np.linalg.eigvalsh(mat)
    else:
        nodes = _seeds(k, alpha, beta, num / den)
        # R' < 1; the phase misses the smallest zero once rho (1 - R') / R' is
        # small against beta, as it nears -1
        shift = -num / den * (k + alpha) / (k + beta)
        if (1.0 - shift) * (k + (alpha + beta + 1.0) / 2.0) < 4.0 * (beta + 2.0) * shift:
            nodes[0] = -_top_zero(k, beta, alpha, -num * round(2 * k + 2 * alpha),
                                  den * round(2 * k + 2 * beta))
    gap = np.abs(np.diff(nodes))
    gap = np.minimum(np.append(gap, 2.0), np.append(2.0, gap))
    tol = np.sqrt(gap * np.spacing(np.abs(nodes))) / 16.0
    r, live = _ratio(num, den), np.arange(k)
    for i in range(12):
        x = nodes[live]
        pv = _rows(k, alpha, beta, x, k - 1, dtype=np.longdouble)
        dv = _deriv_rows(k, alpha, beta, x, k - 1, dtype=np.longdouble)
        step = (pv[1] - r * pv[0]) / (dv[1] - r * dv[0])
        nodes[live] = (x - step).astype(float)
        live = live[(np.abs(step) > tol[live]) | (i < dense)]
        if not live.size:
            break
    else:
        raise NumericalError(f"node polish failed at polynomial degree {k}")
    nodes.sort()
    if abs(nodes[-1] - top) > 5e-11:
        raise NumericalError(f"largest node drifted from its zero at polynomial degree {k}")
    nodes[-1] = top
    if num == 0 and alpha == beta:
        nodes = (nodes - nodes[::-1]) / 2.0
    pts = np.concatenate((nodes, [-1.0 - 2.0 ** -20], (nodes[1:] + nodes[:-1]) / 2.0))
    pv, diag = _rows(k, alpha, beta, pts, k - 1, (norm_ratios(k - 1, d, a, b), k, 0),
                     dtype=np.longdouble)
    f = pv[1] - r * pv[0]
    if np.any(np.abs(f[:k]) > 1e-10 * max(1.0, abs(num / den))):
        raise NumericalError(f"node polish failed at polynomial degree {k}")
    if not (nodes[0] >= -1.0 and np.all(np.sign(f[k:]) == (-1.0) ** np.arange(k, 0, -1))):
        raise NumericalError(f"node solve lost a zero at polynomial degree {k}")
    return nodes, diag


def _ratio(num: int, den: int):
    # R = num/den in extended precision: the double nearest it plus the
    # double nearest the rest, each an integer ratio rounded once
    import numpy as np
    a, b = (num / den).as_integer_ratio()
    return np.longdouble(num / den) + (num * b - a * den) / (den * b)


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
    r = _ratio(num, den)

    def f(x: float):
        pk1, pk = _rows(k, alpha, beta, np.array([x]), k - 1, dtype=np.longdouble)[:, 0]
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
