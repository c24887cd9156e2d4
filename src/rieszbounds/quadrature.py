"""Levenshtein 1/N-quadrature rules and the cardinality function L(d, s).

The rules integrate low-degree polynomials against the projected sphere
measure using the node t = 1 with weight 1/N plus k interior nodes.  The
interior nodes are the roots of (t - s) Q_{k-1}(t, s) in the (1,0) or
(1,1) kernel family, where s solves N = L(d, s); they are computed as
eigenvalues of the k x k recurrence matrix with its last diagonal entry
shifted, which makes the endpoint cardinalities N = D(d, tau+1)
degenerate exactly to plain Jacobi-zero rules.  numpy is imported where
it is used, as in jacobi.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import DomainError, NumericalError, ResourceError
from . import jacobi
from .jacobi import cd_kernel, family_params

__all__ = ["QuadratureRule", "build_rule", "dgs_bound", "lev_branch", "lev_function",
           "solve_s_for_n", "verify_exactness"]


def dgs_bound(d: int, tau: int) -> int:
    """Minimal cardinality D(d, tau) admitting a tau-design bound.

    D(d, 2k-1) = 2 C(d+k-1, d) and D(d, 2k) = C(d+k, d) + C(d+k-1, d),
    in exact integer arithmetic.
    """
    if d < 1 or d != int(d):
        raise DomainError(f"dgs_bound requires d >= 1, got {d}")
    if tau < 1 or tau != int(tau):
        raise DomainError(f"dgs_bound requires tau >= 1, got {tau}")
    k = (tau + 1) // 2
    if tau % 2 == 1:
        return 2 * math.comb(d + k - 1, d)
    return math.comb(d + k, d) + math.comb(d + k - 1, d)


def lev_branch(d: int, tau: int, s) -> float:
    """Single branch L_tau(d, s) evaluated without interval checks.

    Adjacent branches agree where their intervals meet, and the common
    value there is the design cardinality dgs_bound(d, tau + 1).
    """
    if not 1 <= tau < math.inf or tau != int(tau):
        raise DomainError(f"lev_branch requires an integer tau >= 1, got {tau}")
    # an even branch is 0/0 at s = -1, where P_k and P_{k+1} cancel
    if not -1.0 <= s < 1.0 or s == -1.0 and tau % 2 == 0:
        raise DomainError(f"lev_branch requires s in [-1, 1), above -1 for even tau, got {s}")
    k = (int(tau) + 1) // 2
    # the Gegenbauer orders k-1, k and k+1 at s
    p_prev, pk, p_next = jacobi._rows(k + 1, *family_params(d, 0, 0), [s], k - 1)[:, 0]
    if tau % 2 == 1:
        val = (2.0 * k + d - 2.0) / d - (p_prev - pk) / ((1.0 - s) * pk)
        return math.comb(k + d - 2, k - 1) * val
    num = (1.0 + s) * (pk - p_next)
    den = (1.0 - s) * (pk + p_next)
    val = (2.0 * k + d) / d - num / den
    return math.comb(k + d - 1, k) * val


def _first_true(pred, cap: float = math.inf) -> int | None:
    # smallest j >= 1 with pred(j), for pred false below some j and true
    # from there on, by galloping over j = 1, 2, 4, ... (at most cap) and
    # then bisecting; None when pred(cap) is false
    lo, hi = 0, 1
    while not pred(hi):
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _end(d: int, tau: int) -> float:
    # right end of I_tau: the largest zero of P_k^{1,0} for tau = 2k - 1
    # and of P_k^{1,1} for tau = 2k; I_0 ends at -1
    return jacobi.largest_zero((tau + 1) // 2, d, 1, 1 - tau % 2) if tau else -1.0


def _resolve_interval(d: int, s: float) -> int:
    # smallest tau with s in I_tau: the intervals partition [-1, 1), and
    # their right ends rise strictly with tau up to the order budget
    tau = _first_true(lambda t: s <= _end(d, t), 2 * jacobi._MAX_ORDER)
    if tau is None:
        raise ResourceError(f"lev_function at s={s} needs an order above the budget of "
                            f"{jacobi._MAX_ORDER} for d={d}")
    return tau


def lev_function(d: int, s: float) -> float:
    """Levenshtein cardinality bound L(d, s) for largest inner product s.

    Continuous and nondecreasing on [-1, 1); equals D(d, tau+1) at the
    interval endpoints (the largest zeros of the adjacent-parameter
    Jacobi polynomials).
    """
    if not -1.0 <= s < 1.0:
        raise DomainError(f"lev_function requires s in [-1, 1), got {s}")
    return lev_branch(d, _resolve_interval(d, s), s)


def _resolve_tau(d: int, n) -> int:
    # smallest tau with N <= D(d, tau+1), over the increasing D(d, .); N
    # must be finite
    return _first_true(lambda t: n <= dgs_bound(d, t + 1))


# Half-width of the window around the root, relative to max(|s|, 1/2),
# inside which bisection evaluates the sign of L(d, s) - N instead of
# reading it off the root: 8 to 16 doubles for s >= 1/2, 8.9e-16 below.
# Rounding in lev_branch put sign changes at most 1.7e-16 from the root
# in a scan of 550 (d, N) pairs, d in {2, 3, 4, 8}, N up to 2e4, and the
# window held the sign change in all 26,982 solves of a scan over
# d in {2, 3, 4, 5, 8, 16} and N up to 2e6.  Should it ever miss, the
# pair bisection ends on has no sign change and solve_s_for_n refuses.
_WINDOW = 2.0**-49


def _bisect_pair(f, lo: float, hi: float, root: float, w: float) -> tuple[float, float]:
    # the adjacent doubles a < b that bisection of [lo, hi] on the sign of
    # f ends on, or (m, m) for a midpoint m where f vanishes; midpoints
    # farther than w from root take the sign of m - root unevaluated
    a, b = lo, hi
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return a, b
        fm = f(m) if abs(m - root) <= w else m - root
        if fm == 0.0:
            return m, m
        if fm < 0.0:
            a = m
        else:
            b = m


def solve_s_for_n(d: int, n: float) -> float:
    """The unique s with L(d, s) = N, for finite N >= D(d, 1) = 2.

    Endpoint cardinalities N = D(d, tau+1) return the largest zero of
    the corresponding adjacent Jacobi polynomial directly (machine
    precision).  Interior N are bracketed in their interval, where
    safeguarded secant steps locate the root; bisection of the bracket
    then finds the pair of adjacent doubles around the sign change of
    L(d, s) - N, evaluating L only near the root, and up to three steps
    along the last secant slope finish to |L(d,s) - N| below 1e-11.
    """
    if not 2 <= n < math.inf:
        raise DomainError(f"solve_s_for_n requires finite N >= 2, got {n}")
    if n == 2:
        return -1.0
    tau = _resolve_tau(d, n)
    # s lies in I_tau = (lo, hi], and at N = D(d, tau+1) it is hi itself
    hi = _end(d, tau)
    if n == dgs_bound(d, tau + 1):
        return hi
    lo = _end(d, tau - 1)
    fvals: dict[float, float] = {}

    def f(x: float) -> float:
        if x not in fvals:
            fvals[x] = lev_branch(d, tau, x) - n
        return fvals[x]

    # L rises from D(d, tau) at lo to D(d, tau+1) at hi.  Secant steps
    # start from (lo, D(d, tau) - N) and the regula falsi point of the end
    # values, and bisect the bracket [a, b] whenever a step leaves it or
    # its two points coincide in x or in f.  They stop once the step, or
    # the next step, which superlinear convergence keeps below
    # step^2 / last, is inside the window.
    d_lo, d_hi = dgs_bound(d, tau), dgs_bound(d, tau + 1)
    a, b = lo, hi
    x_prev, f_prev = lo, float(d_lo - n)
    x = lo + (n - d_lo) * (hi - lo) / (d_hi - d_lo)
    last = slope = 0.0
    for _ in range(100):
        fx = f(x)
        if fx < 0.0:
            a = x
        elif fx > 0.0:
            b = x
        if x == x_prev or fx == f_prev:
            step = x - 0.5 * (a + b)
        else:
            slope = (fx - f_prev) / (x - x_prev)
            step = fx / slope
        root = float(x - step)
        w = _WINDOW * max(abs(root), 0.5)
        if abs(step) <= w or step * step <= 0.125 * w * last:
            break
        last = abs(step)
        x_prev, f_prev = x, fx
        x = root if a < root < b else 0.5 * (a + b)
    a, b = _bisect_pair(f, lo, hi, root, w)
    if a == b:
        return a
    if not f(a) < 0.0 < f(b):
        raise NumericalError(f"bracket failure solving L({d}, s) = {n} in branch {tau}")
    s = a if abs(f(a)) <= abs(f(b)) else b
    for _ in range(3):
        step = s if slope == 0.0 else min(max(s - f(s) / slope, lo), hi)
        if step == s:
            break
        s = float(step)
    if abs(f(s)) > 1e-11 * max(1.0, n):
        raise NumericalError(f"Levenshtein inversion stalled for d={d}, N={n}")
    return s


@dataclass(frozen=True)
class QuadratureRule:
    """1/N-quadrature rule: node 1 with weight 1/N plus interior nodes.

    Nodes are stored strictly decreasing.  ``parity``, ``endpoint`` (N is
    D(d, tau+1)) and ``exact_degree`` (tau, or tau + 1 at an endpoint)
    follow from the resolved strength ``tau``.
    """

    d: int
    n: int
    tau: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    # always False: the exactness-system fallback it flagged was never
    # reached; the field stays because the benchmark tracer reads it
    weight_fallback: bool = field(default=False)

    @property
    def parity(self) -> str:
        return "odd" if self.tau % 2 else "even"

    @property
    def endpoint(self) -> bool:
        return self.n == dgs_bound(self.d, self.tau + 1)

    @property
    def exact_degree(self) -> int:
        return self.tau + 1 if self.endpoint else self.tau

    def validate(self) -> None:
        if any(w <= 0.0 for w in self.weights):
            raise NumericalError(f"rule for d={self.d}, N={self.n} has nonpositive weights")
        if any(x >= 1.0 for x in self.nodes):
            raise NumericalError(f"rule for d={self.d}, N={self.n} has a node >= 1")
        if any(a <= b for a, b in zip(self.nodes, self.nodes[1:])):
            raise NumericalError(f"rule for d={self.d}, N={self.n} nodes not decreasing")
        total = 1.0 / self.n + math.fsum(self.weights)
        if abs(total - 1.0) >= 1e-12:
            raise NumericalError(
                f"rule for d={self.d}, N={self.n} weight sum off by {total - 1.0:.3e}"
            )


def build_rule(d: int, n: int) -> QuadratureRule:
    """Construct the 1/N-quadrature rule for N points on S^d.

    Resolves tau with N in (D(d,tau), D(d,tau+1)], solves N = L(d,s),
    and places the interior nodes and weights of the matching parity
    case.  Even strength appends the node -1.  The returned rule is
    validated: positive weights, decreasing nodes, weight sum 1 - 1/N.
    """
    if not abs(n) < math.inf:
        raise DomainError(f"build_rule requires a finite N, got {n}")
    if n != int(n):
        raise DomainError(f"build_rule requires integer N, got {n}")
    n = int(n)
    if n < 2:
        raise DomainError(f"build_rule requires N >= 2, got {n}")
    tau = _resolve_tau(d, n)
    k = (tau + 1) // 2
    s = solve_s_for_n(d, n)
    odd = tau % 2 == 1
    # interior nodes: zeros of the shifted (1, 0) family polynomial for odd
    # tau, of the (1, 1) family for even tau, the largest pinned to s
    b = 0 if odd else 1
    import numpy as np
    interior, diag = jacobi._zeros_raw(k, d, 1, b, s)
    if abs(interior[-1] - s) > 5e-11:
        raise NumericalError(f"largest node drifted from s at polynomial degree {k}")
    interior[-1] = s
    # Christoffel weights of the family measure (1 - t)(1 + t)^b dmu_d,
    # whose mass is 1 for odd tau and 1 - mu_2 = d/(d+1) for even tau,
    # from the order-(k-1) kernel matching the node polynomial (at s for the
    # top node), in extended precision, which halves the worst error to 1 ulp
    t = interior.astype(np.longdouble)
    mass = np.longdouble(1.0) if odd else np.longdouble(d) / (d + 1)
    factor = (1.0 - t) if odd else (1.0 - t) * (1.0 + t)
    weights = (mass / (factor * np.delete(diag, -2))).astype(float)[::-1]
    nodes = interior[::-1]
    if not odd:
        # weight at the node -1 from the Gegenbauer kernel determinant.
        # q_m1 q_sm < 0 on the even-strength intervals (pinned by a test
        # up to degree 300), so den > q_mm q_s1 > 0 and cannot cancel
        q_s1, q_mm, q_m1, q_sm = cd_kernel(k, d, 0, 0, [s, -1.0, -1.0, s], [1.0, -1.0, 1.0, -1.0])
        den = q_mm * q_s1 - q_m1 * q_sm
        nodes = np.concatenate((nodes, [-1.0]))
        weights = np.concatenate((weights, [q_s1 / den]))
    rule = QuadratureRule(d=d, n=n, tau=tau, nodes=tuple(float(x) for x in nodes),
                          weights=tuple(float(w) for w in weights))
    rule.validate()
    return rule


def _even_moments(d: int) -> Iterator[tuple[int, int]]:
    # mu_0, mu_2, mu_4, ... as exact (numerator, denominator) pairs:
    # mu_{2p} = prod_{i=1}^{p} (2i-1)/(2i+d-1), each carried from the one
    # before; int true division rounds num / den once, correctly
    num = den = 1
    for i in itertools.count(1):
        yield num, den
        num *= 2 * i - 1
        den *= 2 * i + d - 1


def verify_exactness(rule: QuadratureRule, max_degree: int) -> float:
    """Worst defect of the rule on monomials t^j, j = 0..max_degree.

    Compares f(1)/N + sum w_i f(x_i) against the closed-form moment for
    each monomial and returns the largest absolute gap.
    """
    if max_degree < 0:
        raise DomainError(f"max_degree must be >= 0, got {max_degree}")
    import numpy as np
    nodes = np.array(rule.nodes, dtype=np.longdouble)
    weights = np.array(rule.weights, dtype=np.longdouble)
    worst = 0.0
    powers = np.ones_like(nodes)
    moments = _even_moments(rule.d)
    for j in range(max_degree + 1):
        if j > 0:
            powers = powers * nodes
        val = float(1.0 / np.longdouble(rule.n) + np.sum(weights * powers))
        num, den = next(moments) if j % 2 == 0 else (0, 1)
        worst = max(worst, abs(val - num / den))
    return worst
