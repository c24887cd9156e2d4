"""Levenshtein 1/N-quadrature rules and the cardinality function L(d, s).

The rules integrate low-degree polynomials against the projected sphere
measure using the node t = 1 with weight 1/N plus k interior nodes.  The
interior nodes are the roots of (t - s) Q_{k-1}(t, s) in the (1,0) or
(1,1) kernel family, where s solves N = L(d, s); they are computed as
eigenvalues of the k x k recurrence matrix with its last diagonal entry
shifted, which makes the endpoint cardinalities N = D(d, tau+1)
degenerate exactly to plain Jacobi-zero rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericalError
from . import jacobi
from .jacobi import _log_norm_const, cd_kernel, family_params, jacobi_values
from .special import lambda_d

_LONG = np.longdouble


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
    k = (tau + 1) // 2
    p = jacobi_values(k + 1, d, 0, 0, s)
    pk = p[k][0]
    if tau % 2 == 1:
        num = p[k - 1][0] - pk
        val = (2.0 * k + d - 2.0) / d - num / ((1.0 - s) * pk)
        return math.comb(k + d - 2, k - 1) * val
    num = (1.0 + s) * (pk - p[k + 1][0])
    den = (1.0 - s) * (pk + p[k + 1][0])
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


def _resolve_interval(d: int, s: float) -> int:
    # smallest tau with s in I_tau; the intervals partition [-1, 1).  Their
    # right ends gamma_1^{1,0} < gamma_1^{1,1} < gamma_2^{1,0} < ... increase,
    # so k is the smallest order with s <= gamma_k^{1,1}
    k = _first_true(lambda j: s <= jacobi.largest_zero(j, d, 1, 1), jacobi._MAX_ORDER)
    if k is None:
        raise NumericalError(f"interval resolution ran away for d={d}, s={s}")
    return 2 * k - 1 if s <= jacobi.largest_zero(k, d, 1, 0) else 2 * k


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
# in a scan of 550 (d, N) pairs, d in {2, 3, 4, 8}, N up to 2e4.  Should
# the window miss the sign change, solve_s_for_n bisects in full.
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
    k = (tau + 1) // 2
    if n == dgs_bound(d, tau + 1):
        # right endpoint: s is the largest zero of P_k^{1,0} (tau odd)
        # or P_k^{1,1} (tau even)
        return jacobi.largest_zero(k, d, 1, 0 if tau % 2 == 1 else 1)
    if tau % 2 == 1:
        lo = -1.0 if k == 1 else jacobi.largest_zero(k - 1, d, 1, 1)
        hi = jacobi.largest_zero(k, d, 1, 0)
    else:
        lo = jacobi.largest_zero(k, d, 1, 0)
        hi = jacobi.largest_zero(k, d, 1, 1)
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
    if a < b and not f(a) < 0.0 < f(b):
        # the sign change lies outside the window: bisect in full
        a, b = _bisect_pair(f, lo, hi, root, math.inf)
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

    Nodes are stored strictly decreasing; ``tau`` is the resolved
    strength parameter and ``exact_degree`` the actual polynomial
    exactness (tau, or tau + 1 at endpoint cardinalities).
    """

    d: int
    n: int
    tau: int
    parity: str
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    includes_minus_one: bool
    endpoint: bool
    # always False: the exactness-system fallback it flagged was never
    # reached; the field stays because the benchmark tracer reads it
    weight_fallback: bool = field(default=False)

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
    endpoint = n == dgs_bound(d, tau + 1)
    lam_d = lambda_d(d)
    odd = tau % 2 == 1
    # interior nodes: zeros of the shifted (1, 0) family polynomial for odd
    # tau, of the (1, 1) family for even tau, the largest pinned to s
    b = 0 if odd else 1
    alpha, beta = family_params(d, 1, b)
    if n == 2:
        interior = np.array([-1.0])
    else:
        interior = jacobi._zeros_raw(k, alpha, beta, s)
    interior = np.sort(interior)
    if abs(interior[-1] - s) > 5e-11:
        raise NumericalError(f"largest node drifted from s at polynomial degree {k}")
    interior[-1] = s
    lam_1b = math.exp(_log_norm_const(alpha, beta))
    # kernel order k-1, matching the node polynomial; the order-k
    # diagonal breaks the weight-sum identity away from endpoint
    # cardinalities (checked: d=2, N=5 gives weight sum 0.96)
    qdiag = np.atleast_1d(cd_kernel(k - 1, d, 1, b, interior, interior, "confluent"))
    # the family weight (1 - t)(1 + t)^b; (1 - t)(1 + t) would round
    # differently from 1 - t*t and move the even-tau weights
    factor = (1.0 - interior) if odd else (1.0 - interior * interior)
    weights = lam_1b / (lam_d * factor * qdiag)
    nodes = interior[::-1]
    weights = weights[::-1]
    if not odd:
        # weight at the node -1 from the Gegenbauer kernel determinant.
        # q_m1 q_sm < 0 on the even-strength intervals (pinned by a test
        # up to degree 300), so den > q_mm q_s1 > 0 and cannot cancel
        q_s1 = cd_kernel(k, d, 0, 0, s, 1.0, "ratio")
        q_mm = cd_kernel(k, d, 0, 0, -1.0, -1.0, "confluent")
        q_m1 = cd_kernel(k, d, 0, 0, -1.0, 1.0, "ratio")
        q_sm = cd_kernel(k, d, 0, 0, s, -1.0, "ratio")
        den = q_mm * q_s1 - q_m1 * q_sm
        nodes = np.concatenate((nodes, [-1.0]))
        weights = np.concatenate((weights, [q_s1 / den]))
    rule = QuadratureRule(
        d=d,
        n=n,
        tau=tau,
        parity="odd" if odd else "even",
        nodes=tuple(float(x) for x in nodes),
        weights=tuple(float(w) for w in weights),
        includes_minus_one=bool(nodes[-1] == -1.0),
        endpoint=endpoint,
    )
    rule.validate()
    return rule


def gegenbauer_moment(d: int, j: int) -> float:
    """Normalized moment of t^j against the projected sphere measure.

    Odd moments vanish; mu_{2p} = prod_{i=1}^{p} (2i-1)/(2i+d-1),
    evaluated in exact rational arithmetic.
    """
    if j < 0:
        raise DomainError(f"moment degree must be >= 0, got {j}")
    if j % 2 == 1:
        return 0.0
    acc = Fraction(1)
    for i in range(1, j // 2 + 1):
        acc *= Fraction(2 * i - 1, 2 * i + d - 1)
    return float(acc)


def verify_exactness(rule: QuadratureRule, max_degree: int) -> float:
    """Worst defect of the rule on monomials t^j, j = 0..max_degree.

    Compares f(1)/N + sum w_i f(x_i) against the closed-form moment for
    each monomial and returns the largest absolute gap.
    """
    if max_degree < 0:
        raise DomainError(f"max_degree must be >= 0, got {max_degree}")
    nodes = np.array(rule.nodes, dtype=_LONG)
    weights = np.array(rule.weights, dtype=_LONG)
    worst = 0.0
    powers = np.ones_like(nodes)
    for j in range(max_degree + 1):
        if j > 0:
            powers = powers * nodes
        val = float(1.0 / _LONG(rule.n) + np.sum(weights * powers))
        defect = abs(val - gegenbauer_moment(rule.d, j))
        if defect > worst:
            worst = defect
    return worst


def separation_bound(d: int, n: int) -> float:
    """Largest quadrature node: no N-point set has all inner products below it."""
    if not 2 <= n < math.inf or n != int(n):
        raise DomainError(f"separation_bound requires integer N >= 2, got {n}")
    return solve_s_for_n(d, n)
