"""Levenshtein 1/N-quadrature rules and the cardinality function L(d, s).

The rules integrate low-degree polynomials against the projected sphere
measure using the node t = 1 with weight 1/N plus k interior nodes.  The
interior nodes are the roots of (t - s) Q_{k-1}(t, s) in the (1,0) or
(1,1) kernel family, where s solves N = L(d, s): the zeros of P_k - R P_{k-1}
with R = P_k(s)/P_{k-1}(s), which is an exact rational function of N, so a
rule is built from N alone.  jacobi seeds them asymptotically (from order
64 on, in memory linear in k), polishes them by Newton and certifies that
no zero is lost; at the endpoint cardinalities N = D(d, tau+1), R = 0 and
the rules are plain Jacobi-zero rules.  numpy is imported where it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, NumericalError, ResourceError, _integer
from . import jacobi
from .jacobi import cd_kernel, family_params

__all__ = ["QuadratureRule", "build_rule", "dgs_bound", "lev_branch", "lev_function",
           "solve_s_for_n", "verify_exactness"]


def dgs_bound(d: int, tau: int) -> int:
    """Minimal cardinality D(d, tau) admitting a tau-design bound.

    D(d, 2k-1) = 2 C(d+k-1, d) and D(d, 2k) = C(d+k, d) + C(d+k-1, d),
    in exact integer arithmetic.
    """
    d = _integer(d, 1, "dgs_bound requires d >= 1, got {}")
    tau = _integer(tau, 1, "dgs_bound requires tau >= 1, got {}")
    k = (tau + 1) // 2
    if tau % 2 == 1:
        return 2 * math.comb(d + k - 1, d)
    return math.comb(d + k, d) + math.comb(d + k - 1, d)


def lev_branch(d: int, tau: int, s) -> float:
    """Single branch L_tau(d, s) evaluated without interval checks.

    Adjacent branches agree where their intervals meet, and the common
    value there is the design cardinality dgs_bound(d, tau + 1).
    """
    tau = _integer(tau, 1, "lev_branch requires an integer tau >= 1, got {}")
    # an even branch is 0/0 at s = -1, where P_k and P_{k+1} cancel
    if not -1.0 <= s < 1.0 or s == -1.0 and tau % 2 == 0:
        raise DomainError(f"lev_branch requires s in [-1, 1), above -1 for even tau, got {s}")
    k = (tau + 1) // 2
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


def _node_ratio(d: int, n, tau: int) -> tuple[int, int]:
    # R = P_k(s) / P_{k-1}(s) = num / den in integers, in the rule's family
    # ((1, 0) for tau = 2k - 1, (1, 1) for tau = 2k), at L_tau(d, s) = N =
    # p/q.  DLMF 18.9.5-18.9.6 make each branch a Moebius map of R.  Odd:
    # L = M (1 - P^{(1,0)}_{k-1}/P^{(0,0)}_k) with M = C(k+d-2, k-1)(2k+d-2)/d
    # and P^{(0,0)}_k = (A R - B) P^{(1,0)}_{k-1}, so R = (M/(M - N) + B)/A,
    # A = (k+d-1)(2k+d)/(d(2k+d-1)), B = k(2k+d-2)/(d(2k+d-1)).  Even: R =
    # k(1 + rho)/((k+d)(rho - 1)), rho = (M' - N)(2k+d)/(d M'), M' = C(k+d-1,
    # k)(2k+d)/d.  R is 0 at N = D(d, tau+1) and negative inside the interval.
    p, q = (int(n), 1) if n == int(n) else float(n).as_integer_ratio()
    k = (tau + 1) // 2
    if tau % 2:
        m = math.comb(k + d - 2, k - 1) * (2 * k + d - 2)  # d M
        e = m * q - p * d  # d q (M - N)
        return (m * q * d * (2 * k + d - 1) + k * (2 * k + d - 2) * e,
                e * (k + d - 1) * (2 * k + d))
    c = math.comb(k + d - 1, k)
    g, h = c * (2 * k + d) * q - p * d, c * d * q  # rho = g / h
    return k * (h + g), (k + d) * (g - h)


def solve_s_for_n(d: int, n: float) -> float:
    """The unique s with L(d, s) = N, for finite N >= D(d, 1) = 2.

    With tau the strength of N, s is the largest zero of P_k - R P_{k-1}
    in the (1, 0) family for odd tau and the (1, 1) family for even tau,
    where R is an exact rational function of N: Newton from t = 1 on that
    polynomial, in extended precision.  At N = D(d, tau+1), R = 0 and s is
    the largest zero of P_k.
    """
    if not 2 <= n < math.inf:
        raise DomainError(f"solve_s_for_n requires finite N >= 2, got {n}")
    tau = _resolve_tau(d, n)
    alpha, beta = family_params(d, 1, 1 - tau % 2)
    return jacobi._top_zero((tau + 1) // 2, alpha, beta, *_node_ratio(d, n, tau))


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

    Resolves tau with N in (D(d,tau), D(d,tau+1)], takes the ratio R of
    N = L(d,s) exactly from N, and places the interior nodes (the largest
    is s) and weights of the matching parity case.  Even strength appends
    the node -1.  The returned rule is validated: positive weights,
    decreasing nodes, weight sum 1 - 1/N.
    """
    n = _integer(n, 2, "build_rule requires N >= 2, got {}")
    tau = _resolve_tau(d, n)
    k = (tau + 1) // 2
    odd = tau % 2 == 1
    # interior nodes: zeros of the shifted (1, 0) family polynomial for odd
    # tau, of the (1, 1) family for even tau, the largest of them s
    interior, diag = jacobi._zeros_raw(k, d, 1, 1 - tau % 2, *_node_ratio(d, n, tau))
    s = interior[-1]
    import numpy as np
    # Christoffel weights of the family measure (1 - t)(1 + t)^b dmu_d,
    # whose mass is 1 for odd tau and 1 - mu_2 = d/(d+1) for even tau,
    # from the order-(k-1) kernel matching the node polynomial (at s for the
    # top node), in extended precision, which halves the worst error to 1 ulp
    t = interior.astype(np.longdouble)
    mass = np.longdouble(1.0) if odd else np.longdouble(d) / (d + 1)
    factor = (1.0 - t) if odd else (1.0 - t) * (1.0 + t)
    weights = (mass / (factor * diag)).astype(float)[::-1]
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


def verify_exactness(rule: QuadratureRule, max_degree: int) -> float:
    """Worst defect of the rule on the Gegenbauer polynomials of S^d.

    Returns the largest |1/N + sum_i w_i P_j(x_i) - [j = 0]| over j =
    0..max_degree, P_j the (0, 0) family normalized at 1, evaluated by the
    extended-precision recurrence that builds the rules and summed against
    the weights one order at a time.  Degrees up to the rule's exact_degree
    integrate exactly.
    """
    max_degree = _integer(max_degree, 0, "max_degree must be >= 0, got {}")
    import numpy as np
    sums = jacobi._rows(max_degree, *family_params(rule.d, 0, 0), rule.nodes,
                        weights=np.array(rule.weights, dtype=np.longdouble))
    sums[0] -= 1.0
    return float(np.max(np.abs(sums + 1.0 / np.longdouble(rule.n))))
