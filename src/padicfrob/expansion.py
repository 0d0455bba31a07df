"""Combinatorial oracles for Laurent-expansion coefficients.

Two hypersurface families are covered.  The simplicial family lives in
n variables with support monomials x_1, ..., x_n and 1/(x_1...x_n);
exponent bookkeeping uses (n+1)-tuples U determined up to shifts along
(1, ..., 1) and normalized to min(U) = 0.  The hyperoctahedral family
has support x_i^{+-1} and uses plain signed exponent vectors.

Everything here is exact and independent of the series machinery used
by the Frobenius solver, so the closed coefficient formulas can be
validated against brute-force expansion of 1/f^m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .padic_core import _Record, multinomial
from .qseries import PowerSeries

BRUTE_FORCE_MAX_N = 3
BRUTE_FORCE_MAX_CELLS = 9
BRUTE_FORCE_MAX_ORDER = 30


class BoxTooLarge(ValueError):
    """Brute-force expansion request exceeds the hard-coded bounds."""


def normalize_shift(U: Sequence[int]) -> tuple:
    """Shift along (1, ..., 1) so that min(U) = 0."""
    lo = min(U)
    return tuple(x - lo for x in U)


def to_laurent(U: Sequence[int]) -> tuple:
    """Laurent exponent vector (U_1 - U_0, ..., U_n - U_0)."""
    return tuple(x - U[0] for x in U[1:])


class CoeffMap(_Record):
    """Finite window of a formal expansion sum c_u(t) x^u."""

    def __init__(self, family: str, n: int, box: tuple, order: int,
                 data: dict | None = None):
        self.family = family
        self.n = n
        self.box = box
        self.order = order
        self.data = {} if data is None else data

    def coefficient(self, u: Sequence[int]) -> PowerSeries:
        return self.data.get(tuple(u), PowerSeries.zero(self.order))


def simplicial_coeff_series(U: Sequence[int], V: Sequence[int],
                            N: int, M: int) -> PowerSeries:
    """Coefficient of x^{NV} in |U|! t^{|U|} x^U / f^{|U|+1} for the
    simplicial family, as an exact series mod t^M.

    The closed form is |U|! sum_l t^{N|V| + (n+1)l} multinomial over
    the parts (N V_i - U_i + l) together with one extra part |U|.
    """
    U = normalize_shift(U)
    V = normalize_shift(V)
    if len(U) != len(V):
        raise ValueError("U and V must have the same length")
    npl = len(U)
    wU = sum(U)
    base = N * sum(V)
    coeffs = [0] * M
    scale = math.factorial(wU)
    k = 0
    while base + npl * k < M:
        parts = [N * V[i] - U[i] + k for i in range(npl)] + [wU]
        coeffs[base + npl * k] = scale * multinomial(parts)
        k += 1
    return PowerSeries(coeffs, M)


def _as_box(box, n: int) -> tuple:
    """Accept a radius (cube [-b, b]^n) or an explicit (lo, hi) pair."""
    if isinstance(box, int):
        return ((-box,) * n, (box,) * n)
    lo, hi = tuple(box[0]), tuple(box[1])
    if len(lo) != n or len(hi) != n or any(a > b for a, b in zip(lo, hi)):
        raise ValueError("malformed box")
    return (lo, hi)


def _check_box(n: int, box: tuple, M: int):
    lo, hi = box
    cells = 1
    for a, b in zip(lo, hi):
        cells *= b - a + 1
    if n > BRUTE_FORCE_MAX_N or cells > BRUTE_FORCE_MAX_CELLS ** n \
            or M > BRUTE_FORCE_MAX_ORDER:
        raise BoxTooLarge("limits: n <= %d, cells <= %d^n, M <= %d"
                          % (BRUTE_FORCE_MAX_N, BRUTE_FORCE_MAX_CELLS,
                             BRUTE_FORCE_MAX_ORDER))


def _compositions(total: int, lows: Sequence[int], highs: Sequence[int]):
    """The compositions of total into len(lows) parts with lows[i] <=
    part i <= highs[i], in lexicographic order; every part is >= 0."""
    lows = [max(x, 0) for x in lows]
    if len(lows) == 1:
        if lows[0] <= total <= highs[0]:
            yield (total,)
        return
    rest_lo, rest_hi = sum(lows[1:]), sum(highs[1:])
    for first in range(max(lows[0], total - rest_hi),
                       min(highs[0], total - rest_lo) + 1):
        for rest in _compositions(total - first, lows[1:], highs[1:]):
            yield (first,) + rest


def _signed_compositions(total: int, lows: Sequence[int],
                         highs: Sequence[int]):
    """The compositions (p_1, q_1, ..., p_n, q_n) of total into 2n parts
    >= 0 with lows[i] <= p_i - q_i <= highs[i], in lexicographic order."""
    if len(lows) == 1:
        # q_1 = total - p_1, so p_1 - q_1 = 2 p_1 - total
        for p in range(max(0, -(-(total + lows[0]) // 2)),
                       min(total, (total + highs[0]) // 2) + 1):
            yield (p, total - p)
        return
    # p - q in [lo, hi] needs p + q >= min |p - q| over it
    need = sum(max(lo, -hi, 0) for lo, hi in zip(lows[1:], highs[1:]))
    for p in range(total - need + 1):
        for q in range(max(0, p - highs[0]),
                       min(total - need - p, p - lows[0]) + 1):
            for rest in _signed_compositions(total - p - q, lows[1:],
                                             highs[1:]):
                yield (p, q) + rest


def brute_force_expand(family: str, m: int, numerator, box,
                       M: int) -> CoeffMap:
    """Expand t^a x^w / f^m term by term over a bounded exponent box.

    numerator is the pair (a, w); f = 1 - t g with g the family's
    support sum.  1/f^m = sum_k C(m-1+k, k) t^k g^k and g^k is opened
    multinomially, walking only the terms whose exponent lies inside
    the box.
    """
    a, w = numerator
    w = tuple(w)
    n = len(w)
    box = _as_box(box, n)
    _check_box(n, box, M)
    lo, hi = box
    out = {}

    def add(u, tpow, c):
        if tpow >= M:
            return
        row = out.get(u)
        if row is None:
            row = [0] * M
            out[u] = row
        row[tpow] += c

    if family == "simplicial":
        for k in range(M - a):
            binom = math.comb(m - 1 + k, k)
            # a_0 copies of 1/(x_1..x_n), a_i copies of x_i: u_i = w_i +
            # a_i - a_0 in [lo_i, hi_i]
            for a0 in range(k + 1):
                for tail in _compositions(
                        k - a0, [lo[i] - w[i] + a0 for i in range(n)],
                        [hi[i] - w[i] + a0 for i in range(n)]):
                    u = tuple(w[i] + tail[i] - a0 for i in range(n))
                    add(u, a + k, binom * multinomial((a0,) + tail))
    elif family == "hyperoctahedral":
        for k in range(M - a):
            binom = math.comb(m - 1 + k, k)
            # p_i copies of x_i and q_i of 1/x_i: u_i = w_i + p_i - q_i
            for tail in _signed_compositions(
                    k, [lo[i] - w[i] for i in range(n)],
                    [hi[i] - w[i] for i in range(n)]):
                u = tuple(w[i] + tail[2 * i] - tail[2 * i + 1]
                          for i in range(n))
                add(u, a + k, binom * multinomial(tail))
    else:
        raise ValueError("unknown family %r" % family)

    data = {u: PowerSeries(row, M) for u, row in out.items()}
    return CoeffMap(family=family, n=n, box=box, order=M, data=data)


def mu_at_zero(u: Sequence[int], j: int, n: int) -> Fraction:
    """1/2^j (n-j)!/n! when u is a permutation of j ones, else 0."""
    u = tuple(u)
    if any(x < 0 for x in u) or sum(u) >= n:
        raise ValueError("need u >= 0 with |u| < n")
    if not 0 <= j <= sum(u):
        raise ValueError("need 0 <= j <= |u|")
    ones = sum(1 for x in u if x == 1)
    if any(x > 1 for x in u) or ones != j:
        return Fraction(0)
    return Fraction(math.factorial(n - j),
                    2 ** j * math.factorial(n))


def alternating_identity_check(F: PowerSeries, n: int) -> bool:
    """sum_{j=0}^{n+1} (-1)^j C(n+1, j) F(jx)/F(x)^j = O(x^{n+1})
    for any series with F(0) = 1."""
    if F.order < n + 2:
        raise ValueError("need F mod x^%d at least" % (n + 2))
    if F.constant_term() != 1:
        raise ValueError("need F(0) = 1")
    order = n + 2
    Ft = F.truncate(order)
    inv = Ft.invert()
    acc = PowerSeries.zero(order)
    invpow = PowerSeries.one(order)
    for j in range(n + 2):
        term = Ft.scale_argument(j) * invpow * \
            ((-1) ** j * math.comb(n + 1, j))
        acc = acc + term
        invpow = invpow * inv
    return all(not acc.known(c) for c in range(n + 1))
