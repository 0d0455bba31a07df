"""Combinatorial identities and degree bookkeeping that only the tests
read: Stirling numbers of the second kind, falling factorials, the
Stirling expansion of the eta basis, the polytope degrees behind the
divisibility of expansion coefficients, and an enumerate-then-filter
expansion of t^a x^w / f^m."""

import math
import threading
from fractions import Fraction
from typing import Sequence

from padicfrob.expansion import CoeffMap, normalize_shift
from padicfrob.padic_core import multinomial

_stirling_lock = threading.Lock()
_stirling_rows: list[list[int]] = [[1]]  # row m holds S(m, 0..m)


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m, k)."""
    if m < 0 or k < 0:
        raise ValueError("negative argument")
    if k > m:
        return 0
    with _stirling_lock:
        while len(_stirling_rows) <= m:
            prev = _stirling_rows[-1]
            r = len(_stirling_rows)
            row = [0] * (r + 1)
            for j in range(1, r):
                row[j] = j * prev[j] + prev[j - 1]
            row[r] = 1
            if r == 1:
                row[1] = 1
            _stirling_rows.append(row)
        return _stirling_rows[m][k]


def falling_factorial(x, k: int):
    """[x]_k = x (x-1) ... (x-k+1) for any ring element; [x]_0 = 1."""
    if k < 0:
        raise ValueError("negative length")
    out = None
    for i in range(k):
        factor = x - i
        out = factor if out is None else out * factor
    return 1 if out is None else out


def homogenize(u: Sequence[int]) -> tuple:
    """Minimal (n+1)-tuple U with U_i - U_0 = u_i and min(U) = 0."""
    shift = max(0, -min(u, default=0))
    return normalize_shift((shift,) + tuple(x + shift for x in u))


def simplicial_degree(u: Sequence[int]) -> int:
    """Smallest k with x^u in k times the simplex conv(e_i, -(1,..,1))."""
    return sum(homogenize(u))


def hyperoct_degree(u: Sequence[int]) -> int:
    """Smallest k with x^u in k times the cross-polytope conv(+-e_i)."""
    return sum(abs(x) for x in u)


def check_divisibility(cm: CoeffMap) -> bool:
    """Every c_u must vanish to order at least deg(u)."""
    degree = simplicial_degree if cm.family == "simplicial" \
        else hyperoct_degree
    for u, series in cm.data.items():
        d = degree(u)
        if any(series.known(c) for c in range(min(d, cm.order))):
            return False
    return True


def simplicial_limit_coeff_falling(K: Sequence[int], V: Sequence[int],
                                   N: int):
    """Falling-factorial variant of simplicial_limit_coeff:
    multinomial(NV) prod [N V_i]_{K_i}."""
    V = normalize_shift(V)
    out = multinomial([N * v for v in V])
    for ki, vi in zip(K, V):
        out *= falling_factorial(N * vi, ki)
    return out


def eta_from_omega(U: Sequence[int]) -> list:
    """Stirling expansion eta_U = sum_K prod S(U_i, K_i) omega_K as a
    list of (K, coefficient) pairs with nonzero coefficients."""
    U = tuple(U)
    if any(x < 0 for x in U):
        raise ValueError("need U >= 0")
    terms = [((), 1)]
    for ui in U:
        lo = 0 if ui == 0 else 1
        nxt = []
        for K, c in terms:
            for ki in range(lo, ui + 1):
                s = stirling2(ui, ki)
                if s:
                    nxt.append((K + (ki,), c * s))
        terms = nxt
    return sorted(terms)


def omega_ell_coefficients(U: Sequence[int], n: int) -> list:
    """Exact rationals c_i with prod_i [l]_{U_i} = sum c_i (n+1)^i l^i."""
    U = tuple(U)
    poly = [Fraction(1)]
    for ui in U:
        # multiply by [l]_{ui} = l (l-1) ... (l-ui+1)
        for shift in range(ui):
            shifted = [Fraction(0)] + poly
            scaled = [-shift * c for c in poly] + [Fraction(0)]
            poly = [a + b for a, b in zip(shifted, scaled)]
    return [c / (n + 1) ** i for i, c in enumerate(poly)]


def _all_compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _all_compositions(total - first, slots - 1):
            yield (first,) + rest


def expand_then_filter(family: str, m: int, numerator, box,
                       M: int) -> dict:
    """{u: coefficient list mod t^M} of t^a x^w / f^m over the box
    (lo, hi), in the order brute_force_expand first meets each u: every
    composition of each g^k is opened, and only then is its exponent
    tested against the box."""
    a, w = numerator
    lo, hi = box
    n = len(w)
    out = {}
    for k in range(M - a):
        binom = math.comb(m - 1 + k, k)
        if family == "simplicial":
            terms = [((a0,) + tail,
                      tuple(w[i] + tail[i] - a0 for i in range(n)))
                     for a0 in range(k + 1)
                     for tail in _all_compositions(k - a0, n)]
        else:
            terms = [(tail, tuple(w[i] + tail[2 * i] - tail[2 * i + 1]
                                  for i in range(n)))
                     for tail in _all_compositions(k, 2 * n)]
        for parts, u in terms:
            if all(lo[i] <= u[i] <= hi[i] for i in range(n)):
                out.setdefault(u, [0] * M)[a + k] += \
                    binom * multinomial(parts)
    return out
