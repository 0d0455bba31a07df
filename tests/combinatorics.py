"""Combinatorial identities and degree bookkeeping that only the tests
read: Stirling numbers of the second kind, falling factorials, the
Stirling expansion of the eta basis, the polytope degrees behind the
divisibility of expansion coefficients, an enumerate-then-filter
expansion of t^a x^w / f^m, the t -> 0 limits of the simplicial
coefficients, the Cartier re-indexing of a coefficient map, the
hyperoctahedral constant-term series F_u, the operator JSON reader
that inverts MumOperator.to_json, _integrality_entry, the per-entry
integrality readout in PadicNum arithmetic that marks where a
fixed-precision reading must raise, and stored_at, which reads a
decomposition's lattice storage at a t-degree, and the guess swept
in t, the oracle of the guess on the lattice."""

import json
import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from padicfrob.expansion import (
    BoxTooLarge,
    CoeffMap,
    _as_box,
    normalize_shift,
)
from padicfrob.frobenius import FrobeniusDecomposition, PrecisionExhausted
from padicfrob.mum import MumOperator, NoOperatorFound, guess_operator
from padicfrob.padic_core import INFINITY, PadicNum, multinomial, vp
from padicfrob.qseries import PowerSeries

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


def simplicial_limit_coeff(U: Sequence[int], V: Sequence[int],
                           N: int):
    """t -> 0 limit of t^{-N|V|} times the x^{NV} coefficient:
    multinomial(NV) prod (N V_i)^{U_i} with 0^0 = 1."""
    U = normalize_shift(U)
    V = normalize_shift(V)
    out = multinomial([N * v for v in V])
    for ui, vi in zip(U, V):
        out *= (N * vi) ** ui
    return out


def cartier_truncated(cm: CoeffMap, p: int, box=None) -> CoeffMap:
    """Re-index c_u -> c_{pu} on a window whose p-dilate fits in cm."""
    lo, hi = cm.box
    if box is None:
        box = (tuple(-((-a) // p) for a in lo),
               tuple(b // p for b in hi))
    box = _as_box(box, cm.n)
    tlo, thi = box
    if any(t * p < a for t, a in zip(tlo, lo)) or \
            any(t * p > b for t, b in zip(thi, hi)):
        raise BoxTooLarge("p-dilated target box leaves the source box")
    data = {}
    for u in cm.data:
        if all(x % p == 0 for x in u):
            v = tuple(x // p for x in u)
            if all(tlo[i] <= v[i] <= thi[i] for i in range(cm.n)):
                data[v] = cm.data[u]
    return CoeffMap(family=cm.family, n=cm.n, box=box,
                    order=cm.order, data=data)


@dataclass
class HyperoctConstants:
    """F_u(t) for the hyperoctahedral family, with support size."""

    u: tuple
    n: int
    series: PowerSeries
    ell: int


def hyperoct_constant_term(u: Sequence[int], n: int,
                           M: int) -> HyperoctConstants:
    """F_u(t) = sum_m t^{2|m|} (2|m|)!/(m_1!..m_n!)^2 prod m_i^{u_i},
    from the product over i of the weight series sum_k k^{u_i}/k!^2 s^k
    in s = t^2."""
    u = tuple(u)
    if len(u) != n or any(x < 0 for x in u):
        raise ValueError("u must be a length-n nonnegative vector")
    half = (M + 1) // 2
    acc = PowerSeries.one(half)
    for wi in u:
        # 0^0 = 1 keeps the m_i = 0 term when u_i = 0
        acc = acc * PowerSeries([Fraction(k ** wi, math.factorial(k) ** 2)
                                 for k in range(half)], half)
    coeffs = [0] * M
    for k in range(half):
        val = acc.known(k) * math.factorial(2 * k)
        coeffs[2 * k] = int(val) if val.denominator == 1 else val
    return HyperoctConstants(u=u, n=n, series=PowerSeries(coeffs, M),
                             ell=sum(1 for x in u if x > 0))


def _json_int(x, field: str) -> int:
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError("%s must be an integer, not %r" % (field, x))


def operator_from_json(text: str) -> MumOperator:
    """The operator MumOperator.to_json wrote.  "n" and every coefficient
    must be an int or an integer string; anything else raises ValueError
    naming the field."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("operator JSON must be an object")
    rows = payload.get("coeffs")
    if not isinstance(rows, list) or not all(isinstance(c, list)
                                             for c in rows):
        raise ValueError("coeffs must be a list of lists")
    coeffs = [[_json_int(x, "coeffs[%d][%d]" % (i, k))
               for k, x in enumerate(c)] for i, c in enumerate(rows)]
    if len(coeffs) != _json_int(payload.get("n"), "n") + 1:
        raise ValueError("coefficient count does not match order")
    return MumOperator(coeffs)


def stored_at(dec: FrobeniusDecomposition, k: int, j: int, m: int):
    """(x, live) at t^m of A_j^(k) as dec stores it on its lattice of
    step g, index m / g: x the exact coefficient, or the stored integer
    p^scale c mod p^(scale + digits) at fixed precision, and live whether
    the support holds it (every lattice index of an exact dec).  Off the
    lattice nothing is stored: (0, False)."""
    c, off = divmod(m, dec.step)
    if off:
        return 0, False
    return dec.slots[k][j].known(c), \
        dec.digits is None or bool(dec.support[k][j][c])


def _integrality_entry(dec: FrobeniusDecomposition, j: int, m: int,
                       alphas: Sequence):
    """(val, prec) of the assembled t^m coefficient of A_j as exact slots
    give it, or None for an exact zero.  prec is None when no inexact
    alpha reaches the coefficient, whose valuation is then exact; val
    is None for an inexact zero.

    An inexact alpha_k reaching slot coefficient c gives the entry
    precision prec(alpha_k) + v(c).  A fixed-precision slot must support
    that, and must tell its valuation; otherwise, as for an entry whose
    value the slot digits alone leave at zero, this raises
    PrecisionExhausted rather than report other digits.
    """
    p = dec.p
    value = dec.slot(0, j, m)
    target = INFINITY
    for k, al in enumerate(alphas, start=1):
        c = dec.slot(k, j, m)
        if isinstance(c, (int, Fraction)) and c == 0:
            continue
        if isinstance(al, PadicNum) and not al.is_exact:
            if isinstance(c, PadicNum):
                if c.is_zero():
                    raise PrecisionExhausted(j, m)
                v = c.valuation
            else:
                v = vp(c, p)
            target = min(target, al.abs_precision + v)
        value = value + al * c
    if not isinstance(value, PadicNum) or value.is_exact:
        q = value.exact if isinstance(value, PadicNum) else value
        return None if q == 0 else (vp(q, p), None)
    if target == INFINITY:
        if value.is_zero():
            raise PrecisionExhausted(j, m)
        return int(value.valuation), None
    if value.abs_precision < target:
        raise PrecisionExhausted(j, m)
    if value.is_zero():
        if value.abs_precision < 1:
            raise PrecisionExhausted(j, m)
        return None, int(value.abs_precision)
    return int(value.valuation), int(value.abs_precision)


def guess_sweep_in_t(f: PowerSeries, n: int, dmax: int) -> tuple:
    """(operator, degree) from guess_operator on f itself at the least
    t-degree d <= dmax that has an annihilator, blind to the lattice f
    lives on: where its nullspace is one-dimensional the lattice guess
    must give the same."""
    for d in range(dmax + 1):
        try:
            return guess_operator(f, n, d), d
        except NoOperatorFound:
            continue
    raise NoOperatorFound("no order-%d annihilator with degree <= %d"
                          % (n, dmax))
