"""p-adic zeta values, the Morita gamma function, and closed-form
structure constants.

zeta_p(m) is the Kubota-Leopoldt value L_p(m, omega^(1-m)).  One
production route and two independent oracles compute it:

* `zetap`, the production route: Washington's formula, a finite sum of
  Bernoulli numbers over the units mod p, evaluated mod a power of p.
  It reports the precision the interpolation route certifies on the
  cheapest nodes (`_node_schedule`), so both give the same p-adic
  numbers, and it answers for every odd m < p-1 at any precision;
  `evaluate_zeta_poly`, and so every numeric alpha, uses it;
* `zetap_bernoulli`, an oracle: the Kummer-congruence limit
  -(1-p^(n-1)) B_n/n at n = 1 - m + (p-1) p^r, exact Bernoulli numbers,
  precision p^(r+1) (fewer digits in the class m = 1 mod p-1);
* `zetap_interpolated`, an oracle: solve for the Taylor coefficients of
  log Gamma_p at 0 from point values Gamma_p(k p^s) and read off
  zeta_p(m) = -m c_m.  Its sweep of D p^s Gamma_p products is the
  only work NODE_PRODUCT_CAP bounds.

The three routes, gammap_int, gammap_taylor, evaluate_zeta_poly and
gamma_ratio_congruence_check raise padic_core.BadPrime unless p is an
odd prime.

Symbolic alpha constants live in `ZetaPoly`, the polynomial ring over Q
in generators z3, z5, z7, ... standing for zeta_p(3), zeta_p(5), ...
(even zeta values vanish and are never represented).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .padic_core import (
    PadicNum,
    PrecisionError,
    bernoulli,
    padic_exp,
    padic_log,
    require_odd_prime,
    vp,
    _echelon_mod,
    _ilog,
    _Record,
    _residue_of_rational,
)
from .qseries import _exp_coefficients

# largest Bernoulli index the exact route will attempt
EXACT_BERNOULLI_BOUND = 1600
# cap on the length of the interpolation oracle's Gamma_p node sweep
NODE_PRODUCT_CAP = 10 ** 7


class LevelTooLarge(ValueError):
    """Requested Kummer level needs a Bernoulli number beyond the bound."""


class PrecisionBudgetExceeded(ArithmeticError):
    """No feasible interpolation node scale reaches the target precision."""


# -- symbolic zeta polynomials -----------------------------------------


class ZetaPoly:
    """Polynomial over Q in z_m = zeta_p(m), odd m >= 3.

    Monomials are sorted tuples of generator indices with repetition:
    (3, 3, 5) stands for z3^2 * z5.  The graded weight of z_m is m.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple, Fraction] = {}
        for mono, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = tuple(sorted(mono))
            for m in mono:
                if m < 3 or m % 2 == 0:
                    raise ValueError("no generator z_%d: indices are odd >= 3"
                                     % m)
            clean[mono] = clean.get(mono, Fraction(0)) + c
            if clean[mono] == 0:
                del clean[mono]
        self.terms = clean

    @classmethod
    def zero(cls) -> "ZetaPoly":
        return cls()

    @classmethod
    def const(cls, q) -> "ZetaPoly":
        return cls({(): Fraction(q)})

    @classmethod
    def gen(cls, m: int) -> "ZetaPoly":
        return cls({(m,): Fraction(1)})

    def coefficient(self, mono: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    def constant(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> set:
        return {sum(mono) for mono in self.terms}

    @staticmethod
    def _coerce(other):
        if isinstance(other, ZetaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ZetaPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return ZetaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ZetaPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ZetaPoly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, ZetaPoly):
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return ZetaPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    @staticmethod
    def _mono_str(mono: tuple) -> str:
        parts = []
        for m in sorted(set(mono)):
            e = mono.count(m)
            parts.append("z%d" % m if e == 1 else "z%d^%d" % (m, e))
        return "*".join(parts)

    def format(self) -> str:
        """Display form: '-8/25 * z3', '-(18*z9 + z3^3)/162', '0'."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda kv: (sum(kv[0]), len(kv[0]), kv[0]))
        if len(items) == 1:
            (mono, c), = items
            ms = self._mono_str(mono)
            if not ms:
                return str(c)
            if c == 1:
                return ms
            if c == -1:
                return "-" + ms
            return "%s * %s" % (c, ms)
        den = 1
        for _, c in items:
            den = den * c.denominator // math.gcd(den, c.denominator)
        nums = [(mono, int(c * den)) for mono, c in items]
        neg = all(n < 0 for _, n in nums)
        if neg:
            nums = [(mono, -n) for mono, n in nums]
        parts = []
        for mono, n in nums:
            ms = self._mono_str(mono)
            if not ms:
                parts.append(str(n))
            elif n == 1:
                parts.append(ms)
            elif n == -1:
                parts.append("-" + ms)
            else:
                parts.append("%d*%s" % (n, ms))
        body = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                body += " - " + part[1:]
            else:
                body += " + " + part
        out = "(%s)" % body
        if den > 1:
            out += "/%d" % den
        return ("-" if neg else "") + out

    def __repr__(self):
        return "ZetaPoly(%s)" % self.format()


# -- zeta via Kummer congruences ---------------------------------------


def zetap_bernoulli(m: int, p: int, r: int) -> PadicNum:
    """zeta_p(m) from the Bernoulli-quotient limit at level r: modulo
    p^(r+1), or p^(r-1-vp(m-1)-vp(n)) when m = 1 mod p-1.

    Evaluates -(1 - p^(n-1)) B_n / n exactly at n = 1 - m + (p-1) p^r.
    With chi = omega^(1-m), that is L_p(s', chi) at s' = 1 - n =
    m - (p-1) p^r: n = 1 - m mod p-1, so chi omega^(-n) is trivial and
    the Euler factor and generalized Bernoulli number are plain.  The
    value differs from zeta_p(m) = L_p(m, chi) by the change of L_p
    over a step m - s' of valuation r.  By Washington, Introduction to
    Cyclotomic Fields, Thm 7.10, L_p(s, chi) = F(s) / H(s) with
    F(s) = f((1+p)^s - 1), f in Z_p[[T]], so that
    vp(F(s) - F(s')) >= 1 + vp(s - s').

    For m != 1 mod p-1, chi is not trivial and H = 1, so the value is
    pinned mod p^(r+1).

    For m = 1 mod p-1 (the exceptional class), chi = 1 and
    H(s) = 1 - (1+p)^(1-s), with vp(H(s)) = 1 + vp(s - 1): the pole of
    L_p(s, 1) at s = 1.  Its residue F(1) / log_p(1+p) = 1 - 1/p has
    valuation -1, so F(1) = f(p) is a unit, and so is F(s'), which
    agrees with F(1) mod p^(1 + vp(s'-1)).  With v = vp(m - 1) and
    w = vp(s' - 1) = vp(n),

        L_p(m) - L_p(s') = (F(m) - F(s')) / H(m)
                           + F(s') (H(s') - H(m)) / (H(m) H(s')).

    The first term has valuation >= (1 + r) - (1 + v).  In the second,
    H(s') - H(m) = (1+p)^(1-m) (1 - (1+p)^(m-s')) has valuation 1 + r,
    so the term has valuation exactly r - 1 - v - w, below the first.
    The value is pinned mod p^(r-1-v-w) and no further: r - 1 digits
    when v = w = 0.  PrecisionError when that leaves no digit.
    """
    require_odd_prime(p)
    if m < 2 or r < 0:
        raise ValueError("need m >= 2 and r >= 0")
    n = 1 - m + (p - 1) * p ** r
    if n < 2:
        raise ValueError("level too small: 1 - m + (p-1)p^r must be >= 2")
    if n > EXACT_BERNOULLI_BOUND:
        raise LevelTooLarge("Bernoulli index %d exceeds bound %d"
                            % (n, EXACT_BERNOULLI_BOUND))
    digits = r + 1
    if (m - 1) % (p - 1) == 0:
        digits = r - 1 - vp(m - 1, p) - vp(n, p)
        if digits < 1:
            raise PrecisionError("level %d pins no digit of zeta_%d(%d)"
                                 % (r, p, m))
    value = -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
    return PadicNum.from_exact(value, p).with_abs_precision(digits)


# -- Gamma_p point values ----------------------------------------------


def gammap_int(z: int, p: int, N: int) -> PadicNum:
    """Morita Gamma_p(z) = (-1)^z prod_{0<j<z, p not| j} j, mod p^N."""
    require_odd_prime(p)
    if z < 0:
        raise ValueError("z must be a nonnegative integer")
    if N < 1:
        raise ValueError("need N >= 1")
    return PadicNum.from_rational(_gamma_products(p, z, 1, N)[0], p, N)


@lru_cache(maxsize=None)
def _gamma_products(p: int, step: int, D: int, E: int) -> tuple:
    """Gamma_p(k step) = (-1)^(k step) prod_{0<j<k step, p not| j} j
    mod p^E for k = 1..D, via one shared sweep."""
    mod = p ** E
    out = []
    acc = 1
    j = 1
    for k in range(1, D + 1):
        stop = k * step
        while j < stop:
            if j % p:
                acc = acc * j % mod
            j += 1
        out.append((-acc if stop % 2 else acc) % mod)
    return tuple(out)


def _tail_valuation(p: int, v: int, m_start: int) -> int:
    """Lower bound on vp of sum_{m >= m_start} c_m x^m, vp(x) = v >= 1.

    c_m is the x^m Taylor coefficient of log Gamma_p: zero for even m,
    and vp(c_m) >= -[(m-1) % (p-1) == 0] - vp(m) for odd m.
    """
    if v < 1:
        raise ValueError("evaluation point must be in p Z_p")
    m = m_start if m_start % 2 else m_start + 1
    best = None
    while True:
        g = v * m - (1 if (m - 1) % (p - 1) == 0 else 0) - vp(m, p)
        best = g if best is None else min(best, g)
        nxt = m + 2
        # v*m' - 1 - floor(log_p m') underestimates every later term and
        # is nondecreasing, so stop once it clears the current minimum
        if v * nxt - 1 - _ilog(nxt, p) >= best:
            return best
        m = nxt


@lru_cache(maxsize=None)
def _gamma_log_solve(p: int, D: int, s: int) -> tuple:
    """Taylor coefficients c_1..c_D of log Gamma_p at 0, with the tail
    valuation bound T of the degree-> D remainder at vp(x) = s.

    Solves w_k = sum_m c_m (k p^s)^m for k = 1..D: the scaled matrix
    (k^m) has unit determinant (all of 1..D and their differences are
    prime to p when D < p-1), so it is inverted mod p^E = p^(T+2) in
    integers with no loss of precision, and the coefficients c_m come
    out known mod p^(T - s m).  The inverse is known mod p^E and every
    w_k lies in p Z_p, so each term w_k (V^-1)_mk is off by a multiple
    of p^(E+1), past the p^T cut; an entry that vanishes mod p^E
    becomes an exact 0.

    Callers pass 0 < D < p-1 and s >= 2.  PrecisionBudgetExceeded when
    the node sweep of D p^s products passes NODE_PRODUCT_CAP.
    """
    if D * p ** s > NODE_PRODUCT_CAP:
        raise PrecisionBudgetExceeded(
            "node sweep of %d terms exceeds cap %d" % (D * p ** s,
                                                       NODE_PRODUCT_CAP))
    T = _tail_valuation(p, s, D + 1)
    E = T + 2
    nodes = _gamma_products(p, p ** s, D, E)
    ws = [padic_log(PadicNum.from_rational(g, p, E)) for g in nodes]
    reduced, _ = _echelon_mod([[k ** m for m in range(1, D + 1)]
                               + [int(j == k) for j in range(1, D + 1)]
                               for k in range(1, D + 1)], D, p ** E)
    vinv = [row[D:] for row in reduced]
    cs = []
    for m in range(1, D + 1):
        chat = ws[0] * vinv[m - 1][0]
        for k in range(1, D):
            chat = chat + ws[k] * vinv[m - 1][k]
        c = chat / p ** (s * m)
        cs.append(c.with_abs_precision(min(c.abs_precision, T - s * m)))
    return tuple(cs), T


class GammaExpansion(_Record):
    """Taylor data of Gamma_p at 0, valid on p Z_p.

    coeffs[m] is g_m with Gamma_p(x) = sum g_m x^m and g_0 = 1;
    log_coeffs[m-1] is the x^m coefficient c_m of log Gamma_p, so
    c_1 = Gamma_p'(0) and zeta_p(m) = -m c_m for m >= 2.  Each entry
    carries its own precision; `tail_order` is the first untracked
    degree (D+1).
    """

    def __init__(self, p: int, degree: int, scale: int, log_coeffs: tuple,
                 coeffs: list, radius_valuation: int = 1):
        self.p = p
        self.degree = degree
        self.scale = scale
        self.log_coeffs = log_coeffs
        self.coeffs = coeffs
        self.radius_valuation = radius_valuation

    @property
    def tail_order(self) -> int:
        return self.degree + 1

    def derivative_at_zero(self) -> PadicNum:
        return self.log_coeffs[0]

    def evaluate(self, x) -> PadicNum:
        """Gamma_p(x) for x in p Z_p, with the truncation tail folded
        into the reported precision."""
        if not isinstance(x, PadicNum):
            x = PadicNum.from_exact(Fraction(x), self.p)
        v = x.valuation
        if v < self.radius_valuation:
            raise ValueError("expansion only valid for vp(x) >= %d"
                             % self.radius_valuation)
        v = int(v) if v != math.inf else None
        if v is None:
            return PadicNum.from_exact(1, self.p)
        w = None
        power = x
        for m in range(1, self.degree + 1):
            term = self.log_coeffs[m - 1] * power
            w = term if w is None else w + term
            power = power * x
        tail = _tail_valuation(self.p, v, self.tail_order)
        w = w.with_abs_precision(min(w.abs_precision, tail))
        return padic_exp(w)


def _node_scale(p: int, D: int, m: int, N: int) -> int:
    """Smallest node scale s >= 2 at which the degree-D interpolation
    knows c_m mod p^N."""
    s = 2
    while _tail_valuation(p, s, D + 1) - s * m < N:
        s += 1
    return s


def gammap_taylor(p: int, D: int, N: int) -> GammaExpansion:
    """Interpolate the degree-D Taylor expansion of Gamma_p at 0.

    The node scale s is chosen so that even the worst-placed
    coefficient c_D is known mod p^N; smaller-index coefficients come
    out sharper.  Nodes are x = k p^s for k = 1..D.  Raises
    PrecisionBudgetExceeded where that node sweep passes the cap.
    """
    require_odd_prime(p)
    if not 0 < D < p - 1:
        raise ValueError("need 0 < D < p-1")
    if N < 1:
        raise ValueError("need N >= 1")
    s = _node_scale(p, D, D, N)
    cs, _ = _gamma_log_solve(p, D, s)
    g = _exp_coefficients([0] + list(cs), D + 1)
    coeffs = [PadicNum.from_exact(1, p)] + g[1:]
    return GammaExpansion(p=p, degree=D, scale=s, log_coeffs=cs,
                          coeffs=coeffs)


def _node_schedule(m: int, p: int, N: int):
    """The cheapest interpolation nodes (degree D, scale s) that reach
    zeta_p(m) mod p^N, or None for even m, where zeta_p(m) = 0.

    Needs m < p-1, so that c_m fits inside an interpolable expansion.
    The interpolation route then knows zeta_p(m) = -m c_m mod p^K with
    K = _tail_valuation(p, s, D+1) - s m >= N (_gamma_log_solve; m is
    prime to p, so the factor -m costs no digit).  The cost is the
    oracle's sweep length D p^s, which only that sweep caps.
    """
    require_odd_prime(p)
    if m < 2 or N < 1:
        raise ValueError("need m >= 2 and N >= 1")
    if m % 2 == 0:
        return None
    if m >= p - 1:
        raise ValueError("interpolation route needs m < p-1 (m=%d, p=%d)"
                         % (m, p))
    best = None
    for D in range(m, p - 1):
        s = _node_scale(p, D, m, N)
        cost = D * p ** s
        if best is None or cost < best[0]:
            best = (cost, D, s)
        if s == 2:
            # s is at its floor and does not rise with D, so the cost
            # D p^2 only grows from here
            break
    return best[1:]


@lru_cache(maxsize=None)
def zetap_interpolated(m: int, p: int, N: int) -> PadicNum:
    """zeta_p(m) mod p^N via the Gamma_p interpolation route, on the
    nodes _node_schedule picks; even m returns exact zero.  Raises
    PrecisionBudgetExceeded where their sweep passes the node cap."""
    schedule = _node_schedule(m, p, N)
    if schedule is None:
        return PadicNum.from_exact(0, p)
    D, s = schedule
    cs, _ = _gamma_log_solve(p, D, s)
    return cs[m - 1] * (-m)


def _washington(m: int, p: int, K: int) -> PadicNum:
    """zeta_p(m) mod p^K for any m >= 2 from Washington's formula
    (Introduction to Cyclotomic Fields, Thm 5.11, with conductor p and
    chi = omega^(1-m), so that chi(a) <a>^(1-m) = a^(1-m)):

        zeta_p(m) = 1/(m-1) 1/p sum_{a=1}^{p-1} a^(1-m)
                    sum_{j>=0} C(1-m, j) B_j (p/a)^j.

    Collecting the powers of a, the j-th term is

        t_j = C(1-m, j) (p^j B_j) S_j / (p (m-1)),
        S_j = sum_{a=1}^{p-1} a^(1-m-j).

    Truncation.  C(1-m, j) = (-1)^j C(m+j-2, j) is an integer.  By von
    Staudt-Clausen vp(B_j) >= -1, with equality only when (p-1) | j,
    and S_j = -1 mod p when (p-1) | (m-1+j), else 0 mod p.  So
    vp(B_j S_j) < 0 needs (p-1) | j and (p-1) | (m-1), and
    vp(t_j) >= j - 1 - e - vp(m-1), where e = 1 if m = 1 mod p-1 and
    e = 0 otherwise.  Every term with j >= J = K + 1 + e + vp(m-1) lies
    in p^K Z_p, so the first J terms give zeta_p(m) mod p^K.

    The sum runs over the integers mod p^W, W = K + 1 + vp(m-1): each
    p^j B_j is p-integral, and dividing by p (m-1) costs 1 + vp(m-1)
    digits.
    """
    v = vp(m - 1, p)
    e = 1 if (m - 1) % (p - 1) == 0 else 0
    mod = p ** (K + 1 + v)
    inverses = [pow(a, -1, mod) for a in range(1, p)]
    powers = [pow(b, m - 1, mod) for b in inverses]    # a^(1-m-j)
    acc = 0
    for j in range(K + 1 + e + v):
        if j < 2 or j % 2 == 0:
            acc += ((-1) ** j * math.comb(m + j - 2, j) * sum(powers)
                    * _residue_of_rational(bernoulli(j), p, mod, j))
        powers = [x * b % mod for x, b in zip(powers, inverses)]
    value = Fraction(acc % mod, p * (m - 1))
    return PadicNum.from_exact(value, p).with_abs_precision(K)


@lru_cache(maxsize=None)
def zetap(m: int, p: int, N: int) -> PadicNum:
    """zeta_p(m), at least mod p^N, by Washington's formula (_washington).

    Returns exactly the K >= N digits the interpolation route certifies
    on the nodes of _node_schedule, so the result is the same p-adic
    number zetap_interpolated returns, at a fraction of the cost.  It
    runs no node sweep, so the node cap never refuses it: it answers
    for every odd m < p-1 at any N.  Even m gives exact zero.
    """
    schedule = _node_schedule(m, p, N)
    if schedule is None:
        return PadicNum.from_exact(0, p)
    D, s = schedule
    return _washington(m, p, _tail_valuation(p, s, D + 1) - s * m)


# -- symbolic expansions and the alpha constants -----------------------


def log_ratio_expansion(bs: Sequence, D: int) -> list:
    """log(Gamma_p(a x) / prod_i Gamma_p(b_i x)), a = sum bs, through
    degree D: the list of its D+1 ZetaPoly coefficients of x^0..x^D.

    The weights balance by construction, which kills the Gamma_p'(0)
    term; the x^m coefficient is then -(zeta_p(m)/m)(a^m - sum b_i^m),
    zero for even m.
    """
    bs = [Fraction(b) for b in bs]
    a = sum(bs)
    coeffs = [ZetaPoly.zero(), ZetaPoly.zero()]
    for m in range(2, D + 1):
        if m % 2 == 0:
            coeffs.append(ZetaPoly.zero())
            continue
        gap = a ** m - sum(b ** m for b in bs)
        coeffs.append(ZetaPoly.gen(m) * (-Fraction(gap, m)))
    return coeffs[:D + 1]


def alpha_simplicial(n: int) -> list:
    """Symbolic alpha_1..alpha_{n-1} for the rank-n simplicial family:
    alpha_j is the x^j coefficient of Gamma_p(x)/Gamma_p(x/(n+1))^(n+1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ratio = _exp_coefficients(
        log_ratio_expansion([Fraction(1, n + 1)] * (n + 1), n - 1), n)
    return [ZetaPoly._coerce(c) for c in ratio[1:]]


def alpha_hyperoctahedral(J: int) -> list:
    """Symbolic alpha_1..alpha_J for the hyperoctahedral family:
    alpha_j = (1/j!) [x^j] sum_m (-1)^(j-m) C(j,m) Gamma_p(mx)/Gamma_p(x)^m.
    """
    if J < 1:
        raise ValueError("need J >= 1")
    one = [1] + [0] * J
    ratios = [one, one] + [_exp_coefficients(log_ratio_expansion([1] * m, J),
                                             J + 1) for m in range(2, J + 1)]
    out = []
    for j in range(1, J + 1):
        acc = ZetaPoly.zero()
        for m in range(0, j + 1):
            top = ZetaPoly._coerce(ratios[m][j])
            acc = acc + top * (Fraction((-1) ** (j - m) * math.comb(j, m)))
        out.append(acc * Fraction(1, math.factorial(j)))
    return out


def evaluate_zeta_poly(poly: ZetaPoly, p: int, N: int) -> PadicNum:
    """Substitute numeric zeta_p values (each mod p^N at least, from
    zetap; N >= 1) into a zeta polynomial; an identically zero
    polynomial gives exact zero."""
    require_odd_prime(p)
    if N < 1:
        raise ValueError("need N >= 1")
    acc = PadicNum.from_exact(0, p)
    for mono, c in sorted(poly.terms.items()):
        term = PadicNum.from_exact(c, p)
        for m in mono:
            term = term * zetap(m, p, N)
        acc = acc + term
    return acc


# -- the Gamma_p product congruence ------------------------------------


def gamma_ratio_congruence_check(V: Sequence[int], s: int, p: int, n: int,
                                 _corrupt=None) -> bool:
    """Check Gamma_p(p^(s+1)|V|) / prod Gamma_p(p^(s+1) V_i) against the
    Taylor evaluation of the balanced ratio at x = p^(s+1), mod
    p^((s+1) n).

    The left side reads exact Gamma_p(k p^(s+1)), k <= n, from one
    cached product sweep per (p, s, n), which the node cap does not
    bound; the right side is the zeta-polynomial expansion with
    numeric zeta values, so the two routes share no code.  `_corrupt`,
    a (degree, rational) pair with 0 < degree <= n+1, adds a
    perturbation to that log-series coefficient for negative-control
    tests.
    """
    require_odd_prime(p)
    V = tuple(int(v) for v in V)
    if any(v < 0 for v in V):
        raise ValueError("V must be nonnegative")
    a = sum(V)
    if not a <= n < p:
        raise ValueError("need |V| <= n < p")
    if s < 1:
        raise ValueError("need s >= 1")
    E = (s + 1) * n
    xval = s + 1
    guard = 2
    gammas = [PadicNum.from_rational(g, p, E + guard)
              for g in (1,) + _gamma_products(p, p ** xval, n, E + guard)]
    lhs = gammas[a]
    for v in V:
        lhs = lhs / gammas[v]
    Dtr = n + 1
    tail = _tail_valuation(p, xval, Dtr + 1)
    if tail < E:
        raise PrecisionBudgetExceeded(
            "degree-%d truncation tail %d below target %d" % (Dtr, tail, E))
    logratio = log_ratio_expansion(V, Dtr)
    if _corrupt is not None:
        deg, delta = _corrupt
        logratio[deg] = logratio[deg] + ZetaPoly.const(delta)
    w = PadicNum.from_exact(0, p)
    for m in range(1, Dtr + 1):
        cm = logratio[m]
        if cm.is_zero():
            continue
        need = max(1, E - xval * m + guard)
        w = w + evaluate_zeta_poly(cm, p, need) * Fraction(p) ** (xval * m)
    w = w.with_abs_precision(min(w.abs_precision, tail))
    rhs = padic_exp(w)
    return lhs.agrees(rhs, E)
