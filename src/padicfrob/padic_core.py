"""Exact rational and truncated p-adic arithmetic.

Scalars come in two flavours: exact ``Fraction`` values and ``PadicNum``
truncations that track an absolute precision (the value is known modulo
p^N).  Precision propagates pessimistically so a claimed digit is never
a rounding artifact: addition keeps the weaker absolute precision,
multiplication combines valuation and precision of both factors, and
division by a non-unit costs the divisor's valuation.

The module also carries the combinatorial utilities used throughout the
package (exact Bernoulli numbers with B_1 = -1/2, from tangent numbers
or, at large index, from zeta(n) in fixed point; multinomials), an
exact solver for affine systems of p-adic integrality conditions, and
_Record, the plain base of the package's record classes.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import count, takewhile
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]
# the exact scalar types, matched exactly, so a bool is refused
_RATIONALS = frozenset((int, Fraction))

INFINITY = math.inf


def vp(x: RationalLike, p: int) -> int | float:
    """p-adic valuation of an int or Fraction (else TypeError); +inf for 0."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if type(x) is not int:
        if type(x) not in _RATIONALS:
            raise TypeError("need an int or a Fraction, not %r" % (x,))
        if x == 0:
            return INFINITY
        return vp(x.numerator, p) - vp(x.denominator, p)
    if x == 0:
        return INFINITY
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def is_prime(p: int) -> bool:
    """Trial division; False for p < 2."""
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


class BadPrime(ValueError):
    """p is not a prime the computation can work at."""


def require_odd_prime(p: int):
    """Raise BadPrime unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise BadPrime("p = %d is not an odd prime" % p)


def _residue_of_rational(q: RationalLike, p: int, modulus: int,
                         shift: int = 0) -> int:
    """q p^shift modulo ``modulus``, a power of p; ValueError unless
    q p^shift is p-integral."""
    return _residues_of_rationals((q,), p, modulus, shift)[0]


def _residues_of_rationals(qs: Iterable[RationalLike], p: int, modulus: int,
                           shift: int = 0) -> list[int]:
    """[q p^shift modulo ``modulus`` for q in qs], modulus a power of p;
    ValueError unless every q p^shift is p-integral.  The p-free parts
    of the denominators share one modular inverse (_inverses)."""
    nums, dens = [], []
    for q in qs:
        num, den, s = q.numerator, q.denominator, shift
        while den % p == 0:
            den //= p
            s -= 1
        if s < 0:
            num, r = divmod(num, p ** -s)
            if r:
                raise ValueError("rational is not p-integral")
            s = 0
        nums.append(num * p ** s)
        dens.append(den)
    return [num % modulus * inv % modulus
            for num, inv in zip(nums, _inverses(dens, modulus))]


def _inverses(ds: Sequence[int], modulus: int) -> list[int]:
    """[1/d modulo ``modulus`` for d in ds], every d a unit, from one
    modular inverse (Montgomery's trick): with P_k = d_0 ... d_k,
    1/d_k = P_(k-1) / P_k, and 1/P_(k-1) = d_k / P_k walks the products
    back from 1/P_last."""
    prods = [1]
    for d in ds:
        prods.append(prods[-1] * d % modulus)
    inv = pow(prods[-1], -1, modulus)
    out = [0] * len(ds)
    for k in range(len(ds) - 1, -1, -1):
        out[k] = inv * prods[k] % modulus
        inv = inv * ds[k] % modulus
    return out


def _echelon_mod(rows: Sequence[Sequence[int]], ncols: int,
                 modulus: int) -> tuple[list, list]:
    """Gauss-Jordan elimination of integer rows over Z/modulus.

    Only the first ``ncols`` columns are eliminated; further columns
    (an augmented block) ride along.  Pivots are entries invertible mod
    ``modulus``: a column whose remaining entries all vanish is free,
    and one with nonzero entries but no unit among them raises
    ValueError (a prime modulus never does).  Returns the reduced pivot
    rows, each 1 at its own pivot and 0 at every other, and the pivot
    columns.
    """
    mat = [[x % modulus for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(mat))
                    if math.gcd(mat[k][col], modulus) == 1), None)
        if piv is None:
            if any(mat[k][col] for k in range(r, len(mat))):
                raise ValueError("no unit pivot in column %d mod %d"
                                 % (col, modulus))
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, modulus)
        # the pivot row is zero left of col, so only the tails change
        top = [x * inv % modulus for x in mat[r][col:]]
        mat[r][col:] = top
        for k, row in enumerate(mat):
            f = row[col]
            if f and k != r:
                row[col:] = [(x - f * y) % modulus
                             for x, y in zip(row[col:], top)]
        pivots.append(col)
    return mat[:len(pivots)], pivots


class PrecisionError(ArithmeticError):
    """An operation cannot be carried out at any positive precision."""


class PadicNum:
    """A p-adic number known either exactly (as a rational) or mod p^N.

    Inexact values are stored as p^val * unit with the unit reduced
    modulo p^(prec - val); ``prec`` is the absolute precision, i.e. the
    value is pinned modulo p^prec.  An inexact zero O(p^N) has unit 0
    and val == prec == N, where val is then a lower bound.
    """

    __slots__ = ("p", "exact", "val", "unit", "prec")

    def __init__(self, p: int, *, exact: Fraction | None = None,
                 val: int | float = 0, unit: int = 0, prec: int | float = 0):
        self.p = p
        self.exact = exact
        if exact is not None:
            self.val = vp(exact, p)
            self.unit = 0
            self.prec = INFINITY
        else:
            self.val = val
            self.unit = unit
            self.prec = prec

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_exact(cls, q: RationalLike, p: int) -> "PadicNum":
        """q exactly; TypeError unless q is an int or a Fraction."""
        if type(q) not in _RATIONALS:
            raise TypeError("need an int or a Fraction, not %r" % (q,))
        return cls(p, exact=Fraction(q))

    @classmethod
    def from_rational(cls, q: RationalLike, p: int, N: int) -> "PadicNum":
        """q as an inexact p-adic with relative precision N.

        The result is known modulo p^(N + vp(q)); an exact rational zero
        maps to the exact zero.  TypeError unless q is an int or a Fraction.
        """
        v = vp(q, p)
        if v == INFINITY:
            return cls(p, exact=Fraction(0))
        if N <= 0:
            raise ValueError("relative precision must be positive")
        unit = _residue_of_rational(q, p, p ** N, -v)
        return cls(p, val=v, unit=unit, prec=v + N)

    @classmethod
    def inexact_zero(cls, p: int, N: int | float) -> "PadicNum":
        return cls(p, val=N, unit=0, prec=N)

    # -- predicates and accessors --------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def is_exact_zero(self) -> bool:
        return self.exact is not None and self.exact == 0

    def is_zero(self) -> bool:
        """True when indistinguishable from zero at the stored precision."""
        if self.exact is not None:
            return self.exact == 0
        return self.unit == 0

    @property
    def valuation(self) -> int | float:
        """Exact valuation, or a lower bound for an inexact zero."""
        return self.val

    @property
    def abs_precision(self) -> int | float:
        return self.prec

    @property
    def rel_precision(self) -> int | float:
        return self.prec - self.val

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k; requires val >= 0, prec >= k."""
        if k <= 0:
            return 0
        if self.prec < k:
            raise PrecisionError("not enough precision for residue mod p^%d" % k)
        if self.is_zero():
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer residue")
        if self.exact is not None:
            return _residue_of_rational(self.exact, self.p, self.p ** k)
        return self.unit * self.p ** self.val % self.p ** k

    # -- internal helpers ----------------------------------------------

    def _scaled_residue(self, shift: int, mod_exp: int) -> int:
        """Residue of self / p^shift modulo p^mod_exp (shift <= val)."""
        m = self.p ** mod_exp
        if self.exact is not None:
            return _residue_of_rational(self.exact, self.p, m, -shift)
        if self.unit == 0:
            return 0
        return self.unit * self.p ** (self.val - shift) % m

    def _coerce(self, other) -> "PadicNum | None":
        if isinstance(other, PadicNum):
            if other.p != self.p:
                raise ValueError("mixed primes %d and %d" % (self.p, other.p))
            return other
        if type(other) in _RATIONALS:
            return PadicNum.from_exact(other, self.p)
        return None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return PadicNum.from_exact(self.exact + other.exact, self.p)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        N = min(self.prec, other.prec)
        v0 = min(self.val, other.val, 0)
        width = N - v0
        if width <= 0:
            # no common digits survive
            return PadicNum.inexact_zero(self.p, N)
        s = (self._scaled_residue(v0, width) + other._scaled_residue(v0, width)) \
            % self.p ** width
        if s == 0:
            return PadicNum.inexact_zero(self.p, N)
        w = vp(s, self.p)
        unit = s // self.p ** w % self.p ** (width - w)
        if unit == 0:
            return PadicNum.inexact_zero(self.p, N)
        return PadicNum(self.p, val=v0 + w, unit=unit, prec=N)

    __radd__ = __add__

    def __neg__(self):
        if self.is_exact:
            return PadicNum.from_exact(-self.exact, self.p)
        if self.unit == 0:
            return self
        m = self.p ** (self.prec - self.val)
        return PadicNum(self.p, val=self.val, unit=(-self.unit) % m,
                        prec=self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return PadicNum.from_exact(self.exact * other.exact, self.p)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNum.from_exact(0, self.p)
        # prec = min(v1 + N2, v2 + N1); exact factors have N = inf
        val = self.val + other.val
        prec = min(self.val + other.prec, other.val + self.prec)
        if self.is_zero() or other.is_zero():
            return PadicNum.inexact_zero(self.p, prec)
        rel = prec - val
        m = self.p ** rel
        u1 = self._scaled_residue(self.val, rel)
        u2 = other._scaled_residue(other.val, rel)
        unit = u1 * u2 % m
        if unit % self.p == 0:  # pragma: no cover - units stay units
            raise AssertionError("unit product lost unitness")
        return PadicNum(self.p, val=val, unit=unit, prec=prec)

    __rmul__ = __mul__

    def _invert(self) -> "PadicNum":
        if self.is_exact:
            if self.exact == 0:
                raise ZeroDivisionError("division by exact zero")
            return PadicNum.from_exact(1 / self.exact, self.p)
        if self.unit == 0:
            raise PrecisionError("divisor is indistinguishable from zero")
        rel = self.prec - self.val
        m = self.p ** rel
        unit = pow(self.unit, -1, m)
        return PadicNum(self.p, val=-self.val, unit=unit, prec=rel - self.val)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._invert()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self._invert() ** (-k)
        out = PadicNum.from_exact(1, self.p)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.exact == other.exact
        return (self - other).is_zero()

    __hash__ = None

    def agrees(self, other, k: int) -> bool:
        """True when self == other mod p^k is supported by the precision.

        The difference must be known at least mod p^k and have valuation
        at least k (an inexact zero of precision >= k qualifies).
        """
        other = self._coerce(other)
        d = self - other
        if d.is_exact:
            return d.exact == 0 or vp(d.exact, self.p) >= k
        return d.prec >= k and d.val >= k

    def with_abs_precision(self, N: int) -> "PadicNum":
        """The same value truncated to absolute precision N."""
        if self.prec <= N:
            return self
        if self.is_zero() or self.val >= N:
            return PadicNum.inexact_zero(self.p, N)
        rel = N - self.val
        unit = self._scaled_residue(self.val, rel)
        if unit == 0:
            return PadicNum.inexact_zero(self.p, N)
        return PadicNum(self.p, val=self.val, unit=unit, prec=N)

    def __repr__(self):
        if self.is_exact:
            if self.exact == 0:
                return "0 (exact, p=%d)" % self.p
            return "%s (exact, p=%d)" % (self.exact, self.p)
        if self.unit == 0:
            return "O(%d^%s)" % (self.p, self.prec)
        if self.val == 0:
            body = "%d" % self.unit
        elif self.val == 1:
            body = "%d*%d" % (self.unit, self.p)
        else:
            body = "%d*%d^%d" % (self.unit, self.p, self.val)
        return "%s + O(%d^%s)" % (body, self.p, self.prec)


# -- p-adic logarithm and exponential ----------------------------------


def _ilog(n: int, p: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    out = 0
    q = p
    while q <= n:
        out += 1
        q *= p
    return out


def padic_log(x: PadicNum) -> PadicNum:
    """log of a 1-unit: requires x = 1 + u with vp(u) >= 1, p odd.

    The series sum (-1)^(i+1) u^i / i is truncated once the tail bound
    j*vp(u) - floor(log_p j) clears the target precision, that of u.
    """
    p = x.p
    if p == 2:
        raise ValueError("p must be odd")
    u = x - 1
    if u.is_exact_zero:
        return PadicNum.from_exact(0, p)
    if u.valuation < 1:
        raise ValueError("argument is not a 1-unit")
    target = u.abs_precision
    if target is INFINITY:
        raise ValueError("need a finite target precision for an exact argument")
    out = PadicNum.from_exact(0, p)
    term = PadicNum.from_exact(1, p)
    i = 0
    vu = u.valuation
    while (i + 1) * vu - _ilog(i + 1, p) < target:
        i += 1
        term = term * u
        out = out + (term / i if i % 2 else -(term / i))
    return out.with_abs_precision(target)


def padic_exp(x: PadicNum) -> PadicNum:
    """exp of x with vp(x) >= 1, p odd, to the precision of x; inverse of
    padic_log on 1-units."""
    p = x.p
    if p == 2:
        raise ValueError("p must be odd")
    if x.is_exact_zero:
        return PadicNum.from_exact(1, p)
    if x.valuation < 1:
        raise ValueError("argument must have valuation at least 1")
    target = x.abs_precision
    if target is INFINITY:
        raise ValueError("need a finite target precision for an exact argument")
    out = PadicNum.from_exact(1, p)
    term = PadicNum.from_exact(1, p)
    i = 0
    vx = x.valuation
    # vp(i!) <= (i - 1)/(p - 1); terms eventually sink below the target
    while True:
        i += 1
        term = term * x / i
        out = out + term
        if i * vx - (i - 1) // (p - 1) >= target + 1:
            break
    return out.with_abs_precision(target)


# -- Bernoulli numbers -------------------------------------------------

# first even index whose Bernoulli number takes the zeta route
ZETA_BERNOULLI_FROM = 64

_tangent_lock = threading.Lock()
_tangent_cache: list[int] = []  # _tangent_cache[k-1] = k-th tangent number


def _tangent_numbers(n: int) -> list[int]:
    # in-place triangle; integer arithmetic only
    T = [0] * (n + 1)
    T[1] = 1
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T[1:]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n with the convention B_1 = -1/2.

    Even n below ZETA_BERNOULLI_FROM read the tangent-number triangle,
    larger ones zeta(n) (_bernoulli_by_zeta).  TypeError unless n is an
    int, not a bool."""
    if type(n) is not int:
        raise TypeError("bernoulli needs an int index, not %r" % (n,))
    if n < 0:
        raise ValueError("negative index")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    if n >= ZETA_BERNOULLI_FROM:
        return _bernoulli_by_zeta(n)
    return _bernoulli_by_tangents(n)


def _bernoulli_by_tangents(n: int) -> Fraction:
    """B_n for even n >= 2 from the n/2-th tangent number."""
    m = n // 2
    with _tangent_lock:
        if len(_tangent_cache) < m:
            _tangent_cache[:] = _tangent_numbers(m)
        t = _tangent_cache[m - 1]
    sign = 1 if m % 2 == 1 else -1
    four_m = 4 ** m
    return Fraction(sign * 2 * m * t, four_m * (four_m - 1))


def _staudt_denominator(n: int) -> int:
    """The denominator of B_n, even n >= 2: by von Staudt-Clausen the
    product of the primes q with (q - 1) | n."""
    return math.prod(q for q in range(2, n + 2)
                     if n % (q - 1) == 0 and is_prime(q))


def _arctan_inv(x: int, scale: int) -> int:
    """arctan(1/x) 2^scale, x >= 2, to within (terms + 1) units: each
    term floor(2^scale / ((2k+1) x^(2k+1))) is one floor, and the
    alternating tail past the first zero term is under one unit."""
    out, k, power = 0, 0, (1 << scale) // x
    while power:
        out += (-1) ** k * (power // (2 * k + 1))
        power //= x * x
        k += 1
    return out


@functools.lru_cache(maxsize=16)
def _two_pi(Q: int) -> int:
    """2 pi 2^Q by Machin's formula, 2 (16 arctan(1/5) - 4 arctan(1/239)),
    each arctan to within (terms + 1) units 2^-Q (_arctan_inv)."""
    return 2 * (16 * _arctan_inv(5, Q) - 4 * _arctan_inv(239, Q))


def _bernoulli_by_zeta(n: int) -> Fraction:
    """B_n for even n >= 64 from B_n = (-1)^(n/2+1) 2 n! zeta(n) / (2 pi)^n,
    in fixed-point integer arithmetic.

    With D = _staudt_denominator(n), T = |B_n| D is an integer below
    2^E, E the bit length of 4 n! D // 6^n (zeta(n) < 2, 2 pi > 6).  A
    real x is held as an integer near x 2^Q, Q at least Q0 = E +
    2 bitlen(n E) + 8, and every floor costs under one unit 2^-Q:

    * 2 pi (_two_pi), each arctan with under Q/4 and Q/15 terms:
      relative error h < 2 Q 2^-Q;
    * (2 pi)^n by square-and-multiply, one floor per product of factors
      >= 1: relative error < 2 (n h + 2 bitlen(n) 2^-Q) <= 4 (n+1) Q 2^-Q;
    * zeta(n) as the sum of floor(2^Q / k^n) over the K <= 2^(Q/n)
      values k with k^n <= 2^Q, plus a tail under two units: relative
      error < (2^(Q/n) + 2) 2^-Q.

    Each of these bounds falls as Q grows (Q 2^-Q does for Q >= 2, and
    2^(Q/n - Q) for n >= 2), so at any Q >= Q0 they are at most their
    values at Q0, where K < n/4.  16 T = 16 (2 n! D) zeta(n) / (2 pi)^n
    is so computed to relative error r < 10 (n+1) Q0 2^-Q0 <= 2^-(E+3),
    by the choice of Q0, and floored.  The result over 16 lies within
    2^E r + 1/16 <= 3/16 < 1/4 of the integer T, so rounding it gives T
    exactly.  Q is Q0 rounded up to a multiple of 256, so that indices
    with nearby Q0 share one memoized 2 pi 2^Q.
    """
    D = _staudt_denominator(n)
    top = 2 * math.factorial(n) * D
    E = (2 * top // 6 ** n).bit_length()
    Q = -(-(E + 2 * (n * E).bit_length() + 8) // 256) * 256
    one = 1 << Q
    tau = _two_pi(Q)
    tau_n, k = one, n
    while k:
        if k & 1:
            tau_n = tau_n * tau >> Q
        k >>= 1
        if k:
            tau = tau * tau >> Q
    zeta = sum(takewhile(bool, (one // k ** n for k in count(1))))
    T = (16 * top * zeta // tau_n + 8) >> 4
    return Fraction(T if n % 4 == 2 else -T, D)


# -- small combinatorics ----------------------------------------------


def multinomial(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(part!); zero when any part is negative."""
    total = 0
    for part in parts:
        if part < 0:
            return 0
        total += part
    out = math.factorial(total)
    for part in parts:
        out //= math.factorial(part)
    return out


# -- records ---------------------------------------------------------


class _Record:
    """Base of the package's record classes.  The fields are the
    parameters of the subclass's __init__, which stores each under its
    own name.  Records of one class compare equal when their fields do,
    are unhashable, print as Name(field=value, ...), and replace()
    builds a copy through __init__, so its checks run again."""

    __hash__ = None

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**dict(zip(self._fields, self._values()),
                                 **changes))


# -- affine congruence systems ----------------------------------------


class CongruenceSystem(_Record):
    """Conditions vp(c0 + sum_i alpha_i c_i) >= 0 on unknowns in Z_p,
    stored reduced; immutable and hashable.

    Each condition is a row (a, b, e): the congruence sum_i a_i alpha_i
    = b mod p^e, with 0 <= a_i, b < p^e and e the least exponent that
    makes p^e c0 and every p^e c_i p-integral.  The index
    InconsistentSystem reports is the least index of the conditions
    that solve_affine_congruences combined into the violated row; a
    row with e = 0 binds nothing but keeps its place in that count.
    build() reduces rational rows (c0, coefficients) once;
    recover_alpha builds the reduced rows straight from the slot
    residues.
    """

    def __init__(self, prime: int, unknowns: int,
                 conditions: tuple[tuple[tuple[int, ...], int, int], ...]):
        vars(self).update(prime=prime, unknowns=unknowns,
                          conditions=conditions)

    def __setattr__(self, name, *value):
        raise AttributeError("CongruenceSystem is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())

    @classmethod
    def build(cls, p: int, rows: Iterable[tuple[RationalLike, Sequence[RationalLike]]]
              ) -> "CongruenceSystem":
        conds = []
        width = None
        for c0, coeffs in rows:
            if width is None:
                width = len(coeffs)
            elif len(coeffs) != width:
                raise ValueError("ragged condition rows")
            conds.append(_reduced_condition(c0, coeffs, p))
        if width is None:
            raise ValueError("empty system")
        return cls(p, width, tuple(conds))


class CongruenceSolution(_Record):
    """Solution coset of a congruence system.

    Every solution satisfies alpha_i == representative[i] mod
    p^exponents[i]; the exponents are exact coordinate projections of
    the solution lattice, and ``generators`` spans that
    lattice modulo p^modulus_exponent.
    """

    def __init__(self, prime: int, representative: list[int],
                 exponents: list[int], modulus_exponent: int,
                 generators: list[list[int]] | None = None):
        self.prime = prime
        self.representative = representative
        self.exponents = exponents
        self.modulus_exponent = modulus_exponent
        self.generators = [] if generators is None else generators


class InconsistentSystem(Exception):
    """No p-integral solution exists; index is the least condition
    combined into the violated row (see CongruenceSystem)."""

    def __init__(self, index: int):
        super().__init__("inconsistent condition (first violated index %d)" % index)
        self.index = index


def _reduced_condition(c0: RationalLike, coeffs: Sequence[RationalLike],
                       p: int, shift: int = 0) -> tuple:
    """The row (a, b, e) of CongruenceSystem for the condition
    vp(p^shift (c0 + sum_i alpha_i c_i)) >= 0 on alpha in Z_p."""
    e = 0
    for c in (c0, *coeffs):
        if c:
            e = max(e, -shift - vp(c, p))
    *a, b = _residues_of_rationals((*coeffs, -c0), p, p ** e, e + shift)
    return tuple(a), b, e


def solve_affine_congruences(system: CongruenceSystem) -> CongruenceSolution:
    """Describe all alpha in Z_p^k satisfying every integrality condition.

    The reduced rows (a, b, e) with e > 0, each scaled to the common
    modulus p^E, E = max e, are brought to Smith normal form over Z/p^E
    in one pass, which yields the exact solution coset.  Step r moves
    the first entry of least valuation d (row-major over rows and
    columns >= r) to (r, r) and clears column r in the rows below it;
    the column operations that clear row r go only into M, where
    alpha = M gamma, since no later step reads row r.  first[i] is the
    least index of the conditions combined into row i.  Raises
    InconsistentSystem with that index for the first leftover row
    (past the rank) with b != 0, else for the first pivot row with
    p^d not dividing b.
    """
    p = system.prime
    k = system.unknowns
    E = max((e for _, _, e in system.conditions), default=0)
    M = [[int(i == j) for j in range(k)] for i in range(k)]
    if E == 0:
        return CongruenceSolution(p, [0] * k, [0] * k, 0, M)
    mod = p ** E
    A, b, first = [], [], []
    for idx, (a, c, e) in enumerate(system.conditions):
        if e:
            scale = p ** (E - e)
            A.append([x * scale for x in a])
            b.append(c * scale)
            first.append(idx)
    d = []
    for r in range(min(len(A), k)):
        # an entry that p^v divides, 0 included, cannot beat v
        v, pv, i0, j0 = E, mod, None, None
        for i in range(r, len(A)):
            row = A[i]
            for j in range(r, k):
                if row[j] % pv:
                    v = vp(row[j], p)
                    pv, i0, j0 = p ** v, i, j
        if i0 is None:
            break
        for xs in (A, b, first):
            xs[r], xs[i0] = xs[i0], xs[r]
        for row in A[r:] + M:
            row[r], row[j0] = row[j0], row[r]
        inv = pow(A[r][r] // pv, -1, mod)
        pivot = [x * inv % mod for x in A[r]]
        b[r] = b[r] * inv % mod
        for i in range(r + 1, len(A)):
            q = A[i][r] // pv
            if q:
                A[i] = [(x - q * y) % mod for x, y in zip(A[i], pivot)]
                b[i] = (b[i] - q * b[r]) % mod
                first[i] = min(first[i], first[r])
        for j in range(r + 1, k):
            q = pivot[j] // pv
            if q:
                for row in M:
                    row[j] = (row[j] - q * row[r]) % mod
        d.append(v)
    rank = len(d)
    for i in range(rank, len(A)):
        if b[i]:
            raise InconsistentSystem(first[i])
    for i in range(rank):
        if b[i] % p ** d[i]:
            raise InconsistentSystem(first[i])
    gamma = [b[i] // p ** d[i] for i in range(rank)] + [0] * (k - rank)
    rep = [sum(m * g for m, g in zip(row, gamma)) % mod for row in M]
    # a free column (past the rank) is a generator as it stands
    d += [E] * (k - rank)
    gens = []
    for j in range(k):
        g = [row[j] * p ** (E - d[j]) % mod for row in M]
        if any(g):
            gens.append(g)
    exps = [min((vp(g[i], p) for g in gens if g[i]), default=E)
            for i in range(k)]
    return CongruenceSolution(p, rep, exps, E, gens)
