"""Truncated power series and log-polynomial series.

A PowerSeries holds coefficients of t^0..t^(order-1); the order is the
truncation modulus, so the series is known mod t^order.  Binary
arithmetic keeps the minimum order of the operands.  Coefficients are
int or Fraction, and building a series with any other coefficient is a
TypeError; absent coefficients are the integer 0.

A series computes on one internal form: integer numerators over one
positive denominator, with no common factor and no trailing zero.  The
form is built from the coefficient list the first time arithmetic needs
it, and kept.  A series that arithmetic returns holds only the form;
its coefficients become ints (denominator 1) or Fractions the first
time they are read, and are kept too.  So a series that is only ever
read, such as a slot of the fixed-precision solve, never builds the
form.

exp runs on coefficient lists (_exp_coefficients), which need only +,
* and division by integers, so the zeta polynomials and truncated
p-adics of zeta_gamma share it with PowerSeries.exp.

A LogSeries is a polynomial in l = log t whose coefficients are
PowerSeries, with the theta = t d/dt action theta(s l^k) =
theta(s) l^k + k s l^(k-1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .padic_core import _RATIONALS

_SCALARS = (int, Fraction)


class NonUnitConstantTerm(ArithmeticError):
    """Inversion needs an invertible constant term."""


class BadConstantTerm(ArithmeticError):
    """exp needs constant term 0; log needs constant term 1."""


def _exact_div(x, d: int):
    """x / d keeping int/int exact (never a float)."""
    if isinstance(x, int):
        q = Fraction(x, d)
        return int(q) if q.denominator == 1 else q
    return x / d


def _is_zero_coeff(c) -> bool:
    if isinstance(c, _SCALARS):
        return c == 0
    is_zero = getattr(c, "is_zero", None)
    if is_zero is not None:
        return bool(is_zero())
    return c == 0


def _exp_coefficients(f: Sequence, order: int) -> list:
    """Coefficients of exp(f) below t^order for a coefficient list f
    with constant term 0, over any ring with +, * and division by
    integers.

    g = exp(f) satisfies theta(g) = theta(f) g, giving
    m g_m = sum_k k f_k g_{m-k}.
    """
    if f and not _is_zero_coeff(f[0]):
        raise BadConstantTerm("exp needs constant term 0")
    terms = [(k, k * x) for k, x in enumerate(f[:order])
             if k and not _is_zero_coeff(x)]
    out = [1]
    for m in range(1, order):
        acc = None
        for k, kf in terms:
            if k > m:
                break
            term = kf * out[m - k]
            acc = term if acc is None else acc + term
        out.append(_exact_div(acc, m) if acc is not None else 0)
    return out


def _lowest(nums: list, d: int) -> tuple:
    """(nums, d) with trailing zeros dropped and the common factor of the
    numerators and d divided out; nums may be changed in place."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(d, *nums) if d != 1 else 1
    if g != 1:
        nums, d = [x // g for x in nums], d // g
    return nums, d


def _convolve(a: list, b: list, order: int) -> list:
    """The product of two coefficient lists below t^order."""
    out = [0] * min(len(a) + len(b) - 1, order)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:order - i], i):
                out[j] += x * y
    return out


class PowerSeries:
    __slots__ = ("_coeffs", "_num", "_den", "order")

    def __init__(self, coeffs: Sequence, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self._coeffs = list(coeffs[:order])
        if not _RATIONALS.issuperset(map(type, self._coeffs)):
            raise TypeError("PowerSeries coefficients must be int or "
                            "Fraction")
        while self._coeffs and isinstance(self._coeffs[-1], int) \
                and self._coeffs[-1] == 0:
            self._coeffs.pop()
        self._den = None    # no form built yet
        self.order = order

    @classmethod
    def _of(cls, nums: list, d: int, order: int) -> "PowerSeries":
        """The series nums / d mod t^order from a form already lowest."""
        if order < 1:
            raise ValueError("order must be positive")
        s = cls.__new__(cls)
        s._coeffs, s._num, s._den, s.order = None, nums, d, order
        return s

    def _form(self) -> tuple:
        """(numerators, denominator), built on the first call and kept."""
        if self._den is None:
            cs = self._coeffs
            d = math.lcm(*(c.denominator for c in cs))
            self._num, self._den = _lowest(
                [c.numerator * (d // c.denominator) for c in cs], d)
        return self._num, self._den

    def _rebuilt(self, edit, order: int) -> "PowerSeries":
        """The series mod t^order whose numerators are edit(numerators),
        for an edit that commutes with multiplying every coefficient by
        one integer."""
        nums, d = self._form()
        return PowerSeries._of(*_lowest(edit(nums), d), order)

    def _times(self, c) -> "PowerSeries":
        """self * c for an int or Fraction c."""
        nums, d = self._form()
        return PowerSeries._of(*_lowest([x * c.numerator for x in nums],
                                        d * c.denominator), self.order)

    @property
    def coeffs(self) -> list:
        """Coefficients of t^0, t^1, ...; past the list they are 0."""
        if self._coeffs is None:
            d = self._den
            self._coeffs = list(self._num) if d == 1 else \
                [Fraction(x, d) if x else 0 for x in self._num]
        return self._coeffs

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        return cls([0, 1], order)

    def coefficient(self, k: int):
        if k < 0 or k >= self.order:
            raise IndexError("coefficient t^%d outside known range" % k)
        return self.known(k)

    def known(self, k: int):
        """Coefficient of t^k, or 0 for any index (no range check)."""
        cs = self._coeffs
        if cs is None:
            cs = self.coeffs
        return cs[k] if 0 <= k < len(cs) else 0

    def constant_term(self):
        return self.known(0)

    def is_zero(self) -> bool:
        return not any(self._coeffs if self._den is None else self._num)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._rebuilt(lambda cs: [-c for c in cs], self.order)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _add(self, other, sign: int) -> "PowerSeries":
        """self + sign * other for a series or scalar other and sign 1 or
        -1."""
        if isinstance(other, _SCALARS):
            other = PowerSeries([other], self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        order = min(self.order, other.order)
        (na, da), (nb, db) = self._form(), other._form()
        d = math.lcm(da, db)
        ma, mb = d // da, sign * (d // db)
        na, nb = na[:order], nb[:order]
        if len(na) < len(nb):
            na, nb, ma, mb = nb, na, mb, ma
        out = [x * ma + y * mb for x, y in zip(na, nb)]
        out += [x * ma for x in na[len(nb):]]
        return PowerSeries._of(*_lowest(out, d), order)

    def __mul__(self, other):
        """Series or scalar product; two series convolve their
        numerators over the product of their denominators."""
        if isinstance(other, PowerSeries):
            order = min(self.order, other.order)
            (na, da), (nb, db) = self._form(), other._form()
            return PowerSeries._of(
                *_lowest(_convolve(na[:order], nb[:order], order), da * db),
                order)
        if isinstance(other, _SCALARS):
            return self._times(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Square-and-multiply: about 2 log2(k) products."""
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out, base = PowerSeries.one(self.order), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            return self * other.invert()
        if isinstance(other, _SCALARS):
            return self._times(1 / Fraction(other))
        return NotImplemented

    def invert(self) -> "PowerSeries":
        """Multiplicative inverse; needs an invertible constant term.

        With a form N/d, n_0 > 0 after a sign flip of N and d, 1/N is
        sum_m h_m t^m / n_0^(m+1) for the integers h_0 = 1 and h_m =
        -sum_k n_k n_0^(k-1) h_(m-k), and 1/f = d/N over n_0^order.
        """
        nums, d = self._form()
        if not nums or not nums[0]:
            raise NonUnitConstantTerm("constant term is zero")
        if nums[0] < 0:
            nums, d = [-x for x in nums], -d
        n0, top = nums[0], self.order - 1
        terms = [(k, x * n0 ** (k - 1)) for k, x in enumerate(nums) if k and x]
        h = [1]
        for m in range(1, self.order):
            h.append(-sum(x * h[m - k] for k, x in terms if k <= m))
        return PowerSeries._of(
            *_lowest([d * x * n0 ** (top - m) for m, x in enumerate(h)],
                     n0 ** self.order), self.order)

    def exp(self) -> "PowerSeries":
        """exp of a series with constant term 0 (_exp_coefficients)."""
        return PowerSeries(_exp_coefficients(self.coeffs, self.order),
                           self.order)

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1 (theta(f)/f integrated)."""
        if self.constant_term() != 1:
            raise BadConstantTerm("log needs constant term 1")
        ratio = self.theta() * self.invert()
        return PowerSeries([0] + [_exact_div(ratio.known(m), m)
                                  for m in range(1, self.order)], self.order)

    def theta(self) -> "PowerSeries":
        """t d/dt, which preserves the truncation order."""
        return self._rebuilt(lambda cs: [k * c for k, c in enumerate(cs)],
                             self.order)

    def substitute_tp(self, p: int) -> "PowerSeries":
        """f(t^p): exponents scale by p, knowledge extends to order p*order."""
        if p < 1:
            raise ValueError("p must be positive")

        def spread(cs):
            out = [0] * ((len(cs) - 1) * p + 1) if cs else []
            out[::p] = cs
            return out

        return self._rebuilt(spread, self.order * p)

    def scale_argument(self, c) -> "PowerSeries":
        """f(c t) for an int or Fraction c = u/v: the numerator of t^k
        gains u^k v^(top-k) over a denominator that gains v^top, top
        the highest degree present."""
        if type(c) not in _RATIONALS:
            raise TypeError("scale_argument needs an int or a Fraction")
        u, v = c.numerator, c.denominator
        nums, d = self._form()
        top = max(len(nums) - 1, 0)
        return PowerSeries._of(
            *_lowest([a * u ** k * v ** (top - k) for k, a in enumerate(nums)],
                     d * v ** top), self.order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("negative shift")
        return self._rebuilt(lambda cs: [0] * k + cs, self.order + k)

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self     # series are never changed in place
        return self._rebuilt(lambda cs: cs[:order], order)

    def eq_mod(self, other: "PowerSeries", order: int) -> bool:
        return all(self.known(k) == other.known(k) for k in range(order))

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = PowerSeries([other], self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.eq_mod(other, min(self.order, other.order))

    __hash__ = None

    def __repr__(self):
        terms = ["%s*t^%d" % (c, k) for k, c in enumerate(self.coeffs[:8])
                 if c]
        body = " + ".join(terms) if terms else "0"
        return "(%s + O(t^%d))" % (body, self.order)


class LogSeries:
    """Polynomial in l = log t with PowerSeries coefficients.

    coeffs[k] multiplies l^k.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[PowerSeries]):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the l^0 slot")
        self.coeffs = coeffs

    @classmethod
    def from_series(cls, s: PowerSeries) -> "LogSeries":
        return cls([s])

    def component(self, k: int) -> PowerSeries:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        order = min(s.order for s in self.coeffs)
        return PowerSeries.zero(order)

    def _zip(self, other: "LogSeries", op) -> "LogSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        order = min(s.order for s in self.coeffs + other.coeffs)
        out = []
        for k in range(n):
            a = self.component(k).truncate(order)
            b = other.component(k).truncate(order)
            out.append(op(a, b))
        return LogSeries(out)

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            other = LogSeries.from_series(other)
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            other = LogSeries.from_series(other)
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return LogSeries([-s for s in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, LogSeries):
            n = len(self.coeffs) + len(other.coeffs) - 1
            order = min(s.order for s in self.coeffs + other.coeffs)
            out = [PowerSeries.zero(order) for _ in range(n)]
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return LogSeries(out)
        # series or scalar multiplies every slot
        return LogSeries([s * other for s in self.coeffs])

    def __rmul__(self, other):
        return LogSeries([other * s for s in self.coeffs])

    def theta(self) -> "LogSeries":
        """theta(s l^k) = theta(s) l^k + k s l^(k-1)."""
        out = [s.theta() for s in self.coeffs]
        for k in range(1, len(self.coeffs)):
            out[k - 1] = out[k - 1] + k * self.coeffs[k]
        return LogSeries(out)

    def substitute_tp(self, p: int) -> "LogSeries":
        """t -> t^p: series slots compose, l picks up a factor p per power."""
        return LogSeries([self.coeffs[k].substitute_tp(p) * p ** k
                          for k in range(len(self.coeffs))])

    def is_zero_mod(self, order: int) -> bool:
        return all(s.truncate(order).is_zero() for s in self.coeffs)

    def eq_mod(self, other: "LogSeries", order: int) -> bool:
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.component(k).eq_mod(other.component(k), order)
                   for k in range(n))

    def __repr__(self):
        return "LogSeries[%s]" % ", ".join(
            "l^%d: %r" % (k, s) for k, s in enumerate(self.coeffs))
