"""Property tests of the ring laws of PowerSeries and LogSeries on
random truncated series with rational coefficients, and differential
tests of every operation, which computes on integer numerators over one
denominator, against the same arithmetic done coefficient by
coefficient over Fractions."""

from fractions import Fraction
from functools import reduce
from math import factorial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from padicfrob.qseries import (  # noqa: E402
    LogSeries,
    NonUnitConstantTerm,
    PowerSeries,
    _exp_coefficients,
)

COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def _series(order):
    return st.lists(COEFFS, max_size=order).map(
        lambda cs: PowerSeries(cs, order))


@st.composite
def _three_series(draw):
    # orders may differ: every result is known mod t^(least order)
    return tuple(draw(_series(draw(st.integers(1, 8)))) for _ in range(3))


@st.composite
def _three_log_series(draw):
    order = draw(st.integers(1, 6))
    return tuple(LogSeries(draw(st.lists(_series(order), min_size=1,
                                         max_size=3)))
                 for _ in range(3))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(abc=_three_series(), x=COEFFS)
def test_power_series_ring_laws(abc, x):
    a, b, c = abc
    order = min(a.order, b.order, c.order)
    one = PowerSeries.one(order)
    zero = PowerSeries.zero(order)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and (a - a).eq_mod(zero, a.order)
    assert -a + a == zero
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert (a * x).eq_mod(PowerSeries([x], a.order) * a, a.order)
    assert a * 2 == a + a and a ** 2 == a * a


@settings(derandomize=True, max_examples=40, deadline=None)
@given(abc=_three_log_series(), x=COEFFS)
def test_log_series_ring_laws(abc, x):
    a, b, c = abc
    order = a.coeffs[0].order
    one = LogSeries.from_series(PowerSeries.one(order))
    zero = LogSeries.from_series(PowerSeries.zero(order))
    assert (a + b).eq_mod(b + a, order)
    assert ((a + b) + c).eq_mod(a + (b + c), order)
    assert (a + zero).eq_mod(a, order)
    assert (a - a).eq_mod(zero, order) and (-a + a).eq_mod(zero, order)
    assert (a * b).eq_mod(b * a, order)
    assert ((a * b) * c).eq_mod(a * (b * c), order)
    assert (a * (b + c)).eq_mod(a * b + a * c, order)
    assert (a * one).eq_mod(a, order)
    assert (a * x).eq_mod(x * a, order)
    assert (a * Fraction(2)).eq_mod(a + a, order)


def _generic_product(a, b):
    """The coefficient-by-coefficient product loop, for reference."""
    order = min(a.order, b.order)
    out = [0] * min(len(a.coeffs) + len(b.coeffs) - 1, order) \
        if a.coeffs and b.coeffs else []
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < order:
                out[i + j] = out[i + j] + x * y
    return out


MIXED = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                  st.fractions(max_denominator=10 ** 4),
                  st.just(0), st.just(Fraction(0)))


def _mixed_series():
    # coefficient lists may be empty, end in zeros or run past the order
    return st.builds(PowerSeries, st.lists(MIXED, max_size=12),
                     st.integers(1, 10))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_mixed_series(), b=_mixed_series())
def test_rational_kernel_matches_generic_loop(a, b):
    got = a * b
    want = _generic_product(a, b)
    assert got.order == min(a.order, b.order)
    assert [got.known(c) for c in range(got.order)] == \
        [want[c] if c < len(want) else 0 for c in range(got.order)]
    assert all(isinstance(c, (int, Fraction)) for c in got.coeffs)


# -- the integer form against per-coefficient arithmetic -----------------

# small denominators make sums and products reduce, often to integers
SMALL = st.one_of(st.integers(-6, 6),
                  st.fractions(min_value=-6, max_value=6, max_denominator=6))
SCALARS = st.one_of(st.integers(-7, 7),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6))


def _small_series(max_order=8):
    # coefficient lists may be empty, end in zeros or run past the order
    return st.builds(PowerSeries, st.lists(SMALL, max_size=max_order + 2),
                     st.integers(1, max_order))


def _values(s):
    """Every coefficient of s below its order as a Fraction, each read
    checked to be an int or a Fraction that prints as its value does."""
    out = []
    for k in range(s.order):
        c = s.known(k)
        assert type(c) in (int, Fraction) and str(c) == str(Fraction(c))
        out.append(Fraction(c))
    return out


def _check(got, want):
    """got is the series mod t^len(want) with those coefficients."""
    assert got.order == len(want)
    assert _values(got) == want


def _product(x, y):
    """The Fraction product of two coefficient lists, known to the
    shorter one's length."""
    return [sum(x[i] * y[m - i] for i in range(m + 1))
            for m in range(min(len(x), len(y)))]


def _inverse(x):
    """The inverse of a coefficient list with a nonzero head."""
    out = [1 / x[0]]
    for m in range(1, len(x)):
        out.append(-sum(x[k] * out[m - k] for k in range(1, m + 1)) / x[0])
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=_small_series(), b=_small_series(), c=SCALARS,
       k=st.integers(0, 4))
@example(a=PowerSeries([], 1), b=PowerSeries([Fraction(1, 2)], 1),
         c=Fraction(-3, 2), k=0)
@example(a=PowerSeries([Fraction(1, 6), Fraction(1, 3)], 4),
         b=PowerSeries([Fraction(5, 6), Fraction(-1, 3), 0], 4),
         c=Fraction(-6), k=2)
def test_form_matches_fraction_arithmetic(a, b, c, k):
    x, y = _values(a), _values(b)
    one = [Fraction(1)] + [Fraction(0)] * (a.order - 1)
    _check(a + b, [u + v for u, v in zip(x, y)])
    _check(a - b, [u - v for u, v in zip(x, y)])
    _check(-a, [-u for u in x])
    _check(a * b, _product(x, y))
    _check(a * c, [u * c for u in x])
    _check(c * a, [c * u for u in x])
    _check(a + c, [x[0] + c] + x[1:])
    _check(c + a, [c + x[0]] + x[1:])
    _check(a - c, [x[0] - c] + x[1:])
    _check(c - a, [c - x[0]] + [-u for u in x[1:]])
    if c:
        _check(a / c, [u / c for u in x])
    _check(a ** k, reduce(_product, [x] * k, one))
    _check(a.theta(), [m * u for m, u in enumerate(x)])
    _check(a.shift(k), [0] * k + x)
    _check(a.truncate(k + 1), x[:k + 1])
    _check(a.substitute_tp(k + 1),
           [0 if m % (k + 1) else x[m // (k + 1)]
            for m in range(a.order * (k + 1))])
    _check(a.scale_argument(int(c)), [u * int(c) ** m
                                      for m, u in enumerate(x)])
    _check(a.scale_argument(c), [u * c ** m for m, u in enumerate(x)])
    if x[0]:
        _check(a.invert(), _inverse(x))
        _check(b / a, _product(y, _inverse(x)))
    else:
        with pytest.raises(NonUnitConstantTerm):
            a.invert()
    assert [a.coefficient(m) for m in range(a.order)] == x
    for m in (-1, a.order):
        with pytest.raises(IndexError):
            a.coefficient(m)
    assert a.is_zero() == (not any(x))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=_small_series(), b=_small_series(), c=SCALARS)
def test_coeffs_read_after_a_chain(a, b, c):
    # coefficients read once at the end of several operations, each of
    # which builds on the last one's integer form
    x, y = _values(a), _values(b)
    n = min(a.order, b.order)
    chain = ((a * b - c * a).theta() + b.shift(1) * c).truncate(n) - 1
    want = [m * (u - c * v) for m, (u, v) in enumerate(zip(_product(x, y),
                                                          x))]
    want = [w + c * s for w, s in zip(want, [0] + y)]
    want[0] -= 1
    assert chain.order == n
    read = chain.coeffs
    assert all(type(r) in (int, Fraction) for r in read)
    assert read + [0] * (n - len(read)) == want
    assert chain.coeffs is read


def _log_values(s):
    return [_values(slot) for slot in s.coeffs]


def _slot_sum(x, y):
    zero = [Fraction(0)] * len((x + y)[0])
    return [[u + v for u, v in zip(p, q)]
            for p, q in zip(x + [zero] * (len(y) - len(x)),
                            y + [zero] * (len(x) - len(y)))]


@st.composite
def _log_pair(draw):
    order = draw(st.integers(1, 6))
    series = st.builds(PowerSeries, st.lists(SMALL, max_size=order + 1),
                       st.just(order))
    return tuple(LogSeries(draw(st.lists(series, min_size=1, max_size=3)))
                 for _ in range(2))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(ab=_log_pair(), c=SCALARS, p=st.integers(1, 3))
def test_log_series_match_fraction_arithmetic(ab, c, p):
    a, b = ab
    x, y = _log_values(a), _log_values(b)
    order = len(x[0])
    assert _log_values(a + b) == _slot_sum(x, y)
    assert _log_values(a - b) == _slot_sum(x, [[-v for v in q] for q in y])
    assert _log_values(-a) == [[-u for u in q] for q in x]
    product = [[Fraction(0)] * order for _ in range(len(x) + len(y) - 1)]
    for i, q in enumerate(x):
        for j, r in enumerate(y):
            product[i + j] = [u + v for u, v in zip(product[i + j],
                                                    _product(q, r))]
    assert _log_values(a * b) == product
    assert _log_values(a * c) == _log_values(c * a) == \
        [[u * c for u in q] for q in x]
    theta = [[m * u for m, u in enumerate(q)] for q in x]
    for k in range(1, len(x)):
        theta[k - 1] = [u + k * v for u, v in zip(theta[k - 1], x[k])]
    assert _log_values(a.theta()) == theta
    assert _log_values(a.substitute_tp(p)) == [
        [0 if m % p else q[m // p] * p ** k for m in range(order * p)]
        for k, q in enumerate(x)]
    for m in range(1, order + 1):
        assert a.is_zero_mod(m) == (not any(u for q in x for u in q[:m]))
        assert (a - b).is_zero_mod(m) == a.eq_mod(b, m)



@settings(derandomize=True, max_examples=100, deadline=None)
@given(x=st.lists(SMALL, max_size=8), order=st.integers(1, 8))
def test_list_exp_matches_series_exp(x, order):
    # exp(f) = sum_k f^k / k!, and f^k vanishes below t^k
    f = [Fraction(0)] + [Fraction(u) for u in x[1:order]]
    f += [Fraction(0)] * (order - len(f))
    want = [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for k in range(order):
        want = [w + u / factorial(k) for w, u in zip(want, power)]
        power = _product(power, f)
    got = _exp_coefficients(f, order)
    assert got == want
    assert all(type(c) in (int, Fraction) for c in got)
    series = PowerSeries(f, order)
    _check(series.exp(), want)
    assert series.exp().log() == series
