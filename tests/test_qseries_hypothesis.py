"""Property tests of the ring laws of PowerSeries and LogSeries on
random truncated series with rational coefficients."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from padicfrob.qseries import LogSeries, PowerSeries  # noqa: E402

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
