"""Property tests of solve_A_series on random small MUM operators
theta^n - t prod_i (theta + a_i): the exact solve satisfies the defining
identity, and the fixed-precision solve agrees with it."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from padicfrob.frobenius import (  # noqa: E402
    solve_A_series,
    verify_frobenius_property,
)
from padicfrob.mum import MumOperator, standard_basis  # noqa: E402
from padicfrob.padic_core import PadicNum  # noqa: E402


def _operator(shifts) -> MumOperator:
    # prod_i (theta + a_i) as a polynomial in theta, low power first
    prod = [1]
    for a in shifts:
        prod = [a * x + y for x, y in zip(prod + [0], [0] + prod)]
    n = len(shifts)
    return MumOperator([[0, -prod[i]] for i in range(n)] + [[1, -1]])


SHIFTS = st.lists(st.integers(-3, 3), min_size=2, max_size=3)
PRIMES = (3, 5, 7, 11)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shifts=SHIFTS, p=st.sampled_from(PRIMES), M=st.integers(5, 40),
       alphas=st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_exact_solve_satisfies_identity(shifts, p, M, alphas):
    L = _operator(shifts)
    dec = solve_A_series(L, p, M)
    assert verify_frobenius_property(dec, alphas[:L.order - 1], M)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shifts=SHIFTS, M=st.integers(5, 40), digits=st.integers(1, 6))
def test_fixed_precision_agrees_with_exact(shifts, M, digits):
    L = _operator(shifts)
    n = L.order
    sb = standard_basis(L, M)
    for p in PRIMES:
        exact = solve_A_series(L, p, M, basis=sb)
        fixed = solve_A_series(L, p, M, basis=sb, digits=digits)
        for k in range(n):
            for j in range(n):
                for m in range(M):
                    want = exact.slot(k, j, m)
                    got = fixed.slot(k, j, m)
                    if not fixed.support[k][j][m]:
                        assert want == 0
                        assert got == 0 and not isinstance(got, PadicNum)
                    else:
                        assert got.abs_precision == digits
                        assert got.agrees(want, digits)
