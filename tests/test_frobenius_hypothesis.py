"""Property tests on random small MUM operators theta^n - t prod_i
(theta + a_i): the standard basis solves the operator, the exact solve
satisfies the defining identity, and the fixed-precision solve agrees
with it slot by slot.  On these and on the small built-in operators,
recover_alpha gives the same answer on both solves."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from padicfrob.frobenius import (  # noqa: E402
    PrecisionExhausted,
    recover_alpha,
    solve_A_series,
    verify_frobenius_property,
)
from padicfrob.mum import (  # noqa: E402
    KNOWN_HYPEROCT_OPERATORS,
    MumOperator,
    apply_operator,
    simplicial_operator,
    standard_basis,
)
from padicfrob.padic_core import InconsistentSystem, PadicNum  # noqa: E402


def _operator(shifts) -> MumOperator:
    # prod_i (theta + a_i) as a polynomial in theta, low power first
    prod = [1]
    for a in shifts:
        prod = [a * x + y for x, y in zip(prod + [0], [0] + prod)]
    n = len(shifts)
    return MumOperator([[0, -prod[i]] for i in range(n)] + [[1, -1]])


SHIFTS = st.lists(st.integers(-3, 3), min_size=2, max_size=3)
PRIMES = (3, 5, 7, 11)
# most random operators give an inconsistent system; the families give
# cosets
OPERATORS = st.one_of(
    SHIFTS.map(_operator),
    st.sampled_from([simplicial_operator(2), simplicial_operator(3),
                     simplicial_operator(4), KNOWN_HYPEROCT_OPERATORS[4]]))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shifts=SHIFTS, M=st.integers(5, 40))
def test_standard_basis_annihilated(shifts, M):
    L = _operator(shifts)
    sb = standard_basis(L, M)
    for i in range(L.order):
        assert apply_operator(L, sb.y(i)).is_zero_mod(M)


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


def _recovered(dec, p, M, analytic_digits):
    try:
        return recover_alpha(dec, p, M, analytic_digits=analytic_digits)
    except InconsistentSystem as exc:
        return exc.index


@settings(derandomize=True, max_examples=60, deadline=None)
@given(L=OPERATORS, p=st.sampled_from(PRIMES), M=st.integers(5, 60),
       digits=st.integers(1, 14), analytic_digits=st.sampled_from((0, 1, 2)))
def test_recover_alpha_fixed_matches_exact(L, p, M, digits,
                                           analytic_digits):
    # the integer rows of a fixed-precision solve give the coset, or the
    # violated row, of the exact solve; or PrecisionExhausted, where the
    # CLI answers from the exact solve
    sb = standard_basis(L, M)
    want = _recovered(solve_A_series(L, p, M, basis=sb), p, M,
                      analytic_digits)
    fixed = solve_A_series(L, p, M, basis=sb, digits=digits)
    try:
        got = _recovered(fixed, p, M, analytic_digits)
    except PrecisionExhausted:
        return
    assert got == want
