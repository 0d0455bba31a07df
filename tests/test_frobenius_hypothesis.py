"""Property tests on random small MUM operators theta^n - t prod_i
(theta + a_i): the standard basis solves the operator and equals the
per-operation Fraction recursion, the exact solve satisfies the
defining identity, and the fixed-precision solve agrees with it slot by
slot.  On these, on the same operators in t^2 and t^3 and on the small
built-in operators, recover_alpha and check_integrality give the same
answer on both solves, and check_analytic gives the report of its rows
summed one by one.  On random order-2 MUM operators the Wronskian is 1
at t = 0 and the nonuniqueness witness holds."""

import functools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from padicfrob import frobenius  # noqa: E402
from padicfrob.frobenius import (  # noqa: E402
    BadPrime,
    PrecisionExhausted,
    check_analytic,
    check_integrality,
    nonuniqueness_witness,
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

from combinatorics import _integrality_entry, stored_at  # noqa: E402
from test_frobenius import (  # noqa: E402
    N_CLI,
    _analytic,
    _check_analytic_row_by_row,
    _closed_forms,
)


def _operator(shifts) -> MumOperator:
    # prod_i (theta + a_i) as a polynomial in theta, low power first
    prod = [1]
    for a in shifts:
        prod = [a * x + y for x, y in zip(prod + [0], [0] + prod)]
    n = len(shifts)
    return MumOperator([[0, -prod[i]] for i in range(n)] + [[1, -1]])


def _in_t_power(L: MumOperator, g: int) -> MumOperator:
    # L with t -> t^g: an operator off the families whose every series
    # lives in t^g
    coeffs = []
    for a in L.coeffs:
        poly = [0] * (g * len(a))
        poly[::g] = a
        coeffs.append(poly)
    return MumOperator(coeffs)


SHIFTS = st.lists(st.integers(-3, 3), min_size=2, max_size=3)
# the operators above in t^2 and t^3
LATTICE_OPERATORS = st.builds(_in_t_power, SHIFTS.map(_operator),
                              st.sampled_from((2, 3)))
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


def _basis_per_operation(L: MumOperator, M: int) -> list:
    """The F_m of standard_basis by the plain recursion, one Fraction
    operation (and renormalization) at a time."""
    n, d0 = L.order, L.coeffs[-1][0]
    terms = []
    for r in range(n):
        row = []
        for d in range(L.degree + 1):
            poly = [math.comb(i + r, r) * (a[d] if d < len(a) else 0)
                    for i, a in enumerate(L.coeffs[r:])]
            if any(poly) and (r, d) != (0, 0):
                row.append((d, poly))
        terms.append(row)
    fs = []
    for m in range(n):
        f = [Fraction(int(m == 0))]
        for c in range(1, M):
            acc = Fraction(0)
            for r in range(m + 1):
                g = fs[m - r] if r else f
                for d, poly in terms[r]:
                    if d <= c and g[c - d]:
                        x = c - d
                        acc -= sum(a * x ** i
                                   for i, a in enumerate(poly)) * g[x]
            f.append(acc / (d0 * c ** n))
        fs.append(f)
    return fs


@settings(derandomize=True, max_examples=25, deadline=None)
@given(L=OPERATORS, M=st.integers(1, 40))
def test_standard_basis_matches_per_operation_recursion(L, M):
    # the families live in t^(n+1) and t^2; the last two operators have
    # a_n(0) = 2 and 3, the last in t^2
    for op in (L, MumOperator([[0, -1], [2, -1]]),
               MumOperator([[0, 0, -1], [3, 0, -1]])):
        got = standard_basis(op, M).fs
        want = _basis_per_operation(op, M)
        for f, coeffs in zip(got, want):
            assert [f.known(c) for c in range(M)] == coeffs
            assert all(type(x) is Fraction for x in f.coeffs)


def _frobenius_matrix_all_q(fvals, p, M):
    # B_ij[q p] for every q <= (M-1)/p, from every t-degree of the F_k
    n = len(fvals)
    return [[[p ** j * sum(math.comb(j, m) * q ** (j - m) * fvals[i - m][q]
                           for m in range(min(i, j) + 1))
              for q in range(1, (M - 1) // p + 1)]
             for j in range(n)] for i in range(n)]


def _same_frobenius_matrix(L, p, M):
    # the build on the lattice of g = L.step, _combine on the exact
    # lattice values as the exact solve calls it, is the every-q build at
    # the multiples of g, and the every-q build is zero at every other q
    g = L.step or M
    fvals = [[f.known(c) for c in range(M)]
             for f in standard_basis(L, M).fs]
    every = _frobenius_matrix_all_q(fvals, p, M)
    assert not any(b for row in every for col in row
                   for q, b in enumerate(col, start=1) if q % g)
    lattice = [f[::g] for f in fvals]
    built = frobenius._combine(lattice, p, g, (len(lattice[0]) - 1) // p)
    assert built == [[col[g - 1::g] for col in row] for row in every]


@pytest.mark.parametrize("L", [simplicial_operator(n) for n in (2, 3, 4, 5)]
                         + [KNOWN_HYPEROCT_OPERATORS[4],
                            KNOWN_HYPEROCT_OPERATORS[5],
                            MumOperator([[0, -1], [1, -1]])])
def test_frobenius_matrix_built_only_at_multiples_of_g(L):
    for p, M in ((3, 50), (5, 120), (7, 140), (11, 121), (13, 10)):
        _same_frobenius_matrix(L, p, M)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(L=OPERATORS, p=st.sampled_from(PRIMES), M=st.integers(1, 80))
def test_frobenius_matrix_matches_every_q_build(L, p, M):
    _same_frobenius_matrix(L, p, M)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shifts=SHIFTS, p=st.sampled_from(PRIMES), M=st.integers(5, 40),
       alphas=st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_exact_solve_satisfies_identity(shifts, p, M, alphas):
    L = _operator(shifts)
    dec = solve_A_series(L, p, M)
    assert verify_frobenius_property(dec, alphas[:L.order - 1], M)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(L=LATTICE_OPERATORS, p=st.sampled_from(PRIMES),
       M=st.integers(5, 60),
       alphas=st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_exact_solve_satisfies_identity_in_t_power(L, p, M, alphas):
    assert L.step in (2, 3)
    dec = solve_A_series(L, p, M)
    assert dec.step == L.step
    assert verify_frobenius_property(dec, alphas[:L.order - 1], M)


SMALL = st.integers(-3, 3)


@st.composite
def _order_two(draw) -> MumOperator:
    # a_2(t) theta^2 + a_1(t) theta + a_0(t), a_1(0) = a_0(0) = 0 and
    # a_2(0) != 0, every coefficient small
    terms = st.lists(SMALL, max_size=2)
    return MumOperator([[0] + draw(terms), [0] + draw(terms),
                        [draw(SMALL.filter(bool))] + draw(terms)])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(L=_order_two(), p=st.sampled_from((3, 5, 7)), M=st.integers(1, 20),
       lam=st.integers(-2, 2))
def test_wronskian_is_one_at_zero(L, p, M, lam):
    # theta kills constant terms, so W(0) = F_0(0)^2 = 1 for every
    # order-2 MUM operator: W(t^p) is invertible, and the witness holds
    # at every good prime
    f0, f1 = standard_basis(L, M).fs
    assert (f0 * f0 + f0 * f1.theta() - f1 * f0.theta()).constant_term() == 1
    if L.leading()[-1] % p:
        assert nonuniqueness_witness(L, lam, p, M)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shifts=SHIFTS, M=st.integers(5, 40), digits=st.integers(1, 6))
def test_fixed_precision_agrees_with_exact(shifts, M, digits):
    _fixed_agrees_with_exact(_operator(shifts), M, digits)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(L=LATTICE_OPERATORS, M=st.integers(5, 90), digits=st.integers(1, 6))
def test_fixed_precision_agrees_with_exact_in_t_power(L, M, digits):
    _fixed_agrees_with_exact(L, M, digits)


def _fixed_agrees_with_exact(L, M, digits):
    n = L.order
    for p in PRIMES:
        exact = solve_A_series(L, p, M)
        fixed = solve_A_series(L, p, M, digits=digits)
        for k in range(n):
            for j in range(n):
                for m in range(M):
                    want = exact.slot(k, j, m)
                    got = fixed.slot(k, j, m)
                    if not stored_at(fixed, k, j, m)[1]:
                        assert want == 0
                        assert got == 0 and not isinstance(got, PadicNum)
                    else:
                        assert got.abs_precision == digits
                        assert got.agrees(want, digits)


def _recovered(dec, M, analytic_digits):
    try:
        return recover_alpha(dec, M, analytic_digits=analytic_digits)
    except InconsistentSystem as exc:
        return exc.index


@settings(derandomize=True, max_examples=60, deadline=None)
@given(L=OPERATORS, p=st.sampled_from(PRIMES), M=st.integers(5, 60),
       digits=st.integers(1, 14), analytic_digits=st.sampled_from((0, 1, 2)))
def test_recover_alpha_fixed_matches_exact(L, p, M, digits,
                                           analytic_digits):
    _recover_fixed_matches_exact(L, p, M, digits, analytic_digits)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(L=LATTICE_OPERATORS, p=st.sampled_from(PRIMES), M=st.integers(5, 90),
       digits=st.integers(1, 14), analytic_digits=st.sampled_from((0, 1, 2)))
def test_recover_alpha_fixed_matches_exact_in_t_power(L, p, M, digits,
                                                      analytic_digits):
    _recover_fixed_matches_exact(L, p, M, digits, analytic_digits)


def _recover_fixed_matches_exact(L, p, M, digits, analytic_digits):
    # the integer rows of a fixed-precision solve give the coset, or the
    # violated row, of the exact solve; or PrecisionExhausted, where the
    # CLI answers from the exact solve.  Where p divides the top
    # coefficient of D = a_n(t) (simplicial n = 2 at 3, n = 4 at 5) both
    # solves refuse the prime
    if L.leading()[-1] % p == 0:
        for mode in (None, digits):
            with pytest.raises(BadPrime, match="top coefficient"):
                solve_A_series(L, p, M, digits=mode)
        return
    want = _recovered(solve_A_series(L, p, M), M, analytic_digits)
    fixed = solve_A_series(L, p, M, digits=digits)
    try:
        got = _recovered(fixed, M, analytic_digits)
    except PrecisionExhausted:
        return
    assert got == want


def _integrality(dec, alphas, M):
    try:
        return check_integrality(dec, alphas, M).to_json()
    except PrecisionExhausted as exc:
        return exc.j, exc.m


def _entry_by_entry(dec, alphas, M):
    # _integrality_entry, the exact path, applied to every entry in turn
    for j in range(dec.n):
        for m in range(M):
            try:
                _integrality_entry(dec, j, m, alphas)
            except PrecisionExhausted as exc:
                return exc.j, exc.m
    return None


ALPHAS = st.one_of(
    st.builds(lambda v, u, r: PadicNum(7, val=v, unit=u % 7 ** r,
                                       prec=v + r) if u % 7 else
              PadicNum.inexact_zero(7, v + r),
              st.integers(-2, 2), st.integers(0, 7 ** 8), st.integers(1, 8)),
    st.builds(lambda a, b: PadicNum.from_exact(Fraction(a, b), 7),
              st.integers(-50, 50), st.sampled_from((1, 2, 7, 49, 3))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(L=st.sampled_from([simplicial_operator(3), simplicial_operator(4),
                          KNOWN_HYPEROCT_OPERATORS[4]]),
       M=st.integers(10, 60), digits=st.integers(1, 14),
       alphas=st.lists(ALPHAS, min_size=3, max_size=3))
def test_integrality_readout_matches_exact(L, M, digits, alphas):
    _readout_matches_exact(L, M, digits, alphas)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(L=LATTICE_OPERATORS, M=st.integers(10, 90), digits=st.integers(1, 14),
       alphas=st.lists(ALPHAS, min_size=3, max_size=3))
def test_integrality_readout_matches_exact_in_t_power(L, M, digits, alphas):
    _readout_matches_exact(L, M, digits, alphas)


def _readout_matches_exact(L, M, digits, alphas):
    # the fixed-precision readout gives the exact solve's report byte for
    # byte, or raises where _integrality_entry on the same slots raises
    p = 7
    alphas = alphas[:L.order - 1]
    exact = solve_A_series(L, p, M)
    fixed = solve_A_series(L, p, M, digits=digits)
    got = _integrality(fixed, alphas, M)
    raised = _entry_by_entry(fixed, alphas, M)
    if raised is None:
        assert got == _integrality(exact, alphas, M)
    else:
        assert got == raised


# both n = 4 families and simplicial n = 3 at p = 7, mod t^120: past
# deg(3) for each, so S = 1..3 all read rows
ANALYTIC_OPERATORS = (simplicial_operator(4), KNOWN_HYPEROCT_OPERATORS[4],
                      simplicial_operator(3))
ANALYTIC_M = 120


@functools.lru_cache(maxsize=32)
def _analytic_solve(case: int, digits):
    """The solve of ANALYTIC_OPERATORS[case] at digits (None: exact),
    solved once per test run."""
    return solve_A_series(ANALYTIC_OPERATORS[case], 7, ANALYTIC_M,
                          digits=digits)


@functools.lru_cache(maxsize=4)
def _analytic_closed_forms(case: int) -> tuple:
    return tuple(_closed_forms(ANALYTIC_OPERATORS[case], 7, N_CLI))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=st.integers(0, len(ANALYTIC_OPERATORS) - 1),
       digits=st.one_of(st.none(), st.integers(1, 8)),
       S=st.integers(1, 3),
       alphas=st.lists(st.one_of(st.none(), ALPHAS), min_size=3,
                       max_size=3))
def test_check_analytic_matches_row_by_row(case, digits, S, alphas):
    # the report, or the raised (j, m), of rows summed one by one; a
    # None alpha is the closed form, so that the rows past the first run
    # too
    dec = _analytic_solve(case, digits)
    closed = _analytic_closed_forms(case)
    alphas = [c if a is None else a for a, c in zip(alphas, closed)]
    alphas = alphas[:dec.n - 1]
    assert _analytic(check_analytic, dec, alphas, ANALYTIC_M, S) == \
        _analytic(_check_analytic_row_by_row, dec, alphas, ANALYTIC_M, S)


def _decided(entry, *args):
    try:
        return entry(*args)
    except PrecisionExhausted as exc:
        return "raised", exc.j, exc.m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=st.integers(0, len(ANALYTIC_OPERATORS) - 1),
       alphas=st.lists(ALPHAS, min_size=3, max_size=3))
def test_exact_reading_decides_as_integrality_entry(case, alphas):
    # on the exact solve, every entry decided on _exact_reading, at the
    # lattice index m / g, is the one _integrality_entry gives: the same
    # value, or a raise at the same (j, m); off the lattice of g =
    # dec.step every entry is an exact zero
    dec = _analytic_solve(case, None)
    alphas = alphas[:dec.n - 1]
    read, g = frobenius._exact_reading(dec, alphas), dec.step
    for j in range(dec.n):
        for m in range(ANALYTIC_M):
            want = _decided(_integrality_entry, dec, j, m, alphas)
            if m % g:
                assert want is None
            else:
                assert _decided(frobenius._integral_entry, read(j, m // g),
                                j, m) == want


def test_check_analytic_live_zero_under_inexact_alpha(monkeypatch):
    # a product on the support stored as 0, reached by an inexact alpha,
    # has no known valuation, so the reading's target is unknown (None):
    # check_analytic still gives the row-by-row report, and the case
    # does read such rows
    readings = []
    stored_reading = frobenius._stored_reading

    def recording(dec, alphas):
        read = stored_reading(dec, alphas)
        return lambda j, m: readings.append(read(j, m)) or readings[-1]

    monkeypatch.setattr(frobenius, "_stored_reading", recording)
    for case in range(2):
        dec = _analytic_solve(case, 3)
        alphas = list(_analytic_closed_forms(case))
        assert not alphas[-1].is_exact
        readings.clear()
        got = check_analytic(dec, alphas, ANALYTIC_M, 3)
        assert got == _check_analytic_row_by_row(dec, alphas, ANALYTIC_M, 3)
        assert got.verdict == "analytic"
        assert any(r is not None and r[2] is None for r in readings)
