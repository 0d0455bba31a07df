import json
import random
import sys
from fractions import Fraction

import pytest

from padicfrob import cli, frobenius
from padicfrob.frobenius import (
    AnalyticReport,
    BadPrime,
    FrobeniusDecomposition,
    InsufficientOrder,
    IntegralityReport,
    PrecisionExhausted,
    analytic_bound,
    check_analytic,
    check_integrality,
    integrality_digits,
    nonuniqueness_witness,
    recover_alpha,
    solve_A_series,
    verify_frobenius_property,
    _verify_frobenius_detail,
)
from padicfrob.mum import (
    KNOWN_HYPEROCT_OPERATORS,
    MumOperator,
    simplicial_operator,
    standard_basis,
)
from padicfrob.padic_core import (
    CongruenceSolution,
    CongruenceSystem,
    InconsistentSystem,
    PadicNum,
    vp,
)
from padicfrob.qseries import PowerSeries
from padicfrob.zeta_gamma import (
    alpha_hyperoctahedral,
    alpha_simplicial,
    evaluate_zeta_poly,
)

from combinatorics import _integrality_entry, stored_at

GEOM_L = MumOperator([[0, -1], [1, -1]])  # (1-t)theta - t, F_0 = 1/(1-t)


def _assembled(dec, alphas, j, m):
    """The t^m coefficient of A_j at the given alpha_1..alpha_{n-1}."""
    return frobenius._alpha_linear([dec.slot(k, j, m) for k in range(dec.n)],
                                   alphas)


def test_order_one_closed_form():
    p, M = 5, 40
    dec = solve_A_series(GEOM_L, p, M)
    num = PowerSeries([1] + [0] * (p - 1) + [-1], M)
    den = PowerSeries([1, -1], M)
    want = num * den.invert()
    a0 = dec.slots[0][0]
    assert all(a0.known(c) == want.known(c) for c in range(M))
    assert verify_frobenius_property(dec, [], M)


def test_constant_terms_are_alpha():
    dec = solve_A_series(simplicial_operator(3), 5, 12)
    for s in range(3):
        for j in range(3):
            assert dec.slots[s][j].known(0) == (1 if s == j else 0)
    alphas = [Fraction(2, 3), Fraction(-7)]
    assert _assembled(dec, alphas, 0, 0) == 1
    assert _assembled(dec, alphas, 1, 0) == alphas[0]
    assert _assembled(dec, alphas, 2, 0) == alphas[1]


def test_matches_cramer_solve():
    # independent 2x2 solve of the log-free system via Cramer's rule
    L = simplicial_operator(2)
    p, M = 5, 40
    sb = standard_basis(L, M)
    f0, f1 = sb.fs
    B00 = f0.substitute_tp(p).truncate(M)
    B01 = f0.theta().substitute_tp(p).truncate(M) * p
    B10 = f1.substitute_tp(p).truncate(M)
    B11 = (f1.theta() + f0).substitute_tp(p).truncate(M) * p
    det = B00 * B11 - B01 * B10
    dec = solve_A_series(L, p, M)
    for alpha1 in (Fraction(0), Fraction(3, 2)):
        r0, r1 = f0, (f1 + f0 * alpha1) * p
        want0 = (r0 * B11 - B01 * r1) * det.invert()
        want1 = (B00 * r1 - r0 * B10) * det.invert()
        assert all(_assembled(dec, [alpha1], 0, c) == want0.known(c)
                   for c in range(M))
        assert all(_assembled(dec, [alpha1], 1, c) == want1.known(c)
                   for c in range(M))


def test_full_identity_holds_for_any_alpha():
    # the log-free solve makes the whole log-polynomial identity true,
    # independently of the alpha values
    rng = random.Random(20240817)
    for L in (simplicial_operator(3), KNOWN_HYPEROCT_OPERATORS[4]):
        n = L.order
        dec = solve_A_series(L, 5, 25)
        for _ in range(3):
            alphas = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                      for _ in range(n - 1)]
            assert verify_frobenius_property(dec, alphas, 25)


def test_verify_with_padic_alphas():
    p, M, N = 7, 30, 8
    dec = solve_A_series(simplicial_operator(4), p, M)
    alphas = [evaluate_zeta_poly(q, p, N) for q in alpha_simplicial(4)]
    assert verify_frobenius_property(dec, alphas, M)


def test_verify_detects_corruption():
    # the slots live on the t^4 lattice; index 2 is t^8
    p, M = 5, 20
    dec = solve_A_series(simplicial_operator(3), p, M)
    Mg = dec.slots[0][0].order
    bad = [[s.known(c) for c in range(Mg)] for s in dec.slots[0]]
    bad[1][2] = bad[1][2] + Fraction(1, 5)
    broken = FrobeniusDecomposition(
        p=p, operator=dec.operator, basis=dec.basis,
        slots=[[PowerSeries(c, Mg) for c in bad]] + dec.slots[1:],
        order=M)
    where = _verify_frobenius_detail(broken, [Fraction(0)] * 2, M)
    assert where is not None


def test_verify_detects_corruption_in_alpha_slots():
    # the alpha-k bracket is read only through alpha_k: a broken slot
    # k >= 1 shows under nonzero rational alphas
    p, M = 5, 20
    dec = solve_A_series(simplicial_operator(3), p, M)
    alphas = [Fraction(2, 3), Fraction(-5, 7)]
    assert verify_frobenius_property(dec, alphas, M)
    Mg = dec.slots[0][0].order
    for k in (1, 2):
        slots = [list(row) for row in dec.slots]
        bad = [slots[k][1].known(c) for c in range(Mg)]
        bad[2] = bad[2] + Fraction(1, 5)     # t^8 on the t^4 lattice
        slots[k][1] = PowerSeries(bad, Mg)
        broken = FrobeniusDecomposition(p=p, operator=dec.operator,
                                        basis=dec.basis, slots=slots,
                                        order=M)
        assert not verify_frobenius_property(broken, alphas, M)
        assert _verify_frobenius_detail(broken, alphas, M) is not None
        zero = [Fraction(0)] * 2
        assert verify_frobenius_property(broken, zero, M)


def test_verify_rejects_wrong_alpha_count():
    dec = solve_A_series(simplicial_operator(3), 5, 12)
    for alphas in ([], [Fraction(1)], [Fraction(1)] * 3):
        with pytest.raises(ValueError):
            verify_frobenius_property(dec, alphas, 12)


def test_verify_readout_precision():
    # a PadicNum alpha_k term is known to prec(alpha_k) + vp(E_k[c]);
    # the readout keeps the least of these and nothing lower
    p = 7
    values = [Fraction(5, 7), Fraction(3), Fraction(0), Fraction(2, 49)]
    alphas = [PadicNum.from_rational(Fraction(1, 3), p, 4),
              PadicNum.from_rational(7, p, 2),
              PadicNum.from_rational(Fraction(2), p, 5)]
    got = frobenius._alpha_linear(values, alphas)
    assert got.abs_precision == min(4 + 0, 5 - 2) == 3
    exact = values[0] + Fraction(1, 3) * 3 + 2 * Fraction(2, 49)
    assert got.agrees(exact, 3)
    assert frobenius._alpha_linear(values[:2] + [0, 0], alphas) \
        .abs_precision == 4
    # end to end: the closed forms pass on the exact decomposition; with
    # slot 3 broken at t^5, alpha_3 = O(7^10) hides the break, 7^9 +
    # O(7^10) shows it
    M, N = 30, 8
    dec = solve_A_series(simplicial_operator(4), p, M)
    alphas = [evaluate_zeta_poly(q, p, N) for q in alpha_simplicial(4)]
    assert verify_frobenius_property(dec, alphas, M)
    slots = [list(row) for row in dec.slots]
    slots[3][0] = slots[3][0] + PowerSeries([0, Fraction(1, 7)],
                                            slots[3][0].order)
    broken = FrobeniusDecomposition(p=p, operator=dec.operator,
                                    basis=dec.basis, slots=slots, order=M)
    hidden = alphas[:2] + [PadicNum.inexact_zero(p, 10)]
    assert verify_frobenius_property(broken, hidden, M)
    shown = alphas[:2] + [hidden[2] + p ** 9]
    assert shown[2].abs_precision == 10
    assert not verify_frobenius_property(broken, shown, M)


def test_integrality_simplicial_true_alpha():
    p, M, N = 7, 40, 12
    dec = solve_A_series(simplicial_operator(4), p, M)
    alphas = [evaluate_zeta_poly(q, p, N) for q in alpha_simplicial(4)]
    rep = check_integrality(dec, alphas, M)
    assert rep.verdict == "integral"
    assert rep.min_valuation == 0
    assert rep.first_failing is None


def test_integrality_detects_alpha1_shift():
    # the alpha_1 slot has denominators (7^-2 by t^35), so shifting
    # alpha_1 off its true value 0 breaks integrality
    p, M = 7, 40
    dec = solve_A_series(simplicial_operator(4), p, M)
    rep = check_integrality(dec, [Fraction(1), Fraction(0), Fraction(0)], M)
    assert rep.verdict == "non-integral"
    assert rep.min_valuation <= -1
    j, m, val = rep.first_failing
    assert m <= 35 and val < 0


def test_integrality_verdict_stable_under_larger_M():
    p = 7
    dec = solve_A_series(simplicial_operator(4), p, 60)
    alphas = [evaluate_zeta_poly(q, p, 10) for q in alpha_simplicial(4)]
    for M in (35, 50, 60):
        assert check_integrality(dec, alphas, M).verdict == "integral"
    for M in (40, 60):
        rep = check_integrality(dec, [1, 0, 0], M)
        assert rep.verdict == "non-integral"


def test_integrality_report_json():
    p, M = 5, 12
    dec = solve_A_series(simplicial_operator(3), p, M)
    rep = check_integrality(dec, [Fraction(0), Fraction(0)], M)
    payload = json.loads(rep.to_json())
    assert payload["p"] == p and payload["M"] == M
    assert payload["verdict"] == "integral"
    for entry in payload["entries"]:
        assert set(entry) == {"j", "m", "val", "prec"}
    assert rep.to_json() == rep.to_json()
    assert list(payload) == sorted(payload)


def test_integrality_precision_exhausted():
    p, M = 7, 40
    dec = solve_A_series(simplicial_operator(4), p, M)
    # one usable digit on alpha_1 is eaten by the 7^-2 denominators
    blunt = PadicNum.inexact_zero(p, 1)
    with pytest.raises(PrecisionExhausted) as info:
        check_integrality(dec, [blunt, Fraction(0), Fraction(0)], M)
    assert info.value.m <= 35


def test_recover_alpha_simplicial():
    p, M = 7, 70
    dec = solve_A_series(simplicial_operator(4), p, M)
    sol = recover_alpha(dec, M)
    # integrality pins alpha_1 to 0 mod 49; the top two alphas stay free
    assert sol.exponents[0] == 2
    assert sol.representative[0] % 49 == 0
    free = {tuple(g) for g in sol.generators}
    assert (0, 1, 0) in free and (0, 0, 1) in free


def test_top_slot_series_are_p_integral():
    # why integrality cannot pin alpha_2 or alpha_3 at n=4: their slot
    # series are p-integral, so a shift inside Z_p keeps every
    # coefficient integral; the alpha_1 slot is not, so alpha_1 is seen
    p, M = 7, 70
    for L in (simplicial_operator(4), KNOWN_HYPEROCT_OPERATORS[4]):
        n = L.order
        dec = solve_A_series(L, p, M)

        def min_val(k):
            return min(vp(c, p) for j in range(n)
                       for c in dec.slots[k][j].coeffs if c)

        assert all(min_val(k) >= 0 for k in range(n - 2, n))
        assert min_val(1) < 0


def test_analytic_bound_order_one_closed_form():
    # A_0 = (1 - t^p)/(1 - t) is a polynomial of degree p - 1, which is
    # deg(1) for the exponent rho = 1 of (1 - t) theta - t at infinity
    p, M = 5, 40
    assert analytic_bound(GEOM_L, p, 1) == (0, p - 1)
    assert analytic_bound(GEOM_L, p, 3) == (2 * p, 2 * p + p - 1)
    dec = solve_A_series(GEOM_L, p, M)
    assert dec.slots[0][0].known(p - 1) != 0
    rep = check_analytic(dec, [], M, 3)
    assert rep.verdict == "analytic" and rep.rows > 0


def test_analytic_bound_simplicial_exponents():
    # (theta+1)...(theta+n) gives exponents 1..n at infinity, so
    # deg(s) = (s-1) p (n+1) + p n - 1
    for n, p in ((3, 7), (4, 11)):
        for s in (1, 2):
            e, deg = analytic_bound(simplicial_operator(n), p, s)
            assert e == (s - 1) * p
            assert deg == e * (n + 1) + p * n - 1


def test_analytic_bound_rejections():
    with pytest.raises(ValueError):
        analytic_bound(simplicial_operator(3), 7, 0)
    # theta^2 (1 + t) - 2t: exponents at infinity are +-sqrt(2)
    with pytest.raises(ValueError):
        analytic_bound(MumOperator([[0, -2], [], [1, 1]]), 7, 1)
    # deg a_n < deg a_0: t = infinity is irregular
    with pytest.raises(ValueError):
        analytic_bound(MumOperator([[0, 0, 1], [1]]), 7, 1)
    for p in (4, 9, 2, 1):
        with pytest.raises(BadPrime):
            analytic_bound(simplicial_operator(3), p, 1)


def test_analytic_true_alpha_and_corruption():
    # integrality cannot see alpha_2 + p or alpha_3 + p; the rows mod
    # p^2 can
    p, M, N = 7, 70, 12
    dec = solve_A_series(KNOWN_HYPEROCT_OPERATORS[4], p, M)
    alphas = [evaluate_zeta_poly(q, p, N) for q in alpha_hyperoctahedral(3)]
    rep = check_analytic(dec, alphas, M, 2)
    assert rep.verdict == "analytic" and rep.first_failing is None
    for k in (1, 2):
        shifted = list(alphas)
        shifted[k] = shifted[k] + p
        assert check_integrality(dec, shifted, M).verdict == "integral"
        bad = check_analytic(dec, shifted, M, 2)
        assert bad.verdict == "non-analytic"
        s, j, m, val = bad.first_failing
        assert s == 2 and val < 2
        assert m > analytic_bound(dec.operator, p, 2)[1]


def test_analytic_precision_exhausted():
    p, M = 7, 70
    dec = solve_A_series(KNOWN_HYPEROCT_OPERATORS[4], p, M)
    alphas = [evaluate_zeta_poly(q, p, 12) for q in alpha_hyperoctahedral(3)]
    # one digit of alpha_3 decides the rows mod p but not mod p^2
    blunt = alphas[:2] + [alphas[2].with_abs_precision(1)]
    assert check_analytic(dec, blunt, M, 1).verdict == "analytic"
    with pytest.raises(PrecisionExhausted) as info:
        check_analytic(dec, blunt, M, 2)
    assert info.value.m > analytic_bound(dec.operator, p, 2)[1]


def test_recover_alpha_hyperoct():
    p, M = 7, 70
    dec = solve_A_series(KNOWN_HYPEROCT_OPERATORS[4], p, M)
    sol = recover_alpha(dec, M)
    assert sol.exponents[0] >= 2
    assert sol.representative[0] % p ** sol.exponents[0] == 0


def test_recover_alpha_inconsistent_constant_row():
    # a non-integral coefficient that no alpha reaches (t^0 of A_0
    # carries no alpha-slot term: slot k starts at delta_kj)
    p, M = 5, 10
    dec = solve_A_series(simplicial_operator(2), p, M)
    assert dec.slots[1][0].known(0) == 0
    Mg = dec.slots[0][0].order
    bad = [dec.slots[0][0].known(c) for c in range(Mg)]
    bad[0] = Fraction(1, p)
    broken = FrobeniusDecomposition(
        p=p, operator=dec.operator, basis=dec.basis,
        slots=[[PowerSeries(bad, Mg)] + dec.slots[0][1:]] + dec.slots[1:],
        order=M)
    with pytest.raises(InconsistentSystem):
        recover_alpha(broken, M)


def test_recover_alpha_order_one_vacuous():
    dec = solve_A_series(GEOM_L, 5, 20)
    sol = recover_alpha(dec, 20)
    assert sol.representative == []


def test_insufficient_order_paths():
    with pytest.raises(InsufficientOrder):
        solve_A_series(simplicial_operator(2), 5, 0)
    dec = solve_A_series(simplicial_operator(2), 5, 10)
    with pytest.raises(InsufficientOrder):
        check_integrality(dec, [Fraction(0)], 11)
    with pytest.raises(InsufficientOrder):
        recover_alpha(dec, 11)
    with pytest.raises(InsufficientOrder):
        check_analytic(dec, [Fraction(0)], 11, 1)
    with pytest.raises(InsufficientOrder):
        recover_alpha(dec, 11, analytic_digits=1)


@pytest.mark.parametrize("digits", [None, 6])
def test_slot_checks_its_indices(digits):
    # a coefficient past the t-order is not known; a negative index
    # would wrap round to the end of a list
    dec = solve_A_series(simplicial_operator(2), 5, 30, digits=digits)
    assert dec.slot(1, 1, 29) is not None
    with pytest.raises(InsufficientOrder):
        dec.slot(0, 0, 30)
    for k, j, m in [(0, 0, -3), (-1, 0, 0), (0, -1, 0), (2, 0, 0),
                    (0, 2, 0)]:
        with pytest.raises(ValueError):
            dec.slot(k, j, m)


def test_integrality_rejects_wrong_alpha_count():
    # both modes; the fixed readout would otherwise drop an extra exact
    # zero, and both would ignore a missing alpha
    exact = solve_A_series(simplicial_operator(4), 7, 30)
    fixed = solve_A_series(simplicial_operator(4), 7, 30, digits=N_CLI)
    for dec in (exact, fixed):
        for alphas in ([], [0, 0], [0, 0, 0, 0]):
            with pytest.raises(ValueError):
                check_integrality(dec, alphas, 30)


def test_integrality_rejects_non_rational_alphas():
    # both modes: a float, a string and a bool are not p-adic constants
    exact = solve_A_series(simplicial_operator(2), 5, 20)
    fixed = solve_A_series(simplicial_operator(2), 5, 20, digits=8)
    for dec in (exact, fixed):
        for alpha in (0.1, "1", True):
            with pytest.raises(TypeError):
                check_integrality(dec, [alpha], 20)


def test_analytic_rejects_wrong_alpha_count():
    # both modes, before any row: with S = 0 there is none to read
    exact = solve_A_series(simplicial_operator(4), 7, 30)
    fixed = solve_A_series(simplicial_operator(4), 7, 30, digits=N_CLI)
    for dec in (exact, fixed):
        for digits in (0, 1):
            for alphas in ([], [0, 0], [0, 0, 0, 0]):
                with pytest.raises(ValueError, match="alpha values"):
                    check_analytic(dec, alphas, 30, digits)


def test_nonuniqueness_witness_family():
    ok, detail = cli._check_nonuniqueness(lams=(0, 1, 2))
    assert ok, detail


def test_nonuniqueness_rejects_a_corrupted_solve(monkeypatch):
    # negative control: one t^3 term added to A_1^(0) of the exact solve
    # the witness makes, and no member of the family maps y_1(t^p) to a
    # solution
    L, p, M = simplicial_operator(2), 5, 30
    assert all(nonuniqueness_witness(L, lam, p, M)
               for lam in (0, 1, Fraction(1, 2)))
    solve = frobenius.solve_A_series

    def corrupted(*args, **kwargs):
        dec = solve(*args, **kwargs)
        slots = [list(row) for row in dec.slots]
        # t^3 is index 1 of the t^3 lattice the slots are held on
        slots[0][1] = slots[0][1] + PowerSeries([0, 1], slots[0][1].order)
        return dec.replace(slots=slots)

    monkeypatch.setattr(frobenius, "solve_A_series", corrupted)
    for lam in (0, 1):
        assert nonuniqueness_witness(L, lam, p, M) is False


def test_nonuniqueness_needs_order_two():
    with pytest.raises(ValueError, match="order-2"):
        nonuniqueness_witness(simplicial_operator(3), 1, 5, 20)


@pytest.mark.parametrize("lam", [0.5, PadicNum.from_exact(1, 5), True])
def test_nonuniqueness_refuses_a_lam_it_cannot_use(lam, monkeypatch):
    # refused before the solve runs
    monkeypatch.setattr(frobenius, "solve_A_series", None)
    with pytest.raises(TypeError, match="lam must be an int or a Fraction"):
        nonuniqueness_witness(simplicial_operator(2), lam, 5, 20)


def test_hyperoct_true_alpha_integral():
    p, M, N = 7, 40, 10
    dec = solve_A_series(KNOWN_HYPEROCT_OPERATORS[4], p, M)
    alphas = [evaluate_zeta_poly(q, p, N)
              for q in alpha_hyperoctahedral(3)]
    rep = check_integrality(dec, alphas, M)
    assert rep.verdict == "integral"
    assert verify_frobenius_property(dec, alphas, M)


# -- fixed precision against the exact oracle ---------------------------

N_CLI = 12   # the CLI's default --precision

# the six sweep jobs of the benchmark at desk scale: (L, p, M, shift
# alpha_1 by +1)
SWEEP_CASES = [
    (simplicial_operator(4), 31, 120, False),
    (simplicial_operator(5), 13, 120, False),
    (KNOWN_HYPEROCT_OPERATORS[5], 11, 120, False),
    (simplicial_operator(4), 7, 120, True),
    (simplicial_operator(3), 5, 120, False),
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 120, False),
]
DEEP_CASES = [
    (simplicial_operator(4), 7, 140, False),
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 140, False),
]


def _closed_forms(L, p, N):
    polys = alpha_hyperoctahedral(L.order - 1) \
        if L in KNOWN_HYPEROCT_OPERATORS.values() \
        else alpha_simplicial(L.order)
    return [evaluate_zeta_poly(q, p, N) for q in polys]


def _integrality(dec, alphas, M):
    try:
        return check_integrality(dec, alphas, M).to_json()
    except PrecisionExhausted as exc:
        return exc.j, exc.m


def _entry_by_entry(dec, alphas, M):
    """Where _integrality_entry, the exact path, raises on dec, or None."""
    for j in range(dec.n):
        for m in range(M):
            try:
                _integrality_entry(dec, j, m, alphas)
            except PrecisionExhausted as exc:
                return exc.j, exc.m
    return None


@pytest.mark.parametrize("L,p,M,shift", DEEP_CASES + SWEEP_CASES)
def test_fixed_precision_matches_exact(L, p, M, shift):
    exact = solve_A_series(L, p, M)
    closed = _closed_forms(L, p, N_CLI)
    if shift:
        closed[0] = closed[0] + 1
    # the closed forms (or alpha_1 + 1); alpha_1 = 1/7 and alpha_1 = 0
    # exactly; the top alpha shifted by 3/p^2
    for alphas in (closed,
                   [PadicNum.from_exact(Fraction(1, 7), p)] + closed[1:],
                   [PadicNum.from_exact(0, p)] + closed[1:],
                   closed[:-1] + [closed[-1] + Fraction(3, p ** 2)]):
        fixed = solve_A_series(L, p, M,
                               digits=integrality_digits(alphas, N_CLI))
        assert _entry_by_entry(fixed, alphas, M) is None
        assert check_integrality(fixed, alphas, M).to_json() == \
            check_integrality(exact, alphas, M).to_json()
    coarse = solve_A_series(L, p, M, digits=N_CLI)
    assert recover_alpha(coarse, M) == recover_alpha(exact, M)


def test_fixed_precision_coefficients_and_zeros():
    # every slot coefficient agrees with the exact one mod p^digits,
    # and exactly the exact zeros are off the support
    for L, p, M, _ in DEEP_CASES:
        exact = solve_A_series(L, p, M)
        fixed = solve_A_series(L, p, M, digits=5)
        for k in range(L.order):
            for j in range(L.order):
                for m in range(M):
                    want = exact.slot(k, j, m)
                    got = fixed.slot(k, j, m)
                    assert stored_at(fixed, k, j, m)[1] == (want != 0)
                    if want == 0:
                        assert got == 0 and not isinstance(got, PadicNum)
                    else:
                        assert got.abs_precision == 5
                        assert got.agrees(want, 5)


@pytest.mark.parametrize("L,p,M,shift", DEEP_CASES)
def test_fixed_precision_analytic_verdicts(L, p, M, shift):
    exact = solve_A_series(L, p, M)
    fixed = solve_A_series(L, p, M, digits=3)
    alphas = _closed_forms(L, p, N_CLI)
    bad = alphas[:2] + [alphas[2] + 1]
    for al in (alphas, bad):
        assert check_analytic(fixed, al, M, 3) == \
            check_analytic(exact, al, M, 3)
    assert check_analytic(fixed, bad, M, 1).verdict == "non-analytic"
    # a row enters the congruence system only when an alpha term is
    # nonzero, which 3 digits cannot tell for every coefficient
    coarse = solve_A_series(L, p, M, digits=N_CLI)
    assert recover_alpha(coarse, M, analytic_digits=3) == \
        recover_alpha(exact, M, analytic_digits=3)


def test_fixed_precision_short_digits_raise():
    L, p, M = KNOWN_HYPEROCT_OPERATORS[4], 7, 140
    alphas = _closed_forms(L, p, N_CLI)
    fixed = solve_A_series(L, p, M, digits=N_CLI)
    # entries reached by alpha_3 need its 14 digits on top of the slot
    # valuation; 12 slot digits cannot supply them
    with pytest.raises(PrecisionExhausted):
        check_integrality(fixed, alphas, M)
    # the readout raises at the entry where _integrality_entry does
    for digits in (3, N_CLI):
        short = solve_A_series(L, p, M, digits=digits)
        raised = _entry_by_entry(short, alphas, M)
        assert raised is not None
        assert _integrality(short, alphas, M) == raised
    with pytest.raises(PrecisionExhausted):
        check_analytic(solve_A_series(L, p, M, digits=2), alphas, M, 3)
    blunt = solve_A_series(L, p, M, digits=2)
    # rows mod p^3 need 3 digits; and whether a row has an alpha term at
    # all needs every slot coefficient told from zero
    with pytest.raises(PrecisionExhausted):
        recover_alpha(blunt, M, analytic_digits=3)
    with pytest.raises(PrecisionExhausted):
        recover_alpha(blunt, M)
    with pytest.raises(ValueError):
        verify_frobenius_property(fixed, alphas, M)
    with pytest.raises(ValueError):
        solve_A_series(L, p, M, digits=0)


# The fixed-precision ring packs every (slot, residue class mod g p)
# column into one lane of each unknown, the K = ceil(M / (g p)) steps
# walked once.  (L, p, M, digits) at the edges of that layout:
LANE_CASES = [
    # K = 1: g p = 155 > M, so no step reads another
    (simplicial_operator(4), 31, 120, 6),
    # M not a multiple of g p = 35: the last step holds 30 of 35 classes
    (simplicial_operator(4), 7, 100, 6),
    # g p = 14 and the odd classes are dead lanes; M = 101 is odd too
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 101, 6),
    # 7 slots by 11 live classes of g p = 88: 77 lanes, K = 4
    (simplicial_operator(7), 11, 300, 4),
]


def _assert_slots_agree(fixed, exact, M, digits):
    # every slot coefficient agrees with the exact one mod p^digits, and
    # exactly the exact zeros are off the support
    n = exact.n
    for k in range(n):
        for j in range(n):
            for m in range(M):
                want = exact.slot(k, j, m)
                got = fixed.slot(k, j, m)
                assert stored_at(fixed, k, j, m)[1] == (want != 0), \
                    (k, j, m)
                if want == 0:
                    assert got == 0 and not isinstance(got, PadicNum)
                else:
                    assert got.agrees(want, digits), (k, j, m)


@pytest.mark.parametrize("L,p,M,digits", LANE_CASES)
def test_fixed_precision_lanes_match_exact(L, p, M, digits):
    exact = solve_A_series(L, p, M)
    fixed = solve_A_series(L, p, M, digits=digits)
    _assert_slots_agree(fixed, exact, M, digits)
    if L == KNOWN_HYPEROCT_OPERATORS[4]:
        n = L.order
        assert not any(stored_at(fixed, k, j, m)[1] for k in range(n)
                       for j in range(n) for m in range(1, M, 2))


def _first_scale(L, p, M):
    """S_0 = max(0, -min vp(F_k[c])) over k < n and c < M, the scale the
    fixed-precision solve starts from."""
    fs = standard_basis(L, M).fs[:L.order]
    return max([0] + [-vp(f.known(c), p) for f in fs for c in range(M)
                      if f.known(c)])


@pytest.mark.parametrize("L,p,M", [
    (MumOperator([[0, -2], [0, 3], [1, -1]]), p, 39) for p in (3, 5, 7, 11)
] + [
    (MumOperator([[], [0, 1], [1, -1]]), 3, 5),
    (MumOperator([[0, -9], [0, -15], [0, -7], [1, -1]]), 3, 15),
])
def test_scale_certificate_raises_a_short_start(L, p, M):
    # the slots reach below the valuations of the F_k, so S_0 leaves a
    # remainder in the ring's divisions and the solve reruns, each time
    # at the scale one slot coefficient needs: it ends at the least scale
    # that makes every slot p-integral, and agrees with the exact slots
    exact = solve_A_series(L, p, M)
    fixed = solve_A_series(L, p, M, digits=6)
    n = L.order
    least = min(vp(exact.slot(k, j, m), p) for k in range(n)
                for j in range(n) for m in range(M) if exact.slot(k, j, m))
    assert fixed.scale == -least > _first_scale(L, p, M)
    _assert_slots_agree(fixed, exact, M, 6)


@pytest.mark.parametrize("L,p,M,scale", [
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 695, 9),
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 272, 6),
    (simplicial_operator(4), 7, 695, None),
    (simplicial_operator(4), 7, 272, None),
    # the benchmark's sweep jobs
    (simplicial_operator(4), 31, 620, None),
    (simplicial_operator(5), 13, 390, None),
    (KNOWN_HYPEROCT_OPERATORS[5], 11, 330, None),
    (simplicial_operator(4), 7, 280, None),
    (simplicial_operator(3), 5, 250, None),
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 280, None),
])
def test_scale_certificate_passes_at_the_start(L, p, M, scale):
    # at the families the ring's divisions certify S_0 on the first run
    dec = solve_A_series(L, p, M, digits=N_CLI)
    assert dec.scale == _first_scale(L, p, M)
    assert scale is None or dec.scale == scale


def _stored(dec):
    """What a fixed-precision decomposition stores."""
    return (dec.scale, dec.support,
            [[series.coeffs for series in row] for row in dec.slots])


def test_fixed_precision_builds_no_exact_basis(monkeypatch):
    # the F_k come as residues mod p^P, in integers only: no module of
    # the package constructs a Fraction or calls standard_basis, and the
    # decomposition carries no exact basis
    made, called = [], []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    def counted_basis(*args):
        called.append(args)
        return standard_basis(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "padicfrob":
            for attr, stand_in in (("Fraction", Counted),
                                   ("standard_basis", counted_basis)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, stand_in)
    L = KNOWN_HYPEROCT_OPERATORS[4]
    fixed = solve_A_series(L, 7, 280, digits=N_CLI)
    assert (made, called, fixed.basis) == ([], [], None)
    # the counters count: the exact solve builds the exact basis
    solve_A_series(L, 7, 28)
    assert made and called == [(L, 28)]


CANCELLATION_CASES = [
    # F_2[t^4] = 0 for simplicial n = 3, though reached, and B_20[t^28]
    # is that value: the exact basis mod t^8 decides both
    (simplicial_operator(3), 7, 70, 8),
    # B_11[t^5] = 5 (F_1[t] + F_0[t]) = 0 over F_0[t] = -1, F_1[t] = 1
    (MumOperator([[0, 1], [0, 1], [1, 1]]), 5, 30, 2),
]


@pytest.mark.parametrize("L,p,M,low", CANCELLATION_CASES)
def test_exact_cancellations_take_the_exact_zero_pattern(L, p, M, low,
                                                         monkeypatch):
    # a reached F or B value whose residue reads 0 is taken from the
    # exact basis, known only below the degree past it; the support is
    # then exactly where the exact slots are nonzero
    called = []
    monkeypatch.setattr(frobenius, "standard_basis",
                        lambda L, M: called.append(M) or standard_basis(L, M))
    fixed = solve_A_series(L, p, M, digits=6)
    assert called == [low]
    exact = solve_A_series(L, p, M)
    assert called == [low, M]
    _assert_slots_agree(fixed, exact, M, 6)


@pytest.mark.parametrize("L,p,M", [
    (simplicial_operator(4), 7, 60), (KNOWN_HYPEROCT_OPERATORS[4], 7, 90),
    (GEOM_L, 5, 20), (MumOperator([[], [], [1]]), 7, 20),
] + [case[:3] for case in CANCELLATION_CASES])
def test_decomposition_carries_the_standard_basis_when_exact(L, p, M):
    # the solve builds every basis it reads: an exact decomposition
    # carries standard_basis(L, M), a fixed-precision one none, even
    # where it read exact F_k to decide a cancellation
    assert solve_A_series(L, p, M).basis == standard_basis(L, M)
    assert solve_A_series(L, p, M, digits=6).basis is None


@pytest.mark.parametrize("L,p,M", [
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 140),
    # the ring reruns at a raised scale and needs more digits again
    (MumOperator([[0, -2], [0, 3], [1, -1]]), 5, 39),
])
def test_a_short_basis_build_is_built_again(L, p, M, monkeypatch):
    # with no headroom the first build holds only the slot digits, short
    # of what the ring reads; the basis is built again to more digits,
    # and the solve stores what it stores with headroom
    want = solve_A_series(L, p, M, digits=6)
    builds = []
    build = frobenius.residue_basis
    monkeypatch.setattr(frobenius, "residue_basis",
                        lambda *args: builds.append(args[3:])
                        or build(*args))
    monkeypatch.setattr(frobenius, "BASIS_HEADROOM", 0)
    got = solve_A_series(L, p, M, digits=6)
    assert _stored(got) == _stored(want)
    assert builds[0] == (6,) and len(builds) >= 2
    assert all(known > 6 for known, in builds[1:])


@pytest.mark.parametrize("mod,terms", [
    (7 ** 62, 4 * 50),      # deep-solve: n = 4, K = 50 at M = 700
    (7 ** 74, 4 * 50),      # the same under a looser scale
    (11 ** 30, 7 * 40),     # n = 7 with K past 2^8 / 7
    (7, 4 * 64),            # terms a power of two
    (5 ** 3, 1),            # K = 1: no products at all
    (2 ** 61, 255),
])
def test_lane_width_holds_the_largest_sum(mod, terms):
    # every residue at mod - 1 and n (K - 1) < terms products per lane:
    # no lane carries into the next
    count = 3
    width = frobenius._lane_bytes(mod, terms)
    top = mod - 1
    x = frobenius._packed([top] * count, width)
    acc = 0
    for _ in range(terms - 1):
        acc = frobenius._accumulate(acc, [top], [x])
    assert frobenius._lanes(acc, count, width) == \
        [(terms - 1) * top * top] * count
    assert frobenius._lanes(x, count, width) == [top] * count


@pytest.mark.parametrize("L,p,M,digits,alphas,where", [
    # at t^14 an inexact alpha meets a slot coefficient on the support
    # whose 3 digits are all 0, so the entry's precision is unknown
    (KNOWN_HYPEROCT_OPERATORS[4], 7, 40, 3,
     [PadicNum(7, val=-2, unit=1, prec=-1), PadicNum(7, val=-1, unit=2,
                                                     prec=0),
      PadicNum(7, val=0, unit=1, prec=2)], (0, 14)),
    # alpha_1 = O(5^-1): at t^20 the entry is zero to fewer than 1 digit
    (simplicial_operator(3), 5, 60, 8,
     [PadicNum.inexact_zero(5, -1), PadicNum.from_exact(0, 5)], (0, 20)),
])
def test_integrality_readout_raises_where_entries_do(L, p, M, digits, alphas,
                                                     where):
    dec = solve_A_series(L, p, M, digits=digits)
    assert _entry_by_entry(dec, alphas, M) == where
    assert _integrality(dec, alphas, M) == where


def test_integrality_digits():
    p = 7
    alphas = _closed_forms(KNOWN_HYPEROCT_OPERATORS[4], p, N_CLI)
    rel = max(a.rel_precision for a in alphas if not a.is_exact)
    assert integrality_digits(alphas, N_CLI) == N_CLI + rel
    assert integrality_digits([Fraction(1), PadicNum.from_exact(2, p)],
                              N_CLI) == N_CLI


def test_solve_rejects_bad_prime():
    for p in (-3, 0, 1, 4, 9, 25):
        with pytest.raises(BadPrime):
            solve_A_series(simplicial_operator(4), p, 30)
    assert issubclass(BadPrime, ValueError)


@pytest.mark.parametrize("name, p, M, digits", [
    ("p", 5.0, 20, None), ("p", True, 20, None), ("M", 5, 20.0, None),
    ("M", 5, True, None), ("digits", 5, 20, 2.5), ("digits", 5, 20, True)])
def test_solve_checks_argument_types(name, p, M, digits):
    # each is refused at the boundary, not deep in the ring or the basis
    with pytest.raises(TypeError, match="^solve_A_series: %s must be an int"
                       % name):
        solve_A_series(simplicial_operator(2), p, M, digits)


def _analytic_specs(dec, p, M, digits):
    """(s, j, m, weights) of the analytic rows: [t^m] D^e(s) A_j is the
    sum of c [t^(m-i)] A_j over the terms (i, c) of D^e(s)."""
    specs = []
    for s in range(1, digits + 1):
        e, deg = analytic_bound(dec.operator, p, s)
        d_pow = PowerSeries(dec.operator.leading(), M) ** e
        weights = [(i, c) for i, c in enumerate(d_pow.coeffs) if c]
        specs += [(s, j, m, weights) for j in range(dec.n)
                  for m in range(max(deg + 1, 0), M)]
    return specs


def _stored_sum(dec, k, j, m, weights):
    """(x, live): the weighted sum of stored coefficients of A_j^(k),
    reduced mod p^(scale + digits) at fixed precision, and whether any
    of its terms is on the support, summed row by row."""
    terms = [(c, *stored_at(dec, k, j, m - i)) for i, c in weights if i <= m]
    x = sum(c * y for c, y, _ in terms)
    if dec.digits is None:
        return x, True
    return (x % dec.p ** (dec.scale + dec.digits),
            any(live for _, _, live in terms))


def _rational_rows(dec, p, M, analytic_digits):
    """recover_alpha's conditions as rational rows (c0, coefficients):
    each value is a _stored_sum, a fixed-precision one as the rational
    it stores, taken over p^s; a row that cannot bind is left out."""
    specs = [(0, j, m, [(0, 1)]) for j in range(dec.n) for m in range(M)]
    specs += _analytic_specs(dec, p, M, analytic_digits)
    rows = []
    for s, j, m, weights in specs:
        vals = []
        for k in range(dec.n):
            x, _ = _stored_sum(dec, k, j, m, weights)
            vals.append(Fraction(x, p ** (s + dec.scale)))
        if any(vals[1:]) or vp(vals[0], p) < 0:
            rows.append((vals[0], vals[1:]))
    return rows


@pytest.mark.parametrize("L,p,M", [(simplicial_operator(4), 7, 140),
                                   (KNOWN_HYPEROCT_OPERATORS[4], 7, 120),
                                   (simplicial_operator(3), 5, 100)])
def test_congruence_rows_match_rational_build(L, p, M, monkeypatch):
    # the rows recover_alpha reads straight from the slots are the rows
    # CongruenceSystem.build reduces from the rationals, row for row
    systems = []

    def capture(system):
        systems.append(system)
        return solve(system)

    solve = frobenius.solve_affine_congruences
    monkeypatch.setattr(frobenius, "solve_affine_congruences", capture)
    for digits in (None, N_CLI):
        dec = solve_A_series(L, p, M, digits=digits)
        for analytic_digits in (0, 1, 2, 3):
            recover_alpha(dec, M, analytic_digits=analytic_digits)
            want = CongruenceSystem.build(
                p, _rational_rows(dec, p, M, analytic_digits))
            assert systems.pop() == want
            assert any(e == 0 for _, _, e in want.conditions)


def _blocks_from_scratch(dec, M, digits):
    """The blocks (s, lo, weighted) of frobenius._analytic_rows, each
    summed row by row (_stored_sum) at every t-degree from dec and a
    fresh power D^e(s): the reference for the blocks built one from the
    last on the lattice.  Every sum off the lattice of dec.step is
    asserted to be an exact zero off the support, and the block holds
    the sums on it."""
    lead, g = PowerSeries(dec.operator.leading(), M), dec.step
    for s in range(1, digits + 1):
        e, deg = analytic_bound(dec.operator, dec.p, s)
        lo = max(deg + 1, 0)
        if lo >= M:
            continue
        weights = [(i, c) for i, c in enumerate((lead ** e).coeffs) if c]
        sums = [[[_stored_sum(dec, k, j, m, weights) if m >= lo
                  else (0, False) for m in range(M)]
                 for j in range(dec.n)] for k in range(dec.n)]
        assert all(row[m] == (0, dec.digits is None) for slot in sums
                   for row in slot for m in range(lo, M) if m % g)
        yield s, lo, dec.replace(
            order=M,
            slots=[[PowerSeries([x for x, _ in row[::g]], -(-M // g))
                    for row in slot] for slot in sums],
            support=None if dec.digits is None else
            [[bytes(live for _, live in row[::g]) for row in slot]
             for slot in sums])


def test_products_match_row_by_row_sums():
    # each block of _analytic_rows holds the row sums of D^e(s) A_j^(k)
    # at every t-degree, on and off the lattice, and exact zeros below
    # its window; at fixed precision its support is where a term of
    # D^e(s) meets a live slot coefficient
    simplicial = solve_A_series(simplicial_operator(4), 7, 110)
    fixed = solve_A_series(simplicial_operator(4), 7, 110, digits=3)
    hyperoct = solve_A_series(KNOWN_HYPEROCT_OPERATORS[4], 7, 90)
    theta2 = solve_A_series(MumOperator([[], [], [1]]), 7, 20)
    # a hand-built decomposition takes its step from the operator
    hand_built = FrobeniusDecomposition(
        p=7, operator=fixed.operator, basis=fixed.basis, slots=fixed.slots,
        order=110, digits=3, scale=fixed.scale, support=fixed.support)
    # D = 1 + 2t - 10t^2 cubed has every term, its sixth power no t^10:
    # with t^0 alone live, t^10 of the s = 3 block is off the support
    cancel = solve_A_series(MumOperator([[0, 0, 20], [1, 2, -10]]), 3, 30,
                            digits=3)
    cancel = cancel.replace(slots=[[PowerSeries([1], 30)]],
                            support=[[b"\1" + bytes(29)]])
    cases = [(simplicial, 4), (fixed, 4), (hand_built, 4), (theta2, 2),
             (hyperoct, 3), (solve_A_series(
                 KNOWN_HYPEROCT_OPERATORS[4], 7, 90, digits=N_CLI), 3),
             (cancel, 3)]
    assert [dec.step for dec, _ in cases] == [5, 5, 5, 20, 2, 2, 1]
    for dec, digits in cases:
        M = dec.order
        got = list(frobenius._analytic_rows(dec, M, digits))
        want = list(_blocks_from_scratch(dec, M, digits))
        assert [(s, lo) for s, lo, _ in got] == \
            [(s, lo) for s, lo, _ in want]
        assert len(got) == (3 if M == 110 else digits)
        if dec is cancel:
            assert got[-1][2].support[0][0][9:12] == b"\1\0\1"
        for (_, lo, block), (_, _, ref) in zip(got, want):
            for k in range(dec.n):
                for j in range(dec.n):
                    for m in range(M):
                        x = block.slot(k, j, m)
                        assert x == ref.slot(k, j, m)
                        if m < lo:
                            assert x == 0 and not isinstance(x, PadicNum)
                    if dec.digits is not None:
                        assert block.support[k][j] == ref.support[k][j]


def _check_analytic_row_by_row(dec, alphas, M, digits):
    """check_analytic with every row summed from the slots on its own."""
    p, rows = dec.p, 0
    for s, j, m, weights in _analytic_specs(dec, p, M, digits):
        value = 0
        for k, al in enumerate([1] + list(alphas)):
            x, live = _stored_sum(dec, k, j, m, weights)
            if dec.digits is None:
                value = value + al * Fraction(x)
            elif live:
                value = value + al * PadicNum(
                    p, val=vp(x, p) - dec.scale if x else dec.digits,
                    unit=x // p ** vp(x, p) if x else 0, prec=dec.digits)
        if isinstance(value, PadicNum) and not value.is_exact:
            if value.is_zero() and value.abs_precision < s:
                raise PrecisionExhausted(j, m)
            val = value.abs_precision if value.is_zero() else value.valuation
        else:
            val = vp(value.exact if isinstance(value, PadicNum) else value, p)
        rows += 1
        if val < s:
            return AnalyticReport(p=p, M=M, digits=digits,
                                  verdict="non-analytic", rows=rows,
                                  first_failing=(s, j, m, val))
    return AnalyticReport(p=p, M=M, digits=digits, verdict="analytic",
                          rows=rows)


def _analytic(check, *args):
    try:
        return check(*args)
    except PrecisionExhausted as exc:
        return exc.j, exc.m


@pytest.mark.parametrize("L,p,M,shift", DEEP_CASES)
def test_check_analytic_matches_row_by_row_sums(L, p, M, shift):
    # the products D^e(s) A_j^(k), formed once, give the report of rows
    # summed one by one, in both modes and with the alpha_3 control
    alphas = _closed_forms(L, p, N_CLI)
    bad = alphas[:2] + [alphas[2] + 1]
    exact = solve_A_series(L, p, M)
    decs = [exact] + [solve_A_series(L, p, M, digits=d)
                      for d in (2, 3, N_CLI)]
    for dec in decs:
        for digits in (1, 2, 3):
            for al in (alphas, bad):
                assert _analytic(check_analytic, dec, al, M, digits) == \
                    _analytic(_check_analytic_row_by_row, dec, al, M, digits)


def test_check_analytic_uses_no_padic_arithmetic(monkeypatch):
    # at fixed precision every row is read from the stored integers: with
    # PadicNum's sum and product refused, the report is still that of the
    # rows summed one by one, at the closed forms and at the alpha_3
    # control
    L, p, M = simplicial_operator(4), 7, 140
    alphas = _closed_forms(L, p, N_CLI)
    bad = alphas[:2] + [alphas[2] + 1]
    fixed = solve_A_series(L, p, M, digits=N_CLI)
    want = [_check_analytic_row_by_row(fixed, al, M, 3)
            for al in (alphas, bad)]
    assert [rep.verdict for rep in want] == ["analytic", "non-analytic"]

    def refuse(*args):
        raise AssertionError("PadicNum arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(PadicNum, name, refuse)
    with pytest.raises(AssertionError):
        _check_analytic_row_by_row(fixed, alphas, M, 1)
    assert [check_analytic(fixed, al, M, 3)
            for al in (alphas, bad)] == want


def test_fixed_precision_rejects_other_primes():
    # the stored integers are residues at dec.p, and exact slots would
    # take on the prime of the alpha: an alpha at another prime is
    # refused by both conditions in both modes and by the defining
    # identity, as PadicNum's sum refuses it
    L, p, M = simplicial_operator(4), 7, 60
    exact = solve_A_series(L, p, M)
    fixed = solve_A_series(L, p, M, digits=N_CLI)
    alphas = [0, 0, PadicNum.from_rational(Fraction(1, 3), 5, 6)]
    for dec in (exact, fixed):
        with pytest.raises(ValueError, match="7-adic"):
            check_integrality(dec, alphas, M)
        with pytest.raises(ValueError, match="7-adic"):
            check_analytic(dec, alphas, M, 1)
    with pytest.raises(ValueError, match="7-adic"):
        verify_frobenius_property(exact, alphas, 20)


def test_exact_cancellation_left_out(capsys, monkeypatch):
    # alpha_1 = -77/60 = -c_0/c_1 at (j, m) = (1, 5) cancels that entry
    # exactly: the exact report leaves it out, while 30 slot digits
    # cannot tell the cancellation from a value they do not reach
    L, p, M = simplicial_operator(4), 7, 30
    alpha1 = Fraction(-77, 60)
    exact = solve_A_series(L, p, M)
    assert alpha1 == -exact.slot(0, 1, 5) / exact.slot(1, 1, 5)
    rep = check_integrality(exact, [alpha1, 0, 0], M)
    assert rep.verdict == "integral" and len(rep.entries) == 21
    assert (1, 5) not in [(e["j"], e["m"]) for e in rep.entries]
    fixed = solve_A_series(L, p, M, digits=30)
    with pytest.raises(PrecisionExhausted) as exc:
        check_integrality(fixed, [alpha1, 0, 0], M)
    assert (exc.value.j, exc.value.m) == (1, 5)
    # the CLI sets alpha_1 beside the closed forms, and cli._decide
    # answers from the exact solve once the fixed one raises
    digits = []
    solve = cli.solve_A_series

    def recording(*args, **kwargs):
        digits.append(kwargs.get("digits"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_A_series", recording)
    code = cli.main(["verify", "--family", "simplicial", "--n", "4",
                     "--t-order", "30", "--perturb", "alpha1=-77/60"])
    assert code == 0
    assert len(digits) == 2 and digits[0] is not None and digits[1] is None
    alphas = [PadicNum.from_exact(alpha1, p)] + _closed_forms(L, p, N_CLI)[1:]
    assert capsys.readouterr().out == \
        check_integrality(exact, alphas, M).to_json() + "\n"


def test_analytic_rows_start_at_t0():
    # theta^2 - t (theta - 1)^2 has both exponents at infinity -1, so
    # deg(1) = -2 at p = 3: every row from t^0 on is a condition, and no
    # row lies before it
    L, p, M = MumOperator([[0, -1], [0, 2], [1, -1]]), 3, 5
    assert analytic_bound(L, p, 1) == (0, -2)
    exact = solve_A_series(L, p, M)
    for dec in (exact, solve_A_series(L, p, M, digits=4)):
        assert check_analytic(dec, [0], M, 1) == AnalyticReport(
            p=p, M=M, digits=1, verdict="non-analytic", rows=1,
            first_failing=(1, 0, 0, 0))
        with pytest.raises(InconsistentSystem):
            recover_alpha(dec, M, analytic_digits=1)
        # the row-by-row reference starts at t^0 too
        for al in ([0], [1], [Fraction(1, 3)]):
            assert _analytic(check_analytic, dec, al, M, 1) == \
                _analytic(_check_analytic_row_by_row, dec, al, M, 1)


def test_t_order_below_one_rejected():
    # every condition and the defining identity need t-order >= 1, as
    # solve_A_series does; an order-one operator has no unknowns and
    # recovers the empty coset
    L, p = simplicial_operator(3), 5
    dec = solve_A_series(L, p, 12)
    alphas = [Fraction(0)] * 2
    for M in (0, -3):
        with pytest.raises(InsufficientOrder):
            check_integrality(dec, alphas, M)
        with pytest.raises(InsufficientOrder):
            recover_alpha(dec, M)
        with pytest.raises(InsufficientOrder):
            check_analytic(dec, alphas, M, 1)
        with pytest.raises(InsufficientOrder):
            verify_frobenius_property(dec, alphas, M)
    geom = solve_A_series(GEOM_L, p, 20)
    assert recover_alpha(geom, 20) == CongruenceSolution(p, [], [], 0, [])


def test_negative_analytic_digits_rejected():
    # rejected before any row is read: 2 slot digits cannot decide the
    # integrality rows, which recover_alpha reads first
    L, p, M = simplicial_operator(4), 7, 60
    dec = solve_A_series(L, p, M, digits=2)
    alphas = _closed_forms(L, p, N_CLI)
    for digits in (-1, -4):
        with pytest.raises(ValueError):
            check_analytic(dec, alphas, M, digits)
        with pytest.raises(ValueError):
            recover_alpha(dec, M, analytic_digits=digits)
    assert check_analytic(dec, alphas, M, 0) == AnalyticReport(
        p=p, M=M, digits=0, verdict="analytic", rows=0)
    fine = solve_A_series(L, p, M, digits=N_CLI)
    assert recover_alpha(fine, M, analytic_digits=0) == \
        recover_alpha(fine, M)


def test_exponents_at_infinity_found_once(monkeypatch):
    # ROADMAP item 1's case: simplicial n = 7, p = 11, rows mod p^3
    L, p, M = simplicial_operator(7), 11, 254
    for n in (7, 9):
        assert frobenius._exponents_at_infinity(simplicial_operator(n)) \
            == list(range(1, n + 1))
    assert analytic_bound(L, p, 3)[1] == M - 2
    calls = []
    find = frobenius._exponents_at_infinity
    monkeypatch.setattr(frobenius, "_exponents_at_infinity",
                        lambda op: calls.append(op) or find(op))
    dec = solve_A_series(L, p, M, digits=N_CLI)
    sol = recover_alpha(dec, M, analytic_digits=3)
    assert sol.exponents == [4, 4, 3, 2, 0, 1]
    assert len(calls) == 1


def test_analytic_powers_built_incrementally():
    # blocks built one from the last, D^(e(s) - e(s-1)) at a time, give
    # the coset and the reports that products formed from scratch at
    # every t-degree give
    L, p, M = simplicial_operator(7), 11, 254
    dec = solve_A_series(L, p, M, digits=N_CLI)
    alphas = _closed_forms(L, p, N_CLI)
    bad = alphas[:-1] + [alphas[-1] + 1]

    def results():
        return (recover_alpha(dec, M, analytic_digits=3),
                [check_analytic(dec, al, M, 3) for al in (alphas, bad)])

    got = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frobenius, "_analytic_rows", _blocks_from_scratch)
        want = results()
    assert got == want
    assert got[0].exponents == [4, 4, 3, 2, 0, 1]
    assert [rep.verdict for rep in got[1]] == ["analytic", "non-analytic"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="e(s) = (s - 1) p fails at s = 4")
def test_analytic_at_the_closed_forms_through_s4():
    # ROADMAP item 1: at the closed forms these report non-analytic at
    # s = 4, first failing (4, 3, 140, 3), (4, 3, 112, 3) and
    # (4, 1, 60, 3); a sound e(s) makes every one analytic
    cases = [(simplicial_operator(4), 7, 240),
             (KNOWN_HYPEROCT_OPERATORS[4], 7, 240),
             (simplicial_operator(2), 5, 150)]
    verdicts = []
    for L, p, M in cases:
        dec = solve_A_series(L, p, M, digits=N_CLI)
        verdicts.append(check_analytic(dec, _closed_forms(L, p, N_CLI), M,
                                       4).verdict)
    assert verdicts == ["analytic"] * 3


def test_bad_reduction_refused():
    # D = 1 - 3125 t^5 is 1 mod 5: simplicial n = 4 has bad reduction at
    # 5, where recover_alpha would report an inconsistent system
    for digits in (None, N_CLI):
        with pytest.raises(BadPrime, match="top coefficient"):
            solve_A_series(simplicial_operator(4), 5, 30, digits=digits)


@pytest.mark.parametrize("family, orders", [("simplicial", range(2, 13)),
                                            ("hyperoctahedral", range(2, 9))])
def test_cli_family_bound_has_good_reduction(family, orders):
    # every prime factor of the top coefficient of D is at most the
    # family bound, so no prime the CLI admits is refused
    fam = cli.FAMILIES[family]
    for n in orders:
        top = abs(fam.operator(n).leading()[-1])
        for q in range(2, fam.bound(n) + 1):
            while top % q == 0:
                top //= q
        assert top == 1, n


def test_recover_alpha_rows_past_the_digits_raise():
    # an order-one operator has no alpha term: one slot digit decides
    # the analytic rows mod p, not those mod p^2
    p, M = 5, 20
    dec = solve_A_series(GEOM_L, p, M, digits=1)
    assert recover_alpha(dec, M, analytic_digits=1).representative == []
    with pytest.raises(PrecisionExhausted):
        recover_alpha(dec, M, analytic_digits=2)


def test_recover_alpha_inconsistent_analytic_constant_row():
    # A_0 = (1 - t^p)/(1 - t) plus a unit at t^10, past deg(1) = p - 1:
    # integral, so no integrality row binds, but the analytic row mod p
    # has no alpha term to absorb it, in both modes
    p, M = 5, 20
    exact = solve_A_series(GEOM_L, p, M)
    fixed = solve_A_series(GEOM_L, p, M, digits=3)
    for dec in (exact, fixed):
        coeffs = [dec.slots[0][0].known(c) for c in range(M)]
        coeffs[10] += p ** dec.scale
        broken = FrobeniusDecomposition(
            p=p, operator=GEOM_L, basis=dec.basis, order=M,
            slots=[[PowerSeries(coeffs, M)]], digits=dec.digits,
            scale=dec.scale, support=dec.support)
        assert recover_alpha(broken, M).representative == []
        with pytest.raises(InconsistentSystem):
            recover_alpha(broken, M, analytic_digits=1)


THETA_SQUARED = MumOperator([[], [], [1]])  # no t-term: only t^0 is live

# (operator, the step g of its t-degree lattice; None for the order M)
LATTICE_CASES = [(GEOM_L, 1)] + \
    [(simplicial_operator(n), n + 1) for n in (2, 3, 4, 5)] + \
    [(KNOWN_HYPEROCT_OPERATORS[4], 2), (THETA_SQUARED, None)]


def _outcome(read, *args):
    """read(*args), or where it raises: the PrecisionExhausted (j, m) or
    the InconsistentSystem index."""
    try:
        return read(*args)
    except PrecisionExhausted as exc:
        return "exhausted", exc.j, exc.m
    except InconsistentSystem as exc:
        return "inconsistent", exc.index


@pytest.mark.parametrize("L, g", LATTICE_CASES)
@pytest.mark.parametrize("digits", [None, 6])
def test_solve_lives_on_the_operator_lattice(L, g, digits):
    p, M = 7, 61
    g = g or M
    exact = solve_A_series(L, p, M)
    dec = exact if digits is None else \
        solve_A_series(L, p, M, digits=digits)
    assert L.step in (g, 0) and dec.step == g
    for k in range(L.order):
        for j in range(L.order):
            for m in range(M):
                got = dec.slot(k, j, m)
                x, live = stored_at(dec, k, j, m)
                if m % g:
                    assert x == 0 and got == 0
                    assert not isinstance(got, PadicNum)
                    if digits is not None:
                        assert not live
                elif digits is not None and live:
                    assert got.agrees(exact.slot(k, j, m), digits)
                elif digits is not None:
                    assert exact.slot(k, j, m) == 0
    if digits is None:
        rng = random.Random(g)
        alphas = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                  for _ in range(L.order - 1)]
        assert verify_frobenius_property(dec, alphas, 25)


@pytest.mark.parametrize("L, g", LATTICE_CASES)
@pytest.mark.parametrize("digits", [None, 6])
def test_decomposition_holds_its_lattice(L, g, digits):
    # the storage format: each slot a series of order ceil(M / g) in
    # t^g, each support row ceil(M / g) bytes, an exact 0 from slot()
    # off the lattice, and the step derived from the operator, never
    # passed in
    p, M = 7, 61
    g = g or M
    dec = solve_A_series(L, p, M, digits=digits)
    n, Mg = L.order, -(-M // g)
    assert len(dec.slots) == n and all(len(row) == n for row in dec.slots)
    assert all(s.order == Mg for row in dec.slots for s in row)
    if digits is None:
        assert dec.support is None
    else:
        assert all(type(row) is bytes and len(row) == Mg
                   for slot in dec.support for row in slot)
    for k in range(n):
        for j in range(n):
            for m in range(M):
                if m % g:
                    got = dec.slot(k, j, m)
                    assert got == 0 and type(got) in (int, Fraction)
    assert len(FrobeniusDecomposition._fields) == 8
    with pytest.raises(TypeError):
        FrobeniusDecomposition(p=p, operator=L, basis=dec.basis,
                               slots=dec.slots, order=M, step=g)


def _integrality_at_every_degree(dec, alphas, M):
    """check_integrality's JSON, or the raised (j, m), from
    _integrality_entry on dec.slot() at every t-degree below M."""
    entries = []
    try:
        for j in range(dec.n):
            for m in range(M):
                entry = _integrality_entry(dec, j, m, alphas)
                if entry is not None:
                    entries.append({"j": j, "m": m, "val": entry[0],
                                    "prec": entry[1]})
    except PrecisionExhausted as exc:
        return exc.j, exc.m
    vals = [e["val"] for e in entries if e["val"] is not None]
    first = next(((e["j"], e["m"], e["val"]) for e in entries
                  if e["val"] is not None and e["val"] < 0), None)
    return IntegralityReport(
        p=dec.p, M=M, verdict="integral" if first is None else
        "non-integral", min_valuation=min(vals, default=None),
        entries=entries, first_failing=first).to_json()


def _rational(x):
    """A slot() value as a rational: a PadicNum as the rational its
    digits store, an inexact zero as 0."""
    if not isinstance(x, PadicNum):
        return Fraction(x)
    return Fraction(x.unit) * Fraction(x.p) ** x.val if x.unit else 0


def _recovered_at_every_degree(dec, M):
    """recover_alpha's coset, from CongruenceSystem.build on rows read by
    dec.slot() at every t-degree below M.  A fixed-precision row with no
    alpha term known nonzero and an integral constant raises where an
    alpha slot on it reads an inexact zero, as its residues leave open
    whether it binds."""
    rows = []
    for j in range(dec.n):
        for m in range(M):
            xs = [dec.slot(k, j, m) for k in range(dec.n)]
            vals = [_rational(x) for x in xs]
            if any(vals[1:]) or vp(vals[0], dec.p) < 0:
                rows.append((vals[0], vals[1:]))
            elif any(isinstance(x, PadicNum) for x in xs[1:]):
                raise PrecisionExhausted(j, m)
    return frobenius.solve_affine_congruences(
        CongruenceSystem.build(dec.p, rows) if rows else
        CongruenceSystem(dec.p, dec.n - 1, ()))


@pytest.mark.parametrize("L, g", LATTICE_CASES)
@pytest.mark.parametrize("digits", [None, 3, 8])
def test_readers_on_the_lattice_match_every_degree(L, g, digits):
    # the readers walk the lattice of dec.step; the same decomposition
    # read through slot() at every t-degree gives the same entries,
    # coset or raise
    p, M = 7, 61
    dec = solve_A_series(L, p, M, digits=digits)
    assert dec.step == (g or M)
    families = [simplicial_operator(n) for n in (2, 3, 4, 5)] + \
        [KNOWN_HYPEROCT_OPERATORS[4]]
    alphas = _closed_forms(L, p, N_CLI) if L in families else \
        [Fraction(2, 7)] * (L.order - 1)
    for alph in (alphas, [a + 1 for a in alphas]):
        assert _outcome(_integrality, dec, alph, M) == \
            _outcome(_integrality_at_every_degree, dec, alph, M)
    assert _outcome(recover_alpha, dec, M) == \
        _outcome(_recovered_at_every_degree, dec, M)
