import math
import random
from fractions import Fraction
from itertools import product

import pytest

from padicfrob import cli
from padicfrob.expansion import (
    BoxTooLarge,
    alternating_identity_check,
    brute_force_expand,
    mu_at_zero,
    normalize_shift,
    simplicial_coeff_series,
    to_laurent,
)
from padicfrob.mum import (
    period_series_hyperoctahedral,
    period_series_simplicial,
)
from padicfrob.qseries import PowerSeries

from combinatorics import (
    cartier_truncated,
    check_divisibility,
    eta_from_omega,
    expand_then_filter,
    homogenize,
    hyperoct_constant_term,
    hyperoct_degree,
    omega_ell_coefficients,
    simplicial_degree,
    simplicial_limit_coeff,
    simplicial_limit_coeff_falling,
    stirling2,
)


def test_exponent_bookkeeping():
    assert normalize_shift((3, 1, 2)) == (2, 0, 1)
    assert homogenize((-1, -1)) == (1, 0, 0)
    assert homogenize((1, 0)) == (0, 1, 0)
    assert to_laurent((1, 0, 0)) == (-1, -1)
    assert simplicial_degree((-1, -1)) == 1
    assert simplicial_degree((1, 2)) == 3
    assert hyperoct_degree((2, -1, 0)) == 3


def test_coeff_series_leading_term():
    s = simplicial_coeff_series((1, 0, 0), (1, 1, 0), 2, 20)
    assert [s.known(c) for c in range(5)] == [0, 0, 0, 0, 12]
    assert s.known(7) == 420  # next term, l = 1


def test_coeff_series_shift_invariance():
    a = simplicial_coeff_series((1, 0, 0), (1, 1, 0), 2, 15)
    b = simplicial_coeff_series((3, 2, 2), (2, 2, 1), 2, 15)
    assert all(a.known(c) == b.known(c) for c in range(15))


def test_coeff_series_period_case():
    s = simplicial_coeff_series((0, 0, 0), (0, 0, 0), 1, 25)
    per = period_series_simplicial(2, 25)
    assert all(s.known(c) == per.known(c) for c in range(25))


def test_limit_values():
    assert simplicial_limit_coeff((1, 0, 0), (1, 1, 0), 2) == 12
    assert simplicial_limit_coeff((0, 0, 0), (1, 1, 0), 2) == 6
    assert simplicial_limit_coeff((1, 0, 0), (0, 0, 0), 2) == 0
    # 0^0 = 1: U_i = V_i = 0 slots contribute a unit factor
    assert simplicial_limit_coeff((0, 1, 0), (0, 1, 0), 1) == 1


def test_falling_limit_is_series_leading_term():
    for K, V, N in [((1, 0, 0), (1, 1, 0), 2), ((2, 0, 0), (1, 1, 0), 2),
                    ((1, 1, 0), (2, 1, 0), 1), ((0, 0, 0), (1, 0, 0), 3)]:
        s = simplicial_coeff_series(K, V, N, 40)
        base = N * sum(normalize_shift(V))
        assert s.known(base) == simplicial_limit_coeff_falling(K, V, N)


def test_stirling_duality_recovers_power_limit():
    # sum_K S(U, K) multinomial(NV) prod [NV_i]_{K_i}
    #   = multinomial(NV) prod (NV_i)^{U_i}
    for U in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]:
        for V, N in [((1, 1, 0), 2), ((2, 1, 0), 1), ((1, 0, 0), 3)]:
            total = 0
            for K, c in eta_from_omega(U):
                total += c * simplicial_limit_coeff_falling(K, V, N)
            assert total == simplicial_limit_coeff(U, V, N)


def test_brute_force_simplicial_constant_term():
    cm = brute_force_expand("simplicial", 1, (0, (0, 0)), 4, 20)
    per = period_series_simplicial(2, 20)
    c = cm.coefficient((0, 0))
    assert all(c.known(k) == per.known(k) for k in range(20))
    assert check_divisibility(cm)


def test_brute_force_hyperoct_constant_term():
    cm = brute_force_expand("hyperoctahedral", 1, (0, (0, 0, 0)), 3, 13)
    per = period_series_hyperoctahedral(3, 13)
    c = cm.coefficient((0, 0, 0))
    assert all(c.known(k) == per.known(k) for k in range(13))
    assert check_divisibility(cm)


def test_brute_force_matches_enumerate_then_filter():
    # random boxes, numerators and orders for both families, n <= 3 and
    # M <= 12: the box-pruned walk gives the oracle's coefficients, with
    # the exponents in the same order
    rng = random.Random(20260)
    for _ in range(80):
        family = rng.choice(["simplicial", "hyperoctahedral"])
        n, M, m = rng.randint(1, 3), rng.randint(1, 12), rng.randint(1, 3)
        lo = tuple(rng.randint(-4, 2) for _ in range(n))
        hi = tuple(x + rng.randint(0, 4) for x in lo)
        numerator = (rng.randint(0, 2),
                     tuple(rng.randint(-2, 2) for _ in range(n)))
        cm = brute_force_expand(family, m, numerator, (lo, hi), M)
        want = expand_then_filter(family, m, numerator, (lo, hi), M)
        assert list(cm.data) == list(want)
        assert all([cm.data[u].known(c) for c in range(M)] == want[u]
                   for u in want)


def test_cartier_reindexing():
    cm = brute_force_expand("simplicial", 1, (0, (0, 0)), 4, 24)
    ct = cartier_truncated(cm, 2)
    for u in product(range(-2, 3), repeat=2):
        src = cm.coefficient(tuple(2 * x for x in u))
        dst = ct.coefficient(u)
        assert all(src.known(c) == dst.known(c) for c in range(24))
    # double application is re-indexing by p^2
    again = cartier_truncated(ct, 2)
    for u in product(range(-1, 2), repeat=2):
        src = cm.coefficient(tuple(4 * x for x in u))
        assert all(again.coefficient(u).known(c) == src.known(c)
                   for c in range(24))


def test_cartier_divisibility():
    cm = brute_force_expand("simplicial", 1, (0, (0, 0)), 4, 24)
    p = 2
    for u in product(range(-2, 3), repeat=2):
        pu = tuple(p * x for x in u)
        d = simplicial_degree(u)
        series = cm.coefficient(pu)
        assert all(not series.known(c) for c in range(min(p * d, 24)))


def test_cartier_box_guard():
    cm = brute_force_expand("simplicial", 1, (0, (0, 0)), 2, 10)
    with pytest.raises(BoxTooLarge):
        cartier_truncated(cm, 2, box=2)


def test_brute_force_bounds():
    with pytest.raises(BoxTooLarge):
        brute_force_expand("simplicial", 1, (0, (0, 0, 0, 0)), 1, 10)
    with pytest.raises(BoxTooLarge):
        brute_force_expand("simplicial", 1, (0, (0, 0)), 8, 10)
    with pytest.raises(BoxTooLarge):
        brute_force_expand("simplicial", 1, (0, (0, 0)), 2, 40)
    with pytest.raises(ValueError):
        brute_force_expand("cubic", 1, (0, (0, 0)), 2, 10)


def test_hyperoct_constants_match_period():
    for n in (2, 3, 4):
        F = hyperoct_constant_term((0,) * n, n, 16)
        per = period_series_hyperoctahedral(n, 16)
        assert all(F.series.known(c) == per.known(c) for c in range(16))
        assert F.ell == 0


def test_hyperoct_parity_and_support():
    F = hyperoct_constant_term((2, 1, 0), 3, 15)
    assert all(F.series.known(c) == 0 for c in range(1, 15, 2))
    assert F.ell == 2
    with pytest.raises(ValueError):
        hyperoct_constant_term((-1, 0), 2, 10)


def test_hyperoct_theta_identity():
    for n in (2, 3, 4):
        F = hyperoct_constant_term((0,) * n, n, 21).series
        F1 = hyperoct_constant_term((1,) + (0,) * (n - 1), n, 21).series
        th = F.theta()
        assert all(th.known(c) == 2 * n * F1.known(c) for c in range(21))


def test_hyperoct_top_recursion():
    # F_u = theta (theta - 1) t^2 sum_k C(u_1 - 2, k) F_(k, u_2, ...)
    n, M = 2, 11
    lhs = hyperoct_constant_term((2, 0), n, M).series
    inner = hyperoct_constant_term((0, 0), n, M).series.shift(2)
    rhs = inner.theta().theta() - inner.theta()
    assert all(lhs.known(c) == rhs.known(c) for c in range(M))


def test_mu_at_zero_values():
    assert mu_at_zero((1, 0, 0), 1, 3) == Fraction(1, 6)
    assert mu_at_zero((1, 1, 0, 0), 2, 4) == Fraction(1, 48)
    assert mu_at_zero((2, 0, 0), 2, 3) == 0
    assert mu_at_zero((0, 0, 0, 0), 0, 4) == 1
    assert mu_at_zero((1, 1, 0), 1, 3) == 0  # two ones but j = 1
    with pytest.raises(ValueError):
        mu_at_zero((1, 1, 1), 2, 3)  # |u| = n not allowed
    with pytest.raises(ValueError):
        mu_at_zero((1, 0), 2, 2)


def test_mu_table_small_n():
    for n in range(2, 6):
        for j in range(n):
            u = (1,) * j + (0,) * (n - j)
            if j >= n:
                continue
            want = Fraction(math.factorial(n - j),
                            2 ** j * math.factorial(n))
            assert mu_at_zero(u, j, n) == want


def test_alternating_identity_hand_case():
    assert alternating_identity_check(PowerSeries([1, 1], 6), 1)
    assert alternating_identity_check(PowerSeries([1], 10), 3)


def test_alternating_identity_random():
    ok, detail = cli._check_alternating(rounds=12, seed=4051)
    assert ok, detail


def test_alternating_identity_guards():
    with pytest.raises(ValueError):
        alternating_identity_check(PowerSeries([1, 1], 3), 2)
    with pytest.raises(ValueError):
        alternating_identity_check(PowerSeries([2, 1], 8), 1)


def test_eta_from_omega_examples():
    assert eta_from_omega((0, 0)) == [((0, 0), 1)]
    assert eta_from_omega((1, 0)) == [((1, 0), 1)]
    assert eta_from_omega((2, 0)) == [((1, 0), 1), ((2, 0), 1)]
    got = dict(eta_from_omega((3, 1)))
    assert got == {(1, 1): 1, (2, 1): 3, (3, 1): 1}
    assert all(stirling2(3, k) == got[(k, 1)] for k in (1, 2, 3))


def test_omega_ell_polynomial_identity():
    # prod [l]_{U_i} == sum c_i (n+1)^i l^i as exact polynomials
    for n in range(2, 6):
        for U in [(1, 0), (2, 0), (1, 1), (2, 1), (3, 0)]:
            if sum(U) >= n:
                continue
            cs = omega_ell_coefficients(U, n)
            # evaluate both sides at enough integer points
            for ell in range(sum(U) + 2):
                lhs = 1
                for ui in U:
                    for s in range(ui):
                        lhs *= ell - s
                rhs = sum(c * (n + 1) ** i * ell ** i
                          for i, c in enumerate(cs))
                assert lhs == rhs
