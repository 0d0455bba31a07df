"""Tests for exact rational and truncated p-adic arithmetic."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from padicfrob.padic_core import (
    CongruenceSystem,
    InconsistentSystem,
    PadicNum,
    ZETA_BERNOULLI_FROM,
    PrecisionError,
    _bernoulli_by_tangents,
    _bernoulli_by_zeta,
    _echelon_mod,
    _ilog,
    _two_pi,
    _residue_of_rational,
    _residues_of_rationals,
    _staudt_denominator,
    bernoulli,
    multinomial,
    padic_exp,
    padic_log,
    solve_affine_congruences,
    vp,
)

from padicfrob.zeta_gamma import EXACT_BERNOULLI_BOUND

from combinatorics import falling_factorial, stirling2


@pytest.mark.parametrize("entry, value", [
    (entry, value)
    for entry in (lambda x: vp(x, 5), lambda x: PadicNum.from_exact(x, 5),
                  lambda x: PadicNum.from_rational(x, 5, 3),
                  lambda x: PadicNum.from_exact(1, 5) + x)
    for value in (0.04, 0.1, "1/3", True, None)
] + [(bernoulli, value) for value in (2.0, F(2), "2", True)])
def test_exact_entry_points_refuse_other_scalars(entry, value):
    # a binary float is no exact rational (vp(0.04, 5) would read 0, not
    # -2), and a string or a bool is no number at all
    with pytest.raises(TypeError):
        entry(value)


def test_vp_basics():
    assert vp(625, 5) == 4
    assert vp(F(1, 50), 5) == -2
    assert vp(F(0), 5) == math.inf
    assert vp(-75, 5) == 2


def test_residue_of_rational_shift():
    # q 5^shift mod 5^k, the powers of 5 taken from either side of q
    cases = [(F(1, 2), 625, 0, 313), (F(3, 50), 125, 2, 3 * 63 % 125),
             (F(7, 3), 125, 1, 35 * 42 % 125), (-250, 25, -3, 23),
             (F(0), 25, -4, 0)]
    for q, mod, shift, want in cases:
        assert _residue_of_rational(q, 5, mod, shift) == want
        assert _residues_of_rationals([q, q], 5, mod, shift) == [want] * 2
    # the batch form, one shared inverse, gives each residue; mixed
    # denominators, ints, zeros and negative shifts in one batch
    for k, shift in [(4, 0), (3, 2), (2, -3), (5, -1)]:
        qs = [F(1, 2), F(7, 3), F(-11, 6), F(0), 0, 250, -375, F(3, 7),
              F(4, 9), 1]
        qs = [q for q in qs if vp(q, 5) + shift >= 0]
        got = _residues_of_rationals(qs, 5, 5 ** k, shift)
        assert got == [_residue_of_rational(q, 5, 5 ** k, shift)
                       for q in qs]
        for q, r in zip(qs, got):
            assert 0 <= r < 5 ** k and vp(r - q * F(5) ** shift, 5) >= k
    assert _residues_of_rationals([], 5, 25) == []
    for q, shift in [(F(1, 5), 0), (F(3, 50), 1), (10, -2)]:
        with pytest.raises(ValueError, match="p-integral"):
            _residue_of_rational(q, 5, 25, shift)
        # one entry that is not p-integral spoils the whole batch
        with pytest.raises(ValueError, match="p-integral"):
            _residues_of_rationals([F(1, 2), q, 3], 5, 25, shift)


class TestEchelonMod:
    def test_unit_determinant_inverse_mod_prime_power(self):
        # Vandermonde (k^m), k, m = 1..4: unit determinant at p = 7
        mod = 7 ** 5
        V = [[k ** m for m in range(1, 5)] for k in range(1, 5)]
        aug = [row + [int(i == j) for j in range(4)]
               for i, row in enumerate(V)]
        reduced, pivots = _echelon_mod(aug, 4, mod)
        assert pivots == [0, 1, 2, 3]
        inv = [row[4:] for row in reduced]
        for i in range(4):
            assert reduced[i][:4] == [int(i == j) for j in range(4)]
            for j in range(4):
                entry = sum(inv[i][k] * V[k][j] for k in range(4)) % mod
                assert entry == int(i == j)

    def test_skips_non_unit_entries(self):
        # det = -1, but the first entry of column 0 is 7, not a unit
        reduced, pivots = _echelon_mod([[7, 1, 1, 0], [1, 0, 0, 1]], 2,
                                       7 ** 5)
        assert pivots == [0, 1]
        inv = [row[2:] for row in reduced]
        assert inv == [[0, 1], [1, 7 ** 5 - 7]]

    def test_raises_without_unit_pivot(self):
        with pytest.raises(ValueError, match="no unit pivot in column 0"):
            _echelon_mod([[7, 1], [14, 3]], 2, 7 ** 5)

    def test_free_columns_mod_prime(self):
        q = 2 ** 61 - 1
        rows = [[0, 2, 4, 1], [0, 1, 2, 3], [0, 3, 6, 4]]
        reduced, pivots = _echelon_mod(rows, 4, q)
        assert pivots == [1, 3]
        assert reduced == [[0, 1, 2, 0], [0, 0, 0, 1]]
        # a multiple of q is zero mod q, so the rank can drop
        assert _echelon_mod([[1, 1], [1, 1 + q]], 2, q)[1] == [0]


class TestPadicNum:
    def test_from_rational_half(self):
        # oracle: extended gcd gives 2 * 313 = 626 = 1 mod 625
        x = PadicNum.from_rational(F(1, 2), 5, 4)
        assert x.valuation == 0
        assert x.residue(4) == 313
        assert x.abs_precision == 4

    def test_from_rational_ten(self):
        x = PadicNum.from_rational(10, 5, 4)
        assert x.valuation == 1
        assert x.abs_precision == 5  # relative precision convention

    def test_zero_is_exact(self):
        assert PadicNum.from_rational(0, 7, 3).is_exact_zero

    def test_add_min_precision(self):
        a = PadicNum.from_rational(3, 7, 5)
        b = PadicNum.from_rational(4, 7, 2)
        assert (a + b).abs_precision == 2

    def test_mul_precision_rule(self):
        # prec = min(v1 + N2, v2 + N1)
        a = PadicNum(7, val=1, unit=3, prec=5)
        b = PadicNum(7, val=2, unit=2, prec=6)
        c = a * b
        assert c.valuation == 3
        assert c.abs_precision == min(1 + 6, 2 + 5)

    def test_div_by_nonunit_costs_precision(self):
        a = PadicNum.from_rational(3, 7, 6)   # prec 6
        b = PadicNum.from_rational(49, 7, 6)  # val 2
        q = a / b
        assert q.valuation == -2
        assert q.abs_precision == 6 - 2

    def test_exact_scalars_do_not_lose_precision(self):
        a = PadicNum.from_rational(3, 7, 6)
        assert (a * F(1, 2)).abs_precision == 6
        assert (a + 10).abs_precision == 6
        assert (a * 49).abs_precision == 8
        assert (a / 7).abs_precision == 5

    def test_cancellation_detected(self):
        a = PadicNum.from_rational(1 + 7 ** 3, 7, 6)
        b = PadicNum.from_rational(1, 7, 6)
        d = a - b
        assert d.valuation == 3

    def test_full_cancellation_gives_inexact_zero(self):
        a = PadicNum.from_rational(5, 7, 4)
        d = a - PadicNum.from_rational(5, 7, 4)
        assert d.is_zero() and not d.is_exact_zero
        assert d.abs_precision == 4

    def test_exact_arithmetic_stays_exact(self):
        a = PadicNum.from_exact(F(3, 4), 7)
        b = PadicNum.from_exact(F(1, 4), 7)
        assert (a + b).is_exact and (a + b).exact == 1

    def test_division_errors(self):
        a = PadicNum.from_rational(3, 7, 4)
        with pytest.raises(ZeroDivisionError):
            a / PadicNum.from_exact(0, 7)
        with pytest.raises(PrecisionError):
            a / PadicNum.inexact_zero(7, 3)

    def test_reflected_subtraction_and_powers(self):
        # 3 - x reaches __rsub__; x ** k multiplies k times, from an exact
        # 1 at k = 0, and inverts first for k < 0
        for x in (PadicNum.from_rational(F(10, 3), 7, 6),
                  PadicNum.from_exact(F(10, 3), 7)):
            assert 3 - x == -(x - 3)
            assert (x ** 0).is_exact and x ** 0 == 1
            assert x ** 2 == x * x
            assert x ** -2 == 1 / (x * x)

    def test_agrees(self):
        a = PadicNum.from_rational(F(1, 2), 5, 4)
        assert a.agrees(313, 4)
        assert a.agrees(313 + 625, 4)
        assert not a.agrees(314, 4)
        assert not a.agrees(313, 5)  # not enough stored precision

    def test_random_ring_laws_mod_precision(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice([5, 7])
            qs = [F(rng.randrange(-300, 300), rng.choice([1, 2, 3, p, p * p]))
                  for _ in range(3)]
            xs = [PadicNum.from_rational(q, p, 8) if q else
                  PadicNum.from_exact(0, p) for q in qs]
            lhs = (xs[0] + xs[1]) * xs[2]
            rhs = xs[0] * xs[2] + xs[1] * xs[2]
            exact = (qs[0] + qs[1]) * qs[2]
            k = min(lhs.abs_precision, rhs.abs_precision)
            if k != math.inf and k > 0:
                assert lhs.agrees(rhs, int(k))
                assert lhs.agrees(exact, int(k))

    def test_truncation_never_overclaims(self):
        # computed digits always match a higher precision recomputation
        rng = random.Random(5)
        for _ in range(100):
            p = 7
            a = F(rng.randrange(-500, 500), rng.choice([1, 2, p]))
            b = F(rng.randrange(1, 500), rng.choice([1, 3, p * p]))
            lo = PadicNum.from_rational(a, p, 4) / PadicNum.from_rational(b, p, 4)
            hi = F(a, 1) / b
            k = lo.abs_precision
            if k > 0:
                assert lo.agrees(hi, int(k))


def test_padic_log_exp_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice([5, 7, 11])
        u = 1 + p * rng.randrange(1, p ** 5)
        x = PadicNum.from_rational(u, p, 9)
        y = padic_exp(padic_log(x))
        assert y.agrees(x, int(y.abs_precision))
        z = padic_log(padic_exp(PadicNum.from_rational(p * rng.randrange(1, 100), p, 9)))
        assert z.abs_precision >= 5


def test_padic_log_homomorphism():
    p = 7
    a = PadicNum.from_rational(1 + 7 * 3, p, 10)
    b = PadicNum.from_rational(1 + 7 * 5, p, 10)
    lhs = padic_log(a * b)
    rhs = padic_log(a) + padic_log(b)
    assert lhs.agrees(rhs, int(min(lhs.abs_precision, rhs.abs_precision)))


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(12) == F(-691, 2730)
        assert bernoulli(13) == 0

    def test_defining_recurrence(self):
        # oracle: sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
        for n in range(1, 61):
            total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
            assert total == 0, n

    def test_large_index_feasible(self):
        b = bernoulli(98)
        # recompute independently through the defining recurrence
        bs = [F(1)]
        for n in range(1, 99):
            acc = sum(math.comb(n + 1, k) * bs[k] for k in range(n))
            bs.append(-acc / (n + 1))
        assert b == bs[98]


    def test_zeta_route_matches_tangent_triangle(self):
        # every index the exact zeta_p oracle may ask for
        _bernoulli_by_tangents(EXACT_BERNOULLI_BOUND)  # one triangle
        for n in range(ZETA_BERNOULLI_FROM, EXACT_BERNOULLI_BOUND + 1, 2):
            assert _bernoulli_by_zeta(n) == _bernoulli_by_tangents(n), n
        assert bernoulli(ZETA_BERNOULLI_FROM) == \
            _bernoulli_by_tangents(ZETA_BERNOULLI_FROM)

    def test_zeta_route_shares_two_pi(self):
        # Q0 = 7562 and 7572 round up to the same Q = 7680, so the second
        # index reuses the first's 2 pi 2^Q and must still be exact
        _two_pi.cache_clear()
        for n in (1206, 1208):
            assert _bernoulli_by_zeta(n) == _bernoulli_by_tangents(n), n
        info = _two_pi.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_von_staudt_clausen(self):
        # B_n + sum over primes q with (q - 1) | n of 1/q is an integer
        for n in list(range(2, 200, 2)) + [290, 292, 1206, 1208, 1600]:
            qs = [q for q in range(2, n + 2)
                  if n % (q - 1) == 0 and
                  all(q % d for d in range(2, math.isqrt(q) + 1))]
            assert (bernoulli(n) + sum(F(1, q) for q in qs)).denominator \
                == 1, n
            assert bernoulli(n).denominator == _staudt_denominator(n)


def test_stirling2():
    assert stirling2(3, 2) == 3
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    for m in range(13):
        assert stirling2(m, m) == 1
    # defining identity: x^m = sum_k S(m,k) [x]_k as a polynomial identity,
    # checked by evaluating at m+1 points (degree m both sides)
    for m in range(13):
        for x in range(m + 1):
            assert x ** m == sum(stirling2(m, k) * falling_factorial(x, k)
                                 for k in range(m + 1))


def test_multinomial():
    assert multinomial((2, 2, 0)) == 6
    assert multinomial((1, 1, 1, 1, 1)) == 120
    assert multinomial((3, -1, 2)) == 0
    assert multinomial(()) == 1


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 4) == 0
    assert falling_factorial(F(1, 2), 2) == F(-1, 4)
    assert falling_factorial(123, 0) == 1


def check_congruence_solution(system, alpha) -> bool:
    """Exact check that a p-integral rational point satisfies every
    condition."""
    p = system.prime
    for a, b, e in system.conditions:
        m = p ** e
        total = sum(x * _residue_of_rational(y, p, m)
                    for x, y in zip(a, alpha))
        if (total - b) % m:
            return False
    return True


class TestCongruences:
    def test_single_condition(self):
        s = CongruenceSystem.build(5, [(F(1, 5), [F(1, 5)])])
        sol = solve_affine_congruences(s)
        assert sol.representative[0] % 5 == 4
        assert sol.exponents == [1]

    def test_two_conditions_merge(self):
        s = CongruenceSystem.build(5, [(F(-2, 5), [F(1, 5)]),
                                       (F(-7, 25), [F(1, 25)])])
        sol = solve_affine_congruences(s)
        assert sol.representative[0] % 25 == 7
        assert sol.exponents == [2]

    def test_inconsistent_reports_index(self):
        s = CongruenceSystem.build(5, [(F(-1, 5), [F(1, 5)]),
                                       (F(-2, 5), [F(1, 5)])])
        with pytest.raises(InconsistentSystem) as err:
            solve_affine_congruences(s)
        assert err.value.index in (0, 1)

    def test_inconsistent_index_is_least_combined_condition(self):
        # the violated row's index is the least of the conditions
        # combined into it, rows past the rank are checked before the
        # pivot rows, and a row with e = 0 keeps its place
        cases = [((((1,), 1, 1), ((1,), 2, 1)), 0),
                 ((((0,), 0, 0), ((1,), 1, 1), ((1,), 2, 1)), 1),
                 ((((5,), 1, 2), ((0,), 3, 2)), 1)]
        for conds, index in cases:
            with pytest.raises(InconsistentSystem) as err:
                solve_affine_congruences(CongruenceSystem(5, 1, conds))
            assert err.value.index == index

    def test_vacuous_conditions(self):
        s = CongruenceSystem.build(5, [(F(3), [F(2), F(1)])])
        sol = solve_affine_congruences(s)
        assert sol.exponents == [0, 0]

    def test_records_compare_print_and_copy_by_field(self):
        # a system is immutable and hashable, a solution is neither;
        # both compare and print field by field, and replace() copies
        s = CongruenceSystem(5, 1, (((1,), 2, 1),))
        assert s == CongruenceSystem(5, 1, (((1,), 2, 1),))
        assert hash(s) == hash(CongruenceSystem(5, 1, (((1,), 2, 1),)))
        assert repr(s) == ("CongruenceSystem(prime=5, unknowns=1, "
                           "conditions=(((1,), 2, 1),))")
        for change in (lambda: setattr(s, "prime", 7),
                       lambda: delattr(s, "unknowns")):
            with pytest.raises(AttributeError):
                change()
        sol = solve_affine_congruences(s)
        assert repr(sol) == ("CongruenceSolution(prime=5, representative=[2], "
                             "exponents=[1], modulus_exponent=1, "
                             "generators=[])")
        with pytest.raises(TypeError):
            hash(sol)
        assert sol.replace() == sol and sol.replace() is not sol
        assert sol.replace(exponents=[0]) != sol
        assert sol != (5, [2], [1], 1, [])
        with pytest.raises(TypeError):
            sol.replace(modulus=2)

    def test_coupled_unknowns(self):
        s = CongruenceSystem.build(5, [(F(0), [F(1, 25), F(1, 25)]),
                                       (F(-3, 5), [F(1, 5), F(0)])])
        sol = solve_affine_congruences(s)
        assert check_congruence_solution(s, sol.representative)
        assert sol.exponents == [1, 1]

    def test_randomized_coset_is_sound(self):
        # representative and every lattice shift satisfy all conditions;
        # a planted solution always lies in the reported coset
        rng = random.Random(17)
        for trial in range(80):
            p = rng.choice([5, 7])
            k = rng.randint(1, 4)
            planted = [rng.randrange(p ** 4) for _ in range(k)]
            rows = []
            for _ in range(rng.randint(1, 6)):
                e = rng.randint(0, 3)
                coeffs = [F(rng.randrange(-20, 20), p ** e) for _ in range(k)]
                c0 = -sum(c * a for c, a in zip(coeffs, planted)) \
                    + F(rng.randrange(p ** e))
                rows.append((c0, coeffs))
            s = CongruenceSystem.build(p, rows)
            sol = solve_affine_congruences(s)
            assert check_congruence_solution(s, sol.representative)
            for g in sol.generators:
                pt = [sol.representative[i] + g[i] for i in range(k)]
                assert check_congruence_solution(s, pt)
            for i in range(k):
                diff = planted[i] - sol.representative[i]
                assert diff % p ** sol.exponents[i] == 0

    def test_exhaustive_coset_is_exact(self):
        # every alpha mod p^E is tried: the system is inconsistent
        # exactly when none solves it, else the solutions are exactly
        # rep + span(generators) mod p^E, and exponents[i] is the most
        # digits of alpha_i the solutions share
        rng = random.Random(29)
        for trial in range(120):
            p = rng.choice([3, 5])
            k = rng.randint(1, 3)
            E = rng.randint(1, _ilog(20000, p) // k)
            planted = [rng.randrange(p ** E) for _ in range(k)] \
                if trial % 2 else None
            conds = []
            for _ in range(rng.randint(1, 5)):
                e = rng.randint(0, E)
                a = [rng.randrange(p ** e) * p ** rng.choice([0, 0, 1, e])
                     % p ** e for _ in range(k)]
                b = rng.randrange(p ** e) if planted is None else \
                    sum(x * y for x, y in zip(a, planted)) % p ** e
                conds.append((tuple(a), b, e))
            E = max(e for _, _, e in conds)
            mod = p ** E
            system = CongruenceSystem(p, k, tuple(conds))
            sols = {alpha for alpha in itertools.product(range(mod), repeat=k)
                    if all((sum(x * y for x, y in zip(a, alpha)) - b)
                           % p ** e == 0 for a, b, e in conds)}
            if not sols:
                with pytest.raises(InconsistentSystem):
                    solve_affine_congruences(system)
                continue
            sol = solve_affine_congruences(system)
            assert sol.modulus_exponent == E
            span, todo = {(0,) * k}, [(0,) * k]
            while todo:
                h = todo.pop()
                for g in sol.generators:
                    nxt = tuple((x + y) % mod for x, y in zip(h, g))
                    if nxt not in span:
                        span.add(nxt)
                        todo.append(nxt)
            rep = sol.representative
            assert sols == {tuple((r + x) % mod for r, x in zip(rep, h))
                            for h in span}
            for i in range(k):
                assert sol.exponents[i] == min(
                    [vp(alpha[i] - rep[i], p) for alpha in sols
                     if alpha[i] != rep[i]] + [E])
