import math
import random
from fractions import Fraction

import pytest

from padicfrob import cli, mum
from padicfrob.mum import (
    GUESS_MODULI,
    KNOWN_HYPEROCT_OPERATORS,
    AmbiguousNullspace,
    MumOperator,
    NoOperatorFound,
    NotMUM,
    _certified_nullspace,
    _nullspace,
    _rational_reconstruct,
    apply_operator,
    guess_operator,
    period_series_hyperoctahedral,
    period_series_simplicial,
    residue_basis,
    simplicial_operator,
    standard_basis,
)
from padicfrob.padic_core import BadPrime, vp
from padicfrob.qseries import LogSeries, PowerSeries

from combinatorics import operator_from_json

F = Fraction


class TestOperatorType:
    def test_simplicial_shape(self):
        L = simplicial_operator(2)
        # theta^2 - (3t)^3 (theta+1)(theta+2)
        assert L.coeffs == [[0, 0, 0, -54], [0, 0, 0, -81], [1, 0, 0, -27]]
        L4 = simplicial_operator(4)
        assert L4.leading() == [1, 0, 0, 0, 0, -3125]
        for n in range(2, 8):
            assert simplicial_operator(n).leading()[0] == 1

    def test_mum_check(self):
        assert simplicial_operator(3).is_mum_normalized()
        bad = MumOperator([[1, 1], [1, 2]])
        assert not bad.is_mum_normalized()
        with pytest.raises(NotMUM):
            standard_basis(bad, 5)

    @pytest.mark.parametrize("bad", [F(1, 2), 0.5, True, "1"])
    def test_refuses_coefficients_not_ints(self, bad):
        # the solve reads integer coefficients: a Fraction, a float, a
        # bool or a string is refused when the operator is built
        with pytest.raises(TypeError, match="coefficients must be ints"):
            MumOperator([[0, bad], [0, 1], [1, 1]])
        with pytest.raises(TypeError, match="coefficients must be ints"):
            MumOperator([[0, -1], [1, -1]]).replace(coeffs=[[0, bad], [1]])

    def test_replace_runs_the_operator_checks(self):
        L = MumOperator([[0, -1], [1, -1]])
        assert L.replace(coeffs=[[0, -1, 0], [1, -1, 0]]).coeffs == L.coeffs
        with pytest.raises(ValueError, match="leading coefficient"):
            L.replace(coeffs=[[0, -1], [0]])

    def test_json_roundtrip_decimal_strings(self):
        import json
        L = KNOWN_HYPEROCT_OPERATORS[4]
        payload = json.loads(L.to_json())
        assert payload["n"] == 4
        assert payload["coeffs"][4] == ["1", "0", "-80", "0", "1024"]
        assert operator_from_json(L.to_json()) == L
        ok = '{"n": 1, "coeffs": [[0, -1], ["1", "0", "-2"]]}'
        assert operator_from_json(ok) == MumOperator([[0, -1], [1, 0, -2]])
        for text, field in [
                ('{"n": 1, "coeffs": [[0, 1.5], [1]]}', r"coeffs\[0\]\[1\]"),
                ('{"n": 1, "coeffs": [[0, true], [1]]}', r"coeffs\[0\]\[1\]"),
                ('{"n": 1, "coeffs": [[0, "1.5"], [1]]}', r"coeffs\[0\]\[1\]"),
                ('{"n": 1, "coeffs": [[0, null], [1]]}', r"coeffs\[0\]\[1\]"),
                ('{"coeffs": [[0, 1], [1]]}', "n must"),
                ('{"n": true, "coeffs": [[0], [1]]}', "n must"),
                ('{"n": 1, "coeffs": [0, 1]}', "coeffs must"),
                ('{"n": 1}', "coeffs must"),
                ('[[0, 1], [1]]', "object")]:
            with pytest.raises(ValueError, match=field):
                operator_from_json(text)

    def test_degree(self):
        assert simplicial_operator(4).degree == 5
        assert KNOWN_HYPEROCT_OPERATORS[5].degree == 6


class TestPeriodSeries:
    def test_simplicial_values(self):
        ps = period_series_simplicial(4, 12)
        assert ps.known(5) == 120
        assert ps.known(1) == 0 and ps.known(4) == 0
        assert period_series_simplicial(2, 8).known(6) == 90

    def test_hyperoct_values(self):
        ph = period_series_hyperoctahedral(4, 8)
        assert ph.known(2) == 8
        assert all(ph.known(k) == 0 for k in range(1, 8, 2))
        ph1 = period_series_hyperoctahedral(1, 12)
        for k in range(6):
            assert ph1.known(2 * k) == math.comb(2 * k, k)

    def test_hyperoct_matches_composition_sum(self):
        # direct sum over compositions for n=2
        ph = period_series_hyperoctahedral(2, 10)
        for k in range(5):
            total = 0
            for k1 in range(k + 1):
                k2 = k - k1
                total += math.factorial(2 * k) // (
                    math.factorial(k1) ** 2 * math.factorial(k2) ** 2)
            assert ph.known(2 * k) == total

    def test_hyperoct_matches_fraction_convolution(self):
        # the n-fold convolution of 1/j!^2, one Fraction at a time
        for n, M in ((3, 9), (5, 88), (7, 41)):
            half = (M + 1) // 2
            conv = [F(int(j == 0)) for j in range(half)]
            for _ in range(n):
                conv = [sum(conv[i] / math.factorial(k - i) ** 2
                            for i in range(k + 1)) for k in range(half)]
            ph = period_series_hyperoctahedral(n, M)
            assert [ph.known(c) for c in range(M)] == \
                [int(conv[c // 2] * math.factorial(c)) if c % 2 == 0 else 0
                 for c in range(M)]

    def test_hyperoct_non_integer_coefficient_raises(self, monkeypatch):
        # a non-integral (2k)! coefficient raises even under python -O
        monkeypatch.setattr(PowerSeries, "__pow__",
                            lambda self, k: PowerSeries([1, F(1, 3)], 4))
        with pytest.raises(ArithmeticError):
            period_series_hyperoctahedral(2, 8)


class TestStandardBasis:
    def test_f0_is_period_series(self):
        for n in (2, 3, 4):
            L = simplicial_operator(n)
            sb = standard_basis(L, 30)
            assert sb.fs[0] == period_series_simplicial(n, 30)
            assert sb.fs[0].known(0) == 1
            for i in range(1, n):
                assert sb.fs[i].known(0) == 0

    def test_hyperoct_f0(self):
        L = KNOWN_HYPEROCT_OPERATORS[4]
        sb = standard_basis(L, 24)
        assert sb.fs[0] == period_series_hyperoctahedral(4, 24)

    def test_annihilation(self):
        for L in (simplicial_operator(4), KNOWN_HYPEROCT_OPERATORS[4]):
            sb = standard_basis(L, 30)
            for i in range(L.order):
                assert apply_operator(L, sb.y(i)).is_zero_mod(30)

    def test_order_one_closed_form(self):
        # (1-t) theta - t annihilates 1/(1-t)
        L = MumOperator([[0, -1], [1, -1]])
        sb = standard_basis(L, 12)
        assert sb.fs[0] == PowerSeries([1] * 12, 12)

    def test_perturbation_breaks_annihilation(self):
        L = simplicial_operator(3)
        sb = standard_basis(L, 20)
        bad = list(sb.fs[1].coeffs)
        while len(bad) < 8:
            bad.append(F(0))
        bad[7] += 1
        y1 = LogSeries([sb.fs[1], sb.fs[0]])
        y1_bad = LogSeries([PowerSeries(bad, 20), sb.fs[0]])
        assert apply_operator(L, y1).is_zero_mod(20)
        assert not apply_operator(L, y1_bad).is_zero_mod(20)

    def test_apply_operator_plain_series(self):
        theta = MumOperator([[0], [1]])
        t = PowerSeries.identity(6)
        assert apply_operator(theta, t) == t


# both families at n = 2..5 and p in {5, 7, 11, 13}, M = 10 p; the
# operators whose slots need more than the basis scale (see
# test_frobenius.test_scale_certificate_raises_a_short_start)
RESIDUE_CASES = [
    (FAMILY.operator(n), p, 10 * p)
    for FAMILY in cli.FAMILIES.values() for n in range(2, 6)
    for p in (5, 7, 11, 13) if p > FAMILY.bound(n)
] + [(MumOperator([[0, -2], [0, 3], [1, -1]]), p, 39) for p in (3, 5, 7, 11)
     ] + [
    (MumOperator([[], [0, 1], [1, -1]]), 3, 5),
    (MumOperator([[0, -9], [0, -15], [0, -7], [1, -1]]), 3, 15),
]


def _residues_of(L, M, p, digits):
    """(S_b, X, nonzero) from the exact basis: S_b = max(0, -min
    vp(F_k[c])), X[k][c] = p^S_b [t^(c g)] F_k mod p^digits, nonzero[k][c]
    whether that coefficient is."""
    g = L.step or M
    fs = [[f.known(c) for c in range(0, M, g)]
          for f in standard_basis(L, M).fs[:L.order]]
    scale = max(0, -min(vp(x, p) for f in fs for x in f if x))
    mod = p ** digits
    xs = [[(x * p ** scale).numerator
           * pow((x * p ** scale).denominator, -1, mod) % mod for x in f]
          for f in fs]
    return scale, xs, [[x != 0 for x in f] for f in fs]


class TestResidueBasis:
    @pytest.mark.parametrize("L,p,M", RESIDUE_CASES)
    def test_agrees_with_the_exact_basis(self, L, p, M):
        # every X_k[c] is the exact one mod p^digits, at the least scale,
        # and every nonzero coefficient is reached
        scale, xs, nonzero = _residues_of(L, M, p, 20)
        got, got_xs, reached = residue_basis(L, M, p, 20)
        assert (got, got_xs) == (scale, xs)
        assert all(r or not z for rrow, zrow in zip(reached, nonzero)
                   for r, z in zip(rrow, zrow))

    def test_the_divisions_raise_a_short_scale(self):
        # the run starts at scale 0, and the divisions raise it to the
        # least one, 6 here, with every residue as at that scale
        L, p, M = KNOWN_HYPEROCT_OPERATORS[4], 7, 140
        scale, xs, _ = residue_basis(L, M, p, 12)
        assert (scale, xs) == _residues_of(L, M, p, 12)[:2]
        assert scale == 6

    def test_exact_cancellations_stay_reached(self):
        # F_2[t^4] of simplicial n = 3 is reached by nonzero terms that
        # cancel: the residue reads 0 and the pattern says reached
        L, p, M = simplicial_operator(3), 7, 40
        _, xs, reached = residue_basis(L, M, p, 12)
        assert standard_basis(L, M).fs[2].known(4) == 0
        assert reached[2][1] and xs[2][1] == 0
        assert not any(reached[k][0] for k in range(1, 3))

    def test_rejects_what_standard_basis_rejects(self):
        with pytest.raises(NotMUM):
            residue_basis(MumOperator([[1], [0, 1], [1]]), 5, 7, 3)
        with pytest.raises(ValueError):
            residue_basis(simplicial_operator(2), 0, 7, 3)
        # no digit to certify the scale with
        with pytest.raises(ValueError):
            residue_basis(simplicial_operator(2), 5, 7, 0)

    @pytest.mark.parametrize("p,why", [(5, "top coefficient"),
                                       (9, "not a prime"),
                                       (1, "not a prime")])
    def test_refuses_what_solve_A_series_refuses(self, p, why):
        # D = 1 - 3125 t^5 has bad reduction at 5; 9 and 1 are not primes
        with pytest.raises(BadPrime, match=why):
            residue_basis(simplicial_operator(4), 30, p, 6)


class TestGuessing:
    def test_simplicial_roundtrip(self):
        g = guess_operator(period_series_simplicial(3, 30), 3, 4)
        assert g == simplicial_operator(3)

    def test_hyperoct_printed_operators(self):
        g4 = guess_operator(period_series_hyperoctahedral(4, 35), 4, 4)
        assert g4 == KNOWN_HYPEROCT_OPERATORS[4]
        g5 = guess_operator(period_series_hyperoctahedral(5, 55), 5, 6)
        assert g5 == KNOWN_HYPEROCT_OPERATORS[5]

    def test_guessed_operator_annihilates_basis(self):
        g4 = guess_operator(period_series_hyperoctahedral(4, 35), 4, 4)
        sb = standard_basis(g4, 25)
        assert sb.fs[0] == period_series_hyperoctahedral(4, 25)
        for i in range(4):
            assert apply_operator(g4, sb.y(i)).is_zero_mod(25)

    def test_evenness(self):
        for n, d in ((4, 4), (5, 6)):
            g = guess_operator(
                period_series_hyperoctahedral(n, (n + 1) * (d + 1) + 11),
                n, d)
            for poly in g.coeffs:
                assert all(x == 0 for x in poly[1::2])

    def test_junk_series_fails(self):
        rng = random.Random(31337)
        junk = PowerSeries([rng.randint(1, 99) for _ in range(40)], 40)
        with pytest.raises(NoOperatorFound):
            guess_operator(junk, 2, 3)

    def test_ambiguous_when_degree_too_generous(self):
        # the geometric series 1/(1-t) is killed by (1-t) theta - t, so
        # by Q ((1-t) theta - t) for each Q in the span of 1, t, theta
        # and t theta: a pencil of order-2 degree-2 annihilators, which
        # no count of equations pins down
        geo = PowerSeries([1] * 40, 40)
        with pytest.raises(AmbiguousNullspace,
                           match="nullspace dimension 4"):
            guess_operator(geo, 2, 2)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            guess_operator(period_series_simplicial(3, 10), 3, 4)


def _counting_fallback(monkeypatch):
    calls = []

    def fallback(rows, ncols):
        calls.append(ncols)
        return _nullspace(rows, ncols)

    monkeypatch.setattr(mum, "_nullspace", fallback)
    return calls


class TestCertifiedNullspace:
    def test_rational_reconstruct(self):
        q = GUESS_MODULI[0]
        for x in (F(0), F(1), F(-3, 7), F(2 ** 29, 2 ** 30 - 1)):
            u = x.numerator * pow(x.denominator, -1, q) % q
            assert _rational_reconstruct(u, q) == x
        # past sqrt(q/2) = 2^30 the fraction is out of reach
        assert _rational_reconstruct(3 ** 25, q) != 3 ** 25

    def test_matches_fraction_path_without_fallback(self, monkeypatch):
        calls = _counting_fallback(monkeypatch)
        rows = [[1, 2, 3, 4], [2, 4, 7, 9], [3, 6, 10, 13], [0, 0, 1, 1]]
        assert _certified_nullspace(rows, 4) == _nullspace(rows, 4)
        assert len(_nullspace(rows, 4)) == 2
        assert calls == []

    def test_rank_drop_mod_q_takes_fallback(self, monkeypatch):
        # rank 2 over Q but rank 1 mod every q: the vector (-1, 1) found
        # mod each fails the exact row check
        calls = _counting_fallback(monkeypatch)
        q1, q2, q3 = GUESS_MODULI
        assert _certified_nullspace([[1, 1], [1, 1 + q1 * q2 * q3]], 2) == []
        assert calls == [2]

    def test_large_kernel_vector_takes_fallback(self, monkeypatch):
        calls = _counting_fallback(monkeypatch)
        B = 3 ** 165       # above 2^261, past the largest reconstruction bound
        rows = [[1, -B, 0], [0, 0, 1], [2, -2 * B, 5]]
        assert _certified_nullspace(rows, 3) == [[F(B), F(1), F(0)]]
        assert calls == [3]

    def test_larger_modulus_certifies(self, monkeypatch):
        # 3^25 > 2^31 is past sqrt(q/2) for the first modulus only
        calls = _counting_fallback(monkeypatch)
        B = 3 ** 25
        rows = [[1, -B, 0], [0, 0, 1], [2, -2 * B, 5]]
        assert _certified_nullspace(rows, 3) == [[F(B), F(1), F(0)]]
        assert calls == []

    def test_fraction_rows(self):
        rows = [[F(1, 2), F(1, 3), 1], [F(2, 5), 0, F(-7, 4)]]
        assert _certified_nullspace(rows, 3) == _nullspace(rows, 3)

    def test_guess_never_falls_back_on_the_families(self, monkeypatch):
        calls = _counting_fallback(monkeypatch)
        guess_operator(period_series_hyperoctahedral(5, 55), 5, 6)
        with pytest.raises(NoOperatorFound):
            guess_operator(period_series_hyperoctahedral(5, 55), 5, 5)
        assert calls == []
