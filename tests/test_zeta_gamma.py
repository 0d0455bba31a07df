import random
from fractions import Fraction

import pytest

from padicfrob.padic_core import (
    BadPrime,
    PadicNum,
    PrecisionError,
    bernoulli,
    vp,
)
from padicfrob.zeta_gamma import (
    EXACT_BERNOULLI_BOUND,
    LevelTooLarge,
    PrecisionBudgetExceeded,
    ZetaPoly,
    alpha_hyperoctahedral,
    alpha_simplicial,
    evaluate_zeta_poly,
    gamma_ratio_congruence_check,
    gammap_int,
    gammap_taylor,
    log_ratio_expansion,
    zetap,
    zetap_bernoulli,
    zetap_interpolated,
    _gamma_products,
    _node_scale,
    _node_schedule,
    _washington,
)
from padicfrob.qseries import _exp_coefficients

F = Fraction


class TestZetaPoly:
    def test_generators_are_odd(self):
        ZetaPoly.gen(3)
        ZetaPoly.gen(9)
        with pytest.raises(ValueError):
            ZetaPoly.gen(2)
        with pytest.raises(ValueError):
            ZetaPoly.gen(4)
        with pytest.raises(ValueError):
            ZetaPoly.gen(1)

    def test_ring_ops(self):
        z3 = ZetaPoly.gen(3)
        z5 = ZetaPoly.gen(5)
        q = z3 * z3 - 2 * z5 + F(1, 2)
        assert q.coefficient((3, 3)) == 1
        assert q.coefficient((5,)) == -2
        assert q.constant() == F(1, 2)
        assert (q - q).is_zero()
        assert (z3 * z5).coefficient((3, 5)) == 1
        assert (z3 / 3).coefficient((3,)) == F(1, 3)

    def test_weights(self):
        z3 = ZetaPoly.gen(3)
        z9 = ZetaPoly.gen(9)
        q = z3 * z3 * z3 + 18 * z9
        assert q.weights() == {9}
        assert not (q + z3).weights() <= {9}

    def test_format_single(self):
        z3 = ZetaPoly.gen(3)
        assert (z3 * F(-8, 25)).format() == "-8/25 * z3"
        assert z3.format() == "z3"
        assert (-z3).format() == "-z3"
        assert ZetaPoly.zero().format() == "0"
        assert ZetaPoly.const(F(3, 4)).format() == "3/4"
        assert (ZetaPoly.gen(3) * ZetaPoly.gen(3) / 18).format() == \
            "1/18 * z3^2"

    def test_format_multi(self):
        z3, z9 = ZetaPoly.gen(3), ZetaPoly.gen(9)
        q = -(18 * z9 + z3 * z3 * z3) / 162
        assert q.format() == "-(18*z9 + z3^3)/162"
        r = z3 - z9
        assert r.format() == "(z3 - z9)/1" or r.format() == "(z3 - z9)"


class TestZetaBernoulli:
    def test_even_vanishing_full_precision(self):
        for p in (5, 7):
            for m in (2, 4):
                z = zetap_bernoulli(m, p, 1)
                assert z.is_zero()
                assert z.abs_precision >= 2

    def test_known_residues(self):
        # anchored by the cross-route agreement test below
        assert zetap_bernoulli(3, 5, 2).residue(3) == 47
        assert zetap_bernoulli(3, 7, 2).residue(3) == 267
        assert zetap_bernoulli(5, 7, 2).residue(3) == 60
        assert zetap_bernoulli(3, 11, 2).residue(3) == 170
        assert zetap_bernoulli(5, 11, 2).residue(3) == 1200

    def test_matches_direct_formula(self):
        p, m, r = 5, 3, 2
        n = 1 - m + (p - 1) * p ** r
        assert n == 98
        val = -(1 - F(p) ** (n - 1)) * bernoulli(n) / n
        assert zetap_bernoulli(m, p, r).agrees(
            PadicNum.from_exact(val, p), 3)

    def test_level_too_large(self):
        # 1 - 3 + 12 * 169 = 2026 > bound
        assert 1 - 3 + 12 * 13 ** 2 > EXACT_BERNOULLI_BOUND
        with pytest.raises(LevelTooLarge):
            zetap_bernoulli(3, 13, 2)

    def test_exceptional_class_precision(self):
        # m = 1 mod p-1: the pole of L_p(s, 1) at s = 1 leaves r - 1
        # digits when vp(m-1) = vp(n) = 0, and the raw limit is off in
        # exactly the next digit
        for m, p in ((5, 5), (7, 7), (3, 3), (9, 5)):
            with pytest.raises(PrecisionError):
                zetap_bernoulli(m, p, 1)
            for r in (2, 3):
                n = 1 - m + (p - 1) * p ** r
                if n > EXACT_BERNOULLI_BOUND:
                    continue
                z = zetap_bernoulli(m, p, r)
                want = _washington(m, p, r + 2)
                assert z.abs_precision == r - 1
                assert z.agrees(want, r - 1)
                raw = -(1 - F(p) ** (n - 1)) * bernoulli(n) / n
                assert (PadicNum.from_exact(raw, p) - want).valuation == r - 1

    def test_exceptional_class_with_vp_loss(self):
        # m = 7, p = 3: vp(m-1) = vp(n) = 1, so r - 3 digits
        for r in (4, 5):
            z = zetap_bernoulli(7, 3, r)
            assert z.abs_precision == r - 3
            assert z.agrees(_washington(7, 3, r), r - 3)
        with pytest.raises(PrecisionError):
            zetap_bernoulli(7, 3, 3)


class TestZetaWashington:
    def test_matches_interpolated(self):
        cases = [(m, p, N) for p in (5, 7, 11, 13)
                 for m in range(3, p - 1, 2) for N in range(1, 9)]
        for m, p, N in cases + [(3, 31, 48), (5, 7, 12)]:
            a, b = zetap(m, p, N), zetap_interpolated(m, p, N)
            assert (a.valuation, a.unit, a.abs_precision) == \
                (b.valuation, b.unit, b.abs_precision), (m, p, N)
        # the precision is the interpolation route's, not N
        assert zetap(3, 7, 12).abs_precision == 14

    def test_even_is_exact_zero(self):
        for m in (2, 4, 10):
            assert zetap(m, 7, 5).is_exact_zero

    def test_answers_past_the_node_cap(self):
        # the cap bounds the oracle's node sweep, which zetap never runs
        assert zetap(3, 5, 60).abs_precision >= 60
        with pytest.raises(PrecisionBudgetExceeded):
            zetap_interpolated(3, 5, 60)
        with pytest.raises(PrecisionBudgetExceeded):
            gammap_taylor(5, 3, 60)
        with pytest.raises(ValueError):
            zetap(5, 5, 3)
        with pytest.raises(ValueError):
            zetap(3, 7, 0)

    @pytest.mark.parametrize("m, p, N", [
        (3, 5, 60), (9, 11, 12), (7, 11, 24), (11, 13, 12), (9, 13, 24),
        (5, 7, 24), (3, 7, 40)])
    def test_past_the_node_cap_matches_bernoulli(self, m, p, N):
        with pytest.raises(PrecisionBudgetExceeded):
            zetap_interpolated(m, p, N)
        z = zetap(m, p, N)
        assert z.abs_precision >= N
        r = 0
        while 1 - m + (p - 1) * p ** (r + 1) <= EXACT_BERNOULLI_BOUND:
            r += 1
        want = zetap_bernoulli(m, p, r)
        assert z.agrees(want, want.abs_precision)

    def test_core_is_stable_in_precision(self):
        # the truncation point must hold in the class m = 1 mod p-1 too
        for m, p in ((5, 5), (9, 5), (7, 7), (3, 3), (7, 3), (13, 7),
                     (7, 5), (9, 7)):
            for K in range(1, 9):
                z = _washington(m, p, K)
                assert z.abs_precision == K
                assert z.agrees(_washington(m, p, K + 6), K), (m, p, K)

    def test_core_matches_bernoulli_beyond_interpolation(self):
        # m >= p-1, outside the class m = 1 mod p-1
        for m, p, r in ((7, 5, 2), (9, 7, 2), (11, 7, 1)):
            assert _washington(m, p, r + 1).agrees(
                zetap_bernoulli(m, p, r), r + 1)


@pytest.mark.parametrize("call", [
    lambda p: zetap(3, p, 3),
    lambda p: zetap_interpolated(3, p, 3),
    lambda p: zetap_bernoulli(3, p, 2),
    lambda p: evaluate_zeta_poly(ZetaPoly.gen(3), p, 3),
    lambda p: gammap_int(5, p, 3),
], ids=["zetap", "zetap_interpolated", "zetap_bernoulli",
        "evaluate_zeta_poly", "gammap_int"])
def test_rejects_bad_prime(call):
    for p in (9, 15, 4, 2, 1):
        with pytest.raises(BadPrime):
            call(p)


class TestGammaInt:
    def test_point_values(self):
        assert gammap_int(5, 5, 8) == PadicNum.from_exact(-24, 5)
        assert gammap_int(1, 7, 6) == PadicNum.from_exact(-1, 7)
        assert gammap_int(0, 7, 6) == PadicNum.from_exact(1, 7)
        # Wilson-type: Gamma_p(p) = product of all units below p, sign -1
        assert gammap_int(7, 7, 6) == PadicNum.from_exact(-720, 7)

    def test_lipschitz_property(self):
        rng = random.Random(20240902)
        for _ in range(100):
            p = rng.choice([5, 7, 11])
            a = rng.randint(0, 1500)
            b = rng.randint(0, 1500)
            if a == b:
                continue
            k = vp(a - b, p)
            ga = gammap_int(a, p, 8)
            gb = gammap_int(b, p, 8)
            assert ga.agrees(gb, min(k, 8))

    def test_rejects_precision_below_one(self):
        # mod p^0 every product reduces to 0, which is no unit
        for z in (0, 1, 5):
            with pytest.raises(ValueError, match="N >= 1"):
                gammap_int(z, 7, 0)

    def test_values_are_units(self):
        for p in (5, 7):
            for z in range(0, 40):
                assert gammap_int(z, p, 6).valuation == 0


def _morita(z, p, N):
    """Gamma_p(z) mod p^N straight from the definition."""
    acc = (-1) ** z
    for j in range(1, z):
        if j % p:
            acc *= j
    return acc % p ** N


class TestGammaProducts:
    @pytest.mark.parametrize("p, step, D, E", [
        (5, 2, 4, 6), (7, 3, 5, 4), (5, 25, 3, 8), (7, 49, 5, 10),
        (11, 121, 9, 5), (3, 4, 1, 7), (5, 0, 1, 3)])
    def test_matches_definition(self, p, step, D, E):
        # even and odd steps, and D > 1 at the node steps p^s
        assert _gamma_products(p, step, D, E) == tuple(
            _morita(k * step, p, E) for k in range(1, D + 1))

    def test_gammap_int_matches_definition(self):
        for p in (3, 5, 7, 11):
            for N in (1, 2, 5, 9):
                for z in range(0, 3 * p + 2):
                    want = PadicNum.from_rational(_morita(z, p, N), p, N)
                    assert gammap_int(z, p, N) == want, (z, p, N)


class TestGammaTaylor:
    def test_g2_gives_even_zeta_zero(self):
        exp5 = gammap_taylor(5, 3, 4)
        z2 = exp5.log_coeffs[1] * (-2)
        assert z2.is_zero()
        assert z2.abs_precision >= 4

    def test_zeta3_cross_oracle(self):
        exp5 = gammap_taylor(5, 3, 3)
        z3 = exp5.log_coeffs[2] * (-3)
        assert z3.agrees(zetap_bernoulli(3, 5, 2), 3)

    def test_point_value_from_expansion(self):
        exp7 = gammap_taylor(7, 5, 4)
        ev = exp7.evaluate(14)
        assert ev.agrees(gammap_int(14, 7, 9), 4)

    def test_linear_term_at_nodes(self):
        # Gamma_p(p^s) = 1 + Gamma_p'(0) p^s mod p^(2s)
        exp7 = gammap_taylor(7, 3, 3)
        s = exp7.scale
        c1 = exp7.derivative_at_zero()
        lhs = gammap_int(7 ** s, 7, 2 * s + 2)
        assert lhs.agrees(1 + c1 * 7 ** s, 2 * s)

    def test_precision_decreases_with_degree(self):
        exp7 = gammap_taylor(7, 5, 3)
        precs = [c.abs_precision for c in exp7.log_coeffs]
        assert all(a >= b for a, b in zip(precs, precs[1:]))
        assert precs[-1] >= 3

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            gammap_taylor(5, 4, 3)
        with pytest.raises(PrecisionBudgetExceeded):
            gammap_taylor(5, 3, 50)

    @pytest.mark.parametrize("p, D, N, want", [
        (5, 3, 4, ["1 (exact, p=5)", "1020549*5 + O(5^10)",
                   "1341638*5^2 + O(5^11)", "401 + O(5^4)"]),
        (7, 5, 3, ["1 (exact, p=7)", "18724676592050 + O(7^16)",
                   "4011497863081 + O(7^16)", "231385204 + O(7^10)",
                   "9650741*7 + O(7^10)", "199 + O(7^4)"]),
        (7, 3, 3, ["1 (exact, p=7)", "3404746 + O(7^8)", "3439221 + O(7^8)",
                   "834 + O(7^4)"]),
        (11, 4, 2, ["1 (exact, p=11)", "108956638 + O(11^8)",
                    "6805816 + O(11^8)", "296*11 + O(11^4)",
                    "3843 + O(11^4)"])])
    def test_coefficients_keep_their_digits(self, p, D, N, want):
        # the Taylor coefficients g_m, values and precisions, as the
        # series exp over PadicNum coefficients gave them
        assert [repr(c) for c in gammap_taylor(p, D, N).coeffs] == want

    def test_outside_radius_rejected(self):
        exp5 = gammap_taylor(5, 3, 3)
        with pytest.raises(ValueError):
            exp5.evaluate(PadicNum.from_exact(2, 5))


class TestZetaInterpolated:
    def test_high_precision_feasible(self):
        z = zetap_interpolated(3, 7, 12)
        assert z.abs_precision >= 12
        assert z.agrees(zetap_bernoulli(3, 7, 2), 3)

    def test_even_is_exact_zero(self):
        z = zetap_interpolated(4, 7, 5)
        assert z.is_exact and z.is_exact_zero

    def test_budget_guard(self):
        with pytest.raises(PrecisionBudgetExceeded):
            zetap_interpolated(3, 5, 60)
        with pytest.raises(ValueError):
            zetap_interpolated(5, 5, 3)

    def test_node_schedule_stops_where_a_full_scan_agrees(self):
        # the scan of D stops once the node scale reaches its floor 2;
        # the cheapest nodes over every D < p-1 are the same
        for p in (5, 7, 11, 13, 29, 53, 101):
            for m in range(3, p - 1, 2):
                for N in (1, 2, 3, 7, 20, 60):
                    scan = min((D * p ** s, D, s) for D in range(m, p - 1)
                               for s in [_node_scale(p, D, m, N)])
                    assert _node_schedule(m, p, N) == scan[1:]


class TestLogRatio:
    def test_a_is_the_sum_of_the_weights(self):
        # log(Gamma_p(3x) / (Gamma_p(x) Gamma_p(2x))): the x^3 term is
        # -(zeta_p(3)/3)(27 - 1 - 8)
        L = log_ratio_expansion([1, 2], 3)
        assert len(L) == 4
        assert L[3] == ZetaPoly.gen(3) * -6
        assert L[1].is_zero()

    def test_low_terms_vanish(self):
        L = log_ratio_expansion([F(1, 5)] * 5, 6)
        assert L[0].is_zero()
        assert L[1].is_zero()
        assert L[2].is_zero() and L[4].is_zero()

    def test_displayed_expansions(self):
        e4 = _exp_coefficients(log_ratio_expansion([F(1, 5)] * 5, 3), 4)
        assert e4[3] == ZetaPoly.gen(3) * F(-8, 25)
        e6 = _exp_coefficients(log_ratio_expansion([F(1, 7)] * 7, 5), 6)
        assert e6[5] == ZetaPoly.gen(5) * F(-480, 2401)
        e7 = _exp_coefficients(log_ratio_expansion([F(1, 8)] * 8, 6), 7)
        assert e7[6] == ZetaPoly.gen(3) * ZetaPoly.gen(3) * F(441, 8192)


class TestAlphaConstants:
    def test_simplicial_displayed_values(self):
        z3, z5 = ZetaPoly.gen(3), ZetaPoly.gen(5)
        x3 = {4: F(-8, 25), 5: F(-35, 108), 6: F(-16, 49), 7: F(-21, 64)}
        for n, c in x3.items():
            assert alpha_simplicial(n)[2] == z3 * c
        assert alpha_simplicial(6)[4] == z5 * F(-480, 2401)
        assert alpha_simplicial(7)[4] == z5 * F(-819, 4096)
        assert alpha_simplicial(7)[5] == z3 * z3 * F(441, 8192)

    def test_hyperoctahedral_list(self):
        z3, z5, z7, z9 = (ZetaPoly.gen(m) for m in (3, 5, 7, 9))
        al = alpha_hyperoctahedral(9)
        assert al[0].is_zero() and al[1].is_zero() and al[3].is_zero()
        assert al[2] == z3 / -3
        assert al[4] == z5 / -5
        assert al[5] == z3 * z3 / 18
        assert al[6] == z7 / -7
        assert al[7] == z3 * z5 / 15
        assert al[8] == -(18 * z9 + z3 * z3 * z3) / 162

    def test_low_alphas_vanish_generally(self):
        for n in range(2, 9):
            al = alpha_simplicial(n)
            assert al[0].is_zero()
            if n >= 3:
                assert al[1].is_zero()
            for j, a in enumerate(al, start=1):
                if j % 2 == 0 and j < 6:
                    assert a.is_zero()
        for j, a in enumerate(alpha_hyperoctahedral(9), start=1):
            if j % 2 == 0 and j < 6:
                assert a.is_zero()

    def test_weight_grading(self):
        for al in (alpha_simplicial(7), alpha_hyperoctahedral(9)):
            for j, a in enumerate(al, start=1):
                # homogeneous of weight j (or zero)
                assert a.weights() <= {j}


class TestEvaluateZetaPoly:
    def test_constants(self):
        one = evaluate_zeta_poly(ZetaPoly.const(1), 7, 5)
        assert one.is_exact and one.exact == 1
        zero = evaluate_zeta_poly(alpha_simplicial(4)[1], 7, 5)
        assert zero.is_exact_zero

    def test_alpha3_numeric_cross_route(self):
        val = evaluate_zeta_poly(alpha_simplicial(4)[2], 7, 6)
        want = PadicNum.from_exact(F(-8, 25), 7) * zetap_bernoulli(3, 7, 2)
        assert val.agrees(want, 3)

    def test_answers_past_the_node_cap(self):
        val = evaluate_zeta_poly(ZetaPoly.gen(3) * 2, 5, 60)
        assert val.abs_precision >= 60
        assert val.agrees(zetap(3, 5, 60) * 2, 60)
        with pytest.raises(ValueError):
            evaluate_zeta_poly(ZetaPoly.gen(5), 5, 3)

    @pytest.mark.parametrize("poly, N", [
        (ZetaPoly.const(2), 0), (ZetaPoly.zero(), -3), (ZetaPoly.gen(3), -3)])
    def test_rejects_precision_below_one(self, poly, N):
        # checked first: constant and zero polynomials call no zetap
        with pytest.raises(ValueError, match="N >= 1"):
            evaluate_zeta_poly(poly, 7, N)


class TestGammaRatioCongruence:
    def test_representative_cases(self):
        assert gamma_ratio_congruence_check((1, 1, 0), 1, 5, 2)
        assert gamma_ratio_congruence_check((1, 0, 0), 2, 7, 3)
        assert not gamma_ratio_congruence_check((1, 1, 0), 1, 5, 2,
                                                _corrupt=(1, F(1)))

    def test_small_sweep(self):
        for p in (5, 7):
            for s in (1, 2):
                assert gamma_ratio_congruence_check((1, 1), s, p, 2)
                assert gamma_ratio_congruence_check((2, 1), s, p, 3)
                assert gamma_ratio_congruence_check((1, 1, 1), s, p, 3)

    def test_corruption_detected_everywhere(self):
        for V in [(1, 0), (1, 1), (2, 1)]:
            assert not gamma_ratio_congruence_check(
                V, 1, 7, 3, _corrupt=(1, F(1)))

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_ratio_congruence_check((4, 0), 1, 5, 3)
        with pytest.raises(ValueError):
            gamma_ratio_congruence_check((1, 1), 0, 5, 2)
