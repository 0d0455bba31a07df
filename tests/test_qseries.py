import random
from fractions import Fraction

import pytest

from padicfrob import qseries
from padicfrob.padic_core import PadicNum
from padicfrob.qseries import (
    BadConstantTerm,
    LogSeries,
    NonUnitConstantTerm,
    PowerSeries,
)
from padicfrob.zeta_gamma import ZetaPoly

F = Fraction


def poly(*cs, order=16):
    return PowerSeries(list(cs), order)


def rand_series(rng, order, lo=-9, hi=9, unit=False):
    cs = [F(rng.randint(lo, hi)) for _ in range(order)]
    if unit:
        cs[0] = F(rng.choice([1, -1, 2, 3]))
    return PowerSeries(cs, order)


class TestPowerSeriesRing:
    def test_add_sub_mul(self):
        a = poly(1, 2, 3)
        b = poly(4, 0, -1)
        assert (a + b).coeffs == [5, 2, 2]
        assert (a - b).coeffs == [-3, 2, 4]
        c = a * b
        # (1+2t+3t^2)(4-t^2) = 4+8t+11t^2-2t^3-3t^4
        assert [c.known(k) for k in range(5)] == [4, 8, 11, -2, -3]

    def test_truncation_takes_min_order(self):
        a = PowerSeries([1, 1, 1], 10)
        b = PowerSeries([1, 1], 3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_scalar_ops(self):
        a = poly(1, 2)
        assert (3 * a).coeffs == [3, 6]
        assert (a + 5).known(0) == 6
        assert (1 - a).coeffs == [0, -2]
        assert (a / 2).coeffs == [F(1, 2), 1]

    def test_pow(self):
        t = PowerSeries.identity(8)
        cube = (1 + t) ** 3
        assert [cube.known(k) for k in range(4)] == [1, 3, 3, 1]

    def test_commutative_ring_laws_random(self):
        rng = random.Random(20240901)
        for _ in range(60):
            order = rng.randint(2, 9)
            a = rand_series(rng, order)
            b = rand_series(rng, order)
            c = rand_series(rng, order)
            assert (a * b) == (b * a)
            assert ((a + b) * c) == (a * c + b * c)
            assert ((a * b) * c) == (a * (b * c))


class TestInvertExpLog:
    def test_invert_known_expansion(self):
        # 1/(2+t) = 1/2 - t/4 + t^2/8 - t^3/16 + ...
        inv = poly(2, 1, order=6).invert()
        assert inv.coeffs == [F(1, 2), F(-1, 4), F(1, 8),
                              F(-1, 16), F(1, 32), F(-1, 64)]

    def test_invert_needs_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            poly(0, 1).invert()

    def test_invert_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(40):
            order = rng.randint(2, 10)
            f = rand_series(rng, order, unit=True)
            assert f * f.invert() == PowerSeries.one(order)

    def test_series_division_random(self):
        rng = random.Random(13)
        for _ in range(20):
            order = rng.randint(2, 10)
            a = rand_series(rng, order)
            b = rand_series(rng, order, unit=True)
            assert (a / b) * b == a

    def test_geometric_series(self):
        t = PowerSeries.identity(10)
        g = (1 - t).invert()
        assert all(g.known(k) == 1 for k in range(10))

    def test_exp_log_roundtrip(self):
        rng = random.Random(99)
        for _ in range(30):
            order = rng.randint(2, 9)
            f = rand_series(rng, order)
            f = f - f.constant_term()
            assert f.exp().log() == f
            g = 1 + (f - f.constant_term())
            assert g.log().exp() == g

    def test_exp_additivity(self):
        rng = random.Random(5)
        for _ in range(20):
            order = rng.randint(2, 8)
            f = rand_series(rng, order)
            g = rand_series(rng, order)
            f = f - f.constant_term()
            g = g - g.constant_term()
            assert (f + g).exp() == f.exp() * g.exp()

    def test_exp_of_t(self):
        t = PowerSeries.identity(7)
        e = t.exp()
        assert e.known(5) == F(1, 120)

    def test_domain_guards(self):
        with pytest.raises(BadConstantTerm):
            poly(1, 1).exp()
        with pytest.raises(BadConstantTerm):
            poly(2, 1).log()

    @pytest.mark.parametrize("coeff", [
        PadicNum.from_rational(F(1, 2), 5, 8), ZetaPoly.gen(3), 0.5, True])
    def test_other_coefficients_rejected(self, coeff):
        with pytest.raises(TypeError, match="int or Fraction"):
            PowerSeries([1, coeff], 4)
        with pytest.raises(TypeError, match="int or a Fraction"):
            PowerSeries([1, 1], 4).scale_argument(coeff)


class TestReindexing:
    def test_substitute_tp_basic(self):
        f = PowerSeries([1, 1], 4)
        g = f.substitute_tp(5)
        assert g.order == 20
        assert g.known(0) == 1 and g.known(5) == 1
        assert all(g.known(k) == 0 for k in range(20) if k not in (0, 5))

    def test_substitute_is_ring_morphism(self):
        rng = random.Random(11)
        for _ in range(25):
            order = rng.randint(2, 7)
            p = rng.choice([2, 3, 5])
            a = rand_series(rng, order)
            b = rand_series(rng, order)
            assert (a * b).substitute_tp(p) == \
                a.substitute_tp(p) * b.substitute_tp(p)
            assert (a + b).substitute_tp(p) == \
                a.substitute_tp(p) + b.substitute_tp(p)

    def test_theta_after_substitution(self):
        # theta(f(t^p)) = p * (theta f)(t^p)
        rng = random.Random(13)
        for _ in range(25):
            order = rng.randint(2, 7)
            p = rng.choice([2, 3, 7])
            f = rand_series(rng, order)
            assert f.substitute_tp(p).theta() == \
                p * f.theta().substitute_tp(p)

    def test_scale_argument(self):
        f = poly(1, 1, 1, order=3)
        g = f.scale_argument(2)
        assert g.coeffs == [1, 2, 4]

    def test_shift(self):
        f = poly(3, 1, order=4)
        g = f.shift(2)
        assert g.order == 6
        assert [g.known(k) for k in range(4)] == [0, 0, 3, 1]


class TestTheta:
    def test_theta_monomials(self):
        f = PowerSeries([0, 0, 0, 4], 8)
        assert f.theta().coeffs == [0, 0, 0, 12]

    def test_theta_derivation_random(self):
        rng = random.Random(17)
        for _ in range(30):
            order = rng.randint(2, 8)
            a = rand_series(rng, order)
            b = rand_series(rng, order)
            assert (a * b).theta() == a.theta() * b + a * b.theta()


class TestLogSeries:
    def test_theta_drops_log_power(self):
        order = 8
        one = PowerSeries.one(order)
        zero = PowerSeries.zero(order)
        # l^2 |--> 2 l
        s = LogSeries([zero, zero, one])
        ts = s.theta()
        assert ts.component(1) == 2 * one
        assert ts.component(0).is_zero()
        assert ts.component(2).is_zero()

    def test_theta_product_rule(self):
        rng = random.Random(23)
        for _ in range(20):
            order = rng.randint(2, 6)
            a = LogSeries([rand_series(rng, order)
                           for _ in range(rng.randint(1, 3))])
            b = LogSeries([rand_series(rng, order)
                           for _ in range(rng.randint(1, 3))])
            lhs = (a * b).theta()
            rhs = a.theta() * b + a * b.theta()
            assert lhs.eq_mod(rhs, order)

    def test_log_degrees_add(self):
        order = 5
        one = PowerSeries.one(order)
        a = LogSeries([PowerSeries.zero(order), one])
        b = LogSeries([PowerSeries.zero(order), 2 * one])
        c = a * b
        assert len(c.coeffs) == 3
        assert c.component(2) == 2 * one

    def test_substitute_tp_scales_log(self):
        # log(t^p) = p log t
        order, p = 4, 3
        one = PowerSeries.one(order)
        ell = LogSeries([PowerSeries.zero(order), one])
        s = ell.substitute_tp(p)
        assert s.component(1) == PowerSeries([3], 12)
        # theta commutes up to the factor p on LogSeries too
        rng = random.Random(29)
        for _ in range(15):
            a = LogSeries([rand_series(rng, order)
                           for _ in range(rng.randint(1, 3))])
            lhs = a.substitute_tp(p).theta()
            rhs = p * a.theta().substitute_tp(p)
            assert lhs.eq_mod(rhs, order * p)

    def test_series_times_logseries_dispatch(self):
        order = 6
        f = poly(1, 2, order=order)
        s = LogSeries([poly(0, 1, order=order), poly(3, order=order)])
        left = f * s
        right = s * f
        assert isinstance(left, LogSeries)
        assert left.eq_mod(right, order)
        assert left.component(1) == poly(3, 6, order=order)


class TestProductKernel:
    @pytest.fixture
    def convolved(self, monkeypatch):
        """The coefficient lists each series product convolves."""
        calls = []
        real = qseries._convolve
        monkeypatch.setattr(qseries, "_convolve", lambda a, b, order:
                            calls.append(a + b) or real(a, b, order))
        return calls

    def test_rational_products_convolve_integers(self, convolved):
        a = PowerSeries([1, F(1, 2), 3], 5)
        b = PowerSeries([F(2, 3), -1], 4)
        assert (a * b).coeffs == [F(2, 3), F(-2, 3), F(3, 2), -3]
        assert (PowerSeries([2, 0, 3], 4) * a).coeffs == [2, 1, 9, F(3, 2)]
        assert len(convolved) == 2
        assert all(type(x) is int for c in convolved for x in c)
