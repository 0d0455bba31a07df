"""End-to-end acceptance suite.

One test per acceptance criterion, each running the full pipeline at
desk scale with the stated tolerances and runtime budgets, so that
``pytest -v`` emits a single pass/fail line per criterion.
"""

import math
import random
import time
from fractions import Fraction

from padicfrob import cli
from padicfrob.expansion import alternating_identity_check
from padicfrob.frobenius import (
    analytic_bound,
    check_analytic,
    check_integrality,
    recover_alpha,
    solve_A_series,
)
from padicfrob.mum import (
    KNOWN_HYPEROCT_OPERATORS,
    guess_operator,
    period_series_hyperoctahedral,
    simplicial_operator,
)
from padicfrob.padic_core import PadicNum
from padicfrob.qseries import PowerSeries
from padicfrob.zeta_gamma import (
    ZetaPoly,
    alpha_hyperoctahedral,
    alpha_simplicial,
    evaluate_zeta_poly,
)

from combinatorics import hyperoct_constant_term

F = Fraction
CHECKS = {name: (fn, full) for name, fn, _, full in cli.SELFTEST_CHECKS}


def _run_full(*names):
    """Run selftest checks on their full inputs."""
    for name in names:
        fn, full = CHECKS[name]
        ok, detail = fn(**full)
        assert ok, "%s: %s" % (name, detail)


def test_criterion_1_symbolic_alpha_exact():
    # closed-form constants reproduce the displayed values exactly in
    # the polynomial ring over Q generated by the odd zeta symbols
    t0 = time.monotonic()
    z3, z5, z7, z9 = (ZetaPoly.gen(m) for m in (3, 5, 7, 9))
    for n, c in {4: F(-8, 25), 5: F(-35, 108),
                 6: F(-16, 49), 7: F(-21, 64)}.items():
        assert alpha_simplicial(n)[2] == z3 * c, "alpha_3 at n=%d" % n
    assert alpha_simplicial(6)[4] == z5 * F(-480, 2401)
    assert alpha_simplicial(7)[4] == z5 * F(-819, 4096)
    assert alpha_simplicial(7)[5] == z3 * z3 * F(441, 8192)
    al = alpha_hyperoctahedral(9)
    assert al[0].is_zero() and al[1].is_zero() and al[3].is_zero()
    assert al[2] == z3 / -3
    assert al[4] == z5 / -5
    assert al[5] == z3 * z3 / 18
    assert al[6] == z7 / -7
    assert al[7] == z3 * z5 / 15
    assert al[8] == -(18 * z9 + z3 * z3 * z3) / 162
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_zetap_values_dual_route():
    # even zeta values vanish at p = 5, 7; the Bernoulli-limit and the
    # interpolation routes agree mod p^3 wherever both apply, at
    # p = 5, 7, 11 and m = 3, 5 with m < p - 1
    t0 = time.monotonic()
    _run_full("zeta-even-vanishes", "zeta-dual-route")
    assert time.monotonic() - t0 < 60.0


def test_criterion_3_gamma_ratio_congruences():
    # exact Gamma_p products against the zeta-polynomial Taylor route,
    # at modulus p^((s+1) n) across the full (n, p, s, V) grid
    t0 = time.monotonic()
    _run_full("gamma-ratio-congruence")
    assert time.monotonic() - t0 < 120.0


def test_criterion_4_simplicial_integrality_desk_scale():
    # simplicial n=4 at p=7, t-order 70, precision 12: the solved
    # coefficients are integral at the closed-form constants, and
    # corrupting alpha_1 surfaces a coefficient of valuation <= -1
    # within the same t-order.  The slot series of alpha_3 is itself
    # p-integral, so integrality cannot see a corrupted alpha_3; the
    # analytic condition mod p (D^e(1) A_j of degree <= deg(1), see
    # analytic_bound) holds at the closed forms and must fail for
    # alpha_3 + 1 and for alpha_3 = 0 within the same t-order
    t0 = time.monotonic()
    p, M, N = 7, 70, 12
    dec = solve_A_series(simplicial_operator(4), p, M)
    alphas = [evaluate_zeta_poly(a, p, N) for a in alpha_simplicial(4)]
    report = check_integrality(dec, alphas, M)
    assert report.verdict == "integral", report.first_failing
    assert report.min_valuation >= 0
    rep = check_integrality(dec, [alphas[0] + 1] + alphas[1:], M)
    assert rep.verdict == "non-integral" and rep.min_valuation <= -1, \
        "alpha_1 + 1 stayed %s with min valuation %s" \
        % (rep.verdict, rep.min_valuation)
    good = check_analytic(dec, alphas, M, 1)
    assert good.verdict == "analytic" and good.rows > 0, good.first_failing
    for tag, a3 in (("alpha_3 + 1", alphas[2] + 1),
                    ("alpha_3 = 0", PadicNum.from_exact(0, p))):
        rep = check_analytic(dec, alphas[:2] + [a3], M, 1)
        assert rep.verdict == "non-analytic", \
            "%s satisfied the analytic condition mod %d within t-order %d" \
            % (tag, p, M)
    assert time.monotonic() - t0 < 600.0


def test_criterion_5_hyperoct_integrality_desk_scale():
    # hyperoctahedral n=4: operator recovered by guessing bit-identical
    # to the tabulated one; integrality holds at alpha_3 = -zeta_7(3)/3
    # and fails at alpha_1 + 1; the analytic condition mod p holds
    # there and must fail at alpha_3 + 1 and at alpha_3 = 0, which
    # integrality cannot see (see criterion 4)
    t0 = time.monotonic()
    p, M, N = 7, 70, 12
    g = guess_operator(period_series_hyperoctahedral(4, 35), 4, 4)
    assert g == KNOWN_HYPEROCT_OPERATORS[4]
    dec = solve_A_series(g, p, M)
    polys = alpha_hyperoctahedral(3)
    assert polys[2] == ZetaPoly.gen(3) / -3
    alphas = [evaluate_zeta_poly(a, p, N) for a in polys]
    report = check_integrality(dec, alphas, M)
    assert report.verdict == "integral", report.first_failing
    assert report.min_valuation >= 0
    rep = check_integrality(dec, [alphas[0] + 1] + alphas[1:], M)
    assert rep.verdict == "non-integral" and rep.min_valuation <= -1, \
        "alpha_1 + 1 stayed %s with min valuation %s" \
        % (rep.verdict, rep.min_valuation)
    good = check_analytic(dec, alphas, M, 1)
    assert good.verdict == "analytic" and good.rows > 0, good.first_failing
    for tag, a3 in (("alpha_3 + 1", alphas[2] + 1),
                    ("alpha_3 = 0", PadicNum.from_exact(0, p))):
        rep = check_analytic(dec, alphas[:2] + [a3], M, 1)
        assert rep.verdict == "non-analytic", \
            "%s satisfied the analytic condition mod %d within t-order %d" \
            % (tag, p, M)
    assert time.monotonic() - t0 < 600.0


def test_criterion_6_alpha_recovery():
    # recovery at p=7 on both n=4 families from integrality plus the
    # analytic rows mod p, p^2 and p^3: the coset must contain the
    # closed forms mod 7^e with e >= 3, pin alpha_1 and alpha_2 to zero
    # and pin alpha_3 to its closed form.  Integrality alone leaves
    # alpha_2 and alpha_3 free.  The rows mod p^3 are [t^m] D^e(3) A_j
    # for deg(3) < m < M, so M = deg(3) + 2 is the smallest t-order
    # with a mod-p^3 row; t-order 70 is below deg(3) for both families
    p, N = 7, 12
    for family, L in (("simplicial", simplicial_operator(4)),
                      ("hyperoctahedral", KNOWN_HYPEROCT_OPERATORS[4])):
        M = analytic_bound(L, p, 3)[1] + 2
        dec = solve_A_series(L, p, M)
        sol = recover_alpha(dec, M, analytic_digits=3)
        polys = alpha_simplicial(4) if family == "simplicial" \
            else alpha_hyperoctahedral(3)
        closed = [evaluate_zeta_poly(a, p, max(N, sol.modulus_exponent + 2))
                  for a in polys]
        for j in range(3):
            e = sol.exponents[j]
            if e > 0:
                assert closed[j].agrees(sol.representative[j] % p ** e, e), \
                    "%s: closed form alpha_%d outside the coset" \
                    % (family, j + 1)
        e1 = sol.exponents[0]
        assert e1 >= 1 and sol.representative[0] % p ** e1 == 0, \
            "%s: alpha_1 not pinned to 0" % family
        assert sol.modulus_exponent >= 3, \
            "%s: coset modulus exponent %d, expected >= 3" \
            % (family, sol.modulus_exponent)
        e2 = sol.exponents[1]
        assert e2 >= 1 and sol.representative[1] % p ** e2 == 0, \
            "%s: alpha_2 unconstrained (exponent %d), expected pinned to 0" \
            % (family, e2)
        assert sol.exponents[2] >= 1, \
            "%s: alpha_3 unconstrained, expected pinned to its closed " \
            "form" % family


def test_criterion_7_operator_guessing_and_annihilation():
    # tabulated operators reproduced integer for integer from their
    # period series (n = 4, 5); every family operator annihilates its
    # period series through t^60 (n = 2..5)
    _run_full("guess-matches-printed", "operators-annihilate-periods")


def test_criterion_8_oracle_suites():
    # brute-force expansion equivalences
    t0 = time.monotonic()
    ok, detail = cli._check_expansion_oracle(
        Vs=cli._all_v(3, 2), Us=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        Ns=(1, 2, 3), order=20)
    assert ok, detail
    assert time.monotonic() - t0 < 60.0

    # alternating identity on 50 seeded random unit series
    t0 = time.monotonic()
    rng = random.Random(20240824)
    for trial in range(50):
        n = rng.randint(1, 6)
        coeffs = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(n + 3)]
        assert alternating_identity_check(PowerSeries(coeffs, n + 4), n), \
            "trial %d (n=%d)" % (trial, n)
    assert time.monotonic() - t0 < 60.0

    # theta F_0 = 2n F_(1,0,...,0) through t^20
    t0 = time.monotonic()
    for n in (2, 3, 4):
        F0 = hyperoct_constant_term((0,) * n, n, 21).series
        F1 = hyperoct_constant_term((1,) + (0,) * (n - 1), n, 21).series
        th = F0.theta()
        assert all(th.known(c) == 2 * n * F1.known(c) for c in range(21)), n
    assert time.monotonic() - t0 < 60.0

    # mu_{u,j}(0) table: permutations of j ones carry (n-j)!/(2^j n!)
    t0 = time.monotonic()
    cases = [(u, j, n, F(math.factorial(n - j), 2 ** j * math.factorial(n))
              if u.count(1) == j and max(u) <= 1 else F(0))
             for n in range(2, 6) for u in cli._all_v(n, n - 1)
             for j in range(sum(u) + 1)]
    ok, detail = cli._check_mu_values(cases)
    assert ok, detail
    assert time.monotonic() - t0 < 60.0


def test_criterion_9_nonuniqueness_witness():
    # an order-2 operator with unit Wronskian admits a one-parameter
    # family of solution-preserving twists (lambda = 1, 2 at p = 5, M = 40)
    _run_full("nonuniqueness-witness")
