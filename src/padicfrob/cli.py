"""Command-line front end for the p-adic Frobenius toolkit.

Subcommands
-----------
alpha     print the closed-form structure constants, symbolically and,
          when a prime is supplied, numerically.
verify    solve for the Frobenius decomposition of a family operator
          and run the coefficient integrality check at the closed-form
          constants.
recover   solve the integrality congruence system for the constants and
          compare the recovered coset with the closed forms.
guess     reconstruct the annihilating operator of a period series and
          diff it against the tabulated reference operators.
selftest  run the cross-validation suites: three-route zeta values,
          gamma-ratio congruences, brute-force expansion oracles,
          combinatorial identities, integrality checks, and negative
          controls with deliberately corrupted constants.

Exit codes form a stable contract: 0 success, 1 a check failed, 2 usage
or configuration error, 3 precision exhausted, 4 inconsistent congruence
system, 5 no operator found.

JSON output is emitted with sorted keys and no timing data, so a fixed
configuration and seed produce byte-identical bytes on every run.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from typing import Callable

from .expansion import (
    alternating_identity_check,
    brute_force_expand,
    mu_at_zero,
    simplicial_coeff_series,
    to_laurent,
)
from .frobenius import (
    PrecisionExhausted,
    _fork_map,
    _spare_core,
    check_integrality,
    integrality_digits,
    nonuniqueness_witness,
    recover_alpha,
    solve_A_series,
    verify_frobenius_property,
)
from .mum import (
    GUESS_GUARD,
    KNOWN_HYPEROCT_OPERATORS,
    AmbiguousNullspace,
    MumOperator,
    NoOperatorFound,
    apply_operator,
    guess_operator,
    period_series_hyperoctahedral,
    period_series_simplicial,
    simplicial_operator,
)
from .padic_core import (
    InconsistentSystem,
    PadicNum,
    _Record,
    require_odd_prime,
)
from .qseries import PowerSeries
from .zeta_gamma import (
    alpha_hyperoctahedral,
    alpha_simplicial,
    evaluate_zeta_poly,
    gamma_ratio_congruence_check,
    zetap,
    zetap_bernoulli,
    zetap_interpolated,
)

DEFAULT_P = 7
DEFAULT_PRECISION = 12
DEFAULT_SEED = 0
DEFAULT_JMAX = 9

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INCONSISTENT = 4
EXIT_NO_OPERATOR = 5


class UsageError(Exception):
    """Invalid configuration; maps to exit code 2."""


class Family(_Record):
    """What the CLI knows of a family, each entry a function of the
    order n: the MUM operator, the period series mod t^M, the step g of
    the lattice t^g it lives on, the symbolic closed-form
    alpha_1..alpha_{n-1}, and the bound p must exceed."""

    def __init__(self, operator: Callable, series: Callable,
                 step: Callable, alphas: Callable, bound: Callable):
        self.operator = operator
        self.series = series
        self.step = step
        self.alphas = alphas
        self.bound = bound


# The one place that knows the families.  Entries look their functions
# up when called, so a name rebound on this module is the one that runs.
FAMILIES = {
    "simplicial": Family(
        operator=lambda n: simplicial_operator(n),
        series=lambda n, M: period_series_simplicial(n, M),
        step=lambda n: n + 1,
        alphas=lambda n: alpha_simplicial(n),
        bound=lambda n: n + 1),
    "hyperoctahedral": Family(
        operator=lambda n: KNOWN_HYPEROCT_OPERATORS.get(n)
        or _guess_family("hyperoctahedral", n)[0],
        series=lambda n, M: period_series_hyperoctahedral(n, M),
        step=lambda n: 2,
        alphas=lambda n: alpha_hyperoctahedral(n - 1),
        bound=lambda n: n),
}


def _check_family_prime(family: str, n: int, p: int):
    require_odd_prime(p)
    bound = FAMILIES[family].bound(n)
    if p <= bound:
        raise UsageError("need p > %d for the %s family at n = %d"
                         % (bound, family, n))


def _family(args, allow_file: bool = False) -> str:
    fam = args.family
    if fam is None:
        raise UsageError("--family is required")
    if fam == "file" and not allow_file:
        raise UsageError("--family file is only valid for guess")
    return fam


def _order(n, missing: str = "--n is required", least: int = 2) -> int:
    """An operator order n: present and at least ``least``."""
    if n is None:
        raise UsageError(missing)
    if n < least:
        raise UsageError("need n >= %d" % least)
    return n


def _closed_forms(polys: list, p: int, N: int) -> list:
    """The closed-form alphas, each zeta polynomial evaluated mod p^N."""
    return [evaluate_zeta_poly(poly, p, N) for poly in polys]


def _guess_family(family: str, n: int):
    """(operator, degree) guessed from the family's period series, known
    far enough for the sweep to reach coefficient degree 2n + 2."""
    fam = FAMILIES[family]
    g = fam.step(n)
    need = (n + 1) * ((2 * n + 2) // g + 1) + GUESS_GUARD
    return _guess_sweep(fam.series(n, g * need), n)


def _guess_sweep(f: PowerSeries, n: int):
    """(operator, coefficient degree) of the least-degree order-n
    annihilator of f, fitted on the lattice t^g that f lives on: g is
    the gcd of f's nonzero degrees (1 when there is none but 0), and
    G(T) = f(T^(1/g)) is fitted at T-degree d = 0, 1, ... on need(d)
    terms while it is known that far.  The operator must then kill
    every known coefficient of f.  Raises NoOperatorFound when it does
    not or when no fit answers, AmbiguousNullspace when a fit leaves
    more than one candidate, and UsageError when f is too short for
    the fit at T-degree 1, since one of degree 0 kills only polynomials.
    """
    def need(d):
        return (n + 1) * (d + 1) + GUESS_GUARD

    g = math.gcd(*(m for m, x in enumerate(f.coeffs) if x)) or 1
    G = PowerSeries(f.coeffs[::g], -(-f.order // g))
    d = 0
    while G.order >= need(d):
        try:
            op = guess_operator(G, n, d)
        except NoOperatorFound:
            d += 1
            continue
        except AmbiguousNullspace as exc:
            raise AmbiguousNullspace(
                "no unique order-%d annihilator: at coefficient degree %d, "
                "%d equations leave %s" % (n, g * d, need(d), exc))
        # theta_t = g theta_T, so a_{i,k} theta_T^i T^k is
        # g^(n-i) a_{i,k} theta_t^i t^(gk); D(0) = 1 keeps the content 1
        coeffs = [[0] * (g * len(c)) for c in op.coeffs]
        for i, c in enumerate(op.coeffs):
            coeffs[i][::g] = [g ** (n - i) * x for x in c]
        op = MumOperator(coeffs)
        image = apply_operator(op, f).coeffs
        bad = next((m for m, x in enumerate(image) if x), None)
        if bad is not None:
            raise NoOperatorFound(
                "no annihilator: the degree-%d operator fitted mod t^%d "
                "leaves a nonzero t^%d term" % (g * d, g * need(d), bad))
        return op, g * d
    if d < 2:
        raise UsageError(
            "series known mod t^%d is too short to guess an order-%d "
            "operator: the fit at coefficient degree %d needs t^%d"
            % (f.order, n, g, g * need(1)))
    raise NoOperatorFound("no order-%d annihilator with coefficient degree "
                          "<= %d" % (n, g * (d - 1)))


def _padic_view(v: PadicNum):
    """(JSON payload, table text) of a p-adic value."""
    if v.is_exact:
        return {"exact": str(v.exact)}, "%s (exact)" % v.exact
    k = int(v.abs_precision)
    return ({"precision": k, "residue": v.residue(k)},
            "%d + O(%d^%d)" % (v.residue(k), v.p, k))


def _emit(args, payload: dict, lines: list):
    print(json.dumps(payload, sort_keys=True) if args.format == "json"
          else "\n".join(lines))


# -- alpha --------------------------------------------------------------


def cmd_alpha(args) -> int:
    family = _family(args)
    if family == "simplicial":
        if args.jmax is not None:
            raise UsageError("--jmax applies to the hyperoctahedral family")
        n = _order(args.n, "--n is required for the simplicial family")
        head = "family: simplicial, n = %d" % n
        payload = {"family": family, "n": n}
    else:
        if args.jmax is not None:
            J = args.jmax
        elif args.n is not None:
            J = _order(args.n) - 1
        else:
            J = DEFAULT_JMAX
        if J < 1:
            raise UsageError("need jmax >= 1")
        n = J + 1  # the order whose constants are alpha_1..alpha_J
        if args.n is not None and args.n != n:
            raise UsageError("--n %d and --jmax %d disagree: alpha_1..alpha_%d"
                             " belong to n = %d" % (args.n, J, J, n))
        head = "family: hyperoctahedral, jmax = %d" % J
        payload = {"family": family, "jmax": J}
    polys = FAMILIES[family].alphas(n)

    numeric = [None] * len(polys)
    N = _precision(args)
    if args.p is not None:
        p = args.p
        _check_family_prime(family, n, p)
        numeric = _closed_forms(polys, p, N)
        head += ", p = %d, precision %d" % (p, N)
        payload.update(p=p, precision=N)

    rows, lines = [], [head]
    for j, (poly, v) in enumerate(zip(polys, numeric), 1):
        rows.append({"j": j, "symbolic": poly.format()})
        lines.append("alpha_%d = %s" % (j, poly.format()))
        if v is not None:
            rows[-1]["numeric"], text = _padic_view(v)
            lines[-1] += " = %s" % text
    payload["alphas"] = rows
    _emit(args, payload, lines)
    return EXIT_OK


# -- verify -------------------------------------------------------------


def _perturb(text: str, alphas: list, p: int) -> str:
    """Move one alpha in place by a --perturb value (alphaJ: shift by
    +1, alphaJ=RATIONAL: set to it); the note that names the move."""
    m = re.fullmatch(r"alpha(\d+)(?:=(-?\d+(?:/\d+)?))?", text)
    if not m:
        raise UsageError("--perturb takes alphaJ or alphaJ=RATIONAL, "
                         "got %r" % text)
    j = int(m.group(1))
    if not 1 <= j <= len(alphas):
        raise UsageError("alpha_%d out of range 1..%d" % (j, len(alphas)))
    if m.group(2) is None:
        alphas[j - 1] = alphas[j - 1] + 1
        return "alpha_%d shifted by +1" % j
    try:
        value = Fraction(m.group(2))
    except ZeroDivisionError:
        raise UsageError("--perturb %s: zero denominator" % text) from None
    alphas[j - 1] = PadicNum.from_exact(value, p)
    return "alpha_%d set to %s" % (j, value)


def _family_job(args):
    """family, n, p, M and N of a verify or recover job."""
    family = _family(args)
    n = _order(args.n)
    p = args.p if args.p is not None else DEFAULT_P
    _check_family_prime(family, n, p)
    M = args.t_order if args.t_order is not None else 10 * p
    if M < 1:
        raise UsageError("need t-order >= 1")
    return family, n, p, M, _precision(args)


def _precision(args) -> int:
    """The job's --precision N, DEFAULT_PRECISION if absent; N < 1 is a
    usage error even where no --p reads it."""
    N = args.precision if args.precision is not None else DEFAULT_PRECISION
    if N < 1:
        raise UsageError("need precision >= 1")
    return N


def _decide(consume, L, p: int, M: int, digits: int):
    """consume(dec) on the fixed-precision solve at ``digits``.  Where
    those digits fall short of the exact answer (PrecisionExhausted),
    on the exact solve, which builds its own exact basis and answers or
    raises as it always did."""
    try:
        return consume(solve_A_series(L, p, M, digits=digits))
    except PrecisionExhausted:
        return consume(solve_A_series(L, p, M))


def _integrality(family: str, n: int, p: int, M: int, N: int,
                 perturb=None):
    """(report, note): check_integrality mod t^M of the family's
    decomposition at its closed-form constants mod p^N, one of them
    moved by a --perturb value; note names the constants."""
    L = FAMILIES[family].operator(n)
    alphas = _closed_forms(FAMILIES[family].alphas(n), p, N)
    note = (_perturb(perturb, alphas, p) if perturb
            else "closed-form constants")
    report = _decide(lambda dec: check_integrality(dec, alphas, M),
                     L, p, M, integrality_digits(alphas, N))
    return report, note


def cmd_verify(args) -> int:
    family, n, p, M, N = _family_job(args)
    report, note = _integrality(family, n, p, M, N, args.perturb)
    lines = ["family: %s, n = %d, p = %d, t-order %d, precision %d"
             % (family, n, p, M, N),
             "constants: %s" % note,
             "verdict: %s" % report.verdict,
             "minimum coefficient valuation: %s" % report.min_valuation]
    if report.first_failing is not None:
        j, m, val = report.first_failing
        lines.append("first failing coefficient: A_%d at t^%d "
                     "(valuation %d)" % (j, m, val))
    print(report.to_json() if args.format == "json" else "\n".join(lines))
    return EXIT_OK if report.verdict == "integral" else EXIT_CHECK_FAILED


# -- recover ------------------------------------------------------------


def cmd_recover(args) -> int:
    family, n, p, M, N = _family_job(args)
    L = FAMILIES[family].operator(n)
    # the congruence rows read slot values mod Z_p; N digits also tell
    # every slot coefficient of valuation below N from zero
    sol = _decide(lambda dec: recover_alpha(dec, M), L, p, M, N)
    polys = FAMILIES[family].alphas(n)
    closed = _closed_forms(polys, p, max(N, sol.modulus_exponent + 2))

    rows = []
    lines = ["family: %s, n = %d, p = %d, t-order %d"
             % (family, n, p, M),
             "congruence lattice modulus exponent: %d"
             % sol.modulus_exponent]
    for j in range(1, len(polys) + 1):
        e = sol.exponents[j - 1]
        if e <= 0:
            rows.append({"j": j, "exponent": 0, "match": None})
            lines.append("alpha_%d unconstrained by integrality" % j)
            continue
        rep = sol.representative[j - 1] % p ** e
        match = bool(closed[j - 1].agrees(rep, e))
        rows.append({"j": j, "exponent": e, "match": match, "residue": rep})
        lines.append("alpha_%d = %d (mod %d^%d)  closed form %s: %s"
                     % (j, rep, p, e, polys[j - 1].format(),
                        "matches" if match else "MISMATCH"))
    payload = {
        "family": family,
        "n": n,
        "prime": p,
        "t_order": M,
        "modulus_exponent": sol.modulus_exponent,
        "representative": list(sol.representative),
        "exponents": list(sol.exponents),
        "generators": [list(g) for g in sol.generators],
        "closed_form": rows,
    }
    _emit(args, payload, lines)
    mismatch = any(row["match"] is False for row in rows)
    return EXIT_CHECK_FAILED if mismatch else EXIT_OK


# -- guess --------------------------------------------------------------


def _series_from_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        if not isinstance(payload["series"], list):
            raise TypeError("not a list")
        if not payload["series"]:
            raise ValueError("the list is empty")
        coeffs = [Fraction(str(x)) for x in payload["series"]]
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError("operator file needs a 'series' list of "
                         "rationals: %s" % exc)
    n = payload.get("n")
    if n is not None and type(n) is not int:
        raise UsageError("operator file's 'n' must be an integer")
    return PowerSeries(coeffs, len(coeffs)), n


def cmd_guess(args) -> int:
    family = _family(args, allow_file=True)
    if family == "file":
        if args.operator_file is None:
            raise UsageError("--family file requires --operator-file")
        f, n_file = _series_from_file(args.operator_file)
        n = _order(args.n if args.n is not None else n_file,
                   "operator file lacks 'n'; pass --n", 1)
        op, d = _guess_sweep(f, n)
        source = "file:%s" % args.operator_file
    else:
        if args.operator_file is not None:
            raise UsageError("--operator-file applies to --family file")
        n = _order(args.n)
        op, d = _guess_family(family, n)
        source = "%s period series" % family

    printed = KNOWN_HYPEROCT_OPERATORS.get(n) \
        if family == "hyperoctahedral" else None
    matches = (op == printed) if printed is not None else None

    payload = {
        "source": source,
        "n": n,
        "degree": d,
        "operator": json.loads(op.to_json()),
        "matches_printed": matches,
    }
    lines = ["guessed from %s" % source,
             "order %d, coefficient degree %d" % (n, d),
             repr(op)]
    if matches is not None:
        lines.append("matches printed operator: %s"
                     % ("yes" if matches else "NO"))
    _emit(args, payload, lines)
    return EXIT_CHECK_FAILED if matches is False else EXIT_OK


# -- selftest -----------------------------------------------------------


def _check_zeta_even(primes):
    for p in primes:
        for m in (2, 4):
            b = zetap_bernoulli(m, p, 2)
            if not b.is_zero() or b.abs_precision < 3:
                return False, "zeta_%d(%d) bernoulli route not 0 mod %d^3" \
                    % (p, m, p)
            for route, z in (("interpolation", zetap_interpolated(m, p, 3)),
                             ("washington", zetap(m, p, 3))):
                if not z.is_exact_zero:
                    return False, "zeta_%d(%d) %s not exact zero" \
                        % (p, m, route)
    return True, ""


def _check_zeta_dual_route(pairs):
    for p, m in pairs:
        a = zetap_bernoulli(m, p, 2)
        b = zetap_interpolated(m, p, 3)
        if not a.agrees(b, 3):
            return False, "routes disagree mod %d^3 at m=%d" % (p, m)
        c = zetap(m, p, 3)
        if not (c.agrees(a, 3) and c.agrees(b, 3)):
            return False, "washington route disagrees mod %d^3 at m=%d" \
                % (p, m)
    return True, ""


def _all_v(length: int, total: int):
    return [v for v in product(range(total + 1), repeat=length)
            if sum(v) <= total]


def _check_gamma_ratio(grid):
    for n, p, s in grid:
        for V in _all_v(n + 1, n):
            if not gamma_ratio_congruence_check(V, s, p, n):
                return False, "failed at V=%s s=%d p=%d n=%d" % (V, s, p, n)
    return True, ""


def _check_gamma_negative():
    ok = gamma_ratio_congruence_check((1, 0, 0), 1, 5, 2,
                                      _corrupt=(1, Fraction(1)))
    if ok:
        return False, "corrupted gamma-ratio congruence went undetected"
    return True, ""


def _check_expansion_oracle(Vs, Us=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
                            Ns=(1, 2), order=18):
    for U in Us:
        for V in Vs:
            for N in Ns:
                want = simplicial_coeff_series(U, V, N, order)
                wU = sum(U)
                target = tuple(N * x for x in to_laurent(V))
                cm = brute_force_expand(
                    "simplicial", wU + 1, (wU, to_laurent(U)),
                    (target, target), order)
                got = cm.coefficient(target) * math.factorial(wU)
                if any(got.known(c) != want.known(c) for c in range(order)):
                    return False, "U=%s V=%s N=%d" % (U, V, N)
    return True, ""


def _check_alternating(rounds, seed):
    rng = random.Random(seed)
    for t in range(rounds):
        n = rng.randint(1, 6)
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(n + 3)]
        if not alternating_identity_check(PowerSeries(coeffs, n + 4), n):
            return False, "round %d (n=%d)" % (t, n)
    return True, ""


def _check_mu_values(cases=(
        ((1, 0, 0), 1, 3, Fraction(1, 6)),
        ((1, 1, 0, 0), 2, 4, Fraction(1, 48)),
        ((2, 0, 0), 2, 3, Fraction(0)),
        ((0, 0, 0, 0), 0, 4, Fraction(1)),
        ((1, 1, 1, 0, 0), 3, 5, Fraction(1, 480)),
        ((1, 1, 0), 1, 3, Fraction(0)))):
    for u, j, n, want in cases:
        if mu_at_zero(u, j, n) != want:
            return False, "mu(%s, %d, %d) != %s" % (u, j, n, want)
    return True, ""


def _check_operators_annihilate(M, ns, hns):
    for family, orders in (("simplicial", ns), ("hyperoctahedral", hns)):
        fam = FAMILIES[family]
        for n in orders:
            if not apply_operator(fam.operator(n), fam.series(n, M)).is_zero():
                return False, "%s n=%d" % (family, n)
    return True, ""


def _check_guess_printed(ns):
    for n in ns:
        op, _ = _guess_family("hyperoctahedral", n)
        if op != KNOWN_HYPEROCT_OPERATORS[n]:
            return False, "guessed operator differs at n=%d" % n
    return True, ""


def _check_integrality(jobs, perturb=None, expect="integral"):
    """The verify job on each (family, n, p, M, N) gives ``expect``."""
    for family, n, p, M, N in jobs:
        report, _ = _integrality(family, n, p, M, N, perturb)
        if report.verdict != expect:
            return False, "%s n=%d verdict %s" % (family, n, report.verdict)
    return True, ""


def _check_frobenius_identity(jobs):
    for family, n, p, M, N in jobs:
        dec = solve_A_series(FAMILIES[family].operator(n), p, M)
        alphas = _closed_forms(FAMILIES[family].alphas(n), p, N)
        if not verify_frobenius_property(dec, alphas, M):
            return False, "%s n=%d defining identity fails" % (family, n)
    return True, ""


def _check_nonuniqueness(lams):
    L = simplicial_operator(2)
    for lam in lams:
        if not nonuniqueness_witness(L, lam, 5, 40):
            return False, "witness fails at lambda=%d" % lam
    return True, ""


SEED = object()  # stands for the run's --seed in an entry's inputs

# (name, check, quick inputs, full inputs), run in this order; the inputs
# both modes share are defaults, unless another entry runs the same
# check on other ones.  check(**inputs) gives (ok, detail).
SELFTEST_CHECKS = [
    ("zeta-even-vanishes", _check_zeta_even,
     {"primes": (5,)}, {"primes": (5, 7)}),
    ("zeta-dual-route", _check_zeta_dual_route,
     {"pairs": ((5, 3), (7, 3))},
     {"pairs": ((5, 3), (7, 3), (7, 5), (11, 3), (11, 5))}),
    ("gamma-ratio-congruence", _check_gamma_ratio,
     {"grid": ((2, 5, 1),)},
     {"grid": tuple(product((2, 3), (5, 7), (1, 2)))}),
    ("gamma-ratio-negative-control", _check_gamma_negative, {}, {}),
    ("expansion-oracle-equivalence", _check_expansion_oracle,
     {"Vs": ((0, 0, 0), (1, 0, 0), (1, 1, 0))},
     {"Vs": ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (2, 0, 0))}),
    ("alternating-identity", _check_alternating,
     {"rounds": 10, "seed": SEED}, {"rounds": 50, "seed": SEED}),
    ("mu-constant-table", _check_mu_values, {}, {}),
    ("operators-annihilate-periods", _check_operators_annihilate,
     {"M": 30, "ns": (2, 3), "hns": (4,)},
     {"M": 60, "ns": (2, 3, 4, 5), "hns": (2, 3, 4, 5)}),
    ("guess-matches-printed", _check_guess_printed,
     {"ns": (4,)}, {"ns": (4, 5)}),
    ("frobenius-integrality", _check_integrality,
     {"jobs": (("simplicial", 2, 5, 30, 8),)},
     {"jobs": (("simplicial", 4, 7, 70, 12),
               ("hyperoctahedral", 4, 7, 70, 12))}),
    ("frobenius-defining-identity", _check_frobenius_identity,
     {"jobs": (("simplicial", 2, 5, 20, 8),)},
     {"jobs": (("simplicial", 3, 5, 25, 8),
               ("hyperoctahedral", 4, 7, 21, 8))}),
    ("integrality-negative-control", _check_integrality,
     {"jobs": (("simplicial", 4, 7, 40, 10),), "perturb": "alpha1",
      "expect": "non-integral"},
     {"jobs": (("simplicial", 4, 7, 40, 10),), "perturb": "alpha1",
      "expect": "non-integral"}),
    ("nonuniqueness-witness", _check_nonuniqueness,
     {"lams": (1,)}, {"lams": (1, 2)}),
]

# cmd_selftest runs SELFTEST_CHECKS[:SELFTEST_SPLIT] and the rest as two
# halves, split where they take about the same time.  Cold full-mode
# halves, each alone in a process (medians of 5, in the benchmark's
# reference-task units; 2-vCPU host, Python 3.11.7): 5.5 and 5.1 split
# here, 4.0 and 6.6 split at 4, 6.3 and 4.1 split at 6
SELFTEST_SPLIT = 5


def _run_checks(entries, quick: bool, seed: int) -> list:
    """(ok, detail, elapsed) of each registry entry, in order; a check
    that raises fails with its exception's type and message."""
    outcomes = []
    for _, fn, quick_inputs, full_inputs in entries:
        inputs = quick_inputs if quick else full_inputs
        start = time.monotonic()
        try:
            ok, detail = fn(**{k: seed if v is SEED else v
                               for k, v in inputs.items()})
        except Exception as exc:
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        outcomes.append((ok, detail, time.monotonic() - start))
    return outcomes


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    mode = "quick" if args.quick else "full"

    def run(entries):
        return _run_checks(entries, args.quick, seed)

    # the checks are independent, so the registry's two halves share two
    # cores where a child can run (SELFTEST_SPLIT balances them)
    halves = [SELFTEST_CHECKS[:SELFTEST_SPLIT],
              SELFTEST_CHECKS[SELFTEST_SPLIT:]]
    parts = _fork_map(run, halves) if _spare_core() else map(run, halves)
    results = []
    lines = []
    failures = 0
    for (name, *_), (ok, detail, elapsed) in zip(
            SELFTEST_CHECKS, [o for part in parts for o in part]):
        results.append({"name": name, "status": "pass" if ok else "fail",
                        "detail": detail})
        if ok:
            lines.append("PASS %s (%.2fs)" % (name, elapsed))
        else:
            failures += 1
            lines.append("FAIL %s: %s (%.2fs)" % (name, detail, elapsed))
    lines.append("%d passed, %d failed (seed %d, %s mode)"
                 % (len(results) - failures, failures, seed, mode))
    payload = {"checks": results, "failures": failures, "seed": seed,
               "mode": mode}
    _emit(args, payload, lines)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- parser -------------------------------------------------------------


# option -> add_argument keywords
OPTIONS = {
    "--family": {"choices": (*FAMILIES, "file")},
    "--n": {"type": int},
    "--p": {"type": int},
    "--t-order": {"type": int,
                  "help": "series truncation order M (default 10p)"},
    "--precision": {"type": int,
                    "help": "p-adic precision N (default %d)"
                            % DEFAULT_PRECISION},
    "--jmax": {"type": int, "help": "number of hyperoctahedral constants"},
    "--perturb": {"help": "alphaJ (shift by +1) or alphaJ=RATIONAL"},
    "--seed": {"type": int,
               "help": "seed for randomized checks (default %d)"
                       % DEFAULT_SEED},
    "--operator-file": {"help": "JSON file with a 'series' list and 'n'"},
    "--quick": {"action": "store_true", "help": "run the reduced check set"},
    "--format": {"choices": ("table", "json")},
}

# (subcommand, help, handler, default --format, options in --help order)
COMMANDS = (
    ("alpha", "closed-form structure constants", cmd_alpha, "table",
     "--family --n --p --precision --jmax --format"),
    ("verify", "coefficient integrality check", cmd_verify, "json",
     "--family --n --p --t-order --precision --perturb --format"),
    ("recover", "solve for the constants by integrality", cmd_recover,
     "table", "--family --n --p --t-order --precision --format"),
    ("guess", "reconstruct the annihilating operator", cmd_guess, "table",
     "--family --n --operator-file --format"),
    ("selftest", "run the cross-validation suites", cmd_selftest, "table",
     "--seed --quick --format"),
)


def build_parser():
    """The argparse grammar of COMMANDS and OPTIONS: the one that prints
    help and usage errors, and parses what _parse_fast declines."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="padicfrob",
        description="p-adic Frobenius structures of Calabi-Yau type "
                    "differential operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, handler, default_format, options in COMMANDS:
        sp = sub.add_parser(name, help=text)
        for option in options.split():
            sp.add_argument(option, **OPTIONS[option])
        sp.set_defaults(format=default_format, func=handler)
    return parser


def _dest(option: str) -> str:
    """The namespace attribute argparse gives a long option."""
    return option[2:].replace("-", "_")


def _parse_fast(argv: list):
    """The namespace build_parser().parse_args(argv) gives, read from the
    same tables, for argv of one strict form: a subcommand, then its
    options spelled in full, each followed by one value that does not
    start with '-' and that the option's type and choices accept
    (--quick takes none).  None for any other argv, which argparse
    parses, or answers with its help or usage error, instead; a valid
    job so never loads argparse."""
    command = next((c for c in COMMANDS if argv and c[0] == argv[0]), None)
    if command is None:
        return None
    name, _, handler, default_format, options = command
    known = {option: OPTIONS[option] for option in options.split()}
    args = {}
    for option, kwargs in known.items():
        if kwargs.keys() - {"type", "choices", "help", "action"} \
                or kwargs.get("action", "store_true") != "store_true":
            return None   # keywords this path does not read
        args[_dest(option)] = False if "action" in kwargs else None
    args.update(command=name, format=default_format, func=handler)
    rest = iter(argv[1:])
    for option in rest:
        kwargs = known.get(option)
        if kwargs is None:
            return None
        if "action" in kwargs:
            args[_dest(option)] = True
            continue
        text = next(rest, "-")   # a missing value is refused as a dash
        if text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):   # argparse's usage error to print
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        args[_dest(option)] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_fast(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        print("error: precision exhausted: %s" % exc, file=sys.stderr)
        return EXIT_PRECISION
    except InconsistentSystem as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    except (NoOperatorFound, AmbiguousNullspace) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NO_OPERATOR
    # last, as PrecisionExhausted and NoOperatorFound are ArithmeticErrors
    except (UsageError, OSError, ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
