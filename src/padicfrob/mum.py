"""MUM-type differential operators in theta form, their standard
log-basis of solutions, period series, and minimal-operator guessing.

An operator is L = sum_i a_i(t) theta^i with integer polynomial
coefficients, theta = t d/dt.  MUM normalization means the monic form
theta^n + sum (a_i/a_n) theta^i has all lower coefficients vanishing at
t = 0, i.e. a_i(0) = 0 for i < n and a_n(0) != 0.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

from .padic_core import (
    INFINITY,
    BadPrime,
    _echelon_mod,
    _inverses,
    _Record,
    is_prime,
    vp,
)
from .qseries import LogSeries, PowerSeries


class NotMUM(ValueError):
    """Operator violates the MUM normalization at t = 0."""


class NoOperatorFound(ArithmeticError):
    """No order-n, degree-d annihilator with D(0) = 1 exists."""


class AmbiguousNullspace(ArithmeticError):
    """More than one candidate annihilator; raise M or lower d."""


def _strip(poly: Sequence[int]) -> list:
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


class MumOperator(_Record):
    """L = sum_i coeffs[i](t) theta^i, coeffs[i] the ints of t^0, t^1, ..."""

    def __init__(self, coeffs: list):
        if any(type(x) is not int for c in coeffs for x in c):
            raise TypeError("MumOperator coefficients must be ints")
        self.coeffs = [_strip(c) for c in coeffs]
        if not self.coeffs or not self.coeffs[-1]:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max((len(c) - 1 for c in self.coeffs if c), default=0)

    @property
    def step(self) -> int:
        """g, the gcd of the t-degrees of the coefficients' terms (n + 1
        simplicial, 2 hyperoctahedral), or 0 when there is no t-term.
        The standard basis, and every series solved from it, then lives
        in the degrees divisible by g: at t^0 alone for g = 0."""
        return math.gcd(*(d for a in self.coeffs for d, x in enumerate(a)
                          if x))

    def a(self, i: int) -> list:
        return self.coeffs[i] if 0 <= i <= self.order else []

    def leading(self) -> list:
        """D(t) = a_n(t)."""
        return self.coeffs[-1]

    def is_mum_normalized(self) -> bool:
        n = self.order
        if not self.coeffs[n] or self.coeffs[n][0] == 0:
            return False
        return all(not c or c[0] == 0 for c in self.coeffs[:n])

    def __eq__(self, other):
        if not isinstance(other, MumOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def to_json(self) -> str:
        payload = {
            "n": self.order,
            "coeffs": [[str(x) for x in c] for c in self.coeffs],
        }
        return json.dumps(payload, sort_keys=True)

    def __repr__(self):
        def poly_str(c):
            parts = []
            for k, x in enumerate(c):
                if x == 0:
                    continue
                if k == 0:
                    parts.append(str(x))
                elif k == 1:
                    parts.append("%+d*t" % x)
                else:
                    parts.append("%+d*t^%d" % (x, k))
            return "".join(parts) or "0"

        terms = ["(%s)*theta^%d" % (poly_str(c), i)
                 for i, c in enumerate(self.coeffs) if c]
        return "MumOperator[%s]" % " + ".join(reversed(terms))


def simplicial_operator(n: int) -> MumOperator:
    """theta^n - ((n+1) t)^(n+1) (theta+1) ... (theta+n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rising = [1]
    for k in range(1, n + 1):
        nxt = [0] * (len(rising) + 1)
        for i, c in enumerate(rising):
            nxt[i] += c * k
            nxt[i + 1] += c
        rising = nxt
    scale = (n + 1) ** (n + 1)
    coeffs = []
    for i in range(n + 1):
        poly = [0] * (n + 2)
        if i == n:
            poly[0] = 1
        poly[n + 1] = -scale * rising[i]
        coeffs.append(poly)
    return MumOperator(coeffs)


# reference operators for the hyperoctahedral family, as tabulated for
# n = 4 and n = 5; the guesser must reproduce these integer for integer
KNOWN_HYPEROCT_OPERATORS = {
    4: MumOperator([
        [0, 0, -128, 0, 12288],
        [0, 0, -416, 0, 28672],
        [0, 0, -528, 0, 23552],
        [0, 0, -320, 0, 8192],
        [1, 0, -80, 0, 1024],
    ]),
    5: MumOperator([
        [0, 0, -320, 0, 109440, 0, -1728000],
        [0, 0, -1216, 0, 300096, 0, -3945600],
        [0, 0, -1904, 0, 316640, 0, -3240000],
        [0, 0, -1568, 0, 163280, 0, -1224000],
        [0, 0, -700, 0, 41440, 0, -216000],
        [1, 0, -140, 0, 4144, 0, -14400],
    ]),
}


def period_series_simplicial(n: int, M: int) -> PowerSeries:
    """sum_k (k(n+1))!/k!^(n+1) t^((n+1)k) mod t^M."""
    coeffs = [0] * M
    k = 0
    while (n + 1) * k < M:
        coeffs[(n + 1) * k] = (math.factorial(k * (n + 1))
                               // math.factorial(k) ** (n + 1))
        k += 1
    return PowerSeries(coeffs, M)


def period_series_hyperoctahedral(n: int, M: int) -> PowerSeries:
    """sum_k t^(2k) sum_{k_1+...+k_n=k} (2k)!/(k_1!...k_n!)^2 mod t^M.

    The inner sums are the coefficients of (sum_j s^j/j!^2)^n; each
    times (2k)! must be an integer, and ArithmeticError says it is not.
    """
    half = (M + 1) // 2
    power = PowerSeries([Fraction(1, math.factorial(j) ** 2)
                         for j in range(half)], half) ** n
    coeffs = [0] * M
    for k in range(half):
        val = power.known(k)
        num, rem = divmod(val.numerator * math.factorial(2 * k),
                          val.denominator)
        if rem:
            raise ArithmeticError("coefficient of t^%d is not an integer"
                                  % (2 * k))
        coeffs[2 * k] = num
    return PowerSeries(coeffs, M)


# -- standard basis ----------------------------------------------------


class StandardBasis(_Record):
    """Solutions y_i = sum_k F_k log(t)^(i-k)/(i-k)! of a MUM operator.

    F_0(0) = 1 and F_i(0) = 0 for i > 0; each F_i is an exact rational
    series mod t^order.
    """

    def __init__(self, operator: MumOperator, fs: list, order: int):
        self.operator = operator
        self.fs = fs
        self.order = order

    def y(self, i: int) -> LogSeries:
        if not 0 <= i < len(self.fs):
            raise IndexError("basis has indices 0..%d" % (len(self.fs) - 1))
        slots = []
        for e in range(i + 1):
            slots.append(self.fs[i - e] / math.factorial(e))
        return LogSeries(slots)


def _basis_reads(L: MumOperator, M: int) -> tuple:
    """(d0, g, terms) for the recursion of standard_basis and
    residue_basis: d0 = a_n(0), g = L.step (M when L has no t-term),
    and terms[r] = [(d / g, [P_rd(x) for x = 0, g, 2g, ... < M])] over
    every nonzero P_rd but P_00.  ValueError for M < 1, NotMUM unless L
    is MUM-normalized."""
    if M < 1:
        raise ValueError("M must be positive")
    n = L.order
    if not L.is_mum_normalized():
        raise NotMUM("need a_i(0) = 0 for i < n and a_n(0) != 0")
    g = L.step or M
    terms = []
    for r in range(n):
        row = []
        for d in range(L.degree + 1):
            poly = [math.comb(i + r, r) * (a[d] if d < len(a) else 0)
                    for i, a in enumerate(L.coeffs[r:])]
            if any(poly) and (r, d) != (0, 0):
                row.append((d // g, [_horner(poly, x)
                                     for x in range(0, M, g)]))
        terms.append(row)
    return L.coeffs[n][0], g, terms


def standard_basis(L: MumOperator, M: int) -> StandardBasis:
    """Solve L(F_m) = -sum_{r=1..m} L^(r)(F_{m-r}) order by order, with
    L^(r) = sum_j C(j,r) a_j theta^(j-r).

    The t^c coefficient of L^(r)(F) is sum_d P_rd(c - d) F[c - d] with
    P_rd(x) = sum_i C(i+r, r) [t^d]a_{i+r} x^i.  Its r = d = 0 term in
    L(F_m) is D(0) c^n f_c, nonzero for c >= 1, so each coefficient is
    fixed by dividing by that indicial value.

    Each f_c is summed as integer numerators over the lcm of the
    denominators it reads and reduced once, by the one Fraction it
    becomes; the values P_rd(x) are tabulated up front (_basis_reads).
    An operator in t^g (g = L.step) has its F_m in t^g too (every d
    above is a multiple of g), so only the coefficients at multiples of
    g are computed; the others are exact zeros.
    """
    d0, g, terms = _basis_reads(L, M)
    n = L.order
    fs = []
    # numerators and denominators of the f_m at c = 0, g, 2g, ..., read
    # without Fraction's properties
    nums, dens = [], []
    for m in range(n):
        f, fn, fd = [Fraction(int(m == 0))], [int(m == 0)], [1]
        for c in range(1, -(-M // g)):
            reads = []
            for r in range(m + 1):
                gn, gd = (nums[m - r], dens[m - r]) if r else (fn, fd)
                for d, vals in terms[r]:
                    if d <= c and gn[c - d]:
                        reads.append((vals[c - d] * gn[c - d], gd[c - d]))
            den = math.lcm(*{b for _, b in reads})
            y = Fraction(-sum(a * (den // b) for a, b in reads),
                         den * d0 * (c * g) ** n)
            f.append(y)
            fn.append(y.numerator)
            fd.append(y.denominator)
        full = [Fraction(0)] * M
        full[::g] = f
        fs.append(PowerSeries(full, M))
        nums.append(fn)
        dens.append(fd)
    return StandardBasis(operator=L, fs=fs, order=M)


def require_good_prime(L: MumOperator, p: int):
    """Raise BadPrime unless p is a prime of good reduction for L: p
    must not divide the top coefficient of D = a_n(t), so that D mod p
    keeps its degree."""
    if not is_prime(p):
        raise BadPrime("p = %d is not a prime" % p)
    if L.leading()[-1] % p == 0:
        raise BadPrime("p = %d divides the top coefficient of a_n(t)" % p)


def residue_basis(L: MumOperator, M: int, p: int, digits: int) -> tuple:
    """(scale, xs, reached): the F_m of standard_basis mod p^digits, in
    integers only.  xs[m][c] = p^scale [t^(c g)] F_m mod p^digits for
    m < n and the lattice degrees c < ceil(M / g), g = L.step, with
    scale = max(0, -min vp(F_m[c])), the least that makes every F_m[c]
    p-integral; reached[m][c] is False where no term of the recursion
    reaches F_m[c], an exact zero.  BadPrime for p not a prime of good
    reduction (require_good_prime).

    The recursion is that of standard_basis, carried mod p^P.  Its
    division by d0 (c g)^n = p^v_c u_c is an exact division by p^v_c
    and a product with 1/u_c mod p^P (one batch inverse, _inverses).
    Each division can cost v_c digits, and a read P_rd(x) X gives back
    up to vp(P_rd(x)) of those its X lost.  A (max, +) pass over the
    reads bounds the digits lost, and P = that bound + digits keeps
    every X known mod p^digits.

    The divisions also certify the scale, which starts at 0.  The
    numerator of X_m[c] is p^v_c u_c X_m[c], known to more than v_c
    digits, so where p^scale F_m[c] is not p-integral it leaves a
    remainder, and vp(numerator) says by how much scale falls short.
    Every X so far is then multiplied by p^(shortfall) mod p^P, which is
    the residue a run at the raised scale gives, and the recursion goes
    on from there.
    """
    require_good_prime(L, p)
    d0, g, terms = _basis_reads(L, M)
    if digits < 1:
        raise ValueError("need digits >= 1")
    n, Mg = L.order, -(-M // g)
    # v_c and u_c of the divisions, c >= 1
    vs, units = [0], [1]
    for c in range(1, Mg):
        x = d0 * (c * g) ** n
        vs.append(vp(x, p))
        units.append(x // p ** vs[-1])
    divs = [p ** v for v in vs]

    def reads(tables, row, m, factors):
        # (table read, d, factors[x]) for every read of F_m, whose own
        # table is row
        return [(tables[m - r] if r else row, d, fs)
                for r in range(m + 1) for d, fs in factors[r]]

    # lost[m][c]: digits X_m[c] can lose, -INFINITY where no term
    # reaches F_m[c]; a read P_rd(x) = 0 has gain INFINITY
    gains = [[(d, [vp(v, p) if v % p == 0 else 0 for v in vals])
              for d, vals in row] for row in terms]
    lost = []
    for m in range(n):
        row = [0 if m == 0 else -INFINITY]
        plan = reads(lost, row, m, gains)
        for c in range(1, Mg):
            worst = max([src[c - d] - gain[c - d] for src, d, gain in plan
                         if d <= c], default=-INFINITY)
            row.append(worst if worst == -INFINITY
                       else vs[c] + max(worst, 0))
        lost.append(row)
    mod = p ** (max(max(row) for row in lost) + digits)
    inv = _inverses(units, mod)
    scale, xs = 0, []
    for m in range(n):
        row = [int(m == 0)]
        plan = reads(xs, row, m, terms)
        for c in range(1, Mg):
            num = -sum([vals[c - d] * src[c - d] for src, d, vals in plan
                        if d <= c]) % mod
            q, rem = divmod(num, divs[c])
            if rem:
                short = vs[c] - vp(num, p)
                scale += short
                lift = p ** short
                for done in xs + [row]:
                    done[:] = [x * lift % mod for x in done]
                q = num * lift % mod // divs[c]
            row.append(q * inv[c] % mod)
        xs.append(row)
    keep = p ** digits
    return (scale, [[x % keep for x in row] for row in xs],
            [[v > -INFINITY for v in row] for row in lost])


def _horner(poly: list, x: int) -> int:
    out = 0
    for c in reversed(poly):
        out = out * x + c
    return out


def apply_operator(L: MumOperator, s):
    """L applied to a PowerSeries or LogSeries, truncated consistently."""
    plain = isinstance(s, PowerSeries)
    if plain:
        s = LogSeries.from_series(s)
    order = min(c.order for c in s.coeffs)
    acc = LogSeries([PowerSeries.zero(order)])
    cur = s
    for i in range(L.order + 1):
        poly = L.a(i)
        if poly:
            acc = acc + PowerSeries(poly, order) * cur
        if i < L.order:
            cur = cur.theta()
    return acc.component(0) if plain else acc


# -- operator guessing -------------------------------------------------

GUESS_GUARD = 10
# Mersenne primes, tried in turn; reconstruction reaches entries up to
# sqrt(q/2) = 2^30, 2^63 and 2^260
GUESS_MODULI = (2 ** 61 - 1, 2 ** 127 - 1, 2 ** 521 - 1)


def _nullspace(rows: list, ncols: int) -> list:
    """Basis of the rational nullspace of the given row list."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for k in range(r, len(mat)):
            if mat[k][col] != 0:
                piv = k
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col] != 0:
                f = mat[k][col]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -mat[row_idx][fc]
        basis.append(vec)
    return basis


def _rational_reconstruct(u: int, modulus: int) -> Fraction | None:
    """The fraction a/b with |a|, b <= sqrt(modulus/2) and a = b u mod
    modulus, or None when there is none (von zur Gathen-Gerhard, Modern
    Computer Algebra, 5.10: the extended Euclidean algorithm on
    (modulus, u), stopped at the first remainder within the bound)."""
    bound = math.isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _certified_nullspace(rows: list, ncols: int) -> list:
    """_nullspace(rows, ncols), found mod a prime of GUESS_MODULI and
    certified.

    Rank over Q is at least rank mod q, so full column rank mod q
    proves an empty nullspace.  Otherwise each free-column vector mod q
    is rationally reconstructed and checked exactly over Z against
    every row.  k checked vectors prove nullity k over Q, and each is
    the vector _nullspace gives: its support lies on earlier pivots, so
    its free column is free over Q too.  A failed reconstruction or
    check (an unlucky q, or entries past sqrt(q/2)) moves on to the
    next, larger prime, and after the last one falls back to _nullspace.
    """
    ints = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        ints.append([int(x * den) for x in row])
    for q in GUESS_MODULI:
        basis = _checked_nullspace(ints, ncols, q)
        if basis is not None:
            return basis
    return _nullspace(rows, ncols)


def _checked_nullspace(ints: list, ncols: int, q: int) -> list | None:
    """The nullspace basis of the integer rows found mod the prime q and
    checked exactly, or None when a reconstruction or check fails."""
    reduced, pivots = _echelon_mod(ints, ncols, q)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(int(c == fc)) for c in range(ncols)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = _rational_reconstruct(-row[fc], q)
            if vec[pc] is None:
                return None
        den = math.lcm(*(x.denominator for x in vec))
        cleared = [int(x * den) for x in vec]
        if any(sum(a * b for a, b in zip(row, cleared)) for row in ints):
            return None
        basis.append(vec)
    return basis


def guess_operator(f: PowerSeries, n: int, d: int) -> MumOperator:
    """Recover the order-n, degree-<=d annihilator of f in theta form.

    Sets up [t^c](sum a_{i,k} t^k theta^i f) = 0 for the c < M =
    (n+1)(d+1) + GUESS_GUARD, more equations than unknowns, and finds
    its nullspace by elimination mod the primes of GUESS_MODULI in turn,
    certified exactly over Q (_certified_nullspace), with the Fraction
    elimination _nullspace as the fallback when the certificate fails.
    The result is content-reduced and normalized to D(0) = 1.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    ncols = (n + 1) * (d + 1)
    M = ncols + GUESS_GUARD
    if f.order < M:
        raise ValueError("series known only mod t^%d, need t^%d"
                         % (f.order, M))
    rows = []
    for c in range(M):
        row = []
        for i in range(n + 1):
            for k in range(d + 1):
                row.append(0 if k > c else (c - k) ** i * f.known(c - k))
        rows.append(row)
    basis = _certified_nullspace(rows, ncols)
    if not basis:
        raise NoOperatorFound("no order-%d degree-%d annihilator mod t^%d"
                              % (n, d, M))
    if len(basis) > 1:
        raise AmbiguousNullspace("nullspace dimension %d" % len(basis))
    vec = basis[0]
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    content = 0
    for x in ints:
        content = math.gcd(content, x)
    ints = [x // content for x in ints]
    coeffs = [ints[i * (d + 1):(i + 1) * (d + 1)] for i in range(n + 1)]
    lead0 = coeffs[n][0] if coeffs[n] else 0
    if lead0 == 0:
        raise NoOperatorFound("leading coefficient vanishes at t = 0")
    if lead0 < 0:
        coeffs = [[-x for x in c] for c in coeffs]
        lead0 = -lead0
    if lead0 != 1:
        raise NoOperatorFound("cannot normalize D(0) = %d to 1" % lead0)
    return MumOperator(coeffs)
