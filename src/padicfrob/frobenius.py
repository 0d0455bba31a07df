"""Frobenius structures A = sum_j A_j(t) theta^j of MUM operators.

The defining property is A(y_i(t^p)) = p^i sum_k alpha_k y_{i-k}(t) on
the standard basis, alpha_0 = 1.  Taking the log-free part of each
equation yields an n x n system over power series whose t = 0 matrix is
diag(p^i); it is solved order by order, one alpha-slot at a time, so
that A_j depends on the alpha constants linearly:

    A_j = A_j^(0) + sum_{k>=1} alpha_k A_j^(k).

Numeric alpha values enter only where a condition reads a coefficient
of A_j.  One traversal, _sweep, walks the recursion, with a ring fold
for the solve, a bitmask fold for its support and a (min, +) fold for
its loss bound, over only the t-degrees divisible by the operator's
step g (MumOperator.step), where every series lives and is held: index
c stands for t^(c g).  The matrix B is built once, by one formula over
the values of the F_k (_combine).  The slot series are solved in one
of two modes (solve_A_series):

- exact, over Q: the oracle, and the mode the defining identity
  (verify_frobenius_property) and nonuniqueness_witness need.  It reads
  the exact standard basis, and B from its rational values;
- fixed precision, over Z/p^R: every coefficient known mod p^digits.
  The F_k come as residues mod p^P, in integers only (residue_basis),
  and B from them; the exact basis is built only where a residue 0
  leaves open whether a value is an exact zero.  The (min, +) sweep
  bounds how many digits the recursion can lose.  The scale S that
  makes every coefficient p-integral is certified by the ring's own
  exact divisions, which leave a remainder wherever S falls short, and
  coefficients off the support stay exact zeros.  All slots and residue
  classes are solved in one sweep, each unknown an integer with one lane
  per (slot, class) column.

Two conditions on the constants are checked against these series:
integrality of the coefficients (check_integrality), which leaves the
top constants free, and the analytic-element condition
(check_analytic, see analytic_bound), which pins them.  Both read a
coefficient through _reading, whose reader per mode (_exact_reading on
the rationals, _stored_reading on the stored integers) gives one shape
of reading, and each condition decides on that reading alone: it raises
PrecisionExhausted, never other digits, where the slot digits fall
short of the exact mode.  Readers name the t-degree c g only to report.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from operator import add, mul, or_
from typing import Sequence

from .mum import (
    MumOperator,
    StandardBasis,
    apply_operator,
    require_good_prime,
    residue_basis,
    standard_basis,
)
from .padic_core import (
    INFINITY,
    BadPrime,
    CongruenceSystem,
    PadicNum,
    _Record,
    _reduced_condition,
    require_odd_prime,
    solve_affine_congruences,
    vp,
)
from .qseries import LogSeries, PowerSeries, _is_zero_coeff


class InsufficientOrder(ValueError):
    """Requested t-order cannot support the computation."""


class PrecisionExhausted(ArithmeticError):
    """Integrality of some coefficient, or an analytic row, is
    undecidable at the supplied alpha precision or at the digits of a
    fixed-precision decomposition."""

    def __init__(self, j: int, m: int):
        super().__init__("coefficient of theta^%d at t^%d undecidable"
                         % (j, m))
        self.j = j
        self.m = m


class FrobeniusDecomposition(_Record):
    """Alpha-linear decomposition of the Frobenius coefficients.

    slots[0][j] is the alpha-independent part of A_j; slots[k][j] for
    k >= 1 multiplies alpha_k.  Every series is known mod t^order and
    held on the lattice of step = operator.step (order without a t-term):
    slots[k][j] has order ceil(order / step), its T^c coefficient that
    of t^(c step), and off the lattice every coefficient is an exact
    zero.  slot() is the one reader that takes a t-degree.

    With digits None the coefficients are exact rationals.  With digits
    N the decomposition is fixed-precision: a coefficient c is stored as
    the integer p^scale c mod p^(scale + N), so it is known mod p^N, and
    the byte support[k][j][i] says whether any term of the recursion
    reached the one at lattice index i; off the support c is an exact
    zero.  At fixed precision _stored_reading, the reader of
    check_integrality and check_analytic, and the rows of recover_alpha
    read the stored integers and the support directly.

    basis is the exact standard basis of an exact decomposition.  A
    fixed-precision one solves from residues of the F_k and carries
    None.
    """

    def __init__(self, p: int, operator: MumOperator,
                 basis: StandardBasis | None, slots: list, order: int,
                 digits: int | None = None, scale: int = 0,
                 support: list | None = None):
        self.p = p
        self.operator = operator
        self.basis = basis
        self.slots = slots
        self.order = order
        self.digits = digits
        self.scale = scale
        self.support = support
        self._step = operator.step or order
        # p^i for i <= scale + digits; the last is the stored modulus
        self._pows = None if digits is None else \
            [p ** i for i in range(scale + digits + 1)]

    @property
    def n(self) -> int:
        return self.operator.order

    @property
    def step(self) -> int:
        return self._step

    def slot(self, k: int, j: int, m: int):
        """The t^m coefficient of A_j^(k).

        Exact: a Fraction.  Fixed-precision: the exact 0 off the lattice
        or the support, else a PadicNum known mod p^digits, which is an
        inexact zero when its residue is 0.  InsufficientOrder for m >=
        order, ValueError for m < 0 or k, j outside 0..n-1.
        """
        if m >= self.order:
            raise InsufficientOrder("t^%d is past the t-order %d"
                                    % (m, self.order))
        if m < 0 or not (0 <= k < self.n and 0 <= j < self.n):
            raise ValueError("no coefficient (k, j, m) = (%d, %d, %d)"
                             % (k, j, m))
        c, off = divmod(m, self.step)
        x = 0 if off else self.slots[k][j].known(c)
        if self.digits is None:
            return Fraction(x)
        if off or not self.support[k][j][c]:
            return 0
        if x == 0:
            return PadicNum.inexact_zero(self.p, self.digits)
        v = vp(x, self.p)
        return PadicNum(self.p, val=v - self.scale,
                        unit=x // self._pows[v], prec=self.digits)


# digits of X_k the first fixed-precision basis build holds beyond the
# slot digits: a guess at what the ring needs on top of them, S + S_b -
# w plus its loss bound, which is 1 to 48 over the families at n <= 8,
# p <= 31, M <= min(100 p, 800) (39 at hyperoctahedral n = 4, p = 7,
# M = 700); a short guess costs one more build
BASIS_HEADROOM = 64


class _ShortScale(Exception):
    """A division of the fixed-precision ring left a remainder: the
    scale S falls short by args[0] digits at that coefficient."""


def _sweep(mat, init, stride: int, live, fold, finish, zero) -> list:
    """The slot recursion, walked once for every use of it:

        out[i][c] = finish(acc, i, c), acc folded from init[i][c] by
        acc = fold(acc, mat[i][j], out[j][c - stride::-stride]), j < n,

    where live[i][c], else zero; mat[i][j][q-1] belongs to B_ij[q stride].
    The ring folds solve (_subtract over Q, _accumulate on packed
    residues), the bitmask fold (_reached) marks the support and the
    (min, +) fold (_lowest) bounds the digits lost, all over the same
    dependencies."""
    n = len(mat)
    out = [[] for _ in range(n)]
    for c in range(len(init[0])):
        start = c - stride
        for i in range(n):
            if not live[i][c]:
                out[i].append(zero)
                continue
            acc = init[i][c]
            if start >= 0:
                row = mat[i]
                for j in range(n):
                    acc = fold(acc, row[j], out[j][start::-stride])
            out[i].append(finish(acc, i, c))
    return out


def _subtract(acc, b, x):
    return acc - sum(map(mul, b, x))


def _accumulate(acc, b, x):
    return acc + sum(map(mul, b, x))


def _lane_bytes(mod: int, terms: int) -> int:
    """Bytes per lane that hold a sum of fewer than ``terms`` products
    of two residues below mod: 2 bitlen(mod - 1) + bitlen(terms) + 1
    bits, rounded up."""
    return (2 * (mod - 1).bit_length() + terms.bit_length() + 8) // 8


def _lanes(x: int, count: int, width: int) -> list:
    """The ``count`` lanes of ``width`` bytes of x, lowest first."""
    raw = x.to_bytes(count * width, "little")
    return [int.from_bytes(raw[k:k + width], "little")
            for k in range(0, count * width, width)]


def _packed(lanes: Sequence[int], width: int) -> int:
    """The integer with the given lanes of ``width`` bytes, lowest
    first."""
    return int.from_bytes(b"".join(x.to_bytes(width, "little")
                                   for x in lanes), "little")


# fold work, n^2 K (K - 1) / 2 products times the bytes of a packed
# unknown, from which the ring runs its columns in two processes.  A
# fork, pipe and marshal round trip costs about 4 ms.  The two-process
# solve took, as a share of the one-process one (Python 3.11, 2 vCPUs):
# 1.10 at hyperoctahedral n = 4, p = 7, M = 280 (2.7M units), 0.98 at
# n = 5, p = 11, M = 330 (5.6M), and 0.78 to 0.84 at n = 4, p = 7,
# M = 665 to 700 (21M to 25M)
TWO_CORE_WORK = 8_000_000


def _spare_core() -> bool:
    """Whether a forked child can run beside this process: os.fork
    exists, the affinity mask holds two CPUs, and no other Python thread
    runs, as a fork copies only the calling thread."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None
                                   and threading.active_count() > 1):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _fork_map(run, groups: list) -> list:
    """[run(group) for group in groups] for two groups, the second run in
    a forked child so that the two share two cores.  Its callers are
    solve_A_series's ring (column halves) and cli.cmd_selftest (the
    check registry's halves).

    The child sends its result back through a pipe with marshal and
    leaves by os._exit.  A child that fails, cannot be forked or given a
    pipe, or whose exit status is lost (waitpid raises ChildProcessError
    where SIGCHLD is ignored and the kernel reaps it) leaves its group to
    this process, where a failure raises with its own type.  The child is
    always waited for."""
    first, second = groups
    fds = ()
    try:
        fds = rfd, wfd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return [run(first), run(second)]
    if pid == 0:
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(marshal.dumps(run(second)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            done = run(first)
            data = pipe.read()
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:
            status = None
    return [done, marshal.loads(data) if status == 0 else run(second)]


def _reached(acc, nonzero, x):
    return acc | reduce(or_, compress(x, nonzero), 0)


def _lowest(acc, v, x):
    return min(acc, min(map(add, v, x), default=INFINITY))


def solve_A_series(L: MumOperator, p: int, M: int,
                   digits: int | None = None) -> FrobeniusDecomposition:
    """Solve the log-free part of A(y_i(t^p)) = p^i sum alpha_k y_{i-k}
    for every alpha-slot mod t^M: exactly over Q when digits is None,
    else with every coefficient known mod p^digits.  BadPrime for p not
    a prime of good reduction (mum.require_good_prime).

    The exact solve reads the F_k from standard_basis(L, M), and the
    decomposition carries it.  The fixed-precision one builds the F_k
    mod p^P itself (mum.residue_basis) and carries no basis; a caller
    that needs exact F_k reads them from an exact solve.

    The matrix entry multiplying A_j in equation i is
    B_ij = p^j sum_m C(j,m) (theta^(j-m) F_{i-m})(t^p), which reduces
    to p^i delta_ij at t = 0, so each t-order is fixed by dividing by
    p^i.

    An operator in t^g, g = L.step (n + 1 simplicial, 2
    hyperoctahedral), has its F_k, B and every slot series in t^g, so
    the solve runs in lattice units: unknown c stands for the t-degree
    c g, c < ceil(M / g), and B steps by p (_combine).  The returned
    slots and support rows stay on that lattice (FrobeniusDecomposition).
    An operator with no t-term has only t^0 live.

    Every pass is a _sweep over B with its own fold.  A bitmask sweep
    marks the coefficients a term of each slot reaches; the rest are
    exact zeros in both modes.  Exact, B is _combine on the rational
    values of the F_k, and a ring sweep per slot solves over Q.

    At fixed precision the solve is over Z/p^R.  The basis comes as
    X_k[c] = p^S_b F_k[c] mod p^P, S_b = max(0, -min vp(F_k[c])), and B
    as Y = p^S_b B, both integers; B is scaled by p^w, w = -min vp(B),
    so it is p-integral, and each unknown a is carried as X = p^S a.  A
    step is then integer multiply-adds, one reduction mod p^R and an
    exact division by p^(i+w).  A (min, +) sweep over the valuations of
    B bounds from above the digits each X loses, through p^(v(B) + w) X_j
    and the division, which gives R = S + (largest loss) + digits.  The
    ring reads B p^w = Y / p^(S_b - w) mod p^R, so it needs the X_k mod
    p^(R + S_b - w).  Those digits are known only with B's valuations,
    so the first build takes a guess (BASIS_HEADROOM), and the basis is
    built again when R needs more.

    A nonzero residue proves an F_k or B value nonzero, with its exact
    valuation.  A reached value whose residue reads 0 cannot be told
    from an exact cancellation; only then the zero pattern and B's
    valuations come from the exact basis, so that the support is
    exactly where the exact slots are nonzero.

    S starts at S_b and the ring's exact divisions certify it.  The
    numerator of a_i[c] is p^(S+w+i) a_i[c], and while every earlier
    division was exact the loss bound keeps it known to at least S +
    digits + i + w > i + w digits.  So if p^S a_i[c] is not p-integral,
    its division by p^(i+w) leaves a remainder, and the first one in the
    sweep shows how far S falls short there, (i + w) - vp(numerator).
    The ring then reruns with S raised by that much, until no division
    leaves a remainder.

    The fixed-precision ring is one sweep over the K = ceil(M / (g p))
    steps, as the static sweeps are.  At step t an unknown is one
    integer with a lane of _lane_bytes(p^R, n K) bytes for each column
    (slot s, class r) some term reaches, lane (s, r) holding X at
    lattice degree t p + r.  The fold adds the products of nonnegative
    residues (_accumulate), so lanes never borrow; a lane sums at most
    n (K - 1) products below p^(2R).  The step unpacks the lanes
    (_lanes), and each live one becomes (p^i F - lane mod p^R) / p^(i+w),
    a dead one 0, before they are packed again (_packed).

    The columns are independent problems that share B.  Where the fold
    is large (TWO_CORE_WORK), they run as two halves, the second in a
    forked child (_fork_map); otherwise as one group.  Each group's
    sweep holds only its own lanes and certifies its own scale S_g.  The
    scale each coefficient needs does not depend on the split, so a
    group's X times p^(S - S_g), S = max S_g, is the run at S.
    TypeError unless p, M and digits (when given) are ints, not bools.
    """
    for name, value in (("p", p), ("M", M),
                        ("digits", 1 if digits is None else digits)):
        if type(value) is not int:
            raise TypeError("solve_A_series: %s must be an int, not %r"
                            % (name, value))
    require_good_prime(L, p)
    if M < 1:
        raise InsufficientOrder("need t-order at least 1")
    if digits is not None and digits < 1:
        raise ValueError("need digits >= 1")
    n, g = L.order, L.step or M
    # the lattice degrees c < Mg stand for the t-degrees c g < M
    Mg = -(-M // g)
    # A step of the recursion never leaves its residue class c mod p.
    # The static sweeps therefore walk the K steps once, with the values
    # of the classes at step t merged into one.
    K = -(-Mg // p)

    def exact_values(sb, count):
        # the F_k of an exact basis at the lattice degrees c < count
        return [[f.known(c * g) for c in range(count)] for f in sb.fs[:n]]

    def rhs(fv):
        # rhs[s][i][c]: slot s, equation i is p^i F_{i-s}
        return [[[p ** i * x for x in fv[i - s]] if i >= s else [0] * Mg
                 for i in range(n)] for s in range(n)]

    def reached(fpat, bpat):
        # bit s of reach[i][c]: a term of slot s reaches a_i[c], from the
        # zero patterns (truth values) of the F_k and of B; the sweep
        # carries each class in its own n-bit lane, as OR works lane by
        # lane.  Returns the packed sweep and the per-slot support.
        starts = [[sum(1 << s for s in range(i + 1) if fpat[i - s][c])
                   for c in range(Mg)] for i in range(n)]
        packed = _sweep(
            [[[bool(b) for b in col] for col in row] for row in bpat],
            [[sum(x << n * r for r, x in enumerate(row[t * p:(t + 1) * p]))
              for t in range(K)] for row in starts],
            1, [b"\1" * K] * n, _reached, lambda acc, i, t: acc, 0)
        ones = (1 << n) - 1
        reach = [[row[c // p] >> n * (c % p) & ones for c in range(Mg)]
                 for row in packed]
        return packed, [[bytes(mask >> s & 1 for mask in row)
                         for row in reach] for s in range(n)]

    top = (Mg - 1) // p
    if digits is None:
        basis = standard_basis(L, M)
        fvals = exact_values(basis, Mg)
        bmat = _combine(fvals, p, g, top)
        _, live = reached(fvals, bmat)
        sol = [_sweep(bmat, init, p, live[s], _subtract,
                      lambda acc, i, c: Fraction(acc, p ** i), 0)
               for s, init in enumerate(rhs(fvals))]
        return FrobeniusDecomposition(
            p=p, operator=L, basis=basis, order=M,
            slots=[[PowerSeries(a, Mg) for a in s] for s in sol])

    def build(known):
        # (S_b, X_k, Y = p^S_b B, reached), integers reduced mod p^known
        sb, xs, hit = residue_basis(L, M, p, known)
        keep = p ** known
        ys = [[[y % keep for y in col] for col in row]
              for row in _combine(xs, p, g, top)]
        return sb, xs, ys, hit

    held = digits + BASIS_HEADROOM
    scale_b, xs, ys, hit = build(held)
    fpat = xs
    vb = [[[vp(y, p) - scale_b for y in col] for col in row] for row in ys]
    # A reached F_k[c] whose residue reads 0, or such a B_ij[q] over a
    # reached F_k[q], may be an exact cancellation.  B_ij[q] is a
    # positive combination of the F_{i-m}[q], m <= min(i, j), so
    # _combine on the reached pattern is nonzero where any term is.
    maybe = _combine([[int(h) for h in row] for row in hit], p, g, top)
    unsure = [c for hrow, xrow in zip(hit, xs)
              for c, (h, x) in enumerate(zip(hrow, xrow)) if h and not x] + \
        [q for mrow, yrow in zip(maybe, ys) for mcol, ycol in zip(mrow, yrow)
         for q, (m, y) in enumerate(zip(mcol, ycol), 1) if m and not y]
    if unsure:
        # the exact F_k below the first lattice degree past those values
        # (at the families, F_{n-1}[g] = 0 for odd n) decide them
        low = max(unsure) + 1
        fx = exact_values(standard_basis(L, low * g), low)
        fpat = [f + x[low:] for f, x in zip(fx, xs)]
        for row, exact in zip(vb, _combine(fx, p, g, min(top, low - 1))):
            for col, bs in zip(row, exact):
                col[:len(bs)] = [vp(b, p) for b in bs]
    packed, live = reached(fpat, [[[v < INFINITY for v in col] for col in row]
                                  for row in vb])
    w = max([0] + [-v for row in vb for col in row for v in col])
    # precision of each X minus R, the digits it can lose negated; an
    # exact zero loses none.  A step never leaves its residue class mod
    # p, and (min, +) commutes with min, so the sweep runs once over the
    # K steps, live where any class is; its minimum still bounds.
    kept = min(min(row) for row in _sweep(
        [[[v + w for v in col] for col in row] for row in vb],
        [[0] * K] * n, 1, packed, _lowest,
        lambda acc, i, t: acc - i - w, INFINITY))
    div = [p ** (i + w) for i in range(n)]

    # The columns (s, r), slot s and class r, that some unknown reaches,
    # as bits n r + s of the bitmask sweep; each gets a lane of width
    # bytes in every packed unknown, dead lanes held at 0.
    anywhere = reduce(or_, chain.from_iterable(packed), 0)
    cols = [(bit % n, bit // n, bit) for bit in range(n * p)
            if anywhere >> bit & 1]

    def ring(group):
        # (S_g, {(s, r): n rows of K steps}): the group's columns from a
        # sweep whose unknowns hold only its lanes, each carried as X =
        # p^S_g a mod p^R, S_g raised from S_b until every division is
        # exact (see above); the rows hold X mod p^(S_g + digits)
        nonlocal held, xs, ys
        bits = sum(1 << bit for _, _, bit in group)
        scale = scale_b
        while True:
            mod, keep = p ** (scale - kept + digits), p ** (scale + digits)
            if held < scale - kept + digits + scale_b - w:
                held = scale - kept + digits + scale_b - w
                _, xs, ys, _ = build(held)
            shift, lift = p ** (scale_b - w), p ** (scale + w - scale_b)
            rmat = [[[y // shift % mod for y in col] for col in row]
                    for row in ys]
            right = rhs([[x * lift % mod for x in row] for row in xs])
            width = _lane_bytes(mod, n * K)
            rows = [[[0] * K for _ in range(n)] for _ in group]

            def step(acc, i, t):
                mask, out = packed[i][t], []
                for (s, r, bit), lane, table in zip(
                        group, _lanes(acc, len(group), width), rows):
                    c = t * p + r
                    if c >= Mg or not mask >> bit & 1:
                        out.append(0)
                        continue
                    num = (right[s][i][c] - lane) % mod
                    q, rem = divmod(num, div[i])
                    if rem:
                        raise _ShortScale(i + w - vp(num, p))
                    table[i][t] = q % keep
                    out.append(q)
                return _packed(out, width)

            try:
                _sweep(rmat, [[0] * K] * n, 1,
                       [[mask & bits for mask in row] for row in packed],
                       _accumulate, step, 0)
                return scale, {(s, r): table
                               for (s, r, _), table in zip(group, rows)}
            except _ShortScale as short:
                scale += short.args[0]

    work = n * n * K * (K - 1) // 2 * len(cols) * _lane_bytes(
        p ** (scale_b - kept + digits), n * K)
    half = len(cols) // 2
    if work >= TWO_CORE_WORK and _spare_core():
        parts = _fork_map(ring, [cols[:half], cols[half:]])
    else:
        parts = [ring(cols)]
    # a group's X lifted to S = max S_g is the run at S (see above)
    scale = max(s_g for s_g, _ in parts)
    sol = [[[0] * (K * p) for _ in range(n)] for _ in range(n)]
    for s_g, rows in parts:
        lift = p ** (scale - s_g)
        for (s, r), table in rows.items():
            for i, row in enumerate(table):
                sol[s][i][r::p] = row if lift == 1 else [x * lift for x in row]
    return FrobeniusDecomposition(
        p=p, operator=L, basis=None, order=M, digits=digits, scale=scale,
        slots=[[PowerSeries(a, Mg) for a in s] for s in sol], support=live)


def _combine(tables: list, p: int, g: int, top: int) -> list:
    """mat[i][j][q-1] = p^j sum_m C(j,m) (q g)^(j-m) tables[i-m][q] for
    1 <= q <= top, in the ring of the table values: B_ij[q g p] when
    tables[k][q] = [t^(q g)] F_k.

    B_ij lives in degrees divisible by p: (theta^r F)[d] = d^r F[d], so
    B_ij[d p] combines the F_k[d], and for an operator in t^g only the
    degrees d = q g carry a term.  In lattice units B steps by p, and
    the theta-weights keep the true degree."""
    n = len(tables)
    return [[[p ** j * sum(math.comb(j, m) * (q * g) ** (j - m)
                           * tables[i - m][q]
                           for m in range(min(i, j) + 1))
              for q in range(1, top + 1)]
             for j in range(n)] for i in range(n)]


def _alpha_linear(values: Sequence, alphas: Sequence):
    """values[0] + sum_k alphas[k-1] values[k], skipping exact zeros (a
    PadicNum is never falsy).  A PadicNum alpha_k times an exact
    values[k] is known to prec(alpha_k) + vp(values[k])."""
    acc = values[0]
    for al, x in zip(alphas, values[1:]):
        if x:
            acc = acc + al * x
    return acc


def _first_nonzero(sides: list, alphas: Sequence, M: int):
    """The first (log power, t degree) at which sides[0] + sum_k
    alpha_k sides[k] is nonzero mod t^M, or None."""
    for e in range(max(len(side.coeffs) for side in sides)):
        comps = [side.component(e) for side in sides]
        for c in range(M):
            if not _is_zero_coeff(_alpha_linear([s.known(c) for s in comps],
                                                 alphas)):
                return e, c
    return None


def _verify_frobenius_detail(dec: FrobeniusDecomposition,
                             alphas: Sequence, M: int):
    """None if the full identity holds mod t^M; else the first failing
    (basis index, log power, t degree), or (basis index, -1, -1) when
    the image is not a solution.

    Both sides are affine in the alphas: with alpha_0 = 1 and the
    exact-Q brackets I_k = sum_j A_j^(k) theta^j(y_i(t^p)) and
    E_k = I_k - p^i y_{i-k} (no y term for k > i), the identity is
    sum_k alpha_k E_k = 0 and its image under L is sum_k alpha_k L(I_k)
    = 0.  The alphas enter once per coefficient (_alpha_linear)."""
    _check_order(dec, M)
    if dec.digits is not None:
        raise ValueError("the defining identity needs an exact "
                         "decomposition (digits=None)")
    _check_alphas(dec, alphas)
    L, n, p = dec.operator, dec.n, dec.p
    slots = [[s.substitute_tp(dec.step) for s in row] for row in dec.slots]
    for i in range(n):
        yi_p = dec.basis.y(i).substitute_tp(p)
        thetas = [LogSeries([s.truncate(M) for s in yi_p.coeffs])]
        for _ in range(n - 1):
            thetas.append(thetas[-1].theta())
        images = [reduce(add, (s * th for s, th in zip(row, thetas)))
                  for row in slots]
        brackets = [img - dec.basis.y(i - k) * p ** i if k <= i else img
                    for k, img in enumerate(images)]
        where = _first_nonzero(brackets, alphas, M)
        if where is not None:
            return (i, *where)
        if _first_nonzero([apply_operator(L, img) for img in images],
                          alphas, M) is not None:
            return (i, -1, -1)
    return None


def verify_frobenius_property(dec: FrobeniusDecomposition,
                              alphas: Sequence, M: int) -> bool:
    """Check the full log-polynomial identity A(y_i(t^p)) =
    p^i sum alpha_k y_{i-k} mod t^M, plus L(A(y_i(t^p))) = 0."""
    return _verify_frobenius_detail(dec, alphas, M) is None


class IntegralityReport(_Record):
    def __init__(self, p: int, M: int, verdict: str,
                 min_valuation: int | None, entries: list,
                 first_failing: tuple | None = None):
        self.p = p
        self.M = M
        self.verdict = verdict
        self.min_valuation = min_valuation
        self.entries = entries
        self.first_failing = first_failing

    def to_json(self) -> str:
        payload = {
            "p": self.p,
            "M": self.M,
            "verdict": self.verdict,
            "min_valuation": self.min_valuation,
            "entries": self.entries,
        }
        return json.dumps(payload, sort_keys=True)


def check_integrality(dec: FrobeniusDecomposition, alphas: Sequence,
                      M: int) -> IntegralityReport:
    """Decide whether every assembled A_j coefficient below t^M lies
    in Z_p.  Only the lattice coefficients, at t^(c dec.step), are
    read; the others are exact zeros, which report no entry.

    A coefficient decides as integral when its valuation is provably
    >= 0 (exact value, nonzero residue, or an inexact zero with at
    least one digit of precision) and as non-integral when the
    valuation is provably negative; anything else raises
    PrecisionExhausted.  A fixed-precision decomposition gives the
    report the exact slots give, or PrecisionExhausted where its digits
    fall short (integrality_digits says how many suffice).  In either
    mode each entry is read by _reading and decided by _integral_entry.

    Integrality is a weak test of the constants.  The slot series
    A_j^(k) for k >= n-2 are themselves p-integral at the built-in
    families (observed through t^90 at p = 7 and 11, n = 3, 4, 5), so
    no change of alpha_{n-2} or alpha_{n-1} inside Z_p alters the
    verdict at any t-order.  The rows of check_analytic pin those.
    """
    _check_order(dec, M)
    read, g = _reading(dec, alphas), dec.step
    entries, min_val, first_bad = [], None, None
    for j in range(dec.n):
        for m in range(0, M, g):
            entry = _integral_entry(read(j, m // g), j, m)
            if entry is None:
                continue
            val, prec = entry
            entries.append({"j": j, "m": m, "val": val, "prec": prec})
            if val is None:
                continue
            if min_val is None or val < min_val:
                min_val = val
            if val < 0 and first_bad is None:
                first_bad = (j, m, val)
    verdict = "integral" if first_bad is None else "non-integral"
    return IntegralityReport(p=dec.p, M=M, verdict=verdict,
                             min_valuation=min_val, entries=entries,
                             first_failing=first_bad)


def integrality_digits(alphas: Sequence, headroom: int) -> int:
    """Slot digits that let check_integrality at these alphas report
    what exact slots give.  An inexact alpha_k reaching a slot
    coefficient c of valuation v sets the entry's precision to
    prec(alpha_k) + v, so c is needed mod p^(rel(alpha_k) + v);
    ``headroom`` digits cover every v < headroom, and a larger v raises
    PrecisionExhausted instead."""
    return headroom + max([int(a.rel_precision) for a in alphas
                           if isinstance(a, PadicNum) and not a.is_exact],
                          default=0)


def _check_order(dec: FrobeniusDecomposition, M: int):
    if M < 1:
        raise InsufficientOrder("need t-order at least 1")
    if M > dec.order:
        raise InsufficientOrder("decomposition known mod t^%d" % dec.order)


def _check_alphas(dec: FrobeniusDecomposition, alphas: Sequence):
    """ValueError unless there are n - 1 alphas, every PadicNum one at
    dec.p; TypeError for an alpha not an int, Fraction or PadicNum.
    Exact slots would take on the prime of an alpha, so no reading can
    be left to refuse another."""
    if len(alphas) != dec.n - 1:
        raise ValueError("need %d alpha values" % (dec.n - 1))
    for al in alphas:
        if type(al) is bool or not isinstance(al, (int, Fraction, PadicNum)):
            raise TypeError("alphas must be int, Fraction or PadicNum, "
                            "not %s" % type(al).__name__)
    if any(isinstance(al, PadicNum) and al.p != dec.p for al in alphas):
        raise ValueError("alphas must be %d-adic" % dec.p)


def _reading(dec: FrobeniusDecomposition, alphas: Sequence):
    """The reader (j, c) -> None or (val, prec, target) at t^(c dec.step)
    of dec's mode at checked alphas: _exact_reading on exact slots,
    _stored_reading on the stored integers of a fixed-precision dec."""
    _check_alphas(dec, alphas)
    reader = _exact_reading if dec.digits is None else _stored_reading
    return reader(dec, alphas)


def _exact_reading(dec: FrobeniusDecomposition, alphas: Sequence):
    """(j, c) -> None, for an exact zero (a cancellation included), or
    the (val, prec, target) _stored_reading gives of sum_k alpha_k c_k,
    alpha_0 = 1, c_k the rational lattice coefficient c of A_j^(k) in an
    exact dec.

    The sum is formed by PadicNum's rules (_alpha_linear): exact, with
    prec = target = INFINITY, unless an inexact alpha_k meets c_k != 0;
    then it is known to prec, the least prec(alpha_k) + v(c_k), which is
    the precision exact slots give, so target = prec.  val is None for
    an inexact zero."""
    p = dec.p

    def read(j: int, c: int):
        value = _alpha_linear([row[j].known(c) for row in dec.slots], alphas)
        if isinstance(value, PadicNum) and not value.is_exact:
            prec = int(value.abs_precision)
            return (None if value.is_zero() else int(value.valuation),
                    prec, prec)
        q = value.exact if isinstance(value, PadicNum) else value
        return None if q == 0 else (vp(q, p), INFINITY, INFINITY)

    return read


def _stored_reading(dec: FrobeniusDecomposition, alphas: Sequence):
    """(j, c) -> None, for no term on the support, or (val, prec,
    target) of sum_k alpha_k c_k, alpha_0 = 1, c_k the lattice
    coefficient c of A_j^(k) in a fixed-precision dec, stored as X_k =
    p^scale c_k mod p^(scale + D), D = dec.digits.

    Each alpha_k is prepared once as its valuation a_k, absolute
    precision A_k (infinite when exact) and a residue of alpha_k / p^e,
    e = min a_k <= 0; an exact zero drops out, as in PadicNum.  By
    PadicNum's rules alpha_k c_k is known to a_k + D, and to v_k + A_k
    for an inexact alpha_k, and a sum to the least of its terms: prec
    (an inexact zero c_k has v_k >= D and A_k >= a_k, so only X_k != 0
    lowers it).  val is that of sum_k (alpha_k / p^e) X_k mod p^(prec +
    scale - e), p^(scale - e) times the sum; None when 0.  target, the
    precision exact slots give, is the least v_k + A_k over inexact
    alpha_k: INFINITY for none, None (unknown) where one meets X_k = 0.
    """
    p, digits, scale = dec.p, dec.digits, dec.scale
    padics = [(k, al if isinstance(al, PadicNum)
               else PadicNum.from_exact(al, p))
              for k, al in enumerate([1] + list(alphas))]
    padics = [(k, al) for k, al in padics if not al.is_exact_zero]
    e = min(al.valuation for _, al in padics)
    top = scale + digits - e + max(al.valuation for _, al in padics)
    pows = [p ** i for i in range(top + 1)]
    stored = pows[scale + digits]
    # per j: (support, coefficient reader, a_k + D, A_k, alpha_k / p^e)
    terms = [[(dec.support[k][j], dec.slots[k][j].known,
               al.valuation + digits, al.abs_precision,
               al._scaled_residue(e, top)) for k, al in padics]
             for j in range(dec.n)]

    def read(j: int, c: int):
        acc, prec, target, known = 0, INFINITY, INFINITY, True
        for live, coeff, kept, A, r in terms[j]:
            if not live[c]:
                continue
            x = coeff(c)
            if kept < prec:
                prec = kept
            acc += r * x
            if A != INFINITY:
                if x:
                    target = min(target, A - scale
                                 + bisect_left(pows, math.gcd(x, stored)))
                else:
                    known = False
        if prec == INFINITY:
            return None
        if target < prec:
            prec = target
        # prec >= e - scale, as v_k >= -scale and A_k >= a_k >= e
        width = prec + scale - e
        g = math.gcd(acc, pows[width])
        val = None if g == pows[width] else bisect_left(pows, g) + e - scale
        return val, prec, target if known else None

    return read


def _integral_entry(reading, j: int, m: int):
    """The entry check_integrality reports at (j, m), decided on its
    reading by _reading: None for an exact zero, (val, None) for a value
    known exactly, else (val, prec) as exact slots give it; and
    PrecisionExhausted where prec falls short of that target, or the
    target is unknown, or an inexact zero is known to no digit."""
    if reading is None:
        return None
    val, prec, target = reading
    if target == INFINITY and val is not None:
        return val, None
    if target is None or prec < target or (val is None and prec < 1):
        raise PrecisionExhausted(j, m)
    return val, prec


def _divisors(x: int):
    """The positive divisors of x in increasing order, found as they
    are consumed."""
    x = abs(x)
    large = []
    for d in range(1, math.isqrt(x) + 1):
        if x % d == 0:
            yield d
            if d * d != x:
                large.append(x // d)
    yield from reversed(large)


def _exponents_at_infinity(L: MumOperator) -> list:
    """Roots rho, with multiplicity and in increasing order, of
    sum_i [t^d] a_i(t) (-rho)^i, d = deg D: the local solutions of L at
    t = infinity behave like t^(-rho) times powers of log t."""
    d = L.degree
    if len(L.leading()) - 1 != d:
        raise ValueError("t = infinity is not a regular singular point")
    poly = [Fraction((-1) ** i * (L.a(i)[d] if len(L.a(i)) > d else 0))
            for i in range(L.order + 1)]
    roots = []
    while poly[0] == 0:
        roots.append(Fraction(0))
        poly.pop(0)
    # rational roots u/v, u | poly[0] and v | poly[-1], smallest u first;
    # the search stops once the polynomial is fully factored
    lead = list(_divisors(int(poly[-1])))
    for r in (Fraction(sign * u, v) for u in _divisors(int(poly[0]))
              for v in lead for sign in (1, -1)):
        if len(poly) == 1:
            break
        while len(poly) > 1:
            # synthetic division by (rho - r); the remainder is P(r)
            quot = [poly[-1]]
            for c in reversed(poly[1:-1]):
                quot.append(c + r * quot[-1])
            if poly[0] + r * quot[-1] != 0:
                break
            roots.append(r)
            poly = quot[::-1]
    if len(poly) > 1:
        raise ValueError("exponents at t = infinity are not all rational")
    return sorted(roots)


def analytic_bound(L: MumOperator, p: int, s: int) -> tuple:
    """(e(s), deg(s)): modulo p^s, D(t)^e(s) A_j is a polynomial of
    degree at most deg(s), where D = a_n(t).  With rho_min and rho_max
    the least and greatest exponents of L at t = infinity,

        e(s)   = (s - 1) p,
        deg(s) = e(s) deg D + floor(p rho_max - rho_min).

    Why a bound is needed: the A_j are p-adic analytic elements, limits
    of rational functions with poles only in the residue discs of the
    roots of D and at t = infinity.  Modulo p^s such an element is
    P(t)/D(t)^e, but every series mod t^M is a polynomial, so the
    condition says something only once e and deg P are bounded.

    Pole order.  The poles enter through the Frobenius pull-back of the
    singular locus.  D has integer coefficients, so D(t^p) = D(t)^p +
    p E(t) with E in Z[t] of degree p deg D, and

        D(t)^p / D(t^p) = sum_k (-p E(t) / D(t)^p)^k:

    each further digit of p-adic accuracy admits p more powers of D in
    the denominator, while the numerator grows with the denominator.
    Starting from e(1) = 0 this gives e(s) = (s - 1) p.  That A_j mod p
    is a polynomial (e(1) = 0) rests on observation; for A_0 it is
    Dwork's congruence for the truncated period series.

    Degree.  Near t = infinity, where D^e A_j grows like t^(deg P - e
    deg D), the solutions behave like t^(-rho) with rho a root of
    sum_i [t^d] a_i (-rho)^i, d = deg D (see _exponents_at_infinity).
    A sends y(t^p) ~ t^(-p rho) to a solution ~ t^(-rho'), so its
    coefficients grow at most like t^(p rho_max - rho_min).  This step
    assumes the A_j have at worst a pole at t = infinity; it rests on
    observation.

    Checked at the closed-form constants mod p, p^2 and p^3: simplicial
    n = 3, 4, 5 and hyperoctahedral n = 4, 5 at p = 7, and both n = 4
    families at p = 11.  The degree bound is attained there after
    rounding down to the step of the t-powers that occur (n + 1 for
    simplicial, 2 for hyperoctahedral).  For (1 - t) theta - t,
    A_0 = (1 - t^p)/(1 - t) has degree p - 1 = deg(1) exactly.  e(s) =
    (s - 1) p is confirmed only through s = 3: at s = 4 the closed forms
    fail for both n = 4 families at p = 7 and simplicial n = 2 at p = 5.

    Raises BadPrime unless p is an odd prime.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    return _analytic_bounds(L, p, s)[-1]


def _analytic_bounds(L: MumOperator, p: int, digits: int) -> list:
    """[analytic_bound(L, p, s) for s = 1..digits], with the exponents
    at infinity found once."""
    require_odd_prime(p)
    rho = _exponents_at_infinity(L)
    top = math.floor(p * max(rho) - min(rho))
    return [((s - 1) * p, (s - 1) * p * L.degree + top)
            for s in range(1, digits + 1)]


def _analytic_rows(dec: FrobeniusDecomposition, M: int, digits: int):
    """Iterate (s, lo, weighted) for each s = 1..digits with rows: [t^m]
    D^e(s) A_j must vanish mod p^s for lo = max(deg(s) + 1, 0) <= m < M.
    weighted is dec mod t^M with slots D^e(s) A_j^(k) in that window and
    exact zeros below, reduced mod p^(scale + digits) at fixed precision,
    where a term of D^e(s) meeting a live coefficient makes one live.
    ValueError for negative digits, before any block.

    A block is the last (dec before the first) times D(T)^(e(s) - e(s')),
    T = t^g, g = dec.step, on the lattice lists.  Its index c reads c -
    i, i g <= (e(s) - e(s')) deg D = deg(s) - deg(s'): only the last
    window, for any nondecreasing e(s).  The support spreads dec's over
    D^e(s) itself, as (1 + 2t - 10t^2)^6 lacks t^10, which two terms of
    its cube reach.
    """
    _check_order(dec, M)
    if digits < 0:
        raise ValueError("need analytic digits >= 0")
    bounds = _analytic_bounds(dec.operator, dec.p, digits) if digits else []

    def blocks():
        g, mod = dec.step, None if dec.digits is None else dec._pows[-1]
        Mg = -(-M // g)
        lead = PowerSeries(dec.operator.leading()[::g], Mg)
        block, power, done = dec, PowerSeries.one(Mg), 0
        for s, (e, deg) in enumerate(bounds, start=1):
            lo = max(deg + 1, 0)
            if lo >= M:
                continue
            first, factor = -(-lo // g), lead ** (e - done)
            power = power * factor

            def product(a: PowerSeries) -> list:
                src, out = a.coeffs, [0] * Mg
                for i, c in enumerate(factor.coeffs):
                    part, r = src[max(first - i, 0):Mg - i], max(first, i)
                    out[r:r + len(part)] = [x + c * y for x, y in
                                            zip(out[r:], part)]
                return [x % mod for x in out] if mod else out

            def spread(live: bytes) -> bytes:
                mask = int.from_bytes(live[:Mg], "little")
                hit = reduce(or_, (mask << 8 * i for i, c in
                                   enumerate(power.coeffs) if c), 0)
                return bytes(first) + hit.to_bytes(2 * Mg, "little")[first:Mg]

            block, done = block.replace(
                order=M,
                slots=[[PowerSeries(product(a), Mg) for a in row]
                       for row in block.slots],
                support=None if mod is None else
                [[spread(live) for live in row] for row in dec.support]), e
            yield s, lo, block

    return blocks()


class AnalyticReport(_Record):
    def __init__(self, p: int, M: int, digits: int, verdict: str, rows: int,
                 first_failing: tuple | None = None):
        self.p = p
        self.M = M
        self.digits = digits
        self.verdict = verdict
        self.rows = rows
        self.first_failing = first_failing


def check_analytic(dec: FrobeniusDecomposition, alphas: Sequence,
                   M: int, digits: int) -> AnalyticReport:
    """Decide, at the given alpha_1..alpha_{n-1}, whether [t^m] D^e(s)
    A_j vanishes mod p^s for s = 1..digits, every j and deg(s) < m < M
    (bounds from analytic_bound).

    Stops at the first violated row and reports it as (s, j, m,
    valuation); ``rows`` counts the rows decided.  A row whose value is
    an inexact zero known to fewer than s digits, for want of alpha
    digits or of slot digits, raises PrecisionExhausted.

    Rows are read from the blocks of _analytic_rows on the lattice of
    dec.step (``rows`` counts the exact zeros between), through _reading
    built once per s.  Only the decision differs.
    """
    # checked before any row, so a report with no rows checks them too
    _check_alphas(dec, alphas)
    rows, g = 0, dec.step
    for s, lo, weighted in _analytic_rows(dec, M, digits):
        read = _reading(weighted, alphas)
        for j in range(dec.n):
            for m in range(-(-lo // g) * g, M, g):
                reading = read(j, m // g)
                if reading is None:
                    continue
                val, prec, _ = reading
                if val is None:
                    if prec < s:
                        raise PrecisionExhausted(j, m)
                elif val < s:
                    return AnalyticReport(dec.p, M, digits, "non-analytic",
                                          rows + j * (M - lo) + m - lo + 1,
                                          (s, j, m, val))
        rows += dec.n * (M - lo)
    return AnalyticReport(dec.p, M, digits, "analytic", rows)


def _congruence_row(dec: FrobeniusDecomposition, s: int, j: int, c: int):
    """The condition vp(sum_k alpha_k x_k) >= 0, alpha_0 = 1, where x_k
    is lattice coefficient c of A_j^(k), at t^(c dec.step), over p^s in
    dec (for an analytic row, dec holds the products D^e(s) A_j^(k)), as
    a reduced row (a, b, e) of CongruenceSystem; None for a row that
    cannot bind: no alpha term, and x_0 in Z_p.

    The condition sees the x_k only modulo Z_p.  An exact row reduces
    its rationals (padic_core._reduced_condition).  A fixed-precision
    slot stores X = p^(scale + s) x mod p^(scale + digits), so the row
    is X mod p^T, T = scale + s, divided by the largest power of p that
    divides p^T and every entry.  PrecisionExhausted when the slots are
    known to fewer than s digits, or when residues 0 leave open whether
    an alpha term exists.
    """
    xs = [row[j].known(c) for row in dec.slots]
    if dec.digits is None:
        if any(xs[1:]) or vp(xs[0], dec.p) < s:
            return _reduced_condition(xs[0], xs[1:], dec.p, -s)
        return None
    live = [row[j][c] for row in dec.support]
    if not any(live):
        return None
    if s > dec.digits:
        raise PrecisionExhausted(j, c * dec.step)
    pows = dec._pows
    top = pows[dec.scale + s]
    ys = [x % top for x in xs]
    if not (any(xs[1:]) or ys[0]):
        if any(live[1:]):
            raise PrecisionExhausted(j, c * dec.step)
        return None
    common = math.gcd(top, *ys)
    mod = top // common
    return (tuple(y // common for y in ys[1:]), -(ys[0] // common) % mod,
            bisect_left(pows, mod))


def recover_alpha(dec: FrobeniusDecomposition, M: int,
                  analytic_digits: int = 0):
    """Impose vp(assembled A_j coefficient) >= 0 for every j and every
    lattice coefficient below t^M, at the t-degrees divisible by
    dec.step (the others are exact zeros, which bind nothing), and solve
    the resulting affine congruence system for alpha_1..alpha_{n-1}.

    Integrality alone leaves alpha_k for k >= n-2 undetermined: those
    slot series are p-integral (see check_integrality).  With
    analytic_digits = S > 0 the rows of check_analytic for s = 1..S
    join the system as vp(row / p^s) >= 0; they pin those constants
    once M exceeds the deg(s) of analytic_bound.

    Each row is read once, straight into the reduced form (a, b, e) of
    CongruenceSystem (see _congruence_row), so solve_affine_congruences
    is left with the Smith stage.  Returns the full solution coset; its
    per-coordinate exponents grow with M at an empirical rate, with no
    a-priori guarantee.  A fixed-precision decomposition gives the same
    coset, or raises PrecisionExhausted.
    """
    g = dec.step
    blocks = chain([(0, 0, dec)], _analytic_rows(dec, M, analytic_digits))
    rows = filter(None, (_congruence_row(block, s, j, c)
                         for s, lo, block in blocks for j in range(dec.n)
                         for c in range(-(-lo // g), -(-M // g))))
    return solve_affine_congruences(
        CongruenceSystem(dec.p, dec.n - 1, tuple(rows)))


def nonuniqueness_witness(L: MumOperator, lam, p: int, M: int) -> bool:
    """Exhibit the one-parameter family of Frobenius structures on an
    order-2 operator: A + lam (y_0(t)/W(t^p)) (y_0(t^p) theta -
    theta(y_0(t^p))) still maps both y_i(t^p) to solutions mod t^M.

    W is the Wronskian F_0^2 + F_0 theta(F_1) - F_1 theta(F_0) of the
    exact solve's basis.  theta kills constant terms, so W(0) = F_0(0)^2
    = 1 and W(t^p) is invertible.  TypeError unless lam is an int (not
    a bool) or a Fraction.
    """
    if type(lam) not in (int, Fraction):
        raise TypeError("nonuniqueness_witness: lam must be an int or a "
                        "Fraction, not %r" % (lam,))
    if L.order != 2:
        raise ValueError("witness construction needs an order-2 operator")
    dec = solve_A_series(L, p, M)
    a0, a1 = (s.substitute_tp(dec.step) for s in dec.slots[0])
    f0, f1 = dec.basis.fs
    wronskian = f0 * f0 + f0 * f1.theta() - f1 * f0.theta()
    winv_p = wronskian.substitute_tp(p).truncate(M).invert()
    a1 = a1 + f0 * winv_p * f0.substitute_tp(p).truncate(M) * lam
    a0 = a0 - f0 * winv_p * f0.theta().substitute_tp(p).truncate(M) * p * lam
    for i in range(2):
        yi_p = dec.basis.y(i).substitute_tp(p)
        image = a0 * yi_p + a1 * yi_p.theta()
        if not apply_operator(L, image).is_zero_mod(M):
            return False
    return True
