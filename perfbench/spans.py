"""Span recording for the benchmark's traced run, and the arithmetic on spans.

``Tracer.install()`` rebinds each traced padicfrob function at every
``padicfrob.*`` module-level name that refers to it, and each traced
arithmetic method on its class, to a wrapper that records a span
``(name, start, end, parent, ok)`` in memory.  ``Tracer.uninstall()``
puts every original back.  Counts (coefficient bit heights, congruence
rows, ...) are taken from outside, on the arguments and returned
objects, inside a ``perfbench.count`` span so their cost is not charged
to any padicfrob layer.

``summarize()`` turns a job's spans into per-name totals.  Self time is
a span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> traced public functions
TRACED_FUNCTIONS = {
    "cli": ("main",),
    "frobenius": ("solve_A_series", "check_integrality", "recover_alpha",
                  "verify_frobenius_property", "nonuniqueness_witness"),
    "mum": ("standard_basis", "guess_operator", "apply_operator",
            "period_series_simplicial", "period_series_hyperoctahedral"),
    "padic_core": ("solve_affine_congruences", "padic_log", "padic_exp"),
    "zeta_gamma": ("zetap_interpolated", "zetap_bernoulli",
                   "evaluate_zeta_poly", "alpha_simplicial",
                   "alpha_hyperoctahedral", "gamma_ratio_congruence_check",
                   "gammap_int", "gammap_taylor"),
    "expansion": ("brute_force_expand", "simplicial_coeff_series",
                  "alternating_identity_check", "mu_at_zero"),
}

# (module, class) -> traced arithmetic methods
TRACED_METHODS = {
    ("padic_core", "PadicNum"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "_invert"),
    ("qseries", "PowerSeries"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__pow__", "invert", "exp", "log",
        "theta", "substitute_tp"),
    ("qseries", "LogSeries"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "theta",
        "substitute_tp"),
}

PACKAGE = "padicfrob"
COUNT_SPAN = "perfbench.count"

# counts aggregated by maximum; every other count is summed
MAX_COUNTS = frozenset({
    "frobenius.solve_A_series.coeff_bits_max",
    "mum.standard_basis.coeff_bits_max",
    "padic_core.solve_affine_congruences.modulus_exponent",
})


def coeff_bits(series_list) -> int:
    """Largest numerator or denominator bit length over the series."""
    best = 0
    for s in series_list:
        for c in s.coeffs:
            best = max(best, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return best


def _count_solve(args, kwargs, dec):
    return {"frobenius.solve_A_series.coeff_bits_max":
            coeff_bits(s for slot in dec.slots for s in slot)}


def _count_basis(args, kwargs, basis):
    return {"mum.standard_basis.coeff_bits_max": coeff_bits(basis.fs)}


def _count_integrality(args, kwargs, report):
    return {"frobenius.check_integrality.entries": len(report.entries)}


def _count_congruences(args, kwargs, sol):
    system = args[0] if args else kwargs["system"]
    return {"padic_core.solve_affine_congruences.rows":
            len(system.conditions),
            "padic_core.solve_affine_congruences.modulus_exponent":
            sol.modulus_exponent}


COUNTERS = {
    "frobenius.solve_A_series": _count_solve,
    "mum.standard_basis": _count_basis,
    "frobenius.check_integrality": _count_integrality,
    "padic_core.solve_affine_congruences": _count_congruences,
}


def package_modules() -> list:
    """The loaded padicfrob modules, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or
                                  name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans of one job; install() and uninstall() bracket it."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, ok)
        self.counts = {}
        self._stack = []
        self._rebound = []   # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, False)
                stack.pop()
                raise
            spans[idx] = (name, start, clock(), parent, True)
            stack.pop()
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, args, kwargs, result):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        start = time.monotonic()
        for key, value in counter(args, kwargs, result).items():
            if key in MAX_COUNTS:
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value
        self.spans[idx] = (COUNT_SPAN, start, time.monotonic(), parent, True)

    # -- installing -----------------------------------------------------

    def install(self):
        """Rebind every traced function and method to its wrapper."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}   # id(original) -> (original, wrapper)
        for short, names in TRACED_FUNCTIONS.items():
            for attr in names:
                fn = getattr(by_short[short], attr)
                span = "%s.%s" % (short, attr)
                wrappers[id(fn)] = (fn, self.wrap(span, fn,
                                                  COUNTERS.get(span)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for (short, cls_name), names in TRACED_METHODS.items():
            cls = getattr(by_short[short], cls_name)
            for attr in names:
                original = cls.__dict__[attr]
                self._rebound.append((cls, attr, original))
                # qseries.PowerSeries.__mul__ is recorded as
                # qseries.PowerSeries.mul
                span = "%s.%s.%s" % (short, cls_name, attr.strip("_"))
                setattr(cls, attr, self.wrap(span, original))

    def uninstall(self):
        """Put every original back, in reverse order of rebinding."""
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)


def bindings() -> dict:
    """Identity of every module-level name and traced class attribute of
    the package, for checking that a run leaves them untouched."""
    out = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
    for (short, cls_name), names in TRACED_METHODS.items():
        cls = getattr(sys.modules["%s.%s" % (PACKAGE, short)], cls_name)
        for attr in names:
            out[(short, cls_name, attr)] = id(cls.__dict__[attr])
    return out


# -- arithmetic on spans ------------------------------------------------


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: total_s (outermost calls only, so recursion is not
    counted twice), self_s, calls and ok (calls that returned)."""
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, parent, ok) in enumerate(spans):
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0,
                                      "calls": 0, "ok": 0})
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        entry["ok"] += 1 if ok else 0
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            entry["total_s"] += end - start
    return out
