"""Run one padicfrob CLI job in this process and report on it.

Usage: python3 -I perfbench/job.py [--trace] [--probe] -- CLI-ARGS...

Imports ``padicfrob`` from the ``src`` directory next to this
benchmark, calls ``padicfrob.cli.main(CLI-ARGS)`` with its stdout
captured, and prints one JSON record: exit code, captured stdout, the
monotonic times at which ``cli.main`` was entered and left, peak RSS,
the wall times of ``reference_task`` taken around and during an
untraced ``cli.main``, and with ``--trace`` the spans and counts.
``--probe`` stops once ``padicfrob`` is imported, so it measures set-up
alone.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REF_SIZE = 120          # about 20 ms on a 2023 Xeon
REF_PERIOD_S = 0.4      # wall time between samples during cli.main
REF_BRACKET = 3         # samples just before and just after cli.main


def import_cli():
    """padicfrob.cli from this checkout's src; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "padicfrob", "__init__.py")):
        raise SystemExit("perfbench: no padicfrob sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from padicfrob import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported padicfrob from %s, not %s"
                         % (cli.__file__, SRC))
    return cli


def reference_task(size: int = REF_SIZE) -> float:
    """Wall time of a fixed stdlib computation: a triangular recurrence
    over exact Fractions, the shape of the solve's inner loop.  The
    host's speed drifts by up to half over tens of seconds; a job's
    time divided by this one, taken over the same seconds in the same
    process, does not.  It uses nothing from padicfrob, so no change
    to the package can move it, and it runs with the garbage collector
    off, so the job's heap does not slow it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return _reference(size)
    finally:
        if gc_was_on:
            gc.enable()


def _reference(size: int) -> float:
    t0 = time.perf_counter()
    coeffs = [Fraction((7 * d * d + 3) % 97 - 40, d % 13 + 1)
              for d in range(size)]
    sol = []
    for c in range(size):
        acc = Fraction(c * c + 1, c + 2)
        for d in range(3, c + 1, 3):
            acc -= coeffs[d] * sol[c - d]
        sol.append(acc / 7)
    return time.perf_counter() - t0


class ReferenceSampler:
    """Times ``reference_task`` REF_BRACKET times on ``start``, every
    REF_PERIOD_S of wall time until ``stop`` (from a SIGALRM handler,
    which runs between two bytecodes of the job), and REF_BRACKET times
    after ``stop``.  ``in_job_s`` is the time the samples took between
    ``start`` and ``stop``, to be taken off the job's time."""

    def __init__(self):
        self.samples = []
        self.in_job_s = 0.0
        self._old_handler = None

    def _tick(self, signum, frame):
        t = reference_task()
        self.samples.append(t)
        self.in_job_s += t

    def start(self):
        self.samples += [reference_task() for _ in range(REF_BRACKET)]
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.samples += [reference_task() for _ in range(REF_BRACKET)]


def run_job(cli, argv: list, trace: bool) -> dict:
    """Call cli.main(argv) with stdout captured; with trace, under a
    Tracer that is uninstalled before returning, else with a
    ReferenceSampler running.  ``t_exit - t_enter - ref_in_job_s`` is
    the job's own time."""
    tracer = None
    sampler = None if trace else ReferenceSampler()
    if trace:
        if HERE not in sys.path:
            sys.path.insert(0, HERE)
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if sampler is not None:
                sampler.start()
            t_enter = time.monotonic()
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            t_exit = time.monotonic()
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    record = {"exit": code, "stdout": out.getvalue(),
              "t_enter": t_enter, "t_exit": t_exit,
              "ref_s": sampler.samples if sampler else [],
              "ref_in_job_s": sampler.in_job_s if sampler else 0.0}
    if tracer is not None:
        zeta = sys.modules["padicfrob.zeta_gamma"].zetap_interpolated
        info = zeta.cache_info()
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts,
                                zeta_cache_hits=info.hits,
                                zeta_cache_misses=info.misses)
    return record


def main(args: list) -> int:
    if "--" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    split = args.index("--")
    flags, argv = args[:split], args[split + 1:]
    cli = import_cli()
    t_ready = time.monotonic()
    if "--probe" in flags:
        record = {"exit": 0, "stdout": "", "t_enter": t_ready,
                  "t_exit": t_ready, "ref_s": [], "ref_in_job_s": 0.0}
    else:
        record = run_job(cli, argv, "--trace" in flags)
    record["t_ready"] = t_ready
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(record))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
