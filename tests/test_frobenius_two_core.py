"""The fixed-precision ring split across two processes (frobenius._fork_map):
two column halves, each certifying its own scale, give the decomposition
one group gives, no child process outlives a solve, only a large fold
forks, and a fork, pipe or exit status that fails leaves the group to
this process.  selftest's registry split, the other caller, is tested in
test_cli."""

import errno
import os
import signal
import threading

import pytest

from padicfrob import cli, frobenius
from padicfrob.frobenius import solve_A_series
from padicfrob.mum import KNOWN_HYPEROCT_OPERATORS, MumOperator

from test_frobenius import _assert_slots_agree, _stored

DIGITS = 6
ONE_GROUP = float("inf")    # a TWO_CORE_WORK no fold reaches

# The ring's _ShortScale rerun: the one-group ring runs its sweep twice
# at p = 3 and three times at p = 5.  Split in halves, the first half
# certifies S_b + 2 at both, the second S_b at p = 3 and S_b + 1 at p = 5.
RERUN = MumOperator([[0, -9], [0, -15], [0, -7], [1, -1]])

SPLIT_CASES = [
    (family.operator(n), p, 10 * p, 1)
    for family in cli.FAMILIES.values() for n in range(3, 6)
    for p in (5, 7, 11, 13) if p > family.bound(n)
] + [(RERUN, 3, 15, 2), (RERUN, 5, 40, 3)]

# the benchmark's jobs with no deep solve, each at the top of its
# t-order range, where the fold is largest
SMALL_JOBS = [
    "recover --family simplicial --n 4 --p 31 --format json --t-order 620",
    "verify --family simplicial --n 5 --p 13 --t-order 390",
    "recover --family hyperoctahedral --n 5 --p 11 --format json "
    "--t-order 330",
    "verify --family simplicial --n 4 --p 7 --perturb alpha1 --t-order 280",
    "recover --family simplicial --n 3 --p 5 --format json --t-order 250",
    "verify --family hyperoctahedral --n 4 --p 7 --format table "
    "--t-order 280",
    "alpha --family hyperoctahedral --jmax 9 --p 31 --precision 48 "
    "--format json",
    "alpha --family hyperoctahedral --jmax 5 --p 7 --precision 12 "
    "--format json",
    "guess --family hyperoctahedral --n 5 --format json",
    "selftest --format json --seed 0",
]
# the deep-solve job at the bottom of its t-order range
DEEP_JOB = "verify --family hyperoctahedral --n 4 --p 7 --t-order 665"


class Injected(Exception):
    pass


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve(monkeypatch, gate, L, p, M):
    monkeypatch.setattr(frobenius, "TWO_CORE_WORK", gate)
    return solve_A_series(L, p, M, digits=DIGITS)


def _force_spare_core(monkeypatch, *modules):
    """A spare core in each module, so that a one-CPU host forks too."""
    for module in modules:
        monkeypatch.setattr(module, "_spare_core", lambda: True)


def _record_forks(monkeypatch):
    """os.fork replaced by one that records each call and raises OSError,
    so that every group runs in this process."""
    forks = []

    def refuse():
        forks.append(os.getpid())
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    return forks


@pytest.mark.parametrize("L,p,M,runs", SPLIT_CASES)
def test_two_groups_solve_as_one(L, p, M, runs, monkeypatch):
    # the same scale, slots and support as one group, and the exact-Q
    # solve's coefficients.  One group sweeps runs times; split, the
    # halves differ by at most one lane (27 and 28 at hyperoctahedral
    # n = 5, p = 11) and, where one group reruns, certify different
    # scales, so the lift to the larger one is exercised.
    sweeps, fork_map, sweep = [], frobenius._fork_map, frobenius._sweep
    monkeypatch.setattr(frobenius, "_sweep", lambda mat, init, stride, live,
                        fold, *rest: sweeps.append(fold)
                        or sweep(mat, init, stride, live, fold, *rest))
    _force_spare_core(monkeypatch, frobenius)
    one = _solve(monkeypatch, ONE_GROUP, L, p, M)
    assert sweeps.count(frobenius._accumulate) == runs
    calls = []

    def recording(run, groups):
        parts = fork_map(run, groups)
        calls.append(([len(group) for group in groups],
                      [scale for scale, _ in parts]))
        return parts

    monkeypatch.setattr(frobenius, "_fork_map", recording)
    two = _solve(monkeypatch, 0, L, p, M)
    _assert_no_child()
    [(sizes, scales)] = calls
    assert len(sizes) == 2 and max(sizes) - min(sizes) <= 1
    assert max(scales) == two.scale
    assert (scales[0] != scales[1]) == (runs > 1)
    assert _stored(two) == _stored(one)
    _assert_slots_agree(two, solve_A_series(L, p, M), M, DIGITS)


@pytest.mark.parametrize("rerun_fails", [False, True])
def test_a_failing_child_leaves_its_group_here(rerun_fails, monkeypatch):
    # the child's ring sweep raises; its group runs again in this process,
    # which gives the one-group result, or raises the child's exception
    # type where it fails here too
    L, p, M = KNOWN_HYPEROCT_OPERATORS[4], 7, 70
    want = _stored(_solve(monkeypatch, ONE_GROUP, L, p, M))
    here, calls = os.getpid(), []
    sweep = frobenius._sweep

    def failing(mat, init, stride, live, fold, finish, zero):
        if fold is frobenius._accumulate:
            calls.append(os.getpid())
            if os.getpid() != here or (rerun_fails and len(calls) > 1):
                raise Injected
        return sweep(mat, init, stride, live, fold, finish, zero)

    monkeypatch.setattr(frobenius, "_sweep", failing)
    _force_spare_core(monkeypatch, frobenius)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(here) or fork())
    if rerun_fails:
        with pytest.raises(Injected):
            _solve(monkeypatch, 0, L, p, M)
    else:
        assert _stored(_solve(monkeypatch, 0, L, p, M)) == want
    _assert_no_child()
    # group 0, then group 1 again here: the child ran, and failed
    assert forks == [here]
    assert calls == [here, here]


def test_a_refused_fork_runs_both_groups_here(monkeypatch):
    L, p, M = KNOWN_HYPEROCT_OPERATORS[4], 7, 70
    want = _stored(_solve(monkeypatch, ONE_GROUP, L, p, M))
    forks = _record_forks(monkeypatch)
    _force_spare_core(monkeypatch, frobenius)
    assert _stored(_solve(monkeypatch, 0, L, p, M)) == want
    assert forks == [os.getpid()]
    _assert_no_child()


@pytest.mark.parametrize("L,p,M", [(RERUN, 3, 15), (RERUN, 5, 40),
                                   (MumOperator([[0, -2], [0, 3], [1, -1]]),
                                    5, 39)])
def test_two_groups_rebuild_the_basis_as_one(L, p, M, monkeypatch):
    # with no headroom the first basis build holds only the slot digits,
    # so the ring builds it again for its R.  Split, each half rebuilds in
    # its own process (the parent's builds are recorded here), and the
    # halves give one group's result.  The fork is forced, so that a
    # one-CPU host runs the split too.
    monkeypatch.setattr(frobenius, "BASIS_HEADROOM", 0)
    _force_spare_core(monkeypatch, frobenius)
    builds, build = [], frobenius.residue_basis
    monkeypatch.setattr(frobenius, "residue_basis",
                        lambda *args: builds.append(args[-1])
                        or build(*args))
    one = _solve(monkeypatch, ONE_GROUP, L, p, M)
    assert builds[0] == DIGITS and len(builds) > 1
    builds.clear()
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid())
                        or fork())
    two = _solve(monkeypatch, 0, L, p, M)
    _assert_no_child()
    assert forks == [os.getpid()]
    assert builds[0] == DIGITS and len(builds) > 1
    assert _stored(two) == _stored(one)


def _refuse(name):
    def refuse(monkeypatch, request):
        def refused():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        monkeypatch.setattr(os, name, refused)
    return refuse


def _status_lost(monkeypatch, request):
    # SIGCHLD ignored: the kernel reaps the child itself, so waitpid waits
    # for it and then raises ChildProcessError.  The handler is restored
    # after the test.
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, old))


# a fork, pipe or exit status that _fork_map cannot have
PLUMBING_FAILURES = [_refuse("fork"), _refuse("pipe"), _status_lost]


@pytest.mark.parametrize("failure", PLUMBING_FAILURES,
                         ids=["fork", "pipe", "status"])
def test_failed_plumbing_runs_the_group_here(failure, monkeypatch, request):
    # the second group runs again in this process: the same result, no
    # pipe end left open and no child left
    here, ran, pipes, pipe = os.getpid(), [], [], os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe())
                        or pipes[-1])
    failure(monkeypatch, request)

    def run(group):
        ran.append(os.getpid())
        return [x * x for x in group]

    assert frobenius._fork_map(run, [[1, 2], [3]]) == [[1, 4], [9]]
    assert ran == [here, here]
    _assert_no_child()
    for fd in (fd for ends in pipes for fd in ends):
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("job", SMALL_JOBS)
def test_small_jobs_never_fork(job, monkeypatch, capsys):
    # every sweep and constants job, and each solve of the full selftest,
    # stays below TWO_CORE_WORK.  selftest forks once, to split its
    # registry; refused, both halves run here, so a solve that forked
    # would record a second fork
    forks = _record_forks(monkeypatch)
    _force_spare_core(monkeypatch, cli, frobenius)
    cli.main(job.split())
    capsys.readouterr()
    assert forks == ([os.getpid()] if job.startswith("selftest") else [])


def test_the_deep_solve_forks(monkeypatch, capsys):
    forks = _record_forks(monkeypatch)
    _force_spare_core(monkeypatch, frobenius)
    assert cli.main(DEEP_JOB.split()) == 0
    capsys.readouterr()
    assert forks == [os.getpid()]


@pytest.fixture
def second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _one_cpu(monkeypatch, request):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


def _no_fork(monkeypatch, request):
    monkeypatch.delattr(os, "fork", raising=False)


def _thread_alive(monkeypatch, request):
    request.getfixturevalue("second_thread")


@pytest.mark.parametrize("no_spare_core", [_one_cpu, _no_fork,
                                           _thread_alive])
def test_no_spare_core_never_forks(no_spare_core, monkeypatch, request):
    # a fold past the gate runs as one group where a child could not run
    # beside this process
    L, p, M = KNOWN_HYPEROCT_OPERATORS[4], 7, 70
    want = _stored(_solve(monkeypatch, ONE_GROUP, L, p, M))
    forks = _record_forks(monkeypatch)
    no_spare_core(monkeypatch, request)
    assert _stored(_solve(monkeypatch, 0, L, p, M)) == want
    assert forks == []
    _assert_no_child()
