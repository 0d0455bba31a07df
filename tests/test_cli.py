import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import padicfrob
from padicfrob import cli, frobenius
from padicfrob.cli import main
from padicfrob.frobenius import PrecisionExhausted
from padicfrob.mum import (
    GUESS_GUARD,
    KNOWN_HYPEROCT_OPERATORS,
    NoOperatorFound,
    apply_operator,
    period_series_hyperoctahedral,
    period_series_simplicial,
    simplicial_operator,
)
from padicfrob.padic_core import InconsistentSystem
from padicfrob.qseries import PowerSeries

from combinatorics import guess_sweep_in_t, operator_from_json
from test_frobenius_two_core import (
    PLUMBING_FAILURES,
    _assert_no_child,
    _force_spare_core,
    _record_forks,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alpha_simplicial_table(capsys):
    code, out, _ = run(capsys, "alpha", "--family", "simplicial", "--n", "4")
    assert code == 0
    assert "alpha_3 = -8/25 * z3" in out
    assert "alpha_1 = 0" in out


def test_alpha_hyperoct_table(capsys):
    code, out, _ = run(capsys, "alpha", "--family", "hyperoctahedral",
                       "--jmax", "9")
    assert code == 0
    assert "-(18*z9 + z3^3)/162" in out
    assert "1/18 * z3^2" in out
    assert "1/15 * z3*z5" in out


def test_alpha_usage_error(capsys):
    code, _, err = run(capsys, "alpha", "--family", "simplicial", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


@pytest.mark.parametrize("order, bound", [
    (["--jmax", "4", "--p", "5"], "need p > 5 for the hyperoctahedral "
                                  "family at n = 5"),
    (["--n", "5", "--p", "5"], "need p > 5 for the hyperoctahedral "
                               "family at n = 5"),
    (["--jmax", "3", "--p", "3"], "need p > 4 for the hyperoctahedral "
                                  "family at n = 4"),
])
def test_alpha_checks_prime_at_order_of_constants(capsys, order, bound):
    # alpha_1..alpha_J belong to the order n = J + 1, whether --jmax or
    # --n gives it
    code, out, err = run(capsys, "alpha", "--family", "hyperoctahedral",
                         *order)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % bound


def test_alpha_refuses_n_that_disagrees_with_jmax(capsys):
    # --n 5 --jmax 2 printed the jmax-2 constants and exited 0
    code, out, err = run(capsys, "alpha", "--family", "hyperoctahedral",
                         "--n", "5", "--jmax", "2")
    assert (code, out) == (2, "")
    assert err == ("error: --n 5 and --jmax 2 disagree: alpha_1..alpha_2 "
                   "belong to n = 3\n")
    both = run(capsys, "alpha", "--family", "hyperoctahedral", "--n", "3",
               "--jmax", "2")
    assert both == run(capsys, "alpha", "--family", "hyperoctahedral",
                       "--jmax", "2")
    assert both[0] == 0 and "alpha_2 = " in both[1]


@pytest.mark.parametrize("n", ["2", "4"])
def test_alpha_rejects_precision_below_one(capsys, n):
    # at n = 2 every alpha is 0, so no zeta value would catch it
    code, out, err = run(capsys, "alpha", "--family", "simplicial", "--n", n,
                         "--p", "7", "--precision", "-3")
    assert code == 2
    assert out == ""
    assert "need precision >= 1" in err
    # without --p no constant is evaluated, and the value is refused alike
    for value in ("0", "-3"):
        code, out, err = run(capsys, "alpha", "--family", "simplicial",
                             "--n", n, "--precision", value)
        assert (code, out) == (2, "")
        assert "need precision >= 1" in err


def test_alpha_answers_every_admitted_prime(capsys):
    # zeta_p(m) for odd m < p-1 at any precision: no node-cap refusal
    code, out, err = run(capsys, "alpha", "--family", "hyperoctahedral",
                         "--p", "11")
    assert (code, err) == (0, "")
    assert "alpha_9 = -(18*z9 + z3^3)/162 = " in out
    refused = []
    for family, fam in cli.FAMILIES.items():
        for n in range(2, 13):
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if p <= fam.bound(n):
                    continue
                for N in ("12", "24"):
                    argv = ("alpha", "--family", family, "--n", str(n),
                            "--p", str(p), "--precision", N)
                    code, _, err = run(capsys, *argv)
                    if code:
                        refused.append((argv, err))
    assert refused == []


def test_alpha_json_numeric(capsys):
    code, out, _ = run(capsys, "alpha", "--family", "simplicial", "--n", "4",
                       "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "simplicial"
    assert payload["alphas"][0]["numeric"] == {"exact": "0"}
    a3 = payload["alphas"][2]
    assert a3["symbolic"] == "-8/25 * z3"
    assert a3["numeric"]["residue"] % 7 != 0


def test_verify_integral(capsys):
    code, out, _ = run(capsys, "verify", "--family", "simplicial", "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "integral"
    assert report["min_valuation"] == 0
    assert report["M"] == 70 and report["p"] == 7


def test_verify_integral_past_the_node_cap(capsys):
    # zeta_11(7) mod 11^24 lies past the interpolation oracle's node cap
    code, out, _ = run(capsys, "verify", "--family", "simplicial", "--n", "8",
                       "--p", "11", "--precision", "24")
    assert code == 0
    assert json.loads(out)["verdict"] == "integral"


def test_verify_perturbed_alpha1(capsys):
    code, out, _ = run(capsys, "verify", "--family", "simplicial", "--n", "4",
                       "--perturb", "alpha1", "--t-order", "40")
    assert code == 1
    assert json.loads(out)["verdict"] == "non-integral"


def test_verify_perturb_set_form(capsys):
    # alpha_1 = 0 is the true value, so setting it must stay integral
    code, out, _ = run(capsys, "verify", "--family", "simplicial", "--n", "4",
                       "--perturb", "alpha1=0", "--t-order", "40")
    assert code == 0
    assert json.loads(out)["verdict"] == "integral"


def test_verify_perturb_zero_denominator(capsys):
    code, out, err = run(capsys, "verify", "--family", "simplicial", "--n",
                         "4", "--p", "7", "--perturb", "alpha1=1/0")
    assert code == 2
    assert out == ""
    assert err == "error: --perturb alpha1=1/0: zero denominator\n"


def test_verify_bad_prime(capsys):
    code, _, err = run(capsys, "verify", "--family", "simplicial", "--n", "4",
                       "--p", "5")
    assert code == 2
    assert "p > 5" in err
    code, _, _ = run(capsys, "verify", "--family", "simplicial", "--n", "4",
                     "--p", "9")
    assert code == 2


@pytest.mark.parametrize("command", ["alpha", "verify"])
def test_family_rejects_non_odd_prime(capsys, command):
    for p in ("9", "2"):
        code, out, err = run(capsys, command, "--family", "simplicial",
                             "--n", "4", "--p", p)
        assert (code, out) == (2, "")
        assert err == "error: p = %s is not an odd prime\n" % p


def test_verify_table_format(capsys):
    code, out, _ = run(capsys, "verify", "--family", "hyperoctahedral",
                       "--n", "4", "--t-order", "30", "--format", "table")
    assert code == 0
    assert "verdict: integral" in out


def test_verify_precision_exhausted_exit(capsys, monkeypatch):
    def boom(*a, **k):
        raise PrecisionExhausted(2, 14)
    monkeypatch.setattr(cli, "check_integrality", boom)
    code, _, err = run(capsys, "verify", "--family", "simplicial", "--n", "4",
                       "--t-order", "20")
    assert code == 3
    assert "precision exhausted" in err


def test_low_precision_answers_as_exact(capsys, monkeypatch):
    # 3 digits on the alphas leave the fixed-precision slots short of
    # what the report prints, so the CLI decides on the exact slots
    argv = ("--family", "simplicial", "--n", "4", "--precision", "3")
    got = [run(capsys, cmd, *argv) for cmd in ("verify", "recover")]
    exact = cli.solve_A_series

    def exact_only(L, p, M, digits=None):
        return exact(L, p, M)

    monkeypatch.setattr(cli, "solve_A_series", exact_only)
    want = [run(capsys, cmd, *argv) for cmd in ("verify", "recover")]
    assert got == want
    assert [code for code, _, _ in got] == [0, 0]


def test_recover_simplicial(capsys):
    code, out, _ = run(capsys, "recover", "--family", "simplicial",
                       "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponents"][0] >= 2
    assert payload["representative"][0] % 7 ** payload["exponents"][0] == 0
    assert payload["closed_form"][0]["match"] is True
    assert payload["closed_form"][1]["match"] is None


def test_recover_inconsistent_exit(capsys, monkeypatch):
    def boom(*a, **k):
        raise InconsistentSystem(0)
    monkeypatch.setattr(cli, "recover_alpha", boom)
    code, _, err = run(capsys, "recover", "--family", "simplicial",
                       "--n", "4", "--t-order", "20")
    assert code == 4
    assert "inconsistent" in err


# the exit code main documents for each public exception class of the
# package; a class added to any module must be added here
EXIT_CODES = {
    "AmbiguousNullspace": 5, "BadConstantTerm": 2, "BadPrime": 2,
    "BoxTooLarge": 2, "InconsistentSystem": 4, "InsufficientOrder": 2,
    "LevelTooLarge": 2, "NoOperatorFound": 5, "NonUnitConstantTerm": 2,
    "NotMUM": 2, "PrecisionBudgetExceeded": 2, "PrecisionError": 2,
    "PrecisionExhausted": 3, "UsageError": 2,
}


def _public_exceptions() -> dict:
    """Every exception class a padicfrob module defines, by name, but
    the private ones."""
    found = {}
    for info in pkgutil.iter_modules(padicfrob.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("padicfrob." + info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__ \
                    and not name.startswith("_"):
                found[name] = obj
    return found


def test_every_public_exception_has_an_exit_code():
    assert sorted(_public_exceptions()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES) + ["OSError"])
def test_exception_exits_with_its_code_and_one_line(capsys, monkeypatch,
                                                    name):
    cls = _public_exceptions().get(name, OSError)
    exc = cls(2, 14) if cls is PrecisionExhausted else \
        cls(3) if cls is InconsistentSystem else cls("boom")

    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "_family_job", boom)
    code, out, err = run(capsys, "verify", "--family", "simplicial",
                         "--n", "4")
    assert code == EXIT_CODES.get(name, 2)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_guess_hyperoct_matches_printed(capsys):
    code, out, _ = run(capsys, "guess", "--family", "hyperoctahedral",
                       "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_printed"] is True
    want = json.loads(KNOWN_HYPEROCT_OPERATORS[4].to_json())
    assert payload["operator"] == want


@pytest.mark.parametrize("n", [6, 7])
def test_guess_hyperoct_beyond_printed(capsys, n):
    # no printed operator: the guess must annihilate the period series
    # 20 terms past the mod t^(2 need) the guess saw
    code, out, _ = run(capsys, "guess", "--family", "hyperoctahedral",
                       "--n", str(n), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_printed"] is None
    op = operator_from_json(json.dumps(payload["operator"]))
    assert op.order == n and op.is_mum_normalized()
    M = 2 * ((n + 1) * (n + 2) + GUESS_GUARD) + 20
    image = apply_operator(op, period_series_hyperoctahedral(n, M))
    assert all(image.known(c) == 0 for c in range(M))


@pytest.mark.parametrize("n", range(2, 9))
def test_guess_hyperoct_annihilates_its_full_series(capsys, n):
    # the sweep fits T = t^2 mod T^((n+1)(d+1) + GUESS_GUARD) but has the
    # series mod t^(2((n+1)(n+2) + GUESS_GUARD)); what it prints kills all
    # of it
    code, out, _ = run(capsys, "guess", "--family", "hyperoctahedral",
                       "--n", str(n), "--format", "json")
    assert code == 0
    op = operator_from_json(json.dumps(json.loads(out)["operator"]))
    M = 2 * ((n + 1) * (n + 2) + GUESS_GUARD)
    assert apply_operator(op, period_series_hyperoctahedral(n, M)).is_zero()


@pytest.mark.parametrize("n", range(2, 11))
def test_guess_lattice_matches_the_t_sweep(n):
    # wherever the sweep in t has a one-dimensional nullspace, the fit
    # on the lattice finds the same operator at the same degree
    f = period_series_hyperoctahedral(n, (n + 1) * (2 * n + 3) + GUESS_GUARD)
    assert cli._guess_family("hyperoctahedral", n) == \
        guess_sweep_in_t(f, n, 2 * n + 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_guess_simplicial_gives_its_operator(capsys, n):
    # in t the degree-0 fit on a series in t^(n+1) is ambiguous from
    # n = 4 on; on the lattice it is unique at T-degree 1
    code, out, _ = run(capsys, "guess", "--family", "simplicial",
                       "--n", str(n), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == n + 1
    op = operator_from_json(json.dumps(payload["operator"]))
    assert op == simplicial_operator(n)


@pytest.mark.parametrize("n, degree", [(11, 12), (12, 12), (13, 14)])
def test_guess_hyperoct_answers_past_the_t_sweep(capsys, n, degree):
    # the sweep in t exits 5 here; on the lattice the guess answers, and
    # its operator kills the series far past the fit's window
    code, out, _ = run(capsys, "guess", "--family", "hyperoctahedral",
                       "--n", str(n), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == degree
    op = operator_from_json(json.dumps(payload["operator"]))
    assert apply_operator(op, period_series_hyperoctahedral(n, 600)).is_zero()


@pytest.mark.parametrize("family", ["simplicial", "hyperoctahedral"])
def test_guess_family_sweeps_to_degree_2n_plus_2(monkeypatch, family):
    # a family series with no annihilator, on the family's lattice: the
    # sweep fits every T-degree up to coefficient degree 2n + 2 = 8
    g = cli.FAMILIES[family].step(3)
    junk = cli.FAMILIES[family].replace(series=lambda n, M: PowerSeries(
        [(7 * m * m + 3) % 97 + 1 if m % g == 0 else 0 for m in range(M)],
        M))
    monkeypatch.setitem(cli.FAMILIES, family, junk)
    with pytest.raises(NoOperatorFound,
                       match="^no order-3 annihilator with coefficient "
                             "degree <= 8$"):
        cli._guess_family(family, 3)


@pytest.mark.parametrize("n, p", [(6, 7), (11, 13)])
def test_verify_runs_on_a_guessed_hyperoct_operator(capsys, n, p):
    code, out, _ = run(capsys, "verify", "--family", "hyperoctahedral",
                       "--n", str(n), "--p", str(p), "--t-order", "60")
    assert code == 0
    assert json.loads(out)["verdict"] == "integral"


def test_recover_runs_on_a_guessed_hyperoct_operator(capsys):
    code, out, _ = run(capsys, "recover", "--family", "hyperoctahedral",
                       "--n", "6", "--p", "7", "--t-order", "60",
                       "--format", "json")
    assert code == 0
    rows = [r for r in json.loads(out)["closed_form"] if r["exponent"]]
    assert rows and all(r["match"] is True for r in rows)


def _series_file(tmp_path, series: list, n: int = 2) -> str:
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"n": n, "series": series}))
    return str(path)


def _simplicial_2_terms(count: int) -> list:
    f = period_series_simplicial(2, count)
    return [str(f.known(c)) for c in range(count)]


def test_guess_refuses_an_operator_fitted_on_too_few_terms(capsys, tmp_path):
    # a nonzero t^46 puts the series off any lattice (g = 1): the sweep
    # in t fits simplicial_operator(2) mod t^22, and only the check on
    # every known coefficient sees the t^46 term it leaves
    series = _simplicial_2_terms(48)
    series[46] = "1"
    code, out, err = run(capsys, "guess", "--family", "file",
                         "--operator-file", _series_file(tmp_path, series))
    assert (code, out) == (5, "")
    assert err == ("error: no annihilator: the degree-3 operator fitted mod "
                   "t^22 leaves a nonzero t^46 term\n")


def test_guess_names_an_ambiguous_constant_fit(capsys, tmp_path):
    # theta and theta^2 both kill 1; its only nonzero degree is 0, which
    # fits in t (g = 1), and the degree-0 nullspace is a pencil
    path = _series_file(tmp_path, [1] + [0] * 39)
    code, out, err = run(capsys, "guess", "--family", "file",
                         "--operator-file", path)
    assert (code, out) == (5, "")
    assert err == ("error: no unique order-2 annihilator: at coefficient "
                   "degree 0, 13 equations leave nullspace dimension 2\n")


@pytest.mark.parametrize("n, dim", [(4, 2), (5, 3), (6, 4)])
def test_guess_names_an_ambiguous_fit(capsys, tmp_path, n, dim):
    # a constant-coefficient operator kills 1 + t + t^2 iff its symbol
    # vanishes at 0, 1, 2: of the n + 1 symbol coefficients, three are
    # pinned and the degree-0 nullspace keeps dimension n - 2
    path = _series_file(tmp_path, [1, 1, 1] + [0] * 60, n=n)
    code, out, err = run(capsys, "guess", "--family", "file",
                         "--operator-file", path)
    assert (code, out) == (5, "")
    assert err == ("error: no unique order-%d annihilator: at coefficient "
                   "degree 0, %d equations leave nullspace dimension %d\n"
                   % (n, n + 1 + GUESS_GUARD, dim))


def test_guess_junk_series(capsys, tmp_path):
    # off any lattice; need(d) = 3(d+1) + 10 reaches 28 terms at d = 5
    path = _series_file(tmp_path, [1, 3, 7, 19, 2, 5, 11, 4, 9, 6, 13, 8, 1,
                                   2, 17, 3, 5, 21, 7, 1, 4, 9, 2, 6, 8, 3, 1,
                                   5])
    code, out, err = run(capsys, "guess", "--family", "file",
                         "--operator-file", path)
    assert (code, out) == (5, "")
    assert err == ("error: no order-2 annihilator with coefficient degree "
                   "<= 5\n")


def test_guess_from_series_file(capsys, tmp_path):
    # 48 terms in t^3: 16 lattice terms, the T-degree-1 fit's need
    path = _series_file(tmp_path, _simplicial_2_terms(48))
    code, out, _ = run(capsys, "guess", "--family", "file",
                       "--operator-file", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_printed"] is None
    assert payload["degree"] == 3
    got = payload["operator"]["coeffs"]
    assert got[-1][0] == "1"  # normalized leading coefficient
    assert operator_from_json(json.dumps(payload["operator"])) == \
        simplicial_operator(2)


def test_guess_names_the_t_order_a_short_series_needs(capsys, tmp_path):
    # 40 terms hold 14 lattice terms: the T-degree-0 fit runs, the
    # degree-1 fit needs 16 of them, t^48
    path = _series_file(tmp_path, _simplicial_2_terms(40))
    code, out, err = run(capsys, "guess", "--family", "file",
                         "--operator-file", path)
    assert (code, out) == (2, "")
    assert err == ("error: series known mod t^40 is too short to guess an "
                   "order-2 operator: the fit at coefficient degree 3 needs "
                   "t^48\n")


def test_guess_missing_file_args(capsys):
    code, _, _ = run(capsys, "guess", "--family", "file")
    assert code == 2


def test_guess_refuses_operator_file_of_a_built_in_family(capsys):
    # the file was never opened: the job exited 0 on the family's series
    code, out, err = run(capsys, "guess", "--family", "hyperoctahedral",
                         "--n", "5", "--operator-file", "/nonexistent")
    assert (code, out) == (2, "")
    assert err == "error: --operator-file applies to --family file\n"


@pytest.mark.parametrize("field, value", [
    ("n", "2"), ("n", 2.5), ("n", True), ("series", "1234567890" * 4),
    ("series", []), ("series", ["1/0"])])
def test_guess_malformed_operator_file(capsys, tmp_path, field, value):
    payload = {"n": 2, "series": list(range(1, 41))}
    payload[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "guess", "--family", "file",
                       "--operator-file", str(path))
    assert code == 2
    assert "operator file" in err


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert "0 failed" in out
    assert "PASS integrality-negative-control" in out
    assert "PASS gamma-ratio-negative-control" in out


def test_selftest_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--quick", "--format", "json",
                         "--seed", "7")
    code2, out2, _ = run(capsys, "selftest", "--quick", "--format", "json",
                         "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 7
    assert payload["failures"] == 0


FROZEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "expected_stdout.json").read_text())


@pytest.mark.parametrize("job", sorted(FROZEN))
def test_frozen_job_matches_bytes(capsys, job):
    # the sha256 the benchmark's correctness gate holds for each job; the
    # perturbed verify reports non-integral and exits 1
    code, out, _ = run(capsys, *job.split())
    assert code == (1 if "--perturb" in job else 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN[job]


@pytest.mark.parametrize("failure", PLUMBING_FAILURES,
                         ids=["fork", "pipe", "status"])
def test_failed_plumbing_keeps_the_bytes(capsys, monkeypatch, request,
                                         failure):
    # selftest's registry split and the deep-solve job's ring halves, run
    # here where a fork, its pipe or its exit status fails: the same
    # bytes and exit code.  Both split on any host.
    quick = ["selftest", "--quick", "--format", "json"]
    want = run(capsys, *quick)
    job = "verify --family hyperoctahedral --n 4 --p 7 --t-order 695"
    _force_spare_core(monkeypatch, cli, frobenius)
    failure(monkeypatch, request)
    assert run(capsys, *quick) == want and want[0] == 0
    code, out, _ = run(capsys, *job.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN[job]
    _assert_no_child()


def test_traced_names_resolve(monkeypatch):
    # perfbench/spans.py, read without writing a bytecode cache, names
    # the functions and class methods that run.py --trace 1 rebinds; each
    # must still exist where it names it, or a moved name breaks tracing
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for short, names in spans.TRACED_FUNCTIONS.items():
        module = importlib.import_module("padicfrob." + short)
        for name in names:
            assert callable(getattr(module, name, None)), (short, name)
    for (short, cls_name), names in spans.TRACED_METHODS.items():
        cls = getattr(importlib.import_module("padicfrob." + short),
                      cls_name)
        for name in names:
            assert name in vars(cls), (short, cls_name, name)


def test_selftest_failure_path(capsys, monkeypatch):
    def seeded(seed, mode):
        return seed == 3 and mode == "full", "seed %d, %s" % (seed, mode)

    def fails():
        return False, "bad value"

    def raises():
        raise ValueError("boom")

    for fn, detail in ((fails, "bad value"), (raises, "ValueError: boom")):
        monkeypatch.setattr(cli, "SELFTEST_CHECKS", [
            ("seeded", seeded, {"seed": cli.SEED, "mode": "quick"},
             {"seed": cli.SEED, "mode": "full"}),
            ("broken", fn, {}, {})])
        code, out, _ = run(capsys, "selftest", "--seed", "3")
        assert code == 1
        assert "PASS seeded (" in out
        assert "FAIL broken: %s (" % detail in out
        assert "1 passed, 1 failed (seed 3, full mode)" in out
        code, out, _ = run(capsys, "selftest", "--seed", "3",
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["failures"] == 1
        assert payload["checks"][1] == {"name": "broken", "status": "fail",
                                        "detail": detail}


def _fork_recorded(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid())
                        or fork())
    return forks


def _no_spare_core(monkeypatch):
    forks = _fork_recorded(monkeypatch)
    monkeypatch.setattr(cli, "_spare_core", lambda: False)
    return forks


# how selftest's registry halves run, and the forks each way asks for
SELFTEST_SPLITS = ((_fork_recorded, 1), (_record_forks, 1),
                   (_no_spare_core, 0))


def _selftest_each_way(capsys, monkeypatch, *argv):
    """(exit code, stdout, counts) of selftest run each way of
    SELFTEST_SPLITS, where counts are the lengths of the entry lists
    this process ran _run_checks on."""
    outputs = []
    for split, want_forks in SELFTEST_SPLITS:
        with monkeypatch.context() as patch:
            # _no_spare_core takes the forced spare core away again
            _force_spare_core(patch, cli)
            forks, counts = split(patch), []
            run_checks = cli._run_checks
            patch.setattr(cli, "_run_checks", lambda entries, *rest:
                          counts.append(len(entries))
                          or run_checks(entries, *rest))
            code, out, _ = run(capsys, "selftest", *argv)
        _assert_no_child()
        assert forks == [os.getpid()] * want_forks
        outputs.append((code, out, counts))
    return outputs


@pytest.mark.parametrize("quick", [[], ["--quick"]])
def test_selftest_split_gives_the_same_bytes(capsys, monkeypatch, quick):
    # forked, refused a fork, or with no spare core: the same JSON.  A
    # forked child runs the second half, so this process runs only the
    # first; otherwise it runs both halves
    half = cli.SELFTEST_SPLIT
    rest = len(cli.SELFTEST_CHECKS) - half
    assert 0 < half < len(cli.SELFTEST_CHECKS)
    (code, out, counts), *others = _selftest_each_way(
        capsys, monkeypatch, *quick, "--format", "json", "--seed", "7")
    assert code == 0 and json.loads(out)["failures"] == 0
    assert counts == [half]
    assert [(c, o) for c, o, _ in others] == [(code, out)] * 2
    assert [n for _, _, n in others] == [[half, rest]] * 2


def test_selftest_failure_crosses_the_split(capsys, monkeypatch):
    # a failing entry in the first half and a raising one in the second,
    # which a forked child runs: the same lines, details and exit code
    # come back every way
    def seeded(seed, mode):
        return seed == 3 and mode == "full", "seed %d, %s" % (seed, mode)

    def fails():
        return False, "bad value"

    def raises():
        raise ValueError("boom")

    def seeded_entry(name):
        return (name, seeded, {"seed": cli.SEED, "mode": "quick"},
                {"seed": cli.SEED, "mode": "full"})

    monkeypatch.setattr(cli, "SELFTEST_CHECKS", [
        seeded_entry("seeded"), ("broken", fails, {}, {}),
        seeded_entry("seeded-again"), ("raising", raises, {}, {})])
    monkeypatch.setattr(cli, "SELFTEST_SPLIT", 2)
    tables = _selftest_each_way(capsys, monkeypatch, "--seed", "3")
    for code, out, _ in tables:
        assert code == 1
        assert "FAIL broken: bad value (" in out
        assert "FAIL raising: ValueError: boom (" in out
        assert out.endswith("2 passed, 2 failed (seed 3, full mode)\n")
    assert [counts for _, _, counts in tables] == [[2], [2, 2], [2, 2]]
    outputs = _selftest_each_way(capsys, monkeypatch, "--seed", "3",
                                 "--format", "json")
    assert [(code, out) for code, out, _ in outputs] == [outputs[0][:2]] * 3
    payload = json.loads(outputs[0][1])
    assert payload["failures"] == 2
    assert [(c["name"], c["status"], c["detail"])
            for c in payload["checks"]] == [
        ("seeded", "pass", "seed 3, full"),
        ("broken", "fail", "bad value"),
        ("seeded-again", "pass", "seed 3, full"),
        ("raising", "fail", "ValueError: boom")]


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, options, default_format", [
    ("alpha", ["--family", "--n", "--p", "--precision", "--jmax"], "table"),
    ("verify", ["--family", "--n", "--p", "--t-order", "--precision",
                "--perturb"], "json"),
    ("recover", ["--family", "--n", "--p", "--t-order", "--precision"],
     "table"),
    ("guess", ["--family", "--n", "--operator-file"], "table"),
    ("selftest", ["--seed", "--quick"], "table")])
def test_parser_options_in_help_order(command, options, default_format):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = [a.option_strings for a in sub.choices[command]._actions]
    assert got == [["-h", "--help"]] + [[o] for o in options] + [["--format"]]
    assert parser.parse_args([command]).format == default_format


def test_parser_rejects_option_of_another_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jmax", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jmax 3" in capsys.readouterr().err


# tokens of the option tables, and malformed ones argparse must answer
ARGV_HEADS = [c[0] for c in cli.COMMANDS] + ["verif", "-h", "", "--n"]
ARGV_VALUES = ["3", "5", "7", "12", "0", " 4", "table", "json", "simplicial",
               "hyperoctahedral", "file", "alpha1", "alpha2=1/3", "s.json"]
ARGV_MALFORMED = ["--prec", "--n=4", "--", "-h", "--help", "-3", "", "0x10",
                  "4.5", "csv", "cubic", "verify"]


def test_fast_path_agrees_with_argparse():
    # wherever _parse_fast accepts an argv, argparse accepts it and gives
    # the same namespace; it declines the rest, which argparse answers
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    options = sorted(cli.OPTIONS)
    piece = st.one_of(
        st.tuples(st.sampled_from(options),
                  st.sampled_from(ARGV_VALUES + ARGV_MALFORMED)),
        st.tuples(st.sampled_from(options + ARGV_MALFORMED + ARGV_VALUES)))
    argvs = st.builds(lambda head, pieces: [head] + [t for p in pieces
                                                    for t in p],
                      st.sampled_from(ARGV_HEADS),
                      st.lists(piece, max_size=6))
    accepted = []

    @hypothesis.settings(max_examples=1500, deadline=None, database=None)
    @hypothesis.given(argvs)
    def agree(argv):
        fast = cli._parse_fast(argv)
        if fast is not None:
            accepted.append(argv)
            assert vars(fast) == vars(cli.build_parser().parse_args(argv))

    agree()
    assert accepted


def _readme_examples() -> list:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line.split()[1:] for line in readme.splitlines()
            if line.startswith("padicfrob ")]


@pytest.mark.parametrize("argv", [job.split() for job in sorted(FROZEN)]
                         + _readme_examples(), ids=" ".join)
def test_jobs_take_the_fast_path(argv):
    # the benchmark's frozen jobs and the README's examples parse without
    # argparse, to the namespace argparse gives
    fast = cli._parse_fast(argv)
    assert fast is not None
    assert vars(fast) == vars(cli.build_parser().parse_args(argv))


def test_fast_path_declines_keywords_it_does_not_read(capsys, monkeypatch):
    # an option table entry only argparse understands sends the job there
    monkeypatch.setitem(cli.OPTIONS, "--n", {"type": int, "default": 4})
    argv = ["alpha", "--family", "simplicial"]
    assert cli._parse_fast(argv) is None
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("family: simplicial, n = 4\n")


FALLBACK = json.loads((Path(__file__).resolve().parent
                       / "cli_fallback.json").read_text())


@pytest.mark.parametrize("record", FALLBACK,
                         ids=[" ".join(r["argv"]) or "[]" for r in FALLBACK])
def test_fallback_keeps_argparse_bytes(record):
    # help and usage errors, recorded from the CLI before the fast path
    # (identical on Python 3.10 to 3.13), at a fixed terminal width
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "padicfrob",
                           *record["argv"]],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        record["exit"], record["stdout"], record["stderr"])


def test_cli_start_up_imports_no_dataclasses():
    # in an isolated interpreter, as the benchmark runs its jobs, the
    # CLI and one verify load none of the dataclass decorator's chain,
    # and a valid command line parses without argparse or gettext
    src = str(Path(__file__).resolve().parents[1] / "src")
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize",
             "argparse", "gettext", "locale")
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "sys.path.insert(0, %r)" % src,
        "from padicfrob import cli",
        "code = cli.main(['verify', '--family', 'simplicial', '--n', '3',"
        " '--p', '5', '--t-order', '40', '--format', 'json'])",
        "print(code, [m for m in %r if m in set(sys.modules) - before])"
        % (heavy,)])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_module_entry_point():
    # pytest's pythonpath setting reaches this process only, so hand the
    # checkout's src/ to the child explicitly
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "padicfrob", "alpha", "--family",
         "simplicial", "--n", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "alpha_3 = -35/108 * z3" in proc.stdout
