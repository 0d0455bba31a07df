"""Tests of the benchmark harness itself (stdlib unittest).

Run from the repository root:
  python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import job  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CLI = job.import_cli()


def traced_originals():
    """Every traced function object, as the package defines it."""
    out = []
    for short, names in spans.TRACED_FUNCTIONS.items():
        mod = sys.modules["padicfrob." + short]
        out += [getattr(mod, name) for name in names]
    return out


class SpanArithmetic(unittest.TestCase):
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child g
    # [2, 3]; b calls itself over [6, 8]; x [8, 12] overruns root.
    TREE = [
        ("root", 0.0, 10.0, -1, True),
        ("a", 1.0, 4.0, 0, True),
        ("g", 2.0, 3.0, 1, True),
        ("b", 5.0, 9.0, 0, True),
        ("b", 6.0, 8.0, 3, False),
    ]

    def test_self_times(self):
        self.assertEqual(spans.self_times(self.TREE),
                         [3.0, 2.0, 1.0, 2.0, 2.0])

    def test_self_times_sum_to_root(self):
        self.assertEqual(sum(spans.self_times(self.TREE)), 10.0)

    def test_child_clipped_to_parent(self):
        tree = [("root", 0.0, 10.0, -1, True), ("x", 8.0, 12.0, 0, True),
                ("y", 1.0, 3.0, 0, True), ("z", 2.0, 4.0, 0, True)]
        # covered part of root: [1, 4] and [8, 10]
        self.assertEqual(spans.self_times(tree)[0], 5.0)

    def test_summarize_counts_recursion_once(self):
        summary = spans.summarize(self.TREE)
        self.assertEqual(summary["b"], {"total_s": 4.0, "self_s": 4.0,
                                        "calls": 2, "ok": 1})
        self.assertEqual(summary["root"]["total_s"], 10.0)
        self.assertEqual(summary["a"]["self_s"], 2.0)


class Installation(unittest.TestCase):
    ARGV = ["alpha", "--family", "simplicial", "--n", "4", "--p", "7",
            "--format", "json"]

    def run_probed(self, trace: bool):
        """Run a job with cli.main replaced by a probe that snapshots the
        package's bindings while the job runs."""
        seen = {}
        original_main = CLI.main

        def probe(argv):
            seen["during"] = spans.bindings()
            return original_main(argv)

        before = spans.bindings()
        with mock.patch.object(CLI, "main", probe):
            inside = spans.bindings()
            record = job.run_job(CLI, self.ARGV, trace)
            self.assertEqual(spans.bindings(), inside)
        self.assertEqual(spans.bindings(), before)
        self.assertEqual(record["exit"], 0)
        return inside, seen["during"], record

    def test_traced_run_rebinds_and_restores_every_name(self):
        originals = {id(fn) for fn in traced_originals()}
        inside, during, record = self.run_probed(trace=True)
        self.assertNotEqual(during, inside)
        leftover = [key for key, ident in during.items()
                    if len(key) == 2 and ident in originals]
        self.assertEqual(leftover, [])
        for key, methods in spans.TRACED_METHODS.items():
            for attr in methods:
                self.assertNotEqual(during[key + (attr,)],
                                    inside[key + (attr,)])
        self.assertIn("zeta_gamma.zetap_interpolated",
                      spans.summarize(record["spans"]))

    def test_untraced_run_installs_no_wrapper(self):
        inside, during, record = self.run_probed(trace=False)
        self.assertEqual(during, inside)
        self.assertNotIn("spans", record)
        self.assertNotIn("counts", record)

    def test_tracer_refuses_double_install(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertRaises(RuntimeError, tracer.install)
        finally:
            tracer.uninstall()


class Counts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        argv = ["recover", "--family", "simplicial", "--n", "4", "--p", "7",
                "--t-order", "40", "--format", "json"]
        caches = [fn for fn in vars(sys.modules["padicfrob.zeta_gamma"])
                  .values() if hasattr(fn, "cache_clear")]
        records = []
        for _ in range(2):
            for fn in caches:    # as in the fresh process of every job
                fn.cache_clear()
            records.append(job.run_job(CLI, argv, True))
        for rec in records:
            rec["summary"] = spans.summarize(rec["spans"])
            rec["main_s"] = rec["t_exit"] - rec["t_enter"]
            self.assertIsNone(run.span_check(rec))
        self.assertEqual(run.repeat_key(records[0]),
                         run.repeat_key(records[1]))
        counts = records[0]["counts"]
        self.assertGreater(counts["padic_core.solve_affine_congruences.rows"],
                           0)
        self.assertGreater(counts["frobenius.solve_A_series.coeff_bits_max"],
                           0)

    def test_pass_layers_ratios_and_class_sums(self):
        rec = {
            "stdout": "abc",
            "main_s": 2.0,
            "counts": {"zeta_cache_hits": 3, "zeta_cache_misses": 1,
                       "mum.standard_basis.coeff_bits_max": 7},
            "summary": {
                "mum.guess_operator": {"total_s": 1.0, "self_s": 1.0,
                                       "calls": 4, "ok": 1},
                "padic_core.PadicNum.add": {"total_s": 0.5, "self_s": 0.5,
                                            "calls": 10, "ok": 10},
                "padic_core.PadicNum.mul": {"total_s": 0.25, "self_s": 0.25,
                                            "calls": 5, "ok": 5},
            },
        }
        layers = run.pass_layers([rec, dict(rec)])
        self.assertEqual(layers["mum.guess_operator.useful_ratio"], 0.25)
        self.assertEqual(
            layers["zeta_gamma.zetap_interpolated.cache_hit_ratio"], 0.75)
        self.assertEqual(layers["padic_core.PadicNum.ops"], 30)
        self.assertEqual(layers["padic_core.self_s"], 1.5)
        self.assertEqual(layers["mum.standard_basis.coeff_bits_max"], 7)
        self.assertEqual(layers["cli.stdout_bytes"], 6)
        self.assertEqual(layers["trace.total_s"], 4.0)
        self.assertEqual(set(layers), set(run.PER_LAYER_UNITS))


class Reference(unittest.TestCase):
    def test_reference_task_is_timed_and_leaves_padicfrob_alone(self):
        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("padicfrob")}
        self.assertGreater(job.reference_task(30), 0.0)
        after = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                 if name.startswith("padicfrob")}
        self.assertEqual(before, after)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_reported_metrics(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class OutputChecks(unittest.TestCase):
    def job(self, name, index):
        return run.WORKLOADS[name][index]

    def test_verify_verdicts(self):
        integral = self.job("deep-solve", 0)
        self.assertIsNone(run.check_output(integral, 0,
                                           '{"verdict": "integral"}'))
        self.assertIsNotNone(run.check_output(integral, 0,
                                              '{"verdict": "non-integral"}'))
        perturbed = self.job("sweep", 3)
        self.assertIsNone(run.check_output(perturbed, 1,
                                           '{"verdict": "non-integral"}'))
        self.assertIsNotNone(run.check_output(perturbed, 0,
                                              '{"verdict": "non-integral"}'))

    def test_recover_rows_must_match(self):
        recover = self.job("sweep", 0)
        good = '{"closed_form": [{"exponent": 2, "match": true}, ' \
               '{"exponent": 0, "match": null}]}'
        bad = '{"closed_form": [{"exponent": 1, "match": false}]}'
        self.assertIsNone(run.check_output(recover, 0, good))
        self.assertIsNotNone(run.check_output(recover, 0, bad))

    def test_guess_and_selftest(self):
        guess = self.job("constants", 2)
        selftest = self.job("constants", 3)
        self.assertIsNotNone(run.check_output(
            guess, 0, '{"matches_printed": false}'))
        self.assertIsNone(run.check_output(selftest, 0, '{"failures": 0}'))
        self.assertIsNotNone(run.check_output(selftest, 0,
                                              '{"failures": 1}'))

    def test_default_seed_jobs_are_frozen(self):
        expected = run.load_expected()
        for name, jobs in run.WORKLOADS.items():
            for argv in run.draw(jobs, run.DEFAULT_SEED, 0):
                self.assertIn(" ".join(argv), expected, name)

    def test_draw_stays_in_range_and_repeats(self):
        jobs = run.WORKLOADS["sweep"]
        self.assertEqual(run.draw(jobs, 5, 3), run.draw(jobs, 5, 3))
        for k in range(20):
            for j, argv in zip(jobs, run.draw(jobs, 5, k)):
                m = int(argv[argv.index("--t-order") + 1])
                self.assertTrue(0.95 * j.t_order <= m <= j.t_order)


if __name__ == "__main__":
    unittest.main()
