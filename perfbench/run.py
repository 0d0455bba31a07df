"""Layered benchmark for padicfrob's command-line jobs.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --all [--seed N] [--seconds S]
  python3 perfbench/run.py --freeze

Each job runs in a fresh ``python3 -I perfbench/job.py`` process, one at
a time (a closed loop with a single client).  A pass runs the
workload's jobs once; passes repeat until ``--seconds`` have elapsed.
Every job's exit code and output are checked; a wrong one counts as
failed and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics; ``total_norm`` divides
each job's time by the mean time of job.py's fixed reference task,
sampled in the same process around and during the job, so the host's
speed drifting between and within runs cancels out.  ``--trace 1`` runs one
untraced pass and then traced passes of the same jobs, and reports the
per-layer metrics.  ``--all`` runs every workload both ways and prints
every metric.  ``--freeze`` rewrites ``expected_stdout.json``, the
sha256 of each job's stdout at the default seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file with the
environment and every job goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB_PY = os.path.join(HERE, "job.py")
EXPECTED_PATH = os.path.join(HERE, "expected_stdout.json")
RESULTS_DIR = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
from spans import MAX_COUNTS, summarize  # noqa: E402

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
PROBES_START = 4        # import-only spawns at the start of a run ...
PROBES_PER_PASS = 2     # ... and after each pass, for setup_s
GOLDEN = (5 ** 0.5 - 1) / 2
MIN_TRACED_PASSES = 2   # so the count-repeat check always has a pair
SLACK_S = 140           # job time-out past --seconds; 30 s runs end by 170 s
COMMANDS = ("verify", "recover", "alpha", "guess", "selftest")


class Job:
    """One CLI job: the command, its fixed arguments, the check its
    output must pass, and the largest t-order M (None: no t-order)."""

    def __init__(self, command, args, check, t_order=None, expect_exit=0):
        self.command = command
        self.args = list(args)
        self.check = check
        self.t_order = t_order
        self.expect_exit = expect_exit

    def argv(self, u: float, seed: int) -> list:
        """The job's argv at position u in [0, 1) of its t-order range
        [0.95 M, M]."""
        out = [self.command] + self.args
        if self.t_order is not None:
            lo = math.ceil(0.95 * self.t_order)
            out += ["--t-order",
                    str(lo + int(u * (self.t_order - lo + 1)))]
        if self.command == "selftest":
            out += ["--seed", str(seed)]
        return out


def draw(jobs, seed: int, k: int) -> list:
    """Argvs of pass k.  The seed draws each job's position u uniformly;
    pass k shifts it by k times the golden ratio (mod 1), so the passes
    of a run spread evenly over the t-order range and the run's median
    does not hinge on one lucky draw."""
    rng = random.Random(seed)
    return [job.argv((rng.random() + k * GOLDEN) % 1.0, seed)
            for job in jobs]


def _family(fam, n, p):
    return ["--family", fam, "--n", str(n), "--p", str(p)]


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "deep-solve": [
        Job("verify", _family("hyperoctahedral", 4, 7), "integral", 700),
    ],
    "sweep": [
        Job("recover", _family("simplicial", 4, 31) + ["--format", "json"],
            "recover", 620),
        Job("verify", _family("simplicial", 5, 13), "integral", 390),
        Job("recover", _family("hyperoctahedral", 5, 11)
            + ["--format", "json"], "recover", 330),
        Job("verify", _family("simplicial", 4, 7) + ["--perturb", "alpha1"],
            "non-integral", 280, expect_exit=1),
        Job("recover", _family("simplicial", 3, 5) + ["--format", "json"],
            "recover", 250),
        Job("verify", _family("hyperoctahedral", 4, 7)
            + ["--format", "table"], "integral-table", 280),
    ],
    "constants": [
        Job("alpha", ["--family", "hyperoctahedral", "--jmax", "9", "--p",
                      "31", "--precision", "48", "--format", "json"], "alpha"),
        Job("alpha", ["--family", "hyperoctahedral", "--jmax", "5", "--p",
                      "7", "--precision", "12", "--format", "json"], "alpha"),
        Job("guess", ["--family", "hyperoctahedral", "--n", "5", "--format",
                      "json"], "guess"),
        Job("selftest", ["--format", "json"], "selftest"),
    ],
}

# the end-to-end metrics BENCHMARK.json declares: nonzero on every workload
END_TO_END_UNITS = {"total_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; see README.md for what each should move
PER_LAYER_UNITS = {
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "frobenius.solve_A_series.total_s": "s",
    "frobenius.solve_A_series.self_s": "s",
    "frobenius.solve_A_series.calls": "count",
    "frobenius.solve_A_series.coeff_bits_max": "bits",
    "mum.standard_basis.total_s": "s",
    "mum.standard_basis.coeff_bits_max": "bits",
    "frobenius.check_integrality.total_s": "s",
    "frobenius.check_integrality.entries": "count",
    "frobenius.recover_alpha.total_s": "s",
    "frobenius.recover_alpha.self_s": "s",
    "padic_core.solve_affine_congruences.total_s": "s",
    "padic_core.solve_affine_congruences.rows": "count",
    "padic_core.solve_affine_congruences.modulus_exponent": "exponent",
    "zeta_gamma.zetap_interpolated.total_s": "s",
    "zeta_gamma.zetap_interpolated.calls": "count",
    "zeta_gamma.zetap_interpolated.cache_hit_ratio": "ratio",
    "zeta_gamma.evaluate_zeta_poly.total_s": "s",
    "zeta_gamma.alpha_hyperoctahedral.total_s": "s",
    "padic_core.PadicNum.ops": "count",
    "padic_core.PadicNum.self_s": "s",
    "mum.guess_operator.total_s": "s",
    "mum.guess_operator.calls": "count",
    "mum.guess_operator.useful_ratio": "ratio",
    "qseries.PowerSeries.mul.self_s": "s",
    "qseries.PowerSeries.mul.calls": "count",
    "qseries.LogSeries.ops": "count",
    "qseries.LogSeries.self_s": "s",
    "zeta_gamma.gamma_ratio_congruence_check.total_s": "s",
    "zeta_gamma.zetap_bernoulli.total_s": "s",
    "expansion.brute_force_expand.total_s": "s",
    "frobenius.verify_frobenius_property.total_s": "s",
    "frobenius.nonuniqueness_witness.total_s": "s",
    "frobenius.self_s": "s",
    "mum.self_s": "s",
    "qseries.self_s": "s",
    "padic_core.self_s": "s",
    "zeta_gamma.self_s": "s",
    "expansion.self_s": "s",
}


# -- output checks --------------------------------------------------------


def check_output(job: Job, code: int, stdout: str) -> str | None:
    """None when the job's exit code and output are right, else why not."""
    if code != job.expect_exit:
        return "exit %s, expected %d" % (code, job.expect_exit)
    if job.check == "integral-table":
        if "verdict: integral" not in stdout.splitlines():
            return "no 'verdict: integral' line"
        return None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if job.check in ("integral", "non-integral"):
        if payload.get("verdict") != job.check:
            return "verdict %r" % payload.get("verdict")
    elif job.check == "recover":
        rows = [r for r in payload["closed_form"] if r["exponent"] > 0]
        if not all(r["match"] is True for r in rows):
            return "recovered coset misses a closed form"
    elif job.check == "alpha":
        want = payload["precision"]
        for row in payload["alphas"]:
            num = row.get("numeric", {})
            if "exact" not in num and num.get("precision", 0) < want:
                return "alpha_%d lacks precision %d" % (row["j"], want)
    elif job.check == "guess":
        if payload.get("matches_printed") is not True:
            return "guessed operator differs from the printed one"
    elif job.check == "selftest":
        if payload.get("failures") != 0:
            return "selftest failures: %s" % payload.get("failures")
    return None


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def stdout_sha(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


# -- running jobs -----------------------------------------------------------


def spawn(argv: list, trace: bool, probe: bool, deadline: float) -> dict:
    """Run one job process to completion; returns its record, with
    ``error`` set when the process itself failed."""
    cmd = [sys.executable, "-I", JOB_PY]
    cmd += (["--trace"] if trace else []) + (["--probe"] if probe else [])
    cmd += ["--"] + argv
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"argv": argv, "error": "timed out"}
    if proc.returncode != 0:
        return {"argv": argv, "error": "job process exit %d: %s" % (
            proc.returncode, err.decode("utf-8", "replace")[-400:])}
    record = json.loads(out)
    record["argv"] = argv
    record["error"] = None
    record["setup_s"] = record["t_ready"] - t_spawn
    record["main_s"] = record["t_exit"] - record["t_enter"] - \
        record["ref_in_job_s"]
    if record["ref_s"]:
        record["norm"] = record["main_s"] / statistics.fmean(record["ref_s"])
    return record


def run_pass(jobs, argvs, trace, deadline, expected, require_expected):
    """Run and check one pass; each record gets ``error`` when wrong."""
    records = []
    for job, argv in zip(jobs, argvs):
        rec = spawn(argv, trace, False, deadline)
        rec["command"] = job.command
        if rec["error"] is None:
            rec["error"] = check_output(job, rec["exit"], rec["stdout"])
        if rec["error"] is None:
            key = " ".join(argv)
            sha = stdout_sha(rec["stdout"])
            if key in expected and expected[key] != sha:
                rec["error"] = "stdout sha256 %s, frozen %s" % (
                    sha, expected[key])
            elif key not in expected and require_expected:
                rec["error"] = "no frozen stdout sha256 for the default seed"
        records.append(rec)
    return records


def _median(values, unit="s"):
    """Median of a run's samples; counts take the lower middle value so
    they stay whole."""
    if not values:
        return 0
    return statistics.median(values) if unit == "s" else \
        statistics.median_low(values)


# -- metrics ------------------------------------------------------------


def pass_layers(records) -> dict:
    """Merge the traced jobs of one pass into per-layer metrics."""
    merged, counts = {}, {}
    stdout_bytes = 0
    for rec in records:
        for name, entry in rec["summary"].items():
            acc = merged.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
        for key, value in rec["counts"].items():
            if key in MAX_COUNTS:
                counts[key] = max(counts.get(key, value), value)
            else:
                counts[key] = counts.get(key, 0) + value
        stdout_bytes += len(rec["stdout"].encode("utf-8"))

    def field(name, key):
        return merged.get(name, {}).get(key, 0)

    def prefixed(prefix, key):
        return sum(e[key] for n, e in merged.items() if n.startswith(prefix))

    out = {}
    for metric in PER_LAYER_UNITS:
        name, _, key = metric.rpartition(".")
        if key in ("total_s", "self_s", "calls") and name in merged:
            out[metric] = field(name, key)
        elif metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = 0
    for module in ("frobenius", "mum", "qseries", "padic_core", "zeta_gamma",
                   "expansion"):
        out[module + ".self_s"] = prefixed(module + ".", "self_s")
    for cls in ("padic_core.PadicNum", "qseries.LogSeries"):
        out[cls + ".ops"] = prefixed(cls + ".", "calls")
        out[cls + ".self_s"] = prefixed(cls + ".", "self_s")
    looked = counts.get("zeta_cache_hits", 0) + \
        counts.get("zeta_cache_misses", 0)
    out["zeta_gamma.zetap_interpolated.cache_hit_ratio"] = \
        counts.get("zeta_cache_hits", 0) / looked if looked else 0.0
    tried = field("mum.guess_operator", "calls")
    out["mum.guess_operator.useful_ratio"] = \
        field("mum.guess_operator", "ok") / tried if tried else 0.0
    out["cli.stdout_bytes"] = stdout_bytes
    out["trace.total_s"] = sum(rec["main_s"] for rec in records)
    return out


def span_check(rec) -> str | None:
    """Self times of a job's spans must add up to its cli.main time."""
    total = sum(e["self_s"] for e in rec["summary"].values())
    if abs(total - rec["main_s"]) > 0.002 + 0.01 * rec["main_s"]:
        return "span self times sum to %.4f s, cli.main took %.4f s" % (
            total, rec["main_s"])
    return None


def repeat_key(rec):
    """What must repeat exactly when the same job runs again: its counts
    and the call count of every span name."""
    calls = {n: (e["calls"], e["ok"]) for n, e in rec["summary"].items()}
    return json.dumps([rec["counts"], calls], sort_keys=True)


# -- a run --------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "git_commit": git_commit(),
            "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: returns every metric, the jobs and the checks."""
    jobs = WORKLOADS[name]
    expected = load_expected()
    start = time.monotonic()
    deadline = start + seconds + SLACK_S
    probes = [spawn([], False, True, deadline) for _ in range(PROBES_START)]
    passes = []     # (traced, records)
    while True:
        traced = trace and bool(passes)
        argvs = draw(jobs, seed, 0 if trace else len(passes))
        records = run_pass(jobs, argvs, traced, deadline, expected,
                           seed == DEFAULT_SEED and not passes)
        passes.append((traced, records))
        probes += [spawn([], False, True, deadline)
                   for _ in range(PROBES_PER_PASS)]
        if any(r["error"] == "timed out" for r in records):
            break
        n_traced = sum(1 for t, _ in passes if t)
        if time.monotonic() - start >= seconds and \
                (not trace or n_traced >= MIN_TRACED_PASSES):
            break
    all_records = [r for _, recs in passes for r in recs]
    good = [r for r in all_records if r["error"] is None]

    metrics = {}
    if trace:
        traced = [recs for t, recs in passes if t]
        for recs in traced:
            for rec in recs:
                if rec["error"] is None:
                    rec["summary"] = summarize(rec["spans"])
                    rec["error"] = span_check(rec)
        for i in range(len(jobs)):
            keys = {repeat_key(recs[i]) for recs in traced
                    if recs[i]["error"] is None}
            if len(keys) > 1:
                traced[-1][i]["error"] = "counts differ between passes"
        complete = [recs for recs in traced
                    if all(r["error"] is None for r in recs)]
        layers = [pass_layers(recs) for recs in complete]
        for metric in PER_LAYER_UNITS:
            metrics[metric] = _median([lay[metric] for lay in layers],
                                      PER_LAYER_UNITS[metric])
        untraced = passes[0][1]
        if complete and all(r["error"] is None for r in untraced):
            metrics["trace.overhead_s"] = metrics["trace.total_s"] - \
                sum(r["main_s"] for r in untraced)
        units = PER_LAYER_UNITS
    else:
        complete = [recs for _, recs in passes
                    if all(r["error"] is None for r in recs)]
        metrics["total_norm"] = _median(
            [sum(r["norm"] for r in recs) for recs in complete])
        metrics["total_s"] = _median(
            [sum(r["main_s"] for r in recs) for recs in complete])
        metrics["reference_s"] = _median(
            [t for recs in complete for r in recs for t in r["ref_s"]])
        for command in COMMANDS:
            metrics[command + "_s"] = _median(
                [sum(r["main_s"] for r in recs if r["command"] == command)
                 for recs in complete])
        metrics["setup_s"] = _median(
            [r["setup_s"] for r in probes + all_records if "setup_s" in r])
        metrics["peak_rss_mb"] = max(
            [r["maxrss_kb"] / 1024.0 for r in good], default=0.0)
        units = dict(END_TO_END_UNITS, total_s="s", reference_s="s",
                     **{c + "_s": "s" for c in COMMANDS})

    failed = sum(1 for r in all_records + probes if r["error"] is not None)
    attempted = len(all_records) + len(probes)
    metrics["failed_frac"] = failed / attempted
    units = dict(units, failed_frac="ratio")
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "jobs": [{"argv": r["argv"], "traced": t,
                  "exit": r.get("exit"), "error": r["error"],
                  "setup_s": r.get("setup_s"), "main_s": r.get("main_s"),
                  "ref_s": r.get("ref_s"),
                  "maxrss_kb": r.get("maxrss_kb"),
                  "counts": r.get("counts")}
                 for t, recs in passes for r in recs],
        "spans": [[rec["argv"], rec["spans"]]
                  for rec in (passes[-1][1] if trace else [])
                  if "spans" in rec],
    }


def write_results(result: dict) -> str:
    """Results go to perfbench/results/<workload>-trace<t>.json (the
    latest run of each).  A traced run also writes the spans of its last
    pass, one job a line, each span as [name, start, end, parent, ok]
    with parent the index of the enclosing span or -1."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-trace%d" % (result["workload"],
                                                     result["trace"]))
    spans = result.pop("spans")
    if result["trace"]:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for job_id, (argv, job_spans) in enumerate(spans):
                fh.write(json.dumps({"job": job_id, "argv": argv,
                                     "spans": job_spans}))
                fh.write("\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return stem + ".json"


def print_metrics(result: dict):
    print("# workload %s, trace %d: %d passes, %d of %d jobs failed"
          % (result["workload"], result["trace"], result["passes"],
             result["failed"], result["attempted"]))
    for key, m in result["metrics"].items():
        print("%-52s %14.6g %s" % (key, m["value"], m["unit"]))
    for job in result["jobs"]:
        if job["error"] is not None:
            print("FAILED %s: %s" % (" ".join(job["argv"]), job["error"]))


def contract_line(result: dict, names) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result["metrics"][k] for k in names},
    })


def freeze():
    """Record the stdout sha256 of every job of the default seed's first
    pass, after checking each output."""
    expected = {}
    for name, jobs in WORKLOADS.items():
        argvs = draw(jobs, DEFAULT_SEED, 0)
        for rec in run_pass(jobs, argvs, False, time.monotonic() + 600,
                            {}, False):
            if rec["error"] is not None:
                raise SystemExit("%s: %s" % (" ".join(rec["argv"]),
                                             rec["error"]))
            expected[" ".join(rec["argv"])] = stdout_sha(rec["stdout"])
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "padicfrob",
                                       "__init__.py")):
        print("perfbench: no padicfrob sources in %s/src" % ROOT,
              file=sys.stderr)
        return 2
    if args.freeze:
        freeze()
        return 0
    if args.all:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, args.seconds, trace)
                write_results(result)
                print_metrics(result)
                ok = ok and result["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        parser.error("give --workload, --all or --freeze")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    write_results(result)
    print_metrics(result)
    names = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(contract_line(result, names))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
