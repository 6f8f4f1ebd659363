"""k3lab benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Workloads (why each was chosen: perfbench/README.md):

* ``verify_all``       one fresh ``python -m k3lab verify --suite all`` process
                       per iteration, with an empty modular-polynomial cache.
* ``verify_structure`` ``k3lab.suites.run_suite`` over the five suites other
                       than ``identities``, pass after pass, cache warm.
* ``family_sweep``     ``k3lab.cli.main(["family", ...])`` over a query stream
                       generated from ``--seed``.

A query is the unit a user waits for: one process, one suite, one family
query.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, whose times are reference seconds: wall seconds scaled by
the machine speed that a probe sampled during them (perfbench/speed.py); the
summary line gives the plain wall-clock medians too.  With ``--trace 1``
untraced iterations alternate with iterations that record spans around each
layer's public functions (perfbench/spans.py), and the JSON holds the
per-layer metrics.  The metric
names and units are BENCHMARK.json's.  Every output is checked; a failing
check, a nonzero exit code, an exception or a wrong answer counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150  # a hung child raises, so the run ends within 180 s
FAMILY_WARMUP_QUERIES = 20
SUITE_NAMES = ("identities", "lattice", "kummer", "toric", "weierstrass", "modular")
STRUCTURE_SUITES = SUITE_NAMES[1:]


@dataclass
class Samples:
    """Times in reference seconds, but `wall_setup_s` and `wall_s`, the wall
    seconds of each set-up and iteration."""

    setup_s: list = field(default_factory=list)
    iteration_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    wall_setup_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        """Count one outcome; `reason` is None when it was right."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)

    def record_report(self, report: dict) -> None:
        """Count every check of a k3lab.suites.SuiteReport, given as its
        `to_dict()`."""
        if not report["checks"]:
            self.record(f"suite {report['suite']}: no checks")
        for chk in report["checks"]:
            self.record(None if chk["status"] == "pass" else f"{chk['id']}: {chk['witness']}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def child_env(cache_dir: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, K3LAB_CACHE_DIR=str(cache_dir),
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def metric_units(table: str) -> dict:
    """Name -> unit of the metrics in BENCHMARK.json's list `table`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[table]}


def closed_loop(seconds: float, step) -> list:
    """Call `step` back to back until `seconds` have passed (at least once);
    return what each call returns."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step())
    return results


class Workload:
    """Set-up runs `SETUP_CODE` in a fresh interpreter `SETUP_REPEATS` times;
    `prepare` readies this process; `step` runs one timed iteration and
    returns its reference seconds, within `sampling()`.  The traced run
    alternates `untraced_step` and `traced_step`, which must do the same
    work apart from the spans."""

    SETUP_CODE = "import k3lab.cli"
    sampler = speed.Unsampled()

    def __init__(self, seed: int, work: Path, samples: Samples):
        self.seed, self.work, self.samples = seed, work, samples
        self.cache_dir = work / "cache"

    def run_child(self, args, cache: Path):
        """Run `args` (``-m MODULE ...`` or ``-c CODE``) in a fresh
        interpreter under a speed sampler; return the process, its wall
        seconds and its reference seconds."""
        probes = self.work / "probes.json"
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "speed.py"), str(probes), *args],
                              env=child_env(cache), cwd=self.work,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - started
        try:
            took = json.loads(probes.read_text())["took"]
            probes.unlink()
        except (OSError, ValueError, KeyError):
            took = []
        if not took:
            self.samples.record(f"no speed probe in {args[:2]}: {proc.stderr[-300:]}")
            return proc, wall, wall
        return proc, wall, speed.reference_s(wall, sum(took), speed.mean_speed(took))

    def setup(self) -> None:
        for k in range(SETUP_REPEATS):
            self.cache_dir = self.work / f"setup-{k}"
            proc, wall, reference = self.run_child(["-c", self.SETUP_CODE], self.cache_dir)
            self.samples.wall_setup_s.append(wall)
            self.samples.setup_s.append(reference)
            self.samples.record(None if proc.returncode == 0 else
                                f"set-up exit code {proc.returncode}: {proc.stderr[-300:]}")

    def prepare(self) -> None:
        os.environ["K3LAB_CACHE_DIR"] = str(self.cache_dir)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the speed of this process while the timed loop runs."""
        self.sampler = speed.Sampler()
        try:
            with self.sampler:
                yield
        finally:
            self.sampler = speed.Unsampled()

    def reference_s(self, started: float, ended: float, spent: float) -> float:
        """Reference seconds of this process's work from `started` to
        `ended`, during which the probes took `spent` seconds."""
        return speed.reference_s(ended - started, spent, self.sampler.speed(started, ended))

    def step(self) -> float:
        raise NotImplementedError

    def untraced_step(self) -> float:
        return self.step()

    def traced_step(self, tracer) -> float:
        tracer.install()
        return self.step()


class VerifyAll(Workload):
    """Cold `k3lab verify --suite all`: a new process and an empty cache each
    time.  The cache directory is passed as K3LAB_CACHE_DIR, which is what
    `--cache-dir` sets and which stays harmless if the cache is removed.
    The child samples its own speed; this process waits for it unsampled."""

    CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): ", re.MULTILINE)

    def sampling(self):
        return contextlib.nullcontext()

    def step(self) -> float:
        cache = self.work / f"cold-{len(self.samples.query_s)}"
        proc, wall, reference = self.run_child(
            ["-m", "k3lab", "verify", "--suite", "all"], cache)
        self.samples.wall_s.append(wall)
        self.samples.query_s.append(reference)
        self.grade(proc.returncode, proc.stdout)
        shutil.rmtree(cache, ignore_errors=True)
        return reference

    def grade(self, exit_code: int, stdout: str) -> None:
        checks = self.CHECK_LINE.findall(stdout)
        for status, cid in checks:
            self.samples.record(None if status == "PASS" else f"{cid} failed")
        failing = any(status == "FAIL" for status, _ in checks)
        if exit_code != (1 if failing else 0):
            self.samples.record(f"verify exit code {exit_code}")
        for suite in SUITE_NAMES:
            if not any(cid.startswith(suite + ".") for _, cid in checks):
                self.samples.record(f"verify reported no {suite} check")

    def suites_child(self, trace: bool) -> tuple[float, dict]:
        """One cold pass of `run_suite` per suite name in a fresh interpreter
        (suites_child.py), so that each suite gets its own span; spans are
        installed only if `trace`.  Returns the reference time and the spans."""
        cache = self.work / f"cold-{len(self.samples.query_s)}"
        out = self.work / f"suites-{len(self.samples.query_s)}.json"
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "suites_child.py"), str(out),
                               str(int(trace)), *SUITE_NAMES],
                              env=child_env(cache), cwd=self.work,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - started
        shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            self.samples.record(f"suites child exit code {proc.returncode}: {proc.stderr[-300:]}")
            self.samples.query_s.append(wall)
            return wall, {}
        result = json.loads(out.read_text())
        out.unlink()
        for report in result["reports"]:
            self.samples.record_report(report)
        took = result["took"]
        reference = speed.reference_s(wall, sum(took), speed.mean_speed(took))
        self.samples.query_s.append(reference)
        return reference, result["spans"]

    def untraced_step(self) -> float:
        return self.suites_child(False)[0]

    def traced_step(self, tracer) -> float:
        wall, spans = self.suites_child(True)
        if spans:
            tracer.absorb(spans)
        return wall


class VerifyStructure(Workload):
    """Warm passes over the five structure suites.  Set-up builds the
    modular-polynomial cache that every pass then reads."""

    SETUP_CODE = ("import sys\n"
                  "from k3lab.suites import run_suite\n"
                  "sys.exit(run_suite('modular').status != 'pass')\n")

    def prepare(self) -> None:
        super().prepare()
        from k3lab import suites

        self.suites = suites
        self.step()  # warm-up pass: the in-memory j-series
        self.samples.query_s.clear()
        self.samples.wall_s.clear()

    def step(self) -> float:
        """One pass; each suite is a query, timed on its own."""
        reports, timings = [], []
        sampler = self.sampler
        spent = sampler.spent
        started = time.perf_counter()
        for name in STRUCTURE_SUITES:
            suite_spent = sampler.spent
            t0 = time.perf_counter()
            try:
                reports.append(self.suites.run_suite(name))
            except Exception as exc:  # a raising suite is a failed outcome
                self.samples.record(f"suite {name} raised {type(exc).__name__}: {exc}")
            timings.append((t0, time.perf_counter(), sampler.spent - suite_spent))
        ended, spent = time.perf_counter(), sampler.spent - spent
        self.samples.query_s.extend(self.reference_s(*timing) for timing in timings)
        self.samples.wall_s.append(ended - started)
        for report in reports:
            self.samples.record_report(report.to_dict())
        return self.reference_s(started, ended, spent)


class FamilySweep(Workload):
    """Interactive queries of single family members, answers checked by an
    oracle that does not call k3lab."""

    SETUP_CODE = ("import contextlib, io, sys\n"
                  "from k3lab.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    sys.exit(main(['family', '--tau=i', '--n=1']))\n")

    def prepare(self) -> None:
        super().prepare()
        import queries
        from k3lab import cli

        self.queries, self.cli = queries, cli
        self.stream = queries.generate(self.seed)
        self.run_queries(self.stream[:FAMILY_WARMUP_QUERIES])
        self.samples.query_s.clear()
        self.samples.wall_s.clear()

    def run_queries(self, stream) -> float:
        """One pass over `stream`, each query timed on its own."""
        answers, timings = [], []
        sampler = self.sampler
        spent = sampler.spent
        started = time.perf_counter()
        for query in stream:
            out = io.StringIO()
            query_spent = sampler.spent
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = self.cli.main(list(query.argv))
            except Exception as exc:  # a raising query is a failed outcome
                code = f"raised {type(exc).__name__}: {exc}"
            timings.append((t0, time.perf_counter(), sampler.spent - query_spent))
            answers.append((query, code, out.getvalue()))
        ended, spent = time.perf_counter(), sampler.spent - spent
        self.samples.query_s.extend(self.reference_s(*timing) for timing in timings)
        self.samples.wall_s.append(ended - started)
        for query, code, text in answers:
            reason = self.queries.check(query, code, text)
            self.samples.record(None if reason is None else f"{' '.join(query.argv)}: {reason}")
        return self.reference_s(started, ended, spent)

    def step(self) -> float:
        return self.run_queries(self.stream)


WORKLOADS = {
    "verify_all": VerifyAll,
    "verify_structure": VerifyStructure,
    "family_sweep": FamilySweep,
}


def end_to_end_metrics(samples: Samples, rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(samples.setup_s),
        "wall_s": statistics.median(samples.iteration_s),
        "queries_per_s": len(samples.query_s) / sum(samples.iteration_s),
        "query_ms.p50": percentile(samples.query_s, 50) * 1e3,
        "query_ms.p99": percentile(samples.query_s, 99) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def measure(workload: Workload, seconds: float) -> dict:
    workload.setup()
    workload.prepare()
    with workload.sampling():
        workload.samples.iteration_s = closed_loop(seconds, workload.step)
    who = resource.RUSAGE_CHILDREN if isinstance(workload, VerifyAll) else resource.RUSAGE_SELF
    return end_to_end_metrics(workload.samples, peak_rss_mb(who))


def measure_traced(workload: Workload, seconds: float, name: str, seed: int,
                   metrics) -> dict:
    """Alternate an untraced and a traced iteration, both sampled, so that
    `trace.overhead_s` is in reference seconds; the spans give the
    per-layer `metrics`."""
    from spans import Tracer

    workload.setup()
    workload.prepare()
    tracer = Tracer()

    def pair():
        untraced = workload.untraced_step()
        tracer.iteration += 1
        try:
            return untraced, workload.traced_step(tracer)
        finally:
            tracer.uninstall()

    with workload.sampling():
        untraced, traced = zip(*closed_loop(seconds, pair))
    workload.samples.iteration_s = list(untraced + traced)
    tracer.write(OUT / f"trace-{name}-seed{seed}.tsv")
    values = tracer.layer_metrics(metrics, len(traced))
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return values


def machine_line() -> str:
    import importlib.util

    import mpmath
    import mpmath.libmp

    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    return (f"machine: cores={os.cpu_count()} python={platform.python_version()} "
            f"mpmath={mpmath.__version__} backend={mpmath.libmp.BACKEND} "
            f"gmpy2={'yes' if gmpy2 else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "k3lab" / "__init__.py").is_file():
        print(f"no k3lab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    samples = Samples()
    workload = WORKLOADS[args.workload](args.seed, work, samples)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            values = measure_traced(workload, args.seconds, args.workload, args.seed, units)
        else:
            values = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"no value for the metrics {missing}", file=sys.stderr)
        return 2
    for reason in samples.reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(machine_line())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(samples.iteration_s)} queries={len(samples.query_s)} "
          f"attempted={samples.attempted} failed={samples.failed} "
          f"fail_ratio={samples.fail_ratio}")
    if not args.trace:
        print(f"wall clock: setup_s={statistics.median(samples.wall_setup_s)!r} "
              f"wall_s={statistics.median(samples.wall_s)!r}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": samples.failed == 0, "attempted": samples.attempted,
                      "failed": samples.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
