"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import queries
import run
import spans
import speed
from k3lab import cli

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def answer(query):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(query.argv))
    return code, out.getvalue()


def test_query_stream_is_deterministic_per_seed():
    assert queries.generate(7) == queries.generate(7)
    assert queries.generate(7) != queries.generate(8)
    for seed in (7, 8):
        stream = queries.generate(seed)
        assert len(stream) == queries.STREAM_LENGTH
        assert Counter(q.kind for q in stream) == {"lambda": 167, "j": 167, "tau": 167}
        flags = {q.expect[-1] for q in stream if q.kind != "tau"}
        assert flags == {True, False}
        assert sum(bool(q.expect) for q in stream if q.kind == "tau") == len(queries.CM_POINTS)


def test_oracle_accepts_every_cm_point_and_a_stream_prefix():
    cm = [queries.Query("tau", ("family", f"--tau={t}", f"--n={n}"), (j1, j2))
          for t, n, j1, j2 in queries.CM_POINTS]
    for query in cm + queries.generate(3)[:60]:
        assert queries.check(query, *answer(query)) is None, query.argv


@pytest.mark.parametrize("kind,field,value", [
    ("lambda", "a_cubed", "1/3"),
    ("lambda", "j1", "1728"),
    ("j", "degenerate", None),
    ("j", "b_squared", "oops"),
    ("tau", "j2", "287496.5"),
])
def test_oracle_counts_a_corrupted_answer_line_as_failure(kind, field, value):
    query = next(q for q in queries.generate(5)
                 if q.kind == kind and (kind != "tau" or q.expect))
    code, text = answer(query)
    assert queries.check(query, code, text) is None
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(field + " = "))
    if value is None:  # flip the flag
        value = "false" if lines[index].endswith("true") else "true"
    lines[index] = f"{field} = {value}"
    assert queries.check(query, code, "\n".join(lines)) is not None
    assert queries.check(query, 1, text) is not None


def test_a_failing_check_raises_fail_ratio(tmp_path, monkeypatch):
    from k3lab import constants

    monkeypatch.setenv("K3LAB_CACHE_DIR", str(tmp_path))
    samples = run.Samples()
    workload = run.VerifyStructure(0, tmp_path, samples)
    workload.prepare()
    assert samples.attempted > 0 and samples.fail_ratio == 0
    monkeypatch.setattr(constants, "DELTA_DUAL_VERTICES",
                        constants.DELTA_DUAL_VERTICES[1:])
    workload.step()
    assert samples.fail_ratio > 0
    assert any(reason.startswith("toric.dual") for reason in samples.reasons)


def test_verify_all_grading_counts_fail_lines_and_exit_codes(tmp_path):
    passing = "".join(f"PASS {s}.x: d [w]\n" for s in run.SUITE_NAMES)
    samples = run.Samples()
    workload = run.VerifyAll(0, tmp_path, samples)
    workload.grade(0, passing)
    assert (samples.attempted, samples.failed) == (6, 0)
    workload.grade(1, passing.replace("PASS toric", "FAIL toric"))
    assert samples.failed == 1
    workload.grade(0, passing.replace("PASS toric", "FAIL toric"))
    assert samples.failed == 3  # the failing check and the wrong exit code
    workload.grade(2, "")
    assert samples.failed == 3 + 1 + len(run.SUITE_NAMES)


def test_speed_sampler_probes_while_active_and_picks_probes_by_time():
    import time

    sampler = speed.Sampler()
    with sampler:
        end = time.perf_counter() + 3 * speed.TICK_S
        while time.perf_counter() < end:
            pass
    count = len(sampler.took)
    assert count >= 3 and sampler.spent == sum(sampler.took)
    time.sleep(2 * speed.TICK_S)
    assert len(sampler.took) == count

    ref, pad = speed.PROBE_REF_S, speed.WINDOW_S
    sampler.at, sampler.took = [10.0, 20.0, 30.0], [ref, ref / 2, ref * 2]
    assert sampler.speed(15.0, 25.0) == 2.0
    assert sampler.speed(10.0, 30.0) == (1.0 + 2.0 + 0.5) / 3
    assert sampler.speed(20.0 + pad, 29.0 - pad) == 2.0
    assert sampler.speed(10.0 + pad, 20.0 - pad) == (1.0 + 2.0) / 2
    assert sampler.speed(28.0, 29.0 - pad) == 0.5   # none near: the nearest probe
    assert sampler.speed(21.0 + pad, 22.0) == 2.0
    assert speed.reference_s(10.0, 1.0, 0.5) == 4.5
    assert speed.Unsampled().speed(0.0, 1.0) == 1.0


def test_speed_child_passes_on_the_exit_code_and_writes_probes(tmp_path):
    probes = tmp_path / "probes.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "speed.py"), str(probes),
         "-c", "import sys; print('ran'); sys.exit(3)"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "ran\n")
    assert json.loads(probes.read_text())["took"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_absorbed_spans_give_the_same_layer_metrics():
    from k3lab import suites

    tracer = spans.Tracer()
    tracer.iteration = 1
    tracer.install()
    try:
        suites.run_suite("weierstrass")
    finally:
        tracer.uninstall()
    names = list(run.metric_units("per_layer"))
    copy = spans.Tracer()
    copy.iteration = 1
    copy.absorb(tracer.state())
    assert copy.layer_metrics(names, 1) == tracer.layer_metrics(names, 1)
    assert tracer.layer_metrics(names, 1)["exact.mul.term_pairs"] > 0


def test_probes_firing_inside_traced_calls_keep_the_spans_consistent(monkeypatch):
    from k3lab import suites

    monkeypatch.setattr(speed, "TICK_S", 0.002)  # a probe every few spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        with speed.Sampler() as sampler:
            for _ in range(4):
                suites.run_suite("weierstrass")
    finally:
        tracer.uninstall()
    names = [name for _, name, *_ in tracer.spans]
    assert names.count("speed.probe") == len(sampler.took)
    ids = {span[0] for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(parent == -1 or parent in ids for _, _, parent, *_ in tracer.spans)
    assert min(tracer.self_times()) >= 0


def test_every_traced_name_exists():
    import importlib

    for _name, sites in spans.TRACED:
        for module_name, attr in sites:
            assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    assert proc.stdout.splitlines()[0].startswith("machine: cores=")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "family_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
