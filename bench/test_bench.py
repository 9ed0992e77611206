"""Tests of the benchmark itself; run them with ``python -m pytest bench``."""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run

run.load_package()

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from freebycyclic import cohomology  # noqa: E402


@pytest.fixture(scope="module")
def survey_ctx():
    return workloads.setup("survey", run.DEFAULT_SEED)


@pytest.fixture(scope="module")
def traced_survey(survey_ctx):
    plain = workloads.Tally()
    workloads.survey_pass(survey_ctx, plain)
    traced = workloads.Tally()
    recorder = spans.SpanRecorder()
    with recorder.installed():
        wall = run.timed_pass(workloads.survey_pass, survey_ctx, traced)
    return plain, traced, recorder.pass_metrics(0), wall


def test_traced_pass_prints_the_untraced_digests(traced_survey):
    plain, traced, _metrics, _wall = traced_survey
    assert plain.failed == traced.failed == 0
    assert traced.digests == plain.digests
    assert not hasattr(cohomology.integral_cocycle, "__wrapped__")


def test_module_self_times_fit_in_the_traced_wall(traced_survey):
    _plain, _traced, metrics, wall = traced_survey
    self_times = [metrics[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert min(self_times) >= 0
    assert sum(self_times) <= wall
    assert metrics["linalg.self_s"] + metrics["cohomology.self_s"] > wall / 2
    assert metrics["cohomology.integral_cocycle.calls"] == 100
    assert metrics["cohomology.cone_membership.calls"] == 100


def test_corrupted_output_fails_the_run(monkeypatch, capsys):
    to_json = workloads.cli._to_json
    monkeypatch.setattr(workloads.cli, "_to_json",
                        lambda obj: to_json(obj) + " ")
    code = run.main(["--workload", "survey", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 1, 1)


def test_corpus_passes_its_checks_on_a_second_seed():
    ctx = workloads.setup("corpus", 7)
    tally = workloads.Tally()
    workloads.corpus_pass(ctx, tally)
    assert tally.errors == []
    assert tally.attempted == workloads.CORPUS_SIZE + 2


def test_benchmark_json_lists_the_workloads_and_trace_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PASSES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == spans.metric_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "survey",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(0.005)
    start = time.perf_counter()
    with sampler.running():
        while time.perf_counter() < start + 0.2:
            pass
    wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.kernels) == len(sampler.stretches) + 1 > 5
    assert 0 < sum(sampler.stretches) < wall
    assert sampler.corrected() > 0
