"""Digest stability, wrapper restoration and tiny smoke runs of every
workload shape, in-process and through the job processes."""

import builtins
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from livebench import job, run, spec
from livebench.tracer import install_layer_wrappers

ROOT = Path(__file__).resolve().parents[2]

#: Each benchmark workload, shrunk to a smoke-test size.
TINY = {
    "toy-search-persist": dict(population=4, generations=2),
    "simcov-search": dict(population=3, generations=1),
    "adept-v1-search": dict(population=3, generations=1),
    "adept-v1-analysis": dict(edits=2),
}


def tiny(name):
    return dataclasses.replace(spec.WORKLOADS[name], **TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(spec.WORKLOADS)


def test_digest_is_stable_and_exact():
    payload = {"b": [1.0, None, float("inf")], "a": (1, "x")}
    assert job.digest_of(payload) == job.digest_of({"a": [1, "x"],
                                                    "b": [1.0, None, float("inf")]})
    assert job.digest_of(payload) == "0e71cf1e97acd0de"
    assert job.digest_of({"a": 0.1 + 0.2}) != job.digest_of({"a": 0.3})


def wrapped_attributes():
    """The objects the tracer replaces, read straight from their owners."""
    from repro.gevo import genome, search
    from repro.gpu import jitted, simulator
    from repro.ir import function
    from repro.runtime import cache, engine

    return {
        "run": search.GevoSearch.__dict__["run"],
        "apply_edits": genome.apply_edits,
        "engine.apply_edits": engine.apply_edits,
        "cached_decoding": function.Function.__dict__["cached_decoding"],
        "attach_jit": jitted.attach_jit,
        "launch": simulator.GpuDevice.__dict__["launch"],
        "execute_batched": simulator.execute_batched,
        "evaluate_many": engine.EvaluationEngine.__dict__["evaluate_many"],
        "get": cache.FitnessCache.__dict__["get"],
        "compile": builtins.compile,
    }


def test_wrappers_are_installed_then_restored():
    before = wrapped_attributes()
    tracer = install_layer_wrappers()
    try:
        during = wrapped_attributes()
        assert all(during[name] is not before[name] for name in before)
    finally:
        tracer.restore()
    assert wrapped_attributes() == before
    assert tracer.installed == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_each_workload_shape_in_process(name, tmp_path):
    before = wrapped_attributes()
    workload = tiny(name)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = job.run_job(workload, 0, None, str(tmp_path / "plain"), checks=True)
    spans = tmp_path / "spans.json"
    traced = job.run_job(workload, 0, None, str(tmp_path / "traced"),
                         trace_path=str(spans))
    assert wrapped_attributes() == before
    assert plain["fresh"] >= 1 and plain["best_speedup"] > 0
    assert [check["name"] for check in plain["checks"]] == ["baseline_replay",
                                                            "worker_replay"]
    # The same job traced or not gives the same result.
    assert traced["digest"] == plain["digest"]
    from livebench.tracer import layer_metrics

    layers = layer_metrics(json.loads(spans.read_text()), traced["fresh"])
    assert layers["runtime.fresh_evaluations"] == traced["fresh"]
    assert layers["gpu.launch.calls"] >= 1
    assert layers["workloads.evaluate.calls"] >= traced["fresh"]


def test_oracle_tier_agrees_on_a_tiny_search(tmp_path):
    workload = tiny("simcov-search")
    reports = []
    for tier in (None, "oracle"):
        workdir = tmp_path / str(tier)
        workdir.mkdir()
        reports.append(job.run_job(workload, 1, tier, str(workdir)))
    assert reports[0]["digest"] == reports[1]["digest"]


def test_seed_draws_new_inputs(tmp_path):
    workload = tiny("toy-search-persist")
    adapters = [job.build_adapter(workload, seed, None) for seed in (0, 0, 1)]
    assert (adapters[0].x == adapters[1].x).all()
    assert not (adapters[0].x == adapters[2].x).all()


def test_traced_run_through_job_processes():
    result = run.run_workload(ROOT, tiny("toy-search-persist"), seed=0, seconds=0,
                              trace=True)
    assert result["jobs"] == spec.MIN_JOBS and result["traced_jobs"] == spec.MIN_JOBS
    assert result["correct"] is True
    assert [check["name"] for check in result["checks"]] == [
        "tier_agreement", "baseline_replay", "worker_replay"]
    line = run.metrics_json(result, trace=True)
    assert line["metrics"]["runtime.fresh_evaluations"]["value"] >= 1
    assert not (ROOT / run.WORK_DIR).exists()


def test_work_counters_repeat_exactly(tmp_path):
    workload = tiny("simcov-search")
    layers = [run.run_job_process(ROOT, workload, 2, tmp_path / str(index),
                                  traced=True)["layers"] for index in range(2)]
    for name in ("runtime.fresh_evaluations", "gpu.sim_instructions",
                 "gpu.decode.misses", "gpu.jit.source_compiles"):
        assert layers[0][name] == layers[1][name] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "livebench", tmp_path / "livebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "livebench/run.py", "--workload", "toy-search-persist",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
