"""Metric derivation: spans to per-layer metrics, job reports to medians."""

import json
from pathlib import Path

import pytest

from livebench import run, spec
from livebench.tracer import layer_metrics

ROOT = Path(__file__).resolve().parents[2]


def span(ident, parent, name, start, end, **attrs):
    return [ident, parent, name, start, end, attrs]


def test_self_time_is_duration_minus_children():
    spans = [
        span(0, -1, "workloads.evaluate", 0.0, 10.0),
        span(1, 0, "gpu.launch", 1.0, 9.0, instructions=4000),
        span(2, 1, "gpu.decode.lookup", 1.0, 3.0),
        span(3, 2, "gpu.decode.build", 1.5, 2.5),
        span(4, 1, "gpu.jit", 3.0, 6.0, compiles=2),
    ]
    metrics = layer_metrics(spans, fresh_evaluations=1)
    assert metrics["gpu.decode.s"] == pytest.approx(2.0)
    assert metrics["gpu.decode.calls"] == 1
    assert metrics["gpu.decode.misses"] == 1
    assert metrics["gpu.jit.s"] == pytest.approx(3.0)
    assert metrics["gpu.jit.source_compiles"] == 2
    assert metrics["gpu.launch.s"] == pytest.approx(8.0)
    assert metrics["gpu.simulate.s"] == pytest.approx(3.0)
    assert metrics["gpu.jit.share_of_launch"] == pytest.approx(3.0 / 8.0)
    assert metrics["gpu.simulate.us_per_kinst"] == pytest.approx(3.0e6 / 4.0)
    assert metrics["workloads.evaluate.s"] == pytest.approx(10.0)
    assert metrics["workloads.host.s"] == pytest.approx(2.0)


def test_solo_fallback_launches_are_not_counted_twice():
    spans = [
        span(0, -1, "gpu.launch_batched", 0.0, 4.0, instructions=300),
        span(1, 0, "gpu.launch", 0.5, 1.5, instructions=100),
        span(2, 0, "gpu.launch", 1.5, 2.5, instructions=200),
        span(3, -1, "gpu.launch_batched", 5.0, 6.0, instructions=50),
        span(4, 3, "gpu.execute_batched", 5.0, 6.0, rows=2),
    ]
    metrics = layer_metrics(spans, fresh_evaluations=4)
    assert metrics["gpu.launch.calls"] == 2
    assert metrics["gpu.sim_instructions"] == 350
    assert metrics["gpu.launch.s"] == pytest.approx(5.0)
    assert metrics["gpu.batched.launches"] == 1
    assert metrics["gpu.batched.rows"] == 2


def test_runtime_and_gevo_metrics():
    spans = [
        span(0, -1, "gevo.search", 0.0, 10.0),
        span(1, 0, "runtime.evaluate_many", 1.0, 5.0, fresh=3),
        span(2, 1, "runtime.cache", 1.0, 1.5, hit=1),
        span(3, 1, "runtime.cache", 1.5, 2.0, hit=0),
        span(4, 1, "runtime.cache", 4.5, 5.0),
        span(5, 1, "runtime.plan", 2.0, 2.5, grouped=2),
        span(6, 1, "gevo.apply_edits", 2.5, 3.0),
        span(7, 0, "runtime.checkpoint", 6.0, 7.0),
        span(8, 0, "runtime.checkpoint.save", 7.0, 8.0, bytes=123),
    ]
    metrics = layer_metrics(spans, fresh_evaluations=4)
    assert metrics["gevo.loop.s"] == pytest.approx(6.0)
    assert metrics["runtime.fresh_evaluations"] == 3
    assert metrics["runtime.cache.hits"] == 1
    assert metrics["runtime.cache.misses"] == 1
    assert metrics["runtime.cache.hit_ratio"] == pytest.approx(0.5)
    assert metrics["runtime.cache.s"] == pytest.approx(1.5)
    assert metrics["runtime.batched_fraction"] == pytest.approx(0.5)
    assert metrics["gevo.apply_edits.per_eval"] == pytest.approx(0.25)
    assert metrics["runtime.checkpoint.saves"] == 1
    assert metrics["runtime.checkpoint.s"] == pytest.approx(2.0)
    assert metrics["runtime.checkpoint.bytes"] == 123


def test_empty_span_list_gives_zeros():
    metrics = layer_metrics([], fresh_evaluations=0)
    assert all(value == 0 for value in metrics.values())


def job_report(setup, fresh, phase, cpu, rss, layers=None):
    return {"setup_s": setup, "fresh": fresh, "phase_s": phase, "cpu_s": cpu,
            "peak_rss_mb": rss, "best_speedup": 1.25, "import_s": 0.5,
            "adapter_s": 0.1, "layers": layers}


def test_end_to_end_takes_medians():
    jobs = [job_report(1.0, 100, 2.0, 1.0, 60.0), job_report(3.0, 100, 1.0, 2.0, 70.0),
            job_report(2.0, 100, 4.0, 3.0, 65.0)]
    metrics = run.end_to_end(jobs)
    assert metrics == {"setup_s": 2.0, "evals_per_s": 50.0, "cpu_ms_per_eval": 20.0,
                       "peak_rss_mb": 65.0, "best_speedup": 1.25}


def test_per_layer_reports_tracing_overhead():
    plain = [job_report(1.0, 100, 1.0, 1.0, 60.0)]
    traced = [job_report(1.0, 100, 2.0, 1.0, 60.0, layers={"gpu.launch.s": 1.0})]
    metrics = run.per_layer(plain, traced)
    assert metrics["trace.evals_per_s"] == 50.0
    assert metrics["trace.overhead"] == 2.0
    assert metrics["setup.import.s"] == 0.5


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_has_exactly_the_declared_metrics(trace):
    names = [m.name for m in (spec.PER_LAYER if trace else spec.END_TO_END)
             if not m.reported_only]
    result = {"correct": True, "attempted": 3, "failed": 1,
              "end_to_end": {name: 1.5 for name in names},
              "per_layer": {name: 1.5 for name in names}}
    line = run.metrics_json(result, trace)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert list(line["metrics"]) == names


def test_benchmark_json_matches_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()


def test_per_layer_names_match_the_derivation():
    derived = set(layer_metrics([], 0)) | {"setup.import.s", "setup.adapter.s",
                                          "trace.evals_per_s", "trace.overhead"}
    assert derived == {m.name for m in spec.PER_LAYER}
