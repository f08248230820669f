"""The telemetry subsystem: schema, no-op guarantee, merge determinism.

Four contracts are pinned here:

* the JSONL trace schema round-trips exactly (and rejects malformed
  records loudly);
* a disabled :class:`~repro.runtime.telemetry.Telemetry` handle is a true
  no-op -- zero events, zero files, null metrics -- so un-traced runs pay
  one attribute check and nothing else;
* merging per-emitter event streams is deterministic regardless of how
  the part files interleave (the multi-process ordering property the
  service arc will build on), pinned by a hypothesis property test;
* a traced sweep's per-leg counters match its ``report.json`` exactly
  (the acceptance criterion of the observability PR).
"""

import json
import logging
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import EvaluationEngine, ParallelExecutor
from repro.runtime.console import ConsoleReporter, configure_console
from repro.runtime.sweep import SweepSpec, run_sweep
from repro.runtime.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    emit_module_hotspots,
    new_run_id,
    telemetry_of,
)
from repro.runtime.trace_format import (
    MERGED_EVENTS_FILE,
    TraceEvent,
    event_from_dict,
    event_to_dict,
    format_event_line,
    load_metrics,
    load_trace,
    merge_events,
    merge_trace_dir,
    parse_event_line,
    read_events,
    summarize_trace,
)
from repro.workloads import ToyWorkloadAdapter, toy_discovered_edits


@pytest.fixture(scope="module")
def adapter():
    return ToyWorkloadAdapter(elements=64)


@pytest.fixture(scope="module")
def edits(adapter):
    return toy_discovered_edits(adapter.kernel)


class TestSchemaRoundTrip:
    def test_event_round_trips_through_dict_and_line(self):
        event = TraceEvent(run_id="r", emitter="main", seq=3, kind="span",
                           name="engine.batch", t=1.5, dur=0.25,
                           fields={"batch": 4, "label": "x"})
        assert event_from_dict(event_to_dict(event)) == event
        assert parse_event_line(format_event_line(event)) == event

    def test_point_event_omits_duration(self):
        event = TraceEvent(run_id="r", emitter="w", seq=1, kind="event",
                           name="cache.flush", t=0.0)
        record = event_to_dict(event)
        assert "dur" not in record
        assert event_from_dict(record) == event

    @pytest.mark.parametrize("mutation", [
        {"v": 99},              # unknown format version
        {"kind": "trace"},      # unknown record kind
        {"seq": "three"},       # non-integer sequence number
        {"name": None},         # unnamed event
    ])
    def test_malformed_records_are_rejected(self, mutation):
        record = event_to_dict(TraceEvent(run_id="r", emitter="m", seq=1,
                                          kind="event", name="x", t=0.0))
        record.update(mutation)
        with pytest.raises(ValueError):
            event_from_dict(record)

    def test_reader_skips_a_torn_tail(self, tmp_path):
        path = tmp_path / "events-main.jsonl"
        whole = format_event_line(TraceEvent(run_id="r", emitter="main",
                                             seq=1, kind="event", name="a",
                                             t=0.0))
        path.write_text(whole + "\n" + '{"v": 1, "torn')
        events = read_events(str(path))
        assert [event.name for event in events] == ["a"]


class TestDisabledIsANoOp:
    def test_null_telemetry_emits_nothing(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.event("anything", x=1) is None
        with NULL_TELEMETRY.span("work") as fields:
            fields["y"] = 2  # the dict is still usable, just never emitted
        NULL_TELEMETRY.counter("c").inc()
        NULL_TELEMETRY.gauge("g").set(3)
        NULL_TELEMETRY.histogram("h").observe(1.0)

    def test_disabled_handle_writes_no_files(self, tmp_path):
        trace_dir = tmp_path / "trace"
        telemetry = Telemetry(str(trace_dir), enabled=False)
        telemetry.event("x")
        telemetry.close()
        assert not trace_dir.exists()

    def test_untraced_engine_writes_no_files(self, adapter, edits, tmp_path):
        engine = EvaluationEngine(adapter)
        engine.evaluate_many([[edits[0]], [edits[1]]])
        engine.close()
        assert engine.telemetry is NULL_TELEMETRY
        assert os.listdir(tmp_path) == []

    def test_telemetry_of_defaults_to_null(self):
        assert telemetry_of(object()) is NULL_TELEMETRY


EMITTERS = ("main", "worker-1", "worker-2")


@st.composite
def emitter_streams(draw):
    """Per-emitter streams with ordered sequence numbers and random clocks."""
    streams = []
    for emitter in EMITTERS:
        count = draw(st.integers(min_value=0, max_value=6))
        times = draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=count, max_size=count))
        streams.append([
            TraceEvent(run_id="r", emitter=emitter, seq=index + 1,
                       kind="event", name=f"{emitter}.e{index}", t=t)
            for index, t in enumerate(times)])
    return streams


class TestMergeDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(streams=emitter_streams(), data=st.data())
    def test_merge_order_is_independent_of_interleaving(self, streams, data):
        reference = merge_events(streams)
        permutation = data.draw(st.permutations(streams))
        assert merge_events(permutation) == reference
        # Re-merging a prior merge with a subset of the parts (what an
        # idempotent merge_trace_dir does) changes nothing either.
        assert merge_events([reference] + list(streams)) == reference
        # The total order is the documented sort key.
        keys = [event.sort_key for event in reference]
        assert keys == sorted(keys)

    def test_merge_trace_dir_folds_worker_parts(self, tmp_path):
        trace_dir = str(tmp_path)
        main = Telemetry(trace_dir, run_id="r", emitter="main")
        main.event("a")
        worker = Telemetry(trace_dir, run_id="r", emitter="worker-9")
        worker.event("b")
        worker.close()  # workers only close their part file
        main.close()    # the main emitter merges the directory
        assert sorted(os.listdir(trace_dir)) == [MERGED_EVENTS_FILE,
                                                 "metrics.json"]
        assert {event.emitter for event in load_trace(trace_dir)} == {
            "main", "worker-9"}

    def test_parallel_engine_merges_worker_events(self, adapter, edits, tmp_path):
        trace_dir = str(tmp_path / "trace")
        telemetry = Telemetry(trace_dir, run_id="mp")
        engine = EvaluationEngine(adapter, executor=ParallelExecutor(2),
                                  telemetry=telemetry)
        engine.evaluate_many([[edit] for edit in edits[:4]])
        engine.close()
        telemetry.close()
        events = load_trace(trace_dir)
        workers = {event.emitter for event in events
                   if event.name == "worker.evaluate"}
        assert workers, "worker evaluation spans missing from the merged trace"
        assert all(emitter.startswith("worker-") for emitter in workers)
        assert not [name for name in os.listdir(trace_dir)
                    if name.startswith("events-")], "part files not folded in"


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc()
        registry.counter("cache.hits").inc(2)
        registry.gauge("engine.cache_size").set(7)
        for value in (1.0, 3.0):
            registry.histogram("batch.seconds").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["cache.hits"] == 3
        assert snapshot["gauges"]["engine.cache_size"] == 7
        histogram = snapshot["histograms"]["batch.seconds"]
        assert histogram["count"] == 2
        assert histogram["total"] == 4.0 and histogram["mean"] == 2.0
        assert histogram["min"] == 1.0 and histogram["max"] == 3.0

    def test_run_ids_are_unique_and_sortable(self):
        first, second = new_run_id(), new_run_id()
        assert first != second
        assert "-" in first


class TestEngineInstrumentation:
    def test_batch_spans_and_cache_counters(self, adapter, edits, tmp_path):
        trace_dir = str(tmp_path)
        with Telemetry(trace_dir, run_id="r") as telemetry:
            engine = EvaluationEngine(adapter, telemetry=telemetry)
            engine.evaluate_many([[edits[0]], [edits[1]]])
            engine.evaluate_many([[edits[0]]])  # warm -> cache hit
            engine.close()
        metrics = load_metrics(trace_dir)
        assert metrics["counters"]["engine.evaluations"] == 2
        assert metrics["counters"]["cache.misses"] == 2
        assert metrics["counters"]["cache.hits"] >= 1
        assert metrics["gauges"]["engine.wall_clock_seconds"] > 0
        spans = [event for event in load_trace(trace_dir)
                 if event.name == "engine.batch"]
        # The all-hits batch dispatches no executor work: one span only.
        assert len(spans) == 1
        assert spans[0].fields["fresh"] == 2

    def test_population_batch_counters(self, adapter, tmp_path):
        """Clone batching surfaces through the engine's telemetry seam:
        group/launch counters plus a batch-size histogram, never print."""
        from repro.gevo.edits import OperandReplace
        from repro.ir.values import Const

        module = adapter.original_module()
        mul_uid = next(
            instruction.uid for instruction in module.instructions()
            if instruction.opcode == "mul"
            and getattr(instruction.operands[1], "value", None) == 3)
        sets = [[OperandReplace(mul_uid, 1, Const(value))]
                for value in (3.0, 4.0, 5.0)]
        trace_dir = str(tmp_path)
        with Telemetry(trace_dir, run_id="r") as telemetry:
            engine = EvaluationEngine(adapter, telemetry=telemetry)
            assert engine.batch_launches_enabled  # serial default: on
            engine.evaluate_many(sets)
            engine.close()
        metrics = load_metrics(trace_dir)
        assert metrics["counters"]["engine.batch_groups"] == 1
        assert metrics["counters"]["engine.batched_launches"] == 3
        histogram = metrics["histograms"]["engine.batch_size"]
        assert histogram["count"] == 1 and histogram["max"] == 3.0

    def test_stats_carry_wall_clock_and_rate(self, adapter, edits):
        engine = EvaluationEngine(adapter)
        engine.evaluate_many([[edits[0]]])
        stats = engine.stats()
        assert stats.wall_clock_seconds > 0
        assert stats.evaluations_per_second > 0
        assert "evals/s" in stats.summary()
        assert stats.summary().startswith(f"{stats.evaluations} evaluations")

    def test_hotspots_profile_is_opt_in(self, adapter, tmp_path):
        trace_dir = str(tmp_path)
        profile_before = adapter.device.profile_enabled
        with Telemetry(trace_dir, run_id="r") as telemetry:
            assert emit_module_hotspots(telemetry, adapter,
                                        adapter.original_module(),
                                        label="test")
        assert adapter.device.profile_enabled == profile_before  # restored
        events = [event for event in load_trace(trace_dir)
                  if event.name == "profile.hotspots"]
        assert len(events) == 1
        hotspots = events[0].fields["hotspots"]
        assert hotspots and {"location", "opcode", "cycles",
                             "executions"} <= set(hotspots[0])


class TestSweepAcceptance:
    def test_traced_sweep_matches_report_and_summarizes(self, tmp_path):
        spec = SweepSpec(archs=["P100"], workloads=["toy"], seeds=[0, 1],
                         method="gevo", population=4, generations=2)
        sweep_dir = str(tmp_path / "sweep")
        trace_dir = str(tmp_path / "trace")
        with Telemetry(trace_dir, run_id="acceptance") as telemetry:
            run_sweep(spec, sweep_dir, telemetry=telemetry)

        report = json.load(open(os.path.join(sweep_dir, "report.json")))
        assert report["telemetry"] == {"run_id": "acceptance",
                                       "trace_dir": trace_dir}
        metrics = load_metrics(trace_dir)
        for row in report["legs"]:
            leg_id = (f"{row['method']}-{row['workload']}-{row['arch']}"
                      f"-seed{row['seed']}")
            for key in ("evaluations", "fresh_evaluations", "cache_hits"):
                assert metrics["counters"][f"sweep.leg.{leg_id}.{key}"] == \
                    row[key], f"{leg_id}.{key} diverged from report.json"

        names = {event.name for event in load_trace(trace_dir)}
        assert {"sweep.start", "sweep.leg", "sweep.end", "search.generation",
                "engine.batch", "executor.dispatch"} <= names
        rendered = summarize_trace(trace_dir).render()
        assert "cache:" in rendered and "phase timing:" in rendered

    def test_resumed_sweep_emits_skipped_legs(self, tmp_path):
        spec = SweepSpec(archs=["P100"], workloads=["toy"], seeds=[0],
                         method="gevo", population=4, generations=2)
        sweep_dir = str(tmp_path / "sweep")
        run_sweep(spec, sweep_dir)  # untraced first pass
        trace_dir = str(tmp_path / "trace")
        with Telemetry(trace_dir, run_id="resume") as telemetry:
            report = run_sweep(spec, sweep_dir, resume=True,
                               telemetry=telemetry)
        assert all(row.status == "skipped" for row in report.rows)
        legs = [event for event in load_trace(trace_dir)
                if event.name == "sweep.leg"]
        assert [event.fields["status"] for event in legs] == ["skipped"]
        metrics = load_metrics(trace_dir)
        counter = "sweep.leg.gevo-toy-P100-seed0.fresh_evaluations"
        assert metrics["counters"][counter] == 0


class TestConsoleReporter:
    def test_sweep_leg_event_renders_at_info(self, capsys):
        configure_console()
        reporter = ConsoleReporter()
        reporter(TraceEvent(run_id="r", emitter="main", seq=1, kind="span",
                            name="sweep.leg", t=0.0, dur=1.25,
                            fields={"status": "completed", "leg_id": "leg-0",
                                    "speedup": 1.5, "evaluations": 10,
                                    "fresh_evaluations": 4}))
        out = capsys.readouterr().out
        assert "[completed] leg-0: 1.500x, 10 evaluations (4 fresh, 1.2s)" in out

    def test_quiet_suppresses_progress(self, capsys):
        configure_console(quiet=True)
        try:
            reporter = ConsoleReporter()
            reporter(TraceEvent(run_id="r", emitter="main", seq=1, kind="span",
                                name="sweep.leg", t=0.0, dur=0.0,
                                fields={"status": "completed"}))
            assert capsys.readouterr().out == ""
            reporter(TraceEvent(run_id="r", emitter="main", seq=2,
                                kind="event", name="executor.fault", t=0.0,
                                fields={"executor": "parallel",
                                        "error": "boom"}))
            assert "boom" in capsys.readouterr().out
        finally:
            configure_console()  # restore the default level for other tests

    def test_verbose_shows_generations(self, capsys):
        configure_console(verbose=True)
        try:
            reporter = ConsoleReporter()
            reporter(TraceEvent(run_id="r", emitter="main", seq=1,
                                kind="event", name="search.generation", t=0.0,
                                fields={"generation": 3, "best_fitness": 0.5,
                                        "evaluations": 12, "stagnation": 1}))
            assert "generation 3" in capsys.readouterr().out
        finally:
            configure_console()


class TestHotPathStaysClean:
    def test_gpu_interpreter_modules_never_import_telemetry(self):
        """Instrumentation stops at the engine/executor boundary.

        The simulator's interpreter tiers are the hot loops the no-op
        guarantee protects; if any of them ever references the telemetry
        layer, per-instruction overhead can sneak in.
        """
        import repro.gpu as gpu_package

        gpu_dir = os.path.dirname(gpu_package.__file__)
        for name in sorted(os.listdir(gpu_dir)):
            if not name.endswith(".py"):
                continue
            source = open(os.path.join(gpu_dir, name), encoding="utf-8").read()
            assert "telemetry" not in source.lower(), (
                f"repro/gpu/{name} references the telemetry layer")
