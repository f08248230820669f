"""Executor selection and executor fault handling.

Contracts from the ``Executor`` docstring pinned here (serial/process
parity itself lives in ``tests/runtime/test_engine.py``):

* ``make_executor`` maps ``--jobs`` onto the serial executor or the
  process pool and rejects every other kind;
* **clean failure** -- an evaluation that raises on the serial path
  propagates without storing any of the batch, and a worker process
  that dies mid-batch surfaces one :class:`~repro.errors.ExecutorError`;
  either way no partial results reach the cache and the executor stays
  usable for the next batch.
"""

import os

import pytest

from repro.errors import ExecutorError
from repro.runtime import (
    EvaluationEngine,
    FitnessCache,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.workloads import ToyWorkloadAdapter, toy_discovered_edits


@pytest.fixture(scope="module")
def adapter():
    return ToyWorkloadAdapter(elements=64)


class FailingToyAdapter(ToyWorkloadAdapter):
    """Raises when the marker instruction has been edited out."""

    def __init__(self, fail_uid, **kwargs):
        super().__init__(**kwargs)
        self.fail_uid = fail_uid

    def evaluate(self, module):
        present = {inst.uid for inst in module.instructions()}
        if self.fail_uid not in present:
            raise RuntimeError("injected failure: marker instruction deleted")
        return super().evaluate(module)


class DyingToyAdapter(ToyWorkloadAdapter):
    """Hard-kills the evaluating process: simulates an OOM-killed worker."""

    def evaluate(self, module):
        os._exit(13)


class TestParity:
    def test_single_item_batches_stay_serial(self, adapter):
        # The pool's <=1 fast path must not regress results either.
        baseline = EvaluationEngine(adapter).baseline()
        with EvaluationEngine(adapter, executor=ParallelExecutor(4)) as engine:
            assert engine.baseline() == baseline


class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(1, "auto"), SerialExecutor)
        process = make_executor(3, "auto")
        assert isinstance(process, ParallelExecutor) and process.jobs == 3

    def test_zero_jobs_pick_a_default(self):
        assert make_executor(0, "auto").jobs >= 1

    def test_unknown_kind_is_an_error(self):
        # Only the --jobs rule remains; a pinned executor is constructed
        # directly, never named.
        for kind in ("quantum", "serial", "process", "async", "sharded"):
            with pytest.raises(ValueError, match="--jobs"):
                make_executor(2, kind)


class TestFaultHandling:
    def test_serial_failure_does_not_corrupt_the_cache(self, tmp_path):
        from repro.gevo.edits import InstructionDelete

        adapter = FailingToyAdapter(None, elements=64)
        adapter.fail_uid = adapter.kernel.edit_targets["useless_barrier"]
        others = [uid for uid in adapter.kernel.edit_targets.values()
                  if uid != adapter.fail_uid]
        good_sets = [[InstructionDelete(uid)] for uid in others]
        cache_path = str(tmp_path / "cache.sqlite")
        engine = EvaluationEngine(adapter, executor=SerialExecutor(),
                                  cache=FitnessCache(cache_path))
        engine.evaluate_many(good_sets)
        persisted_before = len(FitnessCache(cache_path))
        # A fresh healthy combination evaluated *before* the failing
        # variant in the same batch must not be stored either.
        failing_batch = [[InstructionDelete(others[0]), InstructionDelete(others[1])],
                         [InstructionDelete(adapter.fail_uid)]]
        with pytest.raises(RuntimeError, match="injected failure"):
            engine.evaluate_many(failing_batch)
        engine.close()
        # Nothing from the failed batch was stored; the previously
        # persisted entries are intact, and a fresh engine over the same
        # cache re-serves them without re-simulation.
        assert len(FitnessCache(cache_path)) == persisted_before
        healthy = ToyWorkloadAdapter(elements=64)
        with EvaluationEngine(healthy, cache=FitnessCache(cache_path)) as fresh:
            fresh.evaluate_many(good_sets)
            assert fresh.evaluations == 0

    def test_dead_worker_process_surfaces_executor_error_and_pool_resets(self):
        dying = DyingToyAdapter(elements=64)
        sets = [[edit] for edit in toy_discovered_edits(dying.kernel)]
        executor = ParallelExecutor(2)
        try:
            with pytest.raises(ExecutorError, match="worker process died"):
                EvaluationEngine(dying, executor=executor).evaluate_many(sets)
            # The executor recovered: the same instance drives a healthy
            # adapter through a fresh pool.
            healthy = ToyWorkloadAdapter(elements=64)
            expected = EvaluationEngine(healthy).evaluate_many(sets)
            results = EvaluationEngine(healthy, executor=executor).evaluate_many(sets)
            assert [r.runtime_ms for r in results] == [r.runtime_ms for r in expected]
        finally:
            executor.close()
