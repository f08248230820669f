"""Integration tests: the ADEPT GPU kernels against the CPU reference, and the
behaviour of the recorded GEVO edits (Sections IV, V and VI of the paper)."""

import numpy as np
import pytest

from repro.gevo import apply_edits
from repro.gpu import GpuDevice, get_arch
from repro.workloads.adept import (
    AdeptDriver,
    adept_v0_discovered_edits,
    adept_v0_partial_edits,
    adept_v1_ballot_sync_edits,
    adept_v1_discovered_edits,
    adept_v1_edit,
    adept_v1_epistatic_edits,
    adept_v1_independent_edits,
    batch_alignment_scores,
    generate_pairs,
)


class TestAdeptCorrectness:
    def test_v1_scores_match_reference(self, adept_v1_adapter):
        baseline = adept_v1_adapter.baseline()
        assert baseline.valid, [case.message for case in baseline.cases]

    def test_v0_scores_match_reference(self, adept_v0_adapter):
        baseline = adept_v0_adapter.baseline()
        assert baseline.valid, [case.message for case in baseline.cases]

    def test_v1_heldout_validation_passes(self, adept_v1_adapter):
        validation = adept_v1_adapter.validate(adept_v1_adapter.original_module())
        assert validation.valid

    def test_driver_runs_arbitrary_batches(self):
        pairs = generate_pairs(3, reference_length=30, query_length=18, seed=77)
        driver = AdeptDriver.for_version("v1", pairs, GpuDevice(get_arch("P100")))
        result = driver.run(pairs)
        np.testing.assert_array_equal(result.scores, batch_alignment_scores(pairs))
        assert result.best_score == int(batch_alignment_scores(pairs).max())
        assert result.kernel_time_ms > 0

    def test_driver_rejects_oversized_batches(self, adept_v1_adapter):
        long_pairs = generate_pairs(1, reference_length=150, query_length=90, seed=1)
        with pytest.raises(Exception):
            adept_v1_adapter.driver.run(long_pairs)

    def test_unknown_version_rejected(self):
        pairs = generate_pairs(1, 20, 12, seed=0)
        with pytest.raises(Exception):
            AdeptDriver.for_version("v2", pairs)


class TestDiscoveredEditsV1:
    def test_full_edit_set_improves_and_validates(self, adept_v1_adapter):
        adapter = adept_v1_adapter
        baseline = adapter.baseline()
        edits = adept_v1_discovered_edits(adapter.kernel)
        optimized = adapter.evaluate(apply_edits(adapter.original_module(), edits).module)
        assert optimized.valid
        speedup = baseline.runtime_ms / optimized.runtime_ms
        assert 1.1 < speedup < 1.6  # paper: 1.28x on the P100

    def test_epistatic_cluster_alone_improves(self, adept_v1_adapter):
        adapter = adept_v1_adapter
        baseline = adapter.baseline()
        edits = list(adept_v1_epistatic_edits(adapter.kernel).values())
        optimized = adapter.evaluate(apply_edits(adapter.original_module(), edits).module)
        assert optimized.valid
        assert baseline.runtime_ms / optimized.runtime_ms > 1.05

    def test_independent_edits_alone_improve(self, adept_v1_adapter):
        adapter = adept_v1_adapter
        baseline = adapter.baseline()
        edits = list(adept_v1_independent_edits(adapter.kernel).values())
        optimized = adapter.evaluate(apply_edits(adapter.original_module(), edits).module)
        assert optimized.valid
        assert baseline.runtime_ms / optimized.runtime_ms > 1.02

    @pytest.mark.parametrize("paper_index", [5, 8, 10])
    def test_dependent_edits_fail_alone(self, adept_v1_adapter, paper_index):
        """Edits 5, 8 and 10 fail verification when applied individually (Fig. 7)."""
        adapter = adept_v1_adapter
        edit = adept_v1_edit(adapter.kernel, paper_index)
        result = adapter.evaluate(apply_edits(adapter.original_module(), [edit]).module)
        assert not result.valid

    def test_edit6_alone_is_roughly_neutral_and_valid(self, adept_v1_adapter):
        adapter = adept_v1_adapter
        baseline = adapter.baseline()
        edit = adept_v1_edit(adapter.kernel, 6)
        result = adapter.evaluate(apply_edits(adapter.original_module(), [edit]).module)
        assert result.valid
        assert abs(baseline.runtime_ms / result.runtime_ms - 1.0) < 0.1

    def test_edits_6_8_work_together(self, adept_v1_adapter):
        adapter = adept_v1_adapter
        edits = [adept_v1_edit(adapter.kernel, 6), adept_v1_edit(adapter.kernel, 8)]
        result = adapter.evaluate(apply_edits(adapter.original_module(), edits).module)
        assert result.valid

    def test_edit5_requires_the_full_cluster(self, adept_v1_adapter):
        adapter = adept_v1_adapter
        kernel = adapter.kernel
        partial = [adept_v1_edit(kernel, 5), adept_v1_edit(kernel, 6),
                   adept_v1_edit(kernel, 8)]
        result = adapter.evaluate(apply_edits(adapter.original_module(), partial).module)
        assert not result.valid
        full = partial + [adept_v1_edit(kernel, 10)]
        result = adapter.evaluate(apply_edits(adapter.original_module(), full).module)
        assert result.valid

    def test_ballot_sync_removal_is_volta_specific(self):
        from repro.workloads.adept import AdeptWorkloadAdapter, search_pairs

        improvements = {}
        for arch_name in ("P100", "V100"):
            adapter = AdeptWorkloadAdapter("v1", get_arch(arch_name),
                                           fitness_cases=[search_pairs()])
            baseline = adapter.baseline()
            edited = adapter.evaluate(apply_edits(
                adapter.original_module(),
                adept_v1_ballot_sync_edits(adapter.kernel)).module)
            assert edited.valid
            improvements[arch_name] = (baseline.runtime_ms - edited.runtime_ms) / baseline.runtime_ms
        assert improvements["V100"] > improvements["P100"]
        assert improvements["V100"] > 0.02
        assert improvements["P100"] < 0.03


class TestDiscoveredEditsV0:
    def test_init_region_removal_is_large_and_valid(self, adept_v0_adapter):
        adapter = adept_v0_adapter
        baseline = adapter.baseline()
        edits = adept_v0_discovered_edits(adapter.kernel)
        optimized = adapter.evaluate(apply_edits(adapter.original_module(), edits).module)
        assert optimized.valid
        speedup = baseline.runtime_ms / optimized.runtime_ms
        assert speedup > 10  # paper: >30x at full scale

    def test_partial_edits_give_partial_improvement(self, adept_v0_adapter):
        adapter = adept_v0_adapter
        baseline = adapter.baseline()
        partial = list(adept_v0_partial_edits(adapter.kernel).values())
        optimized = adapter.evaluate(apply_edits(adapter.original_module(), partial).module)
        assert optimized.valid
        partial_speedup = baseline.runtime_ms / optimized.runtime_ms
        full = adept_v0_discovered_edits(adapter.kernel)
        full_speedup = baseline.runtime_ms / adapter.evaluate(
            apply_edits(adapter.original_module(), full).module).runtime_ms
        assert 1.0 < partial_speedup < full_speedup


class TestWorkerCopies:
    """What a ``--jobs N`` worker receives is a pickled copy of the adapter."""

    @pytest.fixture(scope="class")
    def small_adapter(self):
        from repro.workloads.adept import AdeptWorkloadAdapter

        short = generate_pairs(2, reference_length=30, query_length=18, seed=3)
        other = generate_pairs(1, reference_length=40, query_length=24, seed=4)
        return AdeptWorkloadAdapter("v1", get_arch("P100"),
                                    fitness_cases=[short, other],
                                    validation_pairs=short)

    def test_pickled_adapter_evaluates_the_original_as_valid(self, small_adapter):
        import pickle

        worker = pickle.loads(pickle.dumps(small_adapter))
        result = worker.evaluate(small_adapter.original_module())
        assert result.valid, [case.message for case in result.cases]
        assert result.runtime_ms == small_adapter.baseline().runtime_ms

    def test_process_pool_batch_equals_serial_batch(self, small_adapter):
        from repro.runtime import EvaluationEngine, ParallelExecutor

        edits = adept_v1_discovered_edits(small_adapter.kernel)
        sets = [[], [edits[0]], [edits[1]], edits[:2]]
        serial = EvaluationEngine(small_adapter).evaluate_many(sets)
        with EvaluationEngine(small_adapter, executor=ParallelExecutor(2)) as engine:
            pooled = engine.evaluate_many(sets)
        assert [(r.valid, r.runtime_ms) for r in pooled] == \
               [(r.valid, r.runtime_ms) for r in serial]
        assert serial[0].valid
