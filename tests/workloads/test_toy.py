"""The toy workload adapter: input isolation and the memoized kernel."""

from repro.gevo import apply_edits
from repro.gevo.edits import OperandReplace
from repro.ir import Reg, reset_uid_namespace
from repro.workloads import ToyWorkloadAdapter, build_toy_kernel


def _store_into_x(adapter):
    """A variant whose store writes ``3*x + y`` into ``x`` instead of ``out``."""
    store = next(inst for inst in adapter.original_module().instructions()
                 if inst.opcode == "store")
    return apply_edits(adapter.original_module(),
                       [OperandReplace(store.uid, 0, Reg("x"))]).module


class TestInputIsolation:
    def test_a_variant_that_stores_into_x_leaves_the_inputs_intact(self):
        adapter = ToyWorkloadAdapter(elements=64)
        x_before, y_before = adapter.x.copy(), adapter.y.copy()
        baseline = adapter.baseline()
        assert baseline.valid
        assert not adapter.evaluate(_store_into_x(adapter)).valid
        assert (adapter.x == x_before).all() and (adapter.y == y_before).all()
        again = adapter.evaluate(adapter.original_module())
        assert again.valid and again.runtime_ms == baseline.runtime_ms

    def test_batched_rows_do_not_leak_stores_into_later_rows(self):
        adapter = ToyWorkloadAdapter(elements=64)
        original = adapter.original_module()
        results = adapter.evaluate_batched([_store_into_x(adapter), original])
        assert not results[0].valid
        assert results[1].valid
        assert adapter.evaluate(original).valid


class TestMemoizedKernel:
    def test_adapters_in_one_process_share_instruction_uids(self):
        first, second = ToyWorkloadAdapter(), ToyWorkloadAdapter(elements=64)
        assert first.original_module() is second.original_module()
        assert first.kernel.edit_targets == second.kernel.edit_targets

    def test_uid_namespace_reset_rebuilds_the_kernel(self):
        before = build_toy_kernel()
        reset_uid_namespace()
        rebuilt = build_toy_kernel()
        assert rebuilt is not before
        # The first build in a fresh namespace numbers from 1, exactly as
        # a freshly-started process does.
        assert min(inst.uid for inst in rebuilt.module.instructions()) == 1
        assert build_toy_kernel() is rebuilt
