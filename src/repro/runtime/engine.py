"""The shared evaluation engine: batch fitness evaluation over pluggable executors.

Every consumer of fitness values -- the GEVO generational loop, the
random-search and hill-climbing baselines, Algorithm 1/2 and the subset
sweep -- ultimately asks the same question: "what is the fitness of the
program with these edits applied?".  :class:`EvaluationEngine` answers it
through one batch API, ``evaluate_many(edit_sets)``, so a whole GA
generation or an epistasis pair-grid becomes a single concurrent wave:

* lookups go through the content-addressed :class:`~repro.runtime.cache.FitnessCache`
  (order-insensitive canonical keys, optional disk persistence);
* cache misses are deduplicated within the batch and dispatched to the
  configured executor -- :class:`SerialExecutor` runs them in-process,
  :class:`ParallelExecutor` fans them out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

The simulated GPU is fully deterministic (cycle-count timing, seeded
RNGs), so serial and parallel execution produce identical
:class:`~repro.gevo.fitness.FitnessResult`\\ s; the parity test in
``tests/runtime/test_engine.py`` pins that contract down.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutorError
from ..gevo.edits import Edit, edit_from_dict
from ..gevo.fitness import FitnessResult, WorkloadAdapter
from ..gevo.genome import apply_edits
from .cache import CacheKey, FitnessCache, canonical_edit_hash
from .faultpoints import kill_point
from .telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "BatchPlanner",
    "EngineStats",
    "EvaluationEngine",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "default_jobs",
]


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0`` (all cores, capped)."""
    return max(1, min(os.cpu_count() or 1, 16))


def _evaluate_one(adapter: WorkloadAdapter, original, edits: Sequence[Edit]) -> FitnessResult:
    applied = apply_edits(original, edits)
    return adapter.evaluate(applied.module)


# -- batch planning ------------------------------------------------------------------

class BatchPlanner:
    """Partition a wave of applied variants into co-batchable groups.

    Seam rule (see ``docs/ARCHITECTURE.md``): grouping keys on the
    *structural* JIT key of the applied module -- same decoded segment
    shapes and operand classes, with baked constants free to differ --
    never on workload-specific branches.  A group of >= ``min_group_size``
    variants is handed to the adapter's
    :meth:`~repro.gevo.fitness.WorkloadAdapter.evaluate_batched` in one
    stacked launch; everything else stays a singleton on the executor
    path.  Planning is purely an execution strategy: results are
    bit-for-bit identical either way (the device batch path falls back to
    solo launches for anything it cannot reproduce exactly).
    """

    def __init__(self, arch, min_group_size: int = 2):
        self.arch = arch
        self.min_group_size = max(2, int(min_group_size))

    def plan(self, modules: Sequence) -> Tuple[List[List[int]], List[int]]:
        """Split *modules* into ``(groups, singles)`` index lists.

        Groups preserve first-seen order and each group preserves input
        order, so the plan is deterministic for a given wave.
        """
        if self.arch is None:
            return [], list(range(len(modules)))
        from ..gpu.jitted import structural_module_key

        by_key: Dict[object, List[int]] = {}
        singles: List[int] = []
        for index, module in enumerate(modules):
            try:
                key = structural_module_key(module, self.arch)
            except Exception:  # pragma: no cover - defensive: unkeyable module
                singles.append(index)
                continue
            by_key.setdefault(key, []).append(index)
        groups: List[List[int]] = []
        for members in by_key.values():
            if len(members) >= self.min_group_size:
                groups.append(members)
            else:
                singles.extend(members)
        singles.sort()
        return groups, singles


# -- executors -----------------------------------------------------------------------

class Executor:
    """Strategy for running a batch of (deduplicated) fitness evaluations.

    Contract every implementation must honour (pinned by the parity and
    fault-handling batteries in ``tests/runtime/``):

    * :meth:`run_batch` returns one :class:`FitnessResult` per edit set,
      **in input order**, regardless of internal completion order;
    * results are **bit-for-bit identical** across executors -- the
      simulated GPU is deterministic, so serial and process-pool
      execution must agree exactly;
    * a failure mid-batch raises (ideally an
      :class:`~repro.errors.ExecutorError`) instead of returning partial
      results -- the engine only caches results from batches that
      completed, so a raising batch never corrupts the cache;
    * :meth:`close` releases resources and is idempotent; an executor
      must remain usable for a fresh batch after a failed one.

    Implementations override :meth:`_run_batch`; the public
    :meth:`run_batch` is a template that additionally emits
    ``executor.dispatch`` / ``executor.complete`` / ``executor.fault``
    telemetry events when a :class:`~repro.runtime.telemetry.Telemetry`
    handle is bound (see :meth:`bind_telemetry`) -- a single attribute
    check when telemetry is disabled.
    """

    name = "executor"
    #: Bound by the owning engine; the null handle is a true no-op.
    telemetry: Telemetry = NULL_TELEMETRY

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach the run's telemetry handle (events + worker plumbing)."""
        self.telemetry = telemetry

    def run_batch(self, adapter: WorkloadAdapter, original,
                  edit_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._run_batch(adapter, original, edit_sets)
        telemetry.event("executor.dispatch", executor=self.name,
                        batch=len(edit_sets), jobs=getattr(self, "jobs", 1))
        start = time.monotonic()
        try:
            results = self._run_batch(adapter, original, edit_sets)
        except Exception as exc:
            cause = exc.__cause__
            telemetry.event("executor.fault", executor=self.name,
                            batch=len(edit_sets), error=str(exc),
                            error_type=type(exc).__name__,
                            cause_type=(type(cause).__name__
                                        if cause is not None else None))
            telemetry.counter("executor.faults").inc()
            raise
        telemetry.event("executor.complete", executor=self.name,
                        batch=len(edit_sets),
                        seconds=time.monotonic() - start)
        return results

    def _run_batch(self, adapter: WorkloadAdapter, original,
                   edit_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""


class SerialExecutor(Executor):
    """Evaluate the batch one variant at a time in the calling process."""

    name = "serial"

    def _run_batch(self, adapter, original, edit_sets):
        return [_evaluate_one(adapter, original, edits) for edits in edit_sets]


# Worker-side state for ParallelExecutor.  Each worker unpickles the adapter
# exactly once (in the pool initializer) instead of once per task.
_worker_adapter: Optional[WorkloadAdapter] = None
_worker_original = None
_worker_telemetry: Telemetry = NULL_TELEMETRY


def _prewarm_worker_caches(adapter, module) -> None:
    """Pre-decode (and JIT-compile) *module* for the adapter's interpreter tier.

    The per-function decode cache is a ``WeakKeyDictionary`` of unpicklable
    artifacts, so it never travels to pool workers: without this, every
    worker re-decodes the original module (and re-fills the process-wide
    JIT factory cache) on its first evaluation.  Decoding once in the
    initializer makes the baseline/unmodified-module evaluations hit a
    warm cache and seeds the structural JIT cache every variant of the
    batch shares.  Purely an optimization: any failure is ignored and the
    first evaluation decodes on demand instead.
    """
    arch = getattr(adapter, "arch", None)
    functions = getattr(module, "functions", None)
    if arch is None or not functions:
        return
    try:
        from ..gpu.arch import normalize_interpreter_tier

        tier = normalize_interpreter_tier(getattr(arch, "fast_path", True))
        if tier == "oracle":
            return
        if tier == "jit":
            from ..gpu.batched import batched_program
            from ..gpu.jitted import jit_function as warm
        else:
            from ..gpu.decoded import decode_function as warm

            batched_program = None
        for function in functions.values():
            warm(function, arch)
            if batched_program is not None:
                # Also warm the batched launch factories so a pool worker
                # handed a batch group does not recompile them per group.
                batched_program(function, arch)
    except Exception:  # noqa: BLE001 - best-effort warm-up only
        pass


def _init_worker(adapter_payload: bytes,
                 telemetry_config: Optional[Dict[str, str]] = None) -> None:
    global _worker_adapter, _worker_original, _worker_telemetry
    _worker_adapter = pickle.loads(adapter_payload)
    _worker_original = _worker_adapter.original_module()
    # Each worker appends to its own events-worker-<pid>.jsonl stream;
    # the owning run's Telemetry.close() merges the parts.
    _worker_telemetry = Telemetry.from_worker_config(telemetry_config)
    _prewarm_worker_caches(_worker_adapter, _worker_original)


def _worker_evaluate(edit_dicts: List[Dict[str, object]]) -> FitnessResult:
    edits = [edit_from_dict(data) for data in edit_dicts]
    if not _worker_telemetry.enabled:
        return _evaluate_one(_worker_adapter, _worker_original, edits)
    with _worker_telemetry.span("worker.evaluate", edits=len(edits)):
        return _evaluate_one(_worker_adapter, _worker_original, edits)


class ParallelExecutor(Executor):
    """Fan evaluations out over a process pool.

    The adapter is pickled once and shipped to each worker through the
    pool initializer; tasks carry only the serialised edit list (via
    :meth:`Edit.to_dict`), so per-task overhead stays small.  Workers are
    started lazily on the first batch and torn down by :meth:`close`.
    """

    name = "parallel"

    def __init__(self, jobs: int):
        if jobs < 1:
            jobs = default_jobs()
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Strong reference to the adapter the pool was built for -- also
        #: keeps ``id()`` stable for the identity check below.
        self._adapter: Optional[WorkloadAdapter] = None

    def _ensure_pool(self, adapter: WorkloadAdapter) -> ProcessPoolExecutor:
        if self._pool is not None and adapter is not self._adapter:
            # A different adapter invalidates the worker-side state.
            self.close()
        if self._pool is None:
            # Pickled exactly once per pool lifetime, not per batch.
            self._adapter = adapter
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(pickle.dumps(adapter),
                          self.telemetry.worker_config()),
            )
        return self._pool

    def _run_batch(self, adapter, original, edit_sets):
        if len(edit_sets) <= 1 or self.jobs == 1:
            # Not worth shipping to workers; keeps single lookups cheap.
            return SerialExecutor().run_batch(adapter, original, edit_sets)
        pool = self._ensure_pool(adapter)
        serialised = [[edit.to_dict() for edit in edits] for edits in edit_sets]
        chunksize = max(1, len(serialised) // (self.jobs * 4))
        try:
            return list(pool.map(_worker_evaluate, serialised, chunksize=chunksize))
        except BrokenProcessPool as exc:
            # A worker died (OOM kill, hard crash).  The pool is unusable:
            # tear it down so the *next* batch starts a fresh one, and
            # surface one clean error for this batch.  No partial results
            # reach the engine, so the cache stays consistent.
            self.close()
            raise ExecutorError(
                "a worker process died mid-batch (killed or crashed); "
                "the pool has been reset and the batch was not cached") from exc

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._adapter = None


def make_executor(jobs: int, kind: Optional[str] = None) -> Executor:
    """Build the executor for a ``--jobs N`` request.

    ``jobs == 1`` -> :class:`SerialExecutor`; anything else -> a
    :class:`ParallelExecutor` process pool (``jobs < 1`` means one worker
    per core, capped).  ``kind`` accepts only ``None``/``"auto"``, the
    rule above; construct an executor directly to pin one.
    """
    if kind not in (None, "auto"):
        raise ValueError(f"unknown executor kind {kind!r} (expected 'auto'; "
                         "--jobs alone picks serial or the process pool)")
    return SerialExecutor() if jobs == 1 else ParallelExecutor(jobs)


# -- the engine ----------------------------------------------------------------------

@dataclass
class EngineStats:
    """Snapshot of one engine's accounting."""

    evaluations: int
    cache_hits: int
    cache_misses: int
    executor: str
    jobs: int
    cache_size: int
    #: Seconds since the engine was created (the run's wall clock).
    wall_clock_seconds: float = 0.0
    #: Fresh evaluations per second of *executor-busy* time (time spent
    #: inside batch dispatch), the engine's throughput headline.
    evaluations_per_second: float = 0.0

    def summary(self) -> str:
        return (f"{self.evaluations} evaluations, {self.cache_hits} cache hits "
                f"({self.executor}, jobs={self.jobs}, {self.cache_size} cached, "
                f"{self.evaluations_per_second:.1f} evals/s, "
                f"{self.wall_clock_seconds:.1f}s wall)")

    def to_dict(self) -> Dict[str, object]:
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executor": self.executor,
            "jobs": self.jobs,
            "cache_size": self.cache_size,
            "wall_clock_seconds": self.wall_clock_seconds,
            "evaluations_per_second": self.evaluations_per_second,
        }


class EvaluationEngine:
    """Cached, batched fitness evaluation for one workload adapter.

    Parameters
    ----------
    adapter:
        The workload to evaluate against.
    executor:
        Batch execution strategy; defaults to :class:`SerialExecutor`.
    cache:
        A :class:`FitnessCache`; defaults to a fresh in-memory cache.
        Pass a shared instance to pool results across engines (e.g. the
        repeated-search experiment) or a disk-backed one to persist them.
    workload_id / arch_name:
        Cache-key namespace; derived from the adapter when omitted
        (``adapter.name`` and ``adapter.arch.name``).
    telemetry:
        A :class:`~repro.runtime.telemetry.Telemetry` handle; batch
        spans, cache counters and executor events flow through it.
        Defaults to the disabled null handle (a true no-op).
    batch_launches:
        Population batching: stack co-batchable cache misses (same
        structural JIT key) into one :class:`BatchPlanner` group and
        evaluate the group through the adapter's ``evaluate_batched``
        stacked launch.  ``None`` (the default) enables it exactly when
        the executor is serial -- a process pool already amortizes Python
        overhead across workers; ``True``/``False`` force it either way.
        Purely an execution strategy: results are bit-for-bit identical.
    """

    def __init__(self, adapter: WorkloadAdapter, *,
                 executor: Optional[Executor] = None,
                 cache: Optional[FitnessCache] = None,
                 workload_id: Optional[str] = None,
                 arch_name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None,
                 batch_launches: Optional[bool] = None):
        self.adapter = adapter
        self.executor = executor or SerialExecutor()
        self.cache = cache if cache is not None else FitnessCache()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.executor.bind_telemetry(self.telemetry)
        self.original = adapter.original_module()
        arch = getattr(adapter, "arch", None)
        self.batch_launches = batch_launches
        self._planner = BatchPlanner(arch)
        self.workload_id = workload_id or getattr(adapter, "name", type(adapter).__name__)
        self.arch_name = arch_name or (getattr(arch, "name", None) or "default")
        #: Number of actual adapter evaluations performed (cache misses executed).
        self.evaluations = 0
        #: Wall-clock seconds spent inside executor batch dispatch.
        self.batch_seconds = 0.0
        self._created = time.perf_counter()

    # -- keys --------------------------------------------------------------------------
    def cache_key(self, edits: Sequence[Edit]) -> CacheKey:
        return CacheKey(self.workload_id, self.arch_name, canonical_edit_hash(edits))

    # -- evaluation --------------------------------------------------------------------
    def evaluate(self, edits: Sequence[Edit]) -> FitnessResult:
        """Evaluate one edit list (through the cache)."""
        return self.evaluate_many([edits])[0]

    def evaluate_many(self, edit_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        """Evaluate a batch of edit lists in one concurrent wave.

        Results come back in input order.  Within the batch, edit sets with
        the same canonical key are evaluated once; previously seen sets are
        served from the cache without touching the executor.

        Invariants (pinned by ``tests/runtime/``):

        * cache keys are **order-insensitive** over the edit multiset
          (:func:`~repro.runtime.cache.canonical_edit_hash`), so permuted
          but identical edit lists share one entry;
        * results are bit-for-bit identical whichever executor runs the
          misses (the simulated GPU is deterministic);
        * an executor failure propagates **before** any of the batch's
          results are cached -- a raising batch never corrupts the cache
          or a checkpoint derived from it;
        * a warm cache (disk tier or checkpoint import) means **zero
          re-evaluation**: resumed searches never re-simulate a variant
          measured before the interruption.
        """
        keys = [self.cache_key(edits) for edits in edit_sets]
        results: List[Optional[FitnessResult]] = [self.cache.get(key) for key in keys]

        pending: Dict[CacheKey, int] = {}
        pending_sets: List[Sequence[Edit]] = []
        for index, (key, result) in enumerate(zip(keys, results)):
            if result is None and key not in pending:
                pending[key] = len(pending_sets)
                pending_sets.append(edit_sets[index])

        telemetry = self.telemetry
        if telemetry.enabled:
            misses = sum(1 for result in results if result is None)
            telemetry.counter("cache.hits").inc(len(results) - misses)
            telemetry.counter("cache.misses").inc(misses)

        if pending_sets:
            start = time.perf_counter()
            with telemetry.span("engine.batch", workload=self.workload_id,
                                arch=self.arch_name, executor=self.executor.name,
                                jobs=getattr(self.executor, "jobs", 1),
                                batch=len(edit_sets),
                                fresh=len(pending_sets)):
                fresh = self._run_pending(pending_sets)
            self.batch_seconds += time.perf_counter() - start
            self.evaluations += len(fresh)
            telemetry.counter("engine.evaluations").inc(len(fresh))
            telemetry.counter("engine.batches").inc()
            for key, slot in pending.items():
                self.cache.put(key, fresh[slot])
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = fresh[pending[key]]
            # Interval defaults to the cache store's own flush_interval:
            # rate-limited for the whole-file JSON tier, every batch for
            # the incremental SQLite tier.
            if self.cache.maybe_save():
                telemetry.counter("cache.flushes").inc()
            # The nastiest crash window for resume determinism: results
            # are flushed to the persistent cache, but the round that
            # produced them has not been checkpointed yet.
            kill_point("engine.batch.cached")

        return results  # type: ignore[return-value]

    @property
    def batch_launches_enabled(self) -> bool:
        """Resolved population-batching switch (``None`` -> serial only)."""
        if self.batch_launches is not None:
            return self.batch_launches
        return isinstance(self.executor, SerialExecutor)

    def _run_pending(self, pending_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        """Run the deduplicated cache misses of one wave.

        With population batching off (or nothing to group) this is exactly
        the executor dispatch it always was.  With it on, the wave's
        variants are applied, partitioned by :class:`BatchPlanner`, and
        each group evaluated through the adapter's stacked
        ``evaluate_batched`` launch; singletons keep the executor path.
        Results are bit-for-bit identical either way and come back in
        input order.
        """
        if len(pending_sets) < 2 or not self.batch_launches_enabled:
            return self.executor.run_batch(self.adapter, self.original,
                                           pending_sets)
        modules = [apply_edits(self.original, edits).module
                   for edits in pending_sets]
        groups, singles = self._planner.plan(modules)
        if not groups:
            return self.executor.run_batch(self.adapter, self.original,
                                           pending_sets)
        telemetry = self.telemetry
        fresh: List[Optional[FitnessResult]] = [None] * len(pending_sets)
        for members in groups:
            group_results = self.adapter.evaluate_batched(
                [modules[index] for index in members])
            for member, result in zip(members, group_results):
                fresh[member] = result
            if telemetry.enabled:
                telemetry.counter("engine.batch_groups").inc()
                telemetry.counter("engine.batched_launches").inc(len(members))
                telemetry.histogram("engine.batch_size").observe(
                    float(len(members)))
        if singles:
            solo = self.executor.run_batch(
                self.adapter, self.original,
                [pending_sets[index] for index in singles])
            for index, result in zip(singles, solo):
                fresh[index] = result
        return fresh  # type: ignore[return-value]

    def baseline(self) -> FitnessResult:
        """Fitness of the unmodified program (cached like any other set)."""
        return self.evaluate([])

    # -- bookkeeping -------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self.cache.stats.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.stats.misses

    def stats(self) -> EngineStats:
        return EngineStats(
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            executor=self.executor.name,
            jobs=getattr(self.executor, "jobs", 1),
            cache_size=len(self.cache),
            wall_clock_seconds=time.perf_counter() - self._created,
            evaluations_per_second=(self.evaluations / self.batch_seconds
                                    if self.batch_seconds > 0 else 0.0),
        )

    def record_stats_metrics(self) -> None:
        """Snapshot :meth:`stats` into the telemetry metrics registry."""
        if not self.telemetry.enabled:
            return
        stats = self.stats()
        self.telemetry.gauge("engine.wall_clock_seconds").set(
            stats.wall_clock_seconds)
        self.telemetry.gauge("engine.evaluations_per_second").set(
            stats.evaluations_per_second)
        self.telemetry.gauge("engine.cache_size").set(stats.cache_size)

    def close(self) -> None:
        """Flush the cache, release its disk tier and stop the executor."""
        self.record_stats_metrics()
        self.cache.close()
        self.executor.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
