"""What the benchmark measures: its workloads and its metrics.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json` written
out; ``livebench/tests`` checks that the two agree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

#: How long one run keeps starting fresh jobs (``--seconds`` default).
RUN_SECONDS = 15
#: Every run starts at least this many jobs per mode, so medians have a middle.
MIN_JOBS = 3
#: GEVO seed of every search job.  The searches are fixed-seed; ``--seed``
#: only varies the workload's input data (see :func:`data_seeds`).
SEARCH_SEED = 0
#: Architecture of every job, ``repro search``'s default; jobs also keep its
#: default interpreter tier (JIT) and serial executor.
ARCH = "P100"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``search`` (one GEVO search) or ``analysis`` (the Figure 7 pipeline).
    kind: str
    #: Workload adapter: ``toy``, ``simcov`` or ``adept-v1``.
    target: str
    population: int = 0
    generations: int = 0
    #: SQLite fitness cache plus a resume checkpoint every generation.
    persist: bool = False
    #: Analysis only: use the first N recorded edits and N cluster edits
    #: (0 = all of them).  Only the smoke tests shrink this.
    edits: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Workload":
        return cls(**data)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "toy-search-persist",
        "tiny evaluations, SQLite cache and a checkpoint every generation: "
        "JIT compile of novel mutants and checkpoint saves dominate",
        kind="search", target="toy", population=32, generations=30,
        persist=True),
    Workload(
        "simcov-search",
        "8 kernels, about 19 launches per evaluation: decode, JIT and "
        "simulation split the time; the only search where batching groups",
        kind="search", target="simcov", population=32, generations=8),
    Workload(
        "adept-v1-search",
        "simulation-bound (thousands of warp-instructions per evaluation); "
        "shuffles and ballots keep batching off",
        kind="search", target="adept-v1", population=12, generations=6),
    Workload(
        "adept-v1-analysis",
        "Figure 7 pipeline over the recorded ADEPT-v1 edits: no search "
        "operators, repeated segments, almost all simulation",
        kind="analysis", target="adept-v1"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics only: allowed worsening as a share of the parent's median.
    bound: float = 0.0
    #: Printed, but not part of the JSON result (it can read 0, so the
    #: failed-check count travels as the result's ``failed`` field).
    reported_only: bool = False


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("evals_per_s", "1/s", "higher", bound=0.25),
    Metric("cpu_ms_per_eval", "ms", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("best_speedup", "x", "higher", bound=0.05),
    Metric("checks_failed", "count", "lower", reported_only=True),
]

_PER_LAYER = [
    # gevo
    ("gevo.loop.s", "s", "lower"),
    ("gevo.apply_edits.calls", "count", "lower"),
    ("gevo.apply_edits.s", "s", "lower"),
    ("gevo.apply_edits.per_eval", "ratio", "lower"),
    # gpu: decode
    ("gpu.decode.calls", "count", "lower"),
    ("gpu.decode.misses", "count", "lower"),
    ("gpu.decode.s", "s", "lower"),
    # gpu: JIT
    ("gpu.jit.functions", "count", "lower"),
    ("gpu.jit.source_compiles", "count", "lower"),
    ("gpu.jit.s", "s", "lower"),
    ("gpu.jit.share_of_launch", "ratio", "lower"),
    # gpu: simulate
    ("gpu.launch.calls", "count", "lower"),
    ("gpu.launch.s", "s", "lower"),
    ("gpu.simulate.s", "s", "lower"),
    ("gpu.sim_instructions", "count", "lower"),
    ("gpu.simulate.us_per_kinst", "us/kinst", "lower"),
    # gpu: batched
    ("gpu.batched.launches", "count", "higher"),
    ("gpu.batched.rows", "count", "higher"),
    ("runtime.batched_fraction", "ratio", "higher"),
    # workloads
    ("workloads.evaluate.calls", "count", "lower"),
    ("workloads.evaluate.s", "s", "lower"),
    ("workloads.host.s", "s", "lower"),
    # runtime
    ("runtime.evaluate_many.calls", "count", "lower"),
    ("runtime.evaluate_many.s", "s", "lower"),
    ("runtime.fresh_evaluations", "count", "lower"),
    ("runtime.cache.hits", "count", "higher"),
    ("runtime.cache.misses", "count", "lower"),
    ("runtime.cache.hit_ratio", "ratio", "higher"),
    ("runtime.cache.s", "s", "lower"),
    ("runtime.checkpoint.saves", "count", "lower"),
    ("runtime.checkpoint.s", "s", "lower"),
    ("runtime.checkpoint.bytes", "B", "lower"),
    # analysis
    ("analysis.minimize.s", "s", "lower"),
    ("analysis.separate.s", "s", "lower"),
    ("analysis.subsets.s", "s", "lower"),
    # set-up
    ("setup.import.s", "s", "lower"),
    ("setup.adapter.s", "s", "lower"),
    # the tracer itself
    ("trace.evals_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]
PER_LAYER: List[Metric] = [Metric(*row) for row in _PER_LAYER]


def data_seeds(seed: int) -> Dict[str, int]:
    """Seeds of the workload input generators for benchmark seed *seed*.

    Seed 0 gives the defaults ``repro search W`` and ``repro run figure7``
    use, so the default run measures exactly those commands.
    """
    return {
        "toy": 3 + seed,            # ToyWorkloadAdapter x/y vectors
        "simcov": 2021 + seed,      # SimCovParams fitness + validation runs
        "adept_search": 23 + seed,  # search_pairs (adept-v1-search)
        "adept_fitness": 11 + seed,  # fitness_pairs (adept-v1-analysis)
        "adept_heldout": 97 + seed,  # heldout_pairs (validation)
    }


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "livebench/run.py"],
        "paths": ["livebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END if not m.reported_only],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
