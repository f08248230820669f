"""Multi-architecture sweep orchestrator.

The paper's headline experiments are *sweeps*: the same search run across
a cross-product of GPU architectures, workloads and seeds, with the
per-cell results aggregated into one table.  Before this module the repro
could only drive one search on one architecture per invocation; the
orchestrator here runs the whole grid through the existing
:class:`~repro.runtime.engine.EvaluationEngine` seam:

* the grid is a :class:`SweepSpec` -- architectures x workloads x seeds,
  one search method (GEVO or a baseline) and the per-leg search budget;
* each cell is a :class:`SweepLeg`, executed as a
  :class:`~repro.runtime.checkpoint.CheckpointableSearch` with its own
  checkpoint file under the sweep directory, so an interrupted sweep
  resumed with ``resume=True`` (CLI ``repro sweep --resume``) **skips
  finished legs entirely and restarts unfinished ones from their last
  checkpoint with zero re-evaluation** -- completed work is never
  re-simulated (leg results are persisted as they land, the checkpoint
  carries the leg's fitness-cache contents, and the shared sweep cache
  persists across processes);
* all legs share one :class:`~repro.runtime.cache.FitnessCache` (by
  default the WAL-mode SQLite file ``<sweep_dir>/cache.sqlite``), so
  legs that differ only by seed reuse each other's evaluations; SQLite
  serialises writers if several sweep processes share the file, and each
  flush is one small upsert transaction;
* outcomes aggregate into a :class:`SweepReport` written as both
  ``report.json`` and ``report.csv`` keyed by (arch, workload, seed).

Layout of a sweep directory::

    <sweep_dir>/
        cache.sqlite        # shared fitness cache (default)
        checkpoints/        # one checkpoint per unfinished leg
        legs/               # one result record per finished leg
        report.json         # aggregated report (rewritten per run)
        report.csv

``jobs`` picks the executor for every leg: 1 evaluates in-process, any
other value uses a process pool; results are bit-for-bit identical
either way.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SearchError
from ..gevo.config import GevoConfig
from ..gpu import get_arch
from .cache import FitnessCache, atomic_write_text
from .engine import EvaluationEngine, make_executor
from .faultpoints import kill_point
from .telemetry import NULL_TELEMETRY, Telemetry, emit_module_hotspots

#: Workloads a sweep can name, with their CLI aliases.
WORKLOAD_CHOICES = ("toy", "adept-v1", "simcov")
WORKLOAD_ALIASES = {"adept": "adept-v1"}

#: Search methods a sweep can run per leg.
METHOD_CHOICES = ("gevo", "random", "hill")


def resolve_workload(name: str) -> str:
    """Canonical workload id for *name* (resolving aliases); raises KeyError."""
    canonical = WORKLOAD_ALIASES.get(name, name)
    if canonical not in WORKLOAD_CHOICES:
        raise KeyError(f"unknown workload {name!r}; available: "
                       f"{sorted(WORKLOAD_CHOICES + tuple(WORKLOAD_ALIASES))}")
    return canonical


def make_adapter(workload: str, arch_name: str, reference_interpreter: bool = False,
                 interpreter_tier: Optional[str] = None):
    """Build the workload adapter for one (workload, arch) cell.

    The single factory the CLI and the sweep orchestrator share, so a
    sweep leg evaluates exactly what ``repro search`` would.  Workload
    modules import lazily to keep startup cheap.  ``interpreter_tier``
    pins one of the simulator's bit-for-bit-equivalent tiers
    (``oracle``/``dispatch``/``jit``); ``reference_interpreter`` is the
    older boolean spelling of the oracle tier.
    """
    arch = get_arch(arch_name)
    if interpreter_tier is not None:
        arch = arch.with_overrides(fast_path=interpreter_tier)
    elif reference_interpreter:
        arch = arch.with_overrides(fast_path=False)
    workload = resolve_workload(workload)
    if workload == "toy":
        from ..workloads import ToyWorkloadAdapter

        return ToyWorkloadAdapter(arch)
    if workload == "adept-v1":
        from ..workloads.adept import AdeptWorkloadAdapter, search_pairs

        return AdeptWorkloadAdapter("v1", arch, fitness_cases=[search_pairs()])
    from ..workloads.simcov import SimCovParams, SimCovWorkloadAdapter

    return SimCovWorkloadAdapter(arch, fitness_params=SimCovParams.quick())


# -- the grid -------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepLeg:
    """One cell of the sweep grid."""

    method: str
    workload: str
    arch: str
    seed: int

    @property
    def leg_id(self) -> str:
        """File-safe identity used for checkpoint and result filenames."""
        return f"{self.method}-{self.workload}-{self.arch}-seed{self.seed}"


@dataclass
class SweepSpec:
    """The full sweep grid plus the per-leg search budget."""

    archs: Sequence[str]
    workloads: Sequence[str]
    seeds: Sequence[int]
    method: str = "gevo"
    population: int = 12
    generations: int = 8

    def __post_init__(self):
        if self.method not in METHOD_CHOICES:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"available: {sorted(METHOD_CHOICES)}")
        self.archs = tuple(get_arch(name).name for name in self.archs)
        self.workloads = tuple(resolve_workload(name) for name in self.workloads)
        self.seeds = tuple(int(seed) for seed in self.seeds)

    def legs(self) -> List[SweepLeg]:
        """Cross product in deterministic report order (workload-major)."""
        return [SweepLeg(self.method, workload, arch, seed)
                for workload in self.workloads
                for arch in self.archs
                for seed in self.seeds]

    def leg_config(self, leg: SweepLeg) -> GevoConfig:
        """The (checkpoint-validated) search configuration of one leg."""
        return GevoConfig.quick(seed=leg.seed,
                                population_size=self.population,
                                generations=self.generations)

    def to_dict(self) -> Dict[str, object]:
        return {"archs": list(self.archs), "workloads": list(self.workloads),
                "seeds": list(self.seeds), "method": self.method,
                "population": self.population, "generations": self.generations}


# -- per-leg outcomes -----------------------------------------------------------------

#: Column order of the CSV report and the printed table.
REPORT_COLUMNS = (
    "workload", "arch", "seed", "method", "status", "speedup",
    "best_runtime_ms", "baseline_runtime_ms", "best_edits", "evaluations",
    "fresh_evaluations", "cache_hits", "wall_clock_seconds",
)


@dataclass
class LegOutcome:
    """Result record of one sweep leg (one row of the report)."""

    workload: str
    arch: str
    seed: int
    method: str
    #: ``completed`` (ran to the end this invocation), ``resumed``
    #: (continued from a checkpoint, then completed) or ``skipped``
    #: (already complete before this invocation; loaded from its record).
    status: str
    speedup: float
    best_runtime_ms: float
    baseline_runtime_ms: float
    best_edits: int
    #: Total adapter evaluations the search consumed, including any from
    #: before an interruption (restored from the checkpoint).
    evaluations: int
    #: Simulations actually executed by *this* invocation for the leg --
    #: zero for every variant served from the warm cache, which is how the
    #: zero-re-evaluation resume guarantee is observable in the report.
    fresh_evaluations: int
    cache_hits: int
    wall_clock_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LegOutcome":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in fields})


@dataclass
class SweepReport:
    """Aggregated outcome of one sweep invocation."""

    spec: Dict[str, object]
    rows: List[LegOutcome] = field(default_factory=list)
    #: ``{"run_id": ..., "trace_dir": ...}`` when the sweep ran traced;
    #: lets a report be joined with its event log and ``metrics.json``.
    telemetry: Optional[Dict[str, object]] = None

    def totals(self) -> Dict[str, object]:
        return {
            "legs": len(self.rows),
            "completed": sum(1 for row in self.rows if row.status != "skipped"),
            "skipped": sum(1 for row in self.rows if row.status == "skipped"),
            "fresh_evaluations": sum(row.fresh_evaluations for row in self.rows),
            "evaluations": sum(row.evaluations for row in self.rows),
            "wall_clock_seconds": round(
                sum(row.wall_clock_seconds for row in self.rows), 3),
        }

    def to_dict(self) -> Dict[str, object]:
        data = {"spec": dict(self.spec), "totals": self.totals(),
                "legs": [row.to_dict() for row in self.rows]}
        if self.telemetry is not None:
            data["telemetry"] = dict(self.telemetry)
        return data

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in self.rows:
            record = row.to_dict()
            writer.writerow([record[column] for column in REPORT_COLUMNS])
        return buffer.getvalue()

    def to_table(self) -> str:
        """Human-readable table keyed by (workload, arch, seed)."""
        headers = ("workload", "arch", "seed", "status", "speedup",
                   "evaluations", "fresh", "seconds")
        lines = [headers]
        for row in self.rows:
            lines.append((row.workload, row.arch, str(row.seed), row.status,
                          f"{row.speedup:.3f}x", str(row.evaluations),
                          str(row.fresh_evaluations),
                          f"{row.wall_clock_seconds:.1f}"))
        widths = [max(len(line[col]) for line in lines)
                  for col in range(len(headers))]
        rendered = ["  ".join(cell.ljust(width)
                              for cell, width in zip(line, widths)).rstrip()
                    for line in lines]
        rendered.insert(1, "  ".join("-" * width for width in widths))
        return "\n".join(rendered)

    def write(self, directory: str) -> Tuple[str, str]:
        """Write ``report.json`` and ``report.csv``; returns their paths."""
        json_path = os.path.join(directory, "report.json")
        csv_path = os.path.join(directory, "report.csv")
        atomic_write_text(json_path, json.dumps(self.to_dict(), indent=2) + "\n")
        atomic_write_text(csv_path, self.to_csv())
        return json_path, csv_path


# -- the orchestrator -----------------------------------------------------------------

def run_sweep(spec: SweepSpec, sweep_dir: str, *,
              resume: bool = False,
              jobs: int = 1,
              cache_path: Optional[str] = "auto",
              cache_backend: Optional[str] = None,
              checkpoint_every: Optional[int] = None,
              reference_interpreter: bool = False,
              interpreter_tier: Optional[str] = None,
              batch_launches: Optional[bool] = None,
              progress: Optional[Callable[[SweepLeg, LegOutcome], None]] = None,
              telemetry: Optional[Telemetry] = None,
              ) -> SweepReport:
    """Run (or resume) every leg of *spec* under *sweep_dir*.

    ``resume=False`` starts the grid fresh, discarding stale per-leg
    artifacts; ``resume=True`` loads finished legs from their result
    records (status ``skipped``, zero fresh evaluations) and continues
    unfinished legs from their checkpoints.  ``cache_path="auto"``
    selects the shared SQLite cache at ``<sweep_dir>/cache.sqlite``;  ``None``
    keeps the cache purely in-memory (still shared across the legs of
    this invocation).  Legs run sequentially; parallelism lives *inside*
    each leg, in the engine's executor (see
    :func:`~repro.runtime.engine.make_executor` for how ``jobs`` picks it).

    An interruption (Ctrl-C, SIGKILL) loses at most the current round of
    the current leg: every leg checkpoints each round and every finished
    leg's record is written before the next leg starts.

    With a *telemetry* handle the sweep emits one ``sweep.leg`` span per
    leg (skipped legs included) plus per-leg
    ``sweep.leg.<leg_id>.{evaluations,fresh_evaluations,cache_hits}``
    counters that match the report rows exactly, and ``report.json``
    gains a ``telemetry`` section naming the run id and trace directory.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    legs_dir = os.path.join(sweep_dir, "legs")
    checkpoints_dir = os.path.join(sweep_dir, "checkpoints")
    os.makedirs(legs_dir, exist_ok=True)
    os.makedirs(checkpoints_dir, exist_ok=True)

    if cache_path == "auto":
        cache_path = os.path.join(sweep_dir, "cache.sqlite")
    cache = FitnessCache(cache_path, backend=cache_backend)

    report = SweepReport(spec=spec.to_dict())
    telemetry.event("sweep.start", sweep_dir=str(sweep_dir), resume=resume,
                    legs=len(spec.legs()), **spec.to_dict())
    try:
        for leg in spec.legs():
            result_path = os.path.join(legs_dir, leg.leg_id + ".json")
            checkpoint_path = os.path.join(checkpoints_dir, leg.leg_id + ".json")

            if resume and os.path.exists(result_path):
                with open(result_path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                # Mirror the checkpoint layer's loud config validation:
                # republishing results recorded under a different budget
                # would silently produce a report matching neither run.
                recorded = {key: record.get(key)
                            for key in ("population", "generations")}
                requested = {"population": spec.population,
                             "generations": spec.generations}
                if recorded != requested:
                    raise SearchError(
                        f"sweep leg {leg.leg_id!r} was completed with budget "
                        f"{recorded}, not the requested {requested}; re-run "
                        "with the original budget, or without --resume (or "
                        "in a fresh --sweep-dir) to start over")
                outcome = LegOutcome.from_dict(record)
                outcome.status = "skipped"
                outcome.fresh_evaluations = 0
                outcome.wall_clock_seconds = 0.0
                report.rows.append(outcome)
                telemetry.event("sweep.leg", **_leg_fields(leg, outcome))
                _record_leg_metrics(telemetry, leg, outcome)
                if progress is not None:
                    progress(leg, outcome)
                continue
            if not resume:
                for stale in (result_path, checkpoint_path):
                    if os.path.exists(stale):
                        os.unlink(stale)

            resume_from = (checkpoint_path
                           if resume and os.path.exists(checkpoint_path) else None)
            with telemetry.span("sweep.leg", leg_id=leg.leg_id) as leg_fields:
                outcome = _run_leg(spec, leg, cache,
                                   jobs=jobs,
                                   checkpoint_path=checkpoint_path,
                                   checkpoint_every=checkpoint_every,
                                   resume_from=resume_from,
                                   reference_interpreter=reference_interpreter,
                                   interpreter_tier=interpreter_tier,
                                   batch_launches=batch_launches,
                                   telemetry=telemetry)
                leg_fields.update(_leg_fields(leg, outcome))
            _record_leg_metrics(telemetry, leg, outcome)
            # Crash window: the leg's final checkpoint is on disk but its
            # result record is not -- a resumed sweep re-enters the leg,
            # which immediately finishes from the checkpoint.
            kill_point("sweep.leg.completed")
            # The record carries the budget it was produced under so a
            # later --resume with a different budget is rejected loudly.
            record = dict(outcome.to_dict(), population=spec.population,
                          generations=spec.generations)
            atomic_write_text(result_path, json.dumps(record, indent=2) + "\n")
            kill_point("sweep.leg.recorded")
            report.rows.append(outcome)
            if progress is not None:
                progress(leg, outcome)
    finally:
        cache.close()

    telemetry.event("sweep.end", **report.totals())
    if telemetry.enabled:
        report.telemetry = {"run_id": telemetry.run_id,
                            "trace_dir": telemetry.trace_dir}
    report.write(sweep_dir)
    return report


def _leg_fields(leg: SweepLeg, outcome: LegOutcome) -> Dict[str, object]:
    """The ``sweep.leg`` event payload (mirrors the report row exactly)."""
    return {"leg_id": leg.leg_id, "workload": leg.workload, "arch": leg.arch,
            "seed": leg.seed, "method": leg.method, "status": outcome.status,
            "speedup": outcome.speedup, "evaluations": outcome.evaluations,
            "fresh_evaluations": outcome.fresh_evaluations,
            "cache_hits": outcome.cache_hits}


def _record_leg_metrics(telemetry: Telemetry, leg: SweepLeg,
                        outcome: LegOutcome) -> None:
    """Per-leg evaluation totals, matching the report row bit-for-bit."""
    if not telemetry.enabled:
        return
    prefix = f"sweep.leg.{leg.leg_id}"
    telemetry.counter(prefix + ".evaluations").inc(outcome.evaluations)
    telemetry.counter(prefix + ".fresh_evaluations").inc(outcome.fresh_evaluations)
    telemetry.counter(prefix + ".cache_hits").inc(outcome.cache_hits)


def _run_leg(spec: SweepSpec, leg: SweepLeg, cache: FitnessCache, *,
             jobs: int,
             checkpoint_path: str, checkpoint_every: Optional[int],
             resume_from: Optional[str],
             reference_interpreter: bool,
             interpreter_tier: Optional[str] = None,
             batch_launches: Optional[bool] = None,
             telemetry: Telemetry = NULL_TELEMETRY) -> LegOutcome:
    """Execute one leg through the engine seam and summarise it."""
    from ..baselines import HillClimber, RandomSearch
    from ..gevo import GevoSearch
    from ..ir import reset_uid_namespace

    # Each leg rebuilds its modules in a fresh uid namespace.  Edits (and
    # therefore checkpoints and cache keys) address instructions by uid,
    # so a leg's numbering must not depend on how many modules the
    # invocation happened to build before it: a resumed sweep skips
    # finished legs without constructing their adapters, and without the
    # reset the resumed leg's modules would sit at a shifted counter the
    # checkpoint's edits no longer address.  Legs run sequentially and
    # never touch a previous leg's modules, so the reset is safe here.
    reset_uid_namespace()
    adapter = make_adapter(leg.workload, leg.arch, reference_interpreter,
                           interpreter_tier=interpreter_tier)
    config = spec.leg_config(leg)
    engine = EvaluationEngine(adapter,
                              executor=make_executor(jobs),
                              cache=cache,
                              telemetry=telemetry,
                              batch_launches=batch_launches)
    hits_before = engine.cache_hits
    start = time.perf_counter()
    try:
        if leg.method == "gevo":
            result = GevoSearch(adapter, config, engine=engine).run(
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every or 1,
                resume_from=resume_from)
            best_runtime = result.best.fitness if result.best is not None else math.inf
            best_edits = len(result.best_edits())
        elif leg.method == "random":
            result = RandomSearch(adapter, config, engine=engine).run(
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every or 1,
                resume_from=resume_from)
            best_runtime = (result.best.fitness
                            if result.best is not None else math.inf)
            best_edits = len(result.best.edits) if result.best is not None else 0
        else:
            result = HillClimber(adapter, config, engine=engine).run(
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every or max(1, config.population_size),
                resume_from=resume_from)
            best_runtime = result.best.fitness
            best_edits = len(result.best.edits)
    finally:
        # The shared cache outlives the leg: stop only this leg's workers
        # and persist what the leg added.
        engine.executor.close()
        cache.maybe_save(0.0)

    if telemetry.enabled:
        emit_module_hotspots(telemetry, adapter, adapter.original_module(),
                             label=leg.leg_id)

    return LegOutcome(
        workload=leg.workload,
        arch=leg.arch,
        seed=leg.seed,
        method=leg.method,
        status="resumed" if resume_from is not None else "completed",
        speedup=result.speedup,
        best_runtime_ms=best_runtime if best_runtime is not None else math.inf,
        baseline_runtime_ms=result.baseline.runtime_ms,
        best_edits=best_edits,
        evaluations=result.evaluations,
        fresh_evaluations=engine.evaluations,
        cache_hits=engine.cache_hits - hits_before,
        wall_clock_seconds=time.perf_counter() - start,
    )

