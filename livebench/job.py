"""One benchmark job: a cold, fixed-seed search or analysis in this process.

Run as ``python3 -m livebench.job --spec JSON --seed N --tier auto|oracle
--workdir DIR --out FILE [--trace SPANS] [--checks]`` from the repository
root with ``src`` on ``PYTHONPATH``.  :mod:`livebench.run` starts every job
in a fresh process, so decode caches, JIT segment caches and memoized
kernel builders all start cold.

The job times its own phases and writes one JSON document to ``--out``:

* ``ready_wall``: ``time.time()`` when the adapter and engine are ready
  (the parent subtracts its spawn time to get ``setup_s``);
* ``import_s`` / ``adapter_s``: the two parts of set-up inside the process;
* ``phase_s`` / ``cpu_s``: wall and process-CPU seconds of the search or
  analysis phase, ``fresh``: its cache-miss evaluations;
* ``peak_rss_mb``, ``best_speedup`` and ``digest`` (computed after the
  timer stops) and, with ``--checks``, the two replay checks.

With ``--trace`` the layer wrappers of :mod:`livebench.tracer` are
installed for the phase only and the spans written to that file at exit.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from livebench.spec import ARCH, SEARCH_SEED, Workload, data_seeds  # noqa: E402


def digest_of(payload) -> str:
    """A stable hash of a JSON-able *payload* (floats by exact ``repr``)."""
    text = json.dumps(payload, sort_keys=True, default=repr, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def search_digest_payload(result) -> Dict[str, object]:
    """What a search's digest covers: evaluation count, per-generation
    best and mean fitness and valid count, and the best edit keys."""
    return {
        "evaluations": result.evaluations,
        "generations": [[record.best_fitness, record.mean_fitness,
                         record.valid_count] for record in result.history.records],
        "best_edit_keys": [list(key) for key in
                           (result.best.edit_keys() if result.best else ())],
    }


def build_adapter(workload: Workload, seed: int, tier: Optional[str]):
    """The workload adapter with its inputs drawn from benchmark seed *seed*.

    Seed 0 builds exactly the adapter ``repro search W`` (searches) or
    ``repro run figure7`` (analysis) builds.
    """
    from repro.gpu import get_arch

    arch = get_arch(ARCH)
    if tier is not None:
        arch = arch.with_overrides(fast_path=tier)
    seeds = data_seeds(seed)
    if workload.target == "toy":
        from repro.workloads import ToyWorkloadAdapter

        return ToyWorkloadAdapter(arch, seed=seeds["toy"])
    if workload.target == "simcov":
        from repro.workloads.simcov import SimCovParams, SimCovWorkloadAdapter

        return SimCovWorkloadAdapter(
            arch, fitness_params=SimCovParams.quick(seed=seeds["simcov"]),
            validation_params=SimCovParams.validation(seed=seeds["simcov"]))
    from repro.workloads.adept import (
        AdeptWorkloadAdapter,
        fitness_pairs,
        heldout_pairs,
        search_pairs,
    )

    if workload.kind == "search":
        cases = [search_pairs(seed=seeds["adept_search"])]
    else:
        pairs = fitness_pairs(seed=seeds["adept_fitness"])
        cases = [pairs[: len(pairs) // 2], pairs[len(pairs) // 2:]]
    return AdeptWorkloadAdapter(workload.target.split("-")[1], arch,
                                fitness_cases=cases,
                                validation_pairs=heldout_pairs(seed=seeds["adept_heldout"]))


def make_engine(workload: Workload, adapter, workdir: str):
    """The engine ``repro search W --quiet`` (searches) or ``figure7``
    (analysis) builds: serial executor, default batching, and for searches
    the CLI's always-on telemetry with its console reporter."""
    from repro.runtime import EvaluationEngine, FitnessCache, make_executor
    from repro.runtime.console import ConsoleReporter, configure_console
    from repro.runtime.telemetry import Telemetry

    telemetry = None
    if workload.kind == "search":
        configure_console(quiet=True, verbose=False)
        telemetry = Telemetry(None, enabled=True)
        telemetry.add_sink(ConsoleReporter())
    path = os.path.join(workdir, "fitness.sqlite") if workload.persist else None
    return EvaluationEngine(adapter, executor=make_executor(1, "auto"),
                            cache=FitnessCache(path), telemetry=telemetry)


# -- the two phases -------------------------------------------------------------------

class SearchPhase:
    """``repro search W``: one fixed-seed GEVO search."""

    def __init__(self, workload: Workload, adapter, engine, workdir: str):
        self.workload, self.adapter, self.engine = workload, adapter, engine
        self.checkpoint = (os.path.join(workdir, "checkpoint.json")
                           if workload.persist else None)
        self.result = None

    def run(self) -> None:
        from repro.gevo import GevoConfig, GevoSearch

        config = GevoConfig.quick(seed=SEARCH_SEED,
                                  population_size=self.workload.population,
                                  generations=self.workload.generations)
        try:
            self.result = GevoSearch(self.adapter, config, engine=self.engine).run(
                validate_best=True, checkpoint_path=self.checkpoint,
                checkpoint_every=1)
        finally:
            self.engine.close()

    def best_speedup(self) -> float:
        return self.result.speedup

    def digest_payload(self):
        return search_digest_payload(self.result)

    def recorded_baseline(self):
        return self.result.baseline

    def best_variant(self):
        """``(edits, (valid, fitness))`` of the best individual."""
        best = self.result.best
        return list(best.edits), (bool(best.valid), best.fitness)


class AnalysisPhase:
    """``repro run figure7``: Algorithm 1, Algorithm 2, then every subset of
    the epistatic cluster, all through one engine (as ``figure7`` does)."""

    def __init__(self, workload: Workload, adapter, engine, workdir: str):
        from repro.workloads.adept import (
            adept_v1_discovered_edits,
            adept_v1_epistatic_edits,
        )

        self.adapter, self.engine = adapter, engine
        self.edits = adept_v1_discovered_edits(adapter.kernel)
        self.cluster = adept_v1_epistatic_edits(adapter.kernel)
        if workload.edits:
            self.edits = self.edits[: workload.edits]
            self.cluster = dict(list(self.cluster.items())[: workload.edits])
        self.minimization = self.separation = self.subsets = None
        self.baseline = None

    def run(self) -> None:
        # Called through the package so a traced run sees its wrappers.
        from repro import analysis

        engine = self.engine
        self.minimization = analysis.identify_weak_edits(
            self.adapter, self.edits, engine=engine)
        self.separation = analysis.separate_edits(
            self.adapter, self.minimization.significant, engine=engine)
        self.subsets = analysis.exhaustive_subset_analysis(
            self.adapter, list(self.cluster.values()),
            labels=[f"edit{index}" for index in self.cluster], engine=engine)
        self.baseline = engine.baseline()
        engine.close()

    def _best(self):
        return self.subsets.best_subset()

    def best_speedup(self) -> float:
        best = self._best()
        if best is None or not best.valid or not best.runtime:
            return 1.0
        return self.subsets.baseline_runtime / best.runtime

    def digest_payload(self):
        from repro.analysis import figure7_report

        def keys(edits):
            return [list(edit.key()) for edit in edits]

        minimization, separation = self.minimization, self.separation
        return {
            "minimization": [keys(minimization.significant), keys(minimization.weak),
                             minimization.full_improvement,
                             minimization.minimized_improvement],
            "separation": [keys(separation.independent), keys(separation.epistatic),
                           separation.independent_improvement,
                           separation.epistatic_improvement],
            "subsets": [[list(outcome.labels), outcome.valid, outcome.runtime,
                         outcome.improvement]
                        for outcome in sorted(self.subsets.outcomes,
                                              key=lambda o: (o.size, o.labels))],
            "report": figure7_report(self.subsets),
        }

    def recorded_baseline(self):
        return self.baseline

    def best_variant(self):
        best = self._best()
        by_label = {f"edit{index}": edit for index, edit in self.cluster.items()}
        return ([by_label[label] for label in best.labels],
                (bool(best.valid), best.runtime))


PHASES = {"search": SearchPhase, "analysis": AnalysisPhase}


# -- output checks --------------------------------------------------------------------

def _fitness_tuple(result):
    return (bool(result.valid), result.runtime_ms,
            [(case.name, bool(case.passed), case.runtime_ms) for case in result.cases])


def baseline_replay(phase) -> Dict[str, object]:
    """The run's own adapter re-evaluates the unmodified program and must get
    the baseline it recorded at the start."""
    recorded = phase.recorded_baseline()
    replayed = phase.adapter.evaluate(phase.adapter.original_module())
    passed = _fitness_tuple(replayed) == _fitness_tuple(recorded)
    detail = "" if passed else (
        f"recorded valid={recorded.valid} runtime={recorded.runtime_ms!r}, "
        f"replayed valid={replayed.valid} runtime={replayed.runtime_ms!r} "
        f"{[case.message for case in replayed.failures()]}")
    return {"name": "baseline_replay", "passed": passed, "detail": detail}


def worker_replay(phase, workload: Workload, seed: int,
                  tier: Optional[str]) -> Dict[str, object]:
    """A pickle round trip of a freshly built adapter (what a ``--jobs N``
    worker receives) re-evaluates the best variant and must get the
    recorded result."""
    from repro.gevo import apply_edits

    edits, recorded = phase.best_variant()
    try:
        worker = pickle.loads(pickle.dumps(build_adapter(workload, seed, tier)))
        result = worker.evaluate(apply_edits(worker.original_module(), edits).module)
        replayed = (bool(result.valid), result.fitness)
    except Exception as exc:  # noqa: BLE001 - any failure is the check's verdict
        return {"name": "worker_replay", "passed": False,
                "detail": f"{type(exc).__name__}: {exc}"}
    passed = replayed == recorded
    return {"name": "worker_replay", "passed": passed,
            "detail": "" if passed else f"recorded {recorded!r}, replayed {replayed!r}"}


# -- the job --------------------------------------------------------------------------

def run_job(workload: Workload, seed: int, tier: Optional[str], workdir: str, *,
            trace_path: Optional[str] = None, checks: bool = False) -> Dict[str, object]:
    """Set up, run the timed phase, then digest and check it (untimed)."""
    import numpy

    import repro.analysis  # noqa: F401 - the whole import cost is set-up
    import repro.gevo  # noqa: F401
    import repro.runtime  # noqa: F401
    imported = time.perf_counter()

    adapter = build_adapter(workload, seed, tier)
    engine = make_engine(workload, adapter, workdir)
    phase = PHASES[workload.kind](workload, adapter, engine, workdir)
    ready = time.perf_counter()
    ready_wall = time.time()

    tracer = None
    if trace_path is not None:
        from livebench.tracer import install_layer_wrappers

        tracer = install_layer_wrappers()
    try:
        cpu = time.process_time()
        start = time.perf_counter()
        phase.run()
        phase_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.dump(trace_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": workload.name, "seed": seed, "tier": tier or "auto",
        "ready_wall": ready_wall,
        "import_s": imported - _STARTED, "adapter_s": ready - imported,
        "phase_s": phase_s, "cpu_s": cpu_s, "fresh": engine.evaluations,
        "peak_rss_mb": peak_rss_mb,
        "best_speedup": phase.best_speedup(),
        "digest": digest_of(phase.digest_payload()),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "checks": [],
    }
    if checks:
        report["checks"] = [baseline_replay(phase),
                            worker_replay(phase, workload, seed, tier)]
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="the Workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tier", choices=["auto", "oracle"], default="auto")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    parser.add_argument("--checks", action="store_true")
    arguments = parser.parse_args(argv)
    report = run_job(Workload.from_dict(json.loads(arguments.spec)), arguments.seed,
                     None if arguments.tier == "auto" else arguments.tier,
                     arguments.workdir, trace_path=arguments.trace,
                     checks=arguments.checks)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
