"""Run the live-search benchmark.

``python3 livebench/run.py`` runs every workload with the default seed and
prints all end-to-end metrics in one table.  With ``--workload W --seed N
--seconds S --trace 0|1`` it runs one workload and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A run starts fresh job processes (:mod:`livebench.job`), one after the
other, until ``--seconds`` have passed and at least ``MIN_JOBS`` have run;
each job repeats the same fixed-seed search or analysis from a cold
process.  Timings are medians over the jobs.  Untimed, after the first
job, the run repeats the job once on the oracle interpreter tier.  It
checks:

* ``tier_agreement``: every job's result digest equals the oracle's;
* ``baseline_replay`` and ``worker_replay``: see :mod:`livebench.job`.

A failed check counts in ``failed`` (and ``checks_failed``); ``correct``
says whether the results themselves agreed with the oracle tier.  With
``--trace 1`` jobs alternate between untraced and traced, and the traced
ones give the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from livebench.spec import (  # noqa: E402
    END_TO_END,
    MIN_JOBS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    Workload,
)

#: A run must end well inside three minutes, oracle repeat included.
DEADLINE_S = 165.0
#: Work directories of running jobs (removed when the run ends).
WORK_DIR = ".livebench-work"
#: One thread per BLAS/OpenMP pool in every job process.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class JobFailed(RuntimeError):
    """A job process exited non-zero, timed out or wrote no report."""


def job_environment(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def run_job_process(root: Path, workload: Workload, seed: int, workdir: Path, *,
                    tier: str = "auto", traced: bool = False, checks: bool = False,
                    timeout: float = DEADLINE_S) -> Dict[str, object]:
    """Start one job in a fresh process and return its report."""
    workdir.mkdir(parents=True)
    out = workdir / "report.json"
    spans = workdir / "spans.json"
    command = [sys.executable, "-m", "livebench.job",
               "--spec", json.dumps(workload.to_dict()), "--seed", str(seed),
               "--tier", tier, "--workdir", str(workdir), "--out", str(out)]
    if traced:
        command += ["--trace", str(spans)]
    if checks:
        command.append("--checks")
    spawned = time.time()
    try:
        completed = subprocess.run(command, cwd=root, env=job_environment(root),
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"{workload.name} job timed out after {exc.timeout:.0f}s") from exc
    if completed.returncode != 0 or not out.exists():
        tail = "\n".join(completed.stderr.strip().splitlines()[-15:])
        raise JobFailed(f"{workload.name} job ({tier}) exited with "
                        f"{completed.returncode}:\n{tail}")
    report = json.loads(out.read_text(encoding="utf-8"))
    report["setup_s"] = report["ready_wall"] - spawned
    if traced:
        from livebench.tracer import layer_metrics

        report["layers"] = layer_metrics(json.loads(spans.read_text(encoding="utf-8")),
                                         report["fresh"])
    return report


# -- aggregation ----------------------------------------------------------------------

def end_to_end(jobs: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end metrics of a list of untraced job reports (medians)."""
    return {
        "setup_s": statistics.median(job["setup_s"] for job in jobs),
        "evals_per_s": statistics.median(job["fresh"] / job["phase_s"] for job in jobs),
        "cpu_ms_per_eval": statistics.median(
            1000.0 * job["cpu_s"] / job["fresh"] for job in jobs),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
        "best_speedup": jobs[0]["best_speedup"],
    }


def per_layer(plain: List[Dict[str, object]],
              traced: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced jobs, set-up parts and the
    tracing overhead from the untraced ones."""
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(job["layers"][name] for job in traced)
               for name in names}
    metrics["setup.import.s"] = statistics.median(job["import_s"] for job in plain)
    metrics["setup.adapter.s"] = statistics.median(job["adapter_s"] for job in plain)
    traced_rate = statistics.median(job["fresh"] / job["phase_s"] for job in traced)
    plain_rate = statistics.median(job["fresh"] / job["phase_s"] for job in plain)
    metrics["trace.evals_per_s"] = traced_rate
    metrics["trace.overhead"] = plain_rate / traced_rate
    return metrics


def tier_agreement(jobs: List[Dict[str, object]],
                   oracle: Dict[str, object]) -> Dict[str, object]:
    digests = sorted({job["digest"] for job in jobs})
    passed = digests == [oracle["digest"]]
    return {"name": "tier_agreement", "passed": passed,
            "detail": "" if passed else
            f"job digests {digests} vs oracle {oracle['digest']}"}


def source_fingerprint(root: Path) -> Dict[str, Optional[str]]:
    """The commit (when the tree is a git checkout) and a hash of ``src``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    """Run one workload: timed jobs, then the oracle repeat and the checks."""
    started = time.perf_counter()
    (root / WORK_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    modes = [False, True] if trace else [False]
    jobs: Dict[bool, List[Dict[str, object]]] = {False: [], True: []}
    oracle = None
    try:
        slowest = 0.0
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            enough = all(len(jobs[mode]) >= MIN_JOBS for mode in modes)
            # Stop when the time is up, or before another few jobs could
            # run past the deadline.
            if enough and (elapsed >= seconds or elapsed + 3 * slowest > DEADLINE_S / 2):
                break
            traced = modes[index % len(modes)]
            job_start = time.perf_counter()
            jobs[traced].append(run_job_process(
                root, workload, seed, workdir / f"job-{index}", traced=traced,
                checks=index == 0, timeout=DEADLINE_S - elapsed))
            slowest = max(slowest, time.perf_counter() - job_start)
            index += 1
            if oracle is None:
                # The untimed oracle repeat runs between the timed jobs, so
                # they sample a longer stretch of the host's (drifting) speed.
                oracle = run_job_process(
                    root, workload, seed, workdir / "oracle", tier="oracle",
                    timeout=DEADLINE_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still has its work directory there

    plain, traced_jobs = jobs[False], jobs[True]
    agreement = tier_agreement(plain + traced_jobs, oracle)
    checks = [agreement] + plain[0]["checks"]
    failed = sum(1 for check in checks if not check["passed"])
    result = {
        "workload": workload.name, "seed": seed,
        "jobs": len(plain), "traced_jobs": len(traced_jobs),
        "fresh_per_job": plain[0]["fresh"],
        "correct": agreement["passed"],
        "attempted": len(checks), "failed": failed, "checks": checks,
        "end_to_end": dict(end_to_end(plain), checks_failed=failed),
        "python": plain[0]["python"], "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "seconds": time.perf_counter() - started,
    }
    if trace:
        result["per_layer"] = per_layer(plain, traced_jobs)
    return result


# -- output ---------------------------------------------------------------------------

def metrics_json(result: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The last line of a one-workload run: the JSON result."""
    if trace:
        metrics = {m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
                   for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
                   for m in END_TO_END if not m.reported_only}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def describe(result: Dict[str, object]) -> List[str]:
    lines = [f"{result['workload']} (seed {result['seed']}): {result['jobs']} jobs"
             + (f" + {result['traced_jobs']} traced" if result["traced_jobs"] else "")
             + f" of {result['fresh_per_job']} fresh evaluations, {result['seconds']:.1f}s"]
    for metric in END_TO_END:
        lines.append(f"  {metric.name:<28} {_format(result['end_to_end'][metric.name]):>14}"
                     f" {metric.unit}")
    for check in result["checks"]:
        verdict = "pass" if check["passed"] else "FAIL"
        lines.append(f"  check {check['name']:<22} {verdict}"
                     + (f"  ({check['detail']})" if check["detail"] else ""))
    for metric in (PER_LAYER if "per_layer" in result else ()):
        lines.append(f"  {metric.name:<28} {_format(result['per_layer'][metric.name]):>14}"
                     f" {metric.unit}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: draws the workloads' input data")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="keep starting jobs until this many seconds passed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced jobs too, and per-layer metrics")
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    provenance = source_fingerprint(ROOT)
    results = []
    for name in names:
        try:
            result = run_workload(ROOT, WORKLOADS[name], arguments.seed,
                                  arguments.seconds, bool(arguments.trace))
        except JobFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result.update(provenance)
        results.append(result)
        print("\n".join(describe(result)), flush=True)
        print("provenance: " + json.dumps(
            {key: result[key] for key in ("nproc", "python", "numpy", "commit",
                                          "source_sha256")}), flush=True)
    if arguments.workload:
        print(json.dumps(metrics_json(results[0], bool(arguments.trace))))
    else:
        print(json.dumps({result["workload"]: metrics_json(result, bool(arguments.trace))
                          for result in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
