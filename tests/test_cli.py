"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestStartup:
    def test_importing_the_cli_leaves_the_experiments_unloaded(self):
        # The experiment modules dominate start-up; only list/run load them.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        probe = ("import sys, repro.cli; "
                 "print('repro.experiments' in sys.modules)")
        completed = subprocess.run([sys.executable, "-c", probe], env=env,
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure4" in output and "table1" in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "V100" in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_single_architecture(self, capsys):
        assert main(["run", "figure5", "--arch", "P100"]) == 0
        output = capsys.readouterr().out
        assert "P100" in output
        # Only the requested GPU appears as a data row (the paper-reference
        # note still mentions the others).
        assert not any(line.startswith("1080Ti") for line in output.splitlines())

    def test_search_toy_workload(self, capsys):
        assert main(["search", "toy", "--population", "8", "--generations", "4",
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "best speedup" in output

    def test_search_with_sqlite_cache_backend(self, capsys, tmp_path):
        cache = str(tmp_path / "fitness.json")  # extension overridden by the flag
        assert main(["search", "toy", "--population", "6", "--generations", "2",
                     "--cache", cache, "--cache-backend", "sqlite"]) == 0
        with open(cache, "rb") as handle:
            assert handle.read(16) == b"SQLite format 3\x00"

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestInterpreterTierFlags:
    def test_search_accepts_each_tier(self, capsys):
        for tier in ("jit", "dispatch", "oracle"):
            assert main(["search", "toy", "--population", "4",
                         "--generations", "1", "--seed", "3",
                         "--interpreter-tier", tier]) == 0
            assert "best speedup" in capsys.readouterr().out

    def test_reference_interpreter_still_selects_the_oracle(self, capsys):
        assert main(["search", "toy", "--population", "4", "--generations", "1",
                     "--seed", "3", "--reference-interpreter"]) == 0
        assert "best speedup" in capsys.readouterr().out

    def test_reference_flag_agrees_with_explicit_oracle(self, capsys):
        assert main(["search", "toy", "--population", "4", "--generations", "1",
                     "--seed", "3", "--reference-interpreter",
                     "--interpreter-tier", "oracle"]) == 0
        assert "best speedup" in capsys.readouterr().out

    @pytest.mark.parametrize("tier", ["jit", "dispatch"])
    @pytest.mark.parametrize("command", [
        ["search", "toy"],
        ["baseline", "random", "toy"],
        ["sweep", "--arch", "P100", "--workload", "toy"],
    ])
    def test_contradictory_tier_flags_are_rejected(self, command, tier,
                                                   capsys, tmp_path):
        argv = command + ["--reference-interpreter", "--interpreter-tier", tier]
        if command[0] == "sweep":
            argv += ["--sweep-dir", str(tmp_path / "sweep")]
        else:
            argv += ["--population", "4", "--generations", "1"]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert "--reference-interpreter" in error
        assert "drop one of the two flags" in error

    def test_tier_results_are_bit_identical(self, capsys):
        outputs = []
        for tier in ("jit", "dispatch", "oracle"):
            assert main(["search", "toy", "--population", "6",
                         "--generations", "2", "--seed", "7",
                         "--interpreter-tier", tier]) == 0
            output = capsys.readouterr().out
            outputs.append(next(line for line in output.splitlines()
                                if line.startswith("best speedup")))
        assert outputs[0] == outputs[1] == outputs[2]


class TestBaselineCli:
    def test_random_baseline_runs(self, capsys):
        assert main(["baseline", "random", "toy", "--population", "6",
                     "--generations", "2", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "random search" in output and "best speedup" in output

    def test_hill_baseline_runs_with_steps(self, capsys):
        assert main(["baseline", "hill", "toy", "--steps", "12", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "hill climbing" in output and "accepted" in output

    def test_random_baseline_resumes_with_zero_reevaluations(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        cache = str(tmp_path / "fitness.sqlite")
        argv = ["baseline", "random", "toy", "--population", "6", "--generations", "2",
                "--seed", "3", "--cache", cache, "--resume", checkpoint]
        assert main(argv) == 0
        capsys.readouterr()
        # The first run completed, so the re-issued command resumes from the
        # final checkpoint and re-simulates nothing.
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "resuming from" in output
        assert "0 evaluations" in output

    def test_hill_baseline_resume_round_trip(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        argv = ["baseline", "hill", "toy", "--steps", "10", "--seed", "3",
                "--resume", checkpoint]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "resuming from" in output
        assert "0 evaluations" in output

    def test_jobs_flag_selects_the_backend(self, capsys):
        argv = ["search", "toy", "--population", "6", "--generations", "2",
                "--seed", "3"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        assert "executor=serial" in serial and "executor=parallel" in pooled
        # Same search, same result: the executor never changes a fitness.
        speedup = [line for line in serial.splitlines() if "best speedup" in line]
        assert speedup and speedup[0].split(" with ")[0] in pooled

    def test_removed_executor_flags_are_rejected(self, capsys):
        for flags in (["--executor", "async"], ["--cache-shards", "4"],
                      ["--cache-backend", "sharded"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["search", "toy", "--generations", "1"] + flags)
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_directory_cache_path_is_a_clean_error(self, capsys, tmp_path):
        # A directory is what the removed sharded backend left behind; no
        # backend may quietly reinterpret it.
        legacy = tmp_path / "cache"
        legacy.mkdir()
        (legacy / "shards.json").write_text('{"version": 1, "shards": 4}')
        assert main(["search", "toy", "--generations", "1",
                     "--cache", str(legacy)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_mismatched_resume_is_a_clean_error(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        assert main(["baseline", "random", "toy", "--population", "6",
                     "--generations", "2", "--seed", "3",
                     "--resume", checkpoint]) == 0
        capsys.readouterr()
        # Same checkpoint, different algorithm: refused, not mangled.
        assert main(["baseline", "hill", "toy", "--resume", checkpoint]) == 2
        assert "random_search" in capsys.readouterr().err


class TestSweepCli:
    ARGS = ["sweep", "--arch", "P100,V100", "--workload", "toy",
            "--seeds", "0,1", "--population", "4", "--generations", "2",
            "--jobs", "2"]

    def test_sweep_produces_one_aggregated_report(self, capsys, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        assert main(self.ARGS + ["--sweep-dir", sweep_dir]) == 0
        output = capsys.readouterr().out
        assert "4 legs" in output
        assert "report:" in output
        import json
        with open(f"{sweep_dir}/report.json") as handle:
            assert len(json.load(handle)["legs"]) == 4
        assert "workload,arch,seed" in open(f"{sweep_dir}/report.csv").read()

    def test_sweep_resume_skips_finished_legs(self, capsys, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        assert main(self.ARGS + ["--sweep-dir", sweep_dir]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--sweep-dir", sweep_dir, "--resume"]) == 0
        output = capsys.readouterr().out
        assert "4 skipped" in output
        assert "0 fresh evaluations" in output

    def test_sweep_workload_alias_and_runs_default(self, capsys, tmp_path):
        # "adept" resolves to "adept-v1" end-to-end; --runs N yields
        # seeds 0..N-1.  One ADEPT generation keeps this cheap (~0.2s).
        sweep_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--arch", "p100", "--workload", "adept",
                     "--runs", "1", "--population", "4", "--generations", "1",
                     "--sweep-dir", sweep_dir]) == 0
        output = capsys.readouterr().out
        assert "1 legs" in output
        assert "gevo-adept-v1-P100-seed0" in output

    def test_sweep_unknown_arch_is_a_clean_error(self, capsys, tmp_path):
        assert main(["sweep", "--arch", "K80", "--workload", "toy",
                     "--sweep-dir", str(tmp_path / "s")]) == 2
        assert "unknown GPU architecture" in capsys.readouterr().err

    def test_sweep_bad_seeds_is_a_clean_error(self, capsys, tmp_path):
        assert main(["sweep", "--arch", "P100", "--workload", "toy",
                     "--seeds", "0,x", "--sweep-dir", str(tmp_path / "s")]) == 2
        assert "--seeds expects" in capsys.readouterr().err

    def test_sweep_resume_with_changed_budget_is_a_clean_error(self, capsys, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        base = ["sweep", "--arch", "P100", "--workload", "toy", "--seeds", "0",
                "--generations", "1", "--population", "4", "--sweep-dir", sweep_dir]
        assert main(base) == 0
        capsys.readouterr()
        # Re-running with --resume under a bigger budget must refuse, not
        # silently republish the small run's results.
        assert main(["sweep", "--arch", "P100", "--workload", "toy",
                     "--seeds", "0", "--generations", "6", "--population", "8",
                     "--sweep-dir", sweep_dir, "--resume"]) == 2
        assert "re-run with the original budget" in capsys.readouterr().err
