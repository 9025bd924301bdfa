"""Tests of the benchmark itself: every workload at tiny scale on two seeds.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.run import RUNNER_METRICS  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    SpanTracer, attribution_errors, derive, install, raw_layer_counts,
)
from perfbench.workloads import HELD_OUT_SEED, WORKLOADS, MachineWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 1 / 16
SEEDS = (0, 1)


def _names(group: str) -> set:
    return {metric["name"] for metric in SPEC[group]}


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert HELD_OUT_SEED not in SEEDS


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_correct_deterministic_and_traced_identically(name, seed):
    workload = WORKLOADS[name]
    plain = workload.run_once(seed, scale=TINY)
    again = workload.run_once(seed, scale=TINY)
    traced = workload.run_once(seed, trace=True, scale=TINY)

    assert plain.failures == again.failures == traced.failures == []
    assert plain.commits > 0 and plain.attempted >= 1
    assert plain.fingerprint == again.fingerprint == traced.fingerprint
    assert 0 < plain.sim_s and 0 < plain.wall_s
    assert attribution_errors(traced.raw) == []
    assert traced.raw["processor.commits"] == plain.commits
    metrics = derive(traced.raw, plain.sim_s, traced.sim_s)
    assert set(metrics) | set(RUNNER_METRICS) == _names("per_layer")
    for layer in ("sim", "network", "directory", "processor", "memory", "verify"):
        assert metrics[f"{layer}.self_s"] > 0, layer
    if plain.runner is not None:
        assert plain.runner["runner.jobs_run"] == plain.attempted
        assert plain.runner["runner.cache_hits"] == 0


def test_attribution_check_fails_on_unwrapped_events_and_uncovered_time():
    system, workload, _ = WORKLOADS["volrend-32"].build(0, TINY)
    tracer = SpanTracer()
    install(tracer, system)
    # Events scheduled past the wrappers run outside every layer span.
    del system.engine.schedule_call
    result = system.run(workload)
    raw = raw_layer_counts(tracer, system, result, tracer.root_s)
    assert any("outside every layer span" in e for e in attribution_errors(raw))
    raw = dict(raw, _wall_s=2 * tracer.root_s)
    assert any("root span misses" in e for e in attribution_errors(raw))


def test_seed_reaches_profile_config_and_fault_plan():
    faults = WORKLOADS["volrend-32-faults"]
    assert isinstance(faults, MachineWorkload)
    system_a, workload_a, _ = faults.build(3, TINY)
    system_b, workload_b, _ = faults.build(4, TINY)
    assert system_a.config.seed == 3 and system_a.config.fault_plan.seed == 3
    assert workload_a.profile.seed != workload_b.profile.seed
    plain = WORKLOADS["volrend-32"]
    assert (plain.run_once(0, scale=TINY).fingerprint
            != plain.run_once(1, scale=TINY).fingerprint)


def test_faults_workload_exercises_the_hardened_paths():
    traced = WORKLOADS["volrend-32-faults"].run_once(0, trace=True, scale=TINY)
    assert traced.raw["faults.retries"] > 0
    assert traced.raw["faults.drops"] > 0
    plain = WORKLOADS["volrend-32"].run_once(0, trace=True, scale=TINY)
    assert plain.raw["faults.retries"] == plain.raw["faults.self_s"] == 0


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_metric_as_the_last_line(trace, group):
    proc = _cli(ROOT, "--workload", "swim-32", "--seed", "1", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == _names(group)
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
    if group == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "fail_frac 0 " in proc.stdout


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "volrend-32", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
