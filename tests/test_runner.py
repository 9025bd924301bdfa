"""Tests for the parallel job runner and content-addressed result cache."""

import json
import multiprocessing
import os

import pytest

from repro import SystemConfig
from repro.analysis.sweep import Sweep
from repro.conform import make_case, run_conform, run_conform_case
from repro.runner import (
    JobSpec,
    ResultCache,
    ResultSummary,
    code_fingerprint,
    register_workload,
    resolve_jobs,
    run_jobs,
)

CONFIG = SystemConfig(n_processors=2)


def sim_spec(seed_args=None, **overrides):
    return JobSpec(
        kind="sim",
        workload="counter",
        workload_args=seed_args or {"n_counters": 2, "increments_per_proc": 3},
        config=CONFIG,
        max_cycles=50_000_000,
        **overrides,
    )


class TestJobSpec:
    def test_key_is_stable_and_label_free(self):
        a = sim_spec(label="first")
        b = sim_spec(label="second")
        assert a.key() == b.key()
        assert a.key() == sim_spec().key()

    def test_key_changes_with_inputs(self):
        base = sim_spec()
        assert base.key() != sim_spec({"n_counters": 3}).key()
        assert base.key() != JobSpec(kind="conform", seed=1).key()
        bigger = JobSpec(kind="sim", workload="counter",
                         config=SystemConfig(n_processors=4),
                         max_cycles=50_000_000)
        assert base.key() != bigger.key()

    def test_cacheable_flag_not_part_of_identity(self):
        assert sim_spec().key() == sim_spec(cacheable=False).key()

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="nope", workload="counter")
        with pytest.raises(ValueError, match="seed"):
            JobSpec(kind="conform")
        with pytest.raises(ValueError, match="workload"):
            JobSpec(kind="sim")

    def test_describe(self):
        assert sim_spec(label="pt-3").describe() == "pt-3"
        assert JobSpec(kind="conform", seed=7).describe() == "conform seed=7"
        assert sim_spec().describe() == "sim counter@2"


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)
        assert cache.entry_count() == 1

    def test_layout_is_sharded_json(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = "cd" * 32
        cache.put(key, {"x": 2})
        path = tmp_path / key[:2] / f"{key}.json"
        assert path.is_file()
        assert json.loads(path.read_text())["payload"] == {"x": 2}

    def test_code_fingerprint_invalidates(self, tmp_path):
        writer = ResultCache(root=str(tmp_path), fingerprint="old-code")
        writer.put("ef" * 32, {"x": 3})
        reader = ResultCache(root=str(tmp_path), fingerprint="new-code")
        assert reader.get("ef" * 32) is None
        assert reader.invalidations == 1
        assert reader.misses == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cache.put("01" * 32, {})
        cache.put("23" * 32, {})
        assert cache.clear() == 2
        assert cache.entry_count() == 0

    def test_code_fingerprint_is_cached_and_refreshable(self):
        assert code_fingerprint() == code_fingerprint()
        assert code_fingerprint(refresh=True) == code_fingerprint()


class TestRunJobs:
    def test_serial_vs_parallel_fingerprints_identical(self):
        specs = [sim_spec({"n_counters": 2, "increments_per_proc": n})
                 for n in (2, 3, 4, 5)]
        serial, _ = run_jobs(specs, jobs=1, cache=None)
        parallel, stats = run_jobs(specs, jobs=4, cache=None)
        assert stats.executed == 4
        assert [o.summary().fingerprint() for o in serial] == \
               [o.summary().fingerprint() for o in parallel]

    def test_cold_then_warm_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        specs = [sim_spec(), sim_spec({"n_counters": 3})]
        cold, cold_stats = run_jobs(specs, jobs=1, cache=cache)
        warm, warm_stats = run_jobs(specs, jobs=1, cache=cache)
        assert (cold_stats.executed, cold_stats.from_cache) == (2, 0)
        assert (warm_stats.executed, warm_stats.from_cache) == (0, 2)
        assert warm_stats.cache["hits"] == 2
        assert [o.cached for o in warm] == [True, True]
        assert [o.summary().fingerprint() for o in cold] == \
               [o.summary().fingerprint() for o in warm]

    def test_conform_patterns_job_matches_direct_run(self):
        args = {"faults": True, "source": "patterns"}
        outcomes, _ = run_jobs(
            [JobSpec(kind="conform", seed=11, workload_args=args)], jobs=1)
        case = outcomes[0].payload["case"]
        assert case["seed"] == 11
        assert case["outcome"] == "ok"
        assert case == run_conform_case(make_case(11, **args)).as_dict()

    def test_error_is_captured_not_raised(self):
        bad = JobSpec(kind="sim", workload="no-such-workload", config=CONFIG)
        outcomes, stats = run_jobs([bad], jobs=1)
        assert not outcomes[0].ok
        assert "no-such-workload" in outcomes[0].error
        assert stats.errors == 1

    def test_deterministic_error_not_retried_in_parallel(self):
        bad = JobSpec(kind="sim", workload="no-such-workload", config=CONFIG)
        outcomes, stats = run_jobs([bad, sim_spec()], jobs=2)
        assert not outcomes[0].ok
        assert outcomes[1].ok
        assert stats.errors == 1
        assert stats.retried == 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash test needs fork so the registered factory is inherited",
)
class TestWorkerCrash:
    def test_crashed_worker_is_quarantined_and_campaign_completes(self):
        register_workload("_crash_test", lambda config, **kw: os._exit(3))
        try:
            crash = JobSpec(kind="sim", workload="_crash_test", config=CONFIG)
            specs = [sim_spec(), crash, sim_spec({"n_counters": 3})]
            outcomes, stats = run_jobs(specs, jobs=2, crash_retries=1)
        finally:
            from repro.runner import WORKLOAD_FACTORIES
            WORKLOAD_FACTORIES.pop("_crash_test", None)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "exit" in outcomes[1].error
        assert stats.crashes >= 1
        assert stats.quarantined == 1

    def run_campaign_with_one_crasher(self, crash_retries):
        """Five specs at jobs=2, the second of which kills its worker."""
        register_workload("_crash_test", lambda config, **kw: os._exit(3))
        try:
            specs = [sim_spec({"n_counters": 2, "increments_per_proc": n})
                     for n in (2, 3, 4, 5)]
            specs.insert(1, JobSpec(kind="sim", workload="_crash_test",
                                    config=CONFIG))
            seen = []
            outcomes, stats = run_jobs(specs, jobs=2, progress=seen.append,
                                       crash_retries=crash_retries)
        finally:
            from repro.runner import WORKLOAD_FACTORIES
            WORKLOAD_FACTORIES.pop("_crash_test", None)
        assert sorted(o.index for o in seen) == list(range(len(specs)))
        assert [o.index for o in outcomes] == list(range(len(specs)))
        crasher = outcomes.pop(1)
        assert not crasher.ok and "exit" in crasher.error
        assert crasher.attempts == crash_retries + 1
        for outcome in outcomes:
            assert outcome.ok, outcome.error
            assert outcome.wall_s > 0
        return stats

    def test_only_the_crasher_is_quarantined(self):
        stats = self.run_campaign_with_one_crasher(crash_retries=1)
        assert (stats.crashes, stats.retried, stats.quarantined) == (2, 1, 1)
        assert (stats.executed, stats.errors) == (5, 1)

    def test_only_the_crasher_is_quarantined_without_retries(self):
        stats = self.run_campaign_with_one_crasher(crash_retries=0)
        assert (stats.crashes, stats.retried, stats.quarantined) == (1, 0, 1)
        assert (stats.executed, stats.errors) == (5, 1)


class TestBenchJobs:
    """``REPRO_JOBS`` follows the same rules as ``--jobs``."""

    @pytest.fixture
    def bench_jobs(self, monkeypatch):
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
        from runner_env import bench_jobs
        return bench_jobs

    def test_unset_or_zero_means_all_cores(self, bench_jobs, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert bench_jobs() == resolve_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert bench_jobs() == resolve_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert bench_jobs() == 3

    def test_negative_is_the_jobs_error(self, bench_jobs, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError) as env_error:
            bench_jobs()
        with pytest.raises(ValueError) as flag_error:
            resolve_jobs(-2)
        assert str(env_error.value) == str(flag_error.value)

    def test_non_integer_names_the_variable(self, bench_jobs, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'two'"):
            bench_jobs()


class TestResultSummary:
    def test_roundtrip_preserves_fingerprint(self):
        outcomes, _ = run_jobs([sim_spec()], jobs=1)
        summary = outcomes[0].summary()
        clone = ResultSummary.from_dict(json.loads(
            json.dumps(summary.to_dict())))
        assert clone.fingerprint() == summary.fingerprint()

    def test_from_dict_ignores_unknown_keys(self):
        outcomes, _ = run_jobs([sim_spec()], jobs=1)
        data = outcomes[0].summary().to_dict()
        data["added_in_a_future_version"] = 1
        assert ResultSummary.from_dict(data).cycles == outcomes[0].summary().cycles

    def test_fraction_accessors(self):
        outcomes, _ = run_jobs([sim_spec()], jobs=1)
        summary = outcomes[0].summary()
        assert sum(summary.breakdown_fractions().values()) == \
               pytest.approx(1.0, rel=0.01)
        assert set(summary.bytes_per_instruction()) == \
               {"commit", "miss", "writeback", "overhead"}


class TestSweepRunner:
    def make_sweep(self, grid, **kwargs):
        return Sweep(
            SystemConfig(n_processors=2, ordered_network=True),
            grid,
            ("app", {"name": "barnes", "scale": 0.05}),
            max_cycles=500_000_000,
            **kwargs,
        )

    def test_unknown_grid_key_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="granlarity.*granularity"):
            self.make_sweep({"granlarity": ["word"]})

    def test_serial_vs_parallel_sweep_identical(self):
        serial = self.make_sweep({"link_latency": [1, 6]})
        serial.run(jobs=1)
        parallel = self.make_sweep({"link_latency": [1, 6]})
        parallel.run(jobs=4)
        assert serial.fingerprints() == parallel.fingerprints()
        assert parallel.last_run_stats.jobs == 4

    def test_cached_sweep_equivalent(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cold = self.make_sweep({"link_latency": [1, 6]})
        cold.run(jobs=1, cache=cache)
        warm = self.make_sweep({"link_latency": [1, 6]})
        warm.run(jobs=1, cache=cache)
        assert warm.last_run_stats.from_cache == 2
        assert cold.fingerprints() == warm.fingerprints()
        assert warm.best("cycles").overrides == {"link_latency": 1}

    def test_callable_factory_cannot_go_parallel(self):
        from repro import app_workload
        sweep = Sweep(
            SystemConfig(n_processors=2),
            {"link_latency": [1]},
            lambda cfg: app_workload("barnes", scale=0.05),
        )
        with pytest.raises(ValueError, match="callable"):
            sweep.run(jobs=2)
        with pytest.raises(ValueError, match="callable"):
            sweep.run(cache=ResultCache(root=".unused"))


class TestConformReportShape:
    def test_report_is_summary_only_by_default(self):
        report = run_conform(cases=2, seed0=500, source="patterns",
                             faults=True)
        assert "results" not in report
        assert report["passed"] == 2
        assert report["runner"]["total"] == 2

    def test_full_opt_in_restores_per_case_results(self):
        report = run_conform(cases=2, seed0=500, source="patterns",
                             faults=True, full=True)
        assert len(report["results"]) == 2
        assert report["results"][0]["seed"] == 500

    def test_cached_campaign_is_equivalent(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cold = run_conform(cases=3, seed0=500, source="patterns",
                           faults=True, cache=cache)
        warm = run_conform(cases=3, seed0=500, source="patterns",
                           faults=True, cache=cache)
        assert warm["runner"]["from_cache"] == 3
        assert warm["runner"]["cache"]["hits"] == 3
        for key in ("passed", "failed", "fault_totals", "outcome_counts",
                    "fingerprint"):
            assert cold[key] == warm[key]
