"""Tests for the differential conformance subsystem.

Generator determinism, program/case serialization round-trips, the
differ's ability to catch every class of injected corruption, the
``patterns`` source (hot counter, list set, queue under fault plans),
greedy shrinking (against a synthetic failure check, via the injectable
``run`` hook), counterexample files, and the harness's bit-identical
fingerprint across ``--jobs`` settings and cache hits.
"""

import copy
import dataclasses
import json

import pytest

from repro.conform import (
    ConformCase,
    ConformProgram,
    generate_program,
    iter_counterexamples,
    load_counterexample,
    make_case,
    replay_counterexample,
    run_conform,
    run_conform_case,
    save_counterexample,
    shrink_case,
)
from repro.conform.generator import PATTERN_WORKLOADS, pattern_program
from repro.conform.harness import format_report, results_fingerprint
from repro.core.system import ScalableTCCSystem
from repro.runner import JobSpec, ResultCache, run_jobs
from repro.verify import CommitRecord, judge


class TestGenerator:
    def test_same_seed_same_program(self):
        assert generate_program(7).to_dict() == generate_program(7).to_dict()

    def test_different_seeds_differ(self):
        assert generate_program(1).to_dict() != generate_program(2).to_dict()

    def test_programs_are_valid_workloads(self):
        for seed in range(5):
            generate_program(seed).validate()

    def test_make_case_deterministic_including_fault_plan(self):
        a, b = make_case(3, faults=True), make_case(3, faults=True)
        assert a.to_dict() == b.to_dict()
        assert a.fault_plan is not None

    def test_faults_flag_changes_case(self):
        clean, faulty = make_case(3), make_case(3, faults=True)
        assert clean.fault_plan is None
        assert clean.to_dict() != faulty.to_dict()
        # ...but not the program: same seed, same transactional code.
        assert clean.program.to_dict() == faulty.program.to_dict()


class TestSerialization:
    def test_program_round_trip(self):
        program = generate_program(11)
        data = json.loads(json.dumps(program.to_dict()))
        assert ConformProgram.from_dict(data).to_dict() == program.to_dict()

    def test_case_round_trip_with_fault_plan(self):
        case = make_case(11, faults=True)
        data = json.loads(json.dumps(case.to_dict()))
        restored = ConformCase.from_dict(data)
        assert restored.to_dict() == case.to_dict()
        # The restored case must rebuild an identical machine config.
        assert restored.build_config() == case.build_config()

    def test_schedule_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schedules"):
            ConformProgram(n_processors=2, schedules=[[]])


def run_machine(case):
    system = ScalableTCCSystem(case.build_config())
    return system.run(case.build_workload(), max_cycles=50_000_000,
                      verify=False)


@pytest.fixture(scope="module")
def clean_run():
    """One real simulator run of a fault-free case, shared read-only."""
    case = make_case(2)
    return case, run_machine(case)


def judged(program, result):
    """The shared judge on one case's program and a run of it."""
    return judge(program.schedules, result.commit_log, result.memory_image,
                 program.line_size, program.word_size)


def corrupted(result, mutate):
    """A deep-copied SimulationResult with ``mutate`` applied."""
    twin = copy.deepcopy(result)
    mutate(twin)
    return twin


class TestDiffer:
    """Every diff surface of the judge conform shares with
    ``run(verify=True)`` must catch its corruption class — injected into
    a *real* run's log, not a hand-built one."""

    def test_clean_run_has_no_mismatches(self, clean_run):
        case, result = clean_run
        assert judged(case.program, result) == []

    def first_kind(self, case, result):
        mismatches = judged(case.program, result)
        assert mismatches, "corruption went undetected"
        return mismatches[0].kind

    def test_corrupt_read_value(self, clean_run):
        case, result = clean_run

        def mutate(r):
            rec = next(rec for rec in r.commit_log if rec.reads)
            line, word, value = rec.reads[0]
            rec.reads[0] = (line, word, value + 1)

        kind = self.first_kind(case, corrupted(result, mutate))
        assert kind == "read-witness"

    def test_corrupt_log_ops(self, clean_run):
        # A log whose recorded ops diverge from the program cannot vouch
        # for itself: the oracle executes the *program's* ops.
        case, result = clean_run

        def mutate(r):
            rec = r.commit_log[0]
            r.commit_log[0] = CommitRecord(
                tid=rec.tid,
                tx=type(rec.tx)(rec.tx.tx_id, [("c", 1)]),
                proc=rec.proc, reads=rec.reads,
                commit_time=rec.commit_time,
            )

        kind = self.first_kind(case, corrupted(result, mutate))
        assert kind == "ops-mismatch"

    def test_dropped_commit(self, clean_run):
        case, result = clean_run
        kind = self.first_kind(
            case, corrupted(result, lambda r: r.commit_log.pop()))
        assert kind == "missing-commit"

    def test_corrupt_final_memory(self, clean_run):
        case, result = clean_run

        def mutate(r):
            line = next(iter(r.memory_image))
            r.memory_image[line][0] += 1

        kind = self.first_kind(case, corrupted(result, mutate))
        assert kind == "final-memory"

    def test_reordered_tids_break_program_order(self, clean_run):
        case, result = clean_run

        def mutate(r):
            procs = {}
            for rec in r.commit_log:
                procs.setdefault(rec.proc, []).append(rec)
            a, b = next(recs[:2] for recs in procs.values()
                        if len(recs) >= 2)
            a.tid, b.tid = b.tid, a.tid

        kind = self.first_kind(case, corrupted(result, mutate))
        assert kind in ("program-order", "epoch-order")

    def test_duplicate_tid(self, clean_run):
        case, result = clean_run

        def mutate(r):
            r.commit_log[1].tid = r.commit_log[0].tid

        kind = self.first_kind(case, corrupted(result, mutate))
        assert kind == "duplicate-tid"


class TestRunConformCase:
    @pytest.mark.parametrize("faults", [False, True])
    def test_seed_zero_conforms(self, faults):
        result = run_conform_case(make_case(0, faults=faults))
        assert result.outcome == "ok", result.detail
        assert result.committed == result.transactions

    def test_as_dict_round_trips(self):
        from repro.conform import ConformCaseResult

        result = run_conform_case(make_case(1))
        assert ConformCaseResult(**result.as_dict()).as_dict() \
            == result.as_dict()


def workload_of(program):
    """The pattern workload a ``patterns`` program was drawn from, read
    off its transaction labels."""
    labels = {tx.label for tx in program.transactions().values()}
    if labels == {"inc0"}:
        return "hot-counter"
    if labels <= {"enqueue", "dequeue"}:
        return "queue"
    return "list-set"


def corrupting_system(monkeypatch, mutate):
    """Make run_conform_case's machine hand back a result with
    ``mutate`` applied, as a faulty simulator would."""
    import repro.conform.differ as differ_mod

    class Corrupting(ScalableTCCSystem):
        def run(self, *args, **kwargs):
            result = super().run(*args, **kwargs)
            mutate(result)
            return result

    monkeypatch.setattr(differ_mod, "ScalableTCCSystem", Corrupting)


#: Patterns seed 0 is a hot counter: 4 processors x 6 increments of the
#: word at address 0.
HOT_COUNTER_SEED = 0


class TestPatternSource:
    def test_make_case_is_deterministic(self):
        a = make_case(42, faults=True, source="patterns")
        assert a.to_dict() == make_case(42, faults=True,
                                        source="patterns").to_dict()
        assert a.to_dict() != make_case(43, faults=True,
                                        source="patterns").to_dict()

    def test_case_space(self):
        seen = set()
        for seed in range(40):
            case = make_case(seed, faults=True, source="patterns")
            case.program.validate()
            config = case.build_config()
            assert config.paranoid
            assert config.n_processors in (4, 6, 8)
            assert case.fault_plan.packet_faults
            seen.add(workload_of(case.program))
        assert seen == set(PATTERN_WORKLOADS)
        assert not make_case(0).build_config().paranoid

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            make_case(0, source="apps")
        with pytest.raises(ValueError, match="source"):
            run_conform(cases=1, source="apps")

    def test_hot_counter_case(self):
        program = pattern_program(HOT_COUNTER_SEED)
        assert workload_of(program) == "hot-counter"
        assert program.n_processors == 4
        assert program.tx_count == 24
        result = run_conform_case(
            make_case(HOT_COUNTER_SEED, faults=True, source="patterns"))
        assert result.outcome == "ok", result.detail
        assert result.committed == 24

    def test_case_is_replayable(self):
        case = make_case(3, faults=True, source="patterns")
        first = run_conform_case(case)
        assert first.ok, first.detail
        assert first.fault_stats["packets_seen"] > 0
        assert run_conform_case(case).as_dict() == first.as_dict()

    def test_case_results_serialize(self):
        as_dict = run_conform_case(
            make_case(1, faults=True, source="patterns")).as_dict()
        json.dumps(as_dict)
        assert as_dict["outcome"] == "ok"
        assert as_dict["seed"] == 1

    def test_paranoid_checks_are_bit_inert(self):
        case = make_case(7, faults=True, source="patterns")
        plain = dataclasses.replace(
            case, config_overrides={**case.config_overrides,
                                    "paranoid": False})
        assert not plain.build_config().paranoid
        checked = run_conform_case(case)
        assert checked.ok, checked.detail
        assert run_conform_case(plain).as_dict() == checked.as_dict()

    def test_dropped_commit_is_a_mismatch(self, monkeypatch):
        corrupting_system(monkeypatch, lambda r: r.commit_log.pop())
        result = run_conform_case(
            make_case(HOT_COUNTER_SEED, faults=True, source="patterns"))
        assert result.outcome == "mismatch"
        assert result.mismatches[0]["kind"] == "missing-commit"

    def test_wrong_final_counter_is_a_mismatch(self, monkeypatch):
        def lose_an_increment(result):
            result.memory_image[0][0] -= 1

        corrupting_system(monkeypatch, lose_an_increment)
        result = run_conform_case(
            make_case(HOT_COUNTER_SEED, faults=True, source="patterns"))
        assert result.outcome == "mismatch"
        assert result.mismatches[0]["kind"] == "final-memory"
        assert "machine has 23, oracle has 24" in result.detail

    def test_historical_wedge_seeds_stay_fixed(self):
        """Regression: seeds that wedged pending forwards before the
        protocol was hardened — a write-back stale-dropped after the
        owner's next commit of the same line (152) and a duplicated
        invalidation from an older commit destroying the owner's only
        copy (379)."""
        for seed in (152, 379):
            result = run_conform_case(
                make_case(seed, faults=True, source="patterns"))
            assert result.outcome == "ok", f"seed {seed}: {result.detail}"

    def test_small_campaign_passes_clean(self):
        report = run_conform(cases=6, seed0=500, faults=True,
                             source="patterns")
        assert report["failed"] == 0, report["failures"]
        assert report["passed"] == 6
        assert report["source"] == "patterns"
        assert report["fault_totals"]["packets_seen"] > 0
        text = format_report(report)
        assert "conform patterns: 6/6 passed (faults," in text
        assert "faults injected:" in text
        assert "oracle agreement" in text

    def test_failure_report_names_the_replay(self):
        failure = run_conform_case(make_case(0, source="patterns"))
        failure.outcome, failure.detail = "mismatch", "forced"
        report = {
            "cases": 1, "seed0": 0, "faults": False, "source": "patterns",
            "passed": 0, "failed": 1, "failures": [failure.as_dict()],
            "shrunk": [], "fault_totals": {}, "fingerprint": "0" * 64,
            "wall_seconds": 0.0,
        }
        assert ("replay: run_conform_case(make_case(0, faults=False, "
                "source='patterns'))") in format_report(report)

    def test_counterexample_keeps_source(self, tmp_path):
        case = make_case(5, faults=True, source="patterns")
        result = run_conform_case(case)
        path = save_counterexample(case, result, tmp_path / "ce.json")
        loaded, _ = load_counterexample(path)
        assert loaded.source == "patterns"
        assert loaded.build_config() == case.build_config()
        assert replay_counterexample(path).as_dict() == result.as_dict()


class TestShrinker:
    def test_minimizes_synthetic_failure(self):
        # "Failure": the program touches address 0 with an add.  The
        # shrinker should strip everything else away via the injectable
        # run hook — no simulator involved, so this is fast and exact.
        from repro.conform.differ import ConformCaseResult

        def fake_run(case):
            bad = any(
                op[0] == "add" and op[1] == 0
                for tx in case.program.transactions().values()
                for op in tx.ops
            )
            return ConformCaseResult(
                seed=case.seed, faults=case.faults,
                n_processors=case.program.n_processors,
                transactions=case.program.tx_count,
                outcome="mismatch" if bad else "ok",
                detail="synthetic",
                mismatches=[{"kind": "synthetic", "detail": "x"}] if bad
                else [],
            )

        case = make_case(2)  # seed 2's program does hit address 0
        assert not fake_run(case).ok
        shrunk = shrink_case(case, max_evals=400, run=fake_run)
        assert shrunk.final_txs == 1
        assert shrunk.final_ops == 1
        only_tx = next(iter(shrunk.case.program.transactions().values()))
        assert only_tx.ops[0][0] == "add" and only_tx.ops[0][1] == 0
        assert shrunk.case.program.n_processors == 1
        assert not shrunk.result.ok

    def test_shrunk_case_stays_well_formed(self):
        from repro.conform.differ import ConformCaseResult

        def fake_run(case):
            case.program.validate()  # would raise on barrier imbalance
            return ConformCaseResult(
                seed=case.seed, faults=case.faults,
                n_processors=case.program.n_processors,
                transactions=case.program.tx_count,
                outcome="stall", detail="synthetic",
            )

        shrunk = shrink_case(make_case(4), max_evals=150, run=fake_run)
        shrunk.case.program.validate()
        assert shrunk.final_txs >= 1

    def test_shrunk_pattern_case_keeps_source_and_config(self):
        from repro.conform.differ import ConformCaseResult

        def fake_run(case):
            return ConformCaseResult(
                seed=case.seed, faults=case.faults,
                n_processors=case.program.n_processors,
                transactions=case.program.tx_count,
                outcome="stall", detail="synthetic",
            )

        case = make_case(1, faults=True, source="patterns")
        shrunk = shrink_case(case, max_evals=60, run=fake_run)
        assert shrunk.case.source == "patterns"
        assert shrunk.case.fault_plan == case.fault_plan
        assert shrunk.case.build_config().paranoid

    def test_passing_case_rejected(self):
        from repro.conform.differ import ConformCaseResult

        def fake_run(case):
            return ConformCaseResult(
                seed=case.seed, faults=False, n_processors=1,
                transactions=1, outcome="ok")

        with pytest.raises(ValueError, match="does not fail"):
            shrink_case(make_case(0), run=fake_run)


class TestCounterexamples:
    def test_save_load_replay_round_trip(self, tmp_path):
        case = make_case(5, faults=True)
        result = run_conform_case(case)
        path = save_counterexample(case, result, tmp_path / "ce.json")
        loaded, failure = load_counterexample(path)
        assert loaded.to_dict() == case.to_dict()
        assert failure["outcome"] == result.outcome
        assert replay_counterexample(path).as_dict() == result.as_dict()

    def test_iter_sorted_and_format_checked(self, tmp_path):
        case = make_case(1)
        result = run_conform_case(case)
        save_counterexample(case, result, tmp_path / "b.json")
        save_counterexample(case, result, tmp_path / "a.json")
        (tmp_path / "not_a_ce.json").write_text('{"format": "bogus"}')
        with pytest.raises(ValueError, match="bogus"):
            list(iter_counterexamples(tmp_path))
        (tmp_path / "not_a_ce.json").unlink()
        names = [p.name for p, _, _ in iter_counterexamples(tmp_path)]
        assert names == ["a.json", "b.json"]

    def test_missing_directory_yields_nothing(self, tmp_path):
        assert list(iter_counterexamples(tmp_path / "absent")) == []


class TestJobSpecWiring:
    def test_conform_spec_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            JobSpec(kind="conform")

    def test_faults_flag_keys_the_cache(self):
        clean = JobSpec(kind="conform", seed=1)
        faulty = JobSpec(kind="conform", seed=1,
                         workload_args={"faults": True})
        assert clean.key() != faulty.key()

    def test_source_keys_the_cache(self):
        program = JobSpec(kind="conform", seed=1)
        patterns = JobSpec(kind="conform", seed=1,
                           workload_args={"source": "patterns"})
        assert program.key() != patterns.key()

    def test_worker_executes_conform_job(self):
        outcomes, _ = run_jobs([JobSpec(kind="conform", seed=0)], jobs=1)
        assert outcomes[0].ok
        assert outcomes[0].payload["case"]["outcome"] == "ok"


@pytest.mark.slow
class TestHarnessBitIdentity:
    """The acceptance criterion: identical fingerprints no matter how
    the campaign was scheduled or whether it hit the cache."""

    CASES = 6

    def test_jobs_and_cache_equivalence(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        fingerprints = set()
        for source in ("program", "patterns"):
            serial = run_conform(cases=self.CASES, jobs=1, cache=None,
                                 source=source)
            parallel = run_conform(cases=self.CASES, jobs=2, cache=cache,
                                   source=source)
            warm = run_conform(cases=self.CASES, jobs=2, cache=cache,
                               source=source)
            assert serial["fingerprint"] == parallel["fingerprint"]
            assert parallel["fingerprint"] == warm["fingerprint"]
            assert warm["runner"]["from_cache"] == self.CASES
            assert warm["runner"]["cache"]["hits"] == self.CASES
            assert serial["failed"] == 0
            fingerprints.add(serial["fingerprint"])
        assert len(fingerprints) == 2

    def test_fingerprint_covers_every_case(self):
        from repro.conform import ConformCaseResult

        a = [ConformCaseResult(seed=i, faults=False, n_processors=1,
                               transactions=1, outcome="ok")
             for i in range(3)]
        b = [copy.deepcopy(r) for r in a]
        assert results_fingerprint(a) == results_fingerprint(b)
        b[2].outcome = "mismatch"
        assert results_fingerprint(a) != results_fingerprint(b)


@pytest.mark.slow
class TestHarnessFailurePath:
    """Fake a failing worker outcome so run_conform's shrink-and-save
    path executes for real (the live simulator passes every seed, so the
    failure has to be injected at the worker boundary)."""

    @staticmethod
    def fake_worker(monkeypatch, forced_mismatch):
        import repro.runner as runner_mod
        from repro.conform.differ import ConformCaseResult

        class Outcome:
            def __init__(self, index, data):
                self.index = index
                self.ok = True
                self.error = None
                self.payload = {"case": data}

        class Stats:
            def as_dict(self):
                return {"jobs": 1, "executed": 1, "from_cache": 0,
                        "wall_s": 0.0, "cache": None}

        def fake_run_jobs(specs, jobs=None, cache=None, progress=None):
            outcomes = []
            for i, spec in enumerate(specs):
                data = run_conform_case(
                    make_case(spec.seed, **(spec.workload_args or {}))
                ).as_dict()
                if spec.seed in forced_mismatch:
                    data.update(outcome="mismatch", detail="forced",
                                mismatches=[{"kind": "forced",
                                             "detail": "x"}])
                outcome = Outcome(i, data)
                outcomes.append(outcome)
                if progress:
                    progress(outcome)
            return outcomes, Stats()

        monkeypatch.setattr(runner_mod, "run_jobs", fake_run_jobs)
        return ConformCaseResult

    def test_unreproducible_failure_recorded(self, monkeypatch):
        # The parent re-runs the real case, which passes, so the report
        # must say the failure did not reproduce rather than crash.
        self.fake_worker(monkeypatch, forced_mismatch={1})
        report = run_conform(cases=2, seed0=0, shrink=True, shrink_evals=5)
        assert report["failed"] == 1
        assert report["shrunk"] == [{"seed": 1, "reproduced": False}]

    def test_reproducing_failure_shrunk_and_saved(self, tmp_path,
                                                  monkeypatch):
        import repro.conform.harness as harness_mod

        ConformCaseResult = self.fake_worker(monkeypatch,
                                             forced_mismatch={1})

        def flaky_run(case):
            result = run_conform_case(case)
            if result.ok:
                result = ConformCaseResult(**result.as_dict())
                result.outcome = "mismatch"
                result.detail = "forced"
                result.mismatches = [{"kind": "forced", "detail": "x"}]
            return result

        monkeypatch.setattr(
            harness_mod, "shrink_case",
            lambda case, **kw: shrink_case(case, max_evals=40,
                                           run=flaky_run))
        report = run_conform(cases=1, seed0=1, shrink=True,
                             save_dir=str(tmp_path))
        assert report["failed"] == 1
        entry = report["shrunk"][0]
        assert entry["reproduced"] and entry["outcome"] == "mismatch"
        loaded, failure = load_counterexample(entry["file"])
        assert failure["outcome"] == "mismatch"
        assert loaded.program.tx_count <= make_case(1).program.tx_count
