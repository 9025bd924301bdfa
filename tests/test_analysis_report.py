"""Tests for the markdown report generator and commit-phase breakdown."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.analysis import render_report
from repro.tracing import tape_report
from repro.workloads import CounterWorkload, PrivateWorkload


@pytest.fixture(scope="module")
def run():
    system = ScalableTCCSystem(SystemConfig(n_processors=4, event_log=True))
    result = system.run(
        CounterWorkload(n_counters=2, increments_per_proc=6),
        max_cycles=50_000_000,
    )
    return system, result


def test_report_contains_all_sections(run):
    system, result = run
    text = render_report("counters", result, tape_report(system))
    for heading in (
        "# Simulation report — counters",
        "## Machine",
        "## Outcome",
        "## Execution-time breakdown",
        "## Commit-phase breakdown",
        "## Transactional characteristics",
        "## Remote traffic",
        "## TAPE profile",
    ):
        assert heading in text


def test_report_numbers_are_rendered(run):
    system, result = run
    text = render_report("counters", result)
    assert f"{result.cycles:,}" in text
    assert str(result.committed_transactions) in text


def test_report_without_tape_omits_section(run):
    _, result = run
    text = render_report("counters", result)
    assert "TAPE profile" not in text


def test_commit_phase_cycles_populated(run):
    _, result = run
    phases = result.summary().commit_phases
    assert phases["tid"] > 0    # every commit fetches a TID over the network
    assert phases["probe"] > 0  # and probes directories
    assert phases["ack"] > 0    # and waits for commit acks (write transactions)


def test_commit_phase_breakdown_accessor(run):
    _, result = run
    breakdown = result.proc_stats[0].commit_phase_breakdown()
    assert set(breakdown) == {"tid", "probe", "ack"}


def test_commit_phases_sum_close_to_commit_cycles(run):
    # The three phases partition the successful-commit wait (aborted
    # commit attempts land in violation time instead).
    _, result = run
    for stats in result.proc_stats:
        phases = sum(stats.commit_phase_breakdown().values())
        assert phases <= stats.commit_cycles + stats.violation_cycles


def test_cli_report_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.md"
    code = main([
        "run", "barnes", "-n", "2", "--scale", "0.05",
        "--report", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "# Simulation report — barnes" in text
    assert "## Remote traffic" in text
