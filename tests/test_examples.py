"""Smoke tests: the example scripts must keep running.

Only the fast examples run here (the scaling/latency studies take
minutes by design; their logic is covered by the analysis drivers'
tests and the benchmark harness).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "bank.py",
    "hashtable.py",
    "contention_explorer.py",
    "trace_replay.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()


def test_quickstart_reports_speedup():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert "speedup" in completed.stdout


def test_bank_conserves_money():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "bank.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert "Conservation holds" in completed.stdout


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 5
    for script in scripts:
        text = script.read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3', '"""')), script
        assert '"""' in text, script
