"""Tests for capturing a workload as an explicit program and replaying it.

A captured trace is a :class:`~repro.conform.ConformProgram` written with
``to_dict`` and read back with ``from_dict`` — the same JSON form the
conformance counterexample files use (``examples/trace_replay.py``).
"""

import json

import pytest

from repro import ScalableTCCSystem, SystemConfig, app_workload
from repro.conform import ConformProgram
from repro.workloads import CounterWorkload, Transaction
from repro.workloads.base import BARRIER


def capture(workload, n_procs):
    """``workload``'s program for ``n_procs``, through a JSON round trip."""
    program = ConformProgram(n_procs, workload.schedules(n_procs))
    return ConformProgram.from_dict(json.loads(json.dumps(program.to_dict())))


def test_round_trip_preserves_schedules():
    original = CounterWorkload(n_counters=2, increments_per_proc=4)
    replay = capture(original, 3).to_workload()
    for proc in range(3):
        a = list(original.schedule(proc, 3))
        b = list(replay.schedule(proc, 3))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x is BARRIER if y is BARRIER else True
            if isinstance(x, Transaction):
                assert x.tx_id == y.tx_id
                assert list(map(tuple, x.ops)) == list(map(tuple, y.ops))
                assert x.label == y.label


def test_barriers_survive_round_trip():
    from repro.workloads import ProducerConsumerWorkload

    replay = capture(ProducerConsumerWorkload(phases=2), 2).to_workload()
    barriers = sum(1 for item in replay.schedule(0, 2) if item is BARRIER)
    assert barriers == 4


def test_replayed_trace_runs_identically():
    original = app_workload("barnes", scale=0.05)
    replay = capture(original, 4).to_workload()

    res_orig = ScalableTCCSystem(
        SystemConfig(n_processors=4, ordered_network=True)
    ).run(original, max_cycles=500_000_000)
    res_replay = ScalableTCCSystem(
        SystemConfig(n_processors=4, ordered_network=True)
    ).run(replay, max_cycles=500_000_000)

    assert res_replay.cycles == res_orig.cycles
    assert res_replay.committed_transactions == res_orig.committed_transactions
    assert res_replay.memory_image == res_orig.memory_image


def test_wrong_processor_count_rejected():
    replay = capture(CounterWorkload(), 4).to_workload()
    with pytest.raises(ValueError, match="program is for 4 processors"):
        list(replay.schedule(0, 2))
    # A whole run on the smaller machine fails instead of silently
    # dropping the schedules it never pulls.
    with pytest.raises(ValueError, match="machine has 2"):
        ScalableTCCSystem(SystemConfig(n_processors=2)).run(replay)


def test_malformed_item_rejected():
    with pytest.raises(ValueError, match="bad schedule item.*nope"):
        ConformProgram.from_dict({
            "n_processors": 1,
            "schedules": [[{"nope": True}]],
        })


def test_random_transactions_round_trip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    op_strategy = st.one_of(
        st.tuples(st.just("c"), st.integers(1, 1000)),
        st.tuples(st.just("ld"), st.integers(0, 1 << 20)),
        st.tuples(st.just("st"), st.integers(0, 1 << 20), st.integers(0, 999)),
        st.tuples(st.just("add"), st.integers(0, 1 << 20), st.integers(-9, 9)),
    )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(op_strategy, min_size=1, max_size=8),
                    min_size=1, max_size=6))
    def check(tx_op_lists):
        program = ConformProgram(1, [[
            Transaction(i, ops, label=f"t{i}")
            for i, ops in enumerate(tx_op_lists)
        ]])
        replay = capture(program.to_workload(), 1).schedules[0]
        assert [list(map(tuple, t.ops)) for t in replay] == [
            [tuple(op) for op in ops] for ops in tx_op_lists
        ]
        assert [t.label for t in replay] == [
            f"t{i}" for i in range(len(tx_op_lists))
        ]

    check()


def test_trace_file_is_plain_json(tmp_path):
    path = tmp_path / "t.json"
    program = ConformProgram(1, CounterWorkload(increments_per_proc=1).schedules(1))
    path.write_text(json.dumps(program.to_dict()))
    document = json.loads(path.read_text())
    assert document["n_processors"] == 1
    assert isinstance(document["schedules"][0][0]["ops"], list)
