"""Integration tests across commit backends and tracking granularities."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.baseline.token import CommitToken
from repro.workloads import (
    CounterWorkload,
    FalseSharingWorkload,
    PrivateWorkload,
    ProducerConsumerWorkload,
    StarvationWorkload,
)


def run(workload, **kwargs):
    n = kwargs.pop("n", 8)
    config = SystemConfig(n_processors=n, **kwargs)
    system = ScalableTCCSystem(config)
    result = system.run(workload, max_cycles=100_000_000)
    return system, result


# -- counters: the canonical atomicity check ---------------------------------


def counter_total(result, workload, n):
    image = result.memory_image
    return sum(
        image.get(workload.counter_addr(i) // 32, [0] * 8)[0]
        for i in range(workload.n_counters)
    )


@pytest.mark.parametrize("backend", ["scalable", "token"])
@pytest.mark.parametrize("granularity", ["word", "line"])
def test_counters_exact_under_all_backends(backend, granularity):
    wl = CounterWorkload(n_counters=3, increments_per_proc=8)
    system, result = run(wl, commit_backend=backend, granularity=granularity)
    assert counter_total(result, wl, 8) == wl.expected_total(8)


def test_counters_exact_write_through():
    wl = CounterWorkload(n_counters=3, increments_per_proc=8)
    system, result = run(wl, write_through_commit=True)
    assert counter_total(result, wl, 8) == wl.expected_total(8)


# -- false sharing: the granularity ablation behaviour ------------------------


def test_word_granularity_eliminates_false_sharing_violations():
    wl = FalseSharingWorkload(n_lines=2, tx_per_proc=6)
    system, result = run(wl, granularity="word", ordered_network=True)
    assert result.total_violations == 0


def test_line_granularity_suffers_false_sharing_violations():
    wl = FalseSharingWorkload(n_lines=2, tx_per_proc=6)
    system, result = run(wl, granularity="line", ordered_network=True)
    assert result.total_violations > 0


# -- baseline serialization --------------------------------------------------


def test_token_backend_serializes_commits():
    """The token is acquired once per (attempted) commit and held
    exclusively — total acquisitions must be at least the commit count."""
    wl = PrivateWorkload(tx_per_proc=4)
    system, result = run(wl, commit_backend="token")
    assert isinstance(system.token, CommitToken)
    assert system.token.total_acquisitions >= result.committed_transactions
    assert not system.token.held


def test_token_backend_never_uses_directory_commit_machinery():
    wl = CounterWorkload(increments_per_proc=6)
    system, result = run(wl, commit_backend="token")
    for d in system.directories:
        assert d.stats.invalidations_sent == 0  # invs broadcast by committer
        assert d.stats.occupancy_samples == []  # no mark/commit occupancy


def test_scalable_faster_than_token_on_disjoint_commits():
    """With disjoint write sets, parallel commit must beat the serialized
    token at a matched processor count."""
    wl_s = PrivateWorkload(tx_per_proc=6, lines_per_tx=8, compute=20)
    wl_t = PrivateWorkload(tx_per_proc=6, lines_per_tx=8, compute=20)
    _, res_scalable = run(wl_s, n=16, commit_backend="scalable")
    _, res_token = run(wl_t, n=16, commit_backend="token")
    assert res_scalable.cycles < res_token.cycles


# -- write-through traffic ----------------------------------------------------


def test_write_back_moves_less_commit_data_than_write_through():
    wl_wb = PrivateWorkload(tx_per_proc=6, lines_per_tx=8)
    wl_wt = PrivateWorkload(tx_per_proc=6, lines_per_tx=8)
    _, res_wb = run(wl_wb, write_through_commit=False)
    _, res_wt = run(wl_wt, write_through_commit=True)
    assert (
        res_wt.traffic.bytes_by_class["commit"]
        > res_wb.traffic.bytes_by_class["commit"]
    )


# -- communication workloads ---------------------------------------------------


@pytest.mark.parametrize("backend", ["scalable", "token"])
def test_producer_consumer_values_flow(backend):
    wl = ProducerConsumerWorkload(phases=3)
    system, result = run(wl, commit_backend=backend)
    # every consumer read must have seen the just-produced value
    for record in result.commit_log:
        if record.tx.label.startswith("consume"):
            phase = int(record.tx.label[len("consume"):])
            (_, _, value) = record.reads[0]
            left = (record.proc - 1) % 8
            assert value == phase * 1000 + left + 1


# -- starvation and retention ---------------------------------------------------


def test_starvation_workload_completes_with_retention():
    wl = StarvationWorkload(writer_txs=20)
    system, result = run(wl, retention_threshold=3)
    assert result.committed_transactions == 1 + 7 * 20
    # the long reader eventually commits; if it struggled, retention engaged
    long_reader = result.proc_stats[0]
    assert long_reader.committed_transactions == 1


def test_retention_grants_forward_progress_under_heavy_conflict():
    wl = CounterWorkload(n_counters=1, increments_per_proc=12)
    system, result = run(wl, retention_threshold=2)
    assert counter_total(result, wl, 8) == wl.expected_total(8)
    # with threshold 2 and a single hot counter, retention must trigger
    assert sum(s.tid_retentions for s in result.proc_stats) > 0


def test_single_processor_every_backend():
    for backend in ("scalable", "token"):
        wl = CounterWorkload(n_counters=2, increments_per_proc=5)
        system, result = run(wl, n=1, commit_backend=backend)
        assert result.committed_transactions == 5
        assert result.total_violations == 0
