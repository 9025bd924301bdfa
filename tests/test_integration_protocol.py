"""End-to-end protocol scenarios through the full system.

Every ``system.run`` call already verifies serializability by serial
replay; these tests additionally pin down the *protocol-level* behaviour
each scenario must exhibit (violations or their absence, forwarding,
ownership, filtering).
"""

import pytest

from repro import ScalableTCCSystem, SystemConfig, Transaction
from repro.memory.hierarchy import L2_SIZE, L2_WAYS
from repro.workloads.base import BARRIER, Workload

LINE = 32
PAGE = 4096
#: Lines ``i * L2_SET_STRIDE`` all map to set 0 of the private L2.
L2_SET_STRIDE = L2_SIZE // LINE // L2_WAYS


class ScriptedWorkload(Workload):
    """Fixed per-processor schedules for precise scenarios."""

    def __init__(self, schedules):
        self._schedules = schedules

    def schedule(self, proc, n_procs):
        return iter(self._schedules[proc])


def run_scripted(schedules, **config_kwargs):
    config_kwargs.setdefault("n_processors", len(schedules))
    config_kwargs.setdefault("ordered_network", True)
    system = ScalableTCCSystem(SystemConfig(**config_kwargs))
    result = system.run(ScriptedWorkload(schedules), max_cycles=50_000_000)
    return system, result


def test_single_processor_single_transaction():
    tx = Transaction(1, [("c", 100), ("st", 0, 42), ("ld", 0)])
    system, result = run_scripted([[tx]])
    assert result.committed_transactions == 1
    assert result.total_violations == 0
    assert result.memory_image[0][0] == 42
    assert result.proc_stats[0].useful_cycles >= 100


def test_read_only_transaction_commits_without_marks():
    schedules = [
        [Transaction(1, [("c", 10), ("ld", 0)])],
        [Transaction(2, [("c", 10), ("ld", PAGE)])],
    ]
    system, result = run_scripted(schedules)
    assert result.committed_transactions == 2
    for d in system.directories:
        assert d.stats.commits_served == 0  # nothing written anywhere
    # every TID either skipped or committed at each directory
    assert all(d.nstid == 3 for d in system.directories)


def test_pure_compute_transaction():
    system, result = run_scripted([[Transaction(1, [("c", 500)])]])
    assert result.committed_transactions == 1
    assert result.proc_stats[0].useful_cycles >= 500


def test_write_write_conflict_exactly_one_loser():
    """Two transactions add to the same word: the later TID must violate
    and retry, and the final value must reflect both."""
    addr = 0
    schedules = [
        [Transaction(1, [("c", 10), ("add", addr, 1)])],
        [Transaction(2, [("c", 10), ("add", addr, 1)])],
    ]
    system, result = run_scripted(schedules)
    assert result.committed_transactions == 2
    assert result.memory_image[0][0] == 2


def test_disjoint_directories_commit_in_parallel():
    """Transactions writing to different homes must not serialize on one
    directory: both directories serve commits."""
    schedules = [
        [Transaction(1, [("c", 10), ("st", 0, 1)])],            # first touch: home 0
        [Transaction(2, [("c", 10), ("st", PAGE * 64, 2)])],    # first touch: home 1
    ]
    system, result = run_scripted(schedules)
    served = [d.stats.commits_served for d in system.directories]
    assert served == [1, 1]


def test_true_sharing_forwards_from_owner():
    """P0 commits a value; P1 reads it afterwards: the directory must
    recall the data from the owner (write-back protocol: memory was never
    updated by the commit)."""
    addr = 0
    schedules = [
        [Transaction(1, [("c", 10), ("st", addr, 7)]), BARRIER],
        [BARRIER, Transaction(2, [("c", 10), ("ld", addr)])],
    ]
    system, result = run_scripted(schedules)
    record = next(r for r in result.commit_log if r.tx.tx_id == 2)
    assert record.reads == [(0, 0, 7)]
    home = system.mapping.home(0)
    assert system.directories[home].stats.loads_forwarded >= 1


@pytest.mark.parametrize("write_through", [False, True],
                         ids=["write-back", "write-through"])
def test_commit_does_not_push_data_to_memory(write_through):
    """Write-back commit: after the commit (before the end-of-run drain)
    memory must not have the value; the owner holds it.  Write-through
    commit pushes it home at commit."""
    tx = Transaction(1, [("c", 10), ("st", 0, 9)])
    system = ScalableTCCSystem(SystemConfig(
        n_processors=1, ordered_network=True,
        write_through_commit=write_through,
    ))
    before_drain = {}
    drain = system._drain

    def snapshot_then_drain():
        before_drain["memory"] = system.memory_image().get(0, [0])[0]
        entry = system.directories[0].state.peek(0)
        before_drain["owned"] = entry is not None and entry.owned
        drain()

    system._drain = snapshot_then_drain
    result = system.run(ScriptedWorkload([[tx]]), max_cycles=10_000_000)
    assert before_drain, "the run never drained"
    if write_through:
        assert before_drain["memory"] == 9
    else:
        assert before_drain["memory"] != 9
        assert before_drain["owned"]
    # after drain the data is home:
    assert result.memory_image[0][0] == 9
    entry = system.directories[0].state.entry(0)
    assert not entry.owned  # drain released ownership


def test_write_through_commit_pushes_data_immediately():
    tx = Transaction(1, [("c", 10), ("st", 0, 9)])
    schedules = [[tx]]
    system, result = run_scripted(schedules, write_through_commit=True)
    # memory got the data at commit; the processor drained nothing
    assert result.memory_image[0][0] == 9
    assert system.memories[0].writes >= 1


def test_dirty_line_flushed_before_respeculation():
    """The same processor writes the same line in two transactions: the
    second speculative write must first flush the first commit's data."""
    addr = 0
    schedules = [[
        Transaction(1, [("c", 10), ("st", addr, 1)]),
        Transaction(2, [("c", 10), ("st", addr + 4, 2)]),
    ]]
    system, result = run_scripted(schedules)
    home = system.mapping.home(0)
    assert system.directories[home].stats.writebacks_accepted >= 1
    assert result.memory_image[0][0] == 1
    assert result.memory_image[0][1] == 2


def test_read_only_tx_sees_consistent_snapshot_under_contention():
    """A reader that raced with writers must still observe a TID-ordered
    snapshot (validated by the oracle judge inside run())."""
    addr = 0
    writers = [
        [Transaction(100 + i, [("c", 5), ("add", addr, 1)]) for i in range(4)]
        for _ in range(3)
    ]
    # fix tx ids unique per proc
    schedules = []
    for p, txs in enumerate(writers):
        schedules.append(
            [Transaction(p * 1000 + i, tx.ops) for i, tx in enumerate(txs)]
        )
    schedules.append(
        [Transaction(9000 + i, [("c", 1), ("ld", addr), ("ld", addr + 4)])
         for i in range(6)]
    )
    system, result = run_scripted(schedules)
    assert result.memory_image[0][0] == 12


def test_violation_counted_and_attributed():
    addr = 0
    schedules = [
        [Transaction(1, [("c", 200), ("add", addr, 1)])],
        [Transaction(2, [("c", 200), ("add", addr, 1)])],
    ]
    system, result = run_scripted(schedules)
    if result.total_violations:
        violated = [s for s in result.proc_stats if s.violations]
        assert all(s.violation_cycles > 0 for s in violated)


def test_commit_filtering_no_invalidation_to_non_sharers():
    """A processor that never touched a line must receive no invalidation
    for it (directory filtering)."""
    schedules = [
        [Transaction(1, [("c", 10), ("st", 0, 1)])],
        [Transaction(2, [("c", 10), ("st", PAGE * 64, 1)])],
        [Transaction(3, [("c", 10), ("st", PAGE * 128, 1)])],
    ]
    system, result = run_scripted(schedules)
    for d in system.directories:
        assert d.stats.invalidations_sent == 0


def test_tids_all_resolved_after_run():
    schedules = [
        [Transaction(p * 10 + i, [("c", 10), ("add", 0, 1)]) for i in range(3)]
        for p in range(4)
    ]
    system, result = run_scripted(schedules)
    system.vendor.check_all_resolved()  # idempotent; must not raise
    assert result.memory_image[0][0] == 12


def test_barrier_idle_time_attributed():
    schedules = [
        [Transaction(1, [("c", 10)]), BARRIER],
        [Transaction(2, [("c", 5000)]), BARRIER],
    ]
    system, result = run_scripted(schedules)
    fast, slow = result.proc_stats
    assert fast.idle_cycles > 3000
    assert slow.idle_cycles < 1000


def test_store_then_load_same_word_in_tx_sees_own_write():
    tx = Transaction(1, [("st", 0, 5), ("ld", 0), ("add", 0, 2), ("ld", 0)])
    system, result = run_scripted([[tx]])
    record = result.commit_log[0]
    assert [v for (_, _, v) in record.reads] == [5, 5, 7]
    assert result.memory_image[0][0] == 7


def test_eviction_of_dirty_line_writes_back():
    """Force dirty evictions by committing to more lines of one L2 set
    than it has ways, and confirm the data is still correct at the end."""
    txs = []
    for i in range(16):
        txs.append(Transaction(i, [("c", 5), ("st", i * L2_SET_STRIDE * LINE, i + 1)]))
    system, result = run_scripted([txs])
    assert system.processors[0].hierarchy.stats.dirty_evictions == 16 - L2_WAYS
    for i in range(16):
        assert result.memory_image[i * L2_SET_STRIDE][0] == i + 1


def test_speculative_overflow_handled_not_crashed():
    """A transaction larger than the cache overflows speculative state;
    the model must keep it correct (victim-buffer semantics) and count
    the overflow."""
    ops = [("c", 1)]
    for i in range(32):
        ops.append(("st", i * L2_SET_STRIDE * LINE, i))
    tx = Transaction(1, ops)
    system, result = run_scripted([[tx]])
    assert result.committed_transactions == 1
    assert system.processors[0].hierarchy.stats.speculative_overflows > 0
    for i in range(32):
        assert result.memory_image[i * L2_SET_STRIDE][0] == i


def test_unordered_network_load_inv_race_resolved_by_retry():
    """Heavy conflict with jitter exercises the load/invalidate race; the
    run must stay serializable and some retries may occur."""
    addr = 0
    schedules = [
        [Transaction(p * 100 + i, [("c", 3), ("add", addr, 1)]) for i in range(5)]
        for p in range(4)
    ]
    system, result = run_scripted(
        schedules, ordered_network=False, network_jitter=5
    )
    assert result.memory_image[0][0] == 20
