"""Property-based tests (hypothesis) on protocol invariants.

The heavyweight property: *any* random transactional workload, on *any*
machine shape, must be serializable in TID order, livelock-free, and
leave every directory quiescent with a gap-free TID history.  The
simulator's built-in oracle judge enforces serializability; this file
generates adversarial inputs for it.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ScalableTCCSystem, SystemConfig, Transaction
from repro.directory import SkipVector
from repro.core.result import _percentile as percentile
from repro.workloads.base import Workload

LINE = 32
HOT_POOL = [i * LINE for i in range(6)]  # six hot lines on one page


class RandomWorkload(Workload):
    """Conflict-heavy random transactions derived from one RNG seed."""

    def __init__(self, seed, n_procs, tx_per_proc):
        self.seed = seed
        self.n_procs = n_procs
        self.tx_per_proc = tx_per_proc

    def schedule(self, proc, n_procs):
        rng = random.Random(self.seed * 65537 + proc)
        for i in range(self.tx_per_proc):
            ops = [("c", rng.randint(1, 30))]
            for _ in range(rng.randint(1, 4)):
                addr = rng.choice(HOT_POOL) + 4 * rng.randrange(8)
                kind = rng.random()
                if kind < 0.45:
                    ops.append(("ld", addr))
                elif kind < 0.75:
                    ops.append(("add", addr, rng.randint(1, 9)))
                else:
                    ops.append(("st", addr, rng.randint(1, 1 << 12)))
            yield Transaction(proc * 10_000 + i, ops)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n_procs=st.sampled_from([2, 3, 4, 8]),
    backend=st.sampled_from(["scalable", "token"]),
    granularity=st.sampled_from(["word", "line"]),
    jitter=st.integers(0, 4),
)
def test_random_conflicting_workloads_serializable(
    seed, n_procs, backend, granularity, jitter
):
    config = SystemConfig(
        n_processors=n_procs,
        commit_backend=backend,
        granularity=granularity,
        ordered_network=jitter == 0,
        network_jitter=jitter,
        seed=seed,
    )
    system = ScalableTCCSystem(config)
    workload = RandomWorkload(seed, n_procs, tx_per_proc=5)
    # run() verifies serializability (read values + final memory) and
    # raises SimulationTimeout on livelock/deadlock.
    result = system.run(workload, max_cycles=80_000_000)
    assert result.committed_transactions == n_procs * 5
    if backend == "scalable":
        # gap-free TID history at every directory
        highest = system.vendor.highest_issued
        for directory in system.directories:
            assert directory.nstid == highest + 1
    system.vendor.check_all_resolved()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    retention=st.integers(1, 3),
)
def test_retention_policy_preserves_correctness(seed, retention):
    config = SystemConfig(
        n_processors=4,
        retention_threshold=retention,
        seed=seed,
    )
    system = ScalableTCCSystem(config)
    workload = RandomWorkload(seed, 4, tx_per_proc=4)
    result = system.run(workload, max_cycles=80_000_000)
    assert result.committed_transactions == 16


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=0, max_size=60))
def test_skipvector_model_equivalence(tids):
    """The Skip Vector must behave exactly like the obvious model: NSTID
    is the smallest TID not yet skipped."""
    sv = SkipVector()
    skipped = set()
    for tid in tids:
        sv.skip(tid)
        skipped.add(tid)
        expected = 1
        while expected in skipped:
            expected += 1
        assert sv.nstid == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200),
    st.floats(0, 100),
)
def test_percentile_matches_numpy(samples, pct):
    import numpy as np

    ours = percentile(samples, pct)
    theirs = float(np.percentile(samples, pct))
    assert abs(ours - theirs) <= 1e-6 * max(1.0, abs(theirs))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
def test_percentile_bounds(samples):
    assert percentile(samples, 0) == min(samples)
    assert percentile(samples, 100) == max(samples)
    p90 = percentile(samples, 90)
    assert min(samples) <= p90 <= max(samples)
