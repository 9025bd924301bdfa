"""Table 2 — simulated architecture parameters.

Table 2 of the paper is the machine description itself; this benchmark
checks the default :class:`SystemConfig` and the fixed cache, directory
and memory constants reproduce it exactly, renders it, and measures full-machine construction cost at 64 nodes (a sanity
benchmark for the simulator substrate, not a paper number).
"""

from repro import ScalableTCCSystem, SystemConfig
from repro.directory.controller import DIRECTORY_LATENCY, MEMORY_LATENCY
from repro.memory import FirstTouchMapping
from repro.memory import hierarchy


def test_table2_defaults_reproduce_paper(benchmark, save_artifact):
    config = benchmark.pedantic(
        lambda: SystemConfig(n_processors=64), rounds=1, iterations=1
    )
    assert hierarchy.L1_SIZE == 32 * 1024
    assert hierarchy.L1_WAYS == 4
    assert hierarchy.L1_LATENCY == 1
    assert hierarchy.L2_SIZE == 512 * 1024
    assert hierarchy.L2_WAYS == 8
    assert hierarchy.L2_LATENCY == 6
    assert config.line_size == 32
    assert MEMORY_LATENCY == 100
    assert DIRECTORY_LATENCY == 10
    assert config.link_latency == 3  # Figure 8 sweeps around this default
    assert isinstance(ScalableTCCSystem(config).mapping, FirstTouchMapping)
    save_artifact("table2_config", "Table 2 — simulated architecture\n"
                  + config.describe())


def test_bench_machine_construction(benchmark):
    def build():
        return ScalableTCCSystem(SystemConfig(n_processors=64))

    system = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(system.processors) == 64
    assert len(system.directories) == 64
