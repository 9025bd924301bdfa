"""Table 2 — simulated architecture parameters.

Table 2 of the paper is the machine description itself; this benchmark
checks the default :class:`SystemConfig` reproduces it exactly, renders
it, and measures full-machine construction cost at 64 nodes (a sanity
benchmark for the simulator substrate, not a paper number).
"""

from repro import ScalableTCCSystem, SystemConfig
from repro.memory import FirstTouchMapping


def test_table2_defaults_reproduce_paper(benchmark, save_artifact):
    config = benchmark.pedantic(
        lambda: SystemConfig(n_processors=64), rounds=1, iterations=1
    )
    assert config.l1_size == 32 * 1024
    assert config.l1_ways == 4
    assert config.l1_latency == 1
    assert config.l2_size == 512 * 1024
    assert config.l2_ways == 8
    assert config.l2_latency == 6
    assert config.line_size == 32
    assert config.memory_latency == 100
    assert config.directory_latency == 10
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
