"""Unit tests for SystemConfig (Table 2 defaults and validation)."""

import pytest

from repro.core import ScalableTCCSystem, SystemConfig
from repro.directory.controller import DIRECTORY_LATENCY, MEMORY_LATENCY
from repro.memory import FirstTouchMapping
from repro.memory import hierarchy


def test_defaults_match_table2():
    cfg = SystemConfig()
    assert cfg.line_size == 32
    assert hierarchy.L1_SIZE == 32 * 1024 and hierarchy.L1_WAYS == 4
    assert hierarchy.L1_LATENCY == 1
    assert hierarchy.L2_SIZE == 512 * 1024 and hierarchy.L2_WAYS == 8
    assert hierarchy.L2_LATENCY == 6
    assert MEMORY_LATENCY == 100
    assert DIRECTORY_LATENCY == 10
    assert cfg.link_latency == 3
    assert isinstance(ScalableTCCSystem(cfg).mapping, FirstTouchMapping)
    assert cfg.commit_backend == "scalable"
    assert not cfg.write_through_commit
    assert cfg.granularity == "word"


def test_words_per_line():
    assert SystemConfig().words_per_line == 8
    assert SystemConfig(line_size=64, word_size=8).words_per_line == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_processors=0),
        dict(granularity="byte"),
        dict(commit_backend="bus"),
        dict(line_size=30),
        dict(retention_threshold=0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_describe_mentions_key_parameters():
    text = SystemConfig().describe()
    assert "32-KB" in text
    assert "512-KB" in text
    assert "100 cycles" in text
    assert "first-touch" in text
    assert "word-granularity" in text


def test_frozen():
    cfg = SystemConfig()
    with pytest.raises(Exception):
        cfg.n_processors = 4  # type: ignore[misc]
