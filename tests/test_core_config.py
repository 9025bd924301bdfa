"""Unit tests for SystemConfig (Table 2 defaults and validation)."""

import pytest

from repro.core import ScalableTCCSystem, SystemConfig
from repro.memory import FirstTouchMapping


def test_defaults_match_table2():
    cfg = SystemConfig()
    assert cfg.line_size == 32
    assert cfg.l1_size == 32 * 1024 and cfg.l1_ways == 4 and cfg.l1_latency == 1
    assert cfg.l2_size == 512 * 1024 and cfg.l2_ways == 8 and cfg.l2_latency == 6
    assert cfg.memory_latency == 100
    assert cfg.directory_latency == 10
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
