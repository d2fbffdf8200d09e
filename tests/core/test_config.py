"""Unit tests for the architectural configuration (Table I)."""

from __future__ import annotations

import pytest

from repro.core.config import BACKENDS, SpArchConfig
from repro.memory.hbm import HBMConfig


def test_default_matches_table1():
    config = SpArchConfig()
    assert config.merger_width == 16
    assert config.merger_chunk_size == 4
    assert config.merge_tree_layers == 6
    assert config.merge_ways == 64
    assert config.num_multipliers == 16
    assert config.lookahead_fifo_elements == 8192
    assert config.prefetch_buffer_lines == 1024
    assert config.prefetch_line_elements == 48
    assert config.prefetch_element_bytes == 12
    assert config.hbm.num_channels == 16
    assert config.hbm.total_bandwidth_bytes_per_second == pytest.approx(128e9)


def test_derived_quantities():
    config = SpArchConfig()
    assert config.element_bytes == 16
    assert config.prefetch_buffer_bytes == 1024 * 48 * 12
    assert config.peak_multiply_flops == pytest.approx(16e9)
    assert config.peak_flops == pytest.approx(32e9)


def test_with_features_overrides_only_requested_flags():
    config = SpArchConfig().with_features(matrix_condensing=False)
    assert not config.enable_matrix_condensing
    assert config.enable_pipelined_merge
    assert config.enable_huffman_scheduler
    assert config.enable_row_prefetcher
    unchanged = config.with_features()
    assert unchanged == config


def test_replace_arbitrary_fields():
    config = SpArchConfig().replace(merge_tree_layers=4, prefetch_buffer_lines=256)
    assert config.merge_ways == 16
    assert config.prefetch_buffer_lines == 256
    # The original default is untouched (frozen dataclass semantics).
    assert SpArchConfig().merge_tree_layers == 6


def test_two_backends():
    assert BACKENDS == ("scalar", "vectorized")
    for backend in BACKENDS:
        assert SpArchConfig(engine=backend).engine == backend


def test_streaming_is_not_a_backend():
    with pytest.raises(ValueError, match="'scalar', 'vectorized', got"):
        SpArchConfig(engine="streaming")


def test_validation_errors():
    with pytest.raises(ValueError):
        SpArchConfig(merger_width=0)
    with pytest.raises(ValueError):
        SpArchConfig(merger_width=10, merger_chunk_size=4)
    with pytest.raises(ValueError):
        SpArchConfig(clock_hz=0.0)
    with pytest.raises(ValueError):
        SpArchConfig(round_startup_cycles=-1)
    with pytest.raises(TypeError):
        SpArchConfig(num_multipliers=2.5)


def test_hbm_config_validation():
    with pytest.raises(ValueError):
        HBMConfig(num_channels=0)
    with pytest.raises(ValueError):
        HBMConfig(read_efficiency=0.0)
    with pytest.raises(ValueError):
        HBMConfig(bytes_per_second_per_channel=-1)
    config = HBMConfig(num_channels=8, bytes_per_second_per_channel=4e9)
    assert config.total_bandwidth_bytes_per_second == pytest.approx(32e9)
    assert config.bytes_per_cycle == pytest.approx(32.0)


@pytest.mark.parametrize("clock_hz", [float("nan"), float("inf"),
                                      float("-inf")])
def test_non_finite_clock_rejected(clock_hz):
    with pytest.raises(ValueError, match="clock_hz"):
        SpArchConfig(clock_hz=clock_hz)


@pytest.mark.parametrize("clock_hz", [True, False, "1e9"])
def test_non_numeric_clock_rejected(clock_hz):
    with pytest.raises(TypeError, match="clock_hz"):
        SpArchConfig(clock_hz=clock_hz)


def test_integer_clock_accepted():
    assert SpArchConfig(clock_hz=2_000_000_000).peak_multiply_flops == 32e9


def test_hbm_must_be_an_hbm_config():
    with pytest.raises(TypeError, match="HBMConfig"):
        SpArchConfig(hbm={"num_channels": 2})


@pytest.mark.parametrize("field", ["bytes_per_second_per_channel",
                                   "clock_hz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_hbm_non_finite_rates_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        HBMConfig(**{field: value})


@pytest.mark.parametrize("field", ["bytes_per_second_per_channel",
                                   "clock_hz"])
@pytest.mark.parametrize("value", [True, "8e9"])
def test_hbm_non_numeric_rates_rejected(field, value):
    with pytest.raises(TypeError, match=field):
        HBMConfig(**{field: value})
