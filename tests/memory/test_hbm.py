"""Unit tests for the HBM bandwidth model (Table I)."""

from __future__ import annotations

import pytest

from repro.memory.hbm import HBMConfig, HBMModel


def test_default_configuration_matches_table1():
    config = HBMConfig()
    assert config.num_channels == 16
    assert config.total_bandwidth_bytes_per_second == pytest.approx(128e9)
    assert config.bytes_per_cycle == pytest.approx(128.0)


def test_transfer_cycles_scale_with_bytes_and_efficiency():
    model = HBMModel(HBMConfig(read_efficiency=0.5, write_efficiency=1.0))
    # 128 bytes/cycle peak, 50 % read efficiency → 64 bytes/cycle effective.
    assert model.transfer_cycles(6400, is_read=True) == 100
    assert model.transfer_cycles(6400, is_read=False) == 50
    assert model.transfer_cycles(0) == 0
    assert model.transfer_cycles(1) == 1  # never less than one cycle
    with pytest.raises(ValueError):
        model.transfer_cycles(-1)


def test_memory_cycles_sums_read_and_write():
    model = HBMModel()
    read_only = model.transfer_cycles(10_000, is_read=True)
    write_only = model.transfer_cycles(5_000, is_read=False)
    assert model.memory_cycles(10_000, 5_000) == read_only + write_only


def test_byte_recording_and_utilization():
    model = HBMModel()
    model.record_read(1000)
    model.record_write(500)
    assert model.read_bytes == 1000
    assert model.write_bytes == 500
    assert model.total_bytes == 1500
    with pytest.raises(ValueError):
        model.record_read(-1)
    assert model.bandwidth_utilization(1280, 10) == pytest.approx(1.0)
    assert model.bandwidth_utilization(640, 10) == pytest.approx(0.5)
    assert model.bandwidth_utilization(999999, 10) == 1.0  # clamped
    assert model.bandwidth_utilization(100, 0) == 0.0


def test_runtime_conversion():
    model = HBMModel()
    assert model.runtime_seconds(1_000_000) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        model.runtime_seconds(-1)


@pytest.mark.parametrize("field, value", [
    ("num_channels", -1),
    ("bytes_per_second_per_channel", 0.0),
    ("clock_hz", 0.0),
    ("read_efficiency", 1.01),
    ("write_efficiency", 0.0),
    ("write_efficiency", 1.5),
])
def test_invalid_configuration_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        HBMConfig(**{field: value})


@pytest.mark.parametrize("num_channels, bytes_per_second_per_channel", [
    (16, 8e9),
    (8, 16e9),
    (32, 4e9),
    (1, 128e9),
])
def test_transfer_time_depends_only_on_aggregate_bandwidth(
        num_channels, bytes_per_second_per_channel):
    """DRAM time is priced at the aggregate bandwidth (§II-D): how it is
    split into channels does not change a transfer's cycle count."""
    model = HBMModel(HBMConfig(
        num_channels=num_channels,
        bytes_per_second_per_channel=bytes_per_second_per_channel))
    # 128 bytes/cycle peak at 80 % read and 90 % write efficiency.
    assert model.transfer_cycles(10_240, is_read=True) == 100
    assert model.transfer_cycles(11_520, is_read=False) == 100
    assert model.memory_cycles(10_240, 11_520) == 200


def test_negative_write_rejected():
    model = HBMModel()
    with pytest.raises(ValueError):
        model.record_write(-1)
    assert model.write_bytes == 0
