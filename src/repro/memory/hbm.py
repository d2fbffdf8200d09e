"""High Bandwidth Memory model (Table I).

SpArch uses 16 × 64-bit HBM channels, each providing 8 GB/s, for an aggregate
128 GB/s at a 1 GHz core clock — i.e. 128 bytes per core cycle across all
channels.  The model converts byte counts into memory cycles, applies an
efficiency factor for access-pattern overheads, and reports the achieved
bandwidth utilisation that Table II compares against OuterSPACE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive_finite, check_positive_int


@dataclass(frozen=True)
class HBMConfig:
    """HBM configuration.

    Attributes:
        num_channels: independent channels (16 in Table I).
        bytes_per_second_per_channel: per-channel bandwidth (8 GB/s).
        clock_hz: accelerator core clock used to convert to bytes/cycle.
        read_efficiency: fraction of the peak usable by the observed read
            pattern (row activations, refresh, open-page misses).
        write_efficiency: same for writes; the streaming write pattern of the
            merge-tree output is very regular, so it defaults higher.
    """

    num_channels: int = 16
    bytes_per_second_per_channel: float = 8e9
    clock_hz: float = 1e9
    read_efficiency: float = 0.80
    write_efficiency: float = 0.90

    def __post_init__(self) -> None:
        check_positive_int(self.num_channels, "num_channels")
        check_positive_finite(self.bytes_per_second_per_channel,
                              "bytes_per_second_per_channel")
        check_positive_finite(self.clock_hz, "clock_hz")
        for name, value in (("read_efficiency", self.read_efficiency),
                            ("write_efficiency", self.write_efficiency)):
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    @property
    def total_bandwidth_bytes_per_second(self) -> float:
        """Aggregate peak bandwidth across all channels."""
        return self.num_channels * self.bytes_per_second_per_channel

    @property
    def bytes_per_cycle(self) -> float:
        """Peak bytes transferred per core clock cycle."""
        return self.total_bandwidth_bytes_per_second / self.clock_hz


class HBMModel:
    """Converts DRAM byte counts into cycle counts and utilisation figures."""

    def __init__(self, config: HBMConfig | None = None) -> None:
        self._config = config or HBMConfig()
        self._read_bytes = 0
        self._write_bytes = 0

    @property
    def config(self) -> HBMConfig:
        return self._config

    @property
    def read_bytes(self) -> int:
        return self._read_bytes

    @property
    def write_bytes(self) -> int:
        return self._write_bytes

    @property
    def total_bytes(self) -> int:
        return self._read_bytes + self._write_bytes

    # ------------------------------------------------------------------
    def record_read(self, num_bytes: int) -> None:
        """Account ``num_bytes`` of DRAM reads."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self._read_bytes += int(num_bytes)

    def record_write(self, num_bytes: int) -> None:
        """Account ``num_bytes`` of DRAM writes."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self._write_bytes += int(num_bytes)

    # ------------------------------------------------------------------
    def transfer_cycles(self, num_bytes: int, *, is_read: bool = True) -> int:
        """Core cycles to move ``num_bytes`` at the effective bandwidth."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0
        efficiency = (self._config.read_efficiency if is_read
                      else self._config.write_efficiency)
        effective = self._config.bytes_per_cycle * efficiency
        return max(1, int(round(num_bytes / effective)))

    def memory_cycles(self, read_bytes: int, write_bytes: int) -> int:
        """Cycles for a phase moving ``read_bytes`` + ``write_bytes``.

        Reads and writes share the channel bandwidth, so the cycle count is
        the sum of both directions at their respective efficiencies.
        """
        return (self.transfer_cycles(read_bytes, is_read=True)
                + self.transfer_cycles(write_bytes, is_read=False))

    def bandwidth_utilization(self, total_bytes: int, cycles: int) -> float:
        """Achieved fraction of peak bandwidth over ``cycles`` core cycles."""
        if cycles <= 0:
            return 0.0
        peak = self._config.bytes_per_cycle * cycles
        return min(1.0, total_bytes / peak) if peak else 0.0

    def runtime_seconds(self, cycles: int) -> float:
        """Convert a cycle count to wall-clock seconds at the core clock."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        return cycles / self._config.clock_hz

    def __repr__(self) -> str:
        return (f"HBMModel(channels={self._config.num_channels}, "
                f"peak={self._config.total_bandwidth_bytes_per_second / 1e9:.0f} GB/s)")
