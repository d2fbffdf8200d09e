"""The canonical cost schema: one :class:`CostReport` per executed point.

The SpArch simulator's :class:`~repro.core.stats.SimulationStats` is the
one native schema; the seven comparison baselines price their kernel
counters (:class:`~repro.baselines.base.BaselineCounters`) straight into a
report.  Every consumer (experiment harnesses, the memoising runner, the
workload pipelines, the analysis views) holds a :class:`CostReport`,
whichever engine ran:

* **canonical counters** — cycles, modelled runtime, multiplications,
  additions, bookkeeping and comparator operations, output nonzeros;
* **DRAM traffic by category** — the SpArch engines report the full
  per-category split (``matrix_a_read``, ``partial_write``, ...); baseline
  platform models report one ``total`` bucket;
* **per-module energy** — SpArch reports the Figure 13b module split;
  baselines get the uniform per-event accounting of
  :func:`repro.analysis.energy.event_energy` (see DESIGN.md) while their
  headline ``energy_joules`` stays the platform model's runtime × power;
* **derived metrics** — GFLOP/s, operational intensity, bandwidth
  utilisation, energy per FLOP — computed one way for every engine;
* **a ``detail`` payload** — the producing engine's own record: the full
  :class:`SimulationStats` dict, from which :meth:`to_stats` rebuilds the
  native object bit for bit, or a baseline run's scalar outcome
  (:meth:`repro.baselines.base.BaselineEngine.run`).

Reports serialise to JSON (:meth:`to_dict` / :meth:`from_dict`,
:meth:`to_json` / :meth:`from_json`) with an explicit
:data:`SCHEMA_VERSION`; the experiment runner folds that version into its
cache fingerprints, so entries written under an older schema are never
deserialised into the new shape — their keys simply no longer match.
Comparison helpers live in :mod:`repro.metrics.compare`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily inside the converters to keep
    # repro.metrics importable without pulling the whole simulator stack
    from repro.core.config import SpArchConfig
    from repro.core.stats import SimulationStats

#: Version of the serialised report layout.  Bump on any incompatible
#: change; the experiment runner keys its cache on this number, so old
#: entries invalidate instead of deserialising into the wrong shape.
#: v3: integer op counters (cycles, multiplications, additions, output_nnz,
#: ...) serialise and summarise as ints — earlier layouts floated them in
#: ``summary()``, losing precision past 2**53 on large sweep aggregates.
SCHEMA_VERSION = 3

#: The counter fields that must stay exact integers through every
#: serialisation path (floats lose precision past 2**53, which aggregated
#: corpus sweeps do reach).
_INT_COUNTER_FIELDS = ("cycles", "multiplications", "additions",
                       "bookkeeping_ops", "comparator_ops", "output_nnz")

#: The two point kinds plus the sum of several points.
KINDS = ("simulation", "baseline", "aggregate")


@dataclass
class CostReport:
    """Canonical cost record of one executed SpGEMM point (or a sum of them).

    Attributes:
        engine: registry name of the producing engine ("sparch", "mkl", ...).
        kind: ``"simulation"`` (cycle-accurate SpArch), ``"baseline"``
            (platform performance model) or ``"aggregate"`` (sum of stages).
        backend: execution backend that produced the numbers
            (``"scalar"`` / ``"vectorized"``); informational only — the
            backends are proven to produce identical counters.
        cycles: simulated core cycles (simulation kind; baselines model
            runtime, not cycles, and report 0).
        runtime_seconds: modelled kernel runtime.
        multiplications: scalar multiplications performed.
        additions: scalar additions performed.
        bookkeeping_ops: insert/hash/sort/merge-bookkeeping operations.
        comparator_ops: comparator evaluations (SpArch merge tree).
        output_nnz: stored nonzeros of the functional result.
        traffic: DRAM bytes by category; baselines use one ``"total"`` key.
        energy: per-module dynamic energy in joules (Figure 13b modules for
            SpArch, uniform per-event categories for baselines).
        energy_joules: headline dynamic energy.  For simulation reports this
            equals ``sum(energy.values())``; for baselines it is the
            platform model's runtime × power (the Figure 12 methodology),
            with ``energy`` holding the per-event view alongside.
        clock_hz: simulated clock (simulation kind).
        peak_bandwidth_bytes_per_cycle: peak DRAM bandwidth (simulation
            kind), for the bandwidth-utilisation metric.
        extras: algorithm-specific scalar counters.
        detail: the producing engine's own serialised record, kept
            verbatim (simulation reports rebuild their native stats
            from it exactly).
        schema_version: layout version this report was produced under.
    """

    engine: str = ""
    kind: str = "simulation"
    backend: str = ""
    cycles: int = 0
    runtime_seconds: float = 0.0
    multiplications: int = 0
    additions: int = 0
    bookkeeping_ops: int = 0
    comparator_ops: int = 0
    output_nnz: int = 0
    traffic: dict[str, int] = field(default_factory=dict)
    energy: dict[str, float] = field(default_factory=dict)
    energy_joules: float = 0.0
    clock_hz: float = 0.0
    peak_bandwidth_bytes_per_cycle: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    # ------------------------------------------------------------------
    # Derived metrics (identical formulas for every engine)
    # ------------------------------------------------------------------
    @property
    def flops(self) -> int:
        """Useful floating point operations (multiplications + additions)."""
        return self.multiplications + self.additions

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s of the modelled execution."""
        if self.runtime_seconds <= 0:
            return 0.0
        return self.flops / self.runtime_seconds / 1e9

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic in bytes (all categories)."""
        return sum(self.traffic.values())

    @property
    def operational_intensity(self) -> float:
        """FLOPs per DRAM byte actually moved."""
        if self.dram_bytes == 0:
            return 0.0
        return self.flops / self.dram_bytes

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of peak DRAM bandwidth used over the whole execution
        (simulation reports only — requires cycles and a peak figure)."""
        if self.cycles <= 0:
            return 0.0
        peak = self.peak_bandwidth_bytes_per_cycle * self.cycles
        return min(1.0, self.dram_bytes / peak) if peak else 0.0

    @property
    def energy_per_flop(self) -> float:
        """Headline energy per useful FLOP, in joules."""
        if self.flops == 0:
            return 0.0
        return self.energy_joules / self.flops

    def energy_fractions(self) -> dict[str, float]:
        """Each module's share of the per-module energy sum."""
        total = sum(self.energy.values())
        if total <= 0:
            return {name: 0.0 for name in self.energy}
        return {name: value / total for name, value in self.energy.items()}

    # ------------------------------------------------------------------
    # Serialisation (lossless JSON round trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise every field to a JSON-compatible dict.

        Integer op counters are emitted as Python ints (never floats, never
        numpy scalars): JSON round-trips arbitrary-precision ints exactly,
        while a float representation silently loses precision past 2**53.
        """
        payload = dataclasses.asdict(self)
        for name in _INT_COUNTER_FIELDS:
            payload[name] = int(payload[name])
        payload["traffic"] = {str(k): int(v)
                              for k, v in payload["traffic"].items()}
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CostReport":
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: when the payload was written under a different
                schema version — callers must recompute, never coerce.
        """
        data = dict(payload)
        version = data.get("schema_version", 0)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"cost report schema mismatch: payload version {version}, "
                f"supported version {SCHEMA_VERSION}"
            )
        for name in _INT_COUNTER_FIELDS:
            data[name] = int(data.get(name, 0))
        data["traffic"] = {str(k): int(v)
                           for k, v in data.get("traffic", {}).items()}
        data["energy"] = {str(k): float(v)
                          for k, v in data.get("energy", {}).items()}
        return cls(**data)

    def to_json(self) -> str:
        """Serialise to a JSON string (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CostReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> dict[str, float | int]:
        """Flat dict of the headline numbers, for tables and ``--json``.

        Op counters stay exact ints (an earlier revision floated them,
        losing precision past 2**53 — which aggregated corpus sweeps reach);
        genuinely continuous metrics stay floats.
        """
        return {
            "cycles": int(self.cycles),
            "runtime_seconds": self.runtime_seconds,
            "gflops": self.gflops,
            "dram_bytes": int(self.dram_bytes),
            "energy_joules": self.energy_joules,
            "energy_per_flop": self.energy_per_flop,
            "operational_intensity": self.operational_intensity,
            "bandwidth_utilization": self.bandwidth_utilization,
            "multiplications": int(self.multiplications),
            "additions": int(self.additions),
            "output_nnz": int(self.output_nnz),
        }

    # ------------------------------------------------------------------
    # Converters from/to the simulator's native schema
    # ------------------------------------------------------------------
    @classmethod
    def from_stats(cls, stats: "SimulationStats", *,
                   config: "SpArchConfig | None" = None,
                   engine: str = "sparch",
                   energy_model=None) -> "CostReport":
        """Build a simulation report from :class:`SimulationStats`.

        Args:
            stats: the simulator's native statistics.
            config: architectural configuration the point ran under —
                needed for the per-module energy split (element widths,
                merge tree depth); Table I by default.
            engine: registry name recorded on the report.
            energy_model: per-event :class:`~repro.analysis.energy.EnergyModel`
                (paper constants by default).
        """
        from repro.analysis.energy import EnergyModel
        from repro.core.config import SpArchConfig

        config = config or SpArchConfig()
        energy_model = energy_model or EnergyModel()
        breakdown = energy_model.breakdown(stats, config)
        return cls(
            engine=engine,
            kind="simulation",
            backend=config.engine,
            cycles=stats.cycles,
            runtime_seconds=stats.runtime_seconds,
            multiplications=stats.multiplications,
            additions=stats.additions,
            bookkeeping_ops=stats.comparator_ops,
            comparator_ops=stats.comparator_ops,
            output_nnz=stats.output_nnz,
            traffic={str(k): int(v)
                     for k, v in stats.traffic.by_category().items()},
            energy=breakdown.by_module(),
            energy_joules=breakdown.total,
            clock_hz=stats.clock_hz,
            peak_bandwidth_bytes_per_cycle=stats.peak_bandwidth_bytes_per_cycle,
            extras={},
            detail=stats.to_dict(),
        )

    def to_stats(self) -> "SimulationStats":
        """Reconstruct the native :class:`SimulationStats` exactly.

        Only valid for ``kind == "simulation"`` reports; the lossless
        ``detail`` payload carries every native field verbatim.
        """
        from repro.core.stats import SimulationStats

        if self.kind != "simulation":
            raise ValueError(
                f"cannot rebuild SimulationStats from a {self.kind!r} report"
            )
        return SimulationStats.from_dict(self.detail)

    # ------------------------------------------------------------------
    @classmethod
    def aggregate(cls, reports: "list[CostReport]", *,
                  engine: str = "", extras: dict[str, float] | None = None
                  ) -> "CostReport":
        """Sum several reports into one ``kind="aggregate"`` report.

        Counters, traffic categories and per-module energy add up;
        ``clock_hz`` / peak bandwidth carry over when all parts agree
        (and reset to 0 when they do not, making the derived
        bandwidth-utilisation metric undefined rather than wrong).
        """
        traffic: dict[str, int] = {}
        energy: dict[str, float] = {}
        for report in reports:
            for category, num_bytes in report.traffic.items():
                traffic[category] = traffic.get(category, 0) + int(num_bytes)
            for module, joules in report.energy.items():
                energy[module] = energy.get(module, 0.0) + joules
        clocks = {r.clock_hz for r in reports if r.clock_hz}
        peaks = {r.peak_bandwidth_bytes_per_cycle for r in reports
                 if r.peak_bandwidth_bytes_per_cycle}
        return cls(
            engine=engine or (reports[0].engine if reports else ""),
            kind="aggregate",
            backend=(reports[0].backend if reports else ""),
            cycles=sum(r.cycles for r in reports),
            runtime_seconds=sum(r.runtime_seconds for r in reports),
            multiplications=sum(r.multiplications for r in reports),
            additions=sum(r.additions for r in reports),
            bookkeeping_ops=sum(r.bookkeeping_ops for r in reports),
            comparator_ops=sum(r.comparator_ops for r in reports),
            output_nnz=sum(r.output_nnz for r in reports),
            traffic=traffic,
            energy=energy,
            energy_joules=sum(r.energy_joules for r in reports),
            clock_hz=clocks.pop() if len(clocks) == 1 else 0.0,
            peak_bandwidth_bytes_per_cycle=(peaks.pop() if len(peaks) == 1
                                            else 0.0),
            extras=dict(extras or {}),
            detail={"aggregated": len(reports)},
        )
