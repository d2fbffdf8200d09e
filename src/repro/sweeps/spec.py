"""Frozen sweep declarations: corpus × engines × SpArch configurations.

A :class:`SweepSpec` names a grid the way the paper's evaluation figures
do — a scenario corpus (:mod:`repro.corpus`), a set of engines by registry
name, and a set of labelled SpArch configurations for the simulation
engine — and :func:`enumerate_cells` flattens it into a *canonical cell
order*.  Everything downstream (shard assignment, resume bookkeeping, the
merged result store's on-disk order) is defined in terms of that order, so
every shard, resumed run and merge derives the identical grid from the
frozen spec alone.

Baseline engines are platform models with no architectural configuration,
so they contribute one cell per scenario (config label ``"-"``); the
simulation engine contributes one cell per ``(scenario, config)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SpArchConfig
from repro.corpus.registry import get_corpus
from repro.corpus.spec import CorpusSpec, Scenario
from repro.engines.registry import get_engine_entry

#: Config label recorded on cells of engines that take no SpArch config.
NO_CONFIG_LABEL = "-"


def cell_key(scenario: str, engine: str, config_label: str) -> str:
    """The human-readable cell/report key, ``scenario|engine|config``.

    The one definition of the format — used by :attr:`SweepCell.cell_id`,
    the result store's report keying and the summary grouping alike.
    """
    return f"{scenario}|{engine}|{config_label}"


@dataclass(frozen=True)
class SweepSpec:
    """One registered sweep: a corpus crossed with engines and configs.

    Attributes:
        sweep_id: registry id ("fig17-dse", "smoke", ...).
        title: human-readable description.
        corpus: corpus registry id naming the scenario family.
        engines: engine registry names, in presentation order.
        configs: labelled SpArch configurations applied to every
            ``kind == "simulation"`` engine (baselines ignore them).
    """

    sweep_id: str
    title: str
    corpus: str
    engines: tuple[str, ...]
    configs: tuple[tuple[str, SpArchConfig], ...] = (
        ("table1", SpArchConfig()),)

    def __post_init__(self) -> None:
        if not self.engines:
            raise ValueError(f"sweep {self.sweep_id!r} declares no engines")
        if len(set(self.engines)) != len(self.engines):
            raise ValueError(f"sweep {self.sweep_id!r} repeats an engine")
        if not self.configs:
            raise ValueError(f"sweep {self.sweep_id!r} declares no configs")
        labels = [label for label, _ in self.configs]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"sweep {self.sweep_id!r} has duplicate config labels"
            )
        if NO_CONFIG_LABEL in labels:
            raise ValueError(
                f"config label {NO_CONFIG_LABEL!r} is reserved for "
                f"engines without a configuration"
            )
        for name in self.engines:
            get_engine_entry(name)  # raises KeyError for unknown engines

    # ------------------------------------------------------------------
    def corpus_spec(self, *, max_rows: int | None = None) -> CorpusSpec:
        """Resolve the corpus (optionally capped at ``max_rows``)."""
        return get_corpus(self.corpus).scaled(max_rows)

    def config_for(self, label: str) -> SpArchConfig | None:
        """The config registered under ``label`` (``None`` for ``"-"``)."""
        if label == NO_CONFIG_LABEL:
            return None
        for config_label, config in self.configs:
            if config_label == label:
                return config
        raise KeyError(
            f"unknown config label {label!r} in sweep {self.sweep_id!r}"
        )


@dataclass(frozen=True)
class SweepCell:
    """One ``(scenario, engine, config)`` point of a sweep grid.

    Attributes:
        index: position in the sweep's canonical cell order — the basis of
            deterministic shard assignment and of the merged store's order.
        scenario: the corpus scenario providing the (squared) operand.
        engine: engine registry name.
        config_label: label of the SpArch config (``"-"`` for baselines).
        config: the configuration itself (``None`` for baselines).
    """

    index: int
    scenario: Scenario
    engine: str
    config_label: str
    config: SpArchConfig | None

    @property
    def cell_id(self) -> str:
        """Human-readable cell identity, ``scenario|engine|config``."""
        return cell_key(self.scenario.name, self.engine, self.config_label)


def enumerate_cells(spec: SweepSpec, *, max_rows: int | None = None
                    ) -> list[SweepCell]:
    """Flatten a sweep into its canonical cell order.

    Scenario-major, then engine in spec order, then config in spec order —
    deterministic for a given spec, so ``--shard i/n`` partitions the same
    grid identically in every process.
    """
    cells: list[SweepCell] = []
    for scenario in spec.corpus_spec(max_rows=max_rows).scenarios:
        for engine in spec.engines:
            if get_engine_entry(engine).factory.kind == "simulation":
                for label, config in spec.configs:
                    cells.append(SweepCell(len(cells), scenario, engine,
                                           label, config))
            else:
                cells.append(SweepCell(len(cells), scenario, engine,
                                       NO_CONFIG_LABEL, None))
    return cells


def shard_cells(cells: list[SweepCell], shard_index: int, shard_count: int
                ) -> list[SweepCell]:
    """The deterministic slice of ``cells`` owned by one shard.

    Round-robin over the canonical order (cell *i* belongs to shard
    ``i % shard_count``): shards own disjoint cell sets whose union is the
    whole grid, and adjacent (similar-cost) cells spread across shards.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be positive, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    return [cell for cell in cells if cell.index % shard_count == shard_index]
