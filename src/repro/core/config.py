"""Architectural configuration of SpArch (Table I) plus ablation switches.

The defaults reproduce the configuration evaluated in the paper:

* 16×16 hierarchical merger (4×4 top level + 4×4 low level) at 1 GHz;
* a 6-layer merge tree merging up to 64 arrays simultaneously;
* 2 groups of 8 double-precision multipliers;
* a look-ahead buffer of 8192 elements in the MatA column fetcher;
* a prefetch buffer of 1024 lines × 48 elements × 12 bytes;
* 16 HBM channels of 8 GB/s each (128 GB/s aggregate).

The ``enable_*`` flags turn the paper's four techniques on and off for the
breakdown experiment of Figure 16.

The ``engine`` field selects one of the two functionally identical
simulation backends, :data:`BACKENDS` (see :mod:`repro.core.vectorized` and
``tests/integration/test_engine_equivalence.py``):

* ``"scalar"`` — the reference implementation that walks partial products
  element by element and merges streams pairwise, mirroring the hardware
  structure one step at a time;
* ``"vectorized"`` — the batched numpy kernels (every merge round streamed
  in row bands: one fancy-indexed partial-product gather, one packed-word
  sort and one ``np.add.reduceat`` duplicate fold per band) with all
  cycle/traffic/comparator counters computed in closed form so the
  statistics stay bit-identical to the scalar model.  Its working set is
  bounded per band, which is what runs paper-scale (10⁵+-row) scenarios
  with unscaled Table I buffers.

The engine name is excluded from cache keys and config fingerprints via
:data:`BACKEND_FIELDS`.  The batched merge tree's band size is not a
field at all: it is the module constant
:data:`repro.core.vectorized.BLOCK_ELEMENTS`, a simulation-host setting
that never changes results, counters or traffic (a hypothesis property
test pins this).

:data:`PRICING_FIELDS` names the fields that only price a multiply and
never change what it computes; configs that differ only there share one
dataflow (:meth:`SpArchConfig.dataflow_key`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.memory.hbm import HBMConfig
from repro.utils.validation import (
    check_nonnegative_int,
    check_positive_finite,
    check_positive_int,
)

#: The execution backends of every engine, SpArch and baselines alike: the
#: scalar reference and the batched engine.
BACKENDS = ("scalar", "vectorized")


def check_backend(name: str) -> str:
    """Return ``name`` if it is one of :data:`BACKENDS`, else raise."""
    if name not in BACKENDS:
        raise ValueError(
            f"engine must be one of {', '.join(map(repr, BACKENDS))}, "
            f"got {name!r}"
        )
    return name


#: Config fields that select the simulation *backend* without affecting any
#: simulated quantity.  Cache keys and config fingerprints
#: (``repro.experiments.runner``, ``repro.engines.sparch``) exclude them so
#: switching backends reuses existing cached results.
BACKEND_FIELDS = ("engine",)

#: Config fields that only *price* a dataflow: the merger geometry, the
#: multiplier count, the row prefetcher's buffer and look-ahead, the clock,
#: the round startup and the memory system.  None of them changes the
#: condensing, the merge schedule, the products, the merge rounds or the
#: result, so configs that differ only here share one dataflow
#: (:meth:`SpArchConfig.dataflow_key`,
#: :meth:`repro.core.accelerator.SpArch.price`).  A field missing from this
#: list is part of the sharing key, so a new field shares nothing until it
#: is listed.
PRICING_FIELDS = (
    "merger_width",
    "merger_chunk_size",
    "num_multipliers",
    "lookahead_fifo_elements",
    "prefetch_buffer_lines",
    "prefetch_line_elements",
    "prefetch_element_bytes",
    "enable_row_prefetcher",
    "clock_hz",
    "round_startup_cycles",
    "hbm",
)


@dataclass(frozen=True)
class SpArchConfig:
    """Full architectural configuration of the simulated accelerator.

    Attributes:
        merger_width: elements merged per cycle by each array merger.
        merger_chunk_size: low-level comparator array width.
        merge_tree_layers: depth of the merge tree (ways = 2**layers).
        num_multipliers: double precision multipliers.
        lookahead_fifo_elements: MatA column fetcher look-ahead window.
        prefetch_buffer_lines: number of lines in the MatB row prefetcher.
        prefetch_line_elements: elements per prefetch buffer line.
        prefetch_element_bytes: bytes per buffered element.
        partial_matrix_writer_fifo: output FIFO depth before DRAM writes.
        index_bytes: bytes per COO index pair in DRAM (32-bit row + 32-bit
            column as in Table I).
        value_bytes: bytes per double precision value.
        clock_hz: core clock frequency.
        round_startup_cycles: fixed overhead charged per merge round (filling
            the look-ahead FIFO and the merge-tree pipelines); this is the
            startup overhead §III-C credits matrix condensing with amortising.
        hbm: HBM memory configuration.
        engine: simulation backend, one of :data:`BACKENDS` —
            ``"vectorized"`` (default) or ``"scalar"``; both produce
            identical results and statistics.
        enable_pipelined_merge: pipeline multiply and merge on chip (the
            first of the paper's four techniques).  When disabled the model
            degenerates to the two-phase OuterSPACE-style dataflow.
        enable_matrix_condensing: condense the left matrix (§II-B).
        enable_huffman_scheduler: schedule merges with a Huffman tree (§II-C).
        enable_row_prefetcher: cache right-matrix rows with the near-optimal
            replacement policy (§II-D).
    """

    merger_width: int = 16
    merger_chunk_size: int = 4
    merge_tree_layers: int = 6
    num_multipliers: int = 16
    lookahead_fifo_elements: int = 8192
    prefetch_buffer_lines: int = 1024
    prefetch_line_elements: int = 48
    prefetch_element_bytes: int = 12
    partial_matrix_writer_fifo: int = 1024
    index_bytes: int = 8
    value_bytes: int = 8
    clock_hz: float = 1e9
    round_startup_cycles: int = 256
    hbm: HBMConfig = dataclasses.field(default_factory=HBMConfig)
    engine: str = "vectorized"
    enable_pipelined_merge: bool = True
    enable_matrix_condensing: bool = True
    enable_huffman_scheduler: bool = True
    enable_row_prefetcher: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.merger_width, "merger_width")
        check_positive_int(self.merger_chunk_size, "merger_chunk_size")
        check_positive_int(self.merge_tree_layers, "merge_tree_layers")
        check_positive_int(self.num_multipliers, "num_multipliers")
        check_positive_int(self.lookahead_fifo_elements, "lookahead_fifo_elements")
        check_positive_int(self.prefetch_buffer_lines, "prefetch_buffer_lines")
        check_positive_int(self.prefetch_line_elements, "prefetch_line_elements")
        check_positive_int(self.prefetch_element_bytes, "prefetch_element_bytes")
        check_positive_int(self.partial_matrix_writer_fifo,
                           "partial_matrix_writer_fifo")
        check_positive_int(self.index_bytes, "index_bytes")
        check_positive_int(self.value_bytes, "value_bytes")
        check_nonnegative_int(self.round_startup_cycles, "round_startup_cycles")
        if self.merger_width % self.merger_chunk_size != 0:
            raise ValueError("merger_width must be a multiple of merger_chunk_size")
        check_positive_finite(self.clock_hz, "clock_hz")
        if not isinstance(self.hbm, HBMConfig):
            raise TypeError(f"hbm must be an HBMConfig, got "
                            f"{type(self.hbm).__name__}")
        check_backend(self.engine)

    # ------------------------------------------------------------------
    @property
    def merge_ways(self) -> int:
        """Number of arrays the merge tree merges at once (64 by default)."""
        return 2 ** self.merge_tree_layers

    @property
    def element_bytes(self) -> int:
        """DRAM footprint of one COO element (index + value)."""
        return self.index_bytes + self.value_bytes

    @property
    def prefetch_buffer_bytes(self) -> int:
        """Total capacity of the MatB row prefetch buffer."""
        return (self.prefetch_buffer_lines * self.prefetch_line_elements
                * self.prefetch_element_bytes)

    @property
    def peak_multiply_flops(self) -> float:
        """Peak multiply throughput in FLOP/s (16 GFLOPS in the paper)."""
        return self.num_multipliers * self.clock_hz

    @property
    def peak_flops(self) -> float:
        """Peak multiply + add throughput (32 GFLOPS in the paper)."""
        return 2 * self.peak_multiply_flops

    # ------------------------------------------------------------------
    def with_features(self, *, pipelined_merge: bool | None = None,
                      matrix_condensing: bool | None = None,
                      huffman_scheduler: bool | None = None,
                      row_prefetcher: bool | None = None) -> "SpArchConfig":
        """Return a copy with some ablation switches overridden."""
        return dataclasses.replace(
            self,
            enable_pipelined_merge=(self.enable_pipelined_merge
                                    if pipelined_merge is None else pipelined_merge),
            enable_matrix_condensing=(self.enable_matrix_condensing
                                      if matrix_condensing is None
                                      else matrix_condensing),
            enable_huffman_scheduler=(self.enable_huffman_scheduler
                                      if huffman_scheduler is None
                                      else huffman_scheduler),
            enable_row_prefetcher=(self.enable_row_prefetcher
                                   if row_prefetcher is None else row_prefetcher),
        )

    def replace(self, **overrides) -> "SpArchConfig":
        """Return a copy with arbitrary fields overridden."""
        return dataclasses.replace(self, **overrides)

    def dataflow_key(self) -> "SpArchConfig":
        """This config with every :data:`PRICING_FIELDS` entry at its default.

        Configs with equal keys run the same dataflow on one operand, so
        one run of it can be priced under each of them.
        """
        return dataclasses.replace(self, **_PRICING_DEFAULTS)


#: The Table I value of every pricing field, which sharing keys carry.
_PRICING_DEFAULTS = {name: getattr(SpArchConfig(), name)
                     for name in PRICING_FIELDS}
