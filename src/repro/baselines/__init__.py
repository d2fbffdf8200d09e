"""Baseline SpGEMM implementations and platform performance models.

The paper compares SpArch against five systems (Figure 11/12):

* **OuterSPACE** — the prior-state-of-the-art ASIC outer-product accelerator
  (:mod:`repro.baselines.outerspace`).
* **Intel MKL** on a 6-core desktop CPU — row-wise Gustavson SpGEMM
  (:mod:`repro.baselines.gustavson`).
* **cuSPARSE** on an NVIDIA TITAN Xp — hash-table based row-parallel SpGEMM
  (:mod:`repro.baselines.hash_spgemm`).
* **CUSP** on the same GPU — expand-sort-compress (ESC) SpGEMM
  (:mod:`repro.baselines.sort_spgemm`).
* **ARM Armadillo** on a quad-core A53 — naive single-threaded SpGEMM
  (:mod:`repro.baselines.armadillo`).

Related-work algorithms referenced in §IV are also provided: heap-based
SpGEMM (:mod:`repro.baselines.heap_spgemm`) and the vanilla inner-product
dataflow (:mod:`repro.baselines.inner_product`).

Every baseline implements the *actual algorithm* functionally (verified
against scipy) and attaches a platform performance/energy model; see
DESIGN.md §3 for the measured-hardware → model substitution rationale.
Each baseline is an engine of the registry
(:class:`~repro.baselines.base.BaselineEngine`) and runs on one of two
backends: the ``"scalar"`` reference loop and a ``"vectorized"`` fast path
with batched CSR kernels and closed-form counters, proven identical by
``tests/baselines/test_backend_equivalence.py``.
"""

from repro.baselines.armadillo import ArmadilloSpGEMM
from repro.baselines.base import (
    DEFAULT_ENGINE,
    BaselineCounters,
    BaselineEngine,
)
from repro.baselines.gustavson import GustavsonSpGEMM
from repro.baselines.hash_spgemm import HashSpGEMM
from repro.baselines.heap_spgemm import HeapSpGEMM
from repro.baselines.inner_product import InnerProductSpGEMM
from repro.baselines.outerspace import OuterSpaceAccelerator
from repro.baselines.platforms import (
    ARM_A53,
    INTEL_CPU,
    NVIDIA_GPU_CUSP,
    NVIDIA_GPU_CUSPARSE,
    PlatformModel,
)
from repro.baselines.reference import fast_structural_spgemm, scipy_spgemm
from repro.baselines.sort_spgemm import ESCSpGEMM

__all__ = [
    "BaselineCounters",
    "BaselineEngine",
    "DEFAULT_ENGINE",
    "OuterSpaceAccelerator",
    "GustavsonSpGEMM",
    "HashSpGEMM",
    "ESCSpGEMM",
    "HeapSpGEMM",
    "InnerProductSpGEMM",
    "ArmadilloSpGEMM",
    "PlatformModel",
    "INTEL_CPU",
    "NVIDIA_GPU_CUSPARSE",
    "NVIDIA_GPU_CUSP",
    "ARM_A53",
    "scipy_spgemm",
    "fast_structural_spgemm",
]
