"""Sparse matrix containers used throughout the SpArch reproduction.

The simulator works with four storage formats:

* :class:`~repro.formats.coo.COOMatrix` — coordinate triples, the format in
  which partial product matrices flow through the merge tree.
* :class:`~repro.formats.csr.CSRMatrix` — compressed sparse rows, the storage
  format of both input operands in DRAM (Table I / §II-B of the paper).
* :class:`~repro.formats.csc.CSCMatrix` — compressed sparse columns, used by
  the un-condensed outer-product baselines (OuterSPACE keeps the left operand
  in CSC).
* :class:`~repro.formats.condensed.CondensedMatrix` — the paper's condensed
  view of a CSR matrix, where condensed column *i* holds the *i*-th nonzero of
  every row (§II-B, Figure 7).

Matrix Market files load through scipy:
``from_scipy(scipy.io.mmread(path))`` gives the CSR operand.
"""

from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.condensed import CondensedMatrix, condense
from repro.formats.convert import (
    coo_to_csr,
    csr_to_coo,
    csr_to_csc,
    csc_to_csr,
    from_scipy,
    to_scipy,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "CondensedMatrix",
    "condense",
    "coo_to_csr",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "from_scipy",
    "to_scipy",
]
