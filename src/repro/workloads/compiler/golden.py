"""Canonical workload-result payloads for golden/parity testing.

``result_payload`` projects a :class:`~repro.workloads.pipeline.
WorkloadResult` onto a deterministic JSON-compatible dict: every stage
record's name/kind/wiring and modelled costs, the workload annotations,
the summary, and a content digest of the output matrix.  Host wall-time
(``host_seconds``) is *excluded* — it is nondeterministic measurement, not
modelled cost, so two runs of one workload have equal payloads.

``payload_bytes`` serialises the payload with sorted keys and no
whitespace variance, so equal runs give equal bytes; the workloads CLI
writes the same payload under ``--json`` (with ``host_seconds`` added back
as a separate, explicitly non-canonical field).
"""

from __future__ import annotations

import hashlib
import json

from repro.workloads.pipeline import StageResult, WorkloadResult

__all__ = ["payload_bytes", "result_payload", "stage_payload"]


def _digest(result: WorkloadResult) -> str | None:
    if result.output is None:
        return None
    matrix = result.output
    parts = hashlib.sha256()
    parts.update(repr(matrix.shape).encode())
    parts.update(matrix.indptr.tobytes())
    parts.update(matrix.indices.tobytes())
    parts.update(matrix.data.tobytes())
    return parts.hexdigest()


def stage_payload(stage: StageResult) -> dict:
    """One stage record as a JSON-compatible dict (costs, no wall-time)."""
    return {
        "name": stage.name,
        "kind": stage.kind,
        "inputs": list(stage.inputs),
        "output_shape": list(stage.output_shape),
        "output_nnz": stage.output_nnz,
        "cycles": stage.cycles,
        "runtime_seconds": stage.runtime_seconds,
        "dram_bytes": stage.dram_bytes,
        "energy_joules": stage.energy_joules,
        "multiplications": stage.multiplications,
        "additions": stage.additions,
    }


def result_payload(result: WorkloadResult, *,
                   host_seconds: bool = False) -> dict:
    """The canonical payload of one workload result.

    Args:
        result: the executed workload.
        host_seconds: include measured host wall-time (total and
            per-stage).  Off by default — wall-time is nondeterministic,
            so the parity goldens must not see it.
    """
    payload = {
        "workload_id": result.workload_id,
        "backend": result.backend,
        "stages": [stage_payload(stage) for stage in result.stages],
        "annotations": dict(result.annotations),
        "summary": result.summary(),
        "output_sha256": _digest(result),
    }
    if host_seconds:
        payload["host_seconds"] = result.total_host_seconds
        for entry, stage in zip(payload["stages"], result.stages):
            entry["host_seconds"] = stage.host_seconds
    return payload


def payload_bytes(result: WorkloadResult) -> bytes:
    """Deterministic serialisation of the canonical payload."""
    return json.dumps(result_payload(result), sort_keys=True,
                      separators=(",", ":")).encode()
