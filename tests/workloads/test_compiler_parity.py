"""Golden payloads: compiled specs against the frozen hand-written programs.

The five original workloads were first written as hand-written Python
build programs.  Before those programs were deleted, every case in
:data:`CASES` ran through them (``run_workload(..., via="build")`` at
commit 44efad9), and each run's canonical ``result_payload`` and output
matrix were frozen into ``golden_payloads.json``.  The compiled specs must
reproduce every case:

* strings, integers, shapes, ``indptr`` and ``indices`` exactly;
* floats (stage costs, annotations, summary, output ``data``) within a
  relative 1e-9, the tolerance ``tests/experiments/test_golden_values.py``
  allows for floating-point differences between hosts.

``output_sha256`` is implied by the frozen arrays and is not compared.
``host_seconds`` is wall-clock and never part of the canonical payload.

Regenerate the fixture only after an intentional cost-model change:

    PYTHONPATH=src python tests/workloads/test_compiler_parity.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner
from repro.matrices import powerlaw_matrix, random_matrix
from repro.workloads import list_workloads, run_workload
from repro.workloads.compiler import result_payload
from repro.workloads.registry import get_workload

GOLDEN_PATH = Path(__file__).parent / "golden_payloads.json"

#: Relative tolerance on every float, as in ``test_golden_values.py``.
RELATIVE_TOLERANCE = 1e-9


def _random(seed: int):
    return random_matrix(24, 24, 110, seed=seed)


def _powerlaw(seed: int):
    return powerlaw_matrix(30, 3.0, seed=seed)


#: case id -> (workload id, params, input matrix, engine).  The five
#: legacy workloads with non-default params, ``triangles`` and ``khop``
#: without normalisation, and ``mcl`` on the cuSPARSE-class
#: ``HashSpGEMM``.  SpArch cases memoise through a runner; the baseline
#: case runs directly, so its output is the engine's own product.
CASES = {
    "triangles": ("triangles", {}, lambda: _random(7), "sparch"),
    "mcl": ("mcl", {"max_iterations": 4, "inflation": 1.8},
            lambda: _random(7), "sparch"),
    "khop": ("khop", {"k": 4}, lambda: _random(7), "sparch"),
    "galerkin": ("galerkin", {"group_size": 3}, lambda: _random(7),
                 "sparch"),
    "cosine": ("cosine", {"threshold": 0.35}, lambda: _random(7), "sparch"),
    "triangles[normalize=False]": ("triangles", {"normalize": False},
                                   lambda: _powerlaw(3), "sparch"),
    "khop[normalize=False]": ("khop", {"normalize": False},
                              lambda: _powerlaw(3), "sparch"),
    "mcl[cusparse]": ("mcl", {"max_iterations": 3}, lambda: _random(11),
                      "cusparse"),
}


def _run(case_id: str):
    workload_id, params, matrix, engine = CASES[case_id]
    runner = ExperimentRunner() if engine == "sparch" else None
    return run_workload(workload_id, matrix(), engine=engine, runner=runner,
                        **params)


def _frozen(result) -> dict:
    """One case as stored in the fixture (JSON types throughout)."""
    output = result.output
    return json.loads(json.dumps({
        "payload": result_payload(result),
        "output": {"shape": list(output.shape),
                   "indptr": output.indptr.tolist(),
                   "indices": output.indices.tolist(),
                   "data": output.data.tolist()},
    }))


def _assert_matches(actual, expected, path: str) -> None:
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), path
        for key, value in expected.items():
            _assert_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for index, (got, want) in enumerate(zip(actual, expected)):
            _assert_matches(got, want, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        # No absolute floor: joules and seconds are far below approx's
        # default of 1e-12.
        assert actual == pytest.approx(expected, rel=RELATIVE_TOLERANCE,
                                       abs=0.0), \
            f"golden drift at {path}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"golden drift at {path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_compiled_run_matches_the_frozen_build_program(case_id, golden):
    actual, expected = _frozen(_run(case_id)), golden[case_id]
    for frozen in (actual, expected):
        frozen["payload"].pop("output_sha256")
    _assert_matches(actual["payload"], expected["payload"], "payload")
    output, want = actual["output"], expected["output"]
    assert output["shape"] == want["shape"]
    np.testing.assert_array_equal(output["indptr"], want["indptr"])
    np.testing.assert_array_equal(output["indices"], want["indices"])
    np.testing.assert_allclose(output["data"], want["data"],
                               rtol=RELATIVE_TOLERANCE, atol=0.0)


@pytest.mark.parametrize("workload_id", ["triangles", "khop"])
def test_normalisation_off_skips_the_simple_graph_stage(workload_id, golden):
    stages = golden[f"{workload_id}[normalize=False]"]["payload"]["stages"]
    assert "adjacency" not in [stage["name"] for stage in stages]


def test_canonical_payload_excludes_host_wall_time_by_default():
    result = run_workload("triangles", _random(5), runner=ExperimentRunner())
    lean = result_payload(result)
    timed = result_payload(result, host_seconds=True)
    assert all("host_seconds" not in stage for stage in lean["stages"])
    host = [stage["host_seconds"] for stage in timed["stages"]
            if stage["kind"] != "spgemm"]
    assert host and all(value > 0.0 for value in host)


def test_every_registered_workload_has_a_compiled_spec():
    for workload_id in list_workloads():
        assert get_workload(workload_id).compiled is not None


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {case_id: _frozen(_run(case_id)) for case_id in CASES},
        indent=1, sort_keys=True) + "\n")
