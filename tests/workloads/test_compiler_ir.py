"""The compiler IR: payload encodings, parameter validation, diagnostics.

The IR is a lossless value type: ``GraphSpec.to_dict`` and ``from_dict``
are exact inverses (the hypothesis property lives in
``test_compiler_roundtrip.py``), scalars (literals, ``{"param": ...}``
references with offsets, ``{"counter": ...}`` references) survive the
JSON encoding, and every malformed payload or out-of-range parameter is
rejected with a message that names the offending piece.
"""

from __future__ import annotations

import pytest

from repro.workloads.compiler import SpecError, compile_graph
from repro.workloads.compiler.ir import (
    CounterRef,
    GraphSpec,
    ParamIR,
    ParamRef,
    scalar_from_payload,
    scalar_to_payload,
)


@pytest.mark.parametrize("scalar", [
    ParamRef("k"), ParamRef("expansion", -1), CounterRef("j"),
    3, 2.5, True, False, 1e-6,
])
def test_scalar_payloads_round_trip(scalar):
    assert scalar_from_payload(scalar_to_payload(scalar)) == scalar


def test_unknown_node_kind_is_rejected():
    with pytest.raises(SpecError, match=r"unknown node kind.*bogus.*"
                                        r"stage/fused/chain/loop/repeat"):
        GraphSpec.from_dict({"workload": "w", "inputs": [{"name": "A"}],
                             "nodes": [{"bogus": 1}], "output": "A"})


def test_non_mapping_stage_params_are_rejected():
    with pytest.raises(SpecError, match=r"stage params must be a mapping"):
        GraphSpec.from_dict({"workload": "w", "inputs": [{"name": "A"}],
                             "nodes": [{"stage": "s", "op": "binarize",
                                        "inputs": ["A"], "params": [1]}],
                             "output": "s"})


def test_missing_workload_name_is_rejected():
    with pytest.raises(SpecError, match=r"missing workload"):
        GraphSpec.from_dict({"inputs": [{"name": "A"}], "nodes": [],
                             "output": "A"})


@pytest.mark.parametrize("param, value, message", [
    (ParamIR("k", 3, 2, None), 1, r"k must be at least 2, got 1"),
    (ParamIR("inflation", 2.0, None, 1), 1.0,
     r"inflation must exceed 1, got 1.0"),
    (ParamIR("k", 3, 2, None), 2.5, r"k must be an integer, got 2.5"),
    (ParamIR("k", 3, 2, None), "3", r"k must be an integer, got '3'"),
    (ParamIR("k", 3, 2, None), True, r"k must be an integer, got True"),
    (ParamIR("k", 3, 2, None), 3.0, r"k must be an integer, got 3.0"),
    (ParamIR("max_iterations", 30), 2.5,
     r"max_iterations must be an integer, got 2.5"),
    (ParamIR("inflation", 2.0, None, 1), "2",
     r"inflation must be a number, got '2'"),
    (ParamIR("tolerance", 1e-6), None,
     r"tolerance must be a number, got None"),
])
def test_param_bounds_name_the_parameter(param, value, message):
    with pytest.raises(ValueError, match=message):
        param.validate(value)


@pytest.mark.parametrize("param, value", [
    (ParamIR("k", 3, 2, None), 4),
    (ParamIR("inflation", 2.0, None, 1), 3),
    (ParamIR("normalize", True), False),
    (ParamIR("name", "x"), "y"),
])
def test_well_typed_values_pass(param, value):
    param.validate(value)


def test_a_fractional_hop_count_is_rejected_before_any_stage_runs():
    from repro.matrices import random_matrix
    from repro.workloads import run_workload

    with pytest.raises(ValueError, match=r"k must be an integer, got 2.5"):
        run_workload("khop", random_matrix(16, 16, 40, seed=1), k=2.5)


def test_unexpected_parameter_names_the_workload():
    graph = compile_graph({
        "workload": "w", "inputs": [{"name": "A"}],
        "nodes": [{"stage": "s", "op": "binarize", "inputs": ["A"]}],
        "output": "s"})
    with pytest.raises(TypeError, match=r"workload 'w' got an unexpected "
                                        r"parameter 'zorp'"):
        graph.resolve_params({"zorp": 1})


def test_param_key_order_is_canonical():
    # Params are keyword arguments: declaring {index, count} and
    # {count, index} must produce the same IR (and the same JSON).
    def build(params):
        return GraphSpec.from_dict({
            "workload": "w", "inputs": [{"name": "A", "square": True}],
            "nodes": [{"stage": "s", "op": "extract_block", "inputs": ["A"],
                       "params": params}],
            "output": "s"})

    one = build({"index": 0, "count": 4})
    two = build({"count": 4, "index": 0})
    assert one == two
    assert one.to_dict() == two.to_dict()


def test_compiled_workload_schedule_is_declaration_order():
    graph = compile_graph({
        "workload": "w", "inputs": [{"name": "A", "square": True}],
        "nodes": [
            {"stage": "b", "op": "binarize", "inputs": ["A"]},
            {"stage": "t", "op": "transpose", "inputs": ["b"]},
            {"stage": "m", "op": "mask", "inputs": ["t", "b"]},
        ],
        "output": "m"})
    assert graph.order == (0, 1, 2)


def test_out_of_declaration_order_graphs_are_scheduled_topologically():
    graph = compile_graph({
        "workload": "w", "inputs": [{"name": "A", "square": True}],
        "nodes": [
            {"stage": "m", "op": "mask", "inputs": ["t", "b"]},
            {"stage": "b", "op": "binarize", "inputs": ["A"]},
            {"stage": "t", "op": "transpose", "inputs": ["b"]},
        ],
        "output": "m"})
    assert graph.order == (1, 2, 0)
