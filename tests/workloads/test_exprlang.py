"""The tiny expression language: lowering rules and line-numbered errors.

Programs are line-oriented; every assignment lowers to named IR stages
(nested sub-expressions get generated ``target.N`` names), ``·``/``@``
lower to SpGEMM stages, ``⊙`` to the host mask, postfix ``'``/``ᵀ``/``.T``
to transposes, ``^ k`` to a chain of k−1 SpGEMMs, and ``when P else Q``
to a conditional stage.  Malformed programs fail at compile time with the
offending line number.
"""

from __future__ import annotations

import pytest

from repro.matrices import random_matrix
from repro.workloads import PipelineBuilder
from repro.workloads.compiler import (
    SpecError,
    compile_expression,
    compile_workload,
)
from repro.workloads.compiler.ir import AnnotateIR, ChainIR, ParamRef, StageIR


def _stages(compiled):
    return [compiled.graph.nodes[index] for index in compiled.order]


def test_binary_operators_lower_to_spgemm_and_mask_stages():
    compiled = compile_expression("""
        workload w
        input A square
        tri = (A · A) ⊙ A
        output tri
    """)
    spgemm, masked = _stages(compiled)
    assert spgemm == StageIR("tri.1", "spgemm", ("A", "A"))
    assert masked == StageIR("tri", "mask", ("tri.1", "A"))


@pytest.mark.parametrize("postfix", ["'", "ᵀ", ".T"])
def test_postfix_transpose_forms_are_equivalent(postfix):
    compiled = compile_expression(f"""
        workload w
        input A square
        t = A{postfix}
        output t
    """)
    assert _stages(compiled) == [StageIR("t", "transpose", ("A",))]


def test_power_lowers_to_a_chain_of_spgemms():
    compiled = compile_expression("""
        workload w
        input A square
        param k = 3 min 2
        power = A ^ k
        output power
    """)
    (chain,) = _stages(compiled)
    assert isinstance(chain, ChainIR)
    assert chain.template == "power[{step}]"
    assert chain.count == ParamRef("k", -1)
    assert chain.start == 2
    assert chain.bind == "power"


def test_conditional_assignment_lowers_to_when_otherwise():
    compiled = compile_expression("""
        workload w
        input A square
        param normalize = true
        adjacency = simple_graph(A) when normalize else A
        output adjacency
    """)
    (stage,) = _stages(compiled)
    assert stage.when == "normalize"
    assert stage.otherwise == "A"


def test_annotate_probe_and_param_forms():
    compiled = compile_expression("""
        workload w
        input A square
        param k = 3 min 2
        b = binarize(A)
        annotate k = param k
        annotate mass = matrix_sum(b)
        output b
    """)
    annotations = [node for node in _stages(compiled)
                   if isinstance(node, AnnotateIR)]
    assert annotations == [
        AnnotateIR("k", param="k"),
        AnnotateIR("mass", probe="matrix_sum", of="b"),
    ]


def test_compiled_expression_runs_on_the_pipeline():
    compiled = compile_workload("""
        workload smoke
        input A square
        param threshold = 0.5
        b = binarize(A)
        wedges = b · b
        strong = prune(wedges, threshold=threshold)
        annotate kept = nnz(strong)
        output strong
    """)
    matrix = random_matrix(16, 16, 48, seed=3)
    pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
    output = compiled.run(pipeline, params=compiled.resolve_params())
    result = pipeline.result("smoke", output)
    assert [s.name for s in result.stages] == ["b", "wedges", "strong"]
    assert result.annotations["kept"] == result.output.nnz


@pytest.mark.parametrize("source, message", [
    ("input A\noutput A",
     r"never names its workload"),
    ("workload w\ninput A square\nx = A \\$ A\noutput x",
     r"line 3: cannot tokenize '\$ A'"),
    ("workload w\ninput A square\nx = A\noutput x",
     r"line 3: 'x' would merely alias 'A'"),
    ("workload w\ninput A square\nfrobnicate A\noutput A",
     r"line 3: expected '=', got 'A'"),
    ("workload w\ninput A square\nx = binarize(A) junk\noutput x",
     r"line 3: unexpected trailing 'junk'"),
])
def test_malformed_programs_fail_with_the_line_number(source, message):
    with pytest.raises(SpecError, match=message):
        compile_expression(source.replace("\\$", "$"))
