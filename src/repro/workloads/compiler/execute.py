"""Execution of compiled workload graphs on a pipeline builder.

This is the lowering half of the compiler: a checked
:class:`~repro.workloads.compiler.ir.GraphSpec` plus its schedule runs
against a :class:`~repro.workloads.pipeline.PipelineBuilder` — SpGEMM
nodes run on the builder's engine (directly, or through the
ExperimentRunner memo with the same fingerprints as sweeps and serving)
and host nodes through the ops registry.

Name handling: spec-level value names are mapped to pipeline value names
through an environment (conditional stages alias instead of executing;
loop variables rebind each iteration).  Stage names inside loop/repeat
bodies may carry counter placeholders (``inflate[{i}]``) formatted with
the live counter values (``inflate[3]``).
"""

from __future__ import annotations

import string

import scipy.sparse as sp

from repro.workloads.compiler.ir import (
    AnnotateIR,
    ChainIR,
    CounterRef,
    FusedStageIR,
    GatherRef,
    GraphSpec,
    LoopIR,
    NodeIR,
    ParamRef,
    RepeatIR,
    SpecError,
    StageIR,
    SPGEMM_OP,
)
from repro.workloads.compiler.schedule import node_label
from repro.workloads.pipeline import PipelineBuilder
from repro.workloads.probes import get_probe, get_stop_probe

__all__ = ["execute_graph"]


def _placeholders(template: str) -> tuple[str, ...]:
    return tuple(field for _, field, _, _ in
                 string.Formatter().parse(template) if field)


def _format_name(name: str, counters: dict[str, int], *,
                 stage: str) -> str:
    if "{" not in name:
        return name
    try:
        return name.format(**counters)
    except (KeyError, IndexError):
        raise SpecError(
            f"stage name {name!r} references counters outside their "
            f"loop/repeat (live counters: "
            f"{', '.join(counters) or '(none)'})", stage=stage) from None


class _Execution:
    def __init__(self, pipeline: PipelineBuilder, params: dict) -> None:
        self.pipeline = pipeline
        self.params = params

    # ------------------------------------------------------------------
    def scalar(self, value, counters: dict[str, int]):
        if isinstance(value, ParamRef):
            resolved = self.params[value.name]
            return resolved + value.offset if value.offset else resolved
        if isinstance(value, CounterRef):
            return counters[value.name]
        return value

    def resolve(self, ref, env: dict[str, str],
                counters: dict[str, int], *, stage: str) -> list[str]:
        """One reference to a list of pipeline value names (gathers fan
        out to every repeated instance)."""
        if isinstance(ref, GatherRef):
            count = int(self.scalar(ref.count, counters))
            fields = _placeholders(ref.template)
            return [ref.template.format(**{field: index
                                           for field in fields})
                    for index in range(ref.start, ref.start + count)]
        try:
            return [env[ref]]
        except KeyError:
            raise SpecError(
                f"unknown value {ref!r}; defined values: "
                f"{', '.join(sorted(env))}", stage=stage) from None

    def operands(self, refs, env, counters, *, stage: str) -> list[str]:
        names: list[str] = []
        for ref in refs:
            names.extend(self.resolve(ref, env, counters, stage=stage))
        return names

    # ------------------------------------------------------------------
    def run(self, node: NodeIR, env: dict[str, str],
            counters: dict[str, int]) -> None:
        if isinstance(node, StageIR):
            self._run_stage(node, env, counters)
        elif isinstance(node, FusedStageIR):
            self._run_fused(node, env, counters)
        elif isinstance(node, ChainIR):
            self._run_chain(node, env, counters)
        elif isinstance(node, LoopIR):
            self._run_loop(node, env, counters)
        elif isinstance(node, RepeatIR):
            self._run_repeat(node, env, counters)
        else:
            self._run_annotate(node, env, counters)

    def _bind(self, node, env: dict[str, str], value: str) -> None:
        env[node.name] = value
        if node.bind:
            env[node.bind] = value

    def _run_stage(self, node: StageIR, env, counters) -> None:
        if node.when is not None and not self.params[node.when]:
            alias = self.resolve(node.otherwise, env, counters,
                                 stage=node.name)[0]
            self._bind(node, env, alias)
            return
        name = _format_name(node.name, counters, stage=node.name)
        inputs = self.operands(node.inputs, env, counters, stage=node.name)
        if node.op == SPGEMM_OP:
            result = self.pipeline.spgemm(name, inputs[0], inputs[1])
        else:
            kwargs = {key: self.scalar(value, counters)
                      for key, value in node.params}
            result = self.pipeline.host(name, node.op, *inputs, **kwargs)
        self._bind(node, env, result)

    def _run_fused(self, node: FusedStageIR, env, counters) -> None:
        name = _format_name(node.name, counters, stage=node.name)
        inputs = self.operands(node.inputs, env, counters, stage=node.name)
        steps = []
        for step in node.steps:
            extras = self.operands(step.extra_inputs, env, counters,
                                   stage=node.name)
            kwargs = {key: self.scalar(value, counters)
                      for key, value in step.params}
            steps.append((step.op, tuple(extras), kwargs))
        result = self.pipeline.host_fused(name, steps, *inputs)
        self._bind(node, env, result)

    def _run_chain(self, node: ChainIR, env, counters) -> None:
        label = node_label(node)
        previous = self.resolve(node.first, env, counters, stage=label)[0]
        fixed = self.resolve(node.fixed, env, counters, stage=label)[0]
        count = int(self.scalar(node.count, counters))
        for step in range(node.start, node.start + count):
            name = _format_name(node.template,
                                {**counters, "step": step}, stage=label)
            if node.thread == "left":
                previous = self.pipeline.spgemm(name, previous, fixed)
            else:
                previous = self.pipeline.spgemm(name, fixed, previous)
        env[node.template] = previous
        env[node.bind] = previous

    def _run_loop(self, node: LoopIR, env, counters) -> None:
        label = node_label(node)
        current = self.resolve(node.init, env, counters, stage=label)[0]
        count = int(self.scalar(node.max_iterations, counters))
        stop_fn = tolerance = None
        if node.stop is not None:
            stop_fn = get_stop_probe(node.stop.probe, stage=label)
            tolerance = self.scalar(node.stop.tolerance, counters)
        iterations = 0
        converged = False
        for trip in range(node.counter_start, node.counter_start + count):
            iterations = trip
            scope = dict(env)
            scope[node.var] = current
            inner = {**counters, node.counter: trip}
            for child in node.body:
                self.run(child, scope, inner)
            try:
                updated = scope[node.update]
            except KeyError:
                raise SpecError(
                    f"update {node.update!r} names no body value",
                    stage=label) from None
            if stop_fn is not None:
                reading = stop_fn(self.pipeline.scipy_value(updated),
                                  self.pipeline.scipy_value(current))
                current = updated
                if reading < tolerance:
                    converged = True
                    break
            else:
                current = updated
        env[node.var] = current
        if node.iterations_key is not None:
            self.pipeline.annotate(node.iterations_key, iterations)
        if node.converged_key is not None:
            self.pipeline.annotate(node.converged_key, converged)

    def _run_repeat(self, node: RepeatIR, env, counters) -> None:
        count = int(self.scalar(node.count, counters))
        for instance in range(node.start, node.start + count):
            scope = dict(env)
            inner = {**counters, node.counter: instance}
            for child in node.body:
                self.run(child, scope, inner)
            # Instances are addressed downstream through gathers over the
            # formatted stage names; the scope itself is instance-local.
            for name, value in scope.items():
                if name not in env and "{" not in name:
                    env[name] = value

    def _run_annotate(self, node: AnnotateIR, env, counters) -> None:
        if node.param is not None:
            self.pipeline.annotate(node.key, self.params[node.param])
            return
        probe = get_probe(node.probe, stage=node_label(node))
        kwargs = {key: self.scalar(value, counters)
                  for key, value in node.params}
        value: sp.csr_matrix = self.pipeline.scipy_value(
            self.resolve(node.of, env, counters,
                         stage=node_label(node))[0])
        self.pipeline.annotate(node.key, probe(value, **kwargs))


def execute_graph(graph: GraphSpec, order: tuple[int, ...],
                  pipeline: PipelineBuilder, params: dict) -> str:
    """Run one checked graph on ``pipeline`` with resolved ``params``.

    Returns the pipeline value name of the graph's output (pass it to
    :meth:`PipelineBuilder.result`).

    Raises:
        ValueError: an input declared ``square`` is not.
    """
    env: dict[str, str] = {}
    for inp in graph.inputs:
        env[inp.name] = inp.name
        if inp.square:
            shape = pipeline.shape(inp.name)
            if shape[0] != shape[1]:
                raise ValueError(
                    f"adjacency matrix must be square, got {shape}")
    execution = _Execution(pipeline, params)
    for index in order:
        execution.run(graph.nodes[index], env, {})
    try:
        return env[graph.output]
    except KeyError:
        raise SpecError(
            f"output {graph.output!r} names no input or stage; defined "
            f"values: {', '.join(sorted(env))}") from None
