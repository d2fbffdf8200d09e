"""The workload compiler: declarative graph specs → pipeline execution.

Workloads are authored declaratively — a JSON/YAML stage graph or a tiny
expression-language program — instead of hand-writing Python against
:class:`~repro.workloads.pipeline.PipelineBuilder` internals.  The front
end parses either source into one typed IR
(:mod:`~repro.workloads.compiler.ir`), the checker rejects ill-formed
graphs with stage-named diagnostics before any engine runs
(:mod:`~repro.workloads.compiler.check`), the scheduler fixes a
deterministic execution order
(:mod:`~repro.workloads.compiler.schedule`), an optional fusion pass
collapses adjacent host ops (:mod:`~repro.workloads.compiler.fuse`), and
the executor lowers the scheduled graph onto the pipeline builder —
engine registry, runner memoisation, ops registry
(:mod:`~repro.workloads.compiler.execute`).

Entry points:

* :func:`compile_graph` — a :class:`GraphSpec` or JSON-compatible dict.
* :func:`compile_expression` — an expression-language program.
* :func:`load_spec` — a ``.json`` / ``.yaml`` spec file.
* :class:`CompiledWorkload` — the compiled artifact: checked graph +
  schedule, runnable on a pipeline, JSON round-trippable, fusable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.workloads.compiler.check import check_graph
from repro.workloads.compiler.execute import execute_graph
from repro.workloads.compiler.exprlang import parse_expression
from repro.workloads.compiler.fuse import fuse_graph
from repro.workloads.compiler.golden import payload_bytes, result_payload
from repro.workloads.compiler.ir import GraphSpec, SpecError
from repro.workloads.pipeline import PipelineBuilder

__all__ = [
    "CompiledWorkload",
    "GraphSpec",
    "SpecError",
    "compile_expression",
    "compile_graph",
    "compile_workload",
    "load_spec",
    "payload_bytes",
    "result_payload",
]


@dataclass(frozen=True)
class CompiledWorkload:
    """A checked, scheduled workload graph, ready to run.

    Attributes:
        graph: the typed IR (already validated by the checker).
        order: node execution order over ``graph.nodes`` (the
            deterministic topological schedule).
    """

    graph: GraphSpec
    order: tuple[int, ...]

    @property
    def name(self) -> str:
        """The workload id the spec declares."""
        return self.graph.name

    def fused(self) -> "CompiledWorkload":
        """This workload with adjacent host ops collapsed (cached)."""
        return _fused(self)

    def resolve_params(self, overrides: dict | None = None) -> dict:
        """Merge declared parameter defaults with overrides and validate."""
        return self.graph.resolve_params(overrides)

    def run(self, pipeline: PipelineBuilder, *,
            params: dict | None = None, fuse: bool = False) -> str:
        """Execute on ``pipeline``; returns the output value name.

        ``params`` are per-run overrides of the declared defaults;
        ``fuse`` runs the host-op-fused variant of the graph (identical
        functional output, fewer host stage records).
        """
        compiled = self.fused() if fuse else self
        resolved = self.graph.resolve_params(params)
        return execute_graph(compiled.graph, compiled.order, pipeline,
                             resolved)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """The spec as canonical JSON (reload with :func:`compile_workload`)."""
        return json.dumps(self.graph.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CompiledWorkload":
        """Parse, check and schedule a JSON spec."""
        return compile_graph(json.loads(text))


@lru_cache(maxsize=None)
def _fused(compiled: CompiledWorkload) -> CompiledWorkload:
    return compile_graph(fuse_graph(compiled.graph))


def compile_graph(spec: GraphSpec | dict) -> CompiledWorkload:
    """Check and schedule one graph spec (typed IR or JSON payload).

    Raises:
        SpecError: the spec is ill-formed — parse errors, dangling or
            duplicate values, shape/sparsity violations, unknown ops —
            each diagnostic naming the offending stage.
    """
    graph = spec if isinstance(spec, GraphSpec) else GraphSpec.from_dict(spec)
    order = check_graph(graph)
    return CompiledWorkload(graph=graph, order=order)


def compile_expression(text: str, *, name: str | None = None
                       ) -> CompiledWorkload:
    """Compile one expression-language program (see
    :mod:`~repro.workloads.compiler.exprlang`)."""
    return compile_graph(parse_expression(text, name=name))


def compile_workload(source: GraphSpec | dict | str, *,
                     name: str | None = None) -> CompiledWorkload:
    """Compile from any supported source.

    A dict or :class:`GraphSpec` is treated as a stage graph; a string is
    parsed as JSON when it starts with ``{``, as an expression-language
    program otherwise.
    """
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            return compile_graph(json.loads(source))
        return compile_expression(source, name=name)
    return compile_graph(source)


def load_spec(path: str | Path) -> CompiledWorkload:
    """Compile a spec file: ``.json``, ``.yaml``/``.yml``, or an
    expression-language program (any other suffix)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return compile_graph(json.loads(text))
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - environment-dependent
            raise SpecError(
                f"cannot load {path.name}: PyYAML is not installed "
                "(use a .json spec instead)") from None
        return compile_graph(yaml.safe_load(text))
    return compile_expression(text, name=path.stem)
