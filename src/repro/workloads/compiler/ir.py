"""The workload compiler's typed intermediate representation.

A workload is authored as a *graph spec* — a JSON/YAML stage graph or an
expression-language program (:mod:`repro.workloads.compiler.exprlang`) —
and parsed into the small typed IR defined here.  The IR is deliberately
first-order and fully serialisable: every node is a frozen dataclass built
from hashable leaves, ``GraphSpec.to_dict()`` / ``from_dict()`` round-trip
losslessly through JSON, and two specs compare equal iff they describe the
same graph (the round-trip property test relies on this).

Node kinds
==========

* :class:`StageIR` — one named stage: an SpGEMM (``op == "spgemm"``) or a
  host op from the ops registry.  A stage may be *conditional*: ``when``
  names a boolean parameter, and when it is falsy the stage is skipped and
  its name aliases ``otherwise`` instead (how ``triangles`` makes its
  ``simple_graph`` normalisation optional).
* :class:`ChainIR` — a repeated SpGEMM threading one operand through
  ``count`` steps (``A^k`` powers, GNN layer propagation).  ``thread``
  picks which side carries the previous product; the other side is fixed.
* :class:`LoopIR` — a data-dependent iteration: run ``body`` up to
  ``max_iterations`` times, rebinding ``var`` to ``update`` after each
  pass, stopping early when the registered stop probe drops below
  ``tolerance`` (MCL convergence, PageRank power iteration, AMG
  coarsening).
* :class:`RepeatIR` — ``count`` independent instances of ``body`` indexed
  by ``counter`` (the batched serving mix); downstream stages collect all
  instances with a :class:`GatherRef` input.
* :class:`AnnotateIR` — record one workload-level scalar: a registered
  probe applied to a named value, or a parameter echoed verbatim.
* :class:`FusedStageIR` — produced by the fusion pass only
  (:mod:`repro.workloads.compiler.fuse`): a run of adjacent host ops
  collapsed into one stage.

Scalar values in stage parameters / counts / tolerances are either JSON
literals or symbolic references resolved at run time: :class:`ParamRef`
(a workload parameter, with an optional integer offset — ``k - 1`` chain
lengths) and :class:`CounterRef` (the enclosing loop/repeat counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Union

__all__ = [
    "AnnotateIR",
    "ChainIR",
    "CounterRef",
    "FusedStageIR",
    "FusedStep",
    "GatherRef",
    "GraphSpec",
    "InputIR",
    "LoopIR",
    "NodeIR",
    "ParamIR",
    "ParamRef",
    "RepeatIR",
    "SpecError",
    "StageIR",
    "StopIR",
    "SPGEMM_OP",
    "scalar_from_payload",
    "scalar_to_payload",
    "value_ref_from_payload",
    "value_ref_to_payload",
]

#: Stage op naming the SpGEMM kernel (every other op is a host op).
SPGEMM_OP = "spgemm"


class SpecError(ValueError):
    """A workload spec is ill-formed.

    Raised by the parser, the checker and the scheduler.  ``stage`` names
    the offending stage when the diagnostic is stage-level — every
    stage-level message starts with ``stage '<name>':`` so failures point
    at the exact node before any engine runs.
    """

    def __init__(self, message: str, *, stage: str | None = None) -> None:
        super().__init__(f"stage {stage!r}: {message}" if stage else message)
        self.stage = stage


# ----------------------------------------------------------------------
# Scalar values: literals and symbolic references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParamRef:
    """A reference to a workload parameter, plus an integer offset.

    ``ParamRef("k", -1)`` resolves to ``params["k"] - 1`` — how a chain
    expresses the ``k − 1`` products of ``A^k``.
    """

    name: str
    offset: int = 0


@dataclass(frozen=True)
class CounterRef:
    """The value of the enclosing loop/repeat counter."""

    name: str


Scalar = Union[int, float, bool, str, ParamRef, CounterRef]


def scalar_to_payload(value: Scalar):
    """Render one scalar value as a JSON-compatible payload."""
    if isinstance(value, ParamRef):
        payload: dict = {"param": value.name}
        if value.offset:
            payload["offset"] = value.offset
        return payload
    if isinstance(value, CounterRef):
        return {"counter": value.name}
    return value


def scalar_from_payload(payload) -> Scalar:
    """Parse one scalar payload (inverse of :func:`scalar_to_payload`)."""
    if isinstance(payload, dict):
        if "param" in payload:
            return ParamRef(str(payload["param"]),
                            int(payload.get("offset", 0)))
        if "counter" in payload:
            return CounterRef(str(payload["counter"]))
        raise SpecError(f"unknown scalar reference {payload!r}; expected "
                        "{'param': ...} or {'counter': ...}")
    if not isinstance(payload, (int, float, bool, str)):
        raise SpecError(f"scalar values must be JSON literals or "
                        f"param/counter references, got {payload!r}")
    return payload


# ----------------------------------------------------------------------
# Value references: plain names and gathers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GatherRef:
    """All instances of a repeated stage, as one variadic operand list.

    ``template`` contains the repeat counter placeholder (``tile[{j}]``)
    and ``count`` sizes the expansion — it must match the repeat node that
    produced the instances.
    """

    template: str
    count: Scalar
    start: int = 0


ValueRef = Union[str, GatherRef]


def value_ref_to_payload(ref: ValueRef):
    """Render one value reference as a JSON-compatible payload."""
    if isinstance(ref, GatherRef):
        payload: dict = {"all": ref.template,
                         "count": scalar_to_payload(ref.count)}
        if ref.start:
            payload["start"] = ref.start
        return payload
    return ref


def value_ref_from_payload(payload) -> ValueRef:
    """Parse one value-reference payload."""
    if isinstance(payload, dict):
        if "all" not in payload or "count" not in payload:
            raise SpecError(f"gather references need 'all' and 'count', "
                            f"got {payload!r}")
        return GatherRef(str(payload["all"]),
                         scalar_from_payload(payload["count"]),
                         int(payload.get("start", 0)))
    if not isinstance(payload, str):
        raise SpecError(f"value references must be names or gathers, "
                        f"got {payload!r}")
    return payload


def _params_to_payload(params: tuple[tuple[str, Scalar], ...]) -> dict:
    return {key: scalar_to_payload(value) for key, value in params}


def _params_from_payload(payload: dict | None
                         ) -> tuple[tuple[str, Scalar], ...]:
    if not payload:
        return ()
    if not isinstance(payload, dict):
        raise SpecError(f"stage params must be a mapping, got {payload!r}")
    # Canonical key order: params are keyword arguments, so order carries
    # no meaning — sorting makes dict → IR → JSON → IR a fixed point.
    return tuple((str(key), scalar_from_payload(payload[key]))
                 for key in sorted(payload))


# ----------------------------------------------------------------------
# Declarations: inputs and parameters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InputIR:
    """One named input matrix.

    Attributes:
        name: pipeline value name (``run_workload`` binds ``"A"``).
        square: require a square matrix (checked symbolically at compile
            time and against the concrete operand at run time).
        assume: structure flags the checker may rely on
            (``"nonnegative"``, ``"binary"``, ``"symmetric"``).
    """

    name: str
    square: bool = False
    assume: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        payload: dict = {"name": self.name}
        if self.square:
            payload["square"] = True
        if self.assume:
            payload["assume"] = list(self.assume)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "InputIR":
        return cls(str(payload["name"]), bool(payload.get("square", False)),
                   tuple(payload.get("assume", ())))


@dataclass(frozen=True)
class ParamIR:
    """One declared workload parameter with its default and constraints.

    The default's type is the parameter's type: an ``int`` default admits
    integers only, a ``float`` default any real number, and neither
    admits a bool.  ``minimum`` is inclusive ("must be at least"),
    ``above`` exclusive ("must exceed").
    """

    name: str
    default: Union[int, float, bool, str, None] = None
    minimum: Union[int, float, None] = None
    above: Union[int, float, None] = None

    def validate(self, value) -> None:
        """Check one resolved value; raises ``ValueError`` naming the
        parameter."""
        kind = type(self.default)
        wanted = {int: Integral, float: Real}.get(kind)
        if wanted is not None and (isinstance(value, bool)
                                   or not isinstance(value, wanted)):
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{self.name} must be {noun}, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"{self.name} must be at least {self.minimum}, "
                             f"got {value}")
        if self.above is not None and value <= self.above:
            raise ValueError(f"{self.name} must exceed {self.above:g}, "
                             f"got {value}")

    def to_dict(self) -> dict:
        payload: dict = {"name": self.name, "default": self.default}
        if self.minimum is not None:
            payload["min"] = self.minimum
        if self.above is not None:
            payload["above"] = self.above
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ParamIR":
        return cls(str(payload["name"]), payload.get("default"),
                   payload.get("min"), payload.get("above"))


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageIR:
    """One named SpGEMM or host-op stage."""

    name: str
    op: str
    inputs: tuple[ValueRef, ...]
    params: tuple[tuple[str, Scalar], ...] = ()
    when: str | None = None
    otherwise: str | None = None
    bind: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {"stage": self.name, "op": self.op,
                         "inputs": [value_ref_to_payload(ref)
                                    for ref in self.inputs]}
        if self.params:
            payload["params"] = _params_to_payload(self.params)
        if self.when is not None:
            payload["when"] = self.when
        if self.otherwise is not None:
            payload["else"] = self.otherwise
        if self.bind is not None:
            payload["bind"] = self.bind
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StageIR":
        return cls(
            name=str(payload["stage"]),
            op=str(payload["op"]),
            inputs=tuple(value_ref_from_payload(ref)
                         for ref in payload.get("inputs", ())),
            params=_params_from_payload(payload.get("params")),
            when=payload.get("when"),
            otherwise=payload.get("else"),
            bind=payload.get("bind"),
        )


@dataclass(frozen=True)
class FusedStep:
    """One op of a fused host stage (fusion pass output).

    The first step consumes the fused stage's ``inputs``; every later step
    consumes the running value as its first operand plus ``extra_inputs``.
    """

    op: str
    extra_inputs: tuple[ValueRef, ...] = ()
    params: tuple[tuple[str, Scalar], ...] = ()

    def to_dict(self) -> dict:
        payload: dict = {"op": self.op}
        if self.extra_inputs:
            payload["extra_inputs"] = [value_ref_to_payload(ref)
                                       for ref in self.extra_inputs]
        if self.params:
            payload["params"] = _params_to_payload(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FusedStep":
        return cls(str(payload["op"]),
                   tuple(value_ref_from_payload(ref)
                         for ref in payload.get("extra_inputs", ())),
                   _params_from_payload(payload.get("params")))


@dataclass(frozen=True)
class FusedStageIR:
    """A run of adjacent host ops collapsed into one stage.

    Keeps the *last* collapsed stage's name and bind, so downstream
    references (loop updates, the graph output) survive fusion untouched.
    """

    name: str
    inputs: tuple[ValueRef, ...]
    steps: tuple[FusedStep, ...]
    bind: str | None = None

    @property
    def kind(self) -> str:
        """The stage-record kind string, e.g. ``fused(inflate+prune)``."""
        return "fused(" + "+".join(step.op for step in self.steps) + ")"

    def to_dict(self) -> dict:
        payload: dict = {"fused": self.name,
                         "inputs": [value_ref_to_payload(ref)
                                    for ref in self.inputs],
                         "steps": [step.to_dict() for step in self.steps]}
        if self.bind is not None:
            payload["bind"] = self.bind
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FusedStageIR":
        return cls(str(payload["fused"]),
                   tuple(value_ref_from_payload(ref)
                         for ref in payload.get("inputs", ())),
                   tuple(FusedStep.from_dict(step)
                         for step in payload.get("steps", ())),
                   payload.get("bind"))


@dataclass(frozen=True)
class ChainIR:
    """A repeated SpGEMM threading one operand through ``count`` steps.

    Step ``s`` (``s = start, start+1, …``) runs ``prev · fixed`` (thread
    ``"left"``) or ``fixed · prev`` (thread ``"right"``) and names the
    product ``template.format(step=s)``; ``prev`` starts at ``first``.
    ``bind`` aliases the final product (the chain's exported value).
    """

    template: str
    first: ValueRef
    fixed: ValueRef
    count: Scalar
    bind: str
    thread: str = "left"
    start: int = 0

    def to_dict(self) -> dict:
        payload: dict = {"chain": self.template,
                         "first": value_ref_to_payload(self.first),
                         "fixed": value_ref_to_payload(self.fixed),
                         "count": scalar_to_payload(self.count),
                         "bind": self.bind}
        if self.thread != "left":
            payload["thread"] = self.thread
        if self.start:
            payload["start"] = self.start
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ChainIR":
        chain = cls(str(payload["chain"]),
                    value_ref_from_payload(payload["first"]),
                    value_ref_from_payload(payload["fixed"]),
                    scalar_from_payload(payload["count"]),
                    str(payload["bind"]),
                    str(payload.get("thread", "left")),
                    int(payload.get("start", 0)))
        if chain.thread not in ("left", "right"):
            raise SpecError(f"chain thread must be 'left' or 'right', got "
                            f"{chain.thread!r}", stage=chain.template)
        return chain


@dataclass(frozen=True)
class StopIR:
    """A loop's early-exit test: ``probe(current, previous) < tolerance``."""

    probe: str
    tolerance: Scalar

    def to_dict(self) -> dict:
        return {"probe": self.probe,
                "tolerance": scalar_to_payload(self.tolerance)}

    @classmethod
    def from_dict(cls, payload: dict) -> "StopIR":
        return cls(str(payload["probe"]),
                   scalar_from_payload(payload["tolerance"]))


@dataclass(frozen=True)
class LoopIR:
    """A bounded, data-dependent iteration with one carried value.

    Body stage names may use the counter placeholder (``inflate[{i}]``);
    body nodes see ``var`` bound to the current carry and rebind it to the
    value named by ``update`` after each pass.  ``stop`` (optional) ends
    the loop once its probe reads below tolerance — evaluated *after* the
    update.  On exit, ``iterations_key`` / ``converged_key`` (when set)
    record the trip count and early-exit flag as workload annotations.
    """

    var: str
    init: ValueRef
    body: tuple["NodeIR", ...]
    update: str
    max_iterations: Scalar
    counter: str = "i"
    counter_start: int = 1
    stop: StopIR | None = None
    iterations_key: str | None = None
    converged_key: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {
            "var": self.var,
            "init": value_ref_to_payload(self.init),
            "body": [node_to_payload(node) for node in self.body],
            "update": self.update,
            "max_iterations": scalar_to_payload(self.max_iterations),
        }
        if self.counter != "i":
            payload["counter"] = self.counter
        if self.counter_start != 1:
            payload["counter_start"] = self.counter_start
        if self.stop is not None:
            payload["stop"] = self.stop.to_dict()
        if self.iterations_key is not None:
            payload["iterations_key"] = self.iterations_key
        if self.converged_key is not None:
            payload["converged_key"] = self.converged_key
        return {"loop": payload}

    @classmethod
    def from_dict(cls, payload: dict) -> "LoopIR":
        return cls(
            var=str(payload["var"]),
            init=value_ref_from_payload(payload["init"]),
            body=tuple(node_from_payload(node)
                       for node in payload.get("body", ())),
            update=str(payload["update"]),
            max_iterations=scalar_from_payload(payload["max_iterations"]),
            counter=str(payload.get("counter", "i")),
            counter_start=int(payload.get("counter_start", 1)),
            stop=(StopIR.from_dict(payload["stop"])
                  if payload.get("stop") is not None else None),
            iterations_key=payload.get("iterations_key"),
            converged_key=payload.get("converged_key"),
        )


@dataclass(frozen=True)
class RepeatIR:
    """``count`` independent instances of ``body``, indexed by ``counter``.

    Unlike :class:`LoopIR` there is no carried value: instances are
    independent (the batched serving mix).  Downstream nodes collect every
    instance of a repeated stage with a :class:`GatherRef`.
    """

    counter: str
    count: Scalar
    body: tuple["NodeIR", ...]
    start: int = 0

    def to_dict(self) -> dict:
        payload: dict = {
            "counter": self.counter,
            "count": scalar_to_payload(self.count),
            "body": [node_to_payload(node) for node in self.body],
        }
        if self.start:
            payload["start"] = self.start
        return {"repeat": payload}

    @classmethod
    def from_dict(cls, payload: dict) -> "RepeatIR":
        return cls(str(payload["counter"]),
                   scalar_from_payload(payload["count"]),
                   tuple(node_from_payload(node)
                         for node in payload.get("body", ())),
                   int(payload.get("start", 0)))


@dataclass(frozen=True)
class AnnotateIR:
    """Record one workload-level scalar annotation.

    Either a registered probe applied to a named value (``probe`` + ``of``)
    or a parameter echoed verbatim (``param``).
    """

    key: str
    probe: str | None = None
    of: str | None = None
    param: str | None = None
    params: tuple[tuple[str, Scalar], ...] = ()

    def to_dict(self) -> dict:
        payload: dict = {"annotate": self.key}
        if self.param is not None:
            payload["param"] = self.param
        else:
            payload["probe"] = self.probe
            payload["of"] = self.of
            if self.params:
                payload["params"] = _params_to_payload(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AnnotateIR":
        if payload.get("param") is not None:
            return cls(str(payload["annotate"]), param=str(payload["param"]))
        return cls(str(payload["annotate"]),
                   probe=str(payload["probe"]), of=str(payload["of"]),
                   params=_params_from_payload(payload.get("params")))


NodeIR = Union[StageIR, FusedStageIR, ChainIR, LoopIR, RepeatIR, AnnotateIR]


def node_to_payload(node: NodeIR) -> dict:
    """Render one node as its JSON payload."""
    return node.to_dict()


def node_from_payload(payload: dict) -> NodeIR:
    """Parse one node payload by its discriminating key."""
    if not isinstance(payload, dict):
        raise SpecError(f"graph nodes must be mappings, got {payload!r}")
    if "stage" in payload:
        return StageIR.from_dict(payload)
    if "fused" in payload:
        return FusedStageIR.from_dict(payload)
    if "chain" in payload:
        return ChainIR.from_dict(payload)
    if "loop" in payload:
        return LoopIR.from_dict(payload["loop"])
    if "repeat" in payload:
        return RepeatIR.from_dict(payload["repeat"])
    if "annotate" in payload:
        return AnnotateIR.from_dict(payload)
    raise SpecError(f"unknown node kind in {sorted(payload)!r}; expected "
                    "one of stage/fused/chain/loop/repeat/annotate")


# ----------------------------------------------------------------------
# The graph spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphSpec:
    """One declarative workload graph: inputs, params, nodes, output."""

    name: str
    inputs: tuple[InputIR, ...]
    params: tuple[ParamIR, ...] = ()
    nodes: tuple[NodeIR, ...] = ()
    output: str = ""

    # ------------------------------------------------------------------
    def param_names(self) -> list[str]:
        """Declared parameter names, in declaration order."""
        return [param.name for param in self.params]

    def resolve_params(self, overrides: dict | None = None) -> dict:
        """Merge declared defaults with ``overrides`` and validate.

        Raises:
            TypeError: an override names no declared parameter (as a
                function signature would).
            ValueError: a value has the wrong type or violates a declared
                constraint; the message names the parameter.
        """
        declared = {param.name: param for param in self.params}
        merged = {name: param.default for name, param in declared.items()}
        for key, value in (overrides or {}).items():
            if key not in declared:
                raise TypeError(
                    f"workload {self.name!r} got an unexpected parameter "
                    f"{key!r}; declared parameters: "
                    f"{', '.join(declared) or '(none)'}")
            merged[key] = value
        for name, param in declared.items():
            param.validate(merged[name])
        return merged

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The spec as a JSON-compatible payload (inverse of
        :meth:`from_dict`)."""
        return {
            "workload": self.name,
            "inputs": [inp.to_dict() for inp in self.inputs],
            "params": [param.to_dict() for param in self.params],
            "nodes": [node_to_payload(node) for node in self.nodes],
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GraphSpec":
        """Parse one graph-spec payload.

        Raises:
            SpecError: missing fields or malformed nodes.
        """
        if not isinstance(payload, dict):
            raise SpecError(f"a graph spec must be a mapping, got "
                            f"{type(payload).__name__}")
        missing = [key for key in ("workload", "nodes", "output")
                   if key not in payload]
        if missing:
            raise SpecError(f"graph spec is missing {', '.join(missing)}")
        inputs = payload.get("inputs") or [{"name": "A"}]
        return cls(
            name=str(payload["workload"]),
            inputs=tuple(
                InputIR.from_dict(inp) if isinstance(inp, dict)
                else InputIR(str(inp))
                for inp in inputs),
            params=tuple(ParamIR.from_dict(param)
                         for param in payload.get("params", ())),
            nodes=tuple(node_from_payload(node)
                        for node in payload.get("nodes", ())),
            output=str(payload["output"]),
        )
