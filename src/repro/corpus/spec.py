"""Frozen scenario/corpus declarations: matrix families as data, not objects.

A corpus sweep runs thousands of engine points across shards, processes and
machine restarts, so the *workload* has to be a value every participant can
reconstruct independently and deterministically — never a pile of matrix
objects shipped around.  A :class:`Scenario` is exactly that value: a named
recipe (generator family + frozen parameters + seed) whose :meth:`build`
regenerates bit-identical CSR arrays in any process.  A :class:`CorpusSpec`
is an ordered tuple of scenarios with an id, mirroring the frozen-spec
registries of :mod:`repro.workloads` and :mod:`repro.engines`.

The generator families cover the paper's evaluation axes:

* ``suite`` — one of the 20 benchmark proxies at a given dimension cap
  (scale ladders of the suite are corpora of these);
* ``rmat`` — the Figure 14 rMAT grid (dimension × edge factor);
* ``random`` — uniform fill at a target density (density sweeps);
* ``banded`` — FEM-style banded structure at a given bandwidth (band
  sweeps).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.formats.csr import CSRMatrix
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.suite import load_benchmark
from repro.matrices.synthetic import banded_matrix, random_matrix

#: Generator families a scenario may declare.
SCENARIO_FAMILIES = ("suite", "rmat", "random", "banded")

#: The parameter that bounds each family's dimension (used by
#: :meth:`Scenario.scaled` to cap a corpus for smoke runs).
_SIZE_PARAM = {"suite": "max_rows", "rmat": "num_rows", "random": "num_rows",
               "banded": "num_rows"}


@dataclass(frozen=True)
class Scenario:
    """One named, reproducible matrix recipe inside a corpus.

    Attributes:
        name: unique name within the corpus (``"wiki-Vote@300"``,
            ``"rmat-512-x8"``); sweep result stores record it per cell.
        family: generator family, one of :data:`SCENARIO_FAMILIES`.
        params: frozen ``((key, value), ...)`` generator parameters —
            a tuple of pairs rather than a dict so the spec is hashable
            and safely shared/pickled.
    """

    name: str
    family: str
    params: tuple[tuple[str, object], ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.family not in SCENARIO_FAMILIES:
            raise ValueError(
                f"family must be one of {SCENARIO_FAMILIES}, "
                f"got {self.family!r}"
            )
        keys = [key for key, _ in self.params]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate scenario parameters in {keys}")

    # ------------------------------------------------------------------
    def param_dict(self) -> dict[str, object]:
        """The parameters as a plain dict (a copy; the spec stays frozen)."""
        return dict(self.params)

    def build(self) -> CSRMatrix:
        """Generate the scenario's matrix — deterministic in any process.

        Every family threads an explicit seed (or the suite's stable
        per-benchmark seed), so shards and resumed runs reconstruct
        bit-identical operands from the spec alone.
        """
        params = self.param_dict()
        if self.family == "suite":
            return load_benchmark(str(params["benchmark"]),
                                  max_rows=int(params["max_rows"]))
        if self.family == "rmat":
            return generate_rmat(RMATConfig(
                num_rows=int(params["num_rows"]),
                edge_factor=int(params["edge_factor"]),
                seed=int(params.get("seed", 0))))
        if self.family == "random":
            num_rows = int(params["num_rows"])
            num_cols = int(params.get("num_cols", num_rows))
            nnz = int(round(float(params["density"]) * num_rows * num_cols))
            return random_matrix(num_rows, num_cols, nnz,
                                 seed=int(params.get("seed", 0)))
        # "banded" — __post_init__ guarantees no other family reaches here.
        return banded_matrix(int(params["num_rows"]),
                             float(params["avg_row_nnz"]),
                             bandwidth=int(params["bandwidth"]),
                             seed=int(params.get("seed", 0)))

    def to_dict(self) -> dict:
        """The recipe as a JSON-compatible payload (inverse of
        :meth:`from_dict`) — how serve requests carry inline scenarios."""
        return {"name": self.name, "family": self.family,
                "params": self.param_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from a :meth:`to_dict` payload.

        Raises:
            ValueError: missing fields or an unknown family — the same
                validation :meth:`__post_init__` applies to literals.
        """
        try:
            name = payload["name"]
            family = payload["family"]
            params = payload["params"]
        except (TypeError, KeyError) as exc:
            raise ValueError(
                f"scenario payload needs name/family/params, got "
                f"{payload!r}"
            ) from exc
        if not isinstance(params, dict):
            raise ValueError(f"scenario params must be a dict, got "
                             f"{type(params).__name__}")
        return cls(str(name), str(family), tuple(params.items()))

    def scaled(self, max_rows: int) -> "Scenario":
        """Return this scenario with its dimension capped at ``max_rows``.

        The scenario *name* is preserved — a scaled corpus is the same
        grid run smaller (the convention of every experiment harness's
        ``--max-rows``), not a different corpus.
        """
        if max_rows < 1:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        size_key = _SIZE_PARAM[self.family]
        params = self.param_dict()
        params[size_key] = min(int(params[size_key]), max_rows)
        if "num_cols" in params:
            params["num_cols"] = min(int(params["num_cols"]), max_rows)
        if params == self.param_dict():
            return self
        return Scenario(self.name, self.family, tuple(params.items()))


@dataclass(frozen=True)
class CorpusSpec:
    """A named, ordered family of scenarios — the workload axis of a sweep.

    Attributes:
        corpus_id: registry id ("suite-ladder", "rmat-grid", ...).
        title: human-readable description.
        scenarios: the member scenarios, in canonical (shard-assignment)
            order.
    """

    corpus_id: str
    title: str
    scenarios: tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError(f"corpus {self.corpus_id!r} has no scenarios")
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(
                f"corpus {self.corpus_id!r} has duplicate scenario names"
            )

    # ------------------------------------------------------------------
    def scenario_names(self) -> list[str]:
        """Member scenario names in canonical order."""
        return [scenario.name for scenario in self.scenarios]

    def get_scenario(self, name: str) -> Scenario:
        """Look up one member scenario by name."""
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(
            f"unknown scenario {name!r} in corpus {self.corpus_id!r}; "
            f"known: {', '.join(self.scenario_names())}"
        )

    def scaled(self, max_rows: int | None) -> "CorpusSpec":
        """Return this corpus with every scenario capped at ``max_rows``
        (``None`` returns the corpus unchanged)."""
        if max_rows is None:
            return self
        return CorpusSpec(self.corpus_id, self.title,
                          tuple(scenario.scaled(max_rows)
                                for scenario in self.scenarios))

    def build_all(self) -> dict[str, CSRMatrix]:
        """Materialise every scenario, keyed by name (canonical order)."""
        return {scenario.name: scenario.build()
                for scenario in self.scenarios}


#: Scenarios build deterministically from their parameters, so a recipe's
#: operand fingerprint never changes — memoising it by recipe lets sweep
#: resumes and cached serve requests skip matrix generation entirely for
#: scenarios this process has hashed before.
_FINGERPRINT_MEMO: dict[Scenario, str] = {}
_FINGERPRINT_LOCK = threading.Lock()


def scenario_fingerprint(scenario: Scenario, *,
                         build: Callable[[Scenario], CSRMatrix] | None = None
                         ) -> str:
    """The scenario's operand fingerprint, memoised by recipe.

    This is the content address a scenario-recipe request resolves to: the
    :func:`~repro.experiments.runner.matrix_fingerprint` of the matrix the
    recipe builds.  A memoised recipe builds nothing.  A cold one is built
    through ``build`` (:meth:`Scenario.build` by default, which drops the
    matrix once hashed); the service passes its operand cache here, so a
    cold request that goes on to run finds its operand already built.
    Safe to call from concurrent service threads; a race on a cold recipe
    at worst hashes it twice.
    """
    with _FINGERPRINT_LOCK:
        fingerprint = _FINGERPRINT_MEMO.get(scenario)
    if fingerprint is None:
        # Imported lazily: the runner module pulls in the engine layers,
        # which corpus declarations must not depend on at import time.
        from repro.experiments.runner import matrix_fingerprint

        matrix = scenario.build() if build is None else build(scenario)
        fingerprint = matrix_fingerprint(matrix)
        with _FINGERPRINT_LOCK:
            _FINGERPRINT_MEMO.setdefault(scenario, fingerprint)
    return fingerprint
