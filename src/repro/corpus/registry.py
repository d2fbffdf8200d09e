"""Registry mapping corpus ids to frozen :class:`CorpusSpec` declarations.

Mirrors :mod:`repro.engines.registry` / :mod:`repro.workloads.registry`:
frozen entries in a tuple, id lookup with a helpful unknown-id error.  The
constructor helpers (:func:`suite_ladder`, :func:`rmat_grid`,
:func:`density_sweep`, :func:`band_sweep`) are public so downstream users
can declare corpora of their own without hand-rolling scenario tuples.
"""

from __future__ import annotations

from repro.corpus.spec import CorpusSpec, Scenario
from repro.matrices.rmat import rmat_benchmark_name

#: The prefetcher-sensitive benchmark subset the Figure 17 DSE sweeps
#: (small originals, so proxies keep realistic capacity pressure).
DSE_BENCHMARKS = ("wiki-Vote", "facebook", "email-Enron", "ca-CondMat",
                  "p2p-Gnutella31")

#: Big-suite benchmarks cheap enough to run at the paper-scale rung
#: routinely (sparsest nnz/row first: patents_main ≈ 2.3 nnz/row keeps the
#: 10⁵-row proxy around half a million partial products; m133-b3 = 4 is
#: the denser rung).  :func:`repro.experiments.common.load_paper_scale_suite`
#: and the benchmarks read the same two names.
PAPER_SCALE_NAMES = ("patents_main", "m133-b3")

#: The paper-scale dimension rung: 10⁵ rows, the low end of the regime the
#: paper reports (10⁵–10⁶).  Scenarios at this rung run with *unscaled*
#: Table I buffers on the batched engine (as ``engine="streaming"``), whose
#: working set is bounded per merge round.
PAPER_SCALE_MAX_ROWS = 100_000


# ----------------------------------------------------------------------
# Constructor helpers (public: build your own corpora from these)
# ----------------------------------------------------------------------
def suite_ladder(names: tuple[str, ...], rungs: tuple[int, ...], *,
                 corpus_id: str, title: str) -> CorpusSpec:
    """Benchmark proxies swept over a ladder of dimension caps.

    One scenario per ``(benchmark, rung)`` pair, named
    ``"<benchmark>@<rung>"`` — the scale axis of the paper's suite.
    """
    scenarios = tuple(
        Scenario(f"{name}@{rung}", "suite",
                 (("benchmark", name), ("max_rows", rung)))
        for name in names for rung in rungs
    )
    return CorpusSpec(corpus_id, title, scenarios)


def rmat_grid(sizes: tuple[int, ...], edge_factors: tuple[int, ...], *,
              corpus_id: str, title: str, seed: int = 0) -> CorpusSpec:
    """The Figure 14 grid: rMAT matrices over dimension × edge factor."""
    scenarios = tuple(
        Scenario(rmat_benchmark_name(size, factor), "rmat",
                 (("num_rows", size), ("edge_factor", factor),
                  ("seed", seed)))
        for size in sizes for factor in edge_factors
    )
    return CorpusSpec(corpus_id, title, scenarios)


def density_sweep(num_rows: int, densities: tuple[float, ...], *,
                  corpus_id: str, title: str, seed: int = 0) -> CorpusSpec:
    """Uniform random matrices at a ladder of densities."""
    scenarios = tuple(
        Scenario(f"uniform-{num_rows}-d{density:g}", "random",
                 (("num_rows", num_rows), ("density", density),
                  ("seed", seed)))
        for density in densities
    )
    return CorpusSpec(corpus_id, title, scenarios)


def band_sweep(num_rows: int, bandwidths: tuple[int, ...], *,
               avg_row_nnz: float = 8.0, corpus_id: str, title: str,
               seed: int = 0) -> CorpusSpec:
    """FEM-style banded matrices at a ladder of bandwidths."""
    scenarios = tuple(
        Scenario(f"band-{num_rows}-w{bandwidth}", "banded",
                 (("num_rows", num_rows), ("avg_row_nnz", avg_row_nnz),
                  ("bandwidth", bandwidth), ("seed", seed)))
        for bandwidth in bandwidths
    )
    return CorpusSpec(corpus_id, title, scenarios)


# ----------------------------------------------------------------------
# The registered corpora
# ----------------------------------------------------------------------
#: Every registered corpus, smallest first.
CORPORA: tuple[CorpusSpec, ...] = (
    CorpusSpec(
        "smoke",
        "Three tiny scenarios for CI shard smoke and the resumability tests",
        (
            Scenario("wiki-Vote@120", "suite",
                     (("benchmark", "wiki-Vote"), ("max_rows", 120))),
            Scenario("rmat-128-x4", "rmat",
                     (("num_rows", 128), ("edge_factor", 4), ("seed", 0))),
            Scenario("uniform-128-d0.02", "random",
                     (("num_rows", 128), ("density", 0.02), ("seed", 0))),
        ),
    ),
    suite_ladder(
        DSE_BENCHMARKS, (300,),
        corpus_id="suite-small",
        title="The Figure 17 benchmark subset at one modest proxy scale",
    ),
    suite_ladder(
        DSE_BENCHMARKS, (200, 400, 800),
        corpus_id="suite-ladder",
        title="Scale ladder of the Figure 17 benchmark subset (3 rungs)",
    ),
    rmat_grid(
        (256, 512, 1024), (4, 8, 16),
        corpus_id="rmat-grid",
        title="Figure 14-style rMAT grid (dimension x edge factor)",
    ),
    density_sweep(
        512, (0.005, 0.01, 0.02, 0.04),
        corpus_id="density-sweep",
        title="Uniform random matrices over a density ladder",
    ),
    band_sweep(
        512, (8, 16, 32, 64),
        corpus_id="band-sweep",
        title="Banded FEM-style matrices over a bandwidth ladder",
    ),
    suite_ladder(
        PAPER_SCALE_NAMES, (PAPER_SCALE_MAX_ROWS,),
        corpus_id="paper-scale",
        title="Paper-scale (10^5-row) suite rung, unscaled Table I buffers",
    ),
)

_BY_ID = {spec.corpus_id: spec for spec in CORPORA}


def list_corpora() -> list[str]:
    """Return the registered corpus ids, smallest first."""
    return [spec.corpus_id for spec in CORPORA]


def get_corpus(corpus_id: str) -> CorpusSpec:
    """Look up one corpus by id; raises ``KeyError`` with suggestions."""
    try:
        return _BY_ID[corpus_id]
    except KeyError:
        raise KeyError(
            f"unknown corpus {corpus_id!r}; known corpora: "
            f"{', '.join(list_corpora())}"
        ) from None


def resolve_scenario(ref: "str | dict | Scenario") -> Scenario:
    """Resolve a serve request's scenario reference to a recipe.

    Accepts the three forms a request may carry:

    * ``"corpus/name"`` — a registered scenario by reference, e.g.
      ``"smoke/wiki-Vote@120"`` (the corpus registry is the namespace);
    * a :meth:`Scenario.to_dict` payload — an inline recipe for matrices
      outside every registered corpus;
    * a :class:`Scenario` instance (in-process callers), returned as-is.

    Raises:
        ValueError: a malformed reference string or inline payload.
        KeyError: an unknown corpus id or scenario name.
    """
    if isinstance(ref, Scenario):
        return ref
    if isinstance(ref, dict):
        return Scenario.from_dict(ref)
    if not isinstance(ref, str):
        raise ValueError(
            f"scenario reference must be 'corpus/name', a recipe dict or "
            f"a Scenario, got {type(ref).__name__}"
        )
    corpus_id, separator, name = ref.partition("/")
    if not separator or not corpus_id or not name:
        raise ValueError(
            f"scenario reference must look like 'corpus/name', got {ref!r}"
        )
    return get_corpus(corpus_id).get_scenario(name)
