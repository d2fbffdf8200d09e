"""Experiment harnesses: one runnable module per paper table/figure.

Every module exposes a ``run(...)`` function returning an
:class:`repro.experiments.common.ExperimentResult` (a rendered table plus a
flat dict of headline metrics) and can be executed directly::

    python -m repro.experiments fig11      # speedup over the five baselines
    python -m repro.experiments --list     # list every registered experiment
    python -m repro.experiments all        # run the full evaluation

The mapping from paper artefact to module lives in
:mod:`repro.experiments.registry` and in the per-experiment index of
DESIGN.md.
"""

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
]
