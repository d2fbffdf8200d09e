"""Every baseline's cost report, held to a frozen payload.

``baseline_reports.json`` holds each registered baseline's
``CostReport.to_dict()`` on one fixed operand (vectorized backend), frozen
from the ``BaselineSummary`` conversion that
:meth:`~repro.baselines.base.BaselineEngine.run` replaced.  Each
baseline's report must reproduce it exactly: same keys, in the same order
at every level, and the same values.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engines.registry import create_engine, get_engine_entry, list_engines
from repro.matrices.synthetic import powerlaw_matrix

FROZEN = json.loads(
    (Path(__file__).with_name("baseline_reports.json")).read_text())

BASELINES = [name for name in list_engines()
             if get_engine_entry(name).factory.kind == "baseline"]


def test_every_baseline_is_frozen():
    assert len(BASELINES) == 7
    assert list(FROZEN) == BASELINES


@pytest.mark.parametrize("name", BASELINES)
def test_report_matches_frozen_payload(name):
    matrix = powerlaw_matrix(80, 4.0, seed=11)
    engine = create_engine(name).using_backend("vectorized")
    report = engine.run(matrix).report
    # JSON text equality checks key order as well as keys and values.
    assert json.dumps(report.to_dict()) == json.dumps(FROZEN[name])
