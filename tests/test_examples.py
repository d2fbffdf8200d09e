"""Every script under ``examples/`` runs to completion.

Each example runs in its own interpreter, as a reader would start it
(``PYTHONPATH=src python examples/<name>.py``), from an empty working
directory so a stray output file cannot land in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert {"quickstart.py", "workload_pipelines.py"} <= {
        path.name for path in EXAMPLES}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
