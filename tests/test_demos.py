"""The quick demos still run against the current API.

Each demo runs from a copy in a temporary directory, so the CSVs that demo 03
writes next to itself land there and not in the repository. Demos 04 and 05
take about a minute each and are left out.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import netrecon

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(netrecon.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_network_basics.py", "02_query_strategies.py",
                                  "03_variability_diagnostics.py"])
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
