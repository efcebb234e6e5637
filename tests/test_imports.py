"""Importing the package must not load scipy; clustering loads it on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import numpy as np
import netrecon, netrecon.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import = scipy_modules()
from netrecon.reconstruct import Neurons, cluster_neurons
directions = np.eye(3)
cluster_neurons(Neurons(directions=directions, norms=np.ones(3), outgoing=np.zeros((3, 1)),
                        student=np.arange(3), index=np.zeros(3, dtype=int)), 3, 0.5, 3.0)
print(json.dumps({"at_import": at_import, "after_clustering": scipy_modules()}))
"""


def test_scipy_loads_only_when_clustering_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["at_import"] == []
    assert "scipy.cluster.hierarchy" in loaded["after_clustering"]
