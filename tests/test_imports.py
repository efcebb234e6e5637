"""Importing, clustering and matching must run on numpy alone, without loading scipy."""

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
from netrecon.network import init_mlp
from netrecon.reconstruct import Neurons, cluster_neurons, evaluate_reconstruction

directions = np.eye(3)
cluster_neurons(Neurons(directions=directions, norms=np.ones(3), outgoing=np.zeros((3, 1)),
                        student=np.arange(3), index=np.zeros(3, dtype=int)), 3, 0.5, 3.0)
evaluate_reconstruction(init_mlp(3, 4, 2, seed=0), init_mlp(5, 4, 2, seed=1))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_clustering_and_matching_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
