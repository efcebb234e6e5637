"""Importing, clustering and matching must run on numpy alone, without loading
scipy; importing netrecon must not load the process pool, which only a pooled
`train-students` opens; every function the benchmark's tracer wraps must exist."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


def _printed(script):
    """What `script` prints as JSON, run in a fresh interpreter with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_clustering_and_matching_load_no_scipy():
    assert _printed(SCRIPT) == []


def test_import_loads_no_process_pool():
    assert _printed("import json, sys, netrecon, netrecon.cli; print(json.dumps(sorted("
                    "m for m in sys.modules if m.split('.')[0] in "
                    "('concurrent', 'multiprocessing', 'statistics'))))") == []


def test_every_traced_name_exists():
    # Tracer.install() raises AttributeError on a missing name, but only the
    # traced benchmark runs install it
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"netrecon.{module}"), name, None))]
    assert missing == []
