"""Importing, clustering and matching must run on numpy alone, without loading
scipy; importing netrecon must not load the process pool, which only a pooled
`train-students` opens; every function the benchmark's tracer wraps must exist;
and the package holds no unused import and no private name that nothing uses."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted((SRC / "netrecon").glob("*.py"))}

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


def _used(tree):
    """The names a module reads, and the attributes it reads of anything."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_unused_import():
    # __init__.py imports to re-export
    unused = [f"{module}: {alias.asname or alias.name.split('.')[0]}"
              for module, tree in PACKAGE.items() if module != "__init__.py"
              for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in _used(tree)]
    assert unused == []


def _defined(tree):
    """The names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def test_every_private_name_is_used():
    # a module-level private function, class or constant that no module reads or imports
    used = set().union(*map(_used, PACKAGE.values())) | {
        alias.name for tree in PACKAGE.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = [f"{module}: {name}" for module, tree in PACKAGE.items()
               for name in _defined(tree) if name.startswith("_") and name not in used
               and not (name.startswith("__") and name.endswith("__"))]
    assert orphans == []
