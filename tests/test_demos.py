"""The demos and the README example still match the current API.

Each quick demo runs from a copy in a temporary directory, so the CSVs that
demo 03 writes next to itself land there and not in the repository. Demos 04
and 05 take about a minute each, so they and the README example are only
parsed: every `nr.<name>` they use must exist, and every call must bind to
its signature. The README's example config must parse, and its list of
training keys must match `TrainConfig`.
"""

import ast
import inspect
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import netrecon
from netrecon import reconstruct, train
from netrecon.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
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


def _sources():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    for i, block in enumerate(blocks):
        yield pytest.param(block, id=f"README-{i}")
    for name in ("04_overfitting_diagnosis.py", "05_full_recovery.py"):
        yield pytest.param((DEMOS / name).read_text(), id=name)


def _nr_path(node) -> list[str] | None:
    """["a", "b"] for the expression `nr.a.b`, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return names[::-1] if isinstance(node, ast.Name) and node.id == "nr" else None


@pytest.mark.parametrize("source", _sources())
def test_api_references_resolve(source):
    for node in ast.walk(ast.parse(source)):
        path = _nr_path(node.func if isinstance(node, ast.Call) else node)
        if not path:
            continue
        obj = netrecon
        for name in path:
            assert hasattr(obj, name), f"line {node.lineno}: no nr.{'.'.join(path)}"
            obj = getattr(obj, name)
        if isinstance(node, ast.Call):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positional = [] if starred else [None] * len(node.args)
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            try:
                inspect.signature(obj).bind_partial(*positional, **keywords)
            except TypeError as exc:
                pytest.fail(f"line {node.lineno}: nr.{'.'.join(path)}: {exc}")


def test_readme_config_parses():
    # configparser keeps an inline `;` comment as part of the value
    blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0], source="README.md")
    assert (cfg.teacher.subset, cfg.query.spec.kind) == (5000, "biased_noise")


def test_readme_training_keys_match_train_config():
    readme = (ROOT / "README.md").read_text()
    paragraph = " ".join(readme.split("Every training section accepts")[1]
                         .split("\n\n")[0].split())
    named = re.findall(r"`(\w+)`", paragraph.split(". ")[0])
    assert named == [f.name for f in fields(train.TrainConfig)] + ["TrainConfig"]
    adam = re.search(r"beta1 = (\S+), beta2 = (\S+) and eps = (\S+);", paragraph)
    assert tuple(map(float, adam.groups())) == (train._BETA1, train._BETA2, train._EPS)
    floor = re.search(r"norm is below (\S+),", paragraph)
    assert float(floor.group(1)) == reconstruct._MIN_NORM
