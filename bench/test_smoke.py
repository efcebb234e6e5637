"""Smoke test of the benchmark at its smallest size.

    python -m pytest bench/test_smoke.py -q

Runs every workload with `--scale tiny`, traced and untraced, and checks
that each metric BENCHMARK.json names is emitted with its unit. Forces an
empty reconstruction (beta = 9) to check that it is counted as a failed
operation, not raised. Checks that without the package sources the
benchmark fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seconds", "1", "--seed", "3", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, section):
    result = last_json(run_bench("--workload", workload, "--trace", str(trace),
                                 "--scale", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_empty_reconstruction_counts_as_failed_operation():
    done = run_bench("--workload", "desk-pipeline", "--trace", "0", "--scale", "tiny",
                     "--beta", "9")
    result = last_json(done)
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    failures = [f for it in record["iterations"] for f in it["failures"]]
    assert "cli reconstruct exited 4" in failures
    assert result["failed"] >= 1 and result["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path,
                     script=tmp_path / SPEC["command"][1])
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
