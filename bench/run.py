"""netrecon benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `src/`, never
from an installed copy. The workload's inputs are generated from `--seed`
(set up several times before and after the timed work; `setup_s` is the
median), and whole iterations of its timed work run until `--seconds` would
be exceeded (at least one). Each iteration's outputs pass through the
workload's correctness gate.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics (medians over iterations). With `--trace 1` every
iteration is traced; the metrics are the per-layer figures (span
statistics, per iteration), the stage clocks and the tracer's own overhead.
The line before it is a JSON record with the machine facts, computed
counts, every iteration and every gate failure; the record is also written
to `.bench_work/results/`.

Thread-count variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS) are recorded as found and never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, load_spans, span_stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
# Set-up is timed in two windows, before and after the timed work, so that a
# burst of load on a shared machine does not move the median of a short set-up.
# Each window runs at least SETUP_REPEATS set-ups and until SETUP_SECONDS pass.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 100

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

NETWORK_STEP_FNS = ("forward", "backward_mse", "backprop_from_dout", "mse_loss",
                    "activation", "activation_prime")
CLI_STAGES = ("train-teacher", "build-queries", "train-students", "reconstruct")
PER_LAYER = {
    **{f"network.{fn}.{kind}": unit for fn in NETWORK_STEP_FNS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "network.step_flop": "flop",
    "network.backward_mse.gflops": "GFLOP/s",
    "network.load_mlp.calls": "count",
    "network.load_mlp.s": "s",
    "network.load_mlp.bytes": "bytes",
    "train.adam_step.calls": "count",
    "train.adam_step.self_s": "s",
    "train.adam_step.bytes": "bytes",
    "train.train_student.self_s": "s",
    "train.steps": "count",
    "train.evals": "count",
    "train.student_s.p50": "s",
    "train.student_s.max": "s",
    "train.ensemble.imbalance": "ratio",
    "train.ensemble.overhead_s": "s",
    "train.payload_bytes": "bytes",
    "train.diverged": "count",
    "train.students": "count",
    "train.train_teacher.s": "s",
    "train.query_teacher.s": "s",
    "student_steps_per_s": "1/s",
    "augment.build.s": "s",
    "augment.build.rows": "count",
    "augment.build.bytes": "bytes",
    "queries_s": "s",
    "data.save_queryset.s": "s",
    "data.save_queryset.mb_per_s": "MB/s",
    "data.load_queryset.s": "s",
    "data.load_queryset.mb_per_s": "MB/s",
    "data.load_idx.s": "s",
    **{f"reconstruct.{fn}.s": "s" for fn in ("extract_neurons", "cluster_neurons", "collapse",
                                            "fine_tune", "evaluate_reconstruction")},
    "reconstruct.cluster_neurons.rss_mb": "MB",
    "reconstruct.cluster_neurons.matrix_bytes": "bytes",
    "reconstruct.neurons": "count",
    "reconstruct.clusters": "count",
    "reconstruct.accepted_frac": "ratio",
    "reconstruct.fine_tune.steps": "count",
    "reconstruct_s": "s",
    "metrics.scatter_table.s": "s",
    "metrics.preactivation_variability.s": "s",
    "metrics.preactivation_histogram.s": "s",
    **{f"cli.{stage}.{kind}": unit for stage in CLI_STAGES
       for kind, unit in (("s", "s"), ("peak_rss_mb", "MB"))},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.processes": "count",
}


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {},
        "env": {name: os.environ.get(name) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in f
                                       if line.startswith("model name")), facts["cpu_model"])
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {key: blas.get(key) for key in
                         ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return facts


def cache_bytes(size: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else int(size or 0)


def layer_metrics(spans: list[dict], overhead_s: float, traced: list, described: dict) -> dict:
    """Per-layer figures and stage clocks, per traced iteration."""
    n_traced = len(traced)
    stats = span_stats(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def per(x):
        return x / n_traced

    def field(name, key):
        return stats.get(name, {}).get(key, 0)

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    m: dict[str, float] = {}
    for fn in NETWORK_STEP_FNS:
        m[f"network.{fn}.calls"] = per(field(f"network.{fn}", "calls"))
        m[f"network.{fn}.self_s"] = per(field(f"network.{fn}", "self_s"))
    m["network.step_flop"] = described["network.step_flop"]
    backward_s = field("network.backward_mse", "s")
    m["network.backward_mse.gflops"] = (
        attr_sum("network.backward_mse", "flop") / backward_s / 1e9 if backward_s else 0.0)
    m["network.load_mlp.calls"] = per(field("network.load_mlp", "calls"))
    m["network.load_mlp.s"] = per(field("network.load_mlp", "s"))
    m["network.load_mlp.bytes"] = per(attr_sum("network.load_mlp", "bytes"))

    m["train.adam_step.calls"] = per(field("train.adam_step", "calls"))
    m["train.adam_step.self_s"] = per(field("train.adam_step", "self_s"))
    m["train.adam_step.bytes"] = described["train.adam_step.bytes"]
    m["train.train_student.self_s"] = per(field("train.train_student", "self_s"))
    students = by_name.get("train.train_student", [])
    m["train.steps"] = per(attr_sum("train.train_student", "steps"))
    m["train.evals"] = per(attr_sum("train.train_student", "evals"))
    durations = [s["end"] - s["start"] for s in students]
    m["train.student_s.p50"] = median(durations)
    m["train.student_s.max"] = max(durations, default=0.0)
    mean = statistics.fmean(durations) if durations else 0.0
    m["train.ensemble.imbalance"] = max(durations) / mean if mean else 0.0
    # the ensemble's wall time: train_ensemble in process, or the CLI stage's
    # own time (its pool) once its in-process children are taken out
    ensemble_s = field("train.train_ensemble", "s") or field("cli.cmd_train_students", "self_s")
    m["train.ensemble.overhead_s"] = (
        per(ensemble_s - sum(durations) / described["jobs"]) if durations else 0.0)
    m["train.payload_bytes"] = described["train.payload_bytes"]
    m["train.diverged"] = per(sum(1 for s in students if "error" in s))
    m["train.students"] = per(len(students))
    m["train.train_teacher.s"] = per(field("train.train_teacher", "s"))
    m["train.query_teacher.s"] = per(field("train.query_teacher", "s"))
    m["student_steps_per_s"] = median(
        [it.student_steps / it.students_s for it in traced if it.students_s])

    m["augment.build.s"] = per(field("augment.build", "s"))
    m["augment.build.rows"] = per(attr_sum("augment.build", "rows"))
    m["augment.build.bytes"] = per(attr_sum("augment.build", "bytes"))
    m["queries_s"] = median([it.queries_s for it in traced if it.queries_s])

    for fn in ("save_queryset", "load_queryset"):
        seconds = field(f"data.{fn}", "s")
        m[f"data.{fn}.s"] = per(seconds)
        m[f"data.{fn}.mb_per_s"] = attr_sum(f"data.{fn}", "bytes") / seconds / 1e6 if seconds else 0.0
    m["data.load_idx.s"] = per(field("data.load_idx", "s"))

    for fn in ("extract_neurons", "cluster_neurons", "collapse", "fine_tune",
               "evaluate_reconstruction"):
        m[f"reconstruct.{fn}.s"] = per(field(f"reconstruct.{fn}", "s"))
    clusterings = by_name.get("reconstruct.cluster_neurons", [])
    m["reconstruct.cluster_neurons.rss_mb"] = max(
        (s["rss_after_mb"] - s["rss_before_mb"] for s in clusterings), default=0.0)
    m["reconstruct.cluster_neurons.matrix_bytes"] = per(
        attr_sum("reconstruct.cluster_neurons", "matrix_bytes"))
    m["reconstruct.neurons"] = per(attr_sum("reconstruct.cluster_neurons", "neurons"))
    clusters = attr_sum("reconstruct.cluster_neurons", "clusters")
    m["reconstruct.clusters"] = per(clusters)
    m["reconstruct.accepted_frac"] = (
        attr_sum("reconstruct.cluster_neurons", "accepted") / clusters if clusters else 0.0)
    m["reconstruct.fine_tune.steps"] = per(attr_sum("reconstruct.fine_tune", "steps"))
    m["reconstruct_s"] = median([it.reconstruct_s for it in traced if it.reconstruct_s])

    for fn in ("scatter_table", "preactivation_variability", "preactivation_histogram"):
        m[f"metrics.{fn}.s"] = per(field(f"metrics.{fn}", "s"))
    for stage in CLI_STAGES:
        ran = [it.stages[stage] for it in traced if stage in it.stages]
        m[f"cli.{stage}.s"] = median([st["s"] for st in ran])
        m[f"cli.{stage}.peak_rss_mb"] = median([st["peak_rss_mb"] for st in ran])

    m["trace.overhead_s"] = per(overhead_s)
    m["trace.spans"] = per(len(spans))
    # this process, plus the CLI stage processes and pool workers of one iteration
    m["trace.processes"] = 1 + per(len({s["pid"] for s in spans} - {os.getpid()}))
    return m


def run_benchmark(args) -> tuple[dict, dict]:
    import workloads  # imports netrecon, so only once src/ is on the path

    workload = workloads.WORKLOADS[args.workload](args.scale, beta=args.beta)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    trace_dir = work / "trace"
    tracer = Tracer(trace_dir)
    try:
        setup_times: list[float] = []

        def set_up():
            window: list[float] = []
            while len(window) < SETUP_REPEATS or (
                    sum(window) < SETUP_SECONDS and len(window) < SETUP_MAX_REPEATS):
                t0 = time.perf_counter()
                state = workload.setup(work / "inputs", args.seed)
                window.append(time.perf_counter() - t0)
            setup_times.extend(window)
            return state

        state = set_up()

        def launch_traced(stage, cli_args, log_path):
            with tracer.span(f"cli.{stage}") as span:
                return workloads.run_stage(cli_args, log_path, trace_dir, span["id"])

        def launch_plain(stage, cli_args, log_path):
            return workloads.run_stage(cli_args, log_path)

        def iterate(traced: bool):
            if traced:
                tracer.install()
            try:
                it = workload.run(state, launch_traced if traced else launch_plain)
            finally:
                tracer.uninstall()
            workload.check(state, it)
            return it

        iterations = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            iterations.append(iterate(bool(args.trace)))
            now = time.perf_counter()
            if now - start + (now - cycle_start) > args.seconds:
                break
        set_up()
        peak_rss_mb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        peak_rss_mb = max([peak_rss_mb] + [st["peak_rss_mb"] for it in iterations
                                            for st in it.stages.values()])
        described = workload.describe()
        if args.trace:
            spans, overhead_s = load_spans(tracer)
            metrics = layer_metrics(spans, overhead_s, iterations, described)
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": median([it.wall_s for it in iterations]),
                "setup_s": median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    facts = machine_facts()
    jobs = described.pop("jobs")
    working_set = dict(described.pop("working_set"))
    working_set["l3_bytes"] = cache_bytes(facts["caches"].get("L3", "0"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "machine": facts,
        "jobs": jobs,
        "computed": described,
        "working_set": working_set,
        "setup_s": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "iterations": [
            {"wall_s": it.wall_s, "student_steps": it.student_steps,
             "students_s": it.students_s, "reconstruct_s": it.reconstruct_s,
             "queries_s": it.queries_s, "stages": it.stages, "info": it.info,
             "failures": it.failures}
            for it in iterations
        ],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-pipeline", "wide-students", "cluster-bundle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal sizes for the smoke test")
    parser.add_argument("--beta", type=float, default=3.0,
                        help="clustering cut 10**-beta (a large value forces an empty "
                             "reconstruction)")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "netrecon" / "__init__.py").is_file():
        print(f"error: no netrecon sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import netrecon

    if Path(netrecon.__file__).resolve().parent != (SRC_DIR / "netrecon").resolve():
        print(f"error: netrecon imported from {netrecon.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2

    record, result = run_benchmark(args)
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results_dir / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
