"""The benchmark's workloads: seeded inputs, the timed work, correctness gates.

Each workload has `setup(workdir, seed)`, which generates every input from
the seed and returns a state; `run(state, launch)`, the timed work, which
returns an `Iteration`; and `check(state, iteration)`, the correctness gate,
run after the timed work with tracing off. netrecon only ever receives the
generated inputs and configs.

Operations counted as attempted (and failed when their gate fails):
- desk-pipeline: each CLI stage (fails on a non-zero exit, e.g. 3 for
  divergence or 4 for an empty reconstruction), each student (fails when it
  diverged) and the recovery check;
- wide-students: each student (fails when it diverged or its final full-set
  loss is not finite and below its initial loss);
- cluster-bundle: each model file loaded and the recovery check.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import netrecon as nr

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


@dataclass
class Iteration:
    """One timed repetition of a workload."""

    wall_s: float = 0.0
    student_steps: int = 0  # Adam steps across the ensemble
    students_s: float = 0.0  # wall time of the students stage
    reconstruct_s: float = 0.0
    queries_s: float = 0.0
    stages: dict = field(default_factory=dict)  # CLI stage -> {"s", "peak_rss_mb", "exit"}
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def derive_seeds(seed: int, count: int) -> list[int]:
    """`count` independent seeds for the generated inputs, all from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def step_flop(B: int, d: int, r: int, c: int) -> int:
    """Matmul flops of one training step (computed): forward X@W.T and h@A.T,
    backward dout.T@h, dout@A and dpre.T@X."""
    return 4 * B * d * r + 6 * B * r * c


def adam_bytes(d: int, r: int, c: int) -> int:
    """Bytes of parameters, gradients and both Adam moments touched per step (computed)."""
    return 4 * 8 * (r * d + r + c * r + c)


def queryset_bytes(Q: int, d: int, c: int) -> int:
    """Float64 payload of a query set, which is what each worker task receives pickled."""
    return 8 * Q * (d + c)


class DeskPipeline:
    """The paper's recovery at desk shape, one `python -m netrecon` subprocess per stage."""

    name = "desk-pipeline"
    SIZES = {
        "full": dict(samples=4000, ood=1000, side=5, classes=10, teacher_r=4,
                     teacher_steps=2000, bases=2048, n=4, rho=4, steps=30000,
                     eval_every=500, ft_steps=15000),
        "tiny": dict(samples=400, ood=100, side=5, classes=10, teacher_r=4,
                     teacher_steps=100, bases=128, n=4, rho=4, steps=200,
                     eval_every=100, ft_steps=100),
    }
    STAGES = ("train-teacher", "build-queries", "train-students", "reconstruct")
    JOBS = 2
    BATCH = 256

    def __init__(self, scale: str = "full", beta: float = 3.0):
        self.p = self.SIZES[scale]
        self.beta = beta
        self.gamma = 0.75

    def describe(self) -> dict:
        p = self.p
        d, r, Q = p["side"] ** 2, p["rho"] * p["teacher_r"], 3 * p["bases"]
        return {
            "network.step_flop": step_flop(self.BATCH, d, r, p["classes"]),
            "train.adam_step.bytes": adam_bytes(d, r, p["classes"]),
            "train.payload_bytes": queryset_bytes(Q, d, p["classes"]),
            "reconstruct.cluster_neurons.matrix_bytes": (p["n"] * r) ** 2 * 8,
            "working_set": {"what": "query-set inputs", "bytes": 8 * Q * d},
            "jobs": self.JOBS,
        }

    def setup(self, workdir: Path, seed: int) -> dict:
        p = self.p
        s_train, s_ood, s_run = derive_seeds(seed, 3)
        workdir.mkdir(parents=True, exist_ok=True)
        train = nr.make_synthetic_classification(p["samples"], p["side"], p["side"],
                                                 p["classes"], seed=s_train)
        nr.save_idx(train, str(workdir / "train-images.idx"), str(workdir / "train-labels.idx"))
        ood = nr.make_synthetic_classification(p["ood"], p["side"], p["side"], p["classes"],
                                               style="stripes", seed=s_ood)
        nr.save_idx(ood, str(workdir / "ood-images.idx"), str(workdir / "ood-labels.idx"))
        config = workdir / "run.ini"
        config.write_text(DESK_CONFIG.format(
            root=workdir, seed=s_run % 2**31, gamma=self.gamma, beta=self.beta, **p))
        return {"workdir": workdir, "config": config, "runs": 0}

    def run(self, state: dict, launch) -> Iteration:
        state["runs"] += 1
        out = state["workdir"] / f"out-{state['runs']}"
        it = Iteration()
        t0 = time.perf_counter()
        for stage in self.STAGES:
            args = [stage, "--config", str(state["config"]), "--out", str(out)]
            if stage == "train-students":
                args += ["--jobs", str(self.JOBS)]
            code, seconds, rss_mb = launch(stage, args, out.parent / f"{out.name}-{stage}.log")
            it.stages[stage] = {"s": seconds, "peak_rss_mb": rss_mb, "exit": code}
            it.attempted += 1
            if code != 0:
                it.fail(f"cli {stage} exited {code}")
                break
        it.wall_s = time.perf_counter() - t0
        it.info["out"] = str(out)
        if "train-students" in it.stages:
            it.students_s = it.stages["train-students"]["s"]
        if "reconstruct" in it.stages:
            it.reconstruct_s = it.stages["reconstruct"]["s"]
        if "build-queries" in it.stages:
            it.queries_s = it.stages["build-queries"]["s"]
        return it

    def check(self, state: dict, it: Iteration) -> None:
        p = self.p
        out = Path(it.info.pop("out"))
        summary = out / "students" / "ensemble_summary.csv"
        statuses = {}
        if summary.is_file():
            with open(summary, newline="") as f:
                statuses = {int(row["student_index"]): row for row in csv.DictReader(f)}
        for i in range(p["n"]):
            it.attempted += 1
            row = statuses.get(i)
            if row is None or row["status"] != "trained":
                it.fail(f"student {i}: {row['status'] if row else 'not trained'}")
            else:
                it.student_steps += int(row["steps"])
        it.attempted += 1  # the recovery check
        if any(stage["exit"] != 0 for stage in it.stages.values()):
            it.fail("recovery: not checked, a stage failed")
            return
        try:
            teacher = nr.load_mlp(str(out / "teacher.mlp"))
            nr.load_queryset(str(out / "queries.qs"))
            for i in range(p["n"]):
                path = out / "students" / f"student_{i:02d}.mlp"
                if path.is_file():
                    nr.load_mlp(str(path))
            recon = nr.load_mlp(str(out / "reconstructed.mlp"))
        except (OSError, nr.FormatError) as exc:
            it.fail(f"artifact does not reload: {exc}")
            return
        report = nr.evaluate_reconstruction(recon, teacher)
        it.info.update(m_over_r=report.m_over_r, max_dw=report.max_dw)
        if report.m < report.r or not report.max_dw < 10.0 ** -self.beta:
            it.fail(f"recovery: m/r={report.m_over_r:.3f} max_dw={report.max_dw:.3e} "
                    f"(needs m >= r and max_dw < {10.0 ** -self.beta:g})")


DESK_CONFIG = """\
[run]
seed = {seed}
output_dir = {root}/out

[teacher]
train_images = {root}/train-images.idx
train_labels = {root}/train-labels.idx
hidden = {teacher_r}
learning_rate = 0.01
batch_size = 128
max_steps = {teacher_steps}
eval_every = 250

[query]
strategy = biased_noise
base_subset = {bases}
magnitude = 1.0

[students]
n = {n}
rho = {rho}
learning_rate = 0.02
batch_size = 256
max_steps = {steps}
eval_every = {eval_every}
plateau_patience = 6
plateau_factor = 0.3
plateau_threshold = 0.001
plateau_min_lr = 1e-8

[reconstruct]
gamma = {gamma}
beta = {beta}
learning_rate = 0.003
batch_size = 1024
max_steps = {ft_steps}
eval_every = 500
plateau_patience = 6
plateau_factor = 0.3
plateau_threshold = 0.001
plateau_min_lr = 1e-10

[eval]
ood = {root}/ood-images.idx, {root}/ood-labels.idx
"""


class WideStudents:
    """Query construction, teacher diagnostics and an ensemble at the paper's width (d=784)."""

    name = "wide-students"
    SIZES = {
        "full": dict(bases=1000, side=28, classes=10, teacher_r=512, count=2048, n=2,
                     rho=4, steps=40, eval_every=40, bins=80),
        "tiny": dict(bases=50, side=28, classes=10, teacher_r=16, count=64, n=2,
                     rho=4, steps=4, eval_every=2, bins=20),
    }
    JOBS = 2
    BATCH = 256

    def __init__(self, scale: str = "full", beta: float = 3.0):
        self.p = self.SIZES[scale]

    def describe(self) -> dict:
        p = self.p
        d, r, Q = p["side"] ** 2, p["rho"] * p["teacher_r"], 3 * p["count"]
        return {
            "network.step_flop": step_flop(self.BATCH, d, r, p["classes"]),
            "train.adam_step.bytes": adam_bytes(d, r, p["classes"]),
            "train.payload_bytes": queryset_bytes(Q, d, p["classes"]),
            "reconstruct.cluster_neurons.matrix_bytes": 0,
            "working_set": {"what": "query-set inputs", "bytes": 8 * Q * d},
            "jobs": self.JOBS,
        }

    def setup(self, workdir: Path, seed: int) -> dict:
        p = self.p
        s_base, s_teacher, s_query, s_students = derive_seeds(seed, 4)
        workdir.mkdir(parents=True, exist_ok=True)
        base = nr.make_synthetic_classification(p["bases"], p["side"], p["side"],
                                                p["classes"], seed=s_base)
        base, _, _ = nr.standardize(base)
        teacher = nr.init_mlp(p["teacher_r"], p["side"] ** 2, p["classes"], seed=s_teacher)
        spec = nr.AugmentationSpec(kind="grid_biased_noise", grid_x=2, grid_y=2,
                                   count=p["count"], magnitude=1.0, seed=s_query)
        cfg = nr.TrainConfig(learning_rate=1e-3, batch_size=self.BATCH, max_steps=p["steps"],
                             eval_every=p["eval_every"], seed=s_students % 2**31)
        return {"workdir": workdir, "base": base, "teacher": teacher, "spec": spec, "cfg": cfg}

    def run(self, state: dict, launch) -> Iteration:
        p = self.p
        it = Iteration()
        path = str(state["workdir"] / "queries.qs")
        t0 = time.perf_counter()
        aug = nr.build(state["spec"], state["base"])
        qs = nr.query_teacher(state["teacher"], aug)
        nr.save_queryset(qs, path)
        qs = nr.load_queryset(path)
        t1 = time.perf_counter()
        nr.preactivation_variability(state["teacher"], qs.inputs)
        nr.preactivation_histogram(state["teacher"], qs.inputs, bins=p["bins"])
        t2 = time.perf_counter()
        ensemble = nr.train_ensemble(qs, p["teacher_r"], p["rho"], p["n"], state["cfg"],
                                     jobs=self.JOBS)
        t3 = time.perf_counter()
        it.wall_s, it.queries_s, it.students_s = t3 - t0, t1 - t0, t3 - t2
        it.info["ensemble"] = ensemble
        return it

    def check(self, state: dict, it: Iteration) -> None:
        ensemble = it.info.pop("ensemble")
        for i, (net, history) in enumerate(zip(ensemble.students, ensemble.histories)):
            it.attempted += 1
            if net is None:
                it.fail(f"student {i} diverged")
                continue
            it.student_steps += history[-1][0]
            initial, final = history[0][1], history[-1][1]
            if not (np.isfinite(final) and final < initial):
                it.fail(f"student {i}: final loss {final:.3e} vs initial {initial:.3e}")
        it.info["final_losses"] = [float(x) for x in ensemble.final_losses]


class ClusterBundle:
    """Reconstruction at scale from a synthetic student bundle, with no training."""

    name = "cluster-bundle"
    SIZES = {
        "full": dict(n=16, teacher_r=96, rho=4, d=784, classes=10),
        "tiny": dict(n=4, teacher_r=8, rho=4, d=784, classes=10),
    }
    NOISE = 1e-6  # relative perturbation of each copied teacher neuron

    def __init__(self, scale: str = "full", beta: float = 3.0):
        self.p = self.SIZES[scale]
        self.beta = beta
        self.gamma = 0.75

    def describe(self) -> dict:
        p = self.p
        n = p["n"] * p["rho"] * p["teacher_r"]
        return {
            "network.step_flop": 0,
            "train.adam_step.bytes": 0,
            "train.payload_bytes": 0,
            "reconstruct.cluster_neurons.matrix_bytes": n * n * 8,
            "working_set": {"what": "dense cosine-distance matrix", "bytes": n * n * 8},
            "jobs": 1,
        }

    def setup(self, workdir: Path, seed: int) -> dict:
        """Students where every teacher neuron is copied at least once, with its
        outgoing weight split between the copies; the other half of each
        student's neurons are random directions with no outgoing weight."""
        p = self.p
        r, d, c = p["teacher_r"], p["d"], p["classes"]
        width = p["rho"] * r
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        W = rng.uniform(-1.0, 1.0, size=(r, d)) / np.sqrt(d)
        teacher = nr.Mlp(W=W, b=rng.normal(0.0, 0.1, size=r),
                         A=rng.uniform(-1.0, 1.0, size=(c, r)) / np.sqrt(r),
                         c_out=rng.normal(0.0, 0.1, size=c))
        wb = np.hstack([teacher.W, teacher.b[:, None]])
        paths = []
        n_copies = width // 2
        for k in range(p["n"]):
            source = np.concatenate([np.arange(r), rng.integers(0, r, size=n_copies - r)])
            noise = rng.normal(size=(n_copies, d + 1))
            scale = self.NOISE * np.linalg.norm(wb[source], axis=1) / np.sqrt(d + 1)
            copies = wb[source] + scale[:, None] * noise
            # each copy gets a positive share of its teacher neuron's outgoing weight
            share = rng.uniform(0.5, 1.5, size=n_copies)
            share /= np.bincount(source, weights=share, minlength=r)[source]
            A_copies = teacher.A[:, source] * share
            random_dirs = rng.normal(size=(width - n_copies, d + 1)) / np.sqrt(d + 1)
            order = rng.permutation(width)
            rows = np.vstack([copies, random_dirs])[order]
            A = np.hstack([A_copies, np.zeros((c, width - n_copies))])[:, order]
            student = nr.Mlp(W=rows[:, :d], b=rows[:, d], A=A, c_out=teacher.c_out)
            path = workdir / f"student_{k:02d}.mlp"
            nr.save_mlp(student, str(path))
            paths.append(str(path))
        return {"workdir": workdir, "teacher": teacher, "paths": paths}

    def run(self, state: dict, launch) -> Iteration:
        p = self.p
        it = Iteration()
        t0 = time.perf_counter()
        students = [nr.load_mlp(path) for path in state["paths"]]
        vectors = nr.extract_neurons(students)
        result = nr.cluster_neurons(vectors, len(students), self.gamma, self.beta)
        report = None
        if any(result.accepted):
            bias = np.mean([s.c_out for s in students], axis=0)
            collapsed = nr.collapse(result, p["d"], p["classes"], output_bias=bias)
            report = nr.evaluate_reconstruction(collapsed, state["teacher"])
        it.wall_s = it.reconstruct_s = time.perf_counter() - t0
        it.attempted += len(students)
        it.info["report"] = report
        return it

    def check(self, state: dict, it: Iteration) -> None:
        report = it.info.pop("report")
        it.attempted += 1
        if report is None:
            it.fail("recovery: no accepted clusters")
            return
        it.info.update(m_over_r=report.m_over_r, max_dw=report.max_dw)
        if report.m != report.r or not report.max_dw < 1e-3:
            it.fail(f"recovery: m/r={report.m_over_r:.3f} max_dw={report.max_dw:.3e} "
                    "(needs m/r = 1 and max_dw < 1e-3)")


WORKLOADS = {w.name: w for w in (DeskPipeline, WideStudents, ClusterBundle)}


def run_stage(args: list[str], log_path: Path, trace_dir: Path | None = None,
              parent_span: str | None = None) -> tuple[int, float, float]:
    """Run one netrecon CLI command as a subprocess of the benchmark.

    Returns (exit code, wall seconds, peak RSS in MB). The command is started
    through `spawn.py`, whose `wait4` peak covers the stage process and the
    pool workers it reaped. With `trace_dir` the command goes through
    `launch.py`, which installs the tracer before calling `netrecon.cli.main`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if trace_dir is None:
        cmd = [sys.executable, "-m", "netrecon", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(trace_dir),
               parent_span or "", "--", *args]
    done = subprocess.run([sys.executable, "-S", str(BENCH_DIR / "spawn.py"), str(log_path),
                           "--", *cmd], env=env, capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    return report["exit"], report["s"], report["peak_rss_mb"]
