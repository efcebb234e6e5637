"""Command-line front end: run the recovery pipeline from a declarative config.

Stages write their artifacts into one output directory so later stages can
pick them up: teacher.mlp, queries.qs, students/student_NN.mlp, then
reconstructed.mlp and report.csv. Exit codes: 0 success, 2 config or input
error, 3 training divergence, 4 empty reconstruction.

The output directory comes from --out, else the NETRECON_OUT environment
variable, else the config's [run] output_dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import nan
from statistics import median

from ._io import atomic_write_csv, atomic_write_text
from .augment import build
from .config import ExperimentConfig, load_config
from .data import ImageDataset, load_idx, load_queryset, save_queryset, standardize, subset
from .errors import ConfigError, DivergenceError, EmptyReconstructionError, NetreconError
from .metrics import scatter_table, write_losses_csv
from .network import Mlp, load_mlp, save_mlp
from .reconstruct import evaluate_reconstruction, run_reconstruction
from .train import accuracy, final_loss, iter_students, query_teacher, train_teacher

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_EMPTY_RECONSTRUCTION = 4

REPORT_COLUMNS = "method,r,N,m/r,avg_dw,max_dw,avg_da,max_da,Q"
HISTORY_COLUMNS = "step,loss,lr"


def _require_files(*paths: str) -> None:
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        raise ConfigError("missing input file(s): " + ", ".join(missing))


def _subset(ds: ImageDataset, k: int | None, seed: int, key: str) -> ImageDataset:
    """`subset` for the config key `key`; None keeps every sample."""
    if k is None:
        return ds
    if k > ds.n_samples:
        raise ConfigError(f"{key} = {k} exceeds the {ds.n_samples} training samples")
    return subset(ds, k, seed=seed)


def _teacher_training_set(cfg: ExperimentConfig) -> tuple[ImageDataset, float, float]:
    """Load, optionally subset, and standardize the teacher's training split."""
    _require_files(cfg.teacher.train_images, cfg.teacher.train_labels)
    ds = load_idx(cfg.teacher.train_images, cfg.teacher.train_labels)
    return standardize(_subset(ds, cfg.teacher.subset, cfg.seed, "[teacher] subset"))


def cmd_train_teacher(cfg: ExperimentConfig, out_dir: str) -> int:
    ds, mean, std = _teacher_training_set(cfg)
    teacher, history = train_teacher(ds, cfg.teacher.hidden, cfg.teacher.train)
    os.makedirs(out_dir, exist_ok=True)
    save_mlp(teacher, os.path.join(out_dir, "teacher.mlp"))
    atomic_write_csv(os.path.join(out_dir, "teacher_history.csv"), HISTORY_COLUMNS, history)
    acc = accuracy(teacher, ds)
    print(f"teacher: r={teacher.r} d={teacher.d} c={teacher.c} "
          f"samples={ds.n_samples} mean={mean:.6g} std={std:.6g}")
    print(f"teacher train accuracy: {acc:.4f}")
    print(f"teacher final loss: {final_loss(history):.6e}")
    return EXIT_OK


def cmd_build_queries(cfg: ExperimentConfig, out_dir: str) -> int:
    teacher_path = os.path.join(out_dir, "teacher.mlp")
    _require_files(teacher_path)
    teacher = load_mlp(teacher_path)
    ds, _, _ = _teacher_training_set(cfg)
    spec = cfg.query.spec
    ds = _subset(ds, cfg.query.base_subset, spec.seed, "[query] base_subset")
    if teacher.d != ds.d:
        raise ConfigError(
            f"teacher expects d={teacher.d} but dataset provides d={ds.d}"
        )
    if spec.grid_x is not None and (spec.grid_x > ds.width or spec.grid_y > ds.height):
        raise ConfigError(f"[query] grid_x = {spec.grid_x}, grid_y = {spec.grid_y} "
                          f"do not fit {ds.width}x{ds.height} images")
    aug = build(spec, ds)
    try:
        qs = query_teacher(teacher, aug)
    except ValueError as exc:  # teacher logits that overflow
        raise ConfigError(f"{teacher_path}: {exc}") from exc
    save_queryset(qs, os.path.join(out_dir, "queries.qs"))
    print(f"queries: Q={qs.Q} strategy={qs.provenance}")
    return EXIT_OK


def _student_files(out_dir: str, index: int) -> tuple[str, str]:
    """Model file and training-history file of the student in slot `index`."""
    stem = os.path.join(out_dir, "students", f"student_{index:02d}")
    return stem + ".mlp", stem + ".history.csv"


def _load_student(path: str, r: int, qs) -> Mlp:
    """A student model file, which must have width `r` and the query set's d and c."""
    net = load_mlp(path)
    if (net.r, net.d, net.c) != (r, qs.d, qs.c):
        raise ConfigError(f"{path}: student has r={net.r} d={net.d} c={net.c}, but the "
                          f"config and query set need r={r} d={qs.d} c={qs.c}")
    return net


def cmd_train_students(cfg: ExperimentConfig, out_dir: str, jobs: int = 1,
                       resume: bool = False) -> int:
    """Train the students, saving each one's history file and then its model file.

    `resume` skips slots that have both files, after loading and checking their
    model files. The ensemble CSVs are built from every slot's files, so they
    do not depend on what was resumed.
    """
    queries_path = os.path.join(out_dir, "queries.qs")
    _require_files(queries_path)
    qs = load_queryset(queries_path)
    scatter = _scatter_inputs(cfg, out_dir, qs) if cfg.eval_sets else None
    n = cfg.students.n
    r_student = cfg.students.rho * cfg.teacher.hidden
    os.makedirs(os.path.join(out_dir, "students"), exist_ok=True)

    files = [_student_files(out_dir, i) for i in range(n)]
    todo = [i for i in range(n) if not (resume and all(map(os.path.isfile, files[i])))]
    students = [None if i in todo else _load_student(files[i][0], r_student, qs)
                for i in range(n)]
    failures: dict[int, str] = {}
    for index, net, history, message in iter_students(qs, r_student, cfg.students.train,
                                                      todo, jobs):
        if net is None:
            # files left by an earlier run must not stand in for this student
            for path in filter(os.path.exists, files[index]):
                os.remove(path)
            failures[index] = message
            print(f"student {index}: DIVERGED ({message})", file=sys.stderr)
            continue
        atomic_write_csv(files[index][1], HISTORY_COLUMNS, history)
        save_mlp(net, files[index][0])
        students[index] = net

    summaries, history_rows = [], []
    for i in range(n):
        if i in failures:
            summaries.append((i, nan, 0, f"diverged: {failures[i]}"))
            continue
        with open(files[i][1]) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        history = [(int(step), float(loss), float(lr)) for step, loss, lr in rows]
        summaries.append((i, final_loss(history), history[-1][0], "trained"))
        history_rows += [(step, loss, lr, i) for step, loss, lr in history]
    atomic_write_csv(os.path.join(out_dir, "students", "losses.csv"),
                     HISTORY_COLUMNS + ",student_index", history_rows)
    atomic_write_csv(os.path.join(out_dir, "students", "ensemble_summary.csv"),
                     "student_index,final_loss,steps,status", summaries)

    finals = [loss for _, loss, _, status in summaries if status == "trained"]
    if finals:
        print(f"students: trained={len(finals)} final loss "
              f"min={min(finals):.3e} median={median(finals):.3e} max={max(finals):.3e}")
    if len(finals) < 2:
        print("fewer than two students trained; reconstruction is impossible",
              file=sys.stderr)
        return EXIT_DIVERGED
    if scatter:
        teacher, eval_sets = scatter
        rows = scatter_table(teacher, students, eval_sets)
        write_losses_csv(rows, os.path.join(out_dir, "losses.csv"))
        print(f"losses.csv: {len(rows)} rows over {len(eval_sets)} datasets")
    return EXIT_OK


def _scatter_inputs(cfg: ExperimentConfig, out_dir: str, qs) -> tuple[Mlp, list]:
    """The teacher and the (name, standardized inputs) sets that losses.csv scores."""
    teacher_path = os.path.join(out_dir, "teacher.mlp")
    _require_files(teacher_path)
    teacher = load_mlp(teacher_path)
    _, mean, std = _teacher_training_set(cfg)
    eval_sets = [("train", qs.inputs)]
    for name, images_path, labels_path in cfg.eval_sets:
        _require_files(images_path, labels_path)
        raw = load_idx(images_path, labels_path, name=name)
        if raw.d != teacher.d:
            raise ConfigError(f"[eval] {name}: {raw.height}x{raw.width} images, "
                              f"but the teacher takes d={teacher.d}")
        eval_sets.append((name, standardize(raw, stats=(mean, std))[0].images))
    return teacher, eval_sets


def _write_report(out_dir: str, method: str, r: int, n_students: int, report,
                  Q: int) -> None:
    """report.csv and report.txt; `report` None records an empty reconstruction."""
    lines = [f"method: {method}", f"students: {n_students}", f"Q: {Q}"]
    if report is None:
        scores = (0.0, nan, nan, nan, nan)
        lines.append("no accepted clusters; nothing reconstructed (m = 0)")
    else:
        scores = (report.m_over_r, report.avg_dw, report.max_dw, report.avg_da,
                  report.max_da)
        lines += [
            f"recovered neurons: m={report.m} of r={report.r} (m/r = {report.m_over_r:.3f})",
            f"input-weight cosine distance: avg {report.avg_dw:.3e}, max {report.max_dw:.3e}",
            f"output-weight cosine distance: avg {report.avg_da:.3e}, max {report.max_da:.3e}",
            "matched pairs (recon -> teacher: d_w, d_a):",
        ]
        lines += [
            f"  {p.recon_index:3d} -> {p.teacher_index:3d}: {p.dw:.3e}, {p.da:.3e}"
            for p in report.pairs
        ]
    atomic_write_csv(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS,
                     [(method, r, n_students, *scores, Q)])
    atomic_write_text(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")


def cmd_reconstruct(cfg: ExperimentConfig, out_dir: str) -> int:
    """Reconstruct from an ensemble of [students] n slots; a missing model file is a None slot."""
    teacher_path = os.path.join(out_dir, "teacher.mlp")
    queries_path = os.path.join(out_dir, "queries.qs")
    _require_files(teacher_path, queries_path)
    teacher = load_mlp(teacher_path)
    qs = load_queryset(queries_path)
    n = cfg.students.n
    r_student = cfg.students.rho * cfg.teacher.hidden
    paths = [_student_files(out_dir, i)[0] for i in range(n)]
    students = [_load_student(p, r_student, qs) if os.path.isfile(p) else None for p in paths]
    if sum(s is not None for s in students) < 2:
        raise ConfigError("need at least two trained students; run train-students first")

    try:
        tuned, _, history = run_reconstruction(students, qs, cfg.reconstruct.gamma,
                                               cfg.reconstruct.beta,
                                               cfg.reconstruct.fine_tune)
    except EmptyReconstructionError:
        _write_report(out_dir, qs.provenance, teacher.r, n, None, qs.Q)
        print("reconstruction: no accepted clusters (m = 0)", file=sys.stderr)
        return EXIT_EMPTY_RECONSTRUCTION
    report = evaluate_reconstruction(tuned, teacher)
    save_mlp(tuned, os.path.join(out_dir, "reconstructed.mlp"))
    atomic_write_csv(os.path.join(out_dir, "finetune_history.csv"), HISTORY_COLUMNS, history)
    _write_report(out_dir, qs.provenance, teacher.r, n, report, qs.Q)
    print(f"reconstruction: m/r={report.m_over_r:.3f} "
          f"avg_dw={report.avg_dw:.3e} max_dw={report.max_dw:.3e}")
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig, out_dir: str, jobs: int = 1,
                 resume: bool = False) -> int:
    # validate every referenced path up front: a missing input must not leave
    # partial outputs behind
    paths = [cfg.teacher.train_images, cfg.teacher.train_labels]
    for _, images_path, labels_path in cfg.eval_sets:
        paths += [images_path, labels_path]
    _require_files(*paths)
    for stage in (
        lambda: cmd_train_teacher(cfg, out_dir),
        lambda: cmd_build_queries(cfg, out_dir),
        lambda: cmd_train_students(cfg, out_dir, jobs=jobs, resume=resume),
        lambda: cmd_reconstruct(cfg, out_dir),
    ):
        code = stage()
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _resolve_out_dir(args, cfg: ExperimentConfig) -> str:
    return args.out or os.environ.get("NETRECON_OUT") or cfg.output_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netrecon",
        description="Recover hidden-layer weights of a one-hidden-layer network "
                    "from input-output queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("train-teacher", "fit the network to be recovered on its labeled dataset"),
        ("build-queries", "construct query inputs and label them with teacher logits"),
        ("train-students", "train the ensemble of over-wide imitators"),
        ("reconstruct", "cluster student neurons, collapse, fine-tune and report"),
        ("pipeline", "run all four stages in order"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="override the output directory")
        if name in ("train-students", "pipeline"):
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel student training processes")
            p.add_argument("--resume", action="store_true",
                           help="skip students whose model files already exist")
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = load_config(args.config)
        out_dir = _resolve_out_dir(args, cfg)
        if args.command == "train-teacher":
            return cmd_train_teacher(cfg, out_dir)
        if args.command == "build-queries":
            return cmd_build_queries(cfg, out_dir)
        if args.command == "train-students":
            return cmd_train_students(cfg, out_dir, jobs=args.jobs, resume=args.resume)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, out_dir)
        return cmd_pipeline(cfg, out_dir, jobs=args.jobs, resume=args.resume)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except NetreconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
