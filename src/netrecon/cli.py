"""Command-line front end: run the recovery pipeline from a declarative config.

Stages write their artifacts into one output directory so later stages can pick them
up: teacher.mlp, queries.qs, students/student_NN.mlp, then reconstructed.mlp and
report.csv. students/queries.crc32 records, one a line, the CRC32 of the query set the
students there were fitted to and their [students] training settings; a stage that reads
students refuses them under any other record, and one that reads teacher.mlp with
queries.qs refuses a teacher that does not reproduce the targets of its first rows. Each
stage refuses a directory at an output path before it loads anything, and removes its
earlier outputs just before its first write, so a failed stage never leaves old and new
artifacts side by side. A missing input is refused by its load, whose OSError names the
path; only `pipeline` checks its datasets up front, before any stage writes. Exit codes:
0 success, 2 config or input error or a file-system error on any file a stage reads or
writes (permission bits and full disks are untested), 3 training divergence, 4 empty
reconstruction.

The output directory comes from --out, else the NETRECON_OUT environment
variable, else the config's [run] output_dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import nan

import numpy as np

from ._io import atomic_write_csv, atomic_write_text, container_crc
from .augment import build
from .config import ExperimentConfig, load_config
from .data import ImageDataset, load_idx, load_queryset, save_queryset, standardize, subset
from .errors import ConfigError, DivergenceError, EmptyReconstructionError, NetreconError
from .metrics import scatter_table, write_losses_csv
from .network import Mlp, _outputs, _row_blocks, load_mlp, save_mlp
from .reconstruct import evaluate_reconstruction, run_reconstruction
from .train import (HistoryPoint, _one_blas_thread, accuracy, final_loss, iter_students,
                    query_teacher, train_teacher)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_EMPTY_RECONSTRUCTION = 4

REPORT_COLUMNS = "method,r,N,m/r,avg_dw,max_dw,avg_da,max_da,Q"
HISTORY_COLUMNS = "step,loss,lr"


def _refuse_directories(*paths: str) -> None:
    """Refuse a directory at any of a stage's output `paths`; a stage calls this before it
    loads or computes anything, and `_clear` again just before its first write."""
    for path in filter(os.path.isdir, paths):
        raise IsADirectoryError(f"{path}: a directory stands where an output file goes")


def _clear(*paths: str) -> None:
    """Remove what an earlier run left at a stage's output `paths`, just before its first
    write; a directory at any of them is refused before anything is removed."""
    _refuse_directories(*paths)
    for path in filter(os.path.lexists, paths):
        os.remove(path)


def _subset(ds: ImageDataset, k: int | None, seed: int, key: str) -> ImageDataset:
    """`subset` for the config key `key`; None keeps every sample."""
    if k is None:
        return ds
    if k > ds.n_samples:
        raise ConfigError(f"{key} = {k} exceeds the {ds.n_samples} training samples")
    return subset(ds, k, seed=seed)


def _teacher_training_set(cfg: ExperimentConfig) -> tuple[ImageDataset, float, float]:
    """Load, optionally subset, and standardize the teacher's training split."""
    ds = load_idx(cfg.teacher.train_images, cfg.teacher.train_labels)
    return standardize(_subset(ds, cfg.teacher.subset, cfg.seed, "[teacher] subset"))


def cmd_train_teacher(cfg: ExperimentConfig, out_dir: str) -> int:
    paths = [os.path.join(out_dir, name) for name in ("teacher.mlp", "teacher_history.csv")]
    _refuse_directories(*paths)
    ds, mean, std = _teacher_training_set(cfg)
    teacher, history = train_teacher(ds, cfg.teacher.hidden, cfg.teacher.train)
    _clear(*paths)
    save_mlp(teacher, paths[0])
    atomic_write_csv(paths[1], HISTORY_COLUMNS, history)
    acc = accuracy(teacher, ds)
    print(f"teacher: r={teacher.r} d={teacher.d} c={teacher.c} "
          f"samples={ds.n_samples} mean={mean:.6g} std={std:.6g}")
    print(f"teacher train accuracy: {acc:.4f}")
    print(f"teacher final loss: {final_loss(history):.6e}")
    return EXIT_OK


def cmd_build_queries(cfg: ExperimentConfig, out_dir: str) -> int:
    teacher_path = os.path.join(out_dir, "teacher.mlp")
    queries_path = os.path.join(out_dir, "queries.qs")
    _refuse_directories(queries_path)
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
    _clear(queries_path)
    save_queryset(qs, queries_path)
    print(f"queries: Q={qs.Q} strategy={qs.provenance}")
    return EXIT_OK


def _student_files(out_dir: str, index: int) -> tuple[str, str]:
    """Model file and training-history file of the student in slot `index`."""
    stem = os.path.join(out_dir, "students", f"student_{index:02d}")
    return stem + ".mlp", stem + ".history.csv"


def _load_teacher(path: str, qs) -> Mlp:
    """The teacher model file, which must take the query set's d, give its c and
    reproduce its targets on the first row block within 1e-9 of the block's
    largest |target|, a margin that another BLAS build's rounding stays far below."""
    net = load_mlp(path)
    if (net.d, net.c) != (qs.d, qs.c):
        raise ConfigError(f"{path}: teacher has d={net.d} c={net.c}, but the "
                          f"query set has d={qs.d} c={qs.c}")
    rows = _row_blocks(qs.Q)[0]
    targets = qs.targets[rows]
    with _one_blas_thread(), np.errstate(over="ignore"):
        gap = np.max(np.abs(_outputs(net, qs.inputs[rows]) - targets))
    if not gap <= 1e-9 * np.max(np.abs(targets)):
        raise ConfigError(f"{path}: the teacher does not reproduce the query set's targets "
                          f"(largest gap {gap:.3e} on its first {rows.stop} rows); it did "
                          f"not label this queries.qs")
    return net


def _read_history(path: str) -> list[HistoryPoint]:
    """A student's history file as written by `cmd_train_students`: a header
    and at least one (step, loss, lr) row."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        history = [(int(step), float(loss), float(lr))
                   for step, loss, lr in (line.split(",") for line in lines[1:])]
    except ValueError as exc:  # no UTF-8, a row of the wrong width, no number
        raise ConfigError(f"{path}: unreadable training history: {exc}") from exc
    if lines[:1] != [HISTORY_COLUMNS] or not history:
        raise ConfigError(f"{path}: training history needs the header "
                          f"'{HISTORY_COLUMNS}' and at least one row")
    return history


def _record(cfg: ExperimentConfig, out_dir: str) -> tuple[str, list[str]]:
    """students/queries.crc32 and the lines it holds for this run: the CRC32 of queries.qs
    and the repr of the [students] training settings. n and rho are left out, so a resume
    may grow the ensemble, and the students' shape check covers rho."""
    crc = container_crc(os.path.join(out_dir, "queries.qs"))
    return (os.path.join(out_dir, "students", "queries.crc32"),
            [f"{crc:08x}", repr(cfg.students.train)])


def _students(cfg: ExperimentConfig, out_dir: str, qs, slots: list[int],
              resume: bool = False) -> list[Mlp | None]:
    """The student models of `slots` in `out_dir`, None in every other [students] slot.

    Each must be rho * hidden wide and take the query set's d and c. When any is loaded,
    students/queries.crc32 must hold what `_record` gives, so the students were fitted to
    this queries.qs under these settings; `resume` words the refusal for kept students.
    Bytes that are no UTF-8 are replaced, so a garbled record is refused as a mismatch.
    """
    r = cfg.students.rho * cfg.teacher.hidden
    students: list[Mlp | None] = [None] * cfg.students.n
    for i in slots:
        path = _student_files(out_dir, i)[0]
        net = students[i] = load_mlp(path)
        if (net.r, net.d, net.c) != (r, qs.d, qs.c):
            raise ConfigError(f"{path}: student has r={net.r} d={net.d} c={net.c}, but the "
                              f"config and query set need r={r} d={qs.d} c={qs.c}")
    if not slots:
        return students
    path, (crc, settings) = _record(cfg, out_dir)
    try:
        with open(path, "rb") as f:
            recorded_crc, *recorded = f.read().decode("utf-8", "replace").splitlines() or [""]
    except FileNotFoundError:
        recorded_crc, recorded = "", []
    except OSError as exc:  # a directory, say
        raise ConfigError(f"{path}: cannot read the query-set record: {exc}") from exc
    who, again = (("the kept students", "train them again without --resume") if resume
                  else ("the students", "run train-students again"))
    if recorded_crc != crc:
        raise ConfigError(f"{path}: {who} were fitted to the query set with CRC32 "
                          f"{recorded_crc or 'unrecorded'}, but "
                          f"{os.path.join(out_dir, 'queries.qs')} has {crc}; {again}")
    if recorded != [settings]:
        raise ConfigError(f"{path}: {who} were fitted under [students] settings "
                          f"{' '.join(recorded) or 'unrecorded'}, but the config has "
                          f"{settings}; {again}")
    return students


def cmd_train_students(cfg: ExperimentConfig, out_dir: str, jobs: int = 1,
                       resume: bool = False) -> int:
    """Train the students, saving each one's history file and then its model file.

    `resume` keeps slots that have both files, after reading their histories and
    checking their models with `_students` before any student trains. The files of
    every other slot, the ensemble CSVs and losses.csv are deleted, and the record
    rewritten, before the first student trains, so every student file left matches the
    record. The ensemble CSVs are built from every slot's history, so they do not
    depend on what was resumed.
    """
    qs = load_queryset(os.path.join(out_dir, "queries.qs"))
    scatter = _scatter_inputs(cfg, out_dir, qs) if cfg.eval_sets else None
    n = cfg.students.n
    files = [_student_files(out_dir, i) for i in range(n)]
    kept = [i for i in range(n) if resume and all(map(os.path.isfile, files[i]))]
    histories = {i: _read_history(files[i][1]) for i in kept}
    students = _students(cfg, out_dir, qs, kept, resume)
    todo = [i for i in range(n) if i not in kept]
    record, lines = _record(cfg, out_dir)
    tables = [os.path.join(out_dir, *name) for name in (
        ("students", "losses.csv"), ("students", "ensemble_summary.csv"), ("losses.csv",))]
    _clear(*(path for i in todo for path in files[i]), *tables, record)
    atomic_write_text(record, "\n".join(lines) + "\n")
    failures: dict[int, str] = {}
    for index, net, history, message in iter_students(
            qs, cfg.students.rho * cfg.teacher.hidden, cfg.students.train, todo, jobs):
        if net is None:
            failures[index] = message
            print(f"student {index}: DIVERGED ({message})", file=sys.stderr)
            continue
        atomic_write_csv(files[index][1], HISTORY_COLUMNS, history)
        save_mlp(net, files[index][0])
        students[index] = net
        histories[index] = history

    summaries, history_rows = [], []
    for i in range(n):
        if i in failures:
            summaries.append((i, nan, 0, f"diverged: {failures[i]}"))
            continue
        history = histories[i]
        summaries.append((i, final_loss(history), history[-1][0], "trained"))
        history_rows += [(step, loss, lr, i) for step, loss, lr in history]
    atomic_write_csv(tables[0], HISTORY_COLUMNS + ",student_index", history_rows)
    atomic_write_csv(tables[1], "student_index,final_loss,steps,status", summaries)

    finals = [loss for _, loss, _, status in summaries if status == "trained"]
    if finals:
        print(f"students: trained={len(finals)} final loss "
              f"min={min(finals):.3e} median={np.median(finals):.3e} max={max(finals):.3e}")
    if len(finals) < 2:
        print("fewer than two students trained; reconstruction is impossible",
              file=sys.stderr)
        return EXIT_DIVERGED
    if scatter:
        teacher, eval_sets = scatter
        rows = scatter_table(teacher, students, eval_sets)
        write_losses_csv(rows, tables[2])
        print(f"losses.csv: {len(rows)} rows over {len(eval_sets)} datasets")
    return EXIT_OK


def _scatter_inputs(cfg: ExperimentConfig, out_dir: str, qs) -> tuple[Mlp, list]:
    """The teacher and the (name, standardized inputs) sets that losses.csv scores."""
    teacher = _load_teacher(os.path.join(out_dir, "teacher.mlp"), qs)
    _, mean, std = _teacher_training_set(cfg)
    eval_sets = [("train", qs.inputs)]
    for name, images_path, labels_path in cfg.eval_sets:
        raw = load_idx(images_path, labels_path, name=name)
        if raw.d != teacher.d:
            raise ConfigError(f"[eval] {name}: {raw.height}x{raw.width} images, "
                              f"but the teacher takes d={teacher.d}")
        eval_sets.append((name, standardize(raw, stats=(mean, std))[0].images))
    return teacher, eval_sets


def _write_report(out_dir: str, qs, r: int, n_students: int, report,
                  relative_loss: float = nan) -> None:
    """report.csv and report.txt of a reconstruction from `qs`; `report` None records an
    empty reconstruction."""
    lines = [f"method: {qs.provenance}", f"students: {n_students}", f"Q: {qs.Q}"]
    if report is None:
        scores = (0.0, nan, nan, nan, nan)
        lines.append("no accepted clusters; nothing reconstructed (m = 0)")
    else:
        scores = (report.m_over_r, report.avg_dw, report.max_dw, report.avg_da,
                  report.max_da)
        lines += [
            f"fine-tuned loss / mean squared target: {relative_loss:.3e}",
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
                     [(qs.provenance, r, n_students, *scores, qs.Q)])
    atomic_write_text(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")


def cmd_reconstruct(cfg: ExperimentConfig, out_dir: str) -> int:
    """Reconstruct from an ensemble of [students] n slots; a slot with no model file is
    None. `_students` loads and checks the rest before any clustering."""
    outputs = [os.path.join(out_dir, name) for name in (
        "reconstructed.mlp", "finetune_history.csv", "report.csv", "report.txt")]
    _refuse_directories(*outputs)
    qs = load_queryset(os.path.join(out_dir, "queries.qs"))
    teacher = _load_teacher(os.path.join(out_dir, "teacher.mlp"), qs)
    n = cfg.students.n
    slots = [i for i in range(n) if os.path.exists(_student_files(out_dir, i)[0])]
    students = _students(cfg, out_dir, qs, slots)
    if len(slots) < 2:
        raise ConfigError("need at least two trained students; run train-students first")

    try:
        tuned, _, history = run_reconstruction(students, qs, cfg.reconstruct.gamma,
                                               cfg.reconstruct.beta,
                                               cfg.reconstruct.fine_tune)
    except EmptyReconstructionError:
        tuned = None
    _clear(*outputs)
    if tuned is None:
        _write_report(out_dir, qs, teacher.r, n, None)
        print("reconstruction: no accepted clusters (m = 0)", file=sys.stderr)
        return EXIT_EMPTY_RECONSTRUCTION
    report = evaluate_reconstruction(tuned, teacher)
    # the teacher-free signal: 0 for a perfect imitation, 1 for the zero net
    target_power = float(np.sum(np.square(qs.targets))) / qs.Q
    relative_loss = final_loss(history) / target_power if target_power > 0 else nan
    save_mlp(tuned, outputs[0])
    atomic_write_csv(outputs[1], HISTORY_COLUMNS, history)
    _write_report(out_dir, qs, teacher.r, n, report, relative_loss)
    print(f"reconstruction: m/r={report.m_over_r:.3f} "
          f"avg_dw={report.avg_dw:.3e} max_dw={report.max_dw:.3e} "
          f"relative_loss={relative_loss:.3e}")
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig, out_dir: str, jobs: int = 1,
                 resume: bool = False) -> int:
    # check every dataset up front: a missing input must not leave partial outputs behind
    inputs = (cfg.teacher.train_images, cfg.teacher.train_labels,
              *(path for _, *pair in cfg.eval_sets for path in pair))
    if missing := [path for path in inputs if not os.path.isfile(path)]:
        raise ConfigError("missing input file(s): " + ", ".join(missing))
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
        out_dir = args.out or os.environ.get("NETRECON_OUT") or cfg.output_dir
        stage = {"train-teacher": cmd_train_teacher, "build-queries": cmd_build_queries,
                 "train-students": cmd_train_students, "reconstruct": cmd_reconstruct,
                 "pipeline": cmd_pipeline}[args.command]
        ensemble = dict(jobs=args.jobs, resume=args.resume) if "jobs" in args else {}
        return stage(cfg, out_dir, **ensemble)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (NetreconError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
