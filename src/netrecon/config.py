"""Experiment configs: one INI-style file fully determines a pipeline run.

Sections: [run] seed and output dir, [teacher] dataset and fit settings,
[query] the augmentation strategy, [students] the imitator ensemble,
[reconstruct] clustering and fine-tune settings, [eval] extra labeled sets to
score imitators on. Fit settings are the TrainConfig fields and strategy
parameters the AugmentationSpec fields, one key each. Unknown keys are rejected
so typos fail loudly. Section seeds default to run.seed + a fixed per-stage
offset (teacher +0, query +1, students +2, fine-tune +3).
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_type_hints

from .augment import AugmentationSpec
from .errors import ConfigError
from .train import TrainConfig


@dataclass(frozen=True)
class TeacherConfig:
    train_images: str
    train_labels: str
    subset: int | None
    hidden: int
    train: TrainConfig


@dataclass(frozen=True)
class QueryConfig:
    spec: AugmentationSpec
    base_subset: int | None


@dataclass(frozen=True)
class StudentsConfig:
    n: int
    rho: int
    train: TrainConfig


@dataclass(frozen=True)
class ReconstructConfig:
    gamma: float
    beta: float
    fine_tune: TrainConfig


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    teacher: TeacherConfig
    query: QueryConfig
    students: StudentsConfig
    reconstruct: ReconstructConfig
    eval_sets: tuple[tuple[str, str, str], ...]  # (name, images_path, labels_path)


class _Section:
    """One config section with typed access; `done` rejects the keys `get` never read."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)
        self.read: set[str] = set()

    def get(self, key: str, kind, default=None, required: bool = False):
        self.read.add(key)
        if key not in self.items:
            if required:
                raise ConfigError(f"[{self.name}] missing required key '{key}'")
            return default
        raw = self.items[key].strip()
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} = {raw!r}: {exc}") from exc

    def done(self) -> None:
        if extras := set(self.items) - self.read:
            raise ConfigError(f"[{self.name}] unknown key(s): {', '.join(sorted(extras))}")


def _build(cls, section: _Section, **given):
    """`cls` from `given` plus one section key per other dataclass field.

    Each key is parsed as its field's annotated type (the first member of a
    union). A missing key keeps the field's default, or is an error when the
    field has none.
    """
    hints = get_type_hints(cls)
    kwargs = dict(given)
    for f in fields(cls):
        if f.name not in given:
            kind = (get_args(hints[f.name]) or (hints[f.name],))[0]
            value = section.get(f.name, kind, required=f.default is MISSING)
            if value is not None:
                kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from exc


def _train_config(section: _Section, default_seed: int) -> TrainConfig:
    return _build(TrainConfig, section, seed=section.get("seed", int, default=default_seed))


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    sections = {name: _Section(name, dict(parser.items(name)))
                for name in parser.sections()}
    for required in ("run", "teacher", "query", "students", "reconstruct"):
        if required not in sections:
            raise ConfigError(f"{source}: missing [{required}] section")

    run = sections["run"]
    seed = run.get("seed", int, default=0)
    output_dir = run.get("output_dir", str, required=True)
    run.done()

    teacher_sec = sections["teacher"]
    teacher = TeacherConfig(
        train_images=teacher_sec.get("train_images", str, required=True),
        train_labels=teacher_sec.get("train_labels", str, required=True),
        subset=teacher_sec.get("subset", int),
        hidden=teacher_sec.get("hidden", int, required=True),
        train=_train_config(teacher_sec, default_seed=seed),
    )
    if teacher.hidden < 1:
        raise ConfigError("[teacher] hidden must be >= 1")
    if teacher.subset is not None and teacher.subset < 1:
        raise ConfigError("[teacher] subset must be >= 1")
    teacher_sec.done()

    query_sec = sections["query"]
    spec = _build(AugmentationSpec, query_sec,
                  kind=query_sec.get("strategy", str, required=True),
                  seed=query_sec.get("seed", int, default=seed + 1))
    query = QueryConfig(spec=spec, base_subset=query_sec.get("base_subset", int))
    if query.base_subset is not None and query.base_subset < 1:
        raise ConfigError("[query] base_subset must be >= 1")
    query_sec.done()

    students_sec = sections["students"]
    students = StudentsConfig(
        n=students_sec.get("n", int, required=True),
        rho=students_sec.get("rho", int, required=True),
        train=_train_config(students_sec, default_seed=seed + 2),
    )
    if students.n < 2:
        raise ConfigError("[students] n must be >= 2")
    if students.rho < 1:
        raise ConfigError("[students] rho must be >= 1")
    students_sec.done()

    recon_sec = sections["reconstruct"]
    recon = ReconstructConfig(
        gamma=recon_sec.get("gamma", float, required=True),
        beta=recon_sec.get("beta", float, required=True),
        fine_tune=_train_config(recon_sec, default_seed=seed + 3),
    )
    if not 0 < recon.gamma <= 1:
        raise ConfigError("[reconstruct] gamma must be in (0, 1]")
    recon_sec.done()

    eval_sets: list[tuple[str, str, str]] = []
    if "eval" in sections:
        for name, value in sections["eval"].items.items():
            if name == "train":
                raise ConfigError("[eval] 'train' names the query-set rows of losses.csv")
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2 or not all(parts):
                raise ConfigError(f"[eval] {name} must be 'images_path, labels_path'")
            eval_sets.append((name, parts[0], parts[1]))

    known = {"run", "teacher", "query", "students", "reconstruct", "eval"}
    if extras := set(sections) - known:
        raise ConfigError(f"{source}: unknown section(s): {', '.join(sorted(extras))}")

    return ExperimentConfig(
        seed=seed,
        output_dir=output_dir,
        teacher=teacher,
        query=query,
        students=students,
        reconstruct=recon,
        eval_sets=tuple(eval_sets),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=path)
