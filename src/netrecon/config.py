"""Experiment configs: one INI-style file fully determines a pipeline run.

Sections: [run] seed and output dir, [teacher] dataset and fit settings,
[query] the augmentation strategy, [students] the imitator ensemble,
[reconstruct] clustering and fine-tune settings, [eval] extra labeled sets to
score imitators on. Each key fills the dataclass field of its name (with the
TrainConfig fields in the three training sections, the AugmentationSpec fields
in [query]), and each dataclass checks its own values. Unknown keys are
rejected so typos fail loudly. Section seeds default to run.seed + a fixed
per-stage offset (teacher +0, query +1, students +2, fine-tune +3).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_type_hints

from .augment import AugmentationSpec
from .errors import ConfigError
from .train import TrainConfig

_SECTIONS = ("run", "teacher", "query", "students", "reconstruct")


@dataclass(frozen=True, kw_only=True)
class TeacherConfig:
    train_images: str
    train_labels: str
    subset: int | None = None
    hidden: int
    train: TrainConfig

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.subset is not None and self.subset < 1:
            raise ValueError("subset must be >= 1")


@dataclass(frozen=True)
class QueryConfig:
    spec: AugmentationSpec
    base_subset: int | None = None

    def __post_init__(self):
        if self.base_subset is not None and self.base_subset < 1:
            raise ValueError("base_subset must be >= 1")


@dataclass(frozen=True)
class StudentsConfig:
    n: int
    rho: int
    train: TrainConfig

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")


@dataclass(frozen=True)
class ReconstructConfig:
    gamma: float
    beta: float
    fine_tune: TrainConfig

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    teacher: TeacherConfig
    query: QueryConfig
    students: StudentsConfig
    reconstruct: ReconstructConfig
    eval_sets: tuple[tuple[str, str, str], ...]  # (name, images_path, labels_path)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    items = {name: dict(parser.items(name)) for name in parser.sections()}
    for required in _SECTIONS:
        if required not in items:
            raise ConfigError(f"{source}: missing [{required}] section")
    if extras := set(items) - {*_SECTIONS, "eval"}:
        raise ConfigError(f"{source}: unknown section(s): {', '.join(sorted(extras))}")
    sections = [_Section(name, items[name]) for name in _SECTIONS]
    run, teacher, query, students, recon = sections

    eval_sets: list[tuple[str, str, str]] = []
    for name, value in items.get("eval", {}).items():
        if name == "train":
            raise ConfigError("[eval] 'train' names the query-set rows of losses.csv")
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f"[eval] {name} must be 'images_path, labels_path'")
        eval_sets.append((name, parts[0], parts[1]))

    seed = run.get("seed", int, default=0)
    spec = _build(AugmentationSpec, query, kind=query.get("strategy", str, required=True),
                  seed=query.get("seed", int, default=seed + 1))
    cfg = _build(
        ExperimentConfig, run, seed=seed, eval_sets=tuple(eval_sets),
        teacher=_build(TeacherConfig, teacher, train=_train_config(teacher, seed)),
        query=_build(QueryConfig, query, spec=spec),
        students=_build(StudentsConfig, students, train=_train_config(students, seed + 2)),
        reconstruct=_build(ReconstructConfig, recon,
                           fine_tune=_train_config(recon, seed + 3)),
    )
    for section in sections:
        section.done()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=path)
