"""Experiment configs: one INI-style file fully determines a pipeline run.

Sections: [run] seed and output dir, [teacher] dataset and fit settings,
[query] the augmentation strategy, [students] the imitator ensemble,
[reconstruct] clustering and fine-tune settings, [eval] extra labeled sets to
score imitators on. Unknown keys are rejected so typos fail loudly. Section
seeds default to run.seed + a fixed per-stage offset (teacher +0, query +1,
students +2, fine-tune +3).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .augment import PARAMS, AugmentationSpec
from .errors import ConfigError
from .train import TrainConfig

_TRAIN_REQUIRED = ("learning_rate", "batch_size", "max_steps")
_TRAIN_OPTIONAL = (
    "adam_beta1", "adam_beta2", "adam_eps", "plateau_patience", "plateau_factor",
    "plateau_min_lr", "plateau_threshold", "eval_every", "target_loss", "seed",
)


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
    """One config section with typed access and unknown-key detection."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)

    def get(self, key: str, kind, default=None, required: bool = False):
        if key not in self.items:
            if required:
                raise ConfigError(f"[{self.name}] missing required key '{key}'")
            return default
        raw = self.items[key].strip()
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} = {raw!r}: {exc}") from exc

    def check_no_extras(self, allowed: tuple[str, ...]):
        extras = set(self.items) - set(allowed)
        if extras:
            raise ConfigError(
                f"[{self.name}] unknown key(s): {', '.join(sorted(extras))}"
            )


def _train_config(section: _Section, default_seed: int) -> TrainConfig:
    kwargs = {
        "learning_rate": section.get("learning_rate", float, required=True),
        "batch_size": section.get("batch_size", int, required=True),
        "max_steps": section.get("max_steps", int, required=True),
        "seed": section.get("seed", int, default=default_seed),
    }
    for key in ("adam_beta1", "adam_beta2", "adam_eps", "plateau_factor",
                "plateau_min_lr", "plateau_threshold", "target_loss"):
        value = section.get(key, float)
        if value is not None:
            kwargs[key] = value
    for key in ("plateau_patience", "eval_every"):
        value = section.get(key, int)
        if value is not None:
            kwargs[key] = value
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from exc


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
    run.check_no_extras(("seed", "output_dir"))

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
    teacher_sec.check_no_extras(
        ("train_images", "train_labels", "subset", "hidden")
        + _TRAIN_REQUIRED + _TRAIN_OPTIONAL
    )

    query_sec = sections["query"]
    strategy = query_sec.get("strategy", str, required=True)
    spec_kwargs = {"kind": strategy, "seed": query_sec.get("seed", int, default=seed + 1)}
    for key in PARAMS:
        kind = float if key in ("lo", "hi", "magnitude") else int
        value = query_sec.get(key, kind)
        if value is not None:
            spec_kwargs[key] = value
    try:
        spec = AugmentationSpec(**spec_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[query] {exc}") from exc
    query = QueryConfig(spec=spec, base_subset=query_sec.get("base_subset", int))
    if query.base_subset is not None and query.base_subset < 1:
        raise ConfigError("[query] base_subset must be >= 1")
    query_sec.check_no_extras(("strategy", "seed", "base_subset") + PARAMS)

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
    students_sec.check_no_extras(("n", "rho") + _TRAIN_REQUIRED + _TRAIN_OPTIONAL)

    recon_sec = sections["reconstruct"]
    recon = ReconstructConfig(
        gamma=recon_sec.get("gamma", float, required=True),
        beta=recon_sec.get("beta", float, required=True),
        fine_tune=_train_config(recon_sec, default_seed=seed + 3),
    )
    if not 0 < recon.gamma <= 1:
        raise ConfigError("[reconstruct] gamma must be in (0, 1]")
    recon_sec.check_no_extras(("gamma", "beta") + _TRAIN_REQUIRED + _TRAIN_OPTIONAL)

    eval_sets: list[tuple[str, str, str]] = []
    if "eval" in sections:
        for name, value in sections["eval"].items.items():
            if name == "train":
                raise ConfigError("[eval] 'train' names the query-set rows of losses.csv")
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2 or not all(parts):
                raise ConfigError(
                    f"[eval] {name} must be 'images_path, labels_path'"
                )
            eval_sets.append((name, parts[0], parts[1]))

    known = {"run", "teacher", "query", "students", "reconstruct", "eval"}
    extras = set(sections) - known
    if extras:
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
