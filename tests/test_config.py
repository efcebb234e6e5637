from dataclasses import fields, replace

import pytest

from netrecon.augment import AugmentationSpec
from netrecon.config import (
    QueryConfig,
    ReconstructConfig,
    StudentsConfig,
    TeacherConfig,
    load_config,
    parse_config,
)
from netrecon.errors import ConfigError
from netrecon.train import TrainConfig

GOOD = """
[run]
seed = 7
output_dir = out

[teacher]
train_images = ti.idx
train_labels = tl.idx
subset = 500
hidden = 4
learning_rate = 0.01
batch_size = 64
max_steps = 1000

[query]
strategy = biased_noise
base_subset = 256
magnitude = 1.0

[students]
n = 4
rho = 4
learning_rate = 0.02
batch_size = 256
max_steps = 5000
plateau_threshold = 0.001

[reconstruct]
gamma = 0.75
beta = 3.0
learning_rate = 0.003
batch_size = 512
max_steps = 2000

[eval]
ood = oi.idx, ol.idx
"""


class TestParsing:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.seed == 7
        assert cfg.teacher.hidden == 4
        assert cfg.teacher.subset == 500
        assert cfg.query.spec.kind == "biased_noise"
        assert cfg.query.spec.magnitude == 1.0
        assert cfg.students.n == 4
        assert cfg.reconstruct.gamma == 0.75
        assert cfg.eval_sets == (("ood", "oi.idx", "ol.idx"),)

    def test_derived_seeds(self):
        cfg = parse_config(GOOD)
        assert cfg.teacher.train.seed == 7
        assert cfg.query.spec.seed == 8
        assert cfg.students.train.seed == 9
        assert cfg.reconstruct.fine_tune.seed == 10

    def test_explicit_seed_wins(self):
        cfg = parse_config(GOOD.replace("[students]", "[students]\nseed = 42"))
        assert cfg.students.train.seed == 42

    def test_every_field_reaches_the_parsed_config(self):
        # one key per dataclass field, none at its default: nothing is dropped or retyped
        train = dict(learning_rate=0.5, batch_size=3, max_steps=7, plateau_patience=4,
                     plateau_factor=0.125, plateau_min_lr=1e-09, plateau_threshold=0.01,
                     eval_every=11, target_loss=1e-05, seed=99)
        assert [f.name for f in fields(TrainConfig)] == list(train)
        assert all(train[f.name] != f.default for f in fields(TrainConfig))
        query = dict(grid_x=2, grid_y=3, count=5, magnitude=0.75, seed=42)
        keys = "".join(f"{k} = {v}\n" for k, v in train.items())
        text = (
            "[run]\noutput_dir = o\n"
            f"[teacher]\ntrain_images = i\ntrain_labels = l\nhidden = 3\n{keys}"
            "[query]\nstrategy = grid_biased_noise\n"
            + "".join(f"{k} = {v}\n" for k, v in query.items())
            + f"[students]\nn = 2\nrho = 2\n{keys}"
            f"[reconstruct]\ngamma = 0.5\nbeta = 2\n{keys}"
        )
        cfg = parse_config(text)
        for parsed in (cfg.teacher.train, cfg.students.train, cfg.reconstruct.fine_tune):
            assert parsed == TrainConfig(**train)
            assert all(type(getattr(parsed, k)) is type(v) for k, v in train.items())
        assert cfg.query.spec == AugmentationSpec(kind="grid_biased_noise", **query)
        assert all(type(getattr(cfg.query.spec, k)) is type(v) for k, v in query.items())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))


class TestValidation:
    @pytest.mark.parametrize("bad,needle", [
        (GOOD.replace("hidden = 4", "hidden = 0"), "hidden"),
        (GOOD.replace("subset = 500", "subset = 0"), "[teacher] subset must be >= 1"),
        (GOOD.replace("base_subset = 256", "base_subset = 0"),
         "[query] base_subset must be >= 1"),
        (GOOD.replace("n = 4", "n = 1"), "n must be"),
        (GOOD.replace("rho = 4", "rho = 0"), "[students] rho must be >= 1"),
        (GOOD.replace("gamma = 0.75", "gamma = 1.5"), "gamma"),
        # nan passes every comparison and would read as an empty reconstruction
        (GOOD.replace("beta = 3.0", "beta = nan"), "[reconstruct] beta must be finite"),
        (GOOD.replace("magnitude = 1.0", "magnitude = -2"), "magnitude"),
        (GOOD.replace("learning_rate = 0.01", "learning_rate = oops"), "learning_rate"),
        # nan passes a `<= 0` check and would read as a divergence at step 0
        (GOOD.replace("learning_rate = 0.01", "learning_rate = nan"),
         "[teacher] learning_rate must be finite"),
        (GOOD.replace("max_steps = 5000", "max_steps = 5000\nplateau_min_lr = 0.05"),
         "[students] plateau_min_lr must be in [0, learning_rate]"),
        (GOOD.replace("plateau_threshold = 0.001", "plateau_threshold = 1.0"),
         "[students] plateau_threshold must be in [0, 1)"),
        (GOOD.replace("magnitude = 1.0", "magnitude = inf"),
         "[query] biased_noise needs a finite magnitude"),
        (GOOD.replace("strategy = biased_noise", "strategy = uniform_noise\ncopies = 1\n"
                      "lo = -1e308\nhi = 1e308").replace("magnitude = 1.0\n", ""),
         "[query] uniform_noise needs a finite hi - lo"),
        # Adam's constants are fixed in code, so no section has a key for them
        (GOOD.replace("max_steps = 5000", "max_steps = 5000\nadam_eps = 0"),
         "[students] unknown key(s): adam_eps"),
        (GOOD.replace("strategy = biased_noise", "strategy = mixup"), "mixup"),
        # default_rng would reject a negative seed only once its stage runs; the
        # teacher's seed defaults to the run seed and is checked first
        (GOOD.replace("seed = 7", "seed = -1"), "[teacher] seed must be >= 0, got -1"),
        (GOOD.replace("base_subset = 256", "base_subset = 256\nseed = -5"),
         "[query] seed must be >= 0, got -5"),
        (GOOD.replace("rho = 4", "rho = 4\nseed = -5"), "[students] seed must be >= 0, got -5"),
        # the CLI draws the teacher's subset with the run seed itself
        (GOOD.replace("seed = 7", "seed = -1").replace("hidden = 4", "hidden = 4\nseed = 3")
         .replace("base_subset = 256", "base_subset = 256\nseed = 3")
         .replace("rho = 4", "rho = 4\nseed = 3").replace("beta = 3.0", "beta = 3.0\nseed = 3"),
         "[run] seed must be >= 0, got -1"),
        (GOOD.replace("magnitude = 1.0", "magnitude = 1.0\ncopies = 5"),
         "[query] biased_noise does not use copies"),
        # "train" labels the query-set rows that losses.csv always holds
        (GOOD.replace("ood = oi.idx", "train = oi.idx"), "[eval] 'train'"),
    ])
    def test_rejected_with_diagnostic(self, bad, needle):
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert needle in str(info.value)

    @pytest.mark.parametrize("cls,values,needle", [
        (TeacherConfig, dict(hidden=0), "hidden must be >= 1"),
        (TeacherConfig, dict(hidden=2, subset=0), "subset must be >= 1"),
        (QueryConfig, dict(base_subset=0), "base_subset must be >= 1"),
        (StudentsConfig, dict(n=1, rho=2), "n must be >= 2"),
        (StudentsConfig, dict(n=2, rho=0), "rho must be >= 1"),
        (ReconstructConfig, dict(gamma=0.0, beta=3.0), "gamma must be in"),
        (ReconstructConfig, dict(gamma=float("nan"), beta=3.0), "gamma must be in"),
        (ReconstructConfig, dict(gamma=0.75, beta=float("inf")), "beta must be finite"),
    ])
    def test_section_dataclass_checks_its_fields(self, cls, values, needle):
        # the check lives in the dataclass, so it holds without parse_config too
        train = TrainConfig(learning_rate=0.01, batch_size=8, max_steps=10)
        given = {TeacherConfig: dict(train_images="i", train_labels="l", train=train),
                 QueryConfig: dict(spec=AugmentationSpec(kind="identity")),
                 StudentsConfig: dict(train=train),
                 ReconstructConfig: dict(fine_tune=train)}[cls]
        with pytest.raises(ValueError, match=needle):
            cls(**given, **values)

    def test_experiment_config_rejects_negative_run_seed(self):
        cfg = parse_config(GOOD)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            replace(cfg, seed=-1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(GOOD.replace("[students]", "[students]\nmomentum = 0.9"))
        assert "momentum" in str(info.value)

    def test_missing_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config(GOOD.replace("[reconstruct]", "[rebuild]"))
        assert "reconstruct" in str(info.value) or "rebuild" in str(info.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config(GOOD.replace("max_steps = 1000\n", ""))
        assert "max_steps" in str(info.value)

    def test_eval_entry_shape(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("ood = oi.idx, ol.idx", "ood = justone.idx"))
