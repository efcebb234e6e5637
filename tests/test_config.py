import pytest

from netrecon.config import load_config, parse_config
from netrecon.errors import ConfigError

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))


class TestValidation:
    @pytest.mark.parametrize("bad,needle", [
        (GOOD.replace("hidden = 4", "hidden = 0"), "hidden"),
        (GOOD.replace("n = 4", "n = 1"), "n must be"),
        (GOOD.replace("gamma = 0.75", "gamma = 1.5"), "gamma"),
        (GOOD.replace("magnitude = 1.0", "magnitude = -2"), "magnitude"),
        (GOOD.replace("learning_rate = 0.01", "learning_rate = oops"), "learning_rate"),
        (GOOD.replace("strategy = biased_noise", "strategy = mixup"), "mixup"),
        (GOOD.replace("magnitude = 1.0", "magnitude = 1.0\ncopies = 5"),
         "[query] biased_noise does not use copies"),
        # "train" labels the query-set rows that losses.csv always holds
        (GOOD.replace("ood = oi.idx", "train = oi.idx"), "[eval] 'train'"),
    ])
    def test_rejected_with_diagnostic(self, bad, needle):
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert needle in str(info.value)

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
