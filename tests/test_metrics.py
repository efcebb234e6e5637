import numpy as np
import pytest

from netrecon.metrics import (
    imitation_loss,
    preactivation_histogram,
    preactivation_variability,
    scatter_table,
    write_histogram_csv,
    write_losses_csv,
    write_variability_csv,
)
from netrecon.network import Mlp, forward


def random_net(rng, r=4, d=5, c=3):
    return Mlp(W=rng.normal(size=(r, d)), b=rng.normal(size=r),
               A=rng.normal(size=(c, r)), c_out=rng.normal(size=c))


class TestImitationLoss:
    def test_self_loss_zero(self):
        net = random_net(np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(20, 5))
        assert imitation_loss(net, net, X).loss == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        a, b = random_net(rng), random_net(rng)
        X = rng.normal(size=(9, 5))
        point = imitation_loss(a, b, X)
        out_a = forward(a, X).out
        out_b = forward(b, X).out
        expected = 0.0
        for n in range(9):
            for k in range(3):
                expected += (out_a[n, k] - out_b[n, k]) ** 2
        expected /= 9
        assert point.loss == pytest.approx(expected, abs=1e-12)
        assert point.Q == 9

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = random_net(rng), random_net(rng)
        X = rng.normal(size=(12, 5))
        assert imitation_loss(a, b, X).loss == pytest.approx(
            imitation_loss(b, a, X).loss, abs=1e-12)

    def test_dataset_name_carried(self):
        net = random_net(np.random.default_rng(4))
        point = imitation_loss(net, net, np.zeros((3, 5)), dataset_name="ood")
        assert point.dataset_name == "ood"


class TestPreactivationVariability:
    def test_repeated_row_gives_zero(self):
        net = random_net(np.random.default_rng(5))
        X = np.tile(np.random.default_rng(6).normal(size=(1, 5)), (40, 1))
        stats = preactivation_variability(net, X)
        assert np.max(stats.per_neuron_std) < 1e-12
        assert stats.mean_std < 1e-12

    def test_two_point_formula(self):
        # rows {x, x+a}: per-neuron std is |w.a| / 2
        rng = np.random.default_rng(7)
        net = random_net(rng)
        x = rng.normal(size=5)
        a = rng.normal(size=5)
        stats = preactivation_variability(net, np.vstack([x, x + a]))
        expected = np.abs(net.W @ a) / 2
        assert np.allclose(stats.per_neuron_std, expected, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        X = rng.normal(size=(30, 5))
        shifted = X + rng.normal(size=5)
        a = preactivation_variability(net, X).per_neuron_std
        b = preactivation_variability(net, shifted).per_neuron_std
        assert np.max(np.abs(a - b)) < 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        net = random_net(rng)
        X = rng.normal(size=(30, 5))
        centered = X - X.mean(axis=0)
        a = preactivation_variability(net, centered).per_neuron_std
        b = preactivation_variability(net, 2.5 * centered).per_neuron_std
        assert np.max(np.abs(2.5 * a - b)) < 1e-9

    def test_sem_definition(self):
        rng = np.random.default_rng(10)
        net = random_net(rng, r=6)
        X = rng.normal(size=(25, 5))
        stats = preactivation_variability(net, X)
        assert stats.sem_std == pytest.approx(
            stats.per_neuron_std.std() / np.sqrt(6), abs=1e-12)


class TestPreactivationHistogram:
    def test_single_value_single_bin(self):
        net = Mlp(W=np.zeros((3, 2)), b=np.full(3, 1.5), A=np.zeros((1, 3)),
                  c_out=np.zeros(1))
        hist = preactivation_histogram(net, np.random.default_rng(0).normal(size=(10, 2)),
                                       bins=7)
        assert (hist.counts > 0).sum() == 1
        assert hist.total == 3 * 10

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, r=6)
        X = rng.normal(size=(17, 5))
        hist = preactivation_histogram(net, X, bins=12)
        assert hist.total == 6 * 17

    def test_std_increases_with_spread(self):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        narrow = preactivation_histogram(net, 0.5 * rng.normal(size=(200, 5)), 40)
        wide = preactivation_histogram(net, 5.0 * rng.normal(size=(200, 5)), 40)
        assert wide.std() > narrow.std()

    def test_bins_validated(self):
        net = random_net(np.random.default_rng(13))
        with pytest.raises(ValueError):
            preactivation_histogram(net, np.zeros((4, 5)), bins=0)


class TestScatterTable:
    def test_row_count_is_cross_product(self):
        rng = np.random.default_rng(14)
        teacher = random_net(rng)
        students = [random_net(rng) for _ in range(3)]
        sets = [("train", rng.normal(size=(8, 5))), ("ood", rng.normal(size=(6, 5)))]
        rows = scatter_table(teacher, students, sets)
        assert len(rows) == 6
        assert {name for _, name, _, _ in rows} == {"train", "ood"}

    def test_reproducible(self):
        rng = np.random.default_rng(15)
        teacher = random_net(rng)
        students = [random_net(rng)]
        sets = [("train", rng.normal(size=(8, 5)))]
        assert scatter_table(teacher, students, sets) == \
            scatter_table(teacher, students, sets)


class TestCsvEmission:
    def test_losses_csv(self, tmp_path):
        path = str(tmp_path / "losses.csv")
        write_losses_csv([(0, "train", 8, 0.5), (0, "ood", 6, 2.0)], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "student,dataset,Q,loss"
        assert lines[1] == "0,train,8,0.5"
        assert len(lines) == 3

    def test_variability_csv(self, tmp_path):
        rng = np.random.default_rng(16)
        net = random_net(rng)
        stats = preactivation_variability(net, rng.normal(size=(10, 5)))
        path = str(tmp_path / "variability.csv")
        write_variability_csv([("biased_noise", stats)], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "strategy,mean_std,sem_std"
        assert lines[1].startswith("biased_noise,")

    def test_histogram_csv(self, tmp_path):
        rng = np.random.default_rng(17)
        net = random_net(rng)
        hist = preactivation_histogram(net, rng.normal(size=(10, 5)), bins=4)
        path = str(tmp_path / "hist.csv")
        write_histogram_csv(hist, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 5
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == hist.total
        edges = [(float(lo), float(hi)) for lo, hi, _ in (l.split(",") for l in lines[1:])]
        assert edges == list(zip(hist.edges[:-1], hist.edges[1:]))  # exact round trip
