import warnings

import numpy as np
import pytest
from conftest import peak_while

from netrecon import metrics, train
from netrecon.metrics import (
    imitation_loss,
    preactivation_histogram,
    preactivation_variability,
    scatter_table,
    write_histogram_csv,
    write_losses_csv,
    write_variability_csv,
)
from netrecon.network import _ROWS, Mlp, _outputs, forward, init_mlp, mse_loss


def random_net(rng, r=4, d=5, c=3):
    return Mlp(W=rng.normal(size=(r, d)), b=rng.normal(size=r),
               A=rng.normal(size=(c, r)), c_out=rng.normal(size=c))


class TestImitationLoss:
    def test_self_loss_zero(self):
        net = random_net(np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(20, 5))
        assert imitation_loss(net, net, X) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        a, b = random_net(rng), random_net(rng)
        X = rng.normal(size=(9, 5))
        loss = imitation_loss(a, b, X)
        out_a = forward(a, X).out
        out_b = forward(b, X).out
        expected = 0.0
        for n in range(9):
            for k in range(3):
                expected += (out_a[n, k] - out_b[n, k]) ** 2
        expected /= 9
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = random_net(rng), random_net(rng)
        X = rng.normal(size=(12, 5))
        assert imitation_loss(a, b, X) == pytest.approx(imitation_loss(b, a, X), abs=1e-12)


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


class TestRowBlocks:
    """Both pre-activation metrics run over row blocks and keep the bytes of
    the whole-matrix formulas they replaced."""

    @staticmethod
    def whole_matrix(net, X, bins):
        pre = X @ net.W.T + net.b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Q = 0: nan std
            std = pre.std(axis=0)
        return std, np.histogram(pre.ravel(), bins)

    @pytest.mark.parametrize("r,Q", [
        (16, 2 * _ROWS + 5),  # narrow: a remainder in the last block
        (768, 3 * _ROWS + 17),
        (512, 2 * _ROWS - 1),  # the largest single block
        (7, 1),  # one row
        (8, 0),  # no rows: nan std, no counts over [0, 1]
    ])
    def test_same_bytes_as_the_whole_matrix(self, r, Q):
        rng = np.random.default_rng(r + Q)
        net = random_net(rng, r=r)
        X = rng.normal(size=(Q, 5)) + 2.0
        std, (counts, edges) = self.whole_matrix(net, X, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stats = preactivation_variability(net, X)
        hist = preactivation_histogram(net, X, 40)
        assert np.array_equal(stats.per_neuron_std, std, equal_nan=True)
        assert np.array_equal(hist.counts, counts) and hist.counts.dtype == np.int64
        assert np.array_equal(hist.edges, edges)
        if Q == 0:
            assert np.isnan(stats.per_neuron_std).all() and hist.total == 0
            assert (hist.edges[0], hist.edges[-1]) == (0.0, 1.0)

    def test_lone_column(self):
        # numpy sums a (Q, 1) column pairwise, the blocks row by row: the std
        # can differ from pre.std(axis=0) in its last bits, the bins cannot
        rng = np.random.default_rng(5001)
        net = random_net(rng, r=1)
        X = rng.normal(size=(5000, 5)) + 2.0
        std, (counts, edges) = self.whole_matrix(net, X, 40)
        hist = preactivation_histogram(net, X, 40)
        np.testing.assert_allclose(preactivation_variability(net, X).per_neuron_std, std,
                                   rtol=1e-12, atol=0)
        assert np.array_equal(hist.counts, counts) and np.array_equal(hist.edges, edges)

    def test_sums_and_bins_are_exact_on_the_block_products(self):
        # at widths off OpenBLAS's 8-column unroll (here 700) a product of row
        # blocks can differ from the whole set's in its last columns' last
        # bits; the reductions over those products stay exact
        rng = np.random.default_rng(23)
        net = random_net(rng, r=700)
        X = rng.normal(size=(3 * _ROWS + 17, 5))
        pre = np.vstack([X[rows] @ net.W.T + net.b for rows in
                         (slice(0, _ROWS), slice(_ROWS, 2 * _ROWS), slice(2 * _ROWS, None))])
        counts, edges = np.histogram(pre.ravel(), 40)
        hist = preactivation_histogram(net, X, 40)
        assert np.array_equal(preactivation_variability(net, X).per_neuron_std,
                              pre.std(axis=0))
        assert np.array_equal(hist.counts, counts) and np.array_equal(hist.edges, edges)

    def test_constant_preactivations_over_blocks(self):
        net = Mlp(W=np.zeros((600, 5)), b=np.full(600, 1.5), A=np.zeros((2, 600)),
                  c_out=np.zeros(2))
        X = np.random.default_rng(19).normal(size=(3 * _ROWS + 1, 5))
        std, (counts, edges) = self.whole_matrix(net, X, 9)
        stats = preactivation_variability(net, X)
        hist = preactivation_histogram(net, X, 9)
        assert np.array_equal(stats.per_neuron_std, std) and not std.any()
        assert np.array_equal(hist.counts, counts) and np.array_equal(hist.edges, edges)
        assert (edges[0], edges[-1]) == (1.0, 2.0)  # numpy widens an empty range by 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs(self, bad):
        net = random_net(np.random.default_rng(20), r=600)
        X = np.random.default_rng(21).normal(size=(3 * _ROWS, 5))
        X[2 * _ROWS + 3, 1] = bad  # in the last block
        with pytest.raises(ValueError, match="not finite"):
            preactivation_histogram(net, X, 10)
        # the std has no check: non-finite values give nan, as pre.std does
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = (X @ net.W.T + net.b).std(axis=0)
            got = preactivation_variability(net, X).per_neuron_std
        assert np.array_equal(got, want, equal_nan=True) and np.isnan(got).any()

    @pytest.mark.parametrize("metric", [
        preactivation_variability,
        lambda net, X: preactivation_histogram(net, X, 80),
    ], ids=["variability", "histogram"])
    def test_peak_does_not_grow_with_Q(self, metric):
        r, d = 1024, 8
        net = random_net(np.random.default_rng(22), r=r, d=d)
        block = _ROWS * r * 8
        peaks = []
        for Q in (4 * _ROWS, 16 * _ROWS):
            X = np.random.default_rng(Q).normal(size=(Q, d))
            _, peak = peak_while(metric, net, X)
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
        # one block, its running-total row and a few (r,) vectors; np.histogram
        # bins in chunks of 65,536 values, a few arrays of that length each
        assert max(peaks) < block + 8 * r * 8 + 64 * 65536, (peaks, block)


class TestScatterTable:
    def test_row_count_is_cross_product(self):
        rng = np.random.default_rng(14)
        teacher = random_net(rng)
        students = [random_net(rng) for _ in range(3)]
        sets = [("train", rng.normal(size=(8, 5))), ("ood", rng.normal(size=(6, 5)))]
        rows = scatter_table(teacher, students, sets)
        assert len(rows) == 6
        assert {name for _, name, _, _ in rows} == {"train", "ood"}
        assert {(name, Q) for _, name, Q, _ in rows} == {("train", 8), ("ood", 6)}

    def test_numbers_students_by_slot(self):
        rng = np.random.default_rng(16)
        teacher = random_net(rng)
        a, b = random_net(rng), random_net(rng)
        sets = [("train", rng.normal(size=(8, 5)))]
        rows = scatter_table(teacher, [None, a, b], sets)
        assert {student for student, _, _, _ in rows} == {1, 2}
        dense = scatter_table(teacher, [a, b], sets)
        assert [row[1:] for row in rows] == [row[1:] for row in dense]

    def test_each_loss_equals_the_pair_loss_with_one_teacher_pass_per_set(self, monkeypatch):
        rng = np.random.default_rng(18)
        teacher = random_net(rng)
        students = [random_net(rng), None, random_net(rng), random_net(rng)]
        sets = [("train", rng.normal(size=(8, 5))), ("ood", rng.normal(size=(6, 5)))]
        expected = [(i, name, X.shape[0], imitation_loss(s, teacher, X))
                    for i, s in enumerate(students) if s is not None for name, X in sets]
        passes, real = [], metrics._outputs
        monkeypatch.setattr(metrics, "_outputs",
                            lambda net, X: passes.append(net) or real(net, X))
        assert scatter_table(teacher, students, sets) == expected
        assert passes == [teacher] * len(sets)

    def test_reproducible(self):
        rng = np.random.default_rng(15)
        teacher = random_net(rng)
        students = [random_net(rng)]
        sets = [("train", rng.normal(size=(8, 5)))]
        assert scatter_table(teacher, students, sets) == \
            scatter_table(teacher, students, sets)

    def test_independent_of_the_blas_thread_count(self, blas_threads):
        # at this shape OpenBLAS's two-thread products differ from its
        # one-thread ones in the last bits of some losses
        X = np.random.default_rng(0).normal(size=(3000, 784))
        teacher = init_mlp(512, 784, 10, seed=0)
        students = [init_mlp(512, 784, 10, seed=seed) for seed in (100, 101, 102)]
        rows = scatter_table(teacher, students, [("x", X)])
        with train._one_blas_thread():
            Y = _outputs(teacher, X)
            assert rows == [(i, "x", 3000, mse_loss(s, X, Y)) for i, s in enumerate(students)]


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
