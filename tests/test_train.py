import numpy as np
import pytest

from netrecon.augment import biased_noise, identity
from netrecon.data import make_synthetic_classification, standardize
from netrecon.errors import DivergenceError
from netrecon.network import Gradients, Mlp, forward, init_mlp, mse_loss
from netrecon.train import (
    AdamState,
    PlateauScheduler,
    TrainConfig,
    accuracy,
    adam_step,
    fit_mse,
    query_teacher,
    steps_for,
    train_ensemble,
    train_student,
    train_teacher,
)


def cfg(**kw):
    base = dict(learning_rate=1e-2, batch_size=32, max_steps=100, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_ds():
    raw = make_synthetic_classification(400, height=4, width=4, n_classes=4, seed=1)
    out, _, _ = standardize(raw)
    return out


@pytest.fixture(scope="module")
def tiny_teacher(tiny_ds):
    net, _ = train_teacher(tiny_ds, 3, cfg(batch_size=64, max_steps=1200,
                                           eval_every=50, plateau_threshold=1e-3))
    return net


@pytest.fixture(scope="module")
def tiny_queries(tiny_ds, tiny_teacher):
    return query_teacher(tiny_teacher, biased_noise(tiny_ds, 1.0, seed=2))


class TestStepsFor:
    def test_exact_division(self):
        assert steps_for(10, 60000, 600) == 1000

    def test_floor(self):
        assert steps_for(1, 5, 2) == 2

    def test_unit_batch(self):
        assert steps_for(7, 13, 1) == 7 * 13

    def test_random_triples_match_integer_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e, n, b = (int(rng.integers(1, 1000)) for _ in range(3))
            assert steps_for(e, n, b) == (e * n) // b

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            steps_for(0, 10, 2)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        net = init_mlp(3, 4, 2, seed=0)
        state = AdamState.zeros_like(net)
        zero = Gradients(np.zeros_like(net.W), np.zeros_like(net.b),
                         np.zeros_like(net.A), np.zeros_like(net.c_out))
        updated, state = adam_step(net, zero, state, lr=0.1)
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(updated, attr), getattr(net, attr))

    def test_moments_decay_toward_zero(self):
        net = init_mlp(2, 2, 1, seed=0)
        state = AdamState.zeros_like(net)
        grads = Gradients(np.ones_like(net.W), np.ones_like(net.b),
                          np.ones_like(net.A), np.ones_like(net.c_out))
        net, state = adam_step(net, grads, state, lr=0.01)
        first = np.abs(state.m.W).max()
        zero = Gradients(np.zeros_like(net.W), np.zeros_like(net.b),
                         np.zeros_like(net.A), np.zeros_like(net.c_out))
        for _ in range(50):
            net, state = adam_step(net, zero, state, lr=0.01)
        assert np.abs(state.m.W).max() < first * 1e-2

    def test_first_step_magnitude(self):
        # first update moves each coordinate by lr * |g| / (|g| + eps)
        net = init_mlp(2, 3, 2, seed=1)
        state = AdamState.zeros_like(net)
        rng = np.random.default_rng(2)
        g = rng.normal(size=net.W.shape)
        grads = Gradients(g, np.zeros_like(net.b), np.zeros_like(net.A),
                          np.zeros_like(net.c_out))
        lr, eps = 0.05, 1e-8
        updated, _ = adam_step(net, grads, state, lr=lr, eps=eps)
        delta = np.abs(updated.W - net.W)
        expected = lr * np.abs(g) / (np.abs(g) + eps)
        assert np.allclose(delta, expected, rtol=1e-12)

    def test_converges_on_quadratic(self):
        # oracle: 100 Adam steps on f(theta) = theta^2 from theta=1, lr=0.1
        theta = np.array([[1.0]])
        net = Mlp(W=theta, b=[0.0], A=[[0.0]], c_out=[0.0])
        state = AdamState.zeros_like(net)
        for _ in range(100):
            grads = Gradients(2 * net.W, np.zeros(1), np.zeros((1, 1)), np.zeros(1))
            net, state = adam_step(net, grads, state, lr=0.1)
        assert abs(net.W[0, 0]) < 0.05


class TestPlateauScheduler:
    def test_decays_exactly_once_per_plateau(self):
        sched = PlateauScheduler(lr=1.0, factor=0.5, patience=3, min_lr=1e-3)
        assert sched.step(1.0) == 1.0
        for metric in (1.0, 1.0):
            assert sched.step(metric) == 1.0
        assert sched.step(1.0) == 0.5  # third bad evaluation triggers one decay
        assert sched.step(1.0) == 0.5  # counter restarted

    def test_improvement_resets_patience(self):
        sched = PlateauScheduler(lr=1.0, factor=0.5, patience=2, min_lr=1e-3)
        sched.step(1.0)
        sched.step(1.0)
        assert sched.step(0.5) == 1.0  # improvement arrives before the decay
        sched.step(0.5)
        assert sched.step(0.5) == 0.5

    def test_never_increases_never_below_floor(self):
        rng = np.random.default_rng(0)
        sched = PlateauScheduler(lr=1.0, factor=0.5, patience=1, min_lr=0.1)
        previous = sched.lr
        for _ in range(200):
            lr = sched.step(float(rng.uniform(0.9, 1.1)))
            assert lr <= previous
            assert lr >= 0.1
            previous = lr
        assert sched.lr == 0.1

    def test_relative_threshold(self):
        sched = PlateauScheduler(lr=1.0, factor=0.5, patience=2, min_lr=1e-6,
                                 threshold=0.01)
        sched.step(1.0)
        sched.step(0.999)  # under 1% better: does not reset patience
        assert sched.step(0.998) == 0.5


class TestTeacherTraining:
    def test_zero_steps_returns_init(self, tiny_ds):
        net, history = train_teacher(tiny_ds, 3, cfg(max_steps=0))
        fresh = init_mlp(3, tiny_ds.d, int(tiny_ds.labels.max()) + 1, seed=0)
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(net, attr), getattr(fresh, attr))
        assert history[0][0] == 0

    def test_deterministic_bitwise(self, tiny_ds):
        a, _ = train_teacher(tiny_ds, 3, cfg(max_steps=300))
        b, _ = train_teacher(tiny_ds, 3, cfg(max_steps=300))
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))

    def test_desk_accuracy(self, tiny_ds, tiny_teacher):
        assert accuracy(tiny_teacher, tiny_ds) > 0.85

    def test_divergence_reports_step(self, tiny_ds):
        with pytest.raises(DivergenceError) as info:
            train_teacher(tiny_ds, 3, cfg(learning_rate=1e160, max_steps=500))
        assert info.value.step >= 0


class TestQueryTeacher:
    def test_zero_teacher_gives_zero_targets(self, tiny_ds):
        zero = Mlp(W=np.zeros((2, tiny_ds.d)), b=np.zeros(2),
                   A=np.zeros((3, 2)), c_out=np.zeros(3))
        qs = query_teacher(zero, identity(tiny_ds))
        assert np.all(qs.targets == 0.0)

    def test_cardinality_preserved(self, tiny_ds, tiny_teacher):
        for aug in (identity(tiny_ds), biased_noise(tiny_ds, 1.0, seed=0)):
            qs = query_teacher(tiny_teacher, aug)
            assert qs.Q == aug.Q

    def test_purity(self, tiny_ds, tiny_teacher):
        aug = biased_noise(tiny_ds, 1.0, seed=5)
        a = query_teacher(tiny_teacher, aug)
        b = query_teacher(tiny_teacher, aug)
        assert np.array_equal(a.targets, b.targets)

    def test_targets_are_logits(self, tiny_ds, tiny_teacher):
        qs = query_teacher(tiny_teacher, identity(tiny_ds))
        assert np.array_equal(qs.targets, forward(tiny_teacher, tiny_ds.images).out)


class TestStudentTraining:
    def test_student_at_teacher_stops_immediately(self, tiny_queries, tiny_teacher):
        tuned, history = fit_mse(tiny_teacher, tiny_queries, cfg(max_steps=5000))
        assert history[-1] == history[0]
        assert history[0][1] == 0.0
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(tuned, attr), getattr(tiny_teacher, attr))

    def test_reaches_low_loss_on_tiny_problem(self, tiny_queries):
        net, history = train_student(
            tiny_queries, 12,
            cfg(learning_rate=2e-2, batch_size=256, max_steps=30000, eval_every=500,
                plateau_patience=6, plateau_factor=0.3, plateau_threshold=1e-3,
                plateau_min_lr=1e-8, target_loss=1e-8, seed=7),
        )
        assert history[-1][1] < 1e-5
        assert history[-1][1] < history[0][1] * 1e-7

    def test_returns_best_evaluated_parameters(self, tiny_queries):
        # the loss oscillates at this learning rate: the last iterate is not the best
        ens = train_ensemble(tiny_queries, teacher_r=3, rho=2, N=2,
                             cfg=cfg(learning_rate=1.0, max_steps=60, eval_every=5))
        for net, history, final in zip(ens.students, ens.histories, ens.final_losses):
            best = min(loss for _, loss, _ in history)
            assert mse_loss(net, tiny_queries.inputs, tiny_queries.targets) == best
            assert final == best
        assert any(history[-1][1] > final
                   for history, final in zip(ens.histories, ens.final_losses))

    def test_history_records_lr_and_steps(self, tiny_queries):
        _, history = train_student(tiny_queries, 6, cfg(max_steps=120, eval_every=40))
        steps = [h[0] for h in history]
        assert steps == [0, 40, 80, 120]
        assert all(lr > 0 for _, _, lr in history)


class TestEnsemble:
    def test_distinct_students(self, tiny_queries):
        ens = train_ensemble(tiny_queries, teacher_r=3, rho=2, N=2,
                             cfg=cfg(max_steps=50))
        assert not np.array_equal(ens.students[0].W, ens.students[1].W)

    def test_parallel_matches_sequential_bitwise(self, tiny_queries):
        sequential = train_ensemble(tiny_queries, 3, 2, 4, cfg(max_steps=200), jobs=1)
        parallel = train_ensemble(tiny_queries, 3, 2, 4, cfg(max_steps=200), jobs=2)
        for a, b in zip(sequential.students, parallel.students):
            for attr in ("W", "b", "A", "c_out"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr))
        assert sequential.final_losses == parallel.final_losses

    def test_accepts_paper_scale_configuration(self, tiny_queries):
        ens = train_ensemble(tiny_queries, teacher_r=1, rho=4, N=30,
                             cfg=cfg(max_steps=10, batch_size=256))
        assert ens.n_students == 30
        assert all(s.r == 4 for s in ens.trained)

    def test_divergence_recorded_without_aborting(self, tiny_queries):
        diverging = cfg(learning_rate=1e150, max_steps=300)
        ens = train_ensemble(tiny_queries, 3, 2, 3, diverging)
        assert len(ens.failures) == 3
        assert ens.students == [None, None, None]
        assert ens.trained == []

    def test_requires_two_students(self, tiny_queries):
        with pytest.raises(ValueError):
            train_ensemble(tiny_queries, 3, 2, 1, cfg())


class TestInvariants:
    def test_lr_monotone_in_history(self, tiny_queries):
        _, history = train_student(
            tiny_queries, 6,
            cfg(max_steps=3000, eval_every=50, plateau_patience=3,
                plateau_factor=0.5, plateau_min_lr=1e-5),
        )
        lrs = [lr for _, _, lr in history]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert min(lrs) >= 1e-5

    def test_best_so_far_monotone(self, tiny_queries):
        _, history = train_student(tiny_queries, 6, cfg(max_steps=2000, eval_every=100))
        best = np.inf
        for _, loss, _ in history:
            best = min(best, loss)
        assert best <= history[0][1]
