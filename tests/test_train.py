import numpy as np
import pytest

from netrecon import train
from netrecon.augment import AugmentationSpec, build
from netrecon.data import make_synthetic_classification, standardize
from netrecon.errors import DivergenceError
from netrecon.network import Mlp, forward, init_mlp, mse_loss
from netrecon.train import (
    AdamState,
    PlateauScheduler,
    TrainConfig,
    accuracy,
    adam_step,
    final_loss,
    fit_mse,
    iter_students,
    query_teacher,
    steps_for,
    train_ensemble,
    train_student,
    train_teacher,
)


def make(ds, kind, **params):
    return build(AugmentationSpec(kind=kind, **params), ds)


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
    return query_teacher(tiny_teacher, make(tiny_ds, "biased_noise", magnitude=1.0, seed=2))


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


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        dict(adam_beta1=1.0), dict(adam_beta1=-0.1), dict(adam_beta2=1.0),
        dict(adam_beta2=-1e-3), dict(eval_every=0), dict(eval_every=-3),
        dict(plateau_patience=0), dict(plateau_patience=-1),
        dict(adam_eps=0.0), dict(adam_eps=-1e-8),
        dict(learning_rate=np.nan), dict(learning_rate=np.inf),
        # a floor above the lr would raise the lr at the first plateau
        dict(plateau_min_lr=0.1), dict(plateau_min_lr=-1e-8), dict(plateau_min_lr=np.nan),
        # best * (1 - 1) is nan at the first eval, so no eval would ever improve
        dict(plateau_threshold=1.0), dict(plateau_threshold=-1e-3),
    ])
    def test_rejects_values_that_break_training(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            cfg(**bad)

    def test_accepts_boundary_values(self):
        c = cfg(adam_beta1=0.0, adam_beta2=0.0, eval_every=1, plateau_patience=1)
        assert (c.adam_beta1, c.eval_every, c.plateau_patience) == (0.0, 1, 1)
        c = cfg(plateau_min_lr=1e-2, plateau_threshold=0.0)
        assert (c.plateau_min_lr, c.plateau_threshold) == (c.learning_rate, 0.0)
        assert cfg(plateau_min_lr=0.0).plateau_min_lr == 0.0


class TestAdam:
    def test_zero_gradient_is_identity(self):
        net = init_mlp(3, 4, 2, seed=0)
        state = AdamState.zeros_like(net)
        updated = adam_step(net, np.zeros(net.n_params), state, lr=0.1)
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(updated, attr), getattr(net, attr))

    def test_moments_decay_toward_zero(self):
        net = init_mlp(2, 2, 1, seed=0)
        state = AdamState.zeros_like(net)
        net = adam_step(net, np.ones(net.n_params), state, lr=0.01)
        first = np.abs(state.m).max()
        for _ in range(50):
            net = adam_step(net, np.zeros(net.n_params), state, lr=0.01)
        assert np.abs(state.m).max() < first * 1e-2

    def test_first_step_magnitude(self):
        # first update moves each coordinate by lr * |g| / (|g| + eps)
        net = init_mlp(2, 3, 2, seed=1)
        state = AdamState.zeros_like(net)
        rng = np.random.default_rng(2)
        grad = np.zeros(net.n_params)
        g = net.blocks(grad)[0]
        g[...] = rng.normal(size=g.shape)
        lr, eps = 0.05, 1e-8
        updated = adam_step(net, grad, state, lr=lr, eps=eps)
        delta = np.abs(updated.W - net.W)
        expected = lr * np.abs(g) / (np.abs(g) + eps)
        assert np.allclose(delta, expected, rtol=1e-12)

    def test_converges_on_quadratic(self):
        # oracle: 100 Adam steps on f(theta) = theta^2 from theta=1, lr=0.1
        net = Mlp(W=[[1.0]], b=[0.0], A=[[0.0]], c_out=[0.0])
        state = AdamState.zeros_like(net)
        for _ in range(100):
            grad = np.zeros(net.n_params)
            net.blocks(grad)[0][...] = 2 * net.W
            net = adam_step(net, grad, state, lr=0.1)
        assert abs(net.W[0, 0]) < 0.05

    def test_state_is_updated_in_place(self):
        net = init_mlp(2, 3, 2, seed=3)
        state = AdamState.zeros_like(net)
        m, v = state.m, state.v
        updated = adam_step(net, np.ones(net.n_params), state, lr=0.1)
        assert state.m is m and state.v is v and state.t == 1
        assert m.ndim == 1 and np.all(m > 0) and np.all(v > 0)
        assert updated is not net and not np.array_equal(updated.theta, net.theta)

    def test_non_finite_update_raises(self):
        net = init_mlp(2, 3, 2, seed=3)
        with pytest.raises(ValueError):
            adam_step(net, np.ones(net.n_params), AdamState.zeros_like(net), lr=np.inf)


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

    def test_floor_above_lr_rejected(self):
        # a floor above the starting lr would raise the lr at the first decay
        with pytest.raises(ValueError, match="min_lr"):
            PlateauScheduler(0.01, 0.5, 1, 0.1)

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
        qs = query_teacher(zero, make(tiny_ds, "identity"))
        assert np.all(qs.targets == 0.0)

    def test_cardinality_preserved(self, tiny_ds, tiny_teacher):
        for aug in (make(tiny_ds, "identity"),
                    make(tiny_ds, "biased_noise", magnitude=1.0, seed=0)):
            qs = query_teacher(tiny_teacher, aug)
            assert qs.Q == aug.Q

    def test_purity(self, tiny_ds, tiny_teacher):
        aug = make(tiny_ds, "biased_noise", magnitude=1.0, seed=5)
        a = query_teacher(tiny_teacher, aug)
        b = query_teacher(tiny_teacher, aug)
        assert np.array_equal(a.targets, b.targets)

    def test_targets_are_logits(self, tiny_ds, tiny_teacher):
        qs = query_teacher(tiny_teacher, make(tiny_ds, "identity"))
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
            cfg(learning_rate=2e-2, batch_size=256, max_steps=60000, eval_every=500,
                plateau_patience=6, plateau_factor=0.3, plateau_threshold=1e-3,
                plateau_min_lr=1e-8, target_loss=1e-8, seed=7),
        )
        assert final_loss(history) < 1e-5
        assert final_loss(history) < history[0][1] * 1e-7

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

    def test_pool_no_wider_than_the_students(self, tiny_queries, monkeypatch):
        # a fork pool starts all its workers on the first task, used or not
        widths = []
        real = train.ProcessPoolExecutor

        def recording(max_workers):
            widths.append(max_workers)
            return real(max_workers=min(max_workers, 2))

        monkeypatch.setattr(train, "ProcessPoolExecutor", recording)
        pooled = list(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1], jobs=8))
        assert widths == [2]
        alone = list(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1]))
        assert [(i, net.theta.tobytes()) for i, net, _, _ in pooled] == \
            [(i, net.theta.tobytes()) for i, net, _, _ in alone]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tiny_queries, jobs):
        with pytest.raises(ValueError, match="jobs"):
            next(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1], jobs=jobs))


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
