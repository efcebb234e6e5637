import concurrent.futures
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import peak_while

import netrecon
from netrecon import train
from netrecon.augment import AugmentationSpec, build
from netrecon.data import QuerySet, make_synthetic_classification, standardize
from netrecon.errors import DivergenceError
from netrecon.network import _TILE, Mlp, forward, init_mlp, mse_loss
from netrecon.reconstruct import fine_tune
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
        dict(eval_every=0), dict(eval_every=-3),
        dict(plateau_patience=0), dict(plateau_patience=-1),
        # default_rng rejects a negative seed only once training starts
        dict(seed=-1),
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
        c = cfg(eval_every=1, plateau_patience=1, seed=0)
        assert (c.eval_every, c.plateau_patience, c.seed) == (1, 1, 0)
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
        updated = adam_step(net, grad, state, lr=lr)
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

    def test_tiles_match_the_whole_vector_formula(self):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        rng = np.random.default_rng(6)
        r, d, c = 128, 252, 3  # 2 * _TILE + 3 parameters
        net = Mlp.from_flat(rng.normal(size=r * d + r + c * r + c), r, d, c)
        assert net.n_params == 2 * _TILE + 3
        state = AdamState.zeros_like(net)
        theta, m, v = net.theta.copy(), np.zeros(net.n_params), np.zeros(net.n_params)
        for t in range(1, 6):
            grad = rng.normal(scale=10.0 ** (t - 3), size=net.n_params)
            lr = 10.0 ** -t
            net = adam_step(net, grad, state, lr)
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * (grad * grad)
            step_dir = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
            theta = theta - lr * step_dir
            assert net.theta.tobytes() == theta.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_no_parameter_sized_temporary(self):
        net = init_mlp(512, 784, 10, seed=0)
        grad = np.random.default_rng(7).normal(size=net.n_params)
        state = AdamState.zeros_like(net)
        stepped, peak = peak_while(adam_step, net, grad, state, 1e-3)
        assert isinstance(stepped, Mlp)
        assert peak < net.theta.nbytes + 4 * _TILE * 8, peak


class TestPlateauScheduler:
    def test_decays_exactly_once_per_plateau(self):
        sched = PlateauScheduler(cfg(learning_rate=1.0, plateau_factor=0.5,
                                     plateau_patience=3, plateau_min_lr=1e-3))
        assert sched.step(1.0) == 1.0
        for metric in (1.0, 1.0):
            assert sched.step(metric) == 1.0
        assert sched.step(1.0) == 0.5  # third bad evaluation triggers one decay
        assert sched.step(1.0) == 0.5  # counter restarted

    def test_improvement_resets_patience(self):
        sched = PlateauScheduler(cfg(learning_rate=1.0, plateau_factor=0.5,
                                     plateau_patience=2, plateau_min_lr=1e-3))
        sched.step(1.0)
        sched.step(1.0)
        assert sched.step(0.5) == 1.0  # improvement arrives before the decay
        sched.step(0.5)
        assert sched.step(0.5) == 0.5

    def test_never_increases_never_below_floor(self):
        rng = np.random.default_rng(0)
        sched = PlateauScheduler(cfg(learning_rate=1.0, plateau_factor=0.5,
                                     plateau_patience=1, plateau_min_lr=0.1))
        previous = sched.lr
        for _ in range(200):
            lr = sched.step(float(rng.uniform(0.9, 1.1)))
            assert lr <= previous
            assert lr >= 0.1
            previous = lr
        assert sched.lr == 0.1

    def test_relative_threshold(self):
        sched = PlateauScheduler(cfg(learning_rate=1.0, plateau_factor=0.5, plateau_patience=2,
                                     plateau_min_lr=1e-6, plateau_threshold=0.01))
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
        # the first step moves the weights by about 1e160, so the second
        # batch's logits overflow: a non-finite batch loss
        with pytest.raises(DivergenceError) as info:
            train_teacher(tiny_ds, 3, cfg(learning_rate=1e160, max_steps=500))
        assert info.value.step == 1
        assert str(info.value) == "non-finite training loss at step 1"


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

    def test_non_finite_parameters_report_step(self):
        # input 4 is 1e308 in row 37 and 0 elsewhere, and its weights start
        # at 0: every loss stays finite, but the batch holding row 37 gives
        # an infinite gradient, so Adam's update makes the parameters nan
        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 5))
        X[:, 4] = 0.0
        X[37, 4] = 1e308
        qs = QuerySet(inputs=X, targets=100.0 * rng.standard_normal((64, 3)))
        start = init_mlp(4, 5, 3, seed=0)
        W = start.W.copy()
        W[:, 4] = 0.0
        start = Mlp(W=W, b=start.b, A=start.A, c_out=start.c_out)
        with pytest.raises(DivergenceError) as info:
            fit_mse(start, qs, cfg(learning_rate=1e-3, batch_size=8))
        assert info.value.step == 2
        assert str(info.value) == "diverged at step 2: parameters contain non-finite entries"

    @pytest.mark.parametrize("max_steps", [1, 40])
    def test_returns_a_read_only_net_of_its_own(self, tiny_queries, max_steps):
        start = init_mlp(6, tiny_queries.d, tiny_queries.c, seed=0)
        before = start.theta.tobytes()
        net, history = fit_mse(start, tiny_queries, cfg(max_steps=max_steps, eval_every=20))
        assert final_loss(history) < history[0][1]  # an eval improved on step 0
        assert not net.theta.flags.writeable
        assert not np.shares_memory(net.theta, start.theta)
        assert start.theta.tobytes() == before
        with pytest.raises(ValueError):
            net.theta[0] = 0.0

    def test_peak_does_not_grow_with_steps(self):
        # paper-shaped rows: r=512, d=784, c=10, 407,050 parameters; no eval
        # between step 0 and the last step
        r, d, c, Q, B = 512, 784, 10, 256, 64
        rng = np.random.default_rng(0)
        qs = QuerySet(inputs=rng.standard_normal((Q, d)), targets=rng.standard_normal((Q, c)))
        start = init_mlp(r, d, c, seed=1)
        peaks = []
        for steps in (2, 6):
            (_, history), peak = peak_while(fit_mse, start, qs,
                                            cfg(learning_rate=1e-3, batch_size=B,
                                                max_steps=steps, eval_every=1000))
            peaks.append(peak)
            assert [h[0] for h in history] == [0, steps]
        # theta, the best parameters, Adam's m and v, and the gradient; the
        # step workspace (the batch, the hidden layer, its slope, dpre, the
        # logits, dout and the gathered targets); an eval block's hidden
        # layer, and at most eight tile-sized scratch arrays
        workspace = 8 * B * (d + 3 * r + 3 * c)
        bound = 5 * start.theta.nbytes + workspace + 8 * Q * r + 8 * 8 * _TILE
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks
        assert max(peaks) < bound, (peaks, bound)

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
        real = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            widths.append(max_workers)
            return real(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        pooled = list(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1], jobs=8))
        assert widths == [2]
        alone = list(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1]))
        assert [(i, net.theta.tobytes()) for i, net, _, _ in pooled] == \
            [(i, net.theta.tobytes()) for i, net, _, _ in alone]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tiny_queries, jobs):
        with pytest.raises(ValueError, match="jobs"):
            next(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1], jobs=jobs))


# Two d=784 students; the targets are drawn, not computed by a teacher's
# forward, so the query set itself does not depend on the BLAS thread count.
PAPER_WIDTH_STUDENTS = """
import hashlib, sys
import numpy as np
from netrecon.data import QuerySet
from netrecon.train import TrainConfig, iter_students
rng = np.random.default_rng(0)
qs = QuerySet(inputs=rng.standard_normal((512, 784)), targets=rng.standard_normal((512, 3)))
cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_steps=8, eval_every=2, seed=5)
for i, net, history, _ in iter_students(qs, 64, cfg, [0, 1], jobs=int(sys.argv[1])):
    print(i, hashlib.sha256(net.theta.tobytes()).hexdigest(), repr(history))
"""

# A d=784 teacher, its query targets over 2,100 rows (two row blocks) and a
# fine-tune on them; the bytes of each would follow an unpinned thread count.
PAPER_WIDTH_TEACHER = """
import hashlib
from netrecon.augment import AugmentationSpec, build
from netrecon.data import make_synthetic_classification, standardize
from netrecon.network import init_mlp
from netrecon.reconstruct import fine_tune
from netrecon.train import TrainConfig, query_teacher, train_teacher
ds, _, _ = standardize(make_synthetic_classification(700, 28, 28, 10, seed=0))
cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_steps=6, eval_every=3, seed=5)
teacher, history = train_teacher(ds, 32, cfg)
qs = query_teacher(teacher, build(AugmentationSpec("biased_noise", magnitude=1.0, seed=2), ds))
tuned, tuned_history = fine_tune(init_mlp(32, 784, 10, seed=6), qs, cfg)
for name, array in (("teacher", teacher.theta), ("targets", qs.targets), ("tuned", tuned.theta)):
    print(name, array.shape, hashlib.sha256(array.tobytes()).hexdigest())
print(repr(history), repr(tuned_history))
"""

# A Levenberg-Marquardt fine-tune (d=40, r=8: 373 parameters, under the byte
# budget) over 2,600 rows, two row blocks; drawn targets, as above.
LM_FINE_TUNE = """
import hashlib
import numpy as np
from netrecon.data import QuerySet
from netrecon.network import init_mlp
from netrecon.reconstruct import fine_tune
from netrecon.train import TrainConfig
rng = np.random.default_rng(0)
qs = QuerySet(inputs=rng.standard_normal((2600, 40)), targets=rng.standard_normal((2600, 5)))
cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_steps=8, seed=5)
tuned, history = fine_tune(init_mlp(8, 40, 5, seed=6), qs, cfg)
print(hashlib.sha256(tuned.theta.tobytes()).hexdigest(), repr(history))
"""


def run_with_threads(script, threads, *args):
    """stdout of `script` in a fresh interpreter that inherits OPENBLAS_NUM_THREADS=threads."""
    src = str(Path(netrecon.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestOneBlasThread:
    @pytest.fixture
    def blas_threads(self):
        calls = train._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle a scipy-openblas with thread-count calls")
        set_threads, get_threads = calls
        caller = get_threads()
        yield set_threads, get_threads
        set_threads(caller)

    def test_paper_width_bytes_independent_of_jobs_and_inherited_threads(self):
        outputs = {}
        for threads in ("1", "2"):
            for jobs in ("1", "2"):  # one run at a time: at most 2 trainers at once
                outputs[threads, jobs] = run_with_threads(PAPER_WIDTH_STUDENTS, threads, jobs)
        assert outputs["1", "1"].count("\n") == 2
        assert len(set(outputs.values())) == 1, outputs

    def test_paper_width_teacher_queries_and_fine_tune_independent_of_inherited_threads(self):
        # one process at a time
        outputs = [run_with_threads(PAPER_WIDTH_TEACHER, threads) for threads in ("1", "2")]
        assert "targets (2100, 10)" in outputs[0]
        assert outputs[0] == outputs[1], outputs

    def test_lm_fine_tune_independent_of_inherited_threads(self):
        outputs = [run_with_threads(LM_FINE_TUNE, threads) for threads in ("1", "2")]
        assert outputs[0].count("\n") == 1
        assert outputs[0] == outputs[1], outputs

    @staticmethod
    def record_threads(monkeypatch, get_threads, names):
        """Record (name, BLAS threads) at each call of train's kernels `names`,
        which run inside the fits and passes that pin the count."""
        during = []
        for name in names:
            def recording(*args, _real=getattr(train, name), _name=name, **kwargs):
                during.append((_name, get_threads()))
                return _real(*args, **kwargs)
            monkeypatch.setattr(train, name, recording)
        return during

    def test_teacher_queries_and_fine_tune_pin_one_thread_and_restore_the_caller(
            self, tiny_ds, blas_threads, monkeypatch):
        set_threads, get_threads = blas_threads
        set_threads(3)
        during = self.record_threads(monkeypatch, get_threads,
                                     ("_forward_into", "_outputs", "mse_loss", "_gauss_newton"))
        phases = []

        def phase(run):
            during.clear()
            result = run()
            phases.append((sorted(set(during)), get_threads()))
            return result

        # the teacher's Adam loop and its passes, then the fine-tune's two
        # paths: Levenberg-Marquardt for a small net, Adam's loop for one over
        # the byte budget (49 * 21 + 4 = 1,033 parameters)
        teacher, _ = phase(lambda: train_teacher(tiny_ds, 3, cfg(max_steps=20, eval_every=10)))
        qs = phase(lambda: query_teacher(teacher, make(tiny_ds, "biased_noise",
                                                       magnitude=1.0, seed=2)))
        phase(lambda: fine_tune(init_mlp(3, qs.d, qs.c, seed=1), qs, cfg(max_steps=20)))
        phase(lambda: fine_tune(init_mlp(49, qs.d, qs.c, seed=1), qs, cfg(max_steps=20)))
        assert phases == [([("_forward_into", 1), ("_outputs", 1)], 3),
                          ([("_outputs", 1)], 3),
                          ([("_gauss_newton", 1), ("mse_loss", 1)], 3),
                          ([("_forward_into", 1), ("mse_loss", 1)], 3)]

    def test_serial_training_pins_one_thread_and_restores_the_caller(
            self, tiny_queries, blas_threads, monkeypatch):
        set_threads, get_threads = blas_threads
        set_threads(3)
        during = self.record_threads(monkeypatch, get_threads, ("_forward_into", "mse_loss"))
        seen = [get_threads() for _ in iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1])]
        # per student: 20 steps and the evals at steps 0 and 20
        assert during == 2 * ([("mse_loss", 1)] + [("_forward_into", 1)] * 20 + [("mse_loss", 1)])
        assert seen == [3, 3]
        assert get_threads() == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_without_the_thread_calls_training_gives_the_same_bytes(
            self, tiny_queries, monkeypatch, jobs):
        pinned = list(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1], jobs=jobs))
        monkeypatch.setattr(train, "_BLAS_SET", "no_such_symbol")
        assert train._blas_thread_calls() is None
        unpinned = list(iter_students(tiny_queries, 4, cfg(max_steps=20), [0, 1], jobs=jobs))
        assert [(i, net.theta.tobytes(), h) for i, net, h, _ in unpinned] == \
            [(i, net.theta.tobytes(), h) for i, net, h, _ in pinned]


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


def digest(net, history):
    """sha256 of the parameters (as <f8) followed by repr(history)."""
    h = hashlib.sha256(net.theta.astype("<f8").tobytes())
    h.update(repr(history).encode())
    return h.hexdigest()


class TestGoldenTraining:
    # sha256 of theta plus history, recorded while Adam's constants and the
    # plateau settings were still passed as separate parameters; d=16, where
    # the bytes do not depend on the BLAS thread count
    @pytest.fixture(scope="class")
    def golden_teacher(self, tiny_ds):
        return train_teacher(tiny_ds, 3, cfg(batch_size=64, max_steps=300, eval_every=50))

    @pytest.fixture(scope="class")
    def golden_queries(self, tiny_ds, golden_teacher):
        return query_teacher(golden_teacher[0],
                             make(tiny_ds, "biased_noise", magnitude=1.0, seed=2))

    def test_train_teacher(self, golden_teacher):
        assert digest(*golden_teacher) == \
            "4e0887d154b06320fd2d27cebbe7f4b4631bbc8b375d1b99958ffa2d17fcd339"

    def test_train_student_through_plateau_decays(self, golden_queries):
        net, history = train_student(golden_queries, 6, cfg(
            learning_rate=0.5, max_steps=200, eval_every=10, plateau_patience=1,
            plateau_threshold=0.05, seed=3))
        lrs = [lr for _, _, lr in history]
        assert len(set(lrs)) > 2  # the plateau decayed at least twice
        assert digest(net, history) == \
            "d9aff9ac3fdbb0f1ffc7c4f65a7f0c95d7f9251313f733b64474d395925e1fb7"

    def test_fit_mse(self, golden_queries):
        start = init_mlp(3, golden_queries.d, golden_queries.c, seed=5)
        net, history = fit_mse(start, golden_queries, cfg(max_steps=150, eval_every=25, seed=4))
        assert digest(net, history) == \
            "28d7704900d6510854d30e28215ab56e95b80eb6a25fd3838504001a8791ed69"
