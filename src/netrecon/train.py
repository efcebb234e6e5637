"""Adam optimization, plateau learning-rate scheduling, teacher and student training.

Teachers are classifiers fit with softmax cross-entropy on labeled data.
Students imitate a teacher's logits under mean squared error; an ensemble of
independently seeded, over-wide students is the raw material the
reconstruction stage clusters.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from math import isfinite

import numpy as np

from .augment import AugmentedSet
from .data import ImageDataset, QuerySet
from .errors import DivergenceError
from .network import (
    _TILE,
    Mlp,
    _backprop_into,
    _forward_into,
    _gauss_newton,
    _outputs,
    _require_finite,
    init_mlp,
    mse_loss,
)

HistoryPoint = tuple[int, float, float]  # (step, full-set train loss, lr)

# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# Levenberg-Marquardt: the starting damping, its factors after a step that
# lowers the loss (down) and one that does not (up), the damping past which
# no step can help, and the iteration cap
_LM_DAMPING, _LM_DOWN, _LM_UP, _LM_MAX_DAMPING, _LM_ITERATIONS = 1e-3, 3.0, 4.0, 1e10, 100


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for one training run.

    Adam's own constants are fixed in code (`_BETA1`, `_BETA2`, `_EPS`).
    `eval_every` of None means one epoch-equivalent of steps. `target_loss`
    stops training early once the full-set loss reaches it; the default is low
    enough to be off in practice.
    """

    learning_rate: float
    batch_size: int
    max_steps: int
    plateau_patience: int = 10
    plateau_factor: float = 0.5
    plateau_min_lr: float = 1e-7
    plateau_threshold: float = 0.0  # relative improvement needed to reset patience
    eval_every: int | None = None
    target_loss: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if not 0 < self.plateau_factor < 1:
            raise ValueError("plateau_factor must be in (0, 1)")
        # a floor above the lr would raise it; a threshold of 1 makes no eval improve
        if not 0 <= self.plateau_min_lr <= self.learning_rate:
            raise ValueError("plateau_min_lr must be in [0, learning_rate]")
        if not 0 <= self.plateau_threshold < 1:
            raise ValueError("plateau_threshold must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class AdamState:
    """First and second moment accumulators, vectors laid out like `Mlp.theta`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, net: Mlp) -> "AdamState":
        return cls(m=np.zeros_like(net.theta), v=np.zeros_like(net.theta))


def _adam_update(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float,
                 scratch: np.ndarray) -> None:
    """One Adam update of `theta` in place, with bias correction; `grad` is laid out like it.

    Updates `state` in place too. Runs over tiles of `network._TILE`
    elements, with `scratch` (two rows of at least min(theta.size, _TILE)
    floats) as the only temporaries, so nothing as large as `theta` is formed.
    """
    state.t += 1
    c1, c2 = 1.0 - _BETA1**state.t, 1.0 - _BETA2**state.t
    a_buf, b_buf = scratch
    for i in range(0, theta.size, _TILE):
        tile = slice(i, i + _TILE)
        t, g, m, v = theta[tile], grad[tile], state.m[tile], state.v[tile]
        a, b = a_buf[:g.size], b_buf[:g.size]
        m *= _BETA1
        m += np.multiply(g, 1.0 - _BETA1, out=a)
        v *= _BETA2
        np.square(g, out=a)  # g * g, with the same rounding
        a *= 1.0 - _BETA2
        v += a
        np.divide(m, c1, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        a /= b  # the step direction
        a *= lr
        t -= a


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState, lr: float) -> Mlp:
    """One Adam update with bias correction; `grad` is laid out like `net.theta`.

    Updates `state` in place and returns a new net, leaving `net` as it is:
    `_adam_update`, the kernel training runs, updates a copy of `net.theta`,
    with two tile-sized scratch arrays. Raises ValueError when the update
    makes a parameter non-finite.
    """
    theta = net.theta.copy()
    _adam_update(theta, grad, state, lr, np.empty((2, min(theta.size, _TILE))))
    return Mlp.from_flat(theta, net.r, net.d, net.c)


class PlateauScheduler:
    """Multiply lr by `plateau_factor` after `plateau_patience` consecutive
    non-improving evaluations, starting from `cfg.learning_rate`.

    With `plateau_threshold` > 0 an evaluation only counts as improving when it
    beats the best seen so far by that relative margin; lucky sub-threshold
    wiggles then stop resetting the patience counter. The lr never increases
    and never drops below `plateau_min_lr`.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lr = cfg.learning_rate
        self.best = np.inf
        self.bad_evals = 0

    def step(self, metric: float) -> float:
        if metric < self.best * (1.0 - self.cfg.plateau_threshold):
            self.best = metric
            self.bad_evals = 0
        else:
            self.bad_evals += 1
            if self.bad_evals >= self.cfg.plateau_patience:
                self.lr = max(self.lr * self.cfg.plateau_factor, self.cfg.plateau_min_lr)
                self.bad_evals = 0
        return self.lr


def steps_for(epochs: int, dataset_size: int, batch_size: int) -> int:
    """Step budget equivalent to a number of epochs: floor(epochs * |X| / |batch|)."""
    if min(epochs, dataset_size, batch_size) < 1:
        raise ValueError("epochs, dataset_size and batch_size must all be >= 1")
    return (epochs * dataset_size) // batch_size


def _cross_entropy(out: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(out) against integer labels, and softmax(out)."""
    shifted = out - out.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    loss = float(np.mean(np.log(total) - shifted[np.arange(out.shape[0]), labels]))
    return loss, exp / total[:, None]


def accuracy(net: Mlp, ds: ImageDataset) -> float:
    """Fraction of samples whose argmax logit equals the label."""
    pred = _outputs(net, ds.images).argmax(axis=1)
    return float(np.mean(pred == ds.labels))


# thread-count calls of the OpenBLAS that numpy's wheels bundle
_BLAS_SET = "scipy_openblas_set_num_threads64_"
_BLAS_GET = "scipy_openblas_get_num_threads64_"


def _blas_thread_calls():
    """(set, get) of numpy's bundled OpenBLAS thread count, or None where either
    symbol is missing, as with another BLAS.

    Looked up on each call, so importing netrecon loads and changes nothing.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        set_threads, get_threads = getattr(lib, _BLAS_SET), getattr(lib, _BLAS_GET)
    except (ImportError, OSError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


@contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the caller's count.

    Multithreaded BLAS sums in an order that depends on the thread count, so
    pinning it makes the bytes of teachers, query targets, students and
    fine-tunes independent of the machine's core count.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    caller = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(caller)


def _fit(net: Mlp, X: np.ndarray, batch_loss, eval_fn,
         cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Shared minibatch Adam loop with epoch-wise shuffling and plateau scheduling.

    `batch_loss(out, idx, dout)` takes the logits `out` of the rows `idx` of
    X, writes the gradient of the batch loss with respect to them into
    `dout`, may overwrite `out`, and returns the batch loss; `eval_fn(net)`
    returns the full-set loss used for the history, the scheduler and early
    stopping. The last short batch of each epoch is kept. Runs with one BLAS
    thread, so its bytes do not depend on the machine's core count.

    The fit owns its state. Adam updates one parameter vector in place; the
    loss functions read it through a private view net that never leaves the
    fit. Every step reuses one batch-sized workspace (a short batch takes its
    leading rows), so a step allocates nothing the size of a batch or of
    `theta`. Returns the evaluated parameters with the lowest full-set loss,
    step 0 included (the first argmin of the history): a new net on a
    second buffer, which the parameters are copied into each time an eval
    improves, or `net` itself when none beat step 0. Raises DivergenceError
    at the step whose batch loss, updated parameters or full-set loss is not
    finite.
    """
    n = X.shape[0]
    rng = np.random.default_rng(cfg.seed)
    sched = PlateauScheduler(cfg)
    eval_every = cfg.eval_every or max(1, -(-n // cfg.batch_size))
    # a diverging run overflows before it is caught; keep that quiet
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        initial = eval_fn(net)
        history: list[HistoryPoint] = [(0, initial, sched.lr)]
        if initial <= cfg.target_loss:
            return net, history
        sched.step(initial)
        theta, best, best_loss = net.theta.copy(), None, initial  # None: `net` is best
        live = Mlp.from_flat(theta.view(), net.r, net.d, net.c)  # read-only; theta is not
        state = AdamState.zeros_like(net)
        scratch = np.empty((2, min(theta.size, _TILE)))
        grad = np.empty(net.n_params)
        rows = min(cfg.batch_size, n)
        # the batch, the hidden layer (first its pre-activations), the slope,
        # the logits, their gradient dout and its pull-back dpre
        workspace = (np.empty((rows, net.d)), np.empty((rows, net.r)), np.empty((rows, net.r)),
                     np.empty((rows, net.c)), np.empty((rows, net.c)), np.empty((rows, net.r)))
        order = rng.permutation(n)
        pos = step = 0
        while step < cfg.max_steps:
            if pos >= n:
                order = rng.permutation(n)
                pos = 0
            idx = order[pos:pos + cfg.batch_size]
            pos += cfg.batch_size
            xb, hidden, slope, out, dout, dpre = (
                workspace if len(idx) == rows else (a[:len(idx)] for a in workspace))
            # the indices are in range; "clip" lets take fill xb without a buffer
            np.take(X, idx, axis=0, out=xb, mode="clip")
            _forward_into(live, xb, hidden, hidden, out, slope)
            loss = batch_loss(out, idx, dout)
            if not isfinite(loss):
                raise DivergenceError(step)
            _backprop_into(live, xb, hidden, slope, dout, dpre, grad)
            _adam_update(theta, grad, state, sched.lr, scratch)
            try:
                _require_finite(theta)
            except ValueError as exc:  # non-finite parameters with a still-finite loss
                raise DivergenceError(step, f"diverged at step {step}: {exc}") from exc
            step += 1
            if step % eval_every == 0 or step == cfg.max_steps:
                full = eval_fn(live)
                if not isfinite(full):
                    raise DivergenceError(step)
                history.append((step, full, sched.lr))
                if full < best_loss:
                    best_loss = full
                    if best is None:
                        best = theta.copy()
                    else:
                        np.copyto(best, theta)
                sched.step(full)
                if full <= cfg.target_loss:
                    break
    if best is None:
        return net, history
    return Mlp.from_flat(best, net.r, net.d, net.c), history


def train_teacher(ds: ImageDataset, r: int, cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Fit a width-r classifier on a standardized labeled dataset.

    Deterministic under cfg.seed: the same config trains bit-identical
    teachers, with one BLAS thread whatever the machine's core count. Returns
    the net and the (step, loss, lr) history.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n_classes = int(ds.labels.max()) + 1
    net = init_mlp(r, ds.d, n_classes, seed=cfg.seed)
    X, labels = ds.images, ds.labels

    def batch_loss(out, idx, dout):
        """Mean cross-entropy of softmax(out) against the batch's labels."""
        batch_labels = np.take(labels, idx)
        loss, p = _cross_entropy(out, batch_labels)
        p[np.arange(len(idx)), batch_labels] -= 1.0
        np.divide(p, len(idx), out=dout)
        return loss

    return _fit(net, X, batch_loss, lambda m: _cross_entropy(_outputs(m, X), labels)[0], cfg)


def query_teacher(teacher: Mlp, aug: AugmentedSet) -> QuerySet:
    """Label query inputs with the teacher's raw (pre-softmax) logits, computed
    with one BLAS thread."""
    with _one_blas_thread():
        targets = _outputs(teacher, aug.inputs)
    return QuerySet(inputs=aug.inputs, targets=targets,
                    provenance=aug.spec.describe())


def train_student(qs: QuerySet, r_student: int,
                  cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Fit one fresh width-r_student imitator to a query set under MSE."""
    net = init_mlp(r_student, qs.d, qs.c, seed=cfg.seed)
    return fit_mse(net, qs, cfg)


def fit_mse(net: Mlp, qs: QuerySet, cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Minimize the imitation loss over a query set starting from `net`."""
    X, Y = qs.inputs, qs.targets
    targets = np.empty((min(cfg.batch_size, qs.Q), qs.c))

    def batch_loss(out, idx, dout):
        """The imitation loss of the batch; its residual overwrites `out`."""
        b = len(idx)
        out -= np.take(Y, idx, axis=0, out=targets[:b], mode="clip")
        np.multiply(out, out, out=dout)
        loss = float(np.sum(dout) / b)
        np.multiply(out, 2.0 / b, out=dout)
        return loss

    return _fit(net, X, batch_loss, lambda m: mse_loss(m, X, Y), cfg)


@_one_blas_thread()
def fit_lm(net: Mlp, qs: QuerySet, cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Minimize the imitation loss over the whole query set by Levenberg-Marquardt.

    Each iteration solves (JᵀJ + λ D) δ = -Jᵀe, D the diagonal of JᵀJ
    (Marquardt's scaling; 1 where a parameter moves no logit), in its
    unit-diagonal form. It uses numpy's LAPACK, whose BLAS thread count it
    pins. A step that lowers the full-set loss is taken and divides λ by
    `_LM_DOWN`; any other step, or a singular system, multiplies λ by
    `_LM_UP`. The fit stops at
    `cfg.target_loss`, after `cfg.max_steps` steps taken, after
    `_LM_ITERATIONS` iterations or once λ passes `_LM_MAX_DAMPING`; no other
    field of `cfg` is read. The history has row 0 and one (iteration, loss,
    λ) row per iteration, with the loss of the net kept and the λ of the
    next iteration, so the net returned has the history's lowest loss. At
    most two arrays of n_params**2 floats are alive: JᵀJ, and the copy that
    the solve factors or the mask `_gauss_newton` applies. Runs with one BLAS
    thread, so its bytes do not depend on the machine's core count.
    """
    X, Y = qs.inputs, qs.targets
    damping = _LM_DAMPING
    loss = mse_loss(net, X, Y)
    if not np.isfinite(loss):
        raise DivergenceError(0)
    history: list[HistoryPoint] = [(0, loss, damping)]
    taken, jtj = 0, None
    for iteration in range(1, _LM_ITERATIONS + 1):
        if loss <= cfg.target_loss or taken >= cfg.max_steps or damping > _LM_MAX_DAMPING:
            break
        if jtj is None:  # the net moved: rebuild the normal equations
            jtj, grad = _gauss_newton(net, X, Y)
            scale = np.sqrt(np.diag(jtj))
            scale[scale == 0.0] = 1.0
            jtj /= scale[:, None]
            jtj /= scale
            grad /= scale
            diagonal = np.diag(jtj).copy()
        jtj.flat[::len(grad) + 1] = diagonal + damping  # solve factors a copy
        trial_loss = np.inf
        try:
            step = np.linalg.solve(jtj, grad) / scale
            trial = Mlp.from_flat(net.theta - step, net.r, net.d, net.c)
            with np.errstate(over="ignore", invalid="ignore"):
                trial_loss = mse_loss(trial, X, Y)
        except (np.linalg.LinAlgError, ValueError):  # a singular system, a non-finite step
            pass
        if trial_loss < loss:
            net, loss, jtj = trial, trial_loss, None
            taken += 1
            damping /= _LM_DOWN
        else:
            damping *= _LM_UP
        history.append((iteration, loss, damping))
    return net, history


@dataclass(eq=False)
class StudentEnsemble:
    """N independently trained imitators of one teacher.

    `students[i]` is None when student i diverged; the failure is recorded in
    `failures` and the rest of the ensemble is unaffected.
    """

    students: list[Mlp | None]
    histories: list[list[HistoryPoint]]
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def final_losses(self) -> list[float]:
        return [final_loss(h) for h in self.histories]

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def trained(self) -> list[Mlp]:
        return [s for s in self.students if s is not None]


def _train_one(qs: QuerySet, r_student: int, cfg: TrainConfig,
               index: int) -> tuple[int, Mlp | None, list[HistoryPoint], str]:
    try:
        net, history = train_student(qs, r_student, replace(cfg, seed=cfg.seed + index))
        return index, net, history, ""
    except DivergenceError as exc:
        return index, None, [], str(exc)


# the work a pool worker serves, set once per worker process by _init_worker
_worker_work = None


def _init_worker(qs: QuerySet, r_student: int, cfg: TrainConfig) -> None:
    """Pool initializer: the query set kept for every task (inherited under
    fork, not pickled per task)."""
    global _worker_work
    _worker_work = partial(_train_one, qs, r_student, cfg)


def _train_slot(index: int) -> tuple[int, Mlp | None, list[HistoryPoint], str]:
    return _worker_work(index)


def iter_students(qs: QuerySet, r_student: int, cfg: TrainConfig, indices,
                  jobs: int = 1) -> Iterator[tuple[int, Mlp | None, list[HistoryPoint], str]]:
    """Train one width-r_student student per seed index i (seed cfg.seed + i).

    Yields (index, net, history, message) in the order of the `indices`
    sequence as each student finishes; a diverged one yields (index, None, [],
    message). `jobs` > 1 trains in up to `jobs` parallel processes, never more
    than there are students, bit-identically; each worker receives the query
    set once, and tasks carry only the index.

    Students train with one BLAS thread in every process (`_fit` pins it),
    so their bytes do not depend on `jobs` or on the machine's core count;
    `jobs` = 1 at paper width (d=784, r=2048, B=256) therefore takes about
    67-72 ms per step against 49-52 ms with the default threads on 2 cores.
    The pin holds only while a student trains: the caller's thread count is
    back in force at each yield and after the last one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and len(indices) > 1:
        # imported here, so that a process that never opens a pool does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(indices)),
                                 initializer=_init_worker,
                                 initargs=(qs, r_student, cfg)) as pool:
            yield from pool.map(_train_slot, indices)
    else:
        for index in indices:
            yield _train_one(qs, r_student, cfg, index)


def final_loss(history: list[HistoryPoint]) -> float:
    """Full-set loss of the parameters a training run returned (nan if none)."""
    return min(loss for _, loss, _ in history) if history else float("nan")


def train_ensemble(qs: QuerySet, teacher_r: int, rho: int, N: int,
                   cfg: TrainConfig, jobs: int = 1) -> StudentEnsemble:
    """Train N students of width rho*teacher_r with seeds cfg.seed+0 .. +N-1.

    Students are independent, so `jobs` > 1 trains them in parallel processes;
    the result is ordered by seed index and bit-identical either way.
    """
    if N < 2:
        raise ValueError("an ensemble needs N >= 2 students")
    if rho < 1 or teacher_r < 1:
        raise ValueError("rho and teacher_r must be >= 1")
    results = list(iter_students(qs, rho * teacher_r, cfg, range(N), jobs))
    return StudentEnsemble(
        students=[net for _, net, _, _ in results],
        histories=[hist for _, _, hist, _ in results],
        failures=[(i, msg) for i, net, _, msg in results if net is None],
    )
