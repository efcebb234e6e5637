"""Adam optimization, plateau learning-rate scheduling, teacher and student training.

Teachers are classifiers fit with softmax cross-entropy on labeled data.
Students imitate a teacher's logits under mean squared error; an ensemble of
independently seeded, over-wide students is the raw material the
reconstruction stage clusters.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .augment import AugmentedSet
from .data import ImageDataset, QuerySet
from .errors import DivergenceError
from .network import (
    Mlp,
    _forward,
    backprop_from_dout,
    backward_mse,
    forward,
    init_mlp,
    mse_loss,
)

HistoryPoint = tuple[int, float, float]  # (step, full-set train loss, lr)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for one training run.

    `eval_every` of None means one epoch-equivalent of steps. `target_loss`
    stops training early once the full-set loss reaches it; the default is low
    enough to be off in practice.
    """

    learning_rate: float
    batch_size: int
    max_steps: int
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
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
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")


@dataclass(eq=False)
class AdamState:
    """First and second moment accumulators, vectors laid out like `Mlp.theta`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, net: Mlp) -> "AdamState":
        return cls(m=np.zeros_like(net.theta), v=np.zeros_like(net.theta))


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> Mlp:
    """One Adam update with bias correction; `grad` is laid out like `net.theta`.

    Updates `state` in place and returns a new net, leaving `net` as it is.
    Raises ValueError when the update makes a parameter non-finite.
    """
    state.t += 1
    state.m *= beta1
    state.m += (1.0 - beta1) * grad
    state.v *= beta2
    state.v += (1.0 - beta2) * (grad * grad)
    step_dir = ((state.m / (1.0 - beta1**state.t))
                / (np.sqrt(state.v / (1.0 - beta2**state.t)) + eps))
    return Mlp.from_flat(net.theta - lr * step_dir, net.r, net.d, net.c)


class PlateauScheduler:
    """Multiply lr by `factor` after `patience` consecutive non-improving evaluations.

    With `threshold` > 0 an evaluation only counts as improving when it beats
    the best seen so far by that relative margin; lucky sub-threshold wiggles
    then stop resetting the patience counter. The lr never increases and never
    drops below `min_lr`.
    """

    def __init__(self, lr: float, factor: float, patience: int, min_lr: float,
                 threshold: float = 0.0):
        if min_lr > lr:
            raise ValueError("min_lr must not exceed lr")
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.threshold = threshold
        self.best = np.inf
        self.bad_evals = 0

    def step(self, metric: float) -> float:
        if metric < self.best * (1.0 - self.threshold):
            self.best = metric
            self.bad_evals = 0
        else:
            self.bad_evals += 1
            if self.bad_evals >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
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


def _softmax_ce(net: Mlp, X: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean cross-entropy of softmax(logits) against integer labels, with its gradient."""
    trace = _forward(net, X, slope=True)
    B = X.shape[0]
    loss, p = _cross_entropy(trace.out, labels)
    p[np.arange(B), labels] -= 1.0
    return backprop_from_dout(net, trace, X, p / B), loss


def accuracy(net: Mlp, ds: ImageDataset) -> float:
    """Fraction of samples whose argmax logit equals the label."""
    pred = forward(net, ds.images).out.argmax(axis=1)
    return float(np.mean(pred == ds.labels))


def _fit(net: Mlp, X: np.ndarray, grad_fn, eval_fn,
         cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Shared minibatch Adam loop with epoch-wise shuffling and plateau scheduling.

    `grad_fn(net, idx)` returns (gradient laid out like `net.theta`, batch
    loss); `eval_fn(net)` the full-set loss used for the history, the
    scheduler and early stopping. The last short batch of each epoch is kept.
    Returns the evaluated net with the lowest full-set loss, step 0 included
    (the first argmin of the history); nets are immutable, so it is kept
    without a copy.
    """
    n = X.shape[0]
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.zeros_like(net)
    sched = PlateauScheduler(cfg.learning_rate, cfg.plateau_factor,
                             cfg.plateau_patience, cfg.plateau_min_lr,
                             threshold=cfg.plateau_threshold)
    eval_every = cfg.eval_every or max(1, -(-n // cfg.batch_size))
    initial = eval_fn(net)
    history: list[HistoryPoint] = [(0, initial, sched.lr)]
    if initial <= cfg.target_loss:
        return net, history
    sched.step(initial)
    best, best_loss = net, initial
    order = rng.permutation(n)
    pos = 0
    step = 0
    while step < cfg.max_steps:
        if pos >= n:
            order = rng.permutation(n)
            pos = 0
        batch_idx = order[pos:pos + cfg.batch_size]
        pos += cfg.batch_size
        with np.errstate(over="ignore", invalid="ignore"):
            # a diverging run overflows before it is caught; keep that quiet
            grad, batch_loss = grad_fn(net, batch_idx)
        if not np.isfinite(batch_loss):
            raise DivergenceError(step)
        try:
            net = adam_step(net, grad, state, sched.lr,
                            cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        except ValueError as exc:  # non-finite parameters with a still-finite loss
            raise DivergenceError(step, f"diverged at step {step}: {exc}") from exc
        step += 1
        if step % eval_every == 0 or step == cfg.max_steps:
            full = eval_fn(net)
            if not np.isfinite(full):
                raise DivergenceError(step)
            history.append((step, full, sched.lr))
            if full < best_loss:
                best, best_loss = net, full
            sched.step(full)
            if full <= cfg.target_loss:
                break
    return best, history


def train_teacher(ds: ImageDataset, r: int, cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Fit a width-r classifier on a standardized labeled dataset.

    Deterministic under cfg.seed: the same config trains bit-identical
    teachers. Returns the net and the (step, loss, lr) history.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n_classes = int(ds.labels.max()) + 1
    net = init_mlp(r, ds.d, n_classes, seed=cfg.seed)
    X, labels = ds.images, ds.labels
    return _fit(
        net, X,
        grad_fn=lambda m, idx: _softmax_ce(m, X[idx], labels[idx]),
        eval_fn=lambda m: _cross_entropy(forward(m, X).out, labels)[0],
        cfg=cfg,
    )


def query_teacher(teacher: Mlp, aug: AugmentedSet) -> QuerySet:
    """Label query inputs with the teacher's raw (pre-softmax) logits."""
    targets = forward(teacher, aug.inputs).out
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
    return _fit(
        net, X,
        grad_fn=lambda m, idx: backward_mse(m, X[idx], Y[idx]),
        eval_fn=lambda m: mse_loss(m, X, Y),
        cfg=cfg,
    )


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


def iter_students(qs: QuerySet, r_student: int, cfg: TrainConfig, indices,
                  jobs: int = 1) -> Iterator[tuple[int, Mlp | None, list[HistoryPoint], str]]:
    """Train one width-r_student student per seed index i (seed cfg.seed + i).

    Yields (index, net, history, message) in the order of the `indices`
    sequence as each student finishes; a diverged one yields (index, None, [],
    message). `jobs` > 1 trains in up to `jobs` parallel processes, never more
    than there are students, bit-identically.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = partial(_train_one, qs, r_student, cfg)
    if jobs > 1 and len(indices) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
            yield from pool.map(work, indices)
    else:
        yield from map(work, indices)


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
