"""Diagnostics that predict and explain reconstruction success.

Losses on arbitrary evaluation sets expose overfitting (a large gap between
train and out-of-distribution loss means the imitator memorized the queries),
and pre-activation variability measures how informative a query set is for
each hidden neuron of the network being probed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_csv
from .network import Mlp, _outputs, _preactivations, mse_loss


@dataclass(frozen=True, eq=False)
class VariabilityStats:
    """Per-neuron standard deviation of pre-activations over a query set."""

    per_neuron_std: np.ndarray  # (r,)
    mean_std: float
    sem_std: float  # standard error of the mean across neurons


@dataclass(frozen=True, eq=False)
class Histogram:
    counts: np.ndarray  # (bins,) int64
    edges: np.ndarray  # (bins + 1,)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def std(self) -> float:
        """Standard deviation of the binned distribution (bin midpoints, count-weighted)."""
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        p = self.counts / max(self.total, 1)
        mean = float(p @ mids)
        return float(np.sqrt(p @ (mids - mean) ** 2))


def imitation_loss(student: Mlp, teacher: Mlp, X: np.ndarray) -> float:
    """Mean squared difference between the two networks' logits over X."""
    X = np.asarray(X, dtype=np.float64)
    return mse_loss(student, X, _outputs(teacher, X))


def preactivation_variability(net: Mlp, X: np.ndarray) -> VariabilityStats:
    """Spread of each hidden neuron's pre-activation w.x + b across the rows of X.

    Population (ddof=0) standard deviations; the aggregate is their mean with
    the standard error of that mean across neurons.
    """
    pre = _preactivations(net, X)
    per_neuron = pre.std(axis=0)
    r = per_neuron.shape[0]
    return VariabilityStats(
        per_neuron_std=per_neuron,
        mean_std=float(per_neuron.mean()),
        sem_std=float(per_neuron.std() / np.sqrt(r)),
    )


def preactivation_histogram(net: Mlp, X: np.ndarray, bins: int) -> Histogram:
    """Pooled histogram of all r*Q pre-activation values, uniform bins over [min, max]."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    pre = _preactivations(net, X).ravel()
    counts, edges = np.histogram(pre, bins=bins)
    return Histogram(counts=counts.astype(np.int64), edges=edges)


def scatter_table(teacher: Mlp, students: list[Mlp | None],
                  eval_sets: list[tuple[str, np.ndarray]],
                  ) -> list[tuple[int, str, int, float]]:
    """Imitation losses for every (student, evaluation set) pair.

    Rows are (student_index, dataset_name, Q, loss); plotting train loss
    against a differently-distributed set's loss from this table is the
    quickest overfitting check. `student_index` is the student's slot in
    `students`; missing (None) students get no rows. The teacher's logits are
    computed once per set, not once per pair.
    """
    labelled = [(name, X, _outputs(teacher, X)) for name, X in eval_sets]
    return [(i, name, X.shape[0], mse_loss(student, X, Y))
            for i, student in enumerate(students) if student is not None
            for name, X, Y in labelled]


def write_losses_csv(rows: list[tuple[int, str, int, float]], path: str) -> None:
    atomic_write_csv(path, "student,dataset,Q,loss", rows)


def write_variability_csv(rows: list[tuple[str, VariabilityStats]], path: str) -> None:
    atomic_write_csv(path, "strategy,mean_std,sem_std",
                     [(name, s.mean_std, s.sem_std) for name, s in rows])


def write_histogram_csv(hist: Histogram, path: str) -> None:
    atomic_write_csv(path, "bin_lo,bin_hi,count",
                     zip(hist.edges[:-1], hist.edges[1:], hist.counts))
