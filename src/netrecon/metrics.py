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
from .network import Mlp, forward, mse_loss


@dataclass(frozen=True)
class LossPoint:
    dataset_name: str
    loss: float
    Q: int


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


def imitation_loss(student: Mlp, teacher: Mlp, X: np.ndarray,
                   dataset_name: str = "") -> LossPoint:
    """Mean squared difference between the two networks' logits over X."""
    X = np.asarray(X, dtype=np.float64)
    loss = mse_loss(student, X, forward(teacher, X).out)
    return LossPoint(dataset_name=dataset_name, loss=loss, Q=X.shape[0])


def preactivation_variability(net: Mlp, X: np.ndarray) -> VariabilityStats:
    """Spread of each hidden neuron's pre-activation w.x + b across the rows of X.

    Population (ddof=0) standard deviations; the aggregate is their mean with
    the standard error of that mean across neurons.
    """
    pre = forward(net, X).pre
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
    pre = forward(net, X).pre.ravel()
    counts, edges = np.histogram(pre, bins=bins)
    return Histogram(counts=counts.astype(np.int64), edges=edges)


def scatter_table(teacher: Mlp, students: list[Mlp],
                  eval_sets: list[tuple[str, np.ndarray]],
                  ) -> list[tuple[int, str, int, float]]:
    """Imitation losses for every (student, evaluation set) pair.

    Rows are (student_index, dataset_name, Q, loss); plotting train loss
    against a differently-distributed set's loss from this table is the
    quickest overfitting check.
    """
    rows = []
    for i, student in enumerate(students):
        for name, X in eval_sets:
            point = imitation_loss(student, teacher, X, dataset_name=name)
            rows.append((i, name, point.Q, point.loss))
    return rows


def write_losses_csv(rows: list[tuple[int, str, int, float]], path: str) -> None:
    atomic_write_csv(path, "student,dataset,Q,loss", rows)


def write_variability_csv(rows: list[tuple[str, VariabilityStats]], path: str) -> None:
    atomic_write_csv(path, "strategy,mean_std,sem_std",
                     [(name, s.mean_std, s.sem_std) for name, s in rows])


def write_histogram_csv(hist: Histogram, path: str) -> None:
    atomic_write_csv(path, "bin_lo,bin_hi,count",
                     zip(hist.edges[:-1], hist.edges[1:], hist.counts))
