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
from .network import Mlp, _inputs, _outputs, _preactivations, _row_blocks, mse_loss
from .train import _one_blas_thread


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


def _preactivation_blocks(net: Mlp, X: np.ndarray, lead: int = 0):
    """A function whose every call runs one pass over X, yielding the
    pre-activations W x + b one row block at a time.

    The blocks are `_row_blocks`, as in every full-set pass, whose products
    have a whole-set pass's bytes (but see `network._ROWS`). Every pass
    yields them in one array, sized for the largest: each block as its first
    `lead` + rows rows, the pre-activations in rows `lead`: and the first
    `lead` rows left to the caller. No (Q, r) array is formed.
    """
    blocks = _row_blocks(X.shape[0])
    buf = np.empty((lead + blocks[-1].stop - blocks[-1].start, net.r))

    def one_pass():
        for rows in blocks:
            block = buf[:lead + rows.stop - rows.start]
            _preactivations(net, X[rows], block[lead:])
            yield block
    return one_pass


def preactivation_variability(net: Mlp, X: np.ndarray) -> VariabilityStats:
    """Spread of each hidden neuron's pre-activation w.x + b across the rows of X.

    Population (ddof=0) standard deviations; the aggregate is their mean with
    the standard error of that mean across neurons. No (Q, r) matrix is
    formed. At r >= 2 they have the bytes of `pre.std(axis=0)` on the whole
    matrix wherever `_outputs`' block products equal the whole-set product:
    at widths off OpenBLAS's 8-column unroll (say r = 513 or 700) the two
    can differ in the last bits (see `network._ROWS` and CHANGES.md). It runs
    at the caller's BLAS thread count, so at d = 784 the last bits can change
    with it too; it is left unpinned on purpose: at r = 512 on 6,144 rows a
    call takes 137-139 ms with two threads and 235-244 ms with one.
    """
    X = _inputs(net, X)
    # two passes sum the pre-activations, then their squared deviations from
    # the mean; each block is summed with the running total as its row 0,
    # which keeps numpy's row-by-row order (a lone column, r = 1, numpy sums
    # pairwise, so there the last bits can differ)
    blocks = _preactivation_blocks(net, X, lead=1)
    total = np.zeros(net.r)
    for block in blocks():
        block[0] = total
        block.sum(axis=0, out=total)
    mean = np.divide(total, X.shape[0])
    squares = np.zeros(net.r)
    for block in blocks():
        dev = block[1:]
        dev -= mean
        np.square(dev, out=dev)
        block[0] = squares
        block.sum(axis=0, out=squares)
    per_neuron = np.sqrt(np.divide(squares, X.shape[0]))
    r = per_neuron.shape[0]
    return VariabilityStats(
        per_neuron_std=per_neuron,
        mean_std=float(per_neuron.mean()),
        sem_std=float(per_neuron.std() / np.sqrt(r)),
    )


def preactivation_histogram(net: Mlp, X: np.ndarray, bins: int) -> Histogram:
    """Pooled histogram of all r*Q pre-activation values, uniform bins over [min, max].

    One pass over row blocks finds the range, a second bins each block into
    it. The counts and edges are `np.histogram`'s on the whole (Q, r) matrix
    wherever `_outputs`' block products equal the whole-set product; at
    widths off OpenBLAS's 8-column unroll (say r = 513 or 700) a value's last
    bits, and so a bin edge or count, can differ (see `network._ROWS`), and at
    d = 784 they can with the BLAS thread count (see `preactivation_variability`).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    X = _inputs(net, X)
    blocks = _preactivation_blocks(net, X)
    lo, hi = np.inf, -np.inf
    for pre in blocks():
        # minimum and maximum propagate nan, which np.histogram then refuses
        lo = np.minimum(lo, pre.min(initial=np.inf))
        hi = np.maximum(hi, pre.max(initial=-np.inf))
    span = (lo, hi) if X.shape[0] else None  # None: np.histogram bins no values over [0, 1]
    counts = np.zeros(bins, dtype=np.int64)
    for pre in blocks():
        block_counts, edges = np.histogram(pre.ravel(), bins, range=span)
        counts += block_counts
    return Histogram(counts=counts, edges=edges)


@_one_blas_thread()
def scatter_table(teacher: Mlp, students: list[Mlp | None],
                  eval_sets: list[tuple[str, np.ndarray]],
                  ) -> list[tuple[int, str, int, float]]:
    """Imitation losses for every (student, evaluation set) pair.

    Rows are (student_index, dataset_name, Q, loss); plotting train loss
    against a differently-distributed set's loss from this table is the
    quickest overfitting check. `student_index` is the student's slot in
    `students`; missing (None) students get no rows. The teacher's logits are
    computed once per set, not once per pair. Runs with one BLAS thread, so
    the losses do not depend on the machine's core count.
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
