"""Recover a teacher network from an ensemble of trained imitators.

Near a zero-loss fit, each student hidden neuron either duplicates one teacher
neuron (up to permutation) or carries no function. Pooling every student
neuron's normalized [w; b] direction, clustering the directions, and
collapsing each sufficiently shared cluster back into a single neuron yields a
candidate teacher, which a final fine-tuning pass polishes on the same
queries.

scipy is imported by the functions that use it, so importing this module
(and every CLI stage but `reconstruct`) does not load it: the first call to
`cluster_neurons` loads its sparse, csgraph, hierarchy and spatial packages,
and the first `evaluate_reconstruction` loads `scipy.optimize`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import ceil

import numpy as np

from .data import QuerySet
from .errors import ConfigError, EmptyReconstructionError
from .network import Mlp
from .train import HistoryPoint, TrainConfig, fit_lm, fit_mse


# rows of each upper-triangle Gram block: 512 x n float64 at a time
_GRAM_ROWS = 512
# bytes clustering may spend on its edge lists or on one component's distance
# matrices; a cut loose enough to need more is refused. Fixed, not sized to the
# machine, so the same config is refused everywhere.
_CLUSTER_BYTES = 1 << 30
# peak bytes per edge while the components are found (the int64 head and tail
# lists, the COO weights, scipy's CSR copies): about 60 measured at 4,096 rows
_EDGE_BYTES = 64
# [w; b] norm below which a neuron carries no usable direction
_MIN_NORM = 1e-12
# bytes the Levenberg-Marquardt fine-tune's two n_params x n_params arrays (JᵀJ
# and the copy the solver factors) may take: 1,024 parameters. On desk-shaped
# nets (Q = 6,144) of up to 1,162 parameters LM took at most 0.46x the time of
# Adam's fine-tune; at 1,414 a start it cannot fit ran LM to its iteration cap
# in 0.9x, at 2,026 in 2.0x (BENCH_lm_finetune.json, "lm_budget"). A larger
# net is fine-tuned by Adam. Fixed, so a net's path depends on its size alone.
_LM_BYTES = 1 << 24


@dataclass(frozen=True, eq=False)
class Neurons:
    """Every pooled student hidden neuron, one row each, in slot then hidden order."""

    directions: np.ndarray  # (n, d + 1) unit-norm [w_i; b_i]
    norms: np.ndarray  # (n,) norm of the unnormalized [w_i; b_i]
    outgoing: np.ndarray  # (n, c) column of A fed by the neuron, unscaled
    student: np.ndarray  # (n,) ensemble slot of the neuron's student
    index: np.ndarray  # (n,) hidden index within that student

    def __len__(self) -> int:
        return len(self.norms)


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """A cluster label per neuron plus the acceptance decision for each cluster.

    A cluster is accepted when its members span at least ceil(gamma * N)
    distinct students.
    """

    neurons: Neurons
    labels: np.ndarray  # (n,) cluster of each neuron, numbered by lowest member row
    accepted: np.ndarray  # (clusters,) bool
    gamma: float
    n_students: int

    @property
    def clusters(self) -> list[np.ndarray]:
        """Member rows of each cluster, ascending."""
        counts = np.bincount(self.labels, minlength=len(self.accepted))
        return np.split(np.argsort(self.labels, kind="stable"), np.cumsum(counts))[:-1]

    @property
    def accepted_clusters(self) -> list[np.ndarray]:
        return [c for c, ok in zip(self.clusters, self.accepted) if ok]


@dataclass(frozen=True)
class MatchedPair:
    recon_index: int
    teacher_index: int
    dw: float  # cosine distance between [w; b] directions
    da: float  # cosine distance between outgoing weight columns


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """How well a reconstructed net matches a reference, neuron by neuron."""

    m: int  # recovered hidden width
    r: int  # reference hidden width
    avg_dw: float
    max_dw: float
    avg_da: float
    max_da: float
    pairs: list[MatchedPair]

    @property
    def m_over_r(self) -> float:
        return self.m / self.r


def _directions(W: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the unit-normalized rows of [W | b] into `out`; return their raw norms."""
    out[:, :-1] = W
    out[:, -1] = b
    norms = np.linalg.norm(out, axis=1)
    out /= np.where(norms > 0, norms, 1.0)[:, None]
    return norms


def extract_neurons(students: Sequence[Mlp | None]) -> Neurons:
    """Pool every hidden neuron of every student slot as a normalized direction.

    `student` is the neuron's index in `students`, counting diverged and
    missing (None) slots. Neurons whose [w; b] norm is below `_MIN_NORM`
    carry no usable direction and are excluded; the excluded count is the
    difference between the pooled total and len(result).

    The direction table is allocated once and built in place, one student's
    rows at a time, so the peak is the table plus one student's block; only
    a pool with excluded neurons is copied once more.
    """
    trained = [(i, net) for i, net in enumerate(students) if net is not None]
    if not trained:
        raise ValueError("ensemble contains no trained students")
    d, c = trained[0][1].d, trained[0][1].c
    n = sum(net.r for _, net in trained)
    dirs, norms, outgoing = np.empty((n, d + 1)), np.empty(n), np.empty((n, c))
    lo = 0
    for _, net in trained:
        rows = slice(lo, lo + net.r)
        norms[rows] = _directions(net.W, net.b, dirs[rows])
        outgoing[rows] = net.A.T
        lo += net.r
    table = (dirs, norms, outgoing,
             np.repeat([i for i, _ in trained], [net.r for _, net in trained]),
             np.concatenate([np.arange(net.r) for _, net in trained]))
    keep = norms >= _MIN_NORM
    if not keep.all():
        table = tuple(column[keep] for column in table)
    return Neurons(*table)


def _check_budget(nbytes: int, what: str, beta: float) -> None:
    if nbytes > _CLUSTER_BYTES:
        raise ConfigError(f"beta = {beta} joins {what}; clustering would need about "
                          f"{nbytes} bytes, over the {_CLUSTER_BYTES}-byte budget")


def _components(dirs: np.ndarray, tau: float, beta: float) -> np.ndarray:
    """Connected component of each row in the graph of pairs with 1 - cos <= tau.

    The edges come from upper-triangle Gram row blocks; their running count
    is held to the byte budget, and the edge lists are freed on return.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    n = len(dirs)
    # the slack lets a last-bit difference between this product and a
    # component's own only join two components, never split a cluster
    min_gram = 1.0 - tau * (1.0 + 1e-6)
    heads, tails = [np.arange(n)], [np.arange(n)]  # self-loops keep the lists non-empty
    edges = n
    for i in range(0, n, _GRAM_ROWS):
        head, tail = np.nonzero(dirs[i:i + _GRAM_ROWS] @ dirs[i:].T >= min_gram)
        edges += len(head)
        _check_budget(_EDGE_BYTES * edges, f"{edges} pairs of neurons", beta)
        heads.append(head + i)
        tails.append(tail + i)
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    graph = coo_array((np.ones(len(heads)), (heads, tails)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def cluster_neurons(neurons: Neurons, n_students: int,
                    gamma: float, beta: float) -> ClusterResult:
    """Group neuron directions by average-linkage clustering under cosine distance.

    The dendrogram is cut at distance tau = 10**-beta. Two clusters merged at
    or below the cut average at most tau, so some pair between them is within
    tau: the clusters refine the connected components of the graph whose
    edges are the pairs with 1 - cos <= tau. The components come from row
    blocks of the upper-triangle Gram matrix; average linkage then runs on
    each component's own square distance matrix, so memory grows with the
    edge count and the largest component, not with n**2. A cut so loose
    that either would need more than `_CLUSTER_BYTES` raises ConfigError
    before it is allocated. Clusters spanning at least
    ceil(gamma * n_students) distinct students are accepted. Deterministic:
    clusters are numbered by their lowest member row.
    """
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    tau = 10.0 ** (-beta)
    n = len(neurons)
    dirs = neurons.directions
    component = _components(dirs, tau, beta)
    # component * n + cluster within it: distinct for distinct (component, cluster)
    labels = component.astype(np.int64) * n
    order = np.argsort(component, kind="stable")
    for rows in np.split(order, np.cumsum(np.bincount(component))[:-1]):
        if len(rows) > 1:
            # the square matrix plus its condensed copy, before either exists
            _check_budget(12 * len(rows) ** 2, f"{len(rows)} neurons into one component", beta)
            # one square matrix at a time: built in place, freed before linkage copies
            dist = dirs[rows] @ dirs[rows].T
            np.subtract(1.0, dist, out=dist)
            np.clip(dist, 0.0, None, out=dist)
            dist = squareform(dist, checks=False)
            Z = linkage(dist, method="average")
            labels[rows] += fcluster(Z, t=tau, criterion="distance")
    _, first, labels = np.unique(labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    # one row per distinct (cluster, student) pair, so bincount counts students
    spans = np.unique(np.column_stack([labels, neurons.student]), axis=0)[:, 0]
    accepted = np.bincount(spans, minlength=len(first)) >= ceil(gamma * n_students)
    return ClusterResult(neurons, labels, accepted, gamma, n_students)


def collapse(result: ClusterResult, d: int, c: int,
             output_bias: np.ndarray | None = None) -> Mlp:
    """Merge each accepted cluster into a single hidden neuron.

    [w; b] is the raw-norm-weighted mean of the member directions, rescaled to
    the members' mean raw norm (the activation is not homogeneous, so norms
    carry function and must be restored). Outgoing weights are summed within
    each student (duplicated copies of one teacher neuron split one outgoing
    vector) and then averaged across the students present in the cluster.
    `output_bias` seeds the output bias, typically the ensemble-average
    student output bias.
    """
    accepted = result.accepted_clusters
    if not accepted:
        raise EmptyReconstructionError(f"no cluster spans ceil({result.gamma} * "
                                       f"{result.n_students}) students")
    neurons = result.neurons
    m = len(accepted)
    W = np.zeros((m, d))
    b = np.zeros(m)
    A = np.zeros((c, m))
    for j, rows in enumerate(accepted):
        norms = neurons.norms[rows]
        mean_dir = (norms[:, None] * neurons.directions[rows]).sum(axis=0) / norms.sum()
        mean_dir /= np.linalg.norm(mean_dir)
        wb = norms.mean() * mean_dir
        W[j] = wb[:d]
        b[j] = wb[d]
        students, slot = np.unique(neurons.student[rows], return_inverse=True)
        per_student = np.zeros((len(students), c))
        np.add.at(per_student, slot, neurons.outgoing[rows])
        A[:, j] = per_student.mean(axis=0)
    return Mlp(W=W, b=b, A=A, c_out=np.zeros(c) if output_bias is None else output_bias)


def fine_tune(net: Mlp, qs: QuerySet,
              cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Polish a collapsed net on the original teacher queries, with one BLAS thread.

    A net whose two n_params**2 float64 arrays (16 * n_params**2 bytes) fit
    `_LM_BYTES` runs Levenberg-Marquardt on the full query set (`fit_lm`),
    which reads only `cfg.max_steps` and `cfg.target_loss`; a larger one
    runs Adam (`fit_mse`) with every field of `cfg`.
    """
    if net.d != qs.d or net.c != qs.c:
        raise ValueError("net dimensions do not match the query set")
    if 16 * net.n_params**2 <= _LM_BYTES:
        return fit_lm(net, qs, cfg)
    return fit_mse(net, qs, cfg)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine similarity; in [0, 2] for nonzero vectors."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return float(1.0 - (u @ v) / (nu * nv))


def evaluate_reconstruction(recon: Mlp, teacher: Mlp) -> ReconstructionReport:
    """Match reconstructed neurons to teacher neurons and report cosine distances.

    Pairs are chosen by exact minimum-cost assignment on the cosine distance
    between [w; b] directions, which makes the report invariant to hidden
    neuron order on either side. With m != r only min(m, r) pairs are matched
    and m/r records the deficit or surplus.
    """
    from scipy.optimize import linear_sum_assignment

    if recon.d != teacher.d or recon.c != teacher.c:
        raise ValueError("networks must share input and output dimensions")
    ru, tu = np.empty((recon.r, recon.d + 1)), np.empty((teacher.r, teacher.d + 1))
    _directions(recon.W, recon.b, ru)
    _directions(teacher.W, teacher.b, tu)
    gram = ru @ tu.T
    cost = np.clip(1.0 - gram, 0.0, None)
    # an antipodal neuron makes the assignment degenerate (swapping it with any
    # exact pair keeps the total cost); the concave nudge resolves such ties
    # toward keeping exact pairs together so the bad neuron is reported as-is
    rows, cols = linear_sum_assignment(cost - 1e-9 * cost**2)
    ra, ta = recon.A[:, rows], teacher.A[:, cols]
    norms = np.linalg.norm(ra, axis=0) * np.linalg.norm(ta, axis=0)
    # a zero outgoing column has no direction: distance 1, as in cosine_distance
    cosines = np.sum(ra * ta, axis=0) / np.where(norms > 0, norms, 1.0)
    dw, da = 1.0 - gram[rows, cols], np.where(norms > 0, 1.0 - cosines, 1.0)
    return ReconstructionReport(
        m=recon.r,
        r=teacher.r,
        avg_dw=float(np.mean(dw)),
        max_dw=float(np.max(dw)),
        avg_da=float(np.mean(da)),
        max_da=float(np.max(da)),
        pairs=[MatchedPair(*pair) for pair in zip(rows.tolist(), cols.tolist(), dw.tolist(),
                                                  da.tolist())],
    )


def run_reconstruction(students: Sequence[Mlp | None], qs: QuerySet, gamma: float,
                       beta: float, cfg: TrainConfig,
                       ) -> tuple[Mlp, ClusterResult, list[HistoryPoint]]:
    """Extract, cluster, collapse and fine-tune in one call.

    A cluster is accepted when it spans ceil(gamma * N) students, N =
    len(students) counting diverged and missing (None) slots. Raises
    EmptyReconstructionError when no cluster is accepted; callers decide
    whether that is a failure or a reportable empty result.
    """
    neurons = extract_neurons(students)
    result = cluster_neurons(neurons, len(students), gamma, beta)
    biases = np.mean([s.c_out for s in students if s is not None], axis=0)
    collapsed = collapse(result, qs.d, qs.c, output_bias=biases)
    tuned, history = fine_tune(collapsed, qs, cfg)
    return tuned, result, history
