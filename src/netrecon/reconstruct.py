"""Recover a teacher network from an ensemble of trained imitators.

Near a zero-loss fit, each student hidden neuron either duplicates one teacher
neuron (up to permutation) or carries no function. Pooling every student
neuron's normalized [w; b] direction, clustering the directions, and
collapsing each sufficiently shared cluster back into a single neuron yields a
candidate teacher, which a final fine-tuning pass polishes on the same
queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import squareform

from .data import QuerySet
from .errors import EmptyReconstructionError
from .network import Mlp
from .train import HistoryPoint, StudentEnsemble, TrainConfig, fit_mse


@dataclass(frozen=True, eq=False)
class NeuronVector:
    """One student hidden neuron, normalized for comparison across students."""

    direction: np.ndarray  # (d + 1,) unit-norm [w_i; b_i]
    raw_norm: float  # norm of the unnormalized [w_i; b_i]
    outgoing: np.ndarray  # (c,) column of A fed by this neuron, unscaled
    student_index: int
    neuron_index: int


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Clusters of neuron directions plus the acceptance decision for each.

    A cluster is accepted when its members span at least ceil(gamma * N)
    distinct students; `beta` sets the dendrogram cut at cosine distance
    10**-beta.
    """

    clusters: list[list[NeuronVector]]
    accepted: list[bool]
    gamma: float
    beta: float
    n_students: int

    @property
    def accepted_clusters(self) -> list[list[NeuronVector]]:
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


def _directions(W: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized rows of [W | b] plus their raw norms."""
    wb = np.hstack([W, b[:, None]])
    norms = np.linalg.norm(wb, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return wb / safe[:, None], norms


def extract_neurons(ensemble: StudentEnsemble | list[Mlp],
                    min_norm: float = 1e-12) -> list[NeuronVector]:
    """Pool every hidden neuron of every student as a normalized direction.

    `student_index` is the student's slot in the ensemble, counting diverged
    and missing (None) students. Neurons whose [w; b] norm is below
    `min_norm` carry no usable direction and are excluded; the excluded count
    is the difference between the pooled total and len(result).
    """
    slots = ensemble.students if isinstance(ensemble, StudentEnsemble) else list(ensemble)
    students = [(i, net) for i, net in enumerate(slots) if net is not None]
    if not students:
        raise ValueError("ensemble contains no trained students")
    vectors: list[NeuronVector] = []
    for s_idx, net in students:
        dirs, norms = _directions(net.W, net.b)
        for i in range(net.r):
            if norms[i] < min_norm:
                continue
            vectors.append(NeuronVector(
                direction=dirs[i],
                raw_norm=float(norms[i]),
                outgoing=net.A[:, i].copy(),
                student_index=s_idx,
                neuron_index=i,
            ))
    return vectors


def cluster_neurons(vectors: list[NeuronVector], n_students: int,
                    gamma: float, beta: float) -> ClusterResult:
    """Group neuron directions by average-linkage clustering under cosine distance.

    The dendrogram is cut at distance 10**-beta; clusters spanning at least
    ceil(gamma * n_students) distinct students are accepted. Deterministic:
    clusters are ordered by their lowest member index.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    if not vectors:
        return ClusterResult([], [], gamma, beta, n_students)
    tau = 10.0 ** (-beta)
    if len(vectors) == 1:
        labels = np.array([1])
    else:
        dirs = np.stack([v.direction for v in vectors])
        dist = np.clip(1.0 - dirs @ dirs.T, 0.0, None)
        Z = linkage(squareform(dist, checks=False), method="average")
        labels = fcluster(Z, t=tau, criterion="distance")
    by_label: dict[int, list[int]] = {}
    for idx, lab in enumerate(labels):
        by_label.setdefault(int(lab), []).append(idx)
    ordered = sorted(by_label.values(), key=min)
    need = ceil(gamma * n_students)
    clusters = [[vectors[i] for i in members] for members in ordered]
    accepted = [
        len({v.student_index for v in cluster}) >= need for cluster in clusters
    ]
    return ClusterResult(clusters, accepted, gamma, beta, n_students)


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
    m = len(accepted)
    W = np.zeros((m, d))
    b = np.zeros(m)
    A = np.zeros((c, m))
    for j, cluster in enumerate(accepted):
        norms = np.array([v.raw_norm for v in cluster])
        dirs = np.stack([v.direction for v in cluster])
        mean_dir = (norms[:, None] * dirs).sum(axis=0) / norms.sum()
        mean_dir /= np.linalg.norm(mean_dir)
        wb = norms.mean() * mean_dir
        W[j] = wb[:d]
        b[j] = wb[d]
        per_student: dict[int, np.ndarray] = {}
        for v in cluster:
            if v.student_index in per_student:
                per_student[v.student_index] = per_student[v.student_index] + v.outgoing
            else:
                per_student[v.student_index] = v.outgoing.copy()
        A[:, j] = np.mean(list(per_student.values()), axis=0)
    return Mlp(W=W, b=b, A=A, c_out=np.zeros(c) if output_bias is None else output_bias)


def fine_tune(net: Mlp, qs: QuerySet,
              cfg: TrainConfig) -> tuple[Mlp, list[HistoryPoint]]:
    """Polish a collapsed net on the original teacher queries."""
    if net.d != qs.d or net.c != qs.c:
        raise ValueError("net dimensions do not match the query set")
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
    if recon.d != teacher.d or recon.c != teacher.c:
        raise ValueError("networks must share input and output dimensions")
    ru, _ = _directions(recon.W, recon.b)
    tu, _ = _directions(teacher.W, teacher.b)
    cost = np.clip(1.0 - ru @ tu.T, 0.0, None)
    # an antipodal neuron makes the assignment degenerate (swapping it with any
    # exact pair keeps the total cost); the concave nudge resolves such ties
    # toward keeping exact pairs together so the bad neuron is reported as-is
    rows, cols = linear_sum_assignment(cost - 1e-9 * cost**2)
    pairs = []
    for i, j in zip(rows, cols):
        dw = float(1.0 - ru[i] @ tu[j])
        da = cosine_distance(recon.A[:, i], teacher.A[:, j])
        pairs.append(MatchedPair(int(i), int(j), dw, da))
    dws = [p.dw for p in pairs]
    das = [p.da for p in pairs]
    return ReconstructionReport(
        m=recon.r,
        r=teacher.r,
        avg_dw=float(np.mean(dws)),
        max_dw=float(np.max(dws)),
        avg_da=float(np.mean(das)),
        max_da=float(np.max(das)),
        pairs=pairs,
    )


def run_reconstruction(ensemble: StudentEnsemble, qs: QuerySet, gamma: float,
                       beta: float, cfg: TrainConfig,
                       ) -> tuple[Mlp, ClusterResult, list[HistoryPoint]]:
    """Extract, cluster, collapse and fine-tune in one call.

    A cluster is accepted when it spans ceil(gamma * N) students, N =
    ensemble.n_students counting diverged and missing (None) students.
    Raises EmptyReconstructionError when no cluster is accepted; callers
    decide whether that is a failure or a reportable empty result.
    """
    vectors = extract_neurons(ensemble)
    result = cluster_neurons(vectors, ensemble.n_students, gamma, beta)
    biases = np.mean([s.c_out for s in ensemble.trained], axis=0)
    collapsed = collapse(result, qs.d, qs.c, output_bias=biases)
    tuned, history = fine_tune(collapsed, qs, cfg)
    return tuned, result, history
