"""Recover a teacher network from an ensemble of trained imitators.

Near a zero-loss fit, each student hidden neuron either duplicates one teacher
neuron (up to permutation) or carries no function. Pooling every student
neuron's normalized [w; b] direction, clustering the directions, and
collapsing each sufficiently shared cluster back into a single neuron yields a
candidate teacher, which a final fine-tuning pass polishes on the same
queries.

Everything runs on numpy alone. The average-linkage cut and the minimum-cost
assignment are ports of the routines scipy runs: Müllner's nearest-neighbour
chain ("Modern hierarchical, agglomerative clustering algorithms",
arXiv:1109.2378) and Crouse's shortest augmenting path ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016). They keep scipy's tie
rules and order of operations, so labels and pairs are scipy's, bit for bit;
the tests hold them to scipy as the reference.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import ceil

import numpy as np

from .data import QuerySet
from .errors import ConfigError, EmptyReconstructionError
from .network import Mlp
from .train import HistoryPoint, TrainConfig, _one_blas_thread, fit_lm, fit_mse


# rows of each upper-triangle Gram block, compared with every later row
_GRAM_ROWS = 512
# columns of a Gram block formed and listed at once: one 512 x 1,024 product
# (4 MB in float64, 2 MB in float32) and its 0.5 MB bool mask, reused for
# every chunk. The exact pass on 6,144 random rows of d + 1 = 785 (beta 1.6,
# 15 interleaved rounds) took 373 ms in the median in 1,024-column chunks and
# 361 ms in 2,048-column ones, with a 4.6 against 9.1 MB tracemalloc peak,
# and 378 ms with a bool mask per Gram block. With every pair of 2,048
# skewed rows an edge, the peak rose 5.5 MB above the edge lists' 8 bytes an
# edge at 1,024 columns and 10.0 MB at 2,048
_GRAM_COLS = 1024
# rows whose edges are listed, and later joined, at once from a chunk that
# holds more edges than this many of its full rows, so the int64 indices stay
# within those of 64 x 1,024 pairs; a sparser chunk is listed whole. On 4,096
# rows of d = 785 with every pair an edge, 32-, 64-, 128- and 256-row slices
# peaked at 8.07, 8.12, 8.23 and 8.67 bytes an edge above the chunk buffers,
# in about the same time
_EDGE_ROWS = 64
# bytes clustering may spend on its edge lists or on one component's distance
# matrices; a cut loose enough to need more is refused. Fixed, not sized to the
# machine, so the same config is refused everywhere.
_CLUSTER_BYTES = 1 << 30
# peak bytes per edge while the components are found, above the chunk's
# product and mask: the int32 head and tail lists. tracemalloc measured 8.1
# and 8.0 on 4,096 and 8,192 rows of d = 785 with every pair an edge
_EDGE_BYTES = 8
# columns of the pair screen's projection P (`_screen`): a screen row has K + 1
# entries against d + 1 = 785 in the exact pass. `_components` with K = 16,
# 32 and 64 took 0.10, 0.11 and 0.13 s on 6,144 bundle neurons at beta 3,
# 0.19, 0.10 and 0.07 s on skewed directions (4,096 x 785, beta 3), and 0.58,
# 0.09 and 0.09 s on random ones (6,144 x 785, beta 2), where K = 16 lets 5%
# of the pairs through
_SCREEN_K = 32
# seed of the Gaussian whose QR gives P; any fixed seed keeps the screen
# deterministic, and P moves only the candidate groups, never the labels
_SCREEN_SEED = 20230601
# rounding terms of the screen's float32 bound. With unit rows of m = d + 1
# > K entries, float64 unit roundoff eps = 2**-53 and float32 u = 2**-24,
# P's columns are orthonormal within about m eps (measured: 0.01 m eps at
# m = 785), so P^T u is within e = (sqrt(K) + 1) m eps of Q^T u for some
# exactly orthonormal Q. |u|**2 comes within m eps, |P^T u|**2 within
# K eps + 2 e and their difference within eps more: at most
# (3 + 2 sqrt(K)) m eps + (K + 1) eps <= 16 m eps of |u - Q Q^T u|**2.
# Adding delta = 16 m eps (`_SCREEN_DELTA` per entry) before the square root
# makes each residual entry at least |u - Q Q^T u|, so the float64 entries
# bound u . v from above within 2 e. Rounding them to float32 moves a
# product by (2 u + u**2) |x| |y|, the float32 product of K + 1 terms by
# gamma_{K+1} = (K + 1) u / (1 - (K + 1) u) (Higham, Accuracy and
# Stability of Numerical Algorithms, 3.1), and |x|, |y| are 1 within
# delta. So the screen's product falls short of the exact pass's float64
# Gram entry (itself within m eps of u . v) by (K + 3) u to first order
# plus (3 + 2 sqrt(K)) m eps; one u more covers the rest up to m = 37
# million. The threshold is rounded down to float32, which only loosens it.
# On 800 pairs whose bound is tight (parallel residuals) at m = 785 the gap
# measured at most 2.2e-7, against a slack of 2.1e-6.
_SCREEN_DELTA = 2.0**-49
_SCREEN_SLACK = (_SCREEN_K + 4) * 2.0**-24
# share of a block's pairs, and of the edge byte budget, past which the
# screen gives up and the exact pass runs on all rows. On skewed directions
# (4,096 x 785) screen blocks admitted at most 3.5% of their pairs at beta 3,
# where the screen then ran at 0.5x the exact pass alone, and at least 95%
# at beta 2, where it ran at 3.0x without this rule; random directions,
# screened only where at most about 0.8% of their pairs pass, stay far below
_SCREEN_SHARE = 0.1
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
        return list(_groups(self.labels, np.ones_like(self.accepted)))

    @property
    def accepted_clusters(self) -> list[np.ndarray]:
        return list(_groups(self.labels, self.accepted))


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


def _roots(n: int, edges: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Lowest node of the connected component of each of n nodes.

    `edges` holds (head, tail) int32 arrays and is consumed. Each round drops
    the edges whose ends share a root, hooks each larger root under the
    smallest root it meets, then compresses the forest by pointer jumping so
    that every node points at its root again. Parents only ever point lower,
    so a root is its component's lowest member.
    """
    parent = np.arange(n, dtype=np.int32)
    while edges:
        hooked = parent.copy()
        # names are dropped once dead, so the peak is the lists plus one slice's gathers
        for k, (head, tail) in enumerate(edges):
            a, b = parent[head], parent[tail]
            live = a != b
            edges[k] = head[live], tail[live]
            del head, tail
            a, b = a[live], b[live]
            np.minimum.at(hooked, np.maximum(a, b), np.minimum(a, b))
            del a, b, live
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        parent = hooked
        edges = [(head, tail) for head, tail in edges if len(head)]
    return parent


def _edges(table: np.ndarray, rows: np.ndarray | None, min_gram: float,
           share: float) -> tuple[list[tuple[np.ndarray, np.ndarray]] | None, int]:
    """Edge lists of the graph joining each pair of nodes whose dot product is >= min_gram.

    The nodes are `table[rows]`, or every row of `table` where `rows` is None;
    edges come as int32 (head, tail) node positions. Each block of
    `_GRAM_ROWS` nodes meets every later node, `_GRAM_COLS` at a time, so no
    (n, d + 1) gather is formed: `table[rows]` is gathered a head block and a
    column chunk at a time, into two buffers reused throughout. Each chunk's
    product, in the table's dtype, and its bool mask go into two more
    buffers of one chunk's size, so the lister's memory does not grow with
    n. A chunk's pairs are counted before its edges are listed, and listing
    stops, returning None and the running edge count, once its block has
    admitted more than `share` of the block's pairs or the edges would take
    more than `share` of the byte budget. Counts only grow, so that happens
    in the block where the block's whole count would first cross a limit.
    """
    n = len(table) if rows is None else len(rows)
    head_rows, chunk_rows = (None, None) if rows is None else (
        np.empty((min(n, size), table.shape[1]), dtype=table.dtype)
        for size in (_GRAM_ROWS, _GRAM_COLS))
    size = min(n, _GRAM_ROWS) * min(n, _GRAM_COLS)
    product, mask = np.empty(size, dtype=table.dtype), np.empty(size, dtype=bool)

    def nodes(lo: int, hi: int, buffer: np.ndarray | None) -> np.ndarray:
        if rows is None:
            return table[lo:hi]
        at = rows[lo:hi]
        # mode="clip" lets take write into `out` unbuffered; every index is in range
        return np.take(table, at, axis=0, mode="clip", out=buffer[:len(at)])

    edges, count = [], 0
    for i in range(0, n, _GRAM_ROWS):
        head = nodes(i, i + _GRAM_ROWS, head_rows)
        h, admitted = len(head), 0
        for j in range(i, n, _GRAM_COLS):
            chunk = nodes(j, j + _GRAM_COLS, chunk_rows)
            w = len(chunk)
            # C-contiguous views, so matmul writes a narrow last chunk unbuffered
            near = mask[:h * w].reshape(h, w)
            np.greater_equal(np.matmul(head, chunk.T, out=product[:h * w].reshape(h, w)),
                             min_gram, out=near)
            found = int(np.count_nonzero(near))
            admitted += found
            count += found
            if admitted > share * h * (n - i) or _EDGE_BYTES * count > share * _CLUSTER_BYTES:
                return None, count
            if not found:
                continue
            step = h if found <= _EDGE_ROWS * w else _EDGE_ROWS
            for r in range(0, h, step):
                head_at, tail_at = np.divmod(np.flatnonzero(near[r:r + step]), w)
                edges.append(((head_at + (i + r)).astype(np.int32),
                              (tail_at + j).astype(np.int32)))
    return edges, count


def _groups(label: np.ndarray, keep: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The rows, ascending, of each label k with keep[k], or where `keep` is
    None of each label that two or more rows share; labels are below n."""
    counts = np.bincount(label)
    order = np.argsort(label, kind="stable")
    ends = np.cumsum(counts)
    for k in np.flatnonzero(counts > 1 if keep is None else keep):
        yield order[ends[k] - counts[k]:ends[k]]


def _screen(dirs: np.ndarray, min_gram: float) -> np.ndarray | None:
    """Lowest row of each row's candidate group, or None where the screen gives up.

    Row u of the float32 screen table is [P^T u, sqrt(|u|**2 - |P^T u|**2 +
    delta)], for a fixed (d + 1, `_SCREEN_K`) matrix P with orthonormal
    columns; the last entry bounds |u - P P^T u| from above. By
    Cauchy-Schwarz on the parts of u and v outside P's span, screen(u) .
    screen(v) >= u . v, so each pair of rows that the exact pass joins is
    joined here at min_gram - `_SCREEN_SLACK`, which covers the float32
    rounding: the candidate groups, the components of this (n, K + 1) graph,
    are unions of exact components. The table takes one product with P per
    block of `_GRAM_ROWS` rows.
    """
    n, width = dirs.shape
    P = np.linalg.qr(np.random.default_rng(_SCREEN_SEED).normal(size=(width, _SCREEN_K)))[0]
    table = np.empty((n, _SCREEN_K + 1), dtype=np.float32)
    for i in range(0, n, _GRAM_ROWS):
        block = dirs[i:i + _GRAM_ROWS]
        proj = block @ P
        rest = np.einsum("ij,ij->i", block, block) - np.einsum("ij,ij->i", proj, proj)
        table[i:i + _GRAM_ROWS, :-1] = proj
        table[i:i + _GRAM_ROWS, -1] = np.sqrt(np.maximum(rest, 0.0) + _SCREEN_DELTA * width)
    # the largest float32 at or below the bound's threshold
    bound = min_gram - _SCREEN_SLACK
    threshold = np.float32(bound)
    if float(threshold) > bound:
        threshold = np.nextafter(threshold, np.float32(-1.0))
    edges, _ = _edges(table, None, threshold, _SCREEN_SHARE)
    return None if edges is None else _roots(n, edges)


def _components(dirs: np.ndarray, tau: float, beta: float) -> np.ndarray:
    """Lowest row of each row's group in the graph of pairs with 1 - cos <= tau.

    Each group is a union of the graph's connected components, and one
    component wherever the exact pass finds it. Where the screen can prune,
    `_screen` splits the rows into candidate groups that no edge crosses. A
    group of at most `_GRAM_ROWS` rows is returned whole: its exact pass
    would be one Gram block, the product that the linkage of
    `cluster_neurons` forms again and whose cut refines its components
    anyway. The exact float64 Gram pass runs inside each larger group.
    Elsewhere, or where the screen gives up, the exact pass runs on all rows.
    Both passes list their edges with `_edges`, and the lists are freed on
    return.

    The screen runs where K < d + 1 and tau * (d + 1) < K / 2. Two random
    directions pass it when a chi-square of K degrees of freedom falls below
    tau * (d + 1): 0.8% of them at K / 2 and 19% at K. Past K / 2 the few
    percent that pass chain nearly every row into one group; on 6,144 random
    directions of d + 1 = 785 the screen then ran at up to 1.4x the exact
    pass alone (beta 1.6, 4% of the pairs passing), and it still runs at
    1.24x just below K / 2 (beta 1.7), where one candidate group holds 94%
    of the rows and its gathered pass is slower than the sliced one.

    Only the exact pass refuses a cut. Its running edge count is held to the
    byte budget. The screen's running count bounds the exact pass's over all
    rows at every column chunk, so a cut the exact pass would refuse makes
    the screen give up first, and the exact pass then refuses it at the same
    chunk, with the same count as without the screen. A screen
    that finishes admitted at most `_SCREEN_SHARE` of the budget, and a group
    counts each screened pair at most twice, so no group is refused.
    """
    n, width = dirs.shape
    # the slack lets a last-bit difference between this product and a
    # component's own only join two components, never split a cluster
    min_gram = 1.0 - tau * (1.0 + 1e-6)

    def exact_roots(rows: np.ndarray | None) -> np.ndarray:
        edges, count = _edges(dirs, rows, min_gram, 1.0)
        if edges is None:
            _check_budget(_EDGE_BYTES * count, f"{count} pairs of neurons", beta)
        return _roots(n if rows is None else len(rows), edges)

    group = None
    if _SCREEN_K < width and 2 * tau * width < _SCREEN_K:
        group = _screen(dirs, min_gram)
    if group is None:
        return exact_roots(None)
    for rows in _groups(group):
        if len(rows) > _GRAM_ROWS:
            group[rows] = rows[exact_roots(rows)]
    return group


def _average_cut(dist: np.ndarray, tau: float) -> np.ndarray:
    """Flat clusters of average linkage over `dist` cut at tau: a label per row.

    The partition is scipy's fcluster(linkage(squareform(dist), "average"),
    tau, "distance"), which reads only the upper triangle of `dist`; `dist`
    is overwritten. A matrix whose largest entry is within tau * (1 - 1e-9)
    is one cluster: every height is a weighted mean of its entries, and the
    slack covers their rounding.

    Otherwise this is scipy's nearest-neighbour chain. The chain grows from
    the lowest live cluster to its nearest neighbour (the previous link unless
    another is strictly nearer, else the lowest such index) until two clusters
    are each other's nearest; those two, x < y, merge into y with the update
    (nx * d(x, i) + ny * d(y, i)) / (nx + ny). fcluster joins a merge when the
    largest height in its subtree is <= tau. Sorted by height, no subtree
    holds a merge above its own, so that is each merge of height <= tau; and
    the merged pairs form a tree, so the pairs that join fix the partition
    whatever their order.
    """
    k = len(dist)
    if dist.max() <= tau * (1.0 - 1e-9):
        return np.zeros(k, dtype=np.int32)
    for i in range(1, k):
        dist[i, :i] = dist[:i, i]
    # inf marks what the chain never picks: a row itself, and each merged-away cluster
    np.fill_diagonal(dist, np.inf)
    size = np.ones(k, dtype=np.int64)
    chain, heads, tails = [], [], []
    for _ in range(k - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        while True:
            x = chain[-1]
            row = dist[x]
            y = int(row.argmin())
            if len(chain) > 1 and not row[y] < row[chain[-2]]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        height = dist[x, y]
        x, y = min(x, y), max(x, y)
        nx, ny = int(size[x]), int(size[y])
        merged = (nx * dist[x] + ny * dist[y]) / (nx + ny)
        dist[y], dist[:, y] = merged, merged
        dist[x], dist[:, x] = np.inf, np.inf
        size[x], size[y] = 0, nx + ny
        if height <= tau:
            heads.append(x)
            tails.append(y)
    return _roots(k, [(np.array(heads, dtype=np.int32), np.array(tails, dtype=np.int32))])


def cluster_neurons(neurons: Neurons, n_students: int,
                    gamma: float, beta: float) -> ClusterResult:
    """Group neuron directions by average-linkage clustering under cosine distance.

    The dendrogram is cut at distance tau = 10**-beta. Two clusters merged at
    or below the cut average at most tau, so some pair between them is within
    tau: the clusters refine the connected components of the graph whose
    edges are the pairs with 1 - cos <= tau. Where d + 1 > 32 and
    tau * (d + 1) < 16, a screen of 33 float32 values per neuron cuts the rows
    into candidate groups that no edge crosses (`_components`); elsewhere the
    components come from row blocks of the upper-triangle Gram matrix, as
    they do inside each candidate group of more than 512 rows. Average
    linkage then runs on each component or smaller candidate group of two or
    more rows, on its own square distance matrix; it splits a group as it
    splits the components inside it. Each Gram block is formed and its edges
    listed one 512 x 1,024 chunk at a time, in two buffers of that size
    whatever n is. So memory grows with the edge count and the largest group,
    not with n**2. A cut so loose that either would need more than
    `_CLUSTER_BYTES` raises ConfigError before it is allocated. Clusters spanning at least
    ceil(gamma * n_students) distinct students are accepted; every student
    slot must be below n_students. Deterministic: clusters are numbered by
    their lowest member row.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if len(neurons) and neurons.student.max() >= n_students:
        raise ValueError("every neuron's student slot must be below n_students")
    tau = 10.0 ** (-beta)
    dirs = neurons.directions
    # each row's lowest fellow row: first of its group, then of its cluster
    labels = _components(dirs, tau, beta)
    for rows in _groups(labels):
        # 8 bytes a pair for the square matrix and 4 for the condensed
        # copy scipy's linkage took, kept so the same cut is refused
        _check_budget(12 * len(rows) ** 2, f"{len(rows)} neurons into one component", beta)
        # one square matrix at a time, built and cut in place
        dist = dirs[rows] @ dirs[rows].T
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, None, out=dist)
        labels[rows] = rows[_average_cut(dist, tau)]
    lowest, labels = np.unique(labels, return_inverse=True)
    # one key per distinct (cluster, student) pair, so bincount counts students
    spans = np.unique(labels * n_students + neurons.student) // n_students
    accepted = np.bincount(spans, minlength=len(lowest)) >= ceil(gamma * n_students)
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


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost pairs of distinct rows and columns, min(m, r) of them, rows ascending.

    scipy's rectangular linear_sum_assignment, ported so the pairs are its
    pairs. A tall matrix is transposed. Each row in turn grows a shortest
    augmenting path: the columns not yet on the path (kept in scipy's
    swap-remove order, filled last column first) take reduced costs
    ((min_val + c) - u) - v, and among equal minima the path takes the last
    unassigned column, else the first one. The duals then move and the path
    is flipped into the assignment.
    """
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    u, v = np.zeros(nr), np.zeros(nc)
    path, row4col, col4row = np.full(nc, -1), np.full(nc, -1), np.full(nr, -1)
    for cur in range(nr):
        shortest = np.full(nc, np.inf)
        remaining = np.arange(nc - 1, -1, -1)
        left, min_val, i = nc, 0.0, cur
        visited, reached = [], []
        while True:
            visited.append(i)
            cols = remaining[:left]
            reduced = min_val + cost[i, cols] - u[i] - v[cols]
            better = reduced < shortest[cols]
            nearer = cols[better]
            path[nearer] = i
            shortest[nearer] = reduced[better]
            path_costs = shortest[cols]
            ties = np.flatnonzero(path_costs == path_costs.min())
            free = ties[row4col[cols[ties]] < 0]
            index = free[-1] if len(free) else ties[0]
            j = cols[index]
            min_val = shortest[j]
            reached.append(j)
            left -= 1
            remaining[index] = remaining[left]
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        others = np.array(visited[1:], dtype=np.int64)
        u[others] += min_val - shortest[col4row[others]]
        reached = np.array(reached)
        v[reached] -= min_val - shortest[reached]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


@_one_blas_thread()
def evaluate_reconstruction(recon: Mlp, teacher: Mlp) -> ReconstructionReport:
    """Match reconstructed neurons to teacher neurons and report cosine distances.

    Pairs are chosen by exact minimum-cost assignment on the cosine distance
    between [w; b] directions, which makes the report invariant to hidden
    neuron order on either side. With m != r only min(m, r) pairs are matched
    and m/r records the deficit or surplus. Runs with one BLAS thread, so the
    distances do not depend on the machine's core count.
    """
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
    rows, cols = _assignment(cost - 1e-9 * cost**2)
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
