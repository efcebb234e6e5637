import hashlib
from dataclasses import fields
from math import ceil

import numpy as np
import pytest
from conftest import peak_while
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import squareform

from netrecon import reconstruct, train
from netrecon.data import QuerySet
from netrecon.errors import ConfigError, EmptyReconstructionError
from netrecon.network import Mlp, _gauss_newton, forward, init_mlp, mse_loss
from netrecon.reconstruct import (
    ClusterResult,
    Neurons,
    cluster_neurons,
    collapse,
    cosine_distance,
    evaluate_reconstruction,
    extract_neurons,
    fine_tune,
    run_reconstruction,
)
from netrecon.train import TrainConfig, final_loss


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_teacher(rng, r=4, d=6, c=3):
    return Mlp(W=rng.normal(size=(r, d)), b=rng.normal(size=r),
               A=rng.normal(size=(c, r)), c_out=rng.normal(size=c))


def padded_student(teacher, extra, seed):
    """Teacher plus `extra` hidden neurons whose outgoing weights are zero."""
    rng = np.random.default_rng(seed)
    W = np.vstack([teacher.W, rng.normal(size=(extra, teacher.d))])
    b = np.concatenate([teacher.b, rng.normal(size=extra)])
    A = np.hstack([teacher.A, np.zeros((teacher.c, extra))])
    return Mlp(W=W, b=b, A=A, c_out=teacher.c_out.copy())


def synthetic_bundles(rng, n_dirs, n_students, dim, spread=1e-6, separation=0.1):
    """Tight direction bundles with known membership, one member per student.

    Directions are re-drawn until pairwise cosine distances exceed
    `separation`; members are unit vectors within `spread` of their center.
    Row j * n_students + s is student s's copy of direction j. Returns
    (neurons, ground-truth partition as row sets).
    """
    while True:
        centers = rng.normal(size=(n_dirs, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        gram = centers @ centers.T
        if (1 - gram + 2 * np.eye(n_dirs)).min() > separation:
            break
    directions, norms, outgoing = [], [], []
    partition = []
    for j in range(n_dirs):
        members = []
        for s in range(n_students):
            members.append(len(directions))
            directions.append(unit(centers[j] + spread * rng.normal(size=dim)))
            norms.append(1.0 + rng.uniform(0, 0.5))
            outgoing.append(rng.normal(size=2))
        partition.append(frozenset(members))
    neurons = Neurons(directions=np.array(directions), norms=np.array(norms),
                      outgoing=np.array(outgoing),
                      student=np.tile(np.arange(n_students), n_dirs),
                      index=np.repeat(np.arange(n_dirs), n_students))
    return neurons, set(partition)


def take(neurons, rows):
    """The table restricted to `rows` (a mask or row indices)."""
    return Neurons(**{f.name: getattr(neurons, f.name)[rows] for f in fields(Neurons)})


def duplicated_ensemble():
    """Padded students that each split two teacher neurons into two exact copies.

    The copies divide the outgoing weight between them; slot 2 is empty.
    """
    rng = np.random.default_rng(31)
    teacher = random_teacher(rng, r=4, d=6, c=3)
    students = []
    for s in range(4):
        base = padded_student(teacher, extra=3, seed=40 + s)
        g = np.random.default_rng(50 + s)
        dup = g.choice(teacher.r, size=2, replace=False)
        share = g.uniform(0.2, 0.8, size=2)
        A = base.A.copy()
        A[:, dup] *= share
        students.append(Mlp(W=np.vstack([base.W, teacher.W[dup]]),
                            b=np.concatenate([base.b, teacher.b[dup]]),
                            A=np.hstack([A, teacher.A[:, dup] * (1 - share)]),
                            c_out=base.c_out))
    students.insert(2, None)
    return teacher, students


def dense_clusters(neurons, n_students, gamma, beta):
    """Reference clustering: one average linkage over the full n x n distance matrix."""
    if len(neurons) > 1:
        dist = neurons.directions @ neurons.directions.T
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, None, out=dist)
        dist = squareform(dist, checks=False)
        Z = linkage(dist, method="average")
        labels = fcluster(Z, t=10.0 ** (-beta), criterion="distance")
    else:
        labels = np.ones(len(neurons), dtype=int)
    _, first, labels = np.unique(labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    spans = np.unique(np.column_stack([labels, neurons.student]), axis=0)[:, 0]
    accepted = np.bincount(spans, minlength=len(first)) >= ceil(gamma * n_students)
    return labels, accepted


def pool(directions, n_students):
    """Unit-norm neurons with these directions, an equal share per student in slot order."""
    n = len(directions)
    width = n // n_students
    return Neurons(directions=directions, norms=np.ones(n), outgoing=np.zeros((n, 2)),
                   student=np.repeat(np.arange(n_students), width),
                   index=np.tile(np.arange(width), n_students))


def random_pool(rng, n_students, width, dim):
    """`width` random unit directions per student, no structure shared between them."""
    directions = rng.normal(size=(n_students * width, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return pool(directions, n_students)


def bundle_students(rng, n, r, rho, d, c, noise=1e-6):
    """Students built like the benchmark's cluster bundle, in memory.

    Half of each student's rho * r neurons copy a teacher neuron (every one
    at least once) up to a relative perturbation `noise`; the rest are random
    directions with no outgoing weight.
    """
    wb = np.hstack([rng.uniform(-1.0, 1.0, size=(r, d)) / np.sqrt(d),
                    rng.normal(0.0, 0.1, size=(r, 1))])
    width, n_copies = rho * r, rho * r // 2
    students = []
    for _ in range(n):
        source = np.concatenate([np.arange(r), rng.integers(0, r, size=n_copies - r)])
        scale = noise * np.linalg.norm(wb[source], axis=1) / np.sqrt(d + 1)
        copies = wb[source] + scale[:, None] * rng.normal(size=(n_copies, d + 1))
        rows = np.vstack([copies, rng.normal(size=(width - n_copies, d + 1)) / np.sqrt(d + 1)])
        order = rng.permutation(width)
        A = np.hstack([rng.uniform(0.5, 1.5, size=(c, n_copies)),
                       np.zeros((c, width - n_copies))])[:, order]
        students.append(Mlp(W=rows[order, :d], b=rows[order, d], A=A, c_out=np.zeros(c)))
    return students


def stacked_extract(students):
    """Reference extract: stack every trained slot, normalize, then drop tiny rows."""
    trained = [(i, net) for i, net in enumerate(students) if net is not None]
    wb = np.hstack([np.vstack([net.W for _, net in trained]),
                    np.concatenate([net.b for _, net in trained])[:, None]])
    norms = np.linalg.norm(wb, axis=1)
    dirs = wb / np.where(norms > 0, norms, 1.0)[:, None]
    keep = norms >= reconstruct._MIN_NORM
    return Neurons(
        directions=dirs[keep],
        norms=norms[keep],
        outgoing=np.hstack([net.A for _, net in trained]).T[keep],
        student=np.repeat([i for i, _ in trained], [net.r for _, net in trained])[keep],
        index=np.concatenate([np.arange(net.r) for _, net in trained])[keep],
    )


class TestExtractNeurons:
    def test_counts(self):
        rng = np.random.default_rng(0)
        students = [random_teacher(rng, r=6, d=4, c=2) for _ in range(3)]
        neurons = extract_neurons(students)
        assert len(neurons) == 3 * 6

    def test_directions_unit_norm(self):
        rng = np.random.default_rng(1)
        neurons = extract_neurons([random_teacher(rng) for _ in range(2)])
        for direction in neurons.directions:
            assert abs(np.linalg.norm(direction) - 1.0) < 1e-12

    def test_teacher_directions_appear_in_padded_student(self):
        rng = np.random.default_rng(2)
        teacher = random_teacher(rng)
        student = padded_student(teacher, extra=5, seed=3)
        neurons = extract_neurons([student])
        wb = np.hstack([teacher.W, teacher.b[:, None]])
        for i in range(teacher.r):
            expected = unit(wb[i])
            assert np.allclose(neurons.directions[i], expected, atol=1e-12)
            assert np.allclose(neurons.outgoing[i], teacher.A[:, i])

    def test_zero_norm_neurons_excluded(self):
        net = Mlp(W=np.array([[1.0, 0.0], [0.0, 0.0]]), b=[0.0, 0.0],
                  A=np.ones((2, 2)), c_out=np.zeros(2))
        neurons = extract_neurons([net])
        assert len(neurons) == 1
        assert neurons.index[0] == 0

    def test_numbers_students_by_ensemble_slot(self):
        rng = np.random.default_rng(4)
        neurons = extract_neurons([None, random_teacher(rng), random_teacher(rng)])
        assert len(neurons) == 2 * 4
        assert set(neurons.student.tolist()) == {1, 2}

    def test_rows_in_slot_then_hidden_order(self):
        rng = np.random.default_rng(5)
        a, b = random_teacher(rng, r=3, c=2), random_teacher(rng, r=2, c=2)
        neurons = extract_neurons([a, None, b])
        assert neurons.student.tolist() == [0, 0, 0, 2, 2]
        assert neurons.index.tolist() == [0, 1, 2, 0, 1]
        assert np.array_equal(neurons.outgoing, np.hstack([a.A, b.A]).T)
        assert np.array_equal(neurons.norms, np.linalg.norm(
            np.hstack([np.vstack([a.W, b.W]), np.concatenate([a.b, b.b])[:, None]]), axis=1))

    @pytest.mark.parametrize("tiny", [False, True])
    def test_same_bytes_as_the_stacked_formula(self, tiny):
        # slots of widths 5, 3 and 7 around an empty slot; with `tiny`, slot 2
        # also holds an all-zero row and a row below _MIN_NORM, which are dropped
        rng = np.random.default_rng(12)
        students = [random_teacher(rng, r=r, d=9, c=4) for r in (5, 3, 7)]
        if tiny:
            W, b = students[1].W.copy(), students[1].b.copy()
            W[0], b[0] = 0.0, 0.0
            W[2], b[2] = 1e-15 * W[2], 1e-15 * b[2]
            students[1] = Mlp(W=W, b=b, A=students[1].A, c_out=students[1].c_out)
        students.insert(1, None)
        got, want = extract_neurons(students), stacked_extract(students)
        assert len(got) == 15 - 2 * tiny
        for f in fields(Neurons):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert np.array_equal(a, b), f.name

    def test_peak_is_about_one_table(self):
        # 8 students of 512 neurons at d = 784: stacking, normalizing and
        # masking held three tables at once; one table built in place holds
        # the table plus one student's block (1/8) and the outgoing columns
        rng = np.random.default_rng(13)
        students = [Mlp(W=rng.normal(size=(512, 784)), b=rng.normal(size=512),
                        A=rng.normal(size=(10, 512)), c_out=np.zeros(10)) for _ in range(8)]
        neurons, peak = peak_while(extract_neurons, students)
        assert len(neurons) == 8 * 512
        assert peak <= 1.15 * neurons.directions.nbytes


class TestClusterNeurons:
    def test_recovers_synthetic_bundles(self):
        rng = np.random.default_rng(4)
        neurons, truth = synthetic_bundles(rng, n_dirs=5, n_students=6, dim=8,
                                           spread=1e-6)
        result = cluster_neurons(neurons, n_students=6, gamma=0.75, beta=3.0)
        got = {
            frozenset(cluster.tolist())
            for cluster, ok in zip(result.clusters, result.accepted) if ok
        }
        assert got == truth

    def test_gamma_one_rejects_incomplete_cluster(self):
        rng = np.random.default_rng(5)
        neurons, _ = synthetic_bundles(rng, n_dirs=3, n_students=4, dim=6)
        neurons = take(neurons, ~((neurons.student == 3) & (neurons.index == 0)))
        result = cluster_neurons(neurons, n_students=4, gamma=1.0, beta=3.0)
        accepted_sizes = sorted(len(c) for c in result.accepted_clusters)
        assert accepted_sizes == [4, 4]  # the incomplete bundle is rejected

    def test_single_direction_repeated(self):
        direction = unit(np.ones(5))
        neurons = Neurons(directions=np.tile(direction, (4, 1)), norms=np.ones(4),
                          outgoing=np.zeros((4, 2)), student=np.arange(4),
                          index=np.zeros(4, dtype=int))
        result = cluster_neurons(neurons, n_students=4, gamma=1.0, beta=3.0)
        assert len(result.accepted_clusters) == 1
        assert len(result.accepted_clusters[0]) == 4

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        neurons, _ = synthetic_bundles(rng, n_dirs=4, n_students=5, dim=7)
        a = cluster_neurons(neurons, 5, 0.75, 3.0)
        b = cluster_neurons(neurons, 5, 0.75, 3.0)
        assert [c.tolist() for c in a.clusters] == [c.tolist() for c in b.clusters]
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.accepted, b.accepted)

    def test_labels_numbered_by_lowest_member_row(self):
        rng = np.random.default_rng(7)
        neurons, _ = synthetic_bundles(rng, n_dirs=4, n_students=3, dim=6)
        shuffled = take(neurons, rng.permutation(len(neurons)))
        result = cluster_neurons(shuffled, 3, 0.75, 3.0)
        first_rows = [c[0] for c in result.clusters]
        assert first_rows == sorted(first_rows)
        assert result.labels[0] == 0
        for label, rows in enumerate(result.clusters):
            assert np.all(result.labels[rows] == label)
            assert np.all(np.diff(rows) > 0)

    def test_clusters_and_accepted_clusters_from_labels(self):
        neurons = Neurons(directions=np.eye(5), norms=np.ones(5), outgoing=np.zeros((5, 1)),
                          student=np.arange(5), index=np.zeros(5, dtype=int))
        result = ClusterResult(neurons, labels=np.array([0, 1, 0, 2, 1]),
                               accepted=np.array([True, False, True]),
                               gamma=0.5, n_students=5)
        assert [c.tolist() for c in result.clusters] == [[0, 2], [1, 4], [3]]
        assert [c.tolist() for c in result.accepted_clusters] == [[0, 2], [3]]

    def test_empty_pool_has_no_clusters(self):
        result = cluster_neurons(take(extract_neurons([random_teacher(np.random.default_rng(8))]),
                                      np.zeros(4, dtype=bool)), 2, 0.75, 3.0)
        assert result.clusters == []
        assert result.accepted.shape == (0,)

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            cluster_neurons([], 4, gamma=0.0, beta=3.0)

    def test_student_slots_below_n_students(self):
        # students are counted per cluster by the key label * n_students + slot
        neurons, _ = synthetic_bundles(np.random.default_rng(9), n_dirs=2, n_students=3, dim=4)
        with pytest.raises(ValueError, match="below n_students"):
            cluster_neurons(neurons, 2, gamma=0.75, beta=3.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        neurons, _ = synthetic_bundles(np.random.default_rng(10), n_dirs=2, n_students=3, dim=4)
        with pytest.raises(ValueError, match="beta must be finite"):
            cluster_neurons(neurons, 3, gamma=0.75, beta=beta)

    def test_memory_does_not_grow_with_n_squared(self):
        # 8,192 rows: a dense n x n matrix plus its condensed copy would peak
        # at 768 MB; small components leave one Gram row block as the peak
        neurons = random_pool(np.random.default_rng(11), n_students=16, width=512, dim=32)
        result, peak = peak_while(cluster_neurons, neurons, 16, 0.75, 3.0)
        assert peak < 128 * 2**20
        assert len(result.accepted) == len(neurons)  # random directions stay apart

    def test_memory_on_the_screened_path(self, monkeypatch):
        # 8,192 random directions of d + 1 = 785 at beta 1.7: the screen admits
        # about 0.7% of the pairs, which chain 95% of the rows into one
        # candidate group, and no two rows lie within the cut. The peak stays
        # within one float64 Gram block, the screen table and the edge lists;
        # the smaller groups' square matrices fit in the Gram block's room
        neurons = random_pool(np.random.default_rng(15), n_students=16, width=512, dim=785)
        n, beta = len(neurons), 1.7
        group = reconstruct._screen(neurons.directions, 1.0 - 10.0 ** -beta * (1.0 + 1e-6))
        assert np.bincount(group).max() > 0.9 * n
        counts, edges = [], reconstruct._edges

        def counted(*args):
            listed = edges(*args)
            counts.append(listed[1])
            return listed

        monkeypatch.setattr(reconstruct, "_edges", counted)
        result, peak = peak_while(cluster_neurons, neurons, 16, 0.75, beta)
        assert len(result.accepted) == n  # every cluster is one row
        assert peak <= (8 * reconstruct._GRAM_ROWS * n + 8 * (reconstruct._SCREEN_K + 1) * n
                        + reconstruct._EDGE_BYTES * max(counts))

    def test_edges_over_the_byte_budget_are_refused(self, monkeypatch):
        # beta = 0 joins every pair with cos >= 0: about n**2 / 4 edges for 512 rows
        neurons = random_pool(np.random.default_rng(14), n_students=8, width=64, dim=20)
        monkeypatch.setattr(reconstruct, "_CLUSTER_BYTES", 1 << 20)
        with pytest.raises(ConfigError, match=r"beta = 0.0 joins \d+ pairs of neurons; "
                                              r"clustering would need about \d+ bytes"):
            cluster_neurons(neurons, 8, gamma=0.25, beta=0.0)
        assert len(cluster_neurons(neurons, 8, gamma=0.25, beta=3.0).accepted) == 512

    def test_component_over_the_byte_budget_is_refused(self, monkeypatch):
        # directions 0.03 rad apart on a circle: 99 edges chain 100 rows into one component
        angles = 0.03 * np.arange(100)
        neurons = Neurons(directions=np.column_stack([np.cos(angles), np.sin(angles),
                                                      np.zeros(100)]),
                          norms=np.ones(100), outgoing=np.zeros((100, 1)),
                          student=np.arange(100) % 4, index=np.arange(100) // 4)
        monkeypatch.setattr(reconstruct, "_CLUSTER_BYTES", 64 << 10)
        with pytest.raises(ConfigError, match="beta = 3.0 joins 100 neurons into one "
                                              "component; clustering would need about 120000"):
            cluster_neurons(neurons, 4, gamma=0.75, beta=3.0)


class TestDenseEquivalence:
    """cluster_neurons against one average linkage over the whole distance matrix."""

    @staticmethod
    def assert_same(neurons, n_students, gamma=0.75, beta=3.0):
        result = cluster_neurons(neurons, n_students, gamma, beta)
        labels, accepted = dense_clusters(neurons, n_students, gamma, beta)
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.accepted, accepted)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("dim", [3, 20])
    def test_random_pools(self, dim, beta, seed):
        # beta = 0 cuts at cosine distance 1, which joins most rows into one component
        neurons = random_pool(np.random.default_rng([dim, seed]), n_students=8, width=64,
                              dim=dim)
        self.assert_same(neurons, 8, gamma=0.25, beta=beta)

    def test_duplicated_ensemble(self):
        _, students = duplicated_ensemble()
        self.assert_same(extract_neurons(students), len(students))

    def test_bundle(self):
        students = bundle_students(np.random.default_rng(12), n=4, r=8, rho=4, d=784, c=10)
        neurons = extract_neurons(students)
        self.assert_same(neurons, len(students))
        assert cluster_neurons(neurons, 4, 0.75, 3.0).accepted.sum() == 8

    @pytest.mark.parametrize(("kind", "beta", "path"), [
        ("random", 1.5, "exact"), ("random", 2.0, "screen"),
        ("random", 3.0, "screen"), ("random", 5.0, "screen"),
        ("skewed", 1.5, "exact"), ("skewed", 2.0, "gives up"),
        ("skewed", 3.0, "screen"), ("skewed", 5.0, "screen"),
        ("bundle", 1.5, "exact"), ("bundle", 2.0, "screen"),
        ("bundle", 3.0, "screen"), ("bundle", 5.0, "screen"),
    ])
    def test_paper_width(self, kind, beta, path):
        # d + 1 = 785: tau * 785 < K / 2 from beta 1.7 on, so beta 1.5 runs
        # the exact pass alone and the rest screen, or give up on crowded blocks
        rng = np.random.default_rng([28, int(10 * beta)])
        if kind == "bundle":
            neurons = extract_neurons(bundle_students(rng, n=8, r=16, rho=4, d=784, c=10))
        elif kind == "random":
            neurons = random_pool(rng, n_students=8, width=96, dim=785)
        else:
            neurons = pool(skewed_directions(rng, 768, 785), n_students=8)
        assert screen_path(neurons.directions, beta) == path
        self.assert_same(neurons, 8, gamma=0.75, beta=beta)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_tiny_pools(self, rows):
        neurons, _ = synthetic_bundles(np.random.default_rng(13), n_dirs=1, n_students=2, dim=5)
        self.assert_same(take(neurons, np.arange(rows)), 2)

    def test_all_identical(self):
        n = 40
        neurons = Neurons(directions=np.tile(unit(np.arange(1.0, 7.0)), (n, 1)),
                          norms=np.ones(n), outgoing=np.zeros((n, 2)),
                          student=np.arange(n) % 8, index=np.arange(n) // 8)
        self.assert_same(neurons, 8)


def first_seen(labels):
    """`labels` renumbered by first occurrence, so equal partitions compare equal."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def skewed_directions(rng, n, d):
    """Unit rows scattered around one axis by a per-row spread in [0.1, 0.6].

    Every pair lies within cosine distance 10**-0.5 of each other, and about
    four in ten within 10**-1.
    """
    dirs = 1.0 + rng.uniform(0.1, 0.6, size=(n, 1)) * rng.normal(size=(n, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def screen_projection(width):
    """The (width, K) matrix P with orthonormal columns, drawn as `_screen` draws it."""
    rng = np.random.default_rng(reconstruct._SCREEN_SEED)
    return np.linalg.qr(rng.normal(size=(width, reconstruct._SCREEN_K)))[0]


def screen_path(dirs, beta):
    """How `_components` finds the components of `dirs` at `beta`."""
    tau, width = 10.0 ** -beta, dirs.shape[1]
    if not reconstruct._SCREEN_K < width or 2 * tau * width >= reconstruct._SCREEN_K:
        return "exact"
    if reconstruct._screen(dirs, 1.0 - tau * (1.0 + 1e-6)) is None:
        return "gives up"
    return "screen"


def rotated(a, other, gram):
    """The unit vector at dot product `gram` from unit `a`, towards `other`."""
    w = other - (other @ a) * a
    return gram * a + np.sqrt(1.0 - gram * gram) * w / np.linalg.norm(w)


class TestScipyOracles:
    """The numpy ports in `reconstruct` against the scipy routines they replace."""

    @staticmethod
    def costs(rng, m, r):
        """Random, integer-valued (many ties) or one-decimal costs."""
        kind = rng.integers(3)
        if kind == 0:
            return rng.random((m, r))
        if kind == 1:
            return rng.integers(0, 3, size=(m, r)).astype(float)
        return np.round(rng.random((m, r)), 1)

    @pytest.mark.parametrize("shape", ["square", "wide", "tall"])
    @pytest.mark.parametrize("seed", range(3))
    def test_assignment_is_linear_sum_assignment(self, shape, seed):
        rng = np.random.default_rng([21, seed, ["square", "wide", "tall"].index(shape)])
        for _ in range(120):
            m = int(rng.integers(1, 12))
            r = {"square": m, "wide": m + int(rng.integers(1, 6)),
                 "tall": max(1, m - int(rng.integers(1, 6)))}[shape]
            cost = self.costs(rng, m, r)
            rows, cols = reconstruct._assignment(cost)
            expected_rows, expected_cols = linear_sum_assignment(cost)
            assert rows.tolist() == expected_rows.tolist()
            assert cols.tolist() == expected_cols.tolist()

    def test_constant_cost_assigns_the_identity(self):
        for m, r in [(4, 4), (3, 6), (6, 3)]:
            rows, cols = reconstruct._assignment(np.ones((m, r)))
            assert rows.tolist() == cols.tolist() == list(range(min(m, r)))

    @pytest.mark.parametrize("seed", range(4))
    def test_cut_is_fcluster_of_average_linkage(self, seed):
        rng = np.random.default_rng([22, seed])
        for trial in range(150):
            k = int(rng.integers(2, 40))
            kind = trial % 3
            if kind == 0:  # asymmetric: only the upper triangle counts
                dist, tau = rng.random((k, k)), float(rng.uniform(0.0, 1.0))
            elif kind == 1:  # integer distances and cuts: ties everywhere
                dist = rng.integers(0, 5, size=(k, k)).astype(float)
                tau = float(rng.integers(0, 5))
            else:  # tight bundles, cut between 1e-4 and 0.3
                centers = rng.normal(size=(4, 6))
                rows = centers[rng.integers(0, 4, size=k)]
                rows = rows + 10 ** rng.uniform(-5, -1) * rng.normal(size=(k, 6))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
                dist = np.clip(1.0 - rows @ rows.T, 0.0, None)
                tau = float(10 ** rng.uniform(-4, np.log10(0.3)))
            expected = fcluster(linkage(squareform(dist, checks=False), method="average"),
                                t=tau, criterion="distance")
            got = reconstruct._average_cut(dist.copy(), tau)
            assert np.array_equal(first_seen(got), first_seen(expected))

    @pytest.mark.parametrize("above", [False, True])
    def test_one_cluster_exit_at_its_boundary(self, above):
        # a diameter of exactly tau * (1 - 1e-9) is one cluster without the
        # chain, which leaves the matrix as it was; one ulp more runs the chain
        tau = 1e-3
        edge = tau * (1.0 - 1e-9)
        rng = np.random.default_rng(23)
        dist = rng.uniform(0.0, edge, size=(12, 12))
        dist[2, 9] = np.nextafter(edge, np.inf) if above else edge
        expected = fcluster(linkage(squareform(dist, checks=False), method="average"),
                            t=tau, criterion="distance")
        work = dist.copy()
        got = reconstruct._average_cut(work, tau)
        assert np.array_equal(first_seen(got), first_seen(expected))
        assert len(set(expected.tolist())) == 1
        assert np.array_equal(work, dist) != above

    def test_components_are_connected_components(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(1, 150))
            head, tail = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n))), dtype=np.int32)
            graph = coo_array((np.ones(len(head)), (head, tail)), shape=(n, n))
            expected = connected_components(graph, directed=False)[1]
            roots = reconstruct._roots(n, [(head, tail)])
            assert np.array_equal(first_seen(roots), expected)
            assert np.all(roots <= np.arange(n))  # each root is its component's lowest node

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_edge_lists_hold_edge_bytes(self, beta):
        # 2,048 rows of d = 785: every pair is an edge at beta 0.5, about four
        # in ten at 1; the peak stays within _EDGE_BYTES an edge plus one
        # float64 Gram block and its bool mask
        n = 2048
        dirs = skewed_directions(np.random.default_rng(25), n, 785)
        tau = 10.0 ** -beta
        min_gram = 1.0 - tau * (1.0 + 1e-6)
        rows = reconstruct._GRAM_ROWS
        edges = sum(int(np.count_nonzero(dirs[i:i + rows] @ dirs[i:].T >= min_gram))
                    for i in range(0, n, rows))
        component, peak = peak_while(reconstruct._components, dirs, tau, beta)
        assert edges > n**2 // 5
        assert (component.max() == 0) == (beta == 0.5)
        assert peak <= reconstruct._EDGE_BYTES * edges + 9 * rows * n


class TestEdges:
    """`_edges`, the Gram-block lister of both passes, chunk by chunk."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("gathered", [False, True])
    def test_lists_the_brute_force_pairs(self, gathered, dtype):
        # a tight cluster of 400 rows among random ones: its first chunk holds
        # 400**2 edges, more than `_EDGE_ROWS` full rows, so it is listed in
        # row slices. 2,300 rows, or 2,100 gathered ones, make five Gram
        # blocks, the first meeting three column chunks, the last one narrow
        rng = np.random.default_rng(31)
        center = rng.normal(size=785)
        table = np.vstack([center + 1e-3 * rng.normal(size=(400, 785)),
                           rng.normal(size=(1900, 785))])
        table = (table / np.linalg.norm(table, axis=1, keepdims=True)).astype(dtype)
        rows = None
        if gathered:
            rows = np.concatenate([rng.permutation(400), 400 + rng.permutation(1900)[:1700]])
        min_gram = dtype(0.9)
        edges, count = reconstruct._edges(table, rows, min_gram, 1.0)
        nodes = table if rows is None else table[rows]
        gram = nodes @ nodes.T
        block_start = np.arange(len(nodes)) // reconstruct._GRAM_ROWS * reconstruct._GRAM_ROWS
        head, tail = np.nonzero((gram >= min_gram)
                                & (np.arange(len(nodes)) >= block_start[:, None]))
        got = np.concatenate([np.stack(pair) for pair in edges], axis=1)
        assert count == got.shape[1] == len(head) > 400**2
        assert np.array_equal(got[:, np.lexsort(got[::-1])], np.stack([head, tail]))
        assert max(len(h) for h, _ in edges) <= reconstruct._EDGE_ROWS * reconstruct._GRAM_COLS

    @pytest.mark.parametrize("table", ["screen", "exact"])
    def test_memory_does_not_grow_with_n(self, monkeypatch, table):
        # random rows of d + 1 = 785 at beta 3 on the float32 screen table
        # and the float64 rows: the peak less `_EDGE_BYTES` an edge is one
        # chunk's product and mask at 4,096 and 8,192 rows alike, where a
        # mask per Gram block would grow by 512 bytes a row
        min_gram = 1.0 - 1e-3 * (1.0 + 1e-6)
        calls, edges = [], reconstruct._edges
        monkeypatch.setattr(reconstruct, "_edges",
                            lambda *args: calls.append(args) or (None, 0))
        rest = []
        for n in (4096, 8192):
            dirs = random_pool(np.random.default_rng(32), 1, n, 785).directions
            args = (dirs, None, min_gram, 1.0)
            if table == "screen":
                assert reconstruct._screen(dirs, min_gram) is None
                args = calls.pop()
                assert args[0].dtype == np.float32
            (listed, count), peak = peak_while(edges, *args)
            assert listed is not None and count >= n
            rest.append(peak - reconstruct._EDGE_BYTES * count)
        assert abs(rest[1] - rest[0]) <= 0.5 * 2**20


class TestScreen:
    """The pair screen of `_components` against the exact pass on all rows."""

    WIDTH, BETA = 785, 3.0

    def test_never_drops_an_exact_edge(self, monkeypatch):
        # 1,100 rows (two full Gram blocks and 76 rows): boundary pairs whose
        # Gram entry is exact in any summation order, pairs inside P's span
        # and orthogonal to it just inside and outside the cut, duplicated
        # rows, and random rows
        tau = 10.0 ** -self.BETA
        min_gram = 1.0 - tau * (1.0 + 1e-6)
        rng = np.random.default_rng(26)
        rows = []
        grams = [g for edge in (1.0 - tau, min_gram)
                 for g in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0))]
        for k, g in enumerate(grams):
            u = np.zeros(self.WIDTH)
            v = np.zeros(self.WIDTH)
            u[2 * k] = 1.0
            v[2 * k], v[2 * k + 1] = g, np.sqrt(1.0 - g * g)
            rows += [u, v]
        P = screen_projection(self.WIDTH)
        for g in (1.0 - (1.0 - min_gram) * (1.0 - 1e-6), 1.0 - (1.0 - min_gram) * (1.0 + 1e-6)):
            for _ in range(10):
                a = unit(rng.normal(size=reconstruct._SCREEN_K))
                rows += [P @ a, P @ rotated(a, rng.normal(size=reconstruct._SCREEN_K), g)]
                x, y = rng.normal(size=(2, self.WIDTH))
                x, y = unit(x - P @ (P.T @ x)), y - P @ (P.T @ y)
                rows += [x, rotated(x, y, g)]
        rows += [rows[1], rows[13], rows[40], rows[41]]
        dirs = np.vstack([rows, random_pool(rng, 1, 1100 - len(rows), self.WIDTH).directions])
        dirs = dirs[rng.permutation(len(dirs))]
        head, tail = np.nonzero(np.triu(dirs @ dirs.T >= min_gram, 1))
        assert len(head) >= 30
        group = reconstruct._screen(dirs, min_gram)
        assert group is not None and len(np.unique(group)) > len(dirs) // 2
        component = reconstruct._components(dirs, tau, self.BETA)
        assert np.array_equal(component[head], component[tail])
        # the linkage then splits the candidate groups as the exact pass would
        neurons = pool(dirs, 1)
        screened = cluster_neurons(neurons, 1, 1.0, self.BETA)
        monkeypatch.setattr(reconstruct, "_screen", lambda dirs, min_gram: None)
        exact = cluster_neurons(neurons, 1, 1.0, self.BETA)
        assert np.array_equal(screened.labels, exact.labels)
        assert np.array_equal(screened.accepted, exact.accepted)

    def test_tight_bounds_within_ulps_of_the_cut(self):
        # pairs sharing their part outside P's span, so the screen's bound
        # equals their dot product, placed within a few ulps of the cut: each
        # pair that one product puts at or above it shares a candidate group
        tau = 10.0 ** -self.BETA
        min_gram = 1.0 - tau * (1.0 + 1e-6)
        rng = np.random.default_rng(27)
        P = screen_projection(self.WIDTH)
        rows = []
        for k in range(-20, 20):
            outside = rng.normal(size=self.WIDTH)
            outside -= P @ (P.T @ outside)
            rho = rng.uniform(0.3, 0.9)
            outside *= rho / np.linalg.norm(outside)
            g = min_gram + k * np.spacing(min_gram)
            a = np.sqrt(1.0 - rho**2) * unit(rng.normal(size=reconstruct._SCREEN_K))
            b = np.sqrt(1.0 - rho**2) * rotated(unit(a), rng.normal(size=reconstruct._SCREEN_K),
                                                (g - rho**2) / (1.0 - rho**2))
            rows += [outside + P @ a, outside + P @ b]
        dirs = np.vstack([rows, random_pool(rng, 1, 600 - len(rows), self.WIDTH).directions])
        head, tail = np.nonzero(dirs @ dirs.T >= min_gram)
        assert np.count_nonzero(head != tail) > 20
        group = reconstruct._screen(dirs, min_gram)
        assert group is not None
        assert np.array_equal(group[head], group[tail])

    @staticmethod
    def edge_calls(monkeypatch):
        """Record the table dtype and the node count of each `_edges` call, None for all rows."""
        calls, edges = [], reconstruct._edges

        def recorded(table, rows, *args):
            calls.append((table.dtype, None if rows is None else len(rows)))
            return edges(table, rows, *args)

        monkeypatch.setattr(reconstruct, "_edges", recorded)
        return calls

    def test_one_block_groups_skip_the_exact_pass(self, monkeypatch):
        # 1,024 bundle neurons at beta 3: no candidate group reaches
        # `_GRAM_ROWS` rows, so edges are listed once, on the float32 screen
        # table, and the linkage alone splits each group
        neurons = extract_neurons(bundle_students(np.random.default_rng(29), n=16, r=16, rho=4,
                                                  d=784, c=10))
        calls = self.edge_calls(monkeypatch)
        result = cluster_neurons(neurons, 16, 0.75, self.BETA)
        assert calls == [(np.float32, None)]
        labels, accepted = dense_clusters(neurons, 16, 0.75, self.BETA)
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.accepted, accepted)
        assert accepted.sum() == 16

    def test_group_over_one_block_takes_the_exact_pass(self, monkeypatch):
        # two tight clusters of 300 rows whose centers differ only outside P's
        # span, at cosine distance 0.5: the screen's bound joins every pair
        # across them into one candidate group of 600 rows, which the exact
        # pass splits. 2,400 random rows keep each screen block's share of
        # admitted pairs near 4%, below the give-up share
        rng = np.random.default_rng(30)
        P = screen_projection(self.WIDTH)
        inside = P @ unit(rng.normal(size=reconstruct._SCREEN_K))
        x, y = rng.normal(size=(2, self.WIDTH))
        x = unit(x - P @ (P.T @ x))
        y = unit(rotated(x, y - P @ (P.T @ y), 0.0))
        dirs = np.vstack([center + 1e-6 * rng.normal(size=(300, self.WIDTH))
                          for center in (inside + x, inside + y)])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = np.vstack([dirs, random_pool(rng, 1, 2400, self.WIDTH).directions])
        dirs = dirs[rng.permutation(3000)]
        assert np.bincount(reconstruct._screen(dirs, 1.0 - 10.0 ** -self.BETA * (1.0 + 1e-6))
                           ).max() == 600
        neurons = pool(dirs, 4)
        calls = self.edge_calls(monkeypatch)
        result = cluster_neurons(neurons, 4, 0.5, self.BETA)
        assert calls == [(np.float32, None), (np.float64, 600)]
        labels, accepted = dense_clusters(neurons, 4, 0.5, self.BETA)
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.accepted, accepted)
        assert accepted.sum() == 2


class TestCollapse:
    def test_exact_copies_reproduce_teacher(self):
        rng = np.random.default_rng(7)
        teacher = random_teacher(rng, r=4, d=6, c=3)
        students = [padded_student(teacher, extra=4, seed=s) for s in range(5)]
        neurons = extract_neurons(students)
        result = cluster_neurons(neurons, n_students=5, gamma=0.75, beta=3.0)
        recon = collapse(result, d=6, c=3, output_bias=teacher.c_out)
        report = evaluate_reconstruction(recon, teacher)
        assert report.m == teacher.r
        order = [p.teacher_index for p in report.pairs]
        W_matched = recon.W[np.argsort([p.recon_index for p in report.pairs])]
        assert report.max_dw < 1e-12
        assert np.max(np.abs(np.sort(recon.b) - np.sort(teacher.b))) < 1e-10
        X = rng.normal(size=(100, 6))
        diff = forward(recon, X).out - forward(teacher, X).out
        assert np.max(np.abs(diff)) < 1e-9

    def test_split_outgoing_weights_are_summed(self):
        # one teacher neuron duplicated inside one student with its outgoing
        # weight split in half: the collapsed neuron carries the full weight
        w = np.array([[1.0, 2.0]])
        teacher = Mlp(W=w, b=[0.5], A=[[2.0]], c_out=[0.0])
        W2 = np.vstack([w, w])
        student = Mlp(W=W2, b=[0.5, 0.5], A=[[1.0, 1.0]], c_out=[0.0])
        neurons = extract_neurons([student, student])
        result = cluster_neurons(neurons, n_students=2, gamma=1.0, beta=3.0)
        assert len(result.accepted_clusters) == 1
        recon = collapse(result, d=2, c=1, output_bias=np.zeros(1))
        assert recon.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        X = np.random.default_rng(8).normal(size=(50, 2))
        diff = forward(recon, X).out - forward(teacher, X).out
        assert np.max(np.abs(diff)) < 1e-9

    def test_m_equals_accepted_count(self):
        rng = np.random.default_rng(9)
        neurons, _ = synthetic_bundles(rng, n_dirs=6, n_students=4, dim=5)
        result = cluster_neurons(neurons, 4, 0.75, 3.0)
        recon = collapse(result, d=4, c=2)
        assert recon.r == len(result.accepted_clusters)

    def test_no_accepted_clusters_raises(self):
        empty = Neurons(directions=np.zeros((0, 4)), norms=np.zeros(0),
                        outgoing=np.zeros((0, 2)), student=np.zeros(0, dtype=int),
                        index=np.zeros(0, dtype=int))
        result = ClusterResult(empty, labels=np.zeros(0, dtype=int),
                               accepted=np.zeros(0, dtype=bool), gamma=0.75, n_students=4)
        with pytest.raises(ValueError):
            collapse(result, d=3, c=2)

    def test_golden_collapse_with_duplicates_and_missing_slot(self):
        # sha256 of the collapsed parameters, recorded with the previous
        # object-per-neuron implementation
        teacher, students = duplicated_ensemble()
        result = cluster_neurons(extract_neurons(students), len(students), 0.75, 3.0)
        assert sorted(len(c) for c in result.accepted_clusters) == [5, 5, 7, 7]
        recon = collapse(result, d=6, c=3, output_bias=teacher.c_out)
        assert hashlib.sha256(recon.theta.astype("<f8").tobytes()).hexdigest() == \
            "068f1d6f76721f439e4851f1360630428efa389d332f8a33baae91a5f3459a62"
        assert evaluate_reconstruction(recon, teacher).max_dw < 1e-12


class TestFineTune:
    def make_queries(self, teacher, rng, Q=256):
        X = rng.normal(size=(Q, teacher.d))
        return QuerySet(inputs=X, targets=forward(teacher, X).out)

    def test_fixed_point_at_teacher(self):
        rng = np.random.default_rng(10)
        teacher = random_teacher(rng)
        qs = self.make_queries(teacher, rng)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_steps=500, seed=0)
        tuned, history = fine_tune(teacher, qs, cfg)
        assert history[0][1] == 0.0
        for attr in ("W", "b", "A", "c_out"):
            assert np.max(np.abs(getattr(tuned, attr) - getattr(teacher, attr))) < 1e-9

    def test_zero_steps_identity(self):
        rng = np.random.default_rng(11)
        teacher = random_teacher(rng)
        start = random_teacher(np.random.default_rng(12))
        qs = self.make_queries(teacher, rng)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_steps=0, seed=0)
        tuned, _ = fine_tune(start, qs, cfg)
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(tuned, attr), getattr(start, attr))

    def test_lm_reaches_the_float_floor_on_a_realizable_net(self):
        rng = np.random.default_rng(14)
        teacher = random_teacher(rng)
        qs = self.make_queries(teacher, rng)
        start = Mlp.from_flat(teacher.theta + 0.05 * rng.normal(size=teacher.n_params),
                              teacher.r, teacher.d, teacher.c)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_steps=500,
                          target_loss=1e-24, seed=0)
        tuned, history = fine_tune(start, qs, cfg)
        losses = [loss for _, loss, _ in history]
        assert losses[-1] < 1e-20
        assert losses == sorted(losses, reverse=True)
        assert final_loss(history) == mse_loss(tuned, qs.inputs, qs.targets)
        assert [step for step, _, _ in history] == list(range(len(history)))
        assert np.max(np.abs(tuned.theta - teacher.theta)) < 1e-9

    def test_singular_normal_equations_neither_raise_nor_diverge(self):
        # an over-wide start: neurons 0 and 1 are each split into two copies
        # that share their outgoing weight, and two dead neurons output zero
        # with zero slope, so JᵀJ is singular and has zero rows
        rng = np.random.default_rng(30)
        teacher = random_teacher(rng)
        W = np.vstack([teacher.W, teacher.W[:2], rng.normal(size=(2, 6))])
        b = np.concatenate([teacher.b, teacher.b[:2], [-1000.0, -1000.0]])
        A = np.hstack([teacher.A[:, :2] / 2, teacher.A[:, 2:], teacher.A[:, :2] / 2,
                       rng.normal(size=(3, 2))])
        start = Mlp(W=W + 1e-3 * rng.normal(size=W.shape), b=b, A=A, c_out=teacher.c_out)
        qs = self.make_queries(teacher, rng, Q=400)
        jtj, _ = _gauss_newton(start, qs.inputs, qs.targets)
        assert np.linalg.matrix_rank(jtj) < start.n_params
        assert np.any(np.diag(jtj) == 0.0)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_steps=500,
                          target_loss=1e-24, seed=0)
        tuned, history = fine_tune(start, qs, cfg)
        losses = [loss for _, loss, _ in history]
        assert np.all(np.isfinite(losses))
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-12 * losses[0]
        # the dead neurons get no step: their rows of JᵀJ and Jᵀe are zero
        assert np.array_equal(tuned.W[6:], start.W[6:])
        assert np.array_equal(tuned.A[:, 6:], start.A[:, 6:])

    @pytest.mark.parametrize("d,path", [(31, "fit_lm"), (32, "fit_mse")])
    def test_levenberg_marquardt_only_within_the_byte_budget(self, monkeypatch, d, path):
        # r=31, c=1: 31 * (d + 2) + 1 parameters, 1,024 at d=31; two arrays of
        # 1024**2 floats are the budget exactly. Either path fine-tunes.
        calls = []
        for name in ("fit_lm", "fit_mse"):
            def recording(*args, _real=getattr(reconstruct, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(reconstruct, name, recording)
        net = init_mlp(31, d, 1, seed=0)
        rng = np.random.default_rng(15)
        qs = QuerySet(inputs=rng.normal(size=(32, d)), targets=rng.normal(size=(32, 1)))
        tuned, history = fine_tune(net, qs, TrainConfig(learning_rate=1e-2, batch_size=8,
                                                        max_steps=2, seed=0))
        assert (net.n_params, 16 * net.n_params**2 <= reconstruct._LM_BYTES) == \
            ((1024, True) if d == 31 else (1055, False))
        assert calls == [path]
        loss = mse_loss(tuned, qs.inputs, qs.targets)
        assert loss == final_loss(history) < 0.9 * history[0][1]

    def test_dimension_check(self):
        rng = np.random.default_rng(13)
        teacher = random_teacher(rng, d=6)
        other = random_teacher(rng, d=5)
        qs = self.make_queries(teacher, rng)
        with pytest.raises(ValueError):
            fine_tune(other, qs, TrainConfig(learning_rate=1e-3, batch_size=8,
                                             max_steps=1, seed=0))


class TestRunReconstruction:
    def test_recovers_from_padded_students(self):
        rng = np.random.default_rng(21)
        teacher = random_teacher(rng, r=4, d=6, c=3)
        students = [padded_student(teacher, extra=4, seed=s) for s in range(4)]
        X = rng.normal(size=(300, 6))
        qs = QuerySet(inputs=X, targets=forward(teacher, X).out)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_steps=2000,
                          target_loss=1e-14, seed=5)
        recon, clusters, history = run_reconstruction(students, qs, gamma=0.75,
                                                      beta=3.0, cfg=cfg)
        assert len(clusters.accepted_clusters) == 4
        report = evaluate_reconstruction(recon, teacher)
        assert report.m_over_r == 1.0
        assert report.max_dw < 1e-8

    def test_raises_when_nothing_clusters(self):
        rng = np.random.default_rng(22)
        students = [random_teacher(rng, r=4, d=6, c=3) for _ in range(3)]
        X = rng.normal(size=(50, 6))
        qs = QuerySet(inputs=X, targets=forward(students[0], X).out)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_steps=10, seed=0)
        with pytest.raises(EmptyReconstructionError):
            run_reconstruction(students, qs, gamma=1.0, beta=8.0, cfg=cfg)

    def test_gamma_counts_missing_students(self):
        # three students carry every teacher neuron, the fourth slot is empty:
        # gamma=1.0 needs ceil(1.0 * 4) = 4 students per cluster, not 3
        rng = np.random.default_rng(23)
        teacher = random_teacher(rng, r=4, d=6, c=3)
        students = [padded_student(teacher, extra=4, seed=s) for s in range(3)] + [None]
        X = rng.normal(size=(50, 6))
        qs = QuerySet(inputs=X, targets=forward(teacher, X).out)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_steps=10, seed=0)
        with pytest.raises(EmptyReconstructionError):
            run_reconstruction(students, qs, gamma=1.0, beta=3.0, cfg=cfg)


class TestEvaluateReconstruction:
    def test_identity(self):
        rng = np.random.default_rng(14)
        teacher = random_teacher(rng)
        report = evaluate_reconstruction(teacher, teacher)
        assert report.m_over_r == 1.0
        assert report.max_dw < 1e-12
        assert report.max_da < 1e-12

    def test_permutation_resolved(self):
        rng = np.random.default_rng(15)
        teacher = random_teacher(rng, r=6)
        perm = rng.permutation(6)
        shuffled = Mlp(W=teacher.W[perm], b=teacher.b[perm],
                       A=teacher.A[:, perm], c_out=teacher.c_out)
        report = evaluate_reconstruction(shuffled, teacher)
        assert report.m_over_r == 1.0
        assert report.max_dw < 1e-12
        assert report.max_da < 1e-12

    def test_negated_neuron_distance_two(self):
        rng = np.random.default_rng(16)
        teacher = random_teacher(rng, r=4)
        W = teacher.W.copy()
        b = teacher.b.copy()
        W[2] *= -1
        b[2] *= -1
        flipped = Mlp(W=W, b=b, A=teacher.A, c_out=teacher.c_out)
        report = evaluate_reconstruction(flipped, teacher)
        assert report.max_dw == pytest.approx(2.0, abs=1e-9)

    def test_partial_recovery_reports_fraction(self):
        rng = np.random.default_rng(17)
        teacher = random_teacher(rng, r=5)
        partial = Mlp(W=teacher.W[:3], b=teacher.b[:3], A=teacher.A[:, :3],
                      c_out=teacher.c_out)
        report = evaluate_reconstruction(partial, teacher)
        assert report.m == 3 and report.r == 5
        assert report.m_over_r == pytest.approx(0.6)
        assert len(report.pairs) == 3
        assert report.max_dw < 1e-12

    def test_surplus_neurons_reported_above_one(self):
        rng = np.random.default_rng(18)
        teacher = random_teacher(rng, r=3)
        surplus = padded_student(teacher, extra=1, seed=19)
        report = evaluate_reconstruction(surplus, teacher)
        assert report.m == 4 and report.r == 3
        assert report.m_over_r > 1.0
        assert len(report.pairs) == 3

    def test_independent_of_the_blas_thread_count(self, blas_threads):
        # at d = 784 OpenBLAS's two-thread Gram product differs from its
        # one-thread one in the last bits of some matched distances
        recon, teacher = (init_mlp(96, 784, 10, seed=seed) for seed in (0, 1))
        report = evaluate_reconstruction(recon, teacher)
        with train._one_blas_thread():
            expected = evaluate_reconstruction(recon, teacher)
        assert report.pairs == expected.pairs
        assert (report.avg_dw, report.max_dw, report.avg_da, report.max_da) == \
            (expected.avg_dw, expected.max_dw, expected.avg_da, expected.max_da)

    def test_cosine_distance_range(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            u, v = rng.normal(size=(2, 6))
            assert 0.0 <= cosine_distance(u, v) <= 2.0

    @pytest.mark.parametrize("m,r", [(5, 5), (4, 6), (7, 5)])
    def test_matches_the_per_pair_reference(self, m, r):
        # the vectorised distances against a per-pair loop; the Gram product
        # sums d + 1 = 7 terms in another order, so allow 7 ulps of 1
        rng = np.random.default_rng(40 + m)
        recon, teacher = random_teacher(rng, r=m), random_teacher(rng, r=r)
        A = recon.A.copy()
        A[:, 0] = 0.0  # a zero outgoing column: distance 1 on both sides
        recon = Mlp(W=recon.W, b=recon.b, A=A, c_out=recon.c_out)
        report = evaluate_reconstruction(recon, teacher)
        rows = [p.recon_index for p in report.pairs]
        cols = [p.teacher_index for p in report.pairs]
        assert rows == sorted(rows) and len(rows) == min(m, r)
        dw = [cosine_distance(np.append(recon.W[i], recon.b[i]),
                              np.append(teacher.W[j], teacher.b[j])) for i, j in zip(rows, cols)]
        da = [cosine_distance(recon.A[:, i], teacher.A[:, j]) for i, j in zip(rows, cols)]
        assert np.allclose([p.dw for p in report.pairs], dw, rtol=0, atol=7 * np.finfo(float).eps)
        assert np.allclose([p.da for p in report.pairs], da, rtol=0, atol=7 * np.finfo(float).eps)
        assert (report.max_dw, report.max_da) == (max(p.dw for p in report.pairs),
                                                  max(p.da for p in report.pairs))
