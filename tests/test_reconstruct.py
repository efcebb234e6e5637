import numpy as np
import pytest

from netrecon.data import QuerySet
from netrecon.errors import EmptyReconstructionError
from netrecon.network import Mlp, forward
from netrecon.reconstruct import (
    ClusterResult,
    NeuronVector,
    cluster_neurons,
    collapse,
    cosine_distance,
    evaluate_reconstruction,
    extract_neurons,
    fine_tune,
    run_reconstruction,
)
from netrecon.train import StudentEnsemble, TrainConfig


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
    Returns (vectors, ground-truth partition as index sets).
    """
    while True:
        centers = rng.normal(size=(n_dirs, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        gram = centers @ centers.T
        if (1 - gram + 2 * np.eye(n_dirs)).min() > separation:
            break
    vectors = []
    partition = []
    for j in range(n_dirs):
        members = []
        for s in range(n_students):
            direction = unit(centers[j] + spread * rng.normal(size=dim))
            members.append(len(vectors))
            vectors.append(NeuronVector(
                direction=direction, raw_norm=1.0 + rng.uniform(0, 0.5),
                outgoing=rng.normal(size=2), student_index=s,
                neuron_index=j,
            ))
        partition.append(frozenset(members))
    return vectors, set(partition)


class TestExtractNeurons:
    def test_counts(self):
        rng = np.random.default_rng(0)
        students = [random_teacher(rng, r=6, d=4, c=2) for _ in range(3)]
        vectors = extract_neurons(students)
        assert len(vectors) == 3 * 6

    def test_directions_unit_norm(self):
        rng = np.random.default_rng(1)
        vectors = extract_neurons([random_teacher(rng) for _ in range(2)])
        for v in vectors:
            assert abs(np.linalg.norm(v.direction) - 1.0) < 1e-12

    def test_teacher_directions_appear_in_padded_student(self):
        rng = np.random.default_rng(2)
        teacher = random_teacher(rng)
        student = padded_student(teacher, extra=5, seed=3)
        vectors = extract_neurons([student])
        wb = np.hstack([teacher.W, teacher.b[:, None]])
        for i in range(teacher.r):
            expected = unit(wb[i])
            assert np.allclose(vectors[i].direction, expected, atol=1e-12)
            assert np.allclose(vectors[i].outgoing, teacher.A[:, i])

    def test_zero_norm_neurons_excluded(self):
        net = Mlp(W=np.array([[1.0, 0.0], [0.0, 0.0]]), b=[0.0, 0.0],
                  A=np.ones((2, 2)), c_out=np.zeros(2))
        vectors = extract_neurons([net])
        assert len(vectors) == 1
        assert vectors[0].neuron_index == 0


class TestClusterNeurons:
    def test_recovers_synthetic_bundles(self):
        rng = np.random.default_rng(4)
        vectors, truth = synthetic_bundles(rng, n_dirs=5, n_students=6, dim=8,
                                           spread=1e-6)
        result = cluster_neurons(vectors, n_students=6, gamma=0.75, beta=3.0)
        got = {
            frozenset(vectors.index(v) for v in cluster)
            for cluster, ok in zip(result.clusters, result.accepted) if ok
        }
        assert got == truth

    def test_gamma_one_rejects_incomplete_cluster(self):
        rng = np.random.default_rng(5)
        vectors, _ = synthetic_bundles(rng, n_dirs=3, n_students=4, dim=6)
        vectors = [v for v in vectors if not (v.student_index == 3 and v.neuron_index == 0)]
        result = cluster_neurons(vectors, n_students=4, gamma=1.0, beta=3.0)
        accepted_sizes = sorted(len(c) for c in result.accepted_clusters)
        assert accepted_sizes == [4, 4]  # the incomplete bundle is rejected

    def test_single_direction_repeated(self):
        direction = unit(np.ones(5))
        vectors = [
            NeuronVector(direction=direction.copy(), raw_norm=1.0,
                         outgoing=np.zeros(2), student_index=s, neuron_index=0)
            for s in range(4)
        ]
        result = cluster_neurons(vectors, n_students=4, gamma=1.0, beta=3.0)
        assert len(result.accepted_clusters) == 1
        assert len(result.accepted_clusters[0]) == 4

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        vectors, _ = synthetic_bundles(rng, n_dirs=4, n_students=5, dim=7)
        a = cluster_neurons(vectors, 5, 0.75, 3.0)
        b = cluster_neurons(vectors, 5, 0.75, 3.0)
        assert [[id(v) for v in c] for c in a.clusters] == \
               [[id(v) for v in c] for c in b.clusters]
        assert a.accepted == b.accepted

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            cluster_neurons([], 4, gamma=0.0, beta=3.0)


class TestCollapse:
    def test_exact_copies_reproduce_teacher(self):
        rng = np.random.default_rng(7)
        teacher = random_teacher(rng, r=4, d=6, c=3)
        students = [padded_student(teacher, extra=4, seed=s) for s in range(5)]
        vectors = extract_neurons(students)
        result = cluster_neurons(vectors, n_students=5, gamma=0.75, beta=3.0)
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
        vectors = extract_neurons([student, student])
        result = cluster_neurons(vectors, n_students=2, gamma=1.0, beta=3.0)
        assert len(result.accepted_clusters) == 1
        recon = collapse(result, d=2, c=1, output_bias=np.zeros(1))
        assert recon.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        X = np.random.default_rng(8).normal(size=(50, 2))
        diff = forward(recon, X).out - forward(teacher, X).out
        assert np.max(np.abs(diff)) < 1e-9

    def test_m_equals_accepted_count(self):
        rng = np.random.default_rng(9)
        vectors, _ = synthetic_bundles(rng, n_dirs=6, n_students=4, dim=5)
        result = cluster_neurons(vectors, 4, 0.75, 3.0)
        recon = collapse(result, d=4, c=2)
        assert recon.r == len(result.accepted_clusters)

    def test_no_accepted_clusters_raises(self):
        result = ClusterResult(clusters=[], accepted=[], gamma=0.75, beta=3.0,
                               n_students=4)
        with pytest.raises(ValueError):
            collapse(result, d=3, c=2)


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
        ensemble = StudentEnsemble(students=list(students),
                                   histories=[[] for _ in students],
                                   final_losses=[0.0] * 4, rho=2, teacher_r=4)
        X = rng.normal(size=(300, 6))
        qs = QuerySet(inputs=X, targets=forward(teacher, X).out)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_steps=2000,
                          target_loss=1e-14, seed=5)
        recon, clusters, history = run_reconstruction(ensemble, qs, gamma=0.75,
                                                      beta=3.0, cfg=cfg)
        assert len(clusters.accepted_clusters) == 4
        report = evaluate_reconstruction(recon, teacher)
        assert report.m_over_r == 1.0
        assert report.max_dw < 1e-8

    def test_raises_when_nothing_clusters(self):
        rng = np.random.default_rng(22)
        students = [random_teacher(rng, r=4, d=6, c=3) for _ in range(3)]
        ensemble = StudentEnsemble(students=list(students),
                                   histories=[[] for _ in students],
                                   final_losses=[1.0] * 3, rho=1, teacher_r=4)
        X = rng.normal(size=(50, 6))
        qs = QuerySet(inputs=X, targets=forward(students[0], X).out)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_steps=10, seed=0)
        with pytest.raises(EmptyReconstructionError):
            run_reconstruction(ensemble, qs, gamma=1.0, beta=8.0, cfg=cfg)

    def test_gamma_counts_missing_students(self):
        # three students carry every teacher neuron, the fourth slot is empty:
        # gamma=1.0 needs ceil(1.0 * 4) = 4 students per cluster, not 3
        rng = np.random.default_rng(23)
        teacher = random_teacher(rng, r=4, d=6, c=3)
        students = [padded_student(teacher, extra=4, seed=s) for s in range(3)] + [None]
        ensemble = StudentEnsemble(students=students,
                                   histories=[[] for _ in students],
                                   final_losses=[0.0] * 3 + [float("nan")],
                                   rho=2, teacher_r=4)
        X = rng.normal(size=(50, 6))
        qs = QuerySet(inputs=X, targets=forward(teacher, X).out)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_steps=10, seed=0)
        with pytest.raises(EmptyReconstructionError):
            run_reconstruction(ensemble, qs, gamma=1.0, beta=3.0, cfg=cfg)


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

    def test_cosine_distance_range(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            u, v = rng.normal(size=(2, 6))
            assert 0.0 <= cosine_distance(u, v) <= 2.0
