"""Acceptance suite: one test per criterion, each printing a PASS line.

The recovery and overfit runs share one desk-scale teacher: 5x5 synthetic
images, 10 classes, hidden width 8. Heavy fixtures are session-scoped so the
expensive student ensembles train once.
"""

import time

import numpy as np
import pytest

from netrecon.augment import (
    biased_noise,
    grid_composition,
    hv_flips,
    identity,
    random_rotations,
    uniform_noise,
)
from netrecon.cli import EXIT_OK, main
from netrecon.data import (
    ImageDataset,
    make_synthetic_classification,
    save_idx,
    standardize,
    subset,
)
from netrecon.metrics import (
    imitation_loss,
    preactivation_histogram,
    preactivation_variability,
)
from netrecon.network import Mlp, backward_mse, forward, mse_loss
from netrecon.reconstruct import (
    Neurons,
    cluster_neurons,
    collapse,
    evaluate_reconstruction,
    extract_neurons,
    fine_tune,
)
from netrecon.train import TrainConfig, query_teacher, steps_for, train_ensemble, train_teacher

GAMMA, BETA = 0.75, 3.0

STUDENT_CFG = TrainConfig(
    learning_rate=2e-2, batch_size=256, max_steps=40000, eval_every=500,
    plateau_patience=6, plateau_factor=0.3, plateau_threshold=1e-3,
    plateau_min_lr=1e-8, target_loss=1e-8, seed=100,
)
OVERFIT_CFG = TrainConfig(
    learning_rate=5e-3, batch_size=256, max_steps=80000, eval_every=250,
    plateau_patience=6, plateau_factor=0.5, plateau_threshold=1e-3,
    plateau_min_lr=1e-8, target_loss=1e-7, seed=100,
)
FINETUNE_CFG = TrainConfig(
    learning_rate=3e-3, batch_size=1024, max_steps=15000, eval_every=250,
    plateau_patience=6, plateau_factor=0.3, plateau_threshold=1e-3,
    plateau_min_lr=1e-10, target_loss=1e-12, seed=99,
)


@pytest.fixture(scope="session")
def desk():
    """Standardized desk dataset (d=25), its statistics, and the r=8 teacher."""
    raw = make_synthetic_classification(4000, height=5, width=5, n_classes=10, seed=0)
    ds, mean, std = standardize(raw)
    teacher, _ = train_teacher(ds, 8, TrainConfig(
        learning_rate=1e-2, batch_size=128, max_steps=4000, eval_every=100,
        plateau_patience=10, plateau_threshold=1e-3, seed=0))
    return {"ds": ds, "mean": mean, "std": std, "teacher": teacher}


@pytest.fixture(scope="session")
def recovery_run(desk):
    """Criterion-3 pipeline: biased-noise queries, 8 students, reconstruction."""
    t0 = time.time()
    base = subset(desk["ds"], 2048, seed=1)
    qs = query_teacher(desk["teacher"], biased_noise(base, 1.0, seed=2))
    ensemble = train_ensemble(qs, teacher_r=8, rho=4, N=8, cfg=STUDENT_CFG, jobs=2)
    neurons = extract_neurons(ensemble.students)
    clusters = cluster_neurons(neurons, ensemble.n_students, GAMMA, BETA)
    bias = np.mean([s.c_out for s in ensemble.trained], axis=0)
    collapsed = collapse(clusters, qs.d, qs.c, output_bias=bias)
    pre_report = evaluate_reconstruction(collapsed, desk["teacher"])
    tuned, ft_history = fine_tune(collapsed, qs, FINETUNE_CFG)
    report = evaluate_reconstruction(tuned, desk["teacher"])
    return {
        "base": base, "qs": qs, "ensemble": ensemble, "pre_report": pre_report,
        "report": report, "ft_history": ft_history, "elapsed": time.time() - t0,
    }


def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(314)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(1, 9))
        d = int(rng.integers(1, 11))
        c = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 9))
        net = Mlp(W=rng.normal(size=(r, d)), b=rng.normal(size=r),
                  A=rng.normal(size=(c, r)), c_out=rng.normal(size=c))
        X = rng.normal(size=(batch, d))
        Y = rng.normal(size=(batch, c))
        grad, _ = backward_mse(net, X, Y)
        # every entry of theta, so all four blocks W, b, A, c_out
        for i in range(net.n_params):
            up, down = net.theta.copy(), net.theta.copy()
            up[i] += h
            down[i] -= h
            numeric = (mse_loss(Mlp.from_flat(up, r, d, c), X, Y)
                       - mse_loss(Mlp.from_flat(down, r, d, c), X, Y)) / (2 * h)
            # the difference quotient itself carries ~eps*loss/h ~ 1e-9
            # of roundoff, so coordinates far below the typical O(1-100)
            # gradient magnitude cannot be compared purely relatively;
            # floor the scale at 1e-3 (five decades under typical)
            scale = max(abs(numeric), abs(grad[i]), 1e-3)
            worst = max(worst, abs(grad[i] - numeric) / scale)
    elapsed = time.time() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: gradients vs finite differences on 20 nets, "
          f"worst rel err {worst:.2e} (<1e-5), {elapsed:.1f}s")


def test_criterion_02_forward_and_loss_oracles():
    start = time.time()
    rng = np.random.default_rng(271)
    from netrecon.network import activation

    worst_fwd, worst_loss = 0.0, 0.0
    for _ in range(50):
        r = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 7))
        net = Mlp(W=rng.normal(size=(r, d)), b=rng.normal(size=r),
                  A=rng.normal(size=(c, r)), c_out=rng.normal(size=c))
        X = rng.normal(size=(batch, d))
        Y = rng.normal(size=(batch, c))
        got = forward(net, X).out
        loss_expected = 0.0
        for n in range(batch):
            for k in range(c):
                out_nk = net.c_out[k]
                for i in range(r):
                    pre = net.b[i]
                    for j in range(d):
                        pre += net.W[i, j] * X[n, j]
                    out_nk += net.A[k, i] * float(activation(pre))
                worst_fwd = max(worst_fwd, abs(got[n, k] - out_nk))
                loss_expected += (out_nk - Y[n, k]) ** 2
        loss_expected /= batch
        worst_loss = max(worst_loss, abs(mse_loss(net, X, Y) - loss_expected))
    elapsed = time.time() - start
    assert worst_fwd < 1e-12
    assert worst_loss < 1e-12
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: forward/loss vs loop oracles on 50 instances, "
          f"max diffs {worst_fwd:.1e}/{worst_loss:.1e} (<1e-12), {elapsed:.1f}s")


def test_criterion_03_recovery_with_biased_noise(desk, recovery_run):
    report = recovery_run["report"]
    qs = recovery_run["qs"]
    assert qs.Q >= 6000
    assert desk["teacher"].r == 8 and desk["teacher"].d <= 64
    assert report.m_over_r == 1.0
    assert report.avg_dw < 1e-3
    assert report.max_dw < 1e-2
    assert recovery_run["elapsed"] < 600.0
    print(f"\nACCEPTANCE 3 PASS: biased-noise recovery Q={qs.Q}, m/r=1.0, "
          f"avg_dw={report.avg_dw:.2e} (<1e-3), max_dw={report.max_dw:.2e} "
          f"(<1e-2), {recovery_run['elapsed']:.0f}s (<600s)")


def test_criterion_04_overfit_failure_with_identity_queries(desk):
    start = time.time()
    teacher = desk["teacher"]
    budget = 2 * teacher.n_params
    small = subset(desk["ds"], 32, seed=3)
    qs = query_teacher(teacher, identity(small))
    assert qs.Q <= budget
    ensemble = train_ensemble(qs, teacher_r=8, rho=4, N=8, cfg=OVERFIT_CFG, jobs=2)
    ood_raw = make_synthetic_classification(2000, height=5, width=5, n_classes=10,
                                            style="stripes", seed=7)
    ood, _, _ = standardize(ood_raw, stats=(desk["mean"], desk["std"]))
    train_losses = [imitation_loss(s, teacher, qs.inputs) for s in ensemble.trained]
    ood_losses = [imitation_loss(s, teacher, ood.images) for s in ensemble.trained]
    ratios = [o / t for o, t in zip(ood_losses, train_losses)]
    neurons = extract_neurons(ensemble.students)
    clusters = cluster_neurons(neurons, ensemble.n_students, GAMMA, BETA)
    if clusters.accepted_clusters:
        bias = np.mean([s.c_out for s in ensemble.trained], axis=0)
        tuned, _ = fine_tune(collapse(clusters, qs.d, qs.c, output_bias=bias),
                             qs, FINETUNE_CFG)
        report = evaluate_reconstruction(tuned, teacher)
        failed = report.m_over_r < 1.0 or report.avg_dw > 0.1
        failure_detail = f"m/r={report.m_over_r:.2f} avg_dw={report.avg_dw:.2e}"
    else:
        failed = True
        failure_detail = "no accepted clusters (m=0)"
    elapsed = time.time() - start
    assert len(ensemble.trained) == 8
    assert max(train_losses) < 1e-6
    assert min(ratios) >= 100.0
    assert failed
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 4 PASS: identity queries Q={qs.Q} (<= {budget}), "
          f"train<= {max(train_losses):.1e} (<1e-6), OOD/train>= {min(ratios):.1e} "
          f"(>=100), reconstruction failed as expected ({failure_detail}), "
          f"{elapsed:.0f}s (<600s)")


def test_criterion_05_variability_orderings(desk, recovery_run):
    start = time.time()
    teacher = desk["teacher"]
    base = recovery_run["base"]
    biased = preactivation_variability(teacher, biased_noise(base, 1.0, seed=11).inputs)
    zero_mean = preactivation_variability(
        teacher, uniform_noise(base, -1.0, 1.0, copies=2, seed=11).inputs)
    assert biased.mean_std > zero_mean.mean_std > 0.0
    stds = [
        preactivation_histogram(teacher, biased_noise(base, u, seed=12).inputs,
                                bins=80).std()
        for u in (1.0, 5.0, 10.0)
    ]
    assert stds[0] < stds[1] < stds[2]
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: mean_std biased {biased.mean_std:.3f} > "
          f"zero-mean {zero_mean.mean_std:.3f} > 0; histogram stds "
          f"{stds[0]:.2f} < {stds[1]:.2f} < {stds[2]:.2f}, {elapsed:.1f}s")


def test_criterion_06_cardinality_contracts():
    start = time.time()
    raw = make_synthetic_classification(120, height=6, width=6, seed=21)
    ds, _, _ = standardize(raw)
    n = ds.n_samples
    assert hv_flips(ds).Q == 3 * n
    assert biased_noise(ds, 1.0, seed=0).Q == 3 * n
    assert random_rotations(ds, copies=2, seed=0).Q == 3 * n
    two = ImageDataset(images=np.vstack([np.zeros(81), np.ones(81)]),
                       labels=[0, 1], height=9, width=9)
    out = grid_composition(two, grid_x=3, grid_y=3, count=20000, seed=5)
    distinct = {row.tobytes() for row in out.inputs}
    elapsed = time.time() - start
    assert len(distinct) == 2 ** 9
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: flips/biased/rotations give exactly 3x base; "
          f"3x3 grid over 2 bases reaches {len(distinct)} = 2^9 compositions, "
          f"{elapsed:.1f}s")


def test_criterion_07_permutation_invariance():
    start = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(2, 10))
        teacher = Mlp(W=rng.normal(size=(r, 6)), b=rng.normal(size=r),
                      A=rng.normal(size=(3, r)), c_out=rng.normal(size=3))
        perm = rng.permutation(r)
        shuffled = Mlp(W=teacher.W[perm], b=teacher.b[perm],
                       A=teacher.A[:, perm], c_out=teacher.c_out)
        report = evaluate_reconstruction(shuffled, teacher)
        assert report.m_over_r == 1.0
        worst = max(worst, report.max_dw, report.max_da)
    elapsed = time.time() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 7 PASS: 20 random hidden permutations resolved, "
          f"max distance {worst:.1e} (<1e-12), m/r=1, {elapsed:.1f}s")


def test_criterion_08_clustering_oracle():
    start = time.time()
    rng = np.random.default_rng(888)
    for n_dirs in (4, 16):
        for n_students in (4, 8):
            while True:
                centers = rng.normal(size=(n_dirs, 12))
                centers /= np.linalg.norm(centers, axis=1, keepdims=True)
                separation = (1 - centers @ centers.T + 2 * np.eye(n_dirs)).min()
                if separation > 0.1:
                    break
            directions, truth = [], set()
            for j in range(n_dirs):
                members = []
                for s in range(n_students):
                    direction = centers[j] + 1e-6 * rng.normal(size=12)
                    direction /= np.linalg.norm(direction)
                    assert 1 - direction @ centers[j] < 1e-4
                    members.append(len(directions))
                    directions.append(direction)
                truth.add(frozenset(members))
            n = len(directions)
            neurons = Neurons(directions=np.array(directions), norms=np.ones(n),
                              outgoing=np.zeros((n, 2)),
                              student=np.tile(np.arange(n_students), n_dirs),
                              index=np.repeat(np.arange(n_dirs), n_students))
            result = cluster_neurons(neurons, n_students, gamma=0.75, beta=3.0)
            got = {
                frozenset(cluster.tolist())
                for cluster, ok in zip(result.clusters, result.accepted) if ok
            }
            assert got == truth, (n_dirs, n_students)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 8 PASS: synthetic bundles recovered exactly for "
          f"r in {{4,16}} x N in {{4,8}} at tau=1e-3, gamma=0.75, {elapsed:.1f}s")


PIPELINE_CONFIG = """
[run]
seed = 0
output_dir = {out}

[teacher]
train_images = {root}/train_images.idx
train_labels = {root}/train_labels.idx
hidden = 2
learning_rate = 0.01
batch_size = 64
max_steps = 800
eval_every = 50
plateau_threshold = 0.001

[query]
strategy = biased_noise
base_subset = 400
magnitude = 1.0

[students]
n = 3
rho = 4
learning_rate = 0.02
batch_size = 256
max_steps = 6000
eval_every = 500
plateau_patience = 6
plateau_factor = 0.3
plateau_threshold = 0.001
plateau_min_lr = 1e-8
target_loss = 1e-9

[reconstruct]
gamma = 0.6
beta = 3.0
learning_rate = 0.003
batch_size = 1024
max_steps = 3000
eval_every = 250
plateau_patience = 6
plateau_factor = 0.3
plateau_threshold = 0.001
plateau_min_lr = 1e-10
target_loss = 1e-12

[eval]
ood = {root}/ood_images.idx, {root}/ood_labels.idx
"""


def test_criterion_09_pipeline_determinism(tmp_path):
    start = time.time()
    train = make_synthetic_classification(600, height=4, width=4, n_classes=5, seed=0)
    save_idx(train, str(tmp_path / "train_images.idx"),
             str(tmp_path / "train_labels.idx"))
    ood = make_synthetic_classification(200, height=4, width=4, n_classes=5,
                                        style="stripes", seed=9)
    save_idx(ood, str(tmp_path / "ood_images.idx"), str(tmp_path / "ood_labels.idx"))
    config = tmp_path / "run.ini"
    config.write_text(PIPELINE_CONFIG.format(root=tmp_path, out=tmp_path / "out"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
    assert main(["pipeline", "--config", str(config), "--out", str(out_b)]) == EXIT_OK
    report_a = (out_a / "report.csv").read_bytes()
    report_b = (out_b / "report.csv").read_bytes()
    losses_a = (out_a / "losses.csv").read_bytes()
    losses_b = (out_b / "losses.csv").read_bytes()
    elapsed = time.time() - start
    assert report_a == report_b
    assert losses_a == losses_b
    assert elapsed < 1200.0
    print(f"\nACCEPTANCE 9 PASS: two pipeline runs produced byte-identical "
          f"report CSVs ({len(report_a)} bytes), {elapsed:.0f}s (<1200s)")


def test_criterion_10_steps_formula():
    start = time.time()
    rng = np.random.default_rng(999)
    for _ in range(100):
        epochs = int(rng.integers(1, 500))
        size = int(rng.integers(1, 100000))
        batch = int(rng.integers(1, 4096))
        assert steps_for(epochs, size, batch) == (epochs * size) // batch
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 10 PASS: steps formula matches integer arithmetic on "
          f"100 random triples, {elapsed:.2f}s")
