"""End-to-end weight recovery of a black-box one-hidden-layer network.

Pipeline: train a hidden teacher network, query it with biased-noise
augmented inputs, fit an ensemble of 4x-overparameterized imitators, pool and
cluster their hidden-neuron weight directions, collapse each well-shared
cluster into a single neuron, fine-tune, and compare against the hidden
weights that generated the queries.

Run:  python demos/05_full_recovery.py   (a few minutes on a laptop CPU)
"""

import time

import numpy as np

import netrecon as nr

t0 = time.time()

# the network to recover: width 8 classifier on 5x5 synthetic images
raw = nr.make_synthetic_classification(4000, height=5, width=5, n_classes=10, seed=0)
ds, mean, std = nr.standardize(raw)
teacher, _ = nr.train_teacher(ds, 8, nr.TrainConfig(
    learning_rate=1e-2, batch_size=128, max_steps=4000, eval_every=100,
    plateau_patience=10, plateau_threshold=1e-3, seed=0))
print(f"hidden network: r=8, d=25, accuracy {nr.accuracy(teacher, ds):.3f} "
      f"[{time.time()-t0:.0f}s]")

# query it: 2048 base images -> originals plus +/- one-sided noise = 6144 rows
base = nr.subset(ds, 2048, seed=1)
qs = nr.query_teacher(teacher, nr.build(
    nr.AugmentationSpec("biased_noise", magnitude=1.0, seed=2), base))
print(f"queries: Q={qs.Q} via {qs.provenance}")

# imitate it with 4 students of width 32 (rho = 4)
student_cfg = nr.TrainConfig(
    learning_rate=2e-2, batch_size=256, max_steps=40000, eval_every=500,
    plateau_patience=6, plateau_factor=0.3, plateau_threshold=1e-3,
    plateau_min_lr=1e-8, target_loss=1e-8, seed=100)
ensemble = nr.train_ensemble(qs, teacher_r=8, rho=4, N=4, cfg=student_cfg, jobs=2)
print(f"imitators: final losses "
      f"{' '.join(f'{l:.1e}' for l in ensemble.final_losses)} "
      f"[{time.time()-t0:.0f}s]")

# pool hidden neurons, cluster directions, keep clusters shared by >= 75%
neurons = nr.extract_neurons(ensemble.students)
clusters = nr.cluster_neurons(neurons, len(ensemble.students), gamma=0.75, beta=3.0)
kept = clusters.accepted_clusters
print(f"clusters: {len(clusters.clusters)} total, {len(kept)} accepted "
      f"(sizes {[len(c) for c in kept]})")

# collapse to a width-m candidate and polish it on the same queries
bias = np.mean([s.c_out for s in ensemble.trained], axis=0)
candidate = nr.collapse(clusters, qs.d, qs.c, output_bias=bias)
before = nr.evaluate_reconstruction(candidate, teacher)
tuned, _ = nr.fine_tune(candidate, qs, nr.TrainConfig(
    learning_rate=3e-3, batch_size=1024, max_steps=15000, eval_every=250,
    plateau_patience=6, plateau_factor=0.3, plateau_threshold=1e-3,
    plateau_min_lr=1e-10, target_loss=1e-12, seed=99))
after = nr.evaluate_reconstruction(tuned, teacher)

print(f"\nrecovered {after.m} of {teacher.r} hidden neurons (m/r = {after.m_over_r:.2f})")
print(f"input-weight cosine distance:  avg {after.avg_dw:.2e}  "
      f"max {after.max_dw:.2e}  (before fine-tune: avg {before.avg_dw:.2e})")
print(f"output-weight cosine distance: avg {after.avg_da:.2e}  max {after.max_da:.2e}")
print("matched pairs (recovered -> hidden, d_w):")
for p in after.pairs:
    print(f"  {p.recon_index} -> {p.teacher_index}   {p.dw:.2e}")
print(f"total {time.time()-t0:.0f}s")
