"""Train loss lies; out-of-distribution loss tells the truth.

Imitators trained on too few queries can drive their training loss to nearly
zero without behaving like the probed network anywhere else. Scoring each
imitator on a differently-distributed input set exposes this immediately:
overfit imitators show train/OOD gaps of many orders of magnitude.

Run:  python demos/04_overfitting_diagnosis.py   (about a minute on a laptop)
"""

import os

import netrecon as nr

OUT = os.path.join(os.path.dirname(__file__), "out")

raw = nr.make_synthetic_classification(3000, height=5, width=5, n_classes=10, seed=0)
ds, mean, std = nr.standardize(raw)
teacher, _ = nr.train_teacher(ds, 8, nr.TrainConfig(
    learning_rate=1e-2, batch_size=128, max_steps=3000, eval_every=100,
    plateau_patience=10, plateau_threshold=1e-3, seed=0))

# the OOD probe set comes from a different generator but shares the
# training set's standardization constants, so losses live on one scale
ood_raw = nr.make_synthetic_classification(1500, height=5, width=5, n_classes=10,
                                           style="stripes", seed=7)
ood, _, _ = nr.standardize(ood_raw, stats=(mean, std))

student_cfg = nr.TrainConfig(
    learning_rate=5e-3, batch_size=256, max_steps=40000, eval_every=250,
    plateau_patience=6, plateau_factor=0.5, plateau_threshold=1e-3,
    plateau_min_lr=1e-8, target_loss=1e-7, seed=100)

print("imitators on 32 identity queries (starved) vs 6000 biased-noise queries:")
for label, qs in (
    ("identity-32", nr.query_teacher(teacher, nr.identity(nr.subset(ds, 32, seed=3)))),
    ("biased-6k", nr.query_teacher(teacher,
                                   nr.biased_noise(nr.subset(ds, 2000, seed=1),
                                                   1.0, seed=2))),
):
    ensemble = nr.train_ensemble(qs, teacher_r=8, rho=4, N=2, cfg=student_cfg, jobs=2)
    rows = nr.scatter_table(teacher, ensemble.students,
                            [("train", qs.inputs), ("ood", ood.images)])
    for student, dataset, q, loss in rows:
        print(f"  {label:<12} student {student}  {dataset:<5} Q={q:<6} loss={loss:.3e}")
    nr.metrics.write_losses_csv(rows, os.path.join(OUT, f"losses_{label}.csv"))

print(f"\nCSVs written under {OUT}/")
print("reading: a huge train-vs-ood gap on identity-32 marks memorized queries;"
      "\nbiased-noise queries keep both losses low, so the imitators actually track"
      "\nthe probed network.")
