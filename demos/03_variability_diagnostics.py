"""Why biased noise works: pre-activation variability under different strategies.

A query set only teaches an imitator about a hidden neuron if it moves that
neuron's pre-activation w.x + b around. Zero-mean pixel noise barely does;
one-sided (biased) noise shifts every image along a coherent direction and
sweeps the pre-activations. This script reproduces that diagnosis on a small
trained network and writes the numbers as CSVs.

Run:  python demos/03_variability_diagnostics.py
"""

import os

import netrecon as nr

OUT = os.path.join(os.path.dirname(__file__), "out")

raw = nr.make_synthetic_classification(3000, height=5, width=5, n_classes=10, seed=0)
ds, mean, std = nr.standardize(raw)
teacher, _ = nr.train_teacher(ds, 8, nr.TrainConfig(
    learning_rate=1e-2, batch_size=128, max_steps=3000, eval_every=100,
    plateau_patience=10, plateau_threshold=1e-3, seed=0))
print(f"trained probe network: r=8, train accuracy {nr.accuracy(teacher, ds):.3f}")

base = nr.subset(ds, 2000, seed=1)
strategies = [
    ("identity", nr.AugmentationSpec("identity")),
    ("hv_flips", nr.AugmentationSpec("hv_flips")),
    ("uniform_noise[-1,1]",
     nr.AugmentationSpec("uniform_noise", lo=-1.0, hi=1.0, copies=2, seed=2)),
    ("biased_noise[0,1]", nr.AugmentationSpec("biased_noise", magnitude=1.0, seed=3)),
]

print("\npre-activation variability (mean over neurons, with SEM):")
var_rows = []
for name, spec in strategies:
    stats = nr.preactivation_variability(teacher, nr.build(spec, base).inputs)
    var_rows.append((name, stats))
    print(f"  {name:<22} {stats.mean_std:7.3f} +- {stats.sem_std:.3f}")
nr.metrics.write_variability_csv(var_rows, os.path.join(OUT, "variability.csv"))

print("\npooled pre-activation histogram std, biased noise of growing magnitude:")
for u in (1.0, 5.0, 10.0):
    aug = nr.build(nr.AugmentationSpec("biased_noise", magnitude=u, seed=4), base)
    hist = nr.preactivation_histogram(teacher, aug.inputs, bins=80)
    print(f"  magnitude {u:4.1f}: histogram std {hist.std():7.3f}")
    nr.metrics.write_histogram_csv(
        hist, os.path.join(OUT, f"histogram_u{u:g}.csv"))

print(f"\nCSVs written under {OUT}/")
