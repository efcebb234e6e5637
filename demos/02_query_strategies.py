"""Gallery of query-construction strategies and their cardinality contracts.

Each strategy is an `AugmentationSpec` that `build` runs on a standardized
base set to make query inputs. Sizes follow fixed rules: flips and biased
noise triple the base, grid composition emits exactly `count` rows (tripled
when biased noise is stacked on top).

Run:  python demos/02_query_strategies.py
"""

import numpy as np

from netrecon import (
    AugmentationSpec,
    ImageDataset,
    build,
    make_synthetic_classification,
    standardize,
)

raw = make_synthetic_classification(500, height=6, width=6, n_classes=10, seed=0)
ds, mean, std = standardize(raw)
print(f"base set: {ds.n_samples} images of {ds.height}x{ds.width}, "
      f"standardized with mean={mean:.2f} std={std:.2f}\n")

rows = []
for spec in (
    AugmentationSpec("identity"),
    AugmentationSpec("random_rotations", copies=2, seed=1),
    AugmentationSpec("hv_flips"),
    AugmentationSpec("uniform_noise", lo=-1.0, hi=1.0, copies=2, seed=2),
    AugmentationSpec("biased_noise", magnitude=1.0, seed=3),
    AugmentationSpec("grid", grid_x=3, grid_y=3, count=1500, seed=4),
    AugmentationSpec("grid_biased_noise", grid_x=3, grid_y=3, count=500, magnitude=1.0,
                     seed=5),
):
    aug = build(spec, ds)
    inputs = aug.inputs
    rows.append((aug.spec.describe(), aug.Q, inputs.mean(), inputs.std()))

width = max(len(name) for name, *_ in rows)
print(f"{'strategy':<{width}}  {'Q':>6}  {'mean':>7}  {'std':>6}")
for name, q, m, s in rows:
    print(f"{name:<{width}}  {q:>6}  {m:>7.3f}  {s:>6.3f}")

# Biased noise is one-sided per block: the positive block only ever adds
# intensity, the negative block only ever removes it.
aug = build(AugmentationSpec("biased_noise", magnitude=1.0, seed=3), ds)
n = ds.n_samples
pos = aug.inputs[n:2 * n] - ds.images
neg = aug.inputs[2 * n:] - ds.images
print(f"\nbiased noise deltas: positive block in [{pos.min():.3f}, {pos.max():.3f}], "
      f"negative block in [{neg.min():.3f}, {neg.max():.3f}]")

# With D distinct bases, a 3x3 grid can reach D^9 distinct images.
two = ImageDataset(images=np.vstack([np.zeros(36), np.ones(36)]), labels=[0, 1],
                   height=6, width=6)
out = build(AugmentationSpec("grid", grid_x=3, grid_y=3, count=20000, seed=6), two)
print(f"3x3 grid over 2 distinct bases: {len({r.tobytes() for r in out.inputs})} "
      f"distinct compositions (2^9 = 512)")
