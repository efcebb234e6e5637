"""Query-input construction strategies.

`build(spec, ds)` is the one way to make query inputs: an `AugmentationSpec`
names a strategy kind and its parameters, and `build` runs that strategy on a
(standardized) base dataset. Labeling the inputs with teacher logits happens
elsewhere. Noise is always added after standardization, so a magnitude of 1
means one global standard deviation of the base data. Noisy pixels are
deliberately not clipped back into the original intensity range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImageDataset

# strategy parameters of AugmentationSpec; _STRATEGIES lists the ones each kind reads
PARAMS = ("copies", "lo", "hi", "magnitude", "grid_x", "grid_y", "count")


@dataclass(frozen=True)
class AugmentationSpec:
    """Declarative description of one query-construction strategy.

    A kind needs each parameter its strategy reads (magnitude is the biased
    noise magnitude u); every other parameter must stay None. `seed` matters
    only to the kinds that draw random numbers.
    """

    kind: str
    copies: int | None = None
    lo: float | None = None
    hi: float | None = None
    magnitude: float | None = None
    grid_x: int | None = None
    grid_y: int | None = None
    count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        used = [p for p in _STRATEGIES[self.kind][1] if p in PARAMS]
        unused = [p for p in PARAMS if p not in used and getattr(self, p) is not None]
        if unused:
            raise ValueError(f"{self.kind} does not use {', '.join(unused)}")
        missing = [p for p in used if getattr(self, p) is None]
        if missing:
            raise ValueError(f"{self.kind} needs {', '.join(missing)}")
        for p in used:
            if p not in ("lo", "hi") and not getattr(self, p) > 0:
                raise ValueError(f"{self.kind} needs {p} > 0")
        if "lo" in used and not self.lo < self.hi:
            raise ValueError(f"{self.kind} needs lo < hi")
        # rng.uniform overflows on an infinite span, and hi - lo is finite only if both are
        if "lo" in used and not np.isfinite(self.hi - self.lo):
            raise ValueError(f"{self.kind} needs a finite hi - lo")
        if "magnitude" in used and not np.isfinite(self.magnitude):
            raise ValueError(f"{self.kind} needs a finite magnitude")

    def describe(self) -> str:
        """Canonical identifier naming exactly the fields the strategy reads, used
        as query-set provenance (comma-free: it ends up in single CSV fields)."""
        parts = [f"{p}={getattr(self, p)}" for p in _STRATEGIES[self.kind][1]]
        return f"{self.kind}({' '.join(parts)})"


@dataclass(frozen=True, eq=False)
class AugmentedSet:
    """Query inputs plus, per row, the base-image indices they were built from."""

    inputs: np.ndarray  # (Q, d)
    source_indices: np.ndarray  # (Q,) or (Q, cells) int
    spec: AugmentationSpec

    @property
    def Q(self) -> int:
        return self.inputs.shape[0]


def rotate_image(image: np.ndarray, angle_deg: float, fill: float) -> np.ndarray:
    """Rotate one 2-D image about its center with bilinear interpolation.

    Output pixels whose source falls outside the frame get `fill`. An angle of
    0 reproduces the input exactly.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = rows - cy, cols - cx
    # inverse map: rotate output coordinates back into the source frame
    src_y = cy + cos_t * dy + sin_t * dx
    src_x = cx - sin_t * dy + cos_t * dx
    inside = (src_y >= 0.0) & (src_y <= h - 1) & (src_x >= 0.0) & (src_x <= w - 1)
    y0 = np.clip(np.floor(src_y).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(src_x).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(src_y - y0, 0.0, 1.0)
    wx = np.clip(src_x - x0, 0.0, 1.0)
    top = img[y0, x0] * (1 - wx) + img[y0, x1] * wx
    bottom = img[y1, x0] * (1 - wx) + img[y1, x1] * wx
    return np.where(inside, top * (1 - wy) + bottom * wy, fill)


def grid_bands(length: int, k: int) -> list[int]:
    """Split `length` pixels into k contiguous bands, longer bands first.

    28 pixels over 3 bands gives (10, 9, 9); sizes never differ by more than 1.
    """
    if not 1 <= k <= length:
        raise ValueError(f"cannot split {length} pixels into {k} bands")
    base, extra = divmod(length, k)
    return [base + 1 if i < extra else base for i in range(k)]


def _band_slices(length: int, k: int) -> list[slice]:
    edges = np.cumsum([0] + grid_bands(length, k))
    return [slice(int(edges[i]), int(edges[i + 1])) for i in range(k)]


# Each strategy takes the base dataset and the spec fields its table row names,
# and returns its row blocks (originals first; a lone block must be a new array)
# plus the base-image sources of one block; every block has those same sources.

def _identity(ds):
    """The base images themselves, unchanged."""
    return [ds.images.copy()], np.arange(ds.n_samples)


def _random_rotations(ds, copies, seed):
    """Originals plus `copies` independently rotated versions of each image.

    Angles are uniform in [0, 360) degrees. Out-of-frame pixels are filled
    with the standardized value of raw pixel 0 when the dataset records its
    standardization constants, else with 0.
    """
    fill = 0.0 if ds.mean is None else (0.0 - ds.mean) / ds.std
    rng = np.random.default_rng(seed)
    n, h, w = ds.n_samples, ds.height, ds.width
    stacked = ds.images.reshape(n, h, w)
    blocks = [ds.images]
    for _ in range(copies):
        angles = rng.uniform(0.0, 360.0, size=n)
        rotated = [rotate_image(img, angle, fill) for img, angle in zip(stacked, angles)]
        blocks.append(np.reshape(rotated, (n, h * w)))
    return blocks, np.arange(n)


def _hv_flips(ds):
    """Originals plus a horizontally flipped and a vertically flipped copy of each."""
    n, h, w = ds.n_samples, ds.height, ds.width
    stacked = ds.images.reshape(n, h, w)
    return [ds.images, stacked[:, :, ::-1].reshape(n, h * w),
            stacked[:, ::-1, :].reshape(n, h * w)], np.arange(n)


def _uniform_noise(ds, copies, lo, hi, seed):
    """Originals plus `copies` versions with independent per-pixel U[lo, hi] noise."""
    rng = np.random.default_rng(seed)
    noisy = [ds.images + rng.uniform(lo, hi, size=ds.images.shape) for _ in range(copies)]
    return [ds.images, *noisy], np.arange(ds.n_samples)


def _plus_minus(images, u, rng):
    """`images` plus one +U[0, u] and one -U[0, u] perturbed copy (positive drawn first)."""
    positive = images + rng.uniform(0.0, u, size=images.shape)
    negative = images - rng.uniform(0.0, u, size=images.shape)
    return [images, positive, negative]


def _biased_noise(ds, magnitude, seed):
    """Originals plus one +U[0, u] and one -U[0, u] perturbed copy of each image.

    The one-sided noise shifts every image along the all-positive direction,
    which is what makes these queries informative: they move pre-activations
    instead of averaging out.
    """
    return _plus_minus(ds.images, magnitude, np.random.default_rng(seed)), np.arange(ds.n_samples)


def _grid(ds, grid_x, grid_y, count, seed):
    """Stitch new images from same-location cells of independently drawn bases.

    The frame is split into grid_y x grid_x cells; cell (i, j) of each output
    is copied from cell (i, j) of a uniformly sampled base image, recorded in
    reading order per row of the sources. With D distinct bases this can
    reach D**(grid_x*grid_y) distinct outputs.
    """
    rng = np.random.default_rng(seed)
    n, h, w = ds.n_samples, ds.height, ds.width
    sources = rng.integers(0, n, size=(count, grid_x * grid_y))
    stacked = ds.images.reshape(n, h, w)
    out = np.empty((count, h, w))
    for iy, rs in enumerate(_band_slices(h, grid_y)):
        for ix, cs in enumerate(_band_slices(w, grid_x)):
            out[:, rs, cs] = stacked[sources[:, iy * grid_x + ix], rs, cs]
    return [out.reshape(count, h * w)], sources


def _grid_biased_noise(ds, magnitude, grid_x, grid_y, count, seed):
    """Grid-composed images (seed) plus +U[0, u] and -U[0, u] noisy copies (seed + 1)."""
    (composed,), sources = _grid(ds, grid_x, grid_y, count, seed)
    return _plus_minus(composed, magnitude, np.random.default_rng(seed + 1)), sources


# kind -> (strategy, the spec fields it reads in PARAMS order, then seed if it draws)
_STRATEGIES = {
    "identity": (_identity, ()),
    "random_rotations": (_random_rotations, ("copies", "seed")),
    "hv_flips": (_hv_flips, ()),
    "uniform_noise": (_uniform_noise, ("copies", "lo", "hi", "seed")),
    "biased_noise": (_biased_noise, ("magnitude", "seed")),
    "grid": (_grid, ("grid_x", "grid_y", "count", "seed")),
    "grid_biased_noise": (_grid_biased_noise,
                          ("magnitude", "grid_x", "grid_y", "count", "seed")),
}
KINDS = tuple(_STRATEGIES)


def build(spec: AugmentationSpec, ds: ImageDataset) -> AugmentedSet:
    """Run the strategy a spec describes against a base dataset."""
    strategy, reads = _STRATEGIES[spec.kind]
    blocks, sources = strategy(ds, *(getattr(spec, p) for p in reads))
    # stacking a lone block would only copy it
    inputs = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    return AugmentedSet(inputs=inputs, source_indices=np.concatenate([sources] * len(blocks)),
                        spec=spec)
