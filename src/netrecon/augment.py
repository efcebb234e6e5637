"""Query-input construction strategies.

Each strategy turns a (standardized) base dataset into a matrix of query
inputs; labeling those inputs with teacher logits happens elsewhere. Noise is
always added after standardization, so a magnitude of 1 means one global
standard deviation of the base data. Noisy pixels are deliberately not clipped
back into the original intensity range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImageDataset

# strategy parameters of AugmentationSpec, and the ones each kind uses
PARAMS = ("copies", "lo", "hi", "magnitude", "grid_x", "grid_y", "count")
_KIND_PARAMS = {
    "identity": (),
    "random_rotations": ("copies",),
    "hv_flips": (),
    "uniform_noise": ("copies", "lo", "hi"),
    "biased_noise": ("magnitude",),
    "grid": ("grid_x", "grid_y", "count"),
    "grid_biased_noise": ("grid_x", "grid_y", "count", "magnitude"),
}


@dataclass(frozen=True)
class AugmentationSpec:
    """Declarative description of one query-construction strategy.

    A kind needs each parameter it uses (magnitude is the biased noise
    magnitude u); every other parameter must stay None.
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
        used = _KIND_PARAMS[self.kind]
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
        """Canonical identifier, used as query-set provenance (comma-free: it
        ends up in single CSV fields)."""
        parts = []
        for field in PARAMS:
            value = getattr(self, field)
            if value is not None:
                parts.append(f"{field}={value}")
        if self.kind != "identity":
            parts.append(f"seed={self.seed}")
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


def identity(ds: ImageDataset) -> AugmentedSet:
    """The base images themselves, unchanged."""
    n = ds.n_samples
    return AugmentedSet(
        inputs=ds.images.copy(),
        source_indices=np.arange(n),
        spec=AugmentationSpec(kind="identity"),
    )


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


def random_rotations(ds: ImageDataset, copies: int, seed: int) -> AugmentedSet:
    """Originals plus `copies` independently rotated versions of each image.

    Angles are uniform in [0, 360) degrees. Out-of-frame pixels are filled
    with the standardized value of raw pixel 0 when the dataset records its
    standardization constants, else with 0.
    """
    spec = AugmentationSpec(kind="random_rotations", copies=copies, seed=seed)
    fill = 0.0 if ds.mean is None else (0.0 - ds.mean) / ds.std
    rng = np.random.default_rng(seed)
    n, h, w = ds.n_samples, ds.height, ds.width
    stacked = ds.images.reshape(n, h, w)
    blocks = [ds.images.copy()]
    for _ in range(copies):
        angles = rng.uniform(0.0, 360.0, size=n)
        rotated = np.empty_like(stacked)
        for i in range(n):
            rotated[i] = rotate_image(stacked[i], angles[i], fill)
        blocks.append(rotated.reshape(n, h * w))
    return AugmentedSet(
        inputs=np.vstack(blocks),
        source_indices=np.tile(np.arange(n), copies + 1),
        spec=spec,
    )


def hv_flips(ds: ImageDataset) -> AugmentedSet:
    """Originals plus a horizontally flipped and a vertically flipped copy of each."""
    n, h, w = ds.n_samples, ds.height, ds.width
    stacked = ds.images.reshape(n, h, w)
    horizontal = stacked[:, :, ::-1].reshape(n, h * w)
    vertical = stacked[:, ::-1, :].reshape(n, h * w)
    return AugmentedSet(
        inputs=np.vstack([ds.images, horizontal, vertical]),
        source_indices=np.tile(np.arange(n), 3),
        spec=AugmentationSpec(kind="hv_flips"),
    )


def uniform_noise(ds: ImageDataset, lo: float, hi: float, copies: int,
                  seed: int) -> AugmentedSet:
    """Originals plus `copies` versions with independent per-pixel U[lo, hi] noise."""
    spec = AugmentationSpec(kind="uniform_noise", lo=lo, hi=hi, copies=copies, seed=seed)
    rng = np.random.default_rng(seed)
    n, d = ds.images.shape
    blocks = [ds.images.copy()]
    for _ in range(copies):
        blocks.append(ds.images + rng.uniform(lo, hi, size=(n, d)))
    return AugmentedSet(
        inputs=np.vstack(blocks),
        source_indices=np.tile(np.arange(n), copies + 1),
        spec=spec,
    )


def biased_noise(ds: ImageDataset, u: float, seed: int) -> AugmentedSet:
    """Originals plus one +U[0, u] and one -U[0, u] perturbed copy of each image.

    The two noise blocks are drawn independently (positive block first). The
    one-sided noise shifts every image along the all-positive direction, which
    is what makes these queries informative: they move pre-activations instead
    of averaging out.
    """
    spec = AugmentationSpec(kind="biased_noise", magnitude=u, seed=seed)
    rng = np.random.default_rng(seed)
    n, d = ds.images.shape
    positive = ds.images + rng.uniform(0.0, u, size=(n, d))
    negative = ds.images - rng.uniform(0.0, u, size=(n, d))
    return AugmentedSet(
        inputs=np.vstack([ds.images, positive, negative]),
        source_indices=np.tile(np.arange(n), 3),
        spec=spec,
    )


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


def grid_composition(ds: ImageDataset, grid_x: int, grid_y: int, count: int,
                     seed: int) -> AugmentedSet:
    """Stitch new images from same-location cells of independently drawn bases.

    The frame is split into grid_y x grid_x cells; cell (i, j) of each output
    is copied from cell (i, j) of a uniformly sampled base image. With D
    distinct bases this can reach D**(grid_x*grid_y) distinct outputs.
    """
    spec = AugmentationSpec(kind="grid", grid_x=grid_x, grid_y=grid_y,
                            count=count, seed=seed)
    rng = np.random.default_rng(seed)
    n, h, w = ds.n_samples, ds.height, ds.width
    row_slices = _band_slices(h, grid_y)
    col_slices = _band_slices(w, grid_x)
    cells = grid_x * grid_y
    sources = rng.integers(0, n, size=(count, cells))
    stacked = ds.images.reshape(n, h, w)
    out = np.empty((count, h, w))
    for iy, rs in enumerate(row_slices):
        for ix, cs in enumerate(col_slices):
            cell = iy * grid_x + ix  # reading order
            out[:, rs, cs] = stacked[sources[:, cell], rs, cs]
    return AugmentedSet(
        inputs=out.reshape(count, h * w),
        source_indices=sources,
        spec=spec,
    )


def grid_composition_biased_noise(ds: ImageDataset, grid_x: int, grid_y: int,
                                  count: int, u: float, seed: int) -> AugmentedSet:
    """Grid-composed images plus +U[0, u] and -U[0, u] noisy copies of the same images."""
    spec = AugmentationSpec(kind="grid_biased_noise", grid_x=grid_x, grid_y=grid_y,
                            count=count, magnitude=u, seed=seed)
    base = grid_composition(ds, grid_x, grid_y, count, seed)
    rng = np.random.default_rng(seed + 1)
    d = base.inputs.shape[1]
    positive = base.inputs + rng.uniform(0.0, u, size=(count, d))
    negative = base.inputs - rng.uniform(0.0, u, size=(count, d))
    return AugmentedSet(
        inputs=np.vstack([base.inputs, positive, negative]),
        source_indices=np.vstack([base.source_indices] * 3),
        spec=spec,
    )


# kind -> strategy run on (spec, base dataset); `KINDS` lists the valid kinds
_STRATEGIES = {
    "identity": lambda spec, ds: identity(ds),
    "random_rotations": lambda spec, ds: random_rotations(ds, spec.copies, spec.seed),
    "hv_flips": lambda spec, ds: hv_flips(ds),
    "uniform_noise": lambda spec, ds: uniform_noise(ds, spec.lo, spec.hi, spec.copies,
                                                    spec.seed),
    "biased_noise": lambda spec, ds: biased_noise(ds, spec.magnitude, spec.seed),
    "grid": lambda spec, ds: grid_composition(ds, spec.grid_x, spec.grid_y, spec.count,
                                              spec.seed),
    "grid_biased_noise": lambda spec, ds: grid_composition_biased_noise(
        ds, spec.grid_x, spec.grid_y, spec.count, spec.magnitude, spec.seed),
}
KINDS = tuple(_STRATEGIES)


def build(spec: AugmentationSpec, ds: ImageDataset) -> AugmentedSet:
    """Run the strategy a spec describes against a base dataset."""
    return _STRATEGIES[spec.kind](spec, ds)
