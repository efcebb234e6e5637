"""Image datasets in IDX format: loading, writing, standardization, subsets.

Also houses the query-set container (input points plus the logits a teacher
network returned for them), which is the training corpus for imitators.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from ._io import atomic_write_bytes, read_container, write_container
from .errors import ConsistencyError, DegenerateDataError, FormatError, TruncatedFileError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

QUERYSET_MAGIC = b"NRQS"
QUERYSET_VERSION = 1


@dataclass(frozen=True, eq=False)
class ImageDataset:
    """Row-major images (n_samples x height*width) with integer class labels.

    `mean` and `std` record the standardization constants that produced the
    pixel values; both are None while the data is still raw.
    """

    images: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    height: int
    width: int
    name: str = "dataset"
    mean: float | None = None
    std: float | None = None

    def __post_init__(self):
        images = np.ascontiguousarray(self.images, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if images.ndim != 2:
            raise ValueError("images must be a (n_samples, d) matrix")
        if images.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"images must be at least 1x1, got {self.height}x{self.width}")
        if images.shape[1] != self.height * self.width:
            raise ValueError(
                f"d={images.shape[1]} does not equal height*width="
                f"{self.height * self.width}"
            )
        if labels.shape != (images.shape[0],):
            raise ValueError("labels must be a vector with one entry per sample")
        images.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.images.shape[0]

    @property
    def d(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Input points plus the teacher logits observed for them, all finite."""

    inputs: np.ndarray  # (Q, d)
    targets: np.ndarray  # (Q, c)
    provenance: str = ""

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError("inputs and targets must be matrices")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of rows")
        if min(*inputs.shape, targets.shape[1]) < 1:
            raise ValueError(f"Q, d and c must all be >= 1, got {inputs.shape} {targets.shape}")
        # min and max propagate nan, so all four are finite only if every entry is
        if not np.isfinite([inputs.min(), inputs.max(), targets.min(), targets.max()]).all():
            raise ValueError("inputs and targets must be finite")
        inputs.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def Q(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def c(self) -> int:
        return self.targets.shape[1]


def _read_idx(path: str, magic: int, n_dims: int, kind: str) -> tuple[list[int], bytes]:
    """Header dimensions and payload of one IDX file of unsigned bytes.

    The file size must match the header exactly and is checked before the
    payload is read, so a corrupt header can neither ask for more memory than
    the file holds nor silently load a subset of it.
    """
    with open(path, "rb") as f:
        head = f.read(4 * (1 + n_dims))
        if len(head) < 4 * (1 + n_dims):
            raise TruncatedFileError(f"{path}: truncated {kind} header")
        found, *dims = struct.unpack(f">{1 + n_dims}I", head)
        if found != magic:
            raise FormatError(f"{path}: bad {kind} magic 0x{found:08x}")
        size = prod(dims)
        available = os.fstat(f.fileno()).st_size - len(head)
        if available < size:
            raise TruncatedFileError(
                f"{path}: header announces {size} bytes of {kind}, file holds {available}"
            )
        if available > size:
            raise FormatError(
                f"{path}: {available - size} bytes after the {size} bytes of {kind}"
                " the header announces"
            )
        return dims, f.read(size)


def load_idx(images_path: str, labels_path: str, name: str | None = None) -> ImageDataset:
    """Read an IDX image/label file pair into a raw dataset (pixels 0..255).

    Raises TruncatedFileError (a FormatError and an EOFError) when a file is
    shorter than its header says, FormatError when it is longer, on a bad
    magic number or an empty dataset, and ConsistencyError when the two
    headers disagree on the sample count.
    """
    (n_labels,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "labels")
    (n_images, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "images")
    if n_images != n_labels:
        raise ConsistencyError(
            f"{n_images} images vs {n_labels} labels between"
            f" {images_path} and {labels_path}"
        )
    try:
        return ImageDataset(
            images=np.frombuffer(pixels, dtype=np.uint8).reshape(n_images, rows * cols),
            labels=np.frombuffer(labels, dtype=np.uint8),
            height=rows,
            width=cols,
            name=name or images_path,
        )
    except ValueError as exc:  # no samples or zero-size images
        raise FormatError(f"{images_path}: {exc}") from exc


def save_idx(ds: ImageDataset, images_path: str, labels_path: str) -> None:
    """Write a raw dataset back to an IDX pair; pixels must be integers in 0..255."""
    pixels = np.asarray(ds.images)
    rounded = np.rint(pixels)
    if not np.array_equal(pixels, rounded) or pixels.min() < 0 or pixels.max() > 255:
        raise ValueError("IDX stores unsigned bytes; pixels must be integers in [0, 255]")
    if ds.labels.min() < 0 or ds.labels.max() > 255:
        raise ValueError("IDX labels must fit in one unsigned byte")
    header = struct.pack(">IIII", IDX_IMAGES_MAGIC, ds.n_samples, ds.height, ds.width)
    atomic_write_bytes(images_path, header + rounded.astype(np.uint8).tobytes())
    header = struct.pack(">II", IDX_LABELS_MAGIC, ds.n_samples)
    atomic_write_bytes(labels_path, header + ds.labels.astype(np.uint8).tobytes())


def standardize(ds: ImageDataset,
                stats: tuple[float, float] | None = None,
                ) -> tuple[ImageDataset, float, float]:
    """Shift and scale pixels to zero mean and unit standard deviation.

    One global (mean, std) pair is computed over all pixels of all images, so
    additive-noise magnitudes later mean the same thing on every pixel. Pass
    `stats` to reuse another dataset's constants, e.g. to put a held-out
    evaluation set on the training set's scale. Returns the standardized
    dataset along with the constants that were applied.
    """
    if stats is None:
        mean = float(ds.images.mean())
        std = float(ds.images.std())
        if std == 0.0:
            raise DegenerateDataError(f"{ds.name}: zero pixel variance")
    else:
        mean, std = float(stats[0]), float(stats[1])
        if std <= 0.0:
            raise ValueError("std must be positive")
    out = replace(ds, images=(ds.images - mean) / std, mean=mean, std=std)
    return out, mean, std


def subset(ds: ImageDataset, k: int, seed: int) -> ImageDataset:
    """Pseudo-random sample of k rows without replacement; same seed, same rows."""
    if not 1 <= k <= ds.n_samples:
        raise ValueError(f"k must be in [1, {ds.n_samples}], got {k}")
    idx = np.random.default_rng(seed).permutation(ds.n_samples)[:k]
    return replace(
        ds,
        images=ds.images[idx],
        labels=ds.labels[idx],
        name=f"{ds.name}/subset-{k}-{seed}",
    )


# Query-set container (see _io): header fields Q, d, c, provenance length;
# body provenance UTF-8 | float64-LE inputs (Q*d) | float64-LE targets (Q*c)

def save_queryset(qs: QuerySet, path: str) -> None:
    prov = qs.provenance.encode("utf-8")
    write_container(path, QUERYSET_MAGIC, QUERYSET_VERSION, (qs.Q, qs.d, qs.c, len(prov)),
                    prov, qs.inputs, qs.targets)


def load_queryset(path: str) -> QuerySet:
    (Q, d, c, n_prov), body = read_container(path, QUERYSET_MAGIC, QUERYSET_VERSION, 4,
                                             "query-set", lambda Q, d, c, n: n + 8 * Q * (d + c))
    try:
        floats = np.frombuffer(body, dtype="<f8", offset=n_prov)
        return QuerySet(
            inputs=floats[:Q * d].reshape(Q, d).astype(np.float64),
            targets=floats[Q * d:].reshape(Q, c).astype(np.float64),
            provenance=bytes(body[:n_prov]).decode("utf-8"),
        )
    except ValueError as exc:  # zero dims or a provenance that is not UTF-8
        raise FormatError(f"{path}: {exc}") from exc


def make_synthetic_classification(n_samples: int,
                                  height: int = 8,
                                  width: int = 8,
                                  n_classes: int = 10,
                                  style: str = "blobs",
                                  seed: int = 0,
                                  name: str | None = None) -> ImageDataset:
    """Small labeled image set with integer pixels in 0..255, for desk-scale runs.

    `blobs` draws a few soft bright bumps per class on a dark background and
    scales each class to its own brightness band, so total intensity carries
    class information the way stroke mass does in handwritten digits; networks
    fit on it pick up weights with a strong all-pixels component. `stripes`
    draws oriented gratings instead and serves as a differently-distributed
    evaluation set.
    """
    if style not in ("blobs", "stripes"):
        raise ValueError(f"unknown style {style!r}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    protos = np.zeros((n_classes, height, width))
    for k in range(n_classes):
        if style == "blobs":
            for _ in range(2 + k % 3):
                cy = rng.uniform(1.0, height - 2.0)
                cx = rng.uniform(1.0, width - 2.0)
                sy, sx = rng.uniform(0.7, 1.8, size=2)
                amp = rng.uniform(90.0, 230.0)
                protos[k] += amp * np.exp(
                    -((yy - cy) ** 2 / (2 * sy**2) + (xx - cx) ** 2 / (2 * sx**2))
                )
        else:
            theta = rng.uniform(0.0, np.pi)
            freq = rng.uniform(0.6, 1.6)
            phase = rng.uniform(0.0, 2 * np.pi)
            wave = np.sin(freq * (yy * np.sin(theta) + xx * np.cos(theta)) + phase)
            protos[k] = 127.5 * (1.0 + wave) * rng.uniform(0.5, 1.0)
    protos = np.clip(protos, 0.0, 255.0)
    labels = rng.integers(0, n_classes, size=n_samples)
    if style == "blobs":
        brightness = (0.55 + 0.07 * labels)[:, None, None]
        brightness = brightness * rng.uniform(0.97, 1.03, size=(n_samples, 1, 1))
    else:
        brightness = rng.uniform(0.85, 1.1, size=(n_samples, 1, 1))
    images = protos[labels] * brightness + rng.normal(0.0, 8.0, size=(n_samples, height, width))
    images = np.clip(np.rint(images), 0.0, 255.0)
    return ImageDataset(
        images=images.reshape(n_samples, height * width),
        labels=labels,
        height=height,
        width=width,
        name=name or f"synthetic-{style}-{seed}",
    )
