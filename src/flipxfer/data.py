"""Dataset generation, IDX ingestion, stratified subsampling, augmentation.

Synthetic data comes in two flavours sharing one config: a vector variant
(each class is a mixture of ``modes_per_class`` Gaussians around anchors)
and a single-channel image variant (smoothed class templates plus pixel
noise and +-1 px integer translation jitter).  A ``label_noise`` fraction of
labels is resampled uniformly once at generation time, so no model can reach
100% and prediction flips are stable properties of the models.

Class geometry is controlled by ``anchor_seed`` (defaults to ``seed``), so a
train/val pair is produced by varying ``seed`` while pinning ``anchor_seed``.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Dataset",
    "SyntheticConfig",
    "DataError",
    "generate_synthetic",
    "train_val_pair",
    "load_idx",
    "stratified_subsample",
    "epoch_permutation",
    "augment_batch",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class DataError(ValueError):
    """A dataset that cannot be built or read. The message names the fault,
    and for an IDX file the file as well."""


@dataclass(frozen=True)
class Dataset:
    """Fixed-order sample collection; immutable after construction, but for
    ``correct``, the memo of ``transfer.val_correct`` (checkpoint digest ->
    per-sample correctness on these samples), which starts empty in every new
    set, a subset included, and is left out of ``repr`` and ``==``."""

    inputs: np.ndarray  # (n, *input_shape), float64
    labels: np.ndarray  # (n,), int64 in [0, num_classes)
    num_classes: int
    correct: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.labels.ndim != 1 or self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError("inputs and labels disagree on sample count")
        if self.num_classes < 2:
            raise DataError("need at least 2 classes")
        if self.n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError("label out of range")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.inputs.shape[1:]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class SyntheticConfig:
    classes: int
    samples: int
    dims: int | None = None
    image_size: int | None = None
    modes_per_class: int = 1
    label_noise: float = 0.0
    seed: int = 0
    anchor_seed: int | None = None
    sigma: float = 1.0
    anchor_scale: float = 4.0

    def __post_init__(self):
        if self.classes < 2:
            raise DataError("need at least 2 classes")
        if (self.dims is None) == (self.image_size is None):
            raise DataError("exactly one of dims / image_size must be set")
        if self.samples < 1 or self.samples % self.classes != 0:
            raise DataError("samples must be a positive multiple of classes")
        if self.modes_per_class < 1:
            raise DataError("modes_per_class must be >= 1")
        if not 0.0 <= self.label_noise < 1.0:
            raise DataError("label_noise must be in [0,1)")
        if self.sigma <= 0 or self.anchor_scale < 0:
            raise DataError("sigma must be positive, anchor_scale nonnegative")
        if self.dims is not None and self.dims < 1:
            raise DataError("dims must be positive")
        if self.image_size is not None and self.image_size < 3:
            # _smooth's two zero-padded 3x3 blurs turn a smaller template into a constant
            raise DataError(f"image_size must be at least 3, got {self.image_size}")
        if self.seed < 0 or self.effective_anchor_seed < 0:
            raise DataError("seed and anchor_seed must be nonnegative")

    @property
    def effective_anchor_seed(self) -> int:
        return self.seed if self.anchor_seed is None else self.anchor_seed


def _smooth(img: np.ndarray) -> np.ndarray:
    """Two passes of a 3x3 zero-padded box blur over the last two axes of (c, m, h, w)."""
    h, w = img.shape[2:]
    for _ in range(2):
        p = np.pad(img, ((0, 0), (0, 0), (1, 1), (1, 1)))
        img = sum(p[:, :, 1 + di : 1 + di + h, 1 + dj : 1 + dj + w] for di in (-1, 0, 1) for dj in (-1, 0, 1)) / 9.0
    return img


def class_anchors(cfg: SyntheticConfig) -> np.ndarray:
    """Per-(class, mode) anchors: vectors (c, m, dims) or templates (c, m, e, e).

    Every template is smoothed and scaled to standard deviation
    ``anchor_scale`` in one pass over the stack, elementwise as each would be
    on its own, so the bytes equal a per-template loop.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.effective_anchor_seed, 0xA2C]))
    c, m = cfg.classes, cfg.modes_per_class
    if cfg.dims is not None:
        return rng.normal(size=(c, m, cfg.dims)) * cfg.anchor_scale
    t = _smooth(rng.normal(size=(c, m, cfg.image_size, cfg.image_size)))
    return t / np.maximum(np.std(t, axis=(2, 3), keepdims=True), 1e-12) * cfg.anchor_scale


def _shift2d(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer translation of the last two (square) axes with zero fill."""
    e = img.shape[-1]
    out = np.zeros_like(img)
    ys = slice(max(dy, 0), e + min(dy, 0))
    xs = slice(max(dx, 0), e + min(dx, 0))
    ys_src = slice(max(-dy, 0), e + min(-dy, 0))
    xs_src = slice(max(-dx, 0), e + min(-dx, 0))
    out[..., ys, xs] = img[..., ys_src, xs_src]
    return out


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Balanced draw from the configured mixture; same config, same bytes.

    A draw whose inputs (its largest array) no address space holds raises
    ``MemoryError``, as an allocation that fails does, before any is made.
    """
    nbytes = cfg.samples * (cfg.dims or cfg.image_size**2) * 8
    if nbytes > sys.maxsize:
        raise MemoryError(f"Unable to allocate {nbytes} bytes for the inputs of {cfg.samples} samples")
    anchors = class_anchors(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A11]))
    per_class = cfg.samples // cfg.classes
    labels = np.repeat(np.arange(cfg.classes), per_class)
    modes = rng.integers(0, cfg.modes_per_class, size=cfg.samples)
    if cfg.dims is not None:
        base = anchors[labels, modes]
        inputs = base + cfg.sigma * rng.normal(size=base.shape)
    else:
        shifts = rng.integers(-1, 2, size=(cfg.samples, 2))
        # shifted[k, j, dy + 1, dx + 1]: anchor (k, j) translated by (dy, dx)
        shifted = np.stack(
            [np.stack([_shift2d(anchors, dy, dx) for dx in (-1, 0, 1)], axis=2) for dy in (-1, 0, 1)], axis=2
        )
        inputs = shifted[labels, modes, shifts[:, 0] + 1, shifts[:, 1] + 1][:, None]
        inputs += cfg.sigma * rng.normal(size=inputs.shape)
    noisy = rng.random(cfg.samples) < cfg.label_noise
    labels = labels.copy()
    labels[noisy] = rng.integers(0, cfg.classes, size=int(noisy.sum()))
    order = rng.permutation(cfg.samples)
    return Dataset(inputs[order], labels[order], cfg.classes)


def train_val_pair(cfg: SyntheticConfig, val_samples: int, val_seed: int | None = None) -> tuple[Dataset, Dataset]:
    """Two disjoint draws sharing class geometry (anchors pinned)."""
    if val_seed is None:
        val_seed = cfg.seed + 1
    if val_seed == cfg.seed:
        raise DataError("val_seed must differ from the train seed")
    base = replace(cfg, anchor_seed=cfg.effective_anchor_seed)
    return generate_synthetic(base), generate_synthetic(
        replace(base, samples=val_samples, seed=val_seed)
    )


def _read_be32(buf: bytes, off: int, path, what: str) -> int:
    if len(buf) < off + 4:
        raise DataError(f"{path}: truncated before {what}")
    return struct.unpack(">I", buf[off : off + 4])[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair; pixels scaled to [0,1]."""
    with open(images_path, "rb") as f:
        ibuf = f.read()
    with open(labels_path, "rb") as f:
        lbuf = f.read()
    magic = _read_be32(ibuf, 0, images_path, "magic")
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGE_MAGIC:#010x}")
    n = _read_be32(ibuf, 4, images_path, "image count")
    rows = _read_be32(ibuf, 8, images_path, "row count")
    cols = _read_be32(ibuf, 12, images_path, "column count")
    if len(ibuf) < 16 + n * rows * cols:
        raise DataError(f"{images_path}: payload shorter than {n}x{rows}x{cols} pixels")
    lmagic = _read_be32(lbuf, 0, labels_path, "magic")
    if lmagic != IDX_LABEL_MAGIC:
        raise DataError(f"{labels_path}: magic {lmagic:#010x}, expected {IDX_LABEL_MAGIC:#010x}")
    ln = _read_be32(lbuf, 4, labels_path, "label count")
    if ln != n:
        raise DataError(f"{ln} labels for {n} images")
    if len(lbuf) < 8 + n:
        raise DataError(f"{labels_path}: payload shorter than {n} labels")
    if n == 0:
        raise DataError(f"{images_path}: empty dataset")
    pixels = np.frombuffer(ibuf, dtype=np.uint8, count=n * rows * cols, offset=16)
    labels = np.frombuffer(lbuf, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    inputs = pixels.reshape(n, 1, rows, cols).astype(np.float64) / 255.0
    return Dataset(inputs, labels, int(labels.max()) + 1)


def stratified_subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Per class, floor(fraction * n_class) samples (at least 1), no replacement."""
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0,1], got {fraction}")
    if seed < 0:
        raise DataError(f"subsample seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57A7]))
    picked = []
    for k in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == k)
        if members.size == 0:
            raise DataError(f"class {k} has no samples")
        take = max(1, int(np.floor(fraction * members.size)))
        picked.append(rng.permutation(members)[:take])
    return ds.subset(np.concatenate(picked))


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """Shuffle order as a pure function of (seed, epoch)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE9, epoch]))
    return rng.permutation(n)


def augment_batch(batch: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Additive seeded input noise; identity when noise == 0."""
    if noise == 0.0:
        return batch
    return batch + noise * rng.normal(size=batch.shape)
