"""Train a diverse model library and keep a manifest registry beside it.

Diversity comes from the spec axes (family, depth, width/channels, dropout)
and the training axes (init seed, data-order seed, learning rate, epoch
budget, augmentation noise).  Divergent trainings are recorded as failed
entries rather than dropped, so a manifest always reflects what was asked.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import SgdState, Tensor
from .config import REQUIRED, ConfigError, digest, parse_json, resolve, write_json
from .data import Dataset, augment_batch
from .models import Checkpoint, ModelSpec, as_tensors, build, load, model_forward, predict_logits
from .pool import pool_map, usable_cpus
from .transfer import checkpoint_of, sgd_epochs, xe_loss
from .analysis import correct_flags

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "ManifestError",
    "ZooEntry",
    "ZooManifest",
    "PairFilter",
    "train_model",
    "pretrain_zoo",
    "pair_grid",
    "save_manifest",
    "load_manifest",
]


class TrainingDivergedError(RuntimeError):
    """A non-finite training loss, or a non-finite gradient or updated
    parameter (``what`` names it)."""

    def __init__(self, name: str, epoch: int, value: float, what: str | None = None):
        self.name, self.epoch, self.value, self.what = name, epoch, value, what
        super().__init__(f"{name}: non-finite {what or f'training loss {value!r}'} at epoch {epoch}")

    def __reduce__(self):  # rebuilt from its fields, so it crosses a process boundary
        return type(self), (self.name, self.epoch, self.value, self.what)


class ManifestError(ValueError):
    """A manifest file that does not hold a zoo registry; names the file and the key."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-3
    augment_noise: float = 0.0
    init_seed: int = 0
    order_seed: int = 0
    plateau_patience: int | None = None

    def __post_init__(self):
        SgdState(lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay)
        # each message starts with its field's name, which the CLI prefixes with the section's dotted key
        for name in ("epochs", "augment_noise", "init_seed", "order_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.plateau_patience is not None and self.plateau_patience < 1:
            raise ValueError(f"plateau_patience must be at least 1, got {self.plateau_patience}")


@dataclass
class ZooEntry:
    name: str
    path: str
    spec_digest: str
    family: str
    train_config: dict
    val_accuracy: float | None  # null for a failed entry
    seed: int
    failed: bool = False
    error: str | None = None


@dataclass
class ZooManifest:
    entries: list[ZooEntry] = field(default_factory=list)
    root: str = "."

    def ok_entries(self) -> list[ZooEntry]:
        return [e for e in self.entries if not e.failed]

    def entry(self, name: str) -> ZooEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no zoo entry named {name!r}")

    def load_checkpoint(self, name: str) -> Checkpoint:
        e = self.entry(name)
        return load(os.path.join(self.root, e.path))


def train_model(
    spec: ModelSpec,
    cfg: TrainConfig,
    train: Dataset,
    val: Dataset,
    name: str = "model",
) -> Checkpoint:
    """Cross-entropy training with SGD; deterministic given the config."""
    if train.num_classes != spec.num_classes:
        raise ValueError(f"{name}: dataset has {train.num_classes} classes, spec {spec.num_classes}")
    ck = build(spec, cfg.init_seed)
    params = as_tensors(ck)
    opt = SgdState(lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    drop_rng = np.random.default_rng(np.random.SeedSequence([cfg.order_seed, 0xD1]))
    aug_rng = np.random.default_rng(np.random.SeedSequence([cfg.order_seed, 0xA6]))

    def loss_fn(b):
        xb = augment_batch(train.inputs[b], cfg.augment_noise, aug_rng)
        logits, _ = model_forward(spec, params, Tensor(xb), train=True, dropout_rng=drop_rng)
        return xe_loss(logits, train.labels[b])

    def val_accuracy(model: Checkpoint) -> float:
        return float(correct_flags(predict_logits(model, val.inputs), val.labels).mean())

    best_acc, stale, val_acc = -1.0, 0, None  # val_acc: the current weights', once measured
    for _ in sgd_epochs(
        params, opt, train.n, cfg.epochs, cfg.batch_size, cfg.order_seed, loss_fn,
        lambda epoch, step, value, what=None: TrainingDivergedError(name, epoch, value, what),
    ):
        if cfg.plateau_patience is not None:
            val_acc = val_accuracy(checkpoint_of(ck, params))
            if val_acc > best_acc + 1e-12:
                best_acc, stale = val_acc, 0
            else:
                stale += 1
                if stale >= cfg.plateau_patience:
                    break
    out = checkpoint_of(ck, params)
    if val_acc is None:
        val_acc = val_accuracy(out)
    out.meta = {
        "seed": cfg.init_seed,
        "val_accuracy": val_acc,
        "train_config_digest": digest(cfg),
        "name": name,
    }
    return out


def _work(spec: ModelSpec, cfg: TrainConfig) -> int:
    """A training's size: multiply-adds per sample (every 3x3 conv keeps its
    input's size, so it runs at each input pixel) times epochs."""
    pixels = int(np.prod(spec.input_shape[1:])) if spec.family == "cnn" else 1
    per_sample = sum(
        int(np.prod(shape)) * (pixels if name.startswith("conv") else 1)
        for name, shape in spec.param_shapes().items()
        if name.endswith(".w")
    )
    return per_sample * cfg.epochs


def _train_task(data: tuple[Dataset, Dataset], task: tuple[ModelSpec, TrainConfig, str]) -> Checkpoint | str:
    """One zoo training: its checkpoint, or the message of its divergence."""
    spec, cfg, name = task
    try:
        return train_model(spec, cfg, *data, name=name)
    except TrainingDivergedError as e:
        return str(e)


def pretrain_zoo(
    specs: list[tuple[ModelSpec, TrainConfig]],
    train: Dataset,
    val: Dataset,
    names: list[str] | None = None,
) -> tuple[ZooManifest, dict[str, Checkpoint]]:
    """Train every requested model and register it; entries are sorted by
    (family, val_accuracy) and failures stay visible. Writes nothing: returns
    the manifest and the trained checkpoints by name, each to be saved at its
    entry's ``path``.

    The trainings are independent, so they run in one worker process per
    usable CPU (at most one per model; in this process when that is one),
    the largest by ``_work`` first. Each is deterministic given its config,
    so no output bit depends on the worker count."""
    if len(specs) < 2:
        raise ValueError("a zoo needs at least 2 models")
    if names is None:
        names = [f"m{i:02d}_{spec.family}" for i, (spec, _) in enumerate(specs)]
    if len(names) != len(specs) or len(set(names)) != len(names):
        raise ValueError("model names must be unique and match the spec list")
    order = sorted(range(len(specs)), key=lambda i: -_work(*specs[i]))
    workers = min(len(specs), usable_cpus())
    results = pool_map(_train_task, (train, val), [(*specs[i], names[i]) for i in order], workers)
    done = {names[i]: result for i, result in zip(order, results)}
    entries: list[ZooEntry] = []
    checkpoints: dict[str, Checkpoint] = {}
    for name, (spec, cfg) in zip(names, specs):
        entry = ZooEntry(
            name=name,
            path=f"{name}.ckpt",
            spec_digest=digest(spec),
            family=spec.family,
            train_config=asdict(cfg),
            val_accuracy=None,
            seed=cfg.init_seed,
        )
        result = done[name]
        if isinstance(result, str):
            entry.failed, entry.error = True, result
        else:
            checkpoints[name], entry.val_accuracy = result, result.meta["val_accuracy"]
        entries.append(entry)
    entries.sort(key=lambda e: (e.family, e.val_accuracy if not e.failed else -1.0, e.name))
    return ZooManifest(entries=entries), checkpoints


def save_manifest(manifest: ZooManifest, path) -> None:
    write_json({"entries": [asdict(e) for e in manifest.entries]}, path)


def load_manifest(path) -> ZooManifest:
    """Read a UTF-8 manifest, each entry typed over the fields of ZooEntry by the
    config rule; every checkpoint path must stay inside the manifest's
    directory, and every trained entry's accuracy in [0, 1]."""
    root = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "rb") as f:
            doc = parse_json(f.read(), path)
    except ConfigError as e:
        raise ManifestError(str(e)) from e
    try:
        listed = resolve(doc, "", entries=(list[dict], REQUIRED))["entries"]
        entries = [ZooEntry(**resolve(e, f"entries[{i}]", ZooEntry)) for i, e in enumerate(listed)]
    except ConfigError as e:
        raise ManifestError(f"{path}: {e}") from e
    for i, e in enumerate(entries):
        target = os.path.normpath(os.path.join(root, e.path))
        if "\0" in e.path or os.path.commonpath([root, target]) != root:
            raise ManifestError(f"{path}: entries[{i}].path: {e.path!r} is not a file in the manifest's directory")
        if e.failed:
            e.val_accuracy = None
        elif e.val_accuracy is None or not 0.0 <= e.val_accuracy <= 1.0:
            raise ManifestError(
                f"{path}: entries[{i}].val_accuracy: a trained model's must be in [0, 1], got {e.val_accuracy}"
            )
    return ZooManifest(entries=entries, root=root)


@dataclass(frozen=True)
class PairFilter:
    """Constraints on ordered (teacher, student) pairs."""

    delta_acc_min: float | None = None  # bounds on acc(teacher) - acc(student)
    delta_acc_max: float | None = None
    teacher_family: str | None = None
    student_family: str | None = None

    def admits(self, teacher: ZooEntry, student: ZooEntry) -> bool:
        delta = teacher.val_accuracy - student.val_accuracy
        if self.delta_acc_min is not None and delta < self.delta_acc_min:
            return False
        if self.delta_acc_max is not None and delta > self.delta_acc_max:
            return False
        if self.teacher_family is not None and teacher.family != self.teacher_family:
            return False
        if self.student_family is not None and student.family != self.student_family:
            return False
        return True


def pair_grid(manifest: ZooManifest, flt: PairFilter | None = None) -> list[tuple[ZooEntry, ZooEntry]]:
    """All ordered (teacher, student) pairs of non-failed entries, filtered.

    An empty result, under a filter or from fewer than 2 trained models, is a
    legitimate empty list, not an error.
    """
    ok = manifest.ok_entries()
    flt = flt or PairFilter()
    return [
        (t, s)
        for t in ok
        for s in ok
        if t.name != s.name and flt.admits(t, s)
    ]
