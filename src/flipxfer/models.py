"""Architecture registry, initialization, and checkpoint serialization.

Two families are supported: plain MLPs (``depth`` affine layers of a fixed
hidden ``width``) and small CNNs (one 3x3 same-padded conv per entry of
``channels``, then global average pooling and an affine head).  Weights use
Kaiming-uniform fan-in scaling, biases start at zero, and all parameters are
float64 so checkpoints round-trip bit-exactly.

Checkpoint file layout: magic ``XFKZ``, one version byte, little-endian
uint32 header length, UTF-8 JSON header (spec, parameter names and shapes,
meta), then the raw little-endian float64 payload in header order: the
checkpoint's ``flat`` vector, whose views are its parameters.  On load
the header is typed by ``config.resolve``: its spec against the fields of
``ModelSpec``, so a spec value follows the rule of a config value, and the
meta keys a zoo writes (``val_accuracy``, ``name``, ``seed``) by ``typed``.
Every parameter value must be finite: ``save`` refuses and ``load`` rejects
any other, naming the file and the parameter.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    ShapeError,
    affine,
    conv2d,
    dropout,
    global_avg_pool,
    relu,
    reshape,
)
from .config import REQUIRED, ConfigError, digest, parse_json, resolve, typed
from .pool import thread_map

MAGIC = b"XFKZ"
VERSION = 1
_META_TYPES = {"val_accuracy": float, "name": str, "seed": int}


class CheckpointError(ValueError):
    """A checkpoint that cannot be written or read: the message names the file
    and the fault."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count is derivable from it.

    depth counts affine layers for MLPs (depth 2 = one hidden layer) and conv
    layers for CNNs (the affine head is extra and always present).
    """

    family: str
    depth: int
    input_shape: tuple[int, ...]
    num_classes: int
    width: int | None = None
    channels: tuple[int, ...] | None = None
    dropout: float = 0.0

    def __post_init__(self):
        if self.family not in ("mlp", "cnn"):
            raise ValueError(f"unsupported model family {self.family!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0,1)")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if any(d <= 0 for d in self.input_shape):
            raise ValueError("input_shape extents must be positive")
        if self.family == "mlp":
            if self.width is None or self.width < 1:
                raise ValueError("mlp spec requires a positive width")
        else:
            if self.channels is None or len(self.channels) == 0:
                raise ValueError("cnn spec requires a channel sequence")
            object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
            if any(c < 1 for c in self.channels):
                raise ValueError("channel extents must be positive")
            if self.depth != len(self.channels):
                raise ValueError("cnn depth must equal len(channels)")
            if len(self.input_shape) != 3:
                raise ValueError("cnn input_shape must be (channels, height, width)")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Named parameter shapes in forward order."""
        shapes: dict[str, tuple[int, ...]] = {}
        if self.family == "mlp":
            d_in = int(np.prod(self.input_shape))
            dims = [d_in] + [self.width] * (self.depth - 1) + [self.num_classes]
            for i in range(self.depth):
                shapes[f"fc{i + 1}.w"] = (dims[i], dims[i + 1])
                shapes[f"fc{i + 1}.b"] = (dims[i + 1],)
        else:
            cin = self.input_shape[0]
            for i, cout in enumerate(self.channels):
                shapes[f"conv{i + 1}.w"] = (cout, cin, 3, 3)
                shapes[f"conv{i + 1}.b"] = (cout,)
                cin = cout
            shapes["head.w"] = (cin, self.num_classes)
            shapes["head.b"] = (self.num_classes,)
        return shapes

    def num_params(self) -> int:
        return sum(int(np.prod(s)) for s in self.param_shapes().values())

    def feature_width(self) -> int:
        """Width of the pre-head representation (used by feature losses)."""
        if self.family == "mlp":
            return self.width if self.depth > 1 else int(np.prod(self.input_shape))
        return self.channels[-1]


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """One view of ``flat`` per name, at its shape, laid out in ``shapes`` order."""
    views, off = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[off : off + size].reshape(shape)
        off += size
    return views


@dataclass
class Checkpoint:
    """A model's weights: ``params``' arrays are views into ``flat``, one
    C-contiguous float64 vector in ``params`` order, which ``save`` writes as
    the payload.  The constructor copies the arrays it is given into a new
    ``flat``, so ``copy()`` is one vector copy; a pickle carries ``flat``,
    not the views, and lays the views out again."""

    spec: ModelSpec
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.concatenate(list(self.params.values()), axis=None, dtype=np.float64)
        self.params = _views(self.flat, {k: np.shape(v) for k, v in self.params.items()})

    def __getstate__(self):
        return self.spec, {k: v.shape for k, v in self.params.items()}, self.meta, self.flat

    def __setstate__(self, state):
        self.spec, shapes, self.meta, self.flat = state
        self.params = _views(self.flat, shapes)

    def copy(self) -> "Checkpoint":
        return Checkpoint(self.spec, self.params, dict(self.meta))

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(digest(self.spec).encode())
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].astype("<f8").tobytes())
        return h.hexdigest()[:16]


def build(spec: ModelSpec, seed: int) -> Checkpoint:
    """Initialize a checkpoint: Kaiming-uniform fan-in weights, zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: dict[str, np.ndarray] = {}
    for name, shape in spec.param_shapes().items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            bound = math.sqrt(6.0 / fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return Checkpoint(spec, params, {"seed": int(seed)})


def model_forward(
    spec: ModelSpec,
    params: dict[str, Tensor],
    x: Tensor,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward a batch, returning (logits, pre-head features).

    Dropout fires only when train=True and the spec asks for it; eval-mode
    inference is a pure function of (params, input).
    """
    n = x.data.shape[0]
    use_drop = train and spec.dropout > 0.0
    if use_drop and dropout_rng is None:
        raise ValueError("train-mode dropout requires a seeded generator")
    if spec.family == "mlp":
        h = reshape(x, (n, int(np.prod(spec.input_shape))))
        feats = h
        for i in range(spec.depth - 1):
            h = relu(affine(h, params[f"fc{i + 1}.w"], params[f"fc{i + 1}.b"]))
            if use_drop:
                h = dropout(h, spec.dropout, dropout_rng)
            feats = h
        logits = affine(h, params[f"fc{spec.depth}.w"], params[f"fc{spec.depth}.b"])
    else:
        h = x
        for i in range(len(spec.channels)):
            h = relu(conv2d(h, params[f"conv{i + 1}.w"], params[f"conv{i + 1}.b"]))
            if use_drop:
                h = dropout(h, spec.dropout, dropout_rng)
        feats = global_avg_pool(h)
        logits = affine(feats, params["head.w"], params["head.b"])
    return logits, feats


def as_tensors(ck: Checkpoint) -> dict[str, Tensor]:
    """Trainable tensors over ck's own arrays, the views of ``ck.flat``:
    ``sgd_step`` on them steps ``ck.flat`` as one vector and trains ck in
    place, so a caller that must keep ck trains ``ck.copy()``."""
    return {k: Tensor(v, requires_grad=True) for k, v in ck.params.items()}


# Eval forwards of conv models run in row chunks whose widest im2col block
# stays near this size, a core's L2 cache (2 MiB on the benchmark's VM), so it
# is built and read back within the cache; each thread of _predict holds one
# chunk's block at a time.
_EVAL_IM2COL_BYTES = 2 << 20


def eval_chunk_rows(spec: ModelSpec) -> int | None:
    """Rows per eval forward of a conv model; None for an MLP (one call).

    Every conv keeps its input's height and width, so each layer's im2col holds
    h*w*cin*9 float64 values per row; the widest layer sets the chunk.
    """
    if spec.family != "cnn":
        return None
    c, h, w = spec.input_shape
    widest = max((c, *spec.channels[:-1]))
    return max(1, _EVAL_IM2COL_BYTES // (h * w * widest * 9 * 8))


def _predict(ck: Checkpoint, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (logits, features), forwarded in chunks of eval_chunk_rows.

    The ops' einsum products sum each row in the same order at any batch
    size, so the chunks concatenate to the bits of one whole-batch forward.
    The chunks are split into one contiguous group per usable CPU, forwarded
    by this thread and helper threads (``pool.thread_map``), fewer while
    other helpers run: inside a transfer's eval helper, beside its SGD, they
    stay in that thread. The bits do not depend on the thread count.
    Eval params do not require grad, so the helpers' ops record nothing on a
    tape the caller may have open.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[1:] != ck.spec.input_shape:
        raise ShapeError("predict(batch)", batch.shape[1:], ck.spec.input_shape)
    params = {k: Tensor(v) for k, v in ck.params.items()}
    rows = eval_chunk_rows(ck.spec) or len(batch)
    if len(batch) <= rows:
        logits, feats = model_forward(ck.spec, params, Tensor(batch), train=False)
        return logits.data, feats.data
    starts = list(range(0, len(batch), rows))
    parts = thread_map(lambda i: model_forward(ck.spec, params, Tensor(batch[i : i + rows]), train=False), starts)
    return np.concatenate([z.data for z, _ in parts]), np.concatenate([f.data for _, f in parts])


def predict_logits(ck: Checkpoint, batch: np.ndarray) -> np.ndarray:
    """Eval-mode logits (n x num_classes); no softmax, no dropout."""
    return _predict(ck, batch)[0]


def predict_features(ck: Checkpoint, batch: np.ndarray) -> np.ndarray:
    """Eval-mode pre-head features (n x feature_width)."""
    return _predict(ck, batch)[1]


# ---------------------------------------------------------------------------
# serialization


def _check_finite(path, ck: Checkpoint) -> None:
    """Raise naming the first parameter, in ``params`` order, with a non-finite value."""
    if not np.isfinite(ck.flat).all():
        name = next(k for k, v in ck.params.items() if not np.isfinite(v).all())
        raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite value")


def save(ck: Checkpoint, path) -> None:
    """Write ``ck`` to ``path``, its ``flat`` as the payload, in one write; a
    non-finite parameter is refused before the file is opened."""
    _check_finite(path, ck)
    names = list(ck.params.keys())
    header = {
        "spec": asdict(ck.spec),
        "names": names,
        "shapes": {k: list(ck.params[k].shape) for k in names},
        "meta": ck.meta,
    }
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([VERSION]))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(ck.flat.astype("<f8").tobytes())


def load(path) -> Checkpoint:
    """Read a checkpoint ``save`` wrote: its ``flat`` is the payload, converted
    in one copy; a non-finite parameter is rejected, naming the file and the
    parameter."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 5 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if raw[4] != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {raw[4]}")
    if len(raw) < 9:
        raise CheckpointError(f"{path}: truncated before header length")
    (hlen,) = struct.unpack("<I", raw[5:9])
    if len(raw) < 9 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = resolve(
            parse_json(raw[9 : 9 + hlen], "header"), "header",
            spec=(dict, REQUIRED), names=(list[str], REQUIRED), shapes=(dict, REQUIRED), meta=(dict, {}),
        )
        spec = ModelSpec(**resolve(header["spec"], "header.spec", ModelSpec))
    except ValueError as e:  # a ConfigError, or a spec ModelSpec rejects
        raise CheckpointError(f"{path}: malformed header ({e})") from e
    names, shapes, meta = header["names"], header["shapes"], header["meta"]
    try:
        meta.update({k: typed(meta[k], hint, f"meta.{k}") for k, hint in _META_TYPES.items() if k in meta})
    except ConfigError as e:
        raise CheckpointError(f"{path}: {e}") from e
    expected = spec.param_shapes()
    if sorted(names) != sorted(expected) or set(shapes) != set(expected):
        raise CheckpointError(f"{path}: parameter names disagree with spec")
    for name in names:
        if shapes[name] != list(expected[name]):
            raise CheckpointError(
                f"{path}: shape of {name!r} is {shapes[name]}, spec says {list(expected[name])}"
            )
    payload = raw[9 + hlen :]
    total = spec.num_params()
    if len(payload) != 8 * total:
        raise CheckpointError(
            f"{path}: payload holds {len(payload) // 8} floats, header declares {total}"
        )
    # one copy of the payload, in the header's order, is the checkpoint's flat
    ck = Checkpoint(spec, _views(np.frombuffer(payload, dtype="<f8"), {k: expected[k] for k in names}), meta)
    _check_finite(path, ck)
    return ck
