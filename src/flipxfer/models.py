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

Eval forwards.  ``predict_logits`` and ``predict_features`` run the tape ops,
whose einsum products make every row's bits independent of the batch; their
bits are outputs (distillation targets, ``cd`` features).  A val-set forward
is read only through its argmax, so ``predict_classes`` forwards it with
``np.matmul`` and proves, row by row, that its top-1 class is the argmax of
the einsum logits; the rows it cannot prove take that argmax itself.

Why the proof holds (Higham, Accuracy and Stability of Numerical
Algorithms, 3.1).  Let h* be the forward in exact arithmetic on the same
inputs and weights.  By induction over the layers, every value of a row, in
the BLAS forward and in any other evaluation order of the same operations
(einsum's, at any batch size), is within delta of h*: delta is 0 at the
inputs.  An affine or conv output is b_j + sum_k h_k W_kj over a fan-in of
K.  The error carried in adds at most sum_k |h_k - h*_k| |W_kj| <= ||W||
delta, ||W|| being W's largest column sum of absolute values.  Rounding that
(K+1)-term sum in any order, as gemm and einsum do (not by a fast method
such as Strassen's), with or without fused multiply-adds, adds at
most gamma_{K+1} (sum_k |h_k| |W_kj| + |b_j|), gamma_n = n u / (1 - n u),
u = 2**-53; and |h_k| is at most m, the row's largest absolute value in
the BLAS forward, there, and at most m + 2 delta in any other order, whose
values are within delta of h*, itself within delta of the BLAS values.
ReLU moves no two values further apart.  A mean over P pixels, rounded,
adds at most gamma_{P+1} (m + 2 delta).  Underflow adds at most 2**-1075
to a rounded product or quotient, covered by a (K + 1) 2**-1074 term per
layer, and with every such sum below 2**1000 no order overflows.  So at the
logits both forwards are within E = delta of h*, and within 2 E of each
other: a BLAS top logit ahead of every other by more than 4 E is ahead, and
tied with none, in the einsum logits too.
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


def _eval_chunks(ck: Checkpoint, batch: np.ndarray, forward) -> list:
    """``forward(chunk)`` for each eval chunk of the float64 ``batch``, rows in
    order: one call for an MLP, chunks of eval_chunk_rows for a conv model.

    The chunks are split into one contiguous group per usable CPU, forwarded
    by this thread and helper threads (``pool.thread_map``), fewer while
    other helpers run: inside a transfer's eval helper, beside its SGD, they
    stay in that thread.
    """
    if batch.shape[1:] != ck.spec.input_shape:
        raise ShapeError("predict(batch)", batch.shape[1:], ck.spec.input_shape)
    rows = eval_chunk_rows(ck.spec) or len(batch)
    if len(batch) <= rows:
        return [forward(batch)]
    return thread_map(lambda i: forward(batch[i : i + rows]), list(range(0, len(batch), rows)))


def _predict(ck: Checkpoint, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (logits, features), forwarded in ``_eval_chunks``.

    The ops' einsum products sum each row in the same order at any batch
    size, so the chunks concatenate to the bits of one whole-batch forward,
    and the bits do not depend on the thread count.
    Eval params do not require grad, so the helpers' ops record nothing on a
    tape the caller may have open.
    """
    params = {k: Tensor(v) for k, v in ck.params.items()}
    parts = _eval_chunks(
        ck, np.asarray(batch, dtype=np.float64), lambda x: model_forward(ck.spec, params, Tensor(x), train=False)
    )
    return np.concatenate([z.data for z, _ in parts]), np.concatenate([f.data for _, f in parts])


def predict_logits(ck: Checkpoint, batch: np.ndarray) -> np.ndarray:
    """Eval-mode logits (n x num_classes); no softmax, no dropout."""
    return _predict(ck, batch)[0]


def predict_features(ck: Checkpoint, batch: np.ndarray) -> np.ndarray:
    """Eval-mode pre-head features (n x feature_width)."""
    return _predict(ck, batch)[1]


# The rounding model of predict_classes: float64's unit roundoff; its smallest
# subnormal, which bounds the absolute error an underflowing product or
# quotient adds; and a magnitude below which no sum the bound covers overflows.
_U, _TINY, _HUGE = 2.0**-53, 2.0**-1074, 2.0**1000


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of a k-term dot product."""
    return k * _U / (1 - k * _U)


def _max_abs(h: np.ndarray) -> np.ndarray:
    """Each row's largest absolute value, without an ``abs(h)`` temporary."""
    axes = tuple(range(1, h.ndim))
    return np.maximum(h.max(axis=axes), -h.min(axis=axes))


def _layer_norms(ck: Checkpoint) -> list[tuple[np.ndarray, np.ndarray, float, float, int]]:
    """Per affine or conv layer, in forward order: (W as a fan-in x out matrix,
    b, ||W||, max|b|, fan-in K), where ||W|| is W's largest column sum of
    absolute values, the infinity norm of the map from a row to its outputs."""
    layers = []
    for name in (k.removesuffix(".w") for k in ck.spec.param_shapes() if k.endswith(".w")):
        w, b = ck.params[f"{name}.w"], ck.params[f"{name}.b"]
        if w.ndim == 4:  # a conv's rows in _bounded_logits' im2col order: kernel row, column, channel
            w = w.transpose(2, 3, 1, 0).reshape(-1, len(w))
        layers.append((w, b, float(np.abs(w).sum(axis=0).max()), float(np.abs(b).max()), len(w)))
    return layers


def _bounded_logits(spec: ModelSpec, layers: list, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk's eval logits by ``np.matmul``, each row's error bound E, and
    the largest magnitude of a sum its bound covers (the row's ``reach``).

    Per row, delta starts at 0; an affine or conv layer sets it to ||W||
    delta + gamma_{K+1} (||W|| (m + 2 delta) + max|b|) + (K + 1) 2**-1074,
    m being the row's largest absolute input value; ReLU keeps it; the
    average over P pixels adds gamma_{P+1} (m + 2 delta) + 2**-1074.  E is
    its value at the logits (the module docstring proves it).  A conv builds
    its im2col for a third of the rows at a time, so a third of the block is
    in memory at once.
    """
    n = len(x)
    delta, reach = np.zeros(n), np.zeros(n)

    def layer(z, m, w, b, norm, bias, k):
        """The output, ``z`` (the product h @ w) plus the bias, and the bound past it."""
        nonlocal delta, reach
        z += b
        r = norm * (m + 2 * delta) + bias
        delta = norm * delta + _gamma(k + 1) * r + (k + 1) * _TINY
        reach = np.maximum(reach, r)
        return z

    if spec.family == "mlp":
        h = x.reshape(n, math.prod(spec.input_shape))
        for i, params in enumerate(layers):
            h = layer(h @ params[0], _max_abs(h), *params)
            if i < len(layers) - 1:
                np.maximum(h, 0.0, out=h)
        return h, delta, reach
    _, hgt, wdt = spec.input_shape
    h, third = x.transpose(0, 2, 3, 1), max(1, -(-n // 3))  # NHWC
    for w, *params in layers[:-1]:
        cin = h.shape[3]
        xp = np.zeros((n, hgt + 2, wdt + 2, cin))
        xp[:, 1 : 1 + hgt, 1 : 1 + wdt] = h
        s, z = xp.strides, np.empty((n * hgt * wdt, w.shape[1]))
        for i in range(0, n, third):
            # im2col of a third of the rows: per output pixel, kernel rows 0-2,
            # each a run of three padded pixels' channels
            k = min(third, n - i)
            cols = np.lib.stride_tricks.as_strided(xp[i:], (k, hgt, wdt, 3, 3 * cin), (*s[:3], s[1], s[3]))
            np.matmul(cols.reshape(k * hgt * wdt, 9 * cin), w, out=z[i * hgt * wdt : (i + k) * hgt * wdt])
        z = layer(z, _max_abs(h), w, *params)
        h = np.maximum(z, 0.0, out=z).reshape(n, hgt, wdt, w.shape[1])
    pixels, bound = hgt * wdt, _max_abs(h) + 2 * delta
    delta = delta + _gamma(pixels + 1) * bound + _TINY
    reach = np.maximum(reach, pixels * bound)  # the pixel sum's magnitude
    feats = h.mean(axis=(1, 2))
    return layer(feats @ layers[-1][0], _max_abs(feats), *layers[-1]), delta, reach


def predict_classes(ck: Checkpoint, batch: np.ndarray) -> np.ndarray:
    """Eval-mode top-1 class per row: ``np.argmax(predict_logits(ck, batch),
    axis=1)`` exactly, the lowest index on a tie, at BLAS speed.

    Each chunk of ``_eval_chunks`` is forwarded by ``np.matmul`` with a
    per-row bound E (``_bounded_logits``) on how far any evaluation order's
    logits, einsum's included, are from the exact ones.  So where this
    forward's top logit beats every other by more than 4 E, einsum's logits
    are within 2 E of these, keep that class on top, and tie with none.
    The test is made with slack for E's own rounding: E is a sum of
    products of nonnegative terms, and none of its paths rounds more than D
    times (the fan-ins plus 8 per layer, and 16 more), so its computed value
    is at least (1 - gamma_D) times its real one.  A row with a
    non-finite value, or a reach of 2**1000 or more, is not certified.  Every
    other row's class is the argmax of ``predict_logits``; its forward is
    batch-invariant, so those rows' bits are the whole batch's.
    """
    batch = np.asarray(batch, dtype=np.float64)
    layers = _layer_norms(ck)
    slack = 1 + 4 * _gamma(sum(k + 8 for *_, k in layers) + 16)

    def certified(x):
        with np.errstate(all="ignore"):  # a row that overflows is not certified, and takes the exact path
            z, e, reach = _bounded_logits(ck.spec, layers, x)
        rows = np.arange(len(z))
        top = np.argmax(z, axis=1)
        best = z[rows, top]
        z[rows, top] = -np.inf
        return top, (best - z.max(axis=1) > 4 * slack * e) & (reach < _HUGE)

    parts = _eval_chunks(ck, batch, certified)
    classes, sure = (np.concatenate(a) for a in zip(*parts))
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        classes[unsure] = np.argmax(predict_logits(ck, batch[unsure]), axis=1)
    return classes


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
