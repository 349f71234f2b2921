"""Dense float64 tensors with a define-by-run reverse-mode tape.

The op set is deliberately small: affine, relu, 3x3 conv (one-pixel step,
zero same-padding), global average pooling, seeded train-mode dropout,
log_softmax over the last axis, a weighted reduction, plus a few glue ops
the loss functions need (scale, add, gather, row normalization, gram matrix).
Everything runs on numpy in float64; a Tape records ops in creation order,
which is already topological, and one backward sweep visits each node once.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "Tensor",
    "Tape",
    "backward",
    "SgdState",
    "sgd_step",
    "np_log_softmax",
    "np_softmax",
    "affine",
    "matmul",
    "add",
    "scale",
    "relu",
    "conv2d",
    "global_avg_pool",
    "dropout",
    "log_softmax",
    "weighted_sum",
    "gather_cols",
    "l2_normalize_rows",
    "gram",
    "reshape",
]


class ShapeError(ValueError):
    """Operand shapes do not conform; records the op name and the shapes,
    whose dims are ints or, where a check expects only a rank, names."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(d if isinstance(d, str) else int(d) for d in s) for s in shapes)
        shown = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {shown}")


class NonFiniteError(ValueError):
    """A value that must be finite is not; names the offending quantity."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"non-finite value in {what}")


class Tensor:
    """A float64 array, optionally tracked on a tape.  No op changes its
    inputs' arrays; ``sgd_step`` alone writes a parameter's array, in place,
    between two tapes."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor({self.data!r}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: "callable"


class Tape:
    """Append-only op record; creation order doubles as topological order."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tapes.pop()
        assert popped is self
        return False


# The open tapes, innermost last, used by the one thread that trains.
# Helper threads (pool.thread_map) run eval forwards only: a conv model's
# eval chunks (models._predict), and a transfer's eval queue beside its SGD,
# the baseline's and each epoch's val forwards (transfer.distill). Eval
# params do not require grad, so those ops add no node to the training
# thread's open tape.
_tapes: list[Tape] = []


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with a batch-size-invariant summation order.

    BLAS gemm picks different kernels (and so different float rounding) for
    different shapes; einsum's fixed reduction order makes row i of a@b
    independent of how many other rows ride along in the batch. ``out``, when
    given, receives the same bits an allocated result would hold.
    """
    return np.einsum("ij,jk->ik", a, b, out=out)


def _mm_tn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b with the same determinism guarantee."""
    return np.einsum("ji,jk->ik", a, b)


def _mm_nt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T with the same determinism guarantee."""
    return np.einsum("ij,kj->ik", a, b)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out_data, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _tapes and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tapes[-1].nodes.append(_Node(out, inputs, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Run one reverse sweep over the tape, filling .grad on tracked tensors.

    The loss must be a scalar node produced under this tape.
    """
    if loss.data.shape != ():
        raise ShapeError("backward(loss)", loss.data.shape, ())
    for node in tape.nodes:
        node.out.grad = None
        for t in node.inputs:
            t.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        if node.out.grad is None:
            continue  # branch not contributing to the loss
        node.backward(node.out.grad)


# ---------------------------------------------------------------------------
# numpy helpers shared by tape ops and frozen-model code paths


def np_log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = np.max(z, axis=-1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def np_softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(np_log_softmax(z))


# ---------------------------------------------------------------------------
# ops


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError("affine", x.data.shape, w.data.shape)
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError("affine(bias)", b.data.shape, (w.data.shape[1],))
    out_data = _mm(x.data, w.data)
    out_data += b.data

    def bwd(g):
        if x.requires_grad:  # an MLP's first layer reads the data, whose gradient nothing reads
            _accum(x, _mm_nt(g, w.data))
        if w.requires_grad:
            _accum(w, _mm_tn(x.data, g))
        _accum(b, g.sum(axis=0))

    return _record(out_data, (x, w, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul", a.data.shape, b.data.shape)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _mm_nt(g, b.data))
        if b.requires_grad:
            _accum(b, _mm_tn(a.data, g))

    return _record(_mm(a.data, b.data), (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError("add", a.data.shape, b.data.shape)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _record(a.data + b.data, (a, b), bwd)


def scale(x: Tensor, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)

    def bwd(g):
        _accum(x, g * s)

    return _record(x.data * s, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) in one ufunc pass, bit-equal to ``np.where(x > 0, x, 0.0)``.

    ``fmax`` maps NaN to 0, as the mask does; it may return -0.0 for -0.0,
    and adding +0.0 in place turns that into +0.0. The output keeps the
    input's memory layout. The backward mask is ``out > 0``, the same as
    ``x > 0``, so a forward that no backward reads never builds it.
    """
    x = _as_tensor(x)
    out = np.fmax(x.data, 0.0)
    out += 0.0

    def bwd(g):
        _accum(x, g * (out > 0.0))

    return _record(out, (x,), bwd)


@functools.lru_cache(maxsize=32)
def _im2col_index(h: int, w: int, cin: int) -> np.ndarray:
    """Flat offsets into one row's padded NHWC buffer (h+2, w+2, cin), in
    im2col order: output pixel (oy, ox), then column c*9 + 3*i + j. Read-only,
    because every conv of this shape shares it."""
    oy = np.arange(h)[:, None, None, None, None]
    ox = np.arange(w)[None, :, None, None, None]
    c = np.arange(cin)[None, None, :, None, None]
    i = np.arange(3)[None, None, None, :, None]
    j = np.arange(3)[None, None, None, None, :]
    idx = (((oy + i) * (w + 2) + (ox + j)) * cin + c).reshape(-1)
    idx.setflags(write=False)
    return idx


# col2im adds the nine kernel offsets over blocks of this many rows: 16 rows of
# an 8x8, 8-channel input's gradient columns (590 KB) stay in a core's L2
# cache across the nine passes; 8 and 32 rows were slower
_COL2IM_ROWS = 16


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 convolution, zero same-padding, one-pixel step: the output keeps
    the input's height and width.

    Tensors keep NCHW shapes; the work runs channels-last. The input is padded
    into an NHWC buffer, im2col is one ``np.take`` of each row's padded pixels
    at a cached index (``_im2col_index``), and col2im adds into an NHWC
    buffer. The output and the input gradient are NCHW views over NHWC
    memory, so the next conv reads them without a copy.
    Column c*9 + 3*i + j holds input channel c at kernel offset (i, j), which
    fixes every einsum's sum order; col2im adds the nine kernel offsets back
    in that order, so every padded pixel sums its contributions in a fixed
    order. The backward reuses the forward's buffers: the input gradient's
    columns overwrite im2col once the weight gradient has read it, and
    col2im adds into the zeroed padded buffer, a block of rows at a time
    (``_COL2IM_ROWS``). So the backward runs once per
    node that computes an input gradient: a second call raises RuntimeError.
    The bias is added in place to the product.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 4:
        raise ShapeError("conv2d(input)", x.data.shape, ("n", "c", "h", "w"))
    n, cin, h, wdt = x.data.shape
    if w.data.ndim != 4 or w.data.shape[1:] != (cin, 3, 3):
        raise ShapeError("conv2d(kernel)", w.data.shape, (w.data.shape[0] if w.data.ndim else "cout", cin, 3, 3))
    cout = w.data.shape[0]
    if b.data.shape != (cout,):
        raise ShapeError("conv2d(bias)", b.data.shape, (cout,))
    xp = np.zeros((n, h + 2, wdt + 2, cin))
    xp[:, 1 : 1 + h, 1 : 1 + wdt, :] = x.data.transpose(0, 2, 3, 1)
    # the one copy, C order for every shape, so each row's einsum sums in one order;
    # the widths are spelled out because -1 cannot be inferred for a 0-row batch
    idx = _im2col_index(h, wdt, cin)
    cols = np.take(xp.reshape(n, (h + 2) * (wdt + 2) * cin), idx, axis=1).reshape(n * h * wdt, cin * 9)
    wmat = w.data.reshape(cout, cin * 9)
    out = _mm_nt(cols, wmat)
    out += b.data
    out = out.reshape(n, h, wdt, cout).transpose(0, 3, 1, 2)

    def bwd(g):
        nonlocal cols, xp
        if cols is None:
            raise RuntimeError("conv2d: backward already ran on this node and overwrote its im2col buffer")
        # C order, as the reshape already gives for n > 1 or an NHWC-backed g: a
        # one-row NCHW g would give a column-major view, which einsum sums in another order
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1).reshape(n * h * wdt, cout))
        _accum(w, _mm_tn(gmat, cols).reshape(cout, cin, 3, 3))
        _accum(b, gmat.sum(axis=0))
        if x.requires_grad:
            # the weight gradient has read cols, and nothing reads xp after the
            # forward: the input gradient's columns and col2im reuse both
            gcols = _mm(gmat, wmat, out=cols).reshape(n, h, wdt, cin, 3, 3)
            gxp = xp
            gxp.fill(0.0)
            cols = xp = None
            for s in range(0, n, _COL2IM_ROWS):  # a block's columns stay in cache over its nine adds
                blk, gblk = gxp[s : s + _COL2IM_ROWS], gcols[s : s + _COL2IM_ROWS]
                for i in range(3):  # kernel order: each pixel sums as np.add.at would
                    for j in range(3):
                        blk[:, i : i + h, j : j + wdt] += gblk[..., i, j]
            _accum(x, gxp[:, 1 : 1 + h, 1 : 1 + wdt].transpose(0, 3, 1, 2))

    return _record(out, (x, w, b), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool", x.data.shape, ("n", "c", "h", "w"))
    n, c, h, w = x.data.shape

    def bwd(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape))

    return _record(x.data.mean(axis=(2, 3)), (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; train-mode only, callers skip it in eval mode."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0,1), got {rate}")
    keep = rng.random(x.data.shape) >= rate
    scale_ = 1.0 / (1.0 - rate)

    def bwd(g):
        _accum(x, g * keep * scale_)

    return _record(x.data * keep * scale_, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = np_log_softmax(x.data)
    soft = np.exp(out_data)

    def bwd(g):
        _accum(x, g - soft * g.sum(axis=-1, keepdims=True))

    return _record(out_data, (x,), bwd)


def weighted_sum(x: Tensor, weights: np.ndarray, bias: float = 0.0) -> Tensor:
    """Scalar sum(weights * x) + bias with constant weights."""
    x = _as_tensor(x)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != x.data.shape:
        raise ShapeError("weighted_sum", weights.shape, x.data.shape)

    def bwd(g):
        _accum(x, weights * float(g))

    return _record(np.sum(weights * x.data) + bias, (x,), bwd)


def gather_cols(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick idx[i, j] columns per row: out[i, j] = x[i, idx[i, j]]."""
    x = _as_tensor(x)
    idx = np.asarray(idx)
    if x.data.ndim != 2 or idx.ndim != 2 or idx.shape[0] != x.data.shape[0]:
        raise ShapeError("gather_cols", x.data.shape, idx.shape)
    rows = np.arange(x.data.shape[0])[:, None]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (np.broadcast_to(rows, idx.shape), idx), g)
        _accum(x, gx)

    return _record(x.data[rows, idx], (x,), bwd)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Each row divided by max(its L2 norm, 1e-12), as
    ``torch.nn.functional.normalize`` does: a row whose norm is at least
    1e-12 is ``x / norm`` bit for bit, and an all-zero row stays zero."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("l2_normalize_rows", x.data.shape, ("n", "d"))
    norms = np.maximum(np.linalg.norm(x.data, axis=1, keepdims=True), 1e-12)
    y = x.data / norms

    def bwd(g):
        dot = np.sum(g * y, axis=1, keepdims=True)
        _accum(x, (g - y * dot) / norms)

    return _record(y, (x,), bwd)


def gram(x: Tensor) -> Tensor:
    """x @ x.T in one node so the self-product gradient stays simple."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("gram", x.data.shape, ("n", "d"))

    def bwd(g):
        _accum(x, _mm(g + g.T, x.data))

    return _record(_mm_nt(x.data, x.data), (x,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    old = x.data.shape

    def bwd(g):
        _accum(x, g.reshape(old))

    return _record(x.data.reshape(shape), (x,), bwd)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class SgdState:
    """SGD with classic momentum and decay folded into the gradient; from
    ``sgd_step``'s first call, ``velocity`` holds one per vector it steps, in order."""

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        for name in ("lr", "momentum", "weight_decay"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.lr < 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")


def sgd_step(vectors: list[tuple[np.ndarray, dict[str, Tensor]]], state: SgdState) -> None:
    """v <- momentum*v + grad + weight_decay*theta; theta <- theta - lr*v for
    each ``(vector, tensors)`` pair: a C-contiguous 1-D float64 vector and the
    tensors whose arrays tile it in order (a checkpoint's ``flat`` and
    ``models.as_tensors``' views of it, or a tensor's own array, flattened).
    Their ``.grad``s, as ``backward`` left them, are gathered into one
    gradient, elementwise ops step the vector, and theta is written into it,
    so every view sees the update, with the bits of a step of each tensor
    alone.  ``state.velocity`` gets one velocity per vector at the first call,
    all -0.0, so a vector's first ``momentum * v + upd`` is ``upd`` bit for
    bit; give the same vectors in the same order at every call.

    A vector none of whose tensors has a gradient keeps its value and its
    velocity; one only some of whose tensors have one is a ValueError.  A
    non-finite gradient, or an update that overflows a parameter, raises
    ``NonFiniteError`` before any vector or velocity changes, naming the
    first such parameter in the given order: ``lr`` is nonnegative, so one
    check of theta covers both (0 * inf is NaN)."""
    if not state.velocity:
        state.velocity = [np.full(vector.shape, -0.0) for vector, _ in vectors]
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        for i, (vector, tensors) in enumerate(vectors):
            grads = [t.grad for t in tensors.values() if t.grad is not None]
            if len(grads) < len(tensors):
                if not grads:
                    continue  # no backward reached this vector
                raise ValueError(f"sgd_step: {len(tensors) - len(grads)} of {list(tensors)} have no gradient")
            g = np.concatenate(grads, axis=None)
            upd = g if state.weight_decay == 0.0 else g + state.weight_decay * vector
            v = state.momentum * state.velocity[i] + upd
            theta = vector - state.lr * v
            if not np.isfinite(theta).all():  # name the tensor whose slice holds the first non-finite value
                ends = np.cumsum([t.data.size for t in tensors.values()])
                name, t = list(tensors.items())[np.searchsorted(ends, np.argmin(np.isfinite(theta)), side="right")]
                if not np.isfinite(t.grad).all():
                    raise NonFiniteError(f"gradient of parameter {name!r}")
                raise NonFiniteError(f"parameter {name!r} after its update")
            steps.append((i, vector, theta, v))
    for i, vector, theta, v in steps:
        vector[...] = theta
        state.velocity[i] = v  # SgdState's own array: no view of it reads the old one
