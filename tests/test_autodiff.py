import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flipxfer import autodiff as ad
from flipxfer.autodiff import (
    NonFiniteError,
    SgdState,
    ShapeError,
    Tape,
    Tensor,
    backward,
    np_log_softmax,
    np_softmax,
    sgd_step,
)

from flipxfer.models import ModelSpec, as_tensors, build, model_forward
from oracles import analytic_grads, finite_diff_grads, max_rel_error, reference_conv2d, reference_sgd_step

RNG = np.random.default_rng(1234)


def _away_from_zero(x, margin=0.05):
    return x + margin * np.sign(x)


def check_op(build_loss, params, tol=1e-5):
    _, got = analytic_grads(build_loss, params)
    want = finite_diff_grads(build_loss, params)
    assert max_rel_error(got, want) <= tol


# ---------------------------------------------------------------------------
# spec examples


def test_log_softmax_symmetry():
    out = np_log_softmax(np.zeros((1, 3)))
    assert np.allclose(out, -np.log(3.0), atol=1e-15)


def test_relu_example():
    x = Tensor([[-1.0, 2.0]])
    assert np.array_equal(ad.relu(x).data, [[0.0, 2.0]])


def test_conv_identity_kernel():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = ad.conv2d(x, Tensor(k), Tensor(np.zeros(1)))
    assert np.array_equal(out.data, x.data)


def test_backward_sum_is_ones():
    theta = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        loss = ad.weighted_sum(theta, np.ones((4, 3)))
    backward(tape, loss)
    assert np.array_equal(theta.grad, np.ones((4, 3)))


def test_backward_half_sq_norm_is_theta():
    theta = Tensor(RNG.normal(size=(5,)).reshape(1, 5), requires_grad=True)
    with Tape() as tape:
        sq = ad.scale(ad.reshape(ad.gram(theta), ()), 0.5)  # 0.5 * ||theta||^2
    backward(tape, sq)
    assert np.allclose(theta.grad, theta.data, atol=1e-15)


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = ad.relu(x)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_shape_error_names_op_and_shapes():
    def t(*shape):
        return Tensor(np.ones(shape))

    cases = [
        (lambda: ad.affine(t(2, 3), t(4, 5), t(5)), "affine", ((2, 3), (4, 5))),
        # a rank check names the dims it expects
        (lambda: ad.conv2d(t(3, 5, 5), t(4, 3, 3, 3), t(4)), "conv2d(input)", ((3, 5, 5), ("n", "c", "h", "w"))),
        (lambda: ad.global_avg_pool(t(2, 3)), "global_avg_pool", ((2, 3), ("n", "c", "h", "w"))),
        (lambda: ad.l2_normalize_rows(t(3)), "l2_normalize_rows", ((3,), ("n", "d"))),
        (lambda: ad.gram(t(1, 2, 3)), "gram", ((1, 2, 3), ("n", "d"))),
        # the kernel a (2, 3, 5, 5) input takes, not the input's shape
        (lambda: ad.conv2d(t(2, 3, 5, 5), t(4, 2, 3, 3), t(4)), "conv2d(kernel)", ((4, 2, 3, 3), (4, 3, 3, 3))),
    ]
    for call, op, shapes in cases:
        with pytest.raises(ShapeError) as exc:
            call()
        assert exc.value.op == op
        assert exc.value.shapes == shapes
        assert str(exc.value) == f"{op}: incompatible shapes {shapes[0]} vs {shapes[1]}"


# ---------------------------------------------------------------------------
# gradient checks, op by op


def test_grad_affine():
    x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(RNG.normal(size=5), requires_grad=True)
    wts = RNG.normal(size=(4, 5))
    check_op(lambda: ad.weighted_sum(ad.affine(x, w, b), wts), {"x": x, "w": w, "b": b})


def test_grad_matmul():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    wts = RNG.normal(size=(3, 2))
    check_op(lambda: ad.weighted_sum(ad.matmul(a, b), wts), {"a": a, "b": b})


def test_grad_relu():
    x = Tensor(_away_from_zero(RNG.normal(size=(4, 6))), requires_grad=True)
    wts = RNG.normal(size=(4, 6))
    check_op(lambda: ad.weighted_sum(ad.relu(x), wts), {"x": x})


def _convs(x, layers):
    """x through stacked convs, one per (kernel, bias); each after the first
    reads its input as every CNN layer does, an NCHW view of NHWC memory."""
    for k, b in layers:
        x = ad.conv2d(x, k, b)
    return x


def _backward_from(tape, out, g):
    """The tape's backward from out's upstream gradient g, passed as it is laid out."""
    out.grad = g
    for node in reversed(tape.nodes):
        node.backward(node.out.grad)


@pytest.mark.parametrize("depth", [1, 2])
def test_grad_conv2d(depth):
    x = Tensor(RNG.normal(size=(2, 2, 5, 4)), requires_grad=True)
    layers = [
        (Tensor(RNG.normal(size=(3, c, 3, 3)), requires_grad=True), Tensor(RNG.normal(size=3), requires_grad=True))
        for c in (2, 3)[:depth]
    ]
    wts = RNG.normal(size=(2, 3, 5, 4))
    params = {"x": x} | {f"{name}{i}": t for i, layer in enumerate(layers) for name, t in zip("wb", layer)}
    check_op(lambda: ad.weighted_sum(_convs(x, layers), wts), params)


def _laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """The values of the NCHW array a in another memory layout."""
    if layout == "nchw":
        return np.ascontiguousarray(a)
    if layout == "nhwc_backed":
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    n, c, h, w = a.shape  # a strided view into a larger buffer
    big = np.full((n, c, 2 * h, w + 1), np.nan)
    big[:, :, ::2, 1:] = a
    return big[:, :, ::2, 1:]


# beyond_chunk spans more than one eval chunk
_CONV_SHAPES = {
    "n1_cin1": (1, 1, 2, 5, 7),
    "cin3_odd": (2, 3, 4, 7, 5),
    "beyond_chunk": (120, 8, 8, 8, 8),
    "n0": (0, 3, 2, 5, 4),
    "n1_cin3": (1, 3, 4, 6, 5),
}


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize(
    "n, cin, cout, h, w, layout",
    [
        pytest.param(*shape, layout, id=name if layout == "nchw" else f"{name}_{layout}")
        for layout in ("nchw", "nhwc_backed", "sliced")
        for name, shape in _CONV_SHAPES.items()
    ],
)
def test_conv2d_is_bit_equal_to_gather_reference(depth, n, cin, cout, h, w, layout):
    """The op gives the reference's bits for an input and upstream gradient in
    any memory layout, alone and under a second conv that reads its output."""
    x = Tensor(_laid_out(RNG.normal(size=(n, cin, h, w)), layout), requires_grad=True)
    layers = [
        (Tensor(RNG.normal(size=(cout, c, 3, 3)), requires_grad=True), Tensor(RNG.normal(size=cout), requires_grad=True))
        for c in (cin, cout)[:depth]
    ]
    g = _laid_out(RNG.normal(size=(n, cout, h, w)), layout)
    with Tape() as tape:
        out = _convs(x, layers)
    _backward_from(tape, out, g)
    ins = [x.data]  # each reference layer's input, then the last one's output
    for k, b in layers:
        ins.append(reference_conv2d(ins[-1], k.data, b.data, np.zeros((n, cout, h, w)))[0])
    assert out.data.shape == ins[-1].shape and np.array_equal(out.data, ins[-1])
    for (k, b), xin in reversed(list(zip(layers, ins))):
        _, g, k_grad, b_grad = reference_conv2d(xin, k.data, b.data, g)
        for got, ref in ((k.grad, k_grad), (b.grad, b_grad)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
    assert x.grad.shape == g.shape and np.array_equal(x.grad, g)


def test_conv2d_second_backward_raises_naming_conv2d():
    """The first backward writes the input gradient's columns over im2col, so
    a second one must not compute a weight gradient from them."""
    x = Tensor(RNG.normal(size=(2, 3, 5, 4)), requires_grad=True)
    k = Tensor(RNG.normal(size=(2, 3, 3, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=2), requires_grad=True)
    with Tape() as tape:
        loss = ad.weighted_sum(ad.conv2d(x, k, b), RNG.normal(size=(2, 2, 5, 4)))
    backward(tape, loss)
    assert k.grad is not None
    with pytest.raises(RuntimeError, match="conv2d"):
        backward(tape, loss)
    assert k.grad is None and x.grad is None  # nothing accumulated from the overwritten columns


@pytest.mark.parametrize("layout", ["nchw", "nhwc_backed"])
def test_conv2d_backward_allocates_less_than_one_im2col_block(layout):
    """The input gradient reuses the forward's im2col and padded buffers."""
    n, cin, cout, h, w = 64, 8, 8, 8, 8  # a cnn_c8 middle layer at batch 64
    x = Tensor(RNG.normal(size=(n, cin, h, w)), requires_grad=True)
    k = Tensor(RNG.normal(size=(cout, cin, 3, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=cout), requires_grad=True)
    g = _laid_out(RNG.normal(size=(n, cout, h, w)), layout)
    with Tape() as tape:
        ad.conv2d(x, k, b)
    (node,) = tape.nodes
    cols_nbytes = n * h * w * cin * 9 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        node.backward(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < cols_nbytes


def test_im2col_index_is_cached_read_only():
    """Every conv of one shape shares the index, so no caller may write it."""
    idx = ad._im2col_index(5, 7, 3)
    assert ad._im2col_index(5, 7, 3) is idx
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0] = 1


# subnormals, signed zeros, infinities and nan, mixed with ordinary values
_RELU_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.5, -2.5])


@pytest.mark.parametrize("layout", ["flat", "nchw", "nhwc_backed", "sliced"])
def test_relu_is_bit_equal_to_where(layout):
    """relu gives np.where(x > 0, x, 0.0)'s bytes and strides for every
    length of the innermost axis from 1 to 40 (so every vector-loop tail)."""
    for length in range(1, 41):
        shape = (length,) if layout == "flat" else (2, 3, 2, length)
        vals = np.where(RNG.random(shape) < 0.5, RNG.choice(_RELU_SPECIALS, size=shape), RNG.normal(size=shape))
        x = vals if layout == "flat" else _laid_out(vals, layout)
        got = ad.relu(Tensor(x)).data
        want = np.where(x > 0, x, 0.0)
        assert got.strides == want.strides and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv2d_row_does_not_depend_on_batch_size(depth, cin):
    """A one-row batch gives the bits that row gets inside a larger batch,
    through one conv or two stacked."""
    x = RNG.normal(size=(3, cin, 5, 7))
    layers = [(Tensor(RNG.normal(size=(2, c, 3, 3))), Tensor(RNG.normal(size=2))) for c in (cin, 2)[:depth]]
    g = RNG.normal(size=(3, 2, 5, 7))

    def forward_backward(rows):
        xt = Tensor(x[rows], requires_grad=True)
        with Tape() as tape:
            out = _convs(xt, layers)
            loss = ad.weighted_sum(out, g[rows])
        backward(tape, loss)
        return out.data, xt.grad

    batch_out, batch_gx = forward_backward(slice(0, 3))
    for r in range(3):
        out, gx = forward_backward(slice(r, r + 1))
        assert np.array_equal(out, batch_out[r : r + 1]) and np.array_equal(gx, batch_gx[r : r + 1])


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv2d_one_row_grads_do_not_depend_on_upstream_layout(depth, cin):
    """A one-row batch's weight and bias gradients take the same bits for an
    upstream gradient in any memory layout, through one conv or two stacked."""
    x = RNG.normal(size=(1, cin, 5, 7))
    layers = [(RNG.normal(size=(2, c, 3, 3)), RNG.normal(size=2)) for c in (cin, 2)[:depth]]
    g = RNG.normal(size=(1, 2, 5, 7))
    grads = []
    for layout in ("nchw", "nhwc_backed", "sliced"):
        tracked = [(Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)) for k, b in layers]
        with Tape() as tape:
            out = _convs(Tensor(x, requires_grad=True), tracked)
        _backward_from(tape, out, _laid_out(g, layout))
        grads.append([t.grad for layer in tracked for t in layer])
    for got in grads[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(got, grads[0]))


def test_grad_global_avg_pool():
    x = Tensor(RNG.normal(size=(2, 3, 4, 4)), requires_grad=True)
    wts = RNG.normal(size=(2, 3))
    check_op(lambda: ad.weighted_sum(ad.global_avg_pool(x), wts), {"x": x})


def test_grad_dropout_fixed_mask():
    x = Tensor(RNG.normal(size=(3, 8)), requires_grad=True)
    wts = RNG.normal(size=(3, 8))

    def loss():
        rng = np.random.default_rng(7)  # same mask on every evaluation
        return ad.weighted_sum(ad.dropout(x, 0.4, rng), wts)

    check_op(loss, {"x": x})


def test_grad_log_softmax():
    x = Tensor(RNG.normal(size=(5, 7)), requires_grad=True)
    wts = RNG.normal(size=(5, 7))
    check_op(lambda: ad.weighted_sum(ad.log_softmax(x), wts), {"x": x})


def test_grad_gather_cols():
    x = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
    idx = np.stack([RNG.permutation(6)[:3] for _ in range(4)])
    wts = RNG.normal(size=(4, 3))
    check_op(lambda: ad.weighted_sum(ad.gather_cols(x, idx), wts), {"x": x})


def test_grad_l2_normalize_rows():
    x = Tensor(RNG.normal(size=(4, 5)) + 0.5, requires_grad=True)
    wts = RNG.normal(size=(4, 5))
    check_op(lambda: ad.weighted_sum(ad.l2_normalize_rows(x), wts), {"x": x})


def test_l2_normalize_rows_is_x_over_norm_down_to_1e_12():
    """A row whose norm is at least 1e-12 is ``x / norm`` bit for bit; a
    smaller one is divided by 1e-12, so a zero row stays zero."""
    x = RNG.normal(size=(200, 5)) * 10.0 ** RNG.uniform(-11.5, 6, size=(200, 1))
    assert np.linalg.norm(x, axis=1).min() >= 1e-12
    want = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert ad.l2_normalize_rows(x).data.tobytes() == want.tobytes()
    tiny = np.array([[0.0, 0.0], [3e-13, -4e-13]])
    assert ad.l2_normalize_rows(tiny).data.tobytes() == (tiny / 1e-12).tobytes()


def test_grad_gram():
    x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    wts = RNG.normal(size=(4, 4))
    check_op(lambda: ad.weighted_sum(ad.gram(x), wts), {"x": x})


def test_grad_reshape_scale_add():
    x = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
    y = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    wts = RNG.normal(size=(3, 4))

    def loss():
        return ad.weighted_sum(ad.add(ad.scale(ad.reshape(x, (3, 4)), 1.7), y), wts)

    check_op(loss, {"x": x, "y": y})


def test_grad_two_layer_mlp_kl_vs_finite_differences():
    # random 2-layer net distilled against fixed teacher logits
    from flipxfer.transfer import kl_loss

    w1 = Tensor(RNG.normal(size=(6, 8), scale=0.5), requires_grad=True)
    b1 = Tensor(RNG.normal(size=8, scale=0.1), requires_grad=True)
    w2 = Tensor(RNG.normal(size=(8, 4), scale=0.5), requires_grad=True)
    b2 = Tensor(RNG.normal(size=4, scale=0.1), requires_grad=True)
    x = Tensor(RNG.normal(size=(5, 6)))
    teacher = RNG.normal(size=(5, 4))

    def loss():
        h = ad.relu(ad.affine(x, w1, b1))
        return kl_loss(ad.affine(h, w2, b2), teacher, 2.0)

    check_op(loss, {"w1": w1, "b1": b1, "w2": w2, "b2": b2})


# ---------------------------------------------------------------------------
# softmax invariants


def test_softmax_rows_sum_to_one():
    z = RNG.normal(size=(20, 9), scale=10)
    s = np_softmax(z)
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.exp(np_log_softmax(z)) - s).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 8)),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_log_softmax_logsumexp_property(z):
    ls = np_log_softmax(z)
    lse = np.log(np.sum(np.exp(ls), axis=1))
    assert np.abs(lse).max() < 1e-10


# ---------------------------------------------------------------------------
# SGD


def _vectors(params: dict[str, Tensor]) -> list[tuple[np.ndarray, dict[str, Tensor]]]:
    """Each standalone tensor as a vector of its own."""
    return [(p.data.reshape(-1), {name: p}) for name, p in params.items()]


def _step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: SgdState) -> None:
    """``sgd_step`` on gradients set as ``backward`` leaves them."""
    for name, g in grads.items():
        params[name].grad = g
    sgd_step(_vectors(params), state)


def test_sgd_plain_step():
    p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    _step(p, {"w": np.array([2.0])}, SgdState(lr=1.0))
    assert np.array_equal(p["w"].data, [-1.0])


def test_sgd_writes_each_parameter_in_place():
    """A view of a parameter taken before the step sees the update, as a
    checkpoint does whose own arrays ``models.as_tensors`` wrapped."""
    p = {"w": Tensor(np.array([1.0, 3.0]), requires_grad=True)}
    view = p["w"].data[1:]
    _step(p, {"w": np.array([2.0, 2.0])}, SgdState(lr=1.0))
    assert np.array_equal(view, [1.0])


def test_sgd_lr_zero_is_bit_exact_identity():
    vals = RNG.normal(size=17)
    p = {"w": Tensor(vals.copy(), requires_grad=True)}
    _step(p, {"w": RNG.normal(size=17)}, SgdState(lr=0.0, momentum=0.5, weight_decay=0.1))
    assert np.array_equal(p["w"].data, vals)


def test_sgd_momentum_recurrence():
    p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
    state = SgdState(lr=0.1, momentum=0.9)
    _step(p, {"w": np.array([1.0])}, state)
    _step(p, {"w": np.array([1.0])}, state)
    assert p["w"].data[0] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_weight_decay_folds_into_gradient():
    p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    _step(p, {"w": np.array([0.0])}, SgdState(lr=0.5, weight_decay=0.1))
    # v = 0 + 0.1*2 = 0.2; w = 2 - 0.5*0.2
    assert p["w"].data[0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_rejects_nonfinite_gradient():
    p = {"layer.w": Tensor(np.array([1.0]), requires_grad=True)}
    with pytest.raises(NonFiniteError) as exc:
        _step(p, {"layer.w": np.array([np.nan])}, SgdState(lr=0.1))
    assert "layer.w" in str(exc.value)


@pytest.mark.parametrize("lr, momentum, weight_decay", [(0.1, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.9, 0.1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_names_a_non_finite_gradient_at_any_lr(lr, momentum, weight_decay, bad):
    """One finite check of the updated parameter catches every non-finite
    gradient, at lr 0 too (0 * inf is NaN), and the message still names the
    gradient; neither that parameter nor its velocity changes."""
    p = {"a": Tensor(np.ones(3), requires_grad=True), "b": Tensor(np.ones(2), requires_grad=True)}
    state = SgdState(lr=lr, momentum=momentum, weight_decay=weight_decay)
    _step(p, {"a": np.ones(3), "b": np.ones(2)}, state)
    b, vb = p["b"].data.copy(), state.velocity[1].copy()
    with pytest.raises(NonFiniteError) as exc:
        _step(p, {"a": np.ones(3), "b": np.array([1.0, bad])}, state)
    assert str(exc.value) == "non-finite value in gradient of parameter 'b'"
    assert np.array_equal(p["b"].data, b) and np.array_equal(state.velocity[1], vb)


def test_sgd_rejects_an_update_that_overflows_a_parameter():
    p = {"layer.w": Tensor(np.array([1.0]), requires_grad=True)}
    with pytest.raises(NonFiniteError) as exc:
        _step(p, {"layer.w": np.array([10.0])}, SgdState(lr=1e308))
    assert str(exc.value) == "non-finite value in parameter 'layer.w' after its update"
    assert p["layer.w"].data[0] == 1.0  # left as it was


def test_sgd_skips_a_parameter_the_loss_did_not_reach():
    """A vector none of whose tensors has a ``.grad``, one that no
    ``backward`` reached, keeps its value and its velocity under momentum and
    weight decay, while the other vector steps."""
    p = {"a": Tensor(np.ones(3), requires_grad=True), "b": Tensor(np.ones(2), requires_grad=True)}
    state = SgdState(lr=0.1, momentum=0.9, weight_decay=0.1)
    _step(p, {"a": np.ones(3), "b": np.ones(2)}, state)
    a, b, vb = p["a"].data.copy(), p["b"].data.copy(), state.velocity[1].copy()
    p["b"].grad = None
    _step(p, {"a": np.ones(3)}, state)
    assert np.array_equal(p["b"].data, b) and np.array_equal(state.velocity[1], vb)
    assert not np.array_equal(p["a"].data, a)


# A depth-3 MLP whose parameters are views of one checkpoint vector, beside a
# standalone tensor, as distill's cd_proj.w is
DEEP = ModelSpec("mlp", 3, (1, 4, 4), 5, width=6)


def _flat_and_standalone(seed: int) -> tuple[np.ndarray, dict[str, Tensor]]:
    ck = build(DEEP, seed)
    params = as_tensors(ck)
    params["cd_proj.w"] = Tensor(np.random.default_rng(seed).normal(size=(6, 3)), requires_grad=True)
    return ck.flat, params


def _pairs(flat: np.ndarray, params: dict[str, Tensor]) -> list[tuple[np.ndarray, dict[str, Tensor]]]:
    """``sgd_step``'s vectors, as ``distill`` gives them: the checkpoint's, then the standalone tensor's."""
    model = {k: params[k] for k in DEEP.param_shapes()}
    return [(flat, model), (params["cd_proj.w"].data.reshape(-1), {"cd_proj.w": params["cd_proj.w"]})]


def _bits(arrays: dict[str, np.ndarray]) -> dict[str, bytes]:
    return {k: v.tobytes() for k, v in arrays.items()}


def test_sgd_refuses_a_vector_only_part_of_which_has_a_gradient():
    """A step cannot skip one view of a vector: a vector some of whose
    tensors have no gradient raises, and nothing changes."""
    ck = build(DEEP, 0)
    params, before = as_tensors(ck), ck.flat.copy()
    for name, p in params.items():
        p.grad = None if name == "fc2.b" else np.ones(p.data.shape)
    state = SgdState(lr=0.1, momentum=0.9)
    with pytest.raises(ValueError, match="1 of .* have no gradient"):
        sgd_step([(ck.flat, params)], state)
    assert np.array_equal(ck.flat, before) and np.all(state.velocity[0] == 0.0)


@pytest.mark.parametrize("momentum, weight_decay", [(0.9, 1e-3), (0.0, 0.0)])
def test_flat_sgd_equals_the_per_parameter_loop_bit_for_bit(momentum, weight_decay):
    """200 steps of one-vector SGD give the bits of stepping each parameter
    alone, values and velocities: the checkpoint's vector has no gradient on
    every seventh step (its first step is the first), the standalone tensor
    on every fifth, and some gradients hold signed zeros, whose sign a first
    velocity keeps."""
    flat, fast = _flat_and_standalone(3)
    _, slow = _flat_and_standalone(3)
    slow = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in slow.items()}
    fast_state, slow_state = (SgdState(lr=0.05, momentum=momentum, weight_decay=weight_decay) for _ in range(2))
    slow_velocity: dict[str, np.ndarray] = {}
    rng = np.random.default_rng(7)
    for i in range(200):
        for name, p in fast.items():
            g = rng.normal(size=p.data.shape) * rng.choice([1e-3, 1.0, 30.0])
            g[rng.random(g.shape) < 0.2] = rng.choice([0.0, -0.0])
            skip = (name != "cd_proj.w" and i % 7 == 3) or (name == "cd_proj.w" and i % 5 == 2)
            p.grad = None if skip else g
            slow[name].grad = None if skip else g.copy()
        sgd_step(_pairs(flat, fast), fast_state)
        reference_sgd_step(slow, slow_velocity, slow_state)
        assert _bits({k: p.data for k, p in fast.items()}) == _bits({k: p.data for k, p in slow.items()})
        model_velocity = np.concatenate([slow_velocity[k] for k in DEEP.param_shapes()], axis=None)
        assert fast_state.velocity[0].tobytes() == model_velocity.tobytes()
        assert fast_state.velocity[1].tobytes() == slow_velocity["cd_proj.w"].tobytes()
    assert all(fast[k].data.base is flat for k in DEEP.param_shapes())


@pytest.mark.parametrize("bad, named", [(("fc2.w", "fc3.b", "cd_proj.w"), "fc2.w"), (("cd_proj.w",), "cd_proj.w")])
@pytest.mark.parametrize("kind", ["gradient", "update"])
def test_a_non_finite_step_names_the_first_parameter_and_writes_nothing(bad, named, kind):
    """The error names the first parameter, in the given order, whose update
    is not finite, and no parameter or velocity changes: not the checkpoint's
    vector, whose own update is finite when only the standalone tensor fails."""
    flat, params = _flat_and_standalone(5)
    state = SgdState(lr=10.0, momentum=0.9, weight_decay=1e-3)
    rng = np.random.default_rng(8)
    for p in params.values():
        p.grad = 1e-3 * rng.normal(size=p.data.shape)
    sgd_step(_pairs(flat, params), state)
    values, velocity = _bits({k: p.data for k, p in params.items()}), [v.tobytes() for v in state.velocity]
    for name, p in params.items():
        p.grad = 1e-3 * rng.normal(size=p.data.shape)
        if name in bad:
            p.grad.flat[-1] = np.nan if kind == "gradient" else 1e308
    with pytest.raises(NonFiniteError) as exc:
        sgd_step(_pairs(flat, params), state)
    what = f"gradient of parameter {named!r}" if kind == "gradient" else f"parameter {named!r} after its update"
    assert str(exc.value) == f"non-finite value in {what}"
    assert _bits({k: p.data for k, p in params.items()}) == values
    assert [v.tobytes() for v in state.velocity] == velocity
    assert all(params[k].data.base is flat for k in DEEP.param_shapes())


# ---------------------------------------------------------------------------
# products formed by a backward


@pytest.fixture
def products(monkeypatch):
    """Counts of the gradient products formed: a @ b.T (an input's) and a.T @ b (a weight's)."""
    calls = Counter()
    for name in ("_mm_nt", "_mm_tn"):
        def counted(a, b, _name=name, _mm=getattr(ad, name)):
            calls[_name] += 1
            return _mm(a, b)

        monkeypatch.setattr(ad, name, counted)
    return calls


def test_an_mlp_backward_forms_only_the_products_it_reads(products):
    """One backward of a depth-3 MLP forms a weight-gradient product per
    layer and an input-gradient product for the two layers whose input is a
    hidden layer: the first layer's input is the data, which needs no gradient."""
    params = as_tensors(build(DEEP, 0))
    with Tape() as tape:
        logits, _ = model_forward(DEEP, params, Tensor(RNG.normal(size=(7, 1, 4, 4))))
        loss = ad.weighted_sum(logits, RNG.normal(size=(7, 5)))
    products.clear()
    backward(tape, loss)
    assert products == {"_mm_nt": 2, "_mm_tn": 3}
    assert all(p.grad is not None for p in params.values())


@pytest.mark.parametrize("tracked, formed", [("a", "_mm_nt"), ("b", "_mm_tn")])
def test_a_matmul_forms_the_product_of_its_one_tracked_operand(products, tracked, formed):
    a = Tensor(RNG.normal(size=(4, 3)), requires_grad=tracked == "a")
    b = Tensor(RNG.normal(size=(3, 2)), requires_grad=tracked == "b")
    with Tape() as tape:
        loss = ad.weighted_sum(ad.matmul(a, b), RNG.normal(size=(4, 2)))
    backward(tape, loss)
    assert products == {formed: 1}
    assert (a.grad is None) == (tracked == "b") and (b.grad is None) == (tracked == "a")


# ---------------------------------------------------------------------------
# determinism


def test_forward_backward_deterministic():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(6, 5)))
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            out = ad.log_softmax(ad.affine(ad.relu(ad.scale(x, 1.3)), w, b))
            loss = ad.weighted_sum(out, rng.normal(size=(6, 3)))
        backward(tape, loss)
        return loss.item(), w.grad.copy(), b.grad.copy()

    l1, gw1, gb1 = run()
    l2, gw2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gb1, gb2)
