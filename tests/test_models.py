import hashlib
import io
import json
import os
import pickle
import re
import struct
import sys
import threading
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipxfer import models, pool
from flipxfer.autodiff import SgdState, ShapeError, Tape, Tensor, backward, np_softmax, sgd_step
from flipxfer.config import digest
from flipxfer.pool import thread_map
from flipxfer.models import (
    Checkpoint,
    CheckpointError,
    ModelSpec,
    as_tensors,
    build,
    eval_chunk_rows,
    load,
    model_forward,
    predict_classes,
    predict_features,
    predict_logits,
    save,
)
from flipxfer.transfer import xe_loss
from flipxfer.zoo import TrainConfig, _work

MLP = ModelSpec(family="mlp", depth=2, input_shape=(32,), num_classes=10, width=16)
CNN = ModelSpec(family="cnn", depth=1, input_shape=(1, 8, 8), num_classes=10, channels=(4,))


def test_mlp_param_count_closed_form():
    # 32*16+16 input layer plus 16*10+10 head
    assert MLP.num_params() == 698


def test_cnn_param_count_closed_form():
    # conv 1*4*9+4 plus head 4*10+10
    assert CNN.num_params() == 90


# param_shapes (in order), num_params, feature_width and zoo._work at 2 epochs,
# recorded before ModelSpec.layers() became their one source
_SPEC_TABLE = [
    ('mlp', 1, (8,), [(8, 5), (5,)], 45, 8, 80),
    ('mlp', 1, (3, 4, 4), [(48, 5), (5,)], 245, 48, 480),
    ('cnn', 1, (1, 5, 5), [(4, 1, 3, 3), (4,), (4, 5), (5,)], 65, 4, 1840),
    ('cnn', 1, (3, 4, 4), [(4, 3, 3, 3), (4,), (4, 5), (5,)], 137, 4, 3496),
    ('mlp', 2, (8,), [(8, 6), (6,), (6, 5), (5,)], 89, 6, 156),
    ('mlp', 2, (3, 4, 4), [(48, 6), (6,), (6, 5), (5,)], 329, 6, 636),
    ('cnn', 2, (1, 5, 5), [(4, 1, 3, 3), (4,), (7, 4, 3, 3), (7,), (7, 5), (5,)], 339, 7, 14470),
    ('cnn', 2, (3, 4, 4), [(4, 3, 3, 3), (4,), (7, 4, 3, 3), (7,), (7, 5), (5,)], 411, 7, 11590),
    ('mlp', 3, (8,), [(8, 6), (6,), (6, 6), (6,), (6, 5), (5,)], 131, 6, 228),
    ('mlp', 3, (3, 4, 4), [(48, 6), (6,), (6, 6), (6,), (6, 5), (5,)], 371, 6, 708),
    ('cnn', 3, (1, 5, 5), [(4, 1, 3, 3), (4,), (7, 4, 3, 3), (7,), (2, 7, 3, 3), (2,), (2, 5), (5,)], 442, 2, 20720),
    ('cnn', 3, (3, 4, 4), [(4, 3, 3, 3), (4,), (7, 4, 3, 3), (7,), (2, 7, 3, 3), (2,), (2, 5), (5,)], 514, 2, 15572),
]


@pytest.mark.parametrize("family, depth, shape, shapes, n, features, work", _SPEC_TABLE)
def test_every_quantity_of_a_spec_is_pinned(family, depth, shape, shapes, n, features, work):
    """MLPs over flat and image inputs and CNNs over two image shapes, depths 1-3."""
    arch = {"width": 6} if family == "mlp" else {"channels": (4, 7, 2)[:depth]}
    spec = ModelSpec(family, depth, shape, 5, **arch)
    assert list(spec.param_shapes().values()) == shapes
    layers = [f"fc{i}" for i in range(1, depth + 1)] if family == "mlp" else [f"conv{i}" for i in range(1, depth + 1)] + ["head"]
    assert list(spec.param_shapes()) == [f"{name}.{p}" for name in layers for p in "wb"]
    assert (spec.num_params(), spec.feature_width(), _work(spec, TrainConfig(epochs=2))) == (n, features, work)


def test_build_is_deterministic():
    a = build(MLP, seed=42)
    b = build(MLP, seed=42)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_distinct_seeds_distinct_weights():
    a = build(MLP, seed=1)
    b = build(MLP, seed=2)
    assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_biases_start_at_zero():
    ck = build(CNN, seed=0)
    assert np.array_equal(ck.params["conv1.b"], np.zeros(4))
    assert np.array_equal(ck.params["head.b"], np.zeros(10))


def test_unsupported_family_rejected():
    with pytest.raises(ValueError):
        ModelSpec(family="transformer", depth=2, input_shape=(8,), num_classes=10, width=4)


def test_zero_weight_model_gives_uniform_softmax():
    ck = build(MLP, seed=0)
    ck = Checkpoint(ck.spec, np.zeros_like(ck.flat), {})
    logits = predict_logits(ck, np.random.default_rng(0).normal(size=(5, 32)))
    assert np.array_equal(logits, np.zeros((5, 10)))
    assert np.allclose(np_softmax(logits), 0.1, atol=1e-15)


def test_single_sample_equals_batched_row():
    ck = build(MLP, seed=3)
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(7, 32))
    full = predict_logits(ck, batch)
    one = predict_logits(ck, batch[4:5])
    assert np.array_equal(full[4], one[0])


def test_predict_rejects_wrong_shape():
    ck = build(MLP, seed=0)
    with pytest.raises(ShapeError):
        predict_logits(ck, np.zeros((3, 31)))


def test_cnn_forward_shapes_and_determinism():
    ck = build(CNN, seed=5)
    x = np.random.default_rng(2).normal(size=(6, 1, 8, 8))
    a = predict_logits(ck, x)
    b = predict_logits(ck, x)
    assert a.shape == (6, 10)
    assert np.array_equal(a, b)


def test_eval_chunk_holds_the_widest_im2col_near_2_mib():
    spec = ModelSpec(family="cnn", depth=3, input_shape=(1, 8, 8), num_classes=10, channels=(8, 8, 8))
    assert eval_chunk_rows(spec) == 56  # 2 MiB over 8*8 positions x 8*9 taps x 8 bytes
    assert eval_chunk_rows(MLP) is None


def test_chunked_cnn_eval_equals_row_by_row_forwards():
    spec = ModelSpec(family="cnn", depth=2, input_shape=(1, 8, 8), num_classes=10, channels=(8, 4))
    ck = build(spec, seed=7)
    rows = eval_chunk_rows(spec)
    x = np.random.default_rng(3).normal(size=(2 * rows + 1, 1, 8, 8))  # two chunks and a one-row tail
    params = as_tensors(ck)
    one_by_one = [model_forward(spec, params, Tensor(x[i : i + 1])) for i in range(len(x))]
    assert np.array_equal(predict_logits(ck, x), np.concatenate([z.data for z, _ in one_by_one]))
    assert np.array_equal(predict_features(ck, x), np.concatenate([f.data for _, f in one_by_one]))


# a CNN whose eval runs in chunks of 56 rows; batches of one chunk, three
# chunks (over two threads at 2 usable CPUs), two chunks (fewer than 3 CPUs)
_CHUNKED = ModelSpec(family="cnn", depth=2, input_shape=(1, 8, 8), num_classes=10, channels=(8, 4))
_BATCHES = {"one_chunk": 56, "three_chunks": 2 * 56 + 1, "two_chunks": 56 + 1, "empty": 0}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", list(_BATCHES.values()), ids=list(_BATCHES))
def test_threaded_cnn_eval_gives_the_whole_batch_bits(monkeypatch, cpus, n):
    """However the chunks are grouped over threads, they come back in order:
    the bits of one whole-batch forward, and each chunk forwarded once."""
    assert eval_chunk_rows(_CHUNKED) == 56
    ck = build(_CHUNKED, seed=7)
    x = np.random.default_rng(3).normal(size=(n, 1, 8, 8))
    whole_z, whole_f = model_forward(_CHUNKED, as_tensors(ck), Tensor(x))
    calls = []

    def counted(spec, params, batch, **kwargs):
        calls.append((threading.current_thread(), batch.data[:1].tobytes()))  # a Thread, as idents are reused
        return model_forward(spec, params, batch, **kwargs)

    monkeypatch.setattr(models, "model_forward", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    chunks = max(1, -(-n // 56))
    for predict, whole in ((predict_logits, whole_z), (predict_features, whole_f)):
        calls.clear()
        assert np.array_equal(predict(ck, x), whole.data)
        assert len(calls) == chunks
        # the calling thread forwards the first group, at least the first chunk
        assert (threading.current_thread(), x[:1].tobytes()) in calls
        assert len({thread for thread, _ in calls}) == min(cpus, chunks)


def test_thread_map_keeps_item_order_with_more_threads_than_cores(monkeypatch):
    """Eight threads over 101 items, switching every microsecond: each item
    mapped once, in order, and every helper joined."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert thread_map(lambda i: (i, sum(range(i * 50))), list(range(101))) == [
            (i, sum(range(i * 50))) for i in range(101)
        ]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_threaded_cnn_eval_leaves_no_thread_running(monkeypatch):
    ck = build(_CHUNKED, seed=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    before = threading.active_count()
    predict_logits(ck, np.zeros((3 * 56, 1, 8, 8)))
    assert threading.active_count() == before


def test_a_helper_threads_exception_is_raised_in_the_caller(monkeypatch):
    """Three chunks over two threads: the helper's group is the last chunk."""
    ck = build(_CHUNKED, seed=7)
    x = np.zeros((3 * 56, 1, 8, 8))
    x[112:] = 1.0

    def fails_on_the_last_chunk(spec, params, batch, **kwargs):
        if batch.data[0, 0, 0, 0] == 1.0:
            raise ArithmeticError("helper group")
        return model_forward(spec, params, batch, **kwargs)

    monkeypatch.setattr(models, "model_forward", fails_on_the_last_chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="helper group"):
        predict_logits(ck, x)
    assert threading.active_count() == before


def _leaf_threads(n, items, leaves=3):
    """Map ``items`` over threads, each item mapping its own ``leaves`` leaves
    over threads; the number of threads that ran leaves. Each thread's first
    leaf waits at a barrier for ``n`` threads, so fewer than ``n`` threads at
    once, or more, break it at its timeout (``BrokenBarrierError``)."""
    barrier, this, ran = threading.Barrier(n, timeout=10), threading.local(), []

    def leaf(j):
        if not hasattr(this, "ran"):
            this.ran = True
            ran.append(j)
            barrier.wait()
        return j

    assert thread_map(lambda _: thread_map(leaf, list(range(leaves))), items) == [list(range(leaves))] * len(items)
    return len(ran)


@pytest.mark.parametrize("cpus, outer", [(2, 2), (3, 3)])
def test_nested_thread_maps_never_run_more_threads_than_workers(monkeypatch, cpus, outer):
    """A call inside a helper counts the helpers already running anywhere in
    the process: with every usable CPU busy (an outer call on as many items)
    it runs in its own thread. Once the calls return, a new one gets every
    CPU again."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    before = threading.active_count()
    assert _leaf_threads(cpus, [0] * outer) == cpus
    assert _leaf_threads(cpus, [0]) == cpus  # an outer call on one thread leaves every CPU
    assert threading.active_count() == before


class _WaitedForLock:
    """A lock whose second holder keeps it until another thread waits for it."""

    def __init__(self):
        self._lock, self.holders, self.waited = threading.Lock(), 0, threading.Event()
        self.held_until_waited = False

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.waited.set()
            self._lock.acquire()
        self.holders += 1
        if self.holders == 2:
            self.held_until_waited = self.waited.wait(timeout=10)
        return self

    def __exit__(self, *exc):
        self._lock.release()


def test_two_calls_at_once_never_claim_the_same_free_workers(monkeypatch):
    """Two nested calls start together, and the first to take the helper
    count's lock holds it until the second waits for it. The count is read
    and raised under one lock, so the second call finds the workers taken and
    runs in its own thread: four threads, not six."""
    lock = _WaitedForLock()
    monkeypatch.setattr(pool, "_helpers_lock", lock)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    before = threading.active_count()
    assert _leaf_threads(4, [0, 1], leaves=4) == 4
    assert lock.held_until_waited
    assert threading.active_count() == before


def test_a_raising_thread_map_gives_its_helpers_back(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def fails(i):
        raise ArithmeticError(f"item {i}")

    for _ in range(2):
        with pytest.raises(ArithmeticError, match="item 0"):
            thread_map(fails, [0, 1, 2])
    assert _leaf_threads(3, [0]) == 3


def test_a_cnn_eval_in_a_helper_thread_adds_no_node_to_the_training_threads_tape(monkeypatch):
    """The training thread's tape is open while a helper forwards a chunked
    CNN eval (as a transfer's baseline does beside SGD): the tape holds the
    nodes of the training forward and nothing else."""
    ck = build(_CHUNKED, seed=7)
    x = np.random.default_rng(5).normal(size=(4 * 56, 1, 8, 8))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def train():
        logits, _ = model_forward(_CHUNKED, as_tensors(ck), Tensor(x[:8]), train=True)
        return logits

    with Tape() as alone:
        train()
    with Tape() as tape:
        logits, z = thread_map(lambda job: job(), [train, lambda: predict_logits(ck, x)])
    assert len(tape.nodes) == len(alone.nodes)
    assert tape.nodes[-1].out is logits
    assert np.array_equal(z, predict_logits(ck, x))


@pytest.mark.parametrize("spec", [MLP, CNN], ids=["mlp", "cnn"])
def test_empty_batch_predicts_empty_rows(spec):
    ck = build(spec, seed=1)
    empty = np.zeros((0, *spec.input_shape))
    assert predict_logits(ck, empty).shape == (0, spec.num_classes)
    assert predict_features(ck, empty).shape == (0, spec.feature_width())


def test_mlp_eval_is_one_forward(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].data.shape[0])
        return model_forward(*args, **kwargs)

    monkeypatch.setattr(models, "model_forward", counted)
    predict_logits(build(MLP, seed=2), np.zeros((5000, 32)))
    assert calls == [5000]


# predict_classes: certified BLAS classes, the rest from predict_logits

# an MLP, a one-chunk CNN and a CNN whose eval runs in chunks of 56 rows
_CLASSIFIERS = {
    "mlp": lambda width, depth: ModelSpec("mlp", depth, (2, 3), 4, width=width),
    "cnn": lambda width, depth: ModelSpec("cnn", depth, (2, 4, 4), 4, channels=(width,) * depth),
    "cnn_chunked": lambda width, depth: ModelSpec("cnn", 2, (1, 8, 8), 4, channels=(8, width)),
}


def _exact_rows(ck, x) -> tuple[np.ndarray, np.ndarray]:
    """predict_classes's classes, and a flag per row: whether it took the
    exact path, ``predict_logits`` over the rows the bound left uncertified."""
    with mock.patch.object(models, "predict_logits", wraps=models.predict_logits) as exact:
        classes = predict_classes(ck, x)
    sent = {row.tobytes() for call in exact.call_args_list for row in call.args[1]}
    return classes, np.array([row.tobytes() in sent for row in x], dtype=bool)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(list(_CLASSIFIERS)),
    width=st.integers(1, 6),
    depth=st.integers(1, 3),
    rows=st.sampled_from([0, 1, 2, 57, 120]),
    case=st.sampled_from(["random", "scaled", "zero_head", "twin_columns", "near_twin_columns", "overflow"]),
    seed=st.integers(0, 2**16),
)
def test_predict_classes_is_the_argmax_of_predict_logits(family, width, depth, rows, case, seed):
    """Every row's class is einsum's argmax, the lowest index on a tie.
    Ties (a zero head: every logit equal; two equal head columns), near-ties
    (two head columns an ulp apart) and overflow cannot be certified and
    take the exact path; and the bound E covers the gap between the BLAS
    and the einsum logits."""
    spec = _CLASSIFIERS[family](width, depth)
    ck = build(spec, seed)
    rng = np.random.default_rng(seed)
    head_w, head_b = list(ck.params)[-2:]
    ck.params[head_b][:] = rng.normal(size=spec.num_classes, scale=0.1)
    if case == "scaled":
        ck.flat *= 10.0 ** rng.integers(-3, 4)
    elif case == "zero_head":
        ck.params[head_w][:] = ck.params[head_b][:] = 0.0
    elif case in ("twin_columns", "near_twin_columns"):
        ck.params[head_w][:, 3] = ck.params[head_w][:, 1]
        ck.params[head_b][3] = ck.params[head_b][1]
        if case == "near_twin_columns":  # logits 1 and 3 a few ulps apart: too close to certify
            ck.params[head_w][:, 3] = np.nextafter(ck.params[head_w][:, 3], np.inf)
    elif case == "overflow":
        ck.flat *= 2.0**1020
    x = rng.normal(size=(rows, *spec.input_shape))
    with np.errstate(all="ignore"):
        logits = predict_logits(ck, x)
        classes, exact = _exact_rows(ck, x)
    assert np.array_equal(classes, np.argmax(logits, axis=1))
    if case == "zero_head":
        assert np.array_equal(classes, np.zeros(rows, dtype=int)) and exact.all()
    elif case == "twin_columns":
        assert exact[np.isin(classes, (1, 3))].all() and not (classes == 3).any()
    elif case == "near_twin_columns":
        assert exact[np.isin(classes, (1, 3))].all()
    elif case == "overflow":
        assert exact.all()
    else:
        z, e, reach = models._bounded_logits(spec, models._layer_norms(ck), x)
        assert (np.abs(z - logits).max(axis=1, initial=0.0) <= 2 * e).all()
        assert (reach < 2.0**1000).all()


@pytest.mark.parametrize("spec", [MLP, CNN], ids=["mlp", "cnn"])
def test_predict_classes_of_a_model_one_unit_wide(spec):
    """A model one unit wide: its hidden unit is 0 wherever ReLU cuts it, and
    the rows where the bias alone decides still get einsum's class."""
    spec = ModelSpec(spec.family, spec.depth, spec.input_shape, 10, width=1 if spec.family == "mlp" else None,
                     channels=None if spec.family == "mlp" else (1,))
    ck = build(spec, seed=3)
    ck.params[list(ck.params)[-1]][:] = np.linspace(0.0, 0.5, 10)
    x = np.random.default_rng(3).normal(size=(200, *spec.input_shape))
    assert np.array_equal(predict_classes(ck, x), np.argmax(predict_logits(ck, x), axis=1))


@pytest.mark.parametrize("spec", [MLP, CNN], ids=["mlp", "cnn"])
def test_predict_classes_sends_every_near_tie_to_the_exact_path(spec):
    """Head columns 1 and 3 an ulp apart: a row whose top class is either is
    closer to a tie than its bound, and only the exact forward may name it."""
    ck = build(spec, seed=5)
    w, b = ck.params["fc2.w" if spec is MLP else "head.w"], ck.params["fc2.b" if spec is MLP else "head.b"]
    w[:, 3] = np.nextafter(w[:, 1], np.inf)
    b[1] = b[3] = 10.0  # classes 1 and 3 on top in every row
    x = np.random.default_rng(5).normal(size=(100, *spec.input_shape))
    classes, exact = _exact_rows(ck, x)
    assert np.array_equal(classes, np.argmax(predict_logits(ck, x), axis=1))
    near = np.isin(classes, (1, 3))
    assert near.sum() > 50 and exact[near].all()


def test_predict_classes_certifies_every_row_of_a_random_cnn():
    """A generic CNN's rows are all certified: the exact path forwards none."""
    spec = ModelSpec("cnn", 3, (1, 8, 8), 10, channels=(8, 8, 8))
    ck = build(spec, seed=4)
    x = np.random.default_rng(4).normal(size=(3 * 56 + 5, 1, 8, 8))
    classes, exact = _exact_rows(ck, x)
    assert np.array_equal(classes, np.argmax(predict_logits(ck, x), axis=1))
    assert not exact.any()


def test_predict_classes_holds_a_third_of_an_im2col_block_at_a_time():
    """One chunk of three 8-channel convs: each conv builds its im2col for a
    third of the rows at a time, so the forward's peak, padded buffer and
    outputs included, stays below one whole block (2 MiB)."""
    spec = ModelSpec("cnn", 3, (1, 8, 8), 10, channels=(8, 8, 8))
    ck = build(spec, seed=4)
    rows = eval_chunk_rows(spec)
    x = np.random.default_rng(4).normal(size=(rows, 1, 8, 8))
    predict_classes(ck, x)  # a first call, so one-time allocations are not counted
    tracemalloc.start()
    try:
        predict_classes(ck, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * 64 * 8 * 9 * 8


def test_predict_classes_rejects_a_misshapen_batch():
    with pytest.raises(ShapeError):
        predict_classes(build(MLP, seed=1), np.zeros((3, 31)))


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_is_bit_exact(tmp_path):
    ck = build(CNN, seed=9)
    ck.meta.update({"val_accuracy": 0.875, "train_config_digest": "abc"})
    path = tmp_path / "model.ckpt"
    save(ck, path)
    back = load(path)
    assert back.spec == ck.spec
    assert back.meta == ck.meta
    assert list(back.params) == list(ck.params)
    for name in ck.params:
        assert np.array_equal(back.params[name], ck.params[name])
        assert back.params[name].dtype == np.float64


def _assert_flat(ck: Checkpoint) -> None:
    """ck's arrays are views of ck.flat, one C-contiguous float64 vector, in params order."""
    assert ck.flat.ndim == 1 and ck.flat.dtype == np.float64 and ck.flat.flags.c_contiguous
    offset = 0
    for name, v in ck.params.items():
        assert v.flags.c_contiguous and v.ctypes.data == ck.flat.ctypes.data + 8 * offset, name
        offset += v.size
    assert offset == ck.flat.size


class _ArrayCounter(pickle.Pickler):
    def __init__(self):
        super().__init__(io.BytesIO())
        self.arrays = 0

    def persistent_id(self, obj):
        self.arrays += isinstance(obj, np.ndarray)


def test_every_checkpoint_is_views_of_one_vector(tmp_path):
    """build, load, copy and a pickle round trip each lay the parameters out
    as views of one new vector in params order, which is the payload order;
    a pickle carries that vector alone."""
    ck = build(CNN, seed=9)
    save(ck, tmp_path / "m.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes().endswith(ck.flat.astype("<f8").tobytes())
    made = [
        load(tmp_path / "m.ckpt"),
        ck.copy(),
        *(pickle.loads(pickle.dumps(ck, protocol=p)) for p in (4, 5)),
    ]
    for other in [ck, *made]:
        _assert_flat(other)
        assert list(other.params) == list(CNN.param_shapes())
        assert other.flat.tobytes() == ck.flat.tobytes()
    assert not any(np.shares_memory(o.flat, ck.flat) for o in made)
    counter = _ArrayCounter()
    counter.dump(ck)
    assert counter.arrays == 1


def test_a_checkpoint_over_a_row_of_a_stack_trains_that_row():
    """The constructor keeps the vector it is given: a checkpoint over row i
    of a (K, P) array is a view of that row, and SGD on it steps the row in
    place, leaving the other rows as they were."""
    stack = np.stack([build(MLP, seed=s).flat for s in range(3)])
    before = stack.copy()
    ck = Checkpoint(MLP, stack[1])
    assert np.shares_memory(ck.flat, stack[1]) and not np.shares_memory(ck.flat, stack[0::2])
    _assert_flat(ck)
    params = as_tensors(ck)
    with Tape() as tape:
        logits, _ = model_forward(MLP, params, Tensor(np.random.default_rng(0).normal(size=(8, 32))))
        loss = xe_loss(logits, np.arange(8) % 10)
    backward(tape, loss)
    sgd_step([(ck.flat, params)], SgdState(lr=0.1, momentum=0.9, weight_decay=1e-3))
    assert not np.array_equal(stack[1], before[1])
    assert np.array_equal(stack[[0, 2]], before[[0, 2]])


@pytest.mark.parametrize("flat", [
    np.zeros(MLP.num_params() - 1),
    np.zeros(MLP.num_params() + 1),
    np.zeros(MLP.num_params(), dtype=np.float32),
    np.zeros((1, MLP.num_params())),
    np.zeros(2 * MLP.num_params())[::2],
    list(np.zeros(MLP.num_params())),
], ids=["short", "long", "float32", "2d", "strided", "list"])
def test_a_checkpoint_refuses_weights_of_the_wrong_length_dtype_or_layout(flat):
    with pytest.raises(ValueError, match=f"one C-contiguous float64 vector of {MLP.num_params()} values"):
        Checkpoint(MLP, flat)


def test_checkpoints_compare_by_identity():
    ck = build(MLP, seed=0)
    assert ck == ck and ck != ck.copy()


def _trained(spec: ModelSpec, steps: int) -> Checkpoint:
    """A checkpoint after ``steps`` SGD steps with momentum, weight decay and dropout."""
    ck = build(spec, seed=4)
    params = as_tensors(ck)
    rng, drop = np.random.default_rng(11), np.random.default_rng(12)
    x, y = rng.normal(size=(steps, 16, *spec.input_shape)), rng.integers(0, 10, size=(steps, 16))
    opt = SgdState(lr=0.05, momentum=0.9, weight_decay=1e-3)
    for i in range(steps):
        with Tape() as tape:
            logits, _ = model_forward(spec, params, Tensor(x[i]), train=True, dropout_rng=drop)
            loss = xe_loss(logits, y[i])
        backward(tape, loss)
        sgd_step([(ck.flat, params)], opt)
    return ck


@pytest.mark.parametrize("make, ck_digest, file_digest", [
    (lambda: build(MLP, 0), "be3ecdfb19651378", "97ede8e02caff0b3"),
    (lambda: build(CNN, 9), "e337ee0c4ae31d04", "a50f36d4de76cbc5"),
    (lambda: _trained(ModelSpec("mlp", 3, (1, 8, 8), 10, width=12, dropout=0.1), 30),
     "bf842ee840fb58f6", "02a08e1c8833831f"),
    (lambda: _trained(CNN, 10), "428d5404f3d08795", "e197cba88e489f47"),
], ids=["mlp", "cnn", "trained_mlp", "trained_cnn"])
def test_checkpoint_digest_and_file_bytes_are_pinned(tmp_path, make, ck_digest, file_digest):
    """``Checkpoint.digest()``, by which ``soup_transfer`` orders its merge,
    and the bytes ``save`` writes, pinned from the per-parameter layout and
    SGD loop that the one vector per model replaced."""
    ck = make()
    ck.meta.update({"name": "m", "val_accuracy": 0.5})
    save(ck, tmp_path / "m.ckpt")
    assert ck.digest() == ck_digest
    assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()[:16] == file_digest


def test_corrupted_magic_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save(build(MLP, seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="not a checkpoint file"):
        load(path)


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save(build(MLP, seed=0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])  # drop two trailing floats
    with pytest.raises(CheckpointError, match=r"payload holds \d+ floats, header declares \d+"):
        load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameter_is_refused_on_save_and_rejected_on_load(tmp_path, value):
    """Checkpoints hold finite parameters only: save writes no file for any
    other, and load names the file and the parameter of a payload that holds one."""
    ck = build(MLP, seed=0)
    path = tmp_path / "model.ckpt"
    save(ck, path)
    raw = bytearray(path.read_bytes())
    ck.params["fc1.b"][3] = value
    with pytest.raises(CheckpointError, match=re.escape(f"{tmp_path / 'bad.ckpt'}: parameter 'fc1.b' holds a non-finite")):
        save(ck, tmp_path / "bad.ckpt")
    assert not (tmp_path / "bad.ckpt").exists()
    (hlen,) = struct.unpack("<I", raw[5:9])
    at = 9 + hlen + 8 * (MLP.param_shapes()["fc1.w"][0] * MLP.param_shapes()["fc1.w"][1] + 3)
    raw[at : at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: parameter 'fc1.b' holds a non-finite value")):
        load(path)


def _rewrite_header(path, edit, floats=None):
    """Save a checkpoint, then replace its JSON header with edit(header) and,
    if ``floats`` is given, its payload with that many zeros."""
    save(build(MLP, seed=0), path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[5:9])
    blob = json.dumps(edit(json.loads(raw[9 : 9 + hlen])), sort_keys=True).encode()
    payload = raw[9 + hlen :] if floats is None else np.zeros(floats).tobytes()
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + payload)


def test_a_header_listing_its_parameters_in_another_order_is_rejected_naming_the_file(tmp_path):
    """``load`` reads only the layout ``save`` writes: a header whose names
    are permuted, with its payload in that order, is refused."""
    ck = build(MLP, seed=5)
    path = tmp_path / "model.ckpt"
    save(ck, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9 : 9 + hlen])
    header["names"] = names = ["fc2.b", "fc1.w", "fc2.w", "fc1.b"]
    blob = json.dumps(header, sort_keys=True).encode()
    payload = b"".join(ck.params[k].tobytes() for k in names)
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + payload)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: parameter names disagree with spec")):
        load(path)


def test_header_shape_disagreement_detected(tmp_path):
    def edit(header):
        header["shapes"]["fc1.w"] = [32, 15]
        return header

    _rewrite_header(tmp_path / "model.ckpt", edit)
    with pytest.raises(CheckpointError, match=re.escape("shape of 'fc1.w' is [32, 15], spec says")):
        load(tmp_path / "model.ckpt")


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _family(name):
    return lambda header: {**header, "spec": {**header["spec"], "family": name}}


@pytest.mark.parametrize(
    "edit",
    [_without("spec"), _without("shapes"), lambda header: [header], _family("transformer")],
    ids=["no_spec", "no_shapes", "json_list", "unknown_family"],
)
def test_malformed_header_is_header_mismatch(tmp_path, edit):
    _rewrite_header(tmp_path / "model.ckpt", edit)
    with pytest.raises(CheckpointError, match="malformed header"):
        load(tmp_path / "model.ckpt")


def _meta(**meta):
    return lambda header: {**header, "meta": {**header["meta"], **meta}}


@pytest.mark.parametrize(
    "edit, key",
    [
        (_meta(val_accuracy="high"), "val_accuracy"),
        (_meta(val_accuracy=None), "val_accuracy"),
        (_meta(name=3), "name"),
        (_meta(seed=1.5), "seed"),
        (_meta(seed=True), "seed"),
    ],
    ids=["val_accuracy_string", "val_accuracy_null", "name_number", "seed_float", "seed_bool"],
)
def test_wrong_type_meta_is_header_mismatch_naming_file_and_key(tmp_path, edit, key):
    path = tmp_path / "model.ckpt"
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=f"meta.{key}: expected") as exc:
        load(path)
    assert str(path) in str(exc.value)


def _spec(**spec):
    return lambda header: {**header, "spec": {**header["spec"], **spec}}


def _fractional_width(header):
    """Width 16.5, with the shapes it gives: the payload of 719 floats then
    matched the shapes' truncated sizes (528 + 16 + 165 + 10)."""
    shapes = {"fc1.w": [32, 16.5], "fc1.b": [16.5], "fc2.w": [16.5, 10], "fc2.b": [10]}
    return {**_spec(width=16.5)(header), "shapes": shapes}


@pytest.mark.parametrize(
    "edit, floats, key",
    [
        (_spec(depth=2.7), None, "depth"),
        (_spec(num_classes=10.9), None, "num_classes"),
        (_spec(dropout="0.25"), None, "dropout"),
        (_spec(depth=True), None, "depth"),
        (_fractional_width, 719, "width"),
    ],
    ids=["depth_fraction", "num_classes_fraction", "dropout_string", "depth_bool", "width_fraction"],
)
def test_wrong_type_spec_is_header_mismatch_naming_file_and_key(tmp_path, edit, floats, key):
    """Each spec value follows the config rule: a fractional depth or class
    count once loaded truncated, a string dropout loaded as a number, and a
    fractional width escaped load as a TypeError from reshape."""
    path = tmp_path / "model.ckpt"
    _rewrite_header(path, edit, floats)
    with pytest.raises(CheckpointError, match=rf"malformed header \(header\.spec\.{key}: expected") as exc:
        load(path)
    assert str(path) in str(exc.value)


def test_digests_are_pinned():
    """The identities a zoo writes into its manifest and checkpoint meta."""
    assert (digest(MLP), digest(CNN), digest(TrainConfig())) == (
        "1f6506be6b7dcfc5", "ad9b3a7890ab9584", "ddadd82fa836eb26"
    )


def test_meta_of_every_kind_the_program_writes_loads_unchanged(tmp_path):
    """Zoo meta (seed, val_accuracy, name, digest), a transferred student's
    extra keys and an integer accuracy (typed to float)."""
    metas = [
        {"seed": 3, "val_accuracy": 0.8125, "train_config_digest": "ab12", "name": "m00_mlp"},
        {"seed": 0, "val_accuracy": 0.5, "name": "s", "transfer_method": "kl_dp_sup", "teacher": "t"},
    ]
    path = tmp_path / "model.ckpt"
    for meta in metas:
        save(Checkpoint(MLP, build(MLP, seed=0).flat, meta), path)
        assert repr(sorted(load(path).meta.items())) == repr(sorted(meta.items()))  # types too: 3 is not 3.0
    _rewrite_header(path, _meta(val_accuracy=1))
    assert load(path).meta["val_accuracy"] == 1.0 and type(load(path).meta["val_accuracy"]) is float


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_header_never_holds_nan_or_infinity(tmp_path, value):
    """save refuses a meta value JSON does not have, and load rejects a header holding one."""
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="JSON compliant"):
        save(Checkpoint(MLP, build(MLP, seed=0).flat, {"note": value}), path)
    _rewrite_header(path, _meta(note=value))
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: malformed header \(header: .* is not JSON"):
        load(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    with pytest.raises(CheckpointError, match="empty.ckpt: not a checkpoint file"):
        load(path)


def test_cnn_training_step_peak_memory():
    """One batch-64 step of the benchmark's 3-conv, 8-channel CNN peaks at
    least one 2.36 MB im2col block under the 11.36 MB of traced allocations
    it took before conv2d's backward reused its forward's buffers. At 11.36 MB
    the heap was trimmed after every step, so each step page-faulted its
    temporaries back in."""
    spec = ModelSpec("cnn", 3, (1, 8, 8), 10, channels=(8, 8, 8))
    ck = build(spec, seed=3)
    params = as_tensors(ck)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 1, 8, 8)), rng.integers(0, 10, size=64)
    opt = SgdState(lr=0.05)

    def step():
        with Tape() as tape:
            logits, _ = model_forward(spec, params, Tensor(x), train=True)
            loss = xe_loss(logits, y)
        backward(tape, loss)
        sgd_step([(ck.flat, params)], opt)

    step()  # fills the im2col index cache and the momentum state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 11.36e6 - 64 * 8 * 8 * 72 * 8
