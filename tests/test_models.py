import json
import os
import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from flipxfer import models
from flipxfer.autodiff import SgdState, ShapeError, Tape, Tensor, backward, np_softmax, sgd_step
from flipxfer.config import digest
from flipxfer.pool import thread_map
from flipxfer.models import (
    Checkpoint,
    CheckpointError,
    HeaderMismatchError,
    ModelSpec,
    NotACheckpointError,
    TruncatedCheckpointError,
    as_tensors,
    build,
    eval_chunk_rows,
    load,
    model_forward,
    predict_features,
    predict_logits,
    save,
)
from flipxfer.transfer import xe_loss
from flipxfer.zoo import TrainConfig

MLP = ModelSpec(family="mlp", depth=2, input_shape=(32,), num_classes=10, width=16)
CNN = ModelSpec(family="cnn", depth=1, input_shape=(1, 8, 8), num_classes=10, channels=(4,))


def test_mlp_param_count_closed_form():
    # 32*16+16 input layer plus 16*10+10 head
    assert MLP.num_params() == 698


def test_cnn_param_count_closed_form():
    # conv 1*4*9+4 plus head 4*10+10
    assert CNN.num_params() == 90


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
    ck = Checkpoint(ck.spec, {k: np.zeros_like(v) for k, v in ck.params.items()}, {})
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


def test_thread_map_keeps_item_order_with_more_threads_than_cores():
    """Eight threads over 101 items, switching every microsecond: each item
    mapped once, in order, and every helper joined."""
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert thread_map(lambda i: (i, sum(range(i * 50))), list(range(101)), 8) == [
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


def test_corrupted_magic_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save(build(MLP, seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(NotACheckpointError):
        load(path)


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save(build(MLP, seed=0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])  # drop two trailing floats
    with pytest.raises(TruncatedCheckpointError) as exc:
        load(path)
    assert "declares" in str(exc.value)


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


def test_header_shape_disagreement_detected(tmp_path):
    def edit(header):
        header["shapes"]["fc1.w"] = [32, 15]
        return header

    _rewrite_header(tmp_path / "model.ckpt", edit)
    with pytest.raises(HeaderMismatchError):
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
    with pytest.raises(HeaderMismatchError, match="malformed header"):
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
    with pytest.raises(HeaderMismatchError, match=f"meta.{key}: expected") as exc:
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
    with pytest.raises(HeaderMismatchError, match=rf"malformed header \(header\.spec\.{key}: expected") as exc:
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
        save(Checkpoint(MLP, build(MLP, seed=0).params, meta), path)
        assert repr(sorted(load(path).meta.items())) == repr(sorted(meta.items()))  # types too: 3 is not 3.0
    _rewrite_header(path, _meta(val_accuracy=1))
    assert load(path).meta["val_accuracy"] == 1.0 and type(load(path).meta["val_accuracy"]) is float


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_header_never_holds_nan_or_infinity(tmp_path, value):
    """save refuses a meta value JSON does not have, and load rejects a header holding one."""
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="JSON compliant"):
        save(Checkpoint(MLP, build(MLP, seed=0).params, {"note": value}), path)
    _rewrite_header(path, _meta(note=value))
    with pytest.raises(HeaderMismatchError, match=rf"^{re.escape(str(path))}: malformed header \(header: .* is not JSON"):
        load(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    with pytest.raises(NotACheckpointError):
        load(path)


def test_cnn_training_step_peak_memory():
    """One batch-64 step of the benchmark's 3-conv, 8-channel CNN peaks at
    least one 2.36 MB im2col block under the 11.36 MB of traced allocations
    it took before conv2d's backward reused its forward's buffers. At 11.36 MB
    the heap was trimmed after every step, so each step page-faulted its
    temporaries back in."""
    spec = ModelSpec("cnn", 3, (1, 8, 8), 10, channels=(8, 8, 8))
    params = as_tensors(build(spec, seed=3))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 1, 8, 8)), rng.integers(0, 10, size=64)
    opt = SgdState(lr=0.05)

    def step():
        with Tape() as tape:
            logits, _ = model_forward(spec, params, Tensor(x), train=True)
            loss = xe_loss(logits, y)
        backward(tape, loss)
        sgd_step(params, {k: p.grad for k, p in params.items()}, opt)

    step()  # fills the im2col index cache and the momentum state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 11.36e6 - 64 * 8 * 8 * 72 * 8
