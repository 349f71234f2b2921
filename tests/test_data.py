import struct

import numpy as np
import pytest

from flipxfer.data import (
    DataError,
    Dataset,
    SyntheticConfig,
    class_anchors,
    epoch_permutation,
    generate_synthetic,
    load_idx,
    stratified_subsample,
    train_val_pair,
)

from oracles import reference_class_anchors, reference_generate_synthetic


def _linear_probe_accuracy(train: Dataset, val: Dataset) -> float:
    """Closed-form least-squares one-hot regression, argmax decision."""
    def flat(ds):
        x = ds.inputs.reshape(ds.n, -1)
        return np.hstack([x, np.ones((ds.n, 1))])

    y = np.eye(train.num_classes)[train.labels]
    w, *_ = np.linalg.lstsq(flat(train), y, rcond=None)
    preds = np.argmax(flat(val) @ w, axis=1)
    return float(np.mean(preds == val.labels))


def test_separated_anchors_are_linearly_probeable():
    cfg = SyntheticConfig(
        classes=5, samples=500, dims=16, modes_per_class=1, seed=3,
        sigma=0.5, anchor_scale=6.0,
    )
    anchors = class_anchors(cfg).reshape(-1, 16)
    dists = np.linalg.norm(anchors[:, None] - anchors[None, :], axis=2)
    min_dist = dists[~np.eye(len(anchors), dtype=bool)].min()
    assert min_dist >= 6 * cfg.sigma  # the oracle's separation precondition
    train, val = train_val_pair(cfg, val_samples=500)
    assert _linear_probe_accuracy(train, val) >= 0.99


def test_label_noise_caps_any_model():
    from flipxfer.models import ModelSpec
    from flipxfer.zoo import TrainConfig, train_model

    cfg = SyntheticConfig(
        classes=10, samples=1000, dims=12, modes_per_class=1, seed=5,
        sigma=0.4, anchor_scale=6.0, label_noise=0.2,
    )
    train, val = train_val_pair(cfg, val_samples=1000)
    spec = ModelSpec(family="mlp", depth=2, input_shape=(12,), num_classes=10, width=32)
    ck = train_model(spec, TrainConfig(epochs=30, lr=0.1), train, val)
    # noise ceiling: 0.8 + 0.2/c (+ margin for finite-sample fluctuation)
    assert ck.meta["val_accuracy"] <= 0.84


def test_same_config_same_bytes():
    cfg = SyntheticConfig(classes=4, samples=80, dims=6, modes_per_class=2, seed=11, label_noise=0.1)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_balanced_class_counts_before_noise():
    cfg = SyntheticConfig(classes=5, samples=200, dims=4, seed=0)
    ds = generate_synthetic(cfg)
    assert np.array_equal(np.bincount(ds.labels, minlength=5), np.full(5, 40))


def test_image_variant_shapes_and_jitter_determinism():
    cfg = SyntheticConfig(classes=3, samples=30, image_size=8, modes_per_class=2, seed=1)
    ds = generate_synthetic(cfg)
    assert ds.inputs.shape == (30, 1, 8, 8)
    again = generate_synthetic(cfg)
    assert np.array_equal(ds.inputs, again.inputs)


@pytest.mark.parametrize("modes", [1, 4])
@pytest.mark.parametrize("size", [3, 8])
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_image_draw_is_byte_equal_to_per_sample_shift_loop(modes, size, noise):
    cfg = SyntheticConfig(
        classes=3, samples=150, image_size=size, modes_per_class=modes, label_noise=noise, seed=5, anchor_seed=9
    )
    ds = generate_synthetic(cfg)
    inputs, labels = reference_generate_synthetic(cfg)
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 8])
@pytest.mark.parametrize("modes", [1, 4])
@pytest.mark.parametrize("scale", [0.0, 1.5])
def test_templates_are_byte_equal_to_per_template_loop(size, modes, scale):
    # size 1 hits the 1e-12 std floor; scale 0 keeps each zero's sign
    cfg = SyntheticConfig(
        classes=3, samples=3, image_size=size, modes_per_class=modes, anchor_scale=scale, seed=4, anchor_seed=11
    )
    anchors = class_anchors(cfg)
    assert anchors.shape == (3, modes, size, size)
    assert anchors.tobytes() == reference_class_anchors(cfg).tobytes()


def test_rejects_fewer_than_two_classes():
    with pytest.raises(DataError):
        SyntheticConfig(classes=1, samples=10, dims=4)


def test_train_val_share_anchor_geometry():
    cfg = SyntheticConfig(classes=4, samples=40, dims=8, seed=2)
    train_cfg_anchors = class_anchors(cfg)
    train, val = train_val_pair(cfg, val_samples=80)
    assert train.n == 40 and val.n == 80
    assert np.array_equal(
        train_cfg_anchors, class_anchors(SyntheticConfig(classes=4, samples=80, dims=8, seed=3, anchor_seed=2))
    )


# ---------------------------------------------------------------------------
# IDX ingestion


def _write_idx_pair(tmp_path, pixels: np.ndarray, labels: list[int]):
    n, rows, cols = pixels.shape
    imgs = tmp_path / "images.idx"
    lbls = tmp_path / "labels.idx"
    imgs.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    )
    lbls.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + bytes(labels))
    return imgs, lbls


def test_idx_fixture_round_trip(tmp_path):
    # two 2x3 images built by hand from the format layout
    pixels = np.array(
        [[[0, 51, 102], [153, 204, 255]], [[255, 0, 255], [0, 255, 0]]], dtype=np.uint8
    )
    imgs, lbls = _write_idx_pair(tmp_path, pixels, [1, 0])
    ds = load_idx(imgs, lbls)
    assert ds.n == 2
    assert ds.inputs.shape == (2, 1, 2, 3)
    assert np.array_equal(ds.labels, [1, 0])
    assert ds.inputs.max() == 1.0 and ds.inputs.min() == 0.0
    assert ds.inputs[0, 0, 0, 1] == pytest.approx(51 / 255)


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    imgs, lbls = _write_idx_pair(tmp_path, pixels, [0, 1, 1])
    with pytest.raises(DataError, match="3 labels for 2 images"):
        load_idx(imgs, lbls)


def test_idx_empty_file_is_truncation(tmp_path):
    empty = tmp_path / "empty.idx"
    empty.write_bytes(b"")
    lbls = tmp_path / "labels.idx"
    lbls.write_bytes(struct.pack(">II", 0x00000801, 0))
    with pytest.raises(DataError, match="empty.idx: truncated before magic"):
        load_idx(empty, lbls)


def test_idx_bad_magic(tmp_path):
    imgs = tmp_path / "images.idx"
    imgs.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
    lbls = tmp_path / "labels.idx"
    lbls.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(DataError, match="magic 0xdeadbeef, expected 0x00000803"):
        load_idx(imgs, lbls)


def test_idx_truncated_pixels(tmp_path):
    imgs = tmp_path / "images.idx"
    imgs.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(5))  # needs 8
    lbls = tmp_path / "labels.idx"
    lbls.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
    with pytest.raises(DataError, match="images.idx: payload shorter than 2x2x2 pixels"):
        load_idx(imgs, lbls)


# ---------------------------------------------------------------------------
# stratified subsampling


def _toy_dataset(per_class: int, classes: int = 10) -> Dataset:
    n = per_class * classes
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(classes), per_class)
    return Dataset(rng.normal(size=(n, 3)), labels, classes)


def test_subsample_ten_percent_of_130_is_13_per_class():
    ds = _toy_dataset(per_class=130)
    sub = stratified_subsample(ds, 0.1, seed=4)
    assert np.array_equal(np.bincount(sub.labels, minlength=10), np.full(10, 13))


def test_subsample_fraction_one_is_a_per_class_permutation():
    ds = _toy_dataset(per_class=7, classes=3)
    sub = stratified_subsample(ds, 1.0, seed=9)
    assert sub.n == ds.n
    for k in range(3):
        orig = ds.inputs[ds.labels == k]
        got = sub.inputs[sub.labels == k]
        orig_sorted = orig[np.lexsort(orig.T)]
        got_sorted = got[np.lexsort(got.T)]
        assert np.array_equal(orig_sorted, got_sorted)


def test_subsample_minimum_one_per_class():
    ds = _toy_dataset(per_class=3, classes=4)
    sub = stratified_subsample(ds, 0.05, seed=0)
    assert np.array_equal(np.bincount(sub.labels, minlength=4), np.ones(4))


def test_subsample_deterministic():
    ds = _toy_dataset(per_class=20)
    a = stratified_subsample(ds, 0.3, seed=5)
    b = stratified_subsample(ds, 0.3, seed=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_subsample_empty_class_errors():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), num_classes=3)
    with pytest.raises(DataError):
        stratified_subsample(ds, 0.5, seed=0)


def test_subsample_rejects_bad_fraction():
    ds = _toy_dataset(per_class=5, classes=2)
    with pytest.raises(DataError):
        stratified_subsample(ds, 0.0, seed=0)


def test_epoch_permutation_pure_function():
    a = epoch_permutation(100, seed=7, epoch=3)
    b = epoch_permutation(100, seed=7, epoch=3)
    c = epoch_permutation(100, seed=7, epoch=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(np.sort(a), np.arange(100))


def test_every_new_set_starts_with_an_empty_memo_outside_repr_and_equality():
    """``Dataset.correct``, the memo of val forwards, belongs to one set: a
    subset, a stratified subsample and a set built on the same arrays start
    empty, and neither ``repr`` nor ``==`` sees what the memo holds."""
    ds = generate_synthetic(SyntheticConfig(classes=3, samples=30, dims=4, seed=1))
    ds.correct["digest"] = np.ones(ds.n, dtype=bool)
    same = Dataset(ds.inputs, ds.labels, ds.num_classes)
    for new in (ds.subset(np.arange(10)), stratified_subsample(ds, 0.5, seed=0), same):
        assert new.correct == {}
    assert same == ds
    assert "correct" not in repr(ds) and "digest" not in repr(ds)
