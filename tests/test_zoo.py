import dataclasses
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import flipxfer
from flipxfer.data import Dataset, SyntheticConfig, train_val_pair
from flipxfer.models import ModelSpec, load, predict_classes, predict_logits, save
from flipxfer.zoo import (
    ManifestError,
    PairFilter,
    TrainConfig,
    ZooEntry,
    ZooManifest,
    _work,
    load_manifest,
    pair_grid,
    pretrain_zoo,
    save_manifest,
    spread_pairs,
    train_model,
)


@pytest.fixture(scope="module")
def small_sets():
    cfg = SyntheticConfig(
        classes=10, samples=600, image_size=8, modes_per_class=2,
        label_noise=0.02, seed=21, anchor_seed=22, sigma=1.0, anchor_scale=1.8,
    )
    return train_val_pair(cfg, val_samples=400)


S = (1, 8, 8)


def _six_model_jobs():
    return [
        (ModelSpec("mlp", 2, S, 10, width=40), TrainConfig(epochs=8, lr=0.06, init_seed=1, order_seed=1)),
        (ModelSpec("mlp", 2, S, 10, width=16), TrainConfig(epochs=6, lr=0.05, init_seed=2, order_seed=2)),
        (ModelSpec("mlp", 2, S, 10, width=6), TrainConfig(epochs=4, lr=0.05, init_seed=3, order_seed=3)),
        (ModelSpec("cnn", 2, S, 10, channels=(10, 10)), TrainConfig(epochs=8, lr=0.06, init_seed=4, order_seed=4)),
        (ModelSpec("cnn", 2, S, 10, channels=(6, 6)), TrainConfig(epochs=6, lr=0.05, init_seed=5, order_seed=5)),
        (ModelSpec("cnn", 1, S, 10, channels=(4,)), TrainConfig(epochs=4, lr=0.05, init_seed=6, order_seed=6)),
    ]


@pytest.fixture(scope="module")
def six_model_zoo(small_sets, tmp_path_factory):
    train, val = small_sets
    out = tmp_path_factory.mktemp("zoo6")
    manifest, checkpoints = pretrain_zoo(_six_model_jobs(), train, val)
    for e in manifest.ok_entries():
        save(checkpoints[e.name], out / e.path)
    save_manifest(manifest, out / "manifest.json")
    return dataclasses.replace(manifest, root=str(out)), train, val


def test_six_models_accuracy_band_and_spread(six_model_zoo):
    manifest, _, _ = six_model_zoo
    accs = [e.val_accuracy for e in manifest.ok_entries()]
    assert len(accs) == 6
    assert all(0.1 < a < 1.0 for a in accs)  # above chance, below perfect
    assert max(accs) - min(accs) >= 0.02  # varied widths force a spread


def test_manifest_sorted_by_family_then_accuracy(six_model_zoo):
    manifest, _, _ = six_model_zoo
    keys = [(e.family, e.val_accuracy) for e in manifest.entries]
    assert keys == sorted(keys)


def test_manifest_accuracy_matches_recomputation(six_model_zoo):
    manifest, _, val = six_model_zoo
    for e in manifest.ok_entries():
        ck = manifest.load_checkpoint(e.name)
        acc = float((np.argmax(predict_logits(ck, val.inputs), axis=1) == val.labels).mean())
        assert abs(acc - e.val_accuracy) < 1e-12


def test_manifest_round_trip(six_model_zoo, tmp_path):
    manifest, _, _ = six_model_zoo
    import os
    back = load_manifest(os.path.join(manifest.root, "manifest.json"))
    assert [e.name for e in back.entries] == [e.name for e in manifest.entries]
    assert [e.val_accuracy for e in back.entries] == [e.val_accuracy for e in manifest.entries]


def test_utf16_manifest_is_a_manifest_error_naming_the_file(six_model_zoo, tmp_path):
    """A manifest is UTF-8, as a config is; a UTF-16 one once loaded."""
    manifest, _, _ = six_model_zoo
    with open(os.path.join(manifest.root, "manifest.json"), encoding="utf-8") as f:
        text = f.read()
    path = tmp_path / "manifest.json"
    path.write_bytes(text.encode("utf-16"))
    assert json.loads(path.read_bytes())["entries"]  # the document itself is whole
    with pytest.raises(ManifestError, match="not UTF-8 text") as exc:
        load_manifest(str(path))
    assert str(path) in str(exc.value)


def test_zero_epochs_is_chance_level(small_sets):
    train, val = small_sets
    spec = ModelSpec("mlp", 2, S, 10, width=16)
    ck = train_model(spec, TrainConfig(epochs=0), train, val)
    assert abs(ck.meta["val_accuracy"] - 0.1) <= 0.05


def test_training_deterministic(small_sets):
    train, val = small_sets
    spec = ModelSpec("mlp", 2, S, 10, width=12)
    cfg = TrainConfig(epochs=3, lr=0.05, init_seed=9, order_seed=9)
    a = train_model(spec, cfg, train, val)
    b = train_model(spec, cfg, train, val)
    assert a.meta["val_accuracy"] == b.meta["val_accuracy"]
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


@pytest.mark.parametrize("dropout, want", [(0.0, "e94b1ea4267c3a55"), (0.1, "303064b73125c69c")])
def test_cnn_training_bits_are_pinned(small_sets, dropout, want):
    """Two conv layers, input noise and (at 0.1) dropout give fixed checkpoint
    bits, whatever memory layout conv2d works in. The digests assume the
    numpy pinned in CI (numpy==2.4.6), whose einsum and reductions fix the
    sum order."""
    train, val = small_sets
    spec = ModelSpec("cnn", 2, S, 10, channels=(8, 6), dropout=dropout)
    cfg = TrainConfig(epochs=2, batch_size=32, lr=0.1, augment_noise=0.1, init_seed=7, order_seed=8)
    assert train_model(spec, cfg, train, val).digest() == want


def test_distinct_seeds_distinct_parameters(small_sets):
    train, val = small_sets
    spec = ModelSpec("mlp", 2, S, 10, width=12)
    a = train_model(spec, TrainConfig(epochs=2, init_seed=1, order_seed=1), train, val)
    b = train_model(spec, TrainConfig(epochs=2, init_seed=2, order_seed=1), train, val)
    assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_divergent_training_marked_failed(small_sets):
    train, val = small_sets
    jobs = [
        (ModelSpec("mlp", 2, S, 10, width=8), TrainConfig(epochs=2, lr=0.05, init_seed=1, order_seed=1)),
        (ModelSpec("mlp", 2, S, 10, width=8), TrainConfig(epochs=4, lr=1e9, init_seed=2, order_seed=2)),
    ]
    manifest, checkpoints = pretrain_zoo(jobs, train, val)
    failed = [e for e in manifest.entries if e.failed]
    assert len(failed) == 1
    assert "non-finite" in failed[0].error
    assert len(manifest.ok_entries()) == 1
    assert set(checkpoints) == {e.name for e in manifest.ok_entries()}  # no checkpoint for a failure


def test_work_counts_multiply_adds_per_sample_times_epochs():
    """The pool starts the largest training first by this estimate: an affine
    layer costs its weights, a same-padded 3x3 conv its weights per pixel."""
    mlp = ModelSpec("mlp", 3, S, 10, width=16)
    cnn = ModelSpec("cnn", 2, S, 10, channels=(4, 6))
    assert _work(mlp, TrainConfig(epochs=3)) == 3 * (64 * 16 + 16 * 16 + 16 * 10)
    assert _work(cnn, TrainConfig(epochs=2)) == 2 * (64 * (4 * 1 * 9 + 6 * 4 * 9) + 6 * 10)
    assert _work(mlp, TrainConfig(epochs=0)) == 0


# Trains a CNN for the given epochs and an MLP on the given usable CPUs, and
# prints the minor faults the zoo took in the process that trained it: the
# reaped pool workers, or this process with one CPU.
_ZOO_FAULTS = """
import os, resource, sys
cpus, cnn_epochs = map(int, sys.argv[1:])
os.sched_getaffinity = lambda pid: set(range(cpus))
from flipxfer.data import Dataset, SyntheticConfig, train_val_pair
from flipxfer.models import ModelSpec
from flipxfer.zoo import TrainConfig, pretrain_zoo

S = (1, 8, 8)
train, val = train_val_pair(
    SyntheticConfig(classes=10, samples=1000, image_size=8, modes_per_class=2, seed=21, anchor_seed=22), val_samples=200
)
who = resource.RUSAGE_SELF if cpus == 1 else resource.RUSAGE_CHILDREN
before = resource.getrusage(who).ru_minflt
pretrain_zoo([
    (ModelSpec("cnn", 3, S, 10, channels=(8, 8, 8)), TrainConfig(epochs=cnn_epochs, lr=0.04, init_seed=1, order_seed=1)),
    (ModelSpec("mlp", 2, S, 10, width=32), TrainConfig(epochs=1, lr=0.06, init_seed=2, order_seed=2)),
], train, val)
print(resource.getrusage(who).ru_minflt - before)
"""


def _zoo_faults(cpus: int, cnn_epochs: int) -> int:
    """Each run is in a fresh interpreter, whose allocator has not yet seen a CNN."""
    src = os.path.dirname(os.path.dirname(flipxfer.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-c", _ZOO_FAULTS, str(cpus), str(cnn_epochs)]
    return int(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="workers set glibc's malloc thresholds")
def test_pool_workers_do_not_page_fault_each_cnn_training_step():
    """A forked worker keeps a CNN step's freed temporaries (about 8 MB at
    batch 64) for the next step, so two more epochs add almost no minor
    faults; with glibc's default thresholds they added about 1.5k per step."""
    one_epoch, three_epochs = _zoo_faults(2, 1), _zoo_faults(2, 3)
    assert three_epochs - one_epoch < 5000, (one_epoch, three_epochs)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the pool sets glibc's malloc thresholds")
def test_a_zoo_on_one_cpu_does_not_page_fault_each_cnn_training_step():
    """With one usable CPU the zoo trains in this process, which keeps freed
    memory as a pool worker does, so two more epochs add almost no faults."""
    one_epoch, three_epochs = _zoo_faults(1, 1), _zoo_faults(1, 3)
    assert three_epochs - one_epoch < 5000, (one_epoch, three_epochs)


def test_plateau_early_exit_runs(small_sets):
    train, val = small_sets
    spec = ModelSpec("mlp", 2, S, 10, width=12)
    ck = train_model(spec, TrainConfig(epochs=30, lr=0.05, plateau_patience=2), train, val)
    assert 0.1 < ck.meta["val_accuracy"] < 1.0


@pytest.mark.parametrize("epochs", [0, 30])
def test_plateau_reports_the_last_epochs_accuracy(small_sets, monkeypatch, epochs):
    """One val forward per epoch run; the final accuracy reuses the last."""
    import flipxfer.transfer as transfer

    train, val = small_sets
    val = Dataset(val.inputs, val.labels, val.num_classes)  # an empty memo: no earlier training's forwards
    calls, epochs_run = [], []

    def counted(ck, batch):
        calls.append(batch is val.inputs)
        return predict_classes(ck, batch)

    def shuffle(n, seed, epoch, permutation=transfer.epoch_permutation):
        epochs_run.append(epoch)
        return permutation(n, seed, epoch)

    monkeypatch.setattr(transfer, "predict_classes", counted)
    monkeypatch.setattr(transfer, "epoch_permutation", shuffle)
    ck = train_model(ModelSpec("mlp", 2, S, 10, width=12), TrainConfig(epochs=epochs, lr=0.05, plateau_patience=2),
                     train, val)
    assert sum(calls) == len(calls) == max(len(epochs_run), 1)
    assert len(epochs_run) < max(epochs, 1)  # the plateau stopped it early
    assert ck.meta["val_accuracy"] == float((np.argmax(predict_logits(ck, val.inputs), axis=1) == val.labels).mean())


# ---------------------------------------------------------------------------
# pair grid


def test_six_models_give_thirty_ordered_pairs(six_model_zoo):
    manifest, _, _ = six_model_zoo
    assert len(pair_grid(manifest)) == 30


def test_pair_grid_excludes_self_pairs(six_model_zoo):
    manifest, _, _ = six_model_zoo
    assert all(t.name != s.name for t, s in pair_grid(manifest))


def test_pair_grid_weaker_teacher_filter(six_model_zoo):
    manifest, _, _ = six_model_zoo
    pairs = pair_grid(manifest, PairFilter(delta_acc_max=-1e-12))
    assert pairs
    assert all(t.val_accuracy < s.val_accuracy for t, s in pairs)


def test_pair_grid_family_filter(six_model_zoo):
    manifest, _, _ = six_model_zoo
    pairs = pair_grid(manifest, PairFilter(teacher_family="cnn", student_family="mlp"))
    assert len(pairs) == 9
    assert all(t.family == "cnn" and s.family == "mlp" for t, s in pairs)


def test_pair_grid_empty_result_is_empty_not_error(six_model_zoo):
    manifest, _, _ = six_model_zoo
    assert pair_grid(manifest, PairFilter(delta_acc_min=5.0)) == []


def _manifest_of(accs: dict[str, float]) -> ZooManifest:
    return ZooManifest([ZooEntry(n, f"{n}.ckpt", "", "mlp", {}, a, 0) for n, a in accs.items()])


def _names(pairs):
    return [(t.name, s.name) for t, s in pairs]


def test_spread_pairs_keeps_k_distinct_pairs_in_delta_acc_order_with_both_ends():
    pairs = pair_grid(_manifest_of({"a": 0.5, "b": 0.61, "c": 0.37, "d": 0.8, "e": 0.72}))
    ranked = sorted(pairs, key=lambda p: (p[0].val_accuracy - p[1].val_accuracy, p[0].name, p[1].name))
    kept = spread_pairs(pairs, 6)
    assert _names(kept) == _names(ranked[i] for i in (0, 4, 8, 11, 15, 19))  # linspace(0, 19, 6), rounded
    assert len(set(_names(kept))) == 6
    assert _names(kept[::5]) == _names(ranked[::19])  # the lowest and the highest delta_acc


def test_spread_pairs_breaks_delta_acc_ties_by_teacher_then_student_name():
    pairs = pair_grid(_manifest_of({"c": 0.5, "a": 0.5, "b": 0.5}))
    assert _names(spread_pairs(pairs, 2)) == [("a", "b"), ("c", "b")]
    assert _names(spread_pairs(pairs[::-1], 3)) == [("a", "b"), ("b", "a"), ("c", "b")]


@pytest.mark.parametrize("k", [20, 21])
def test_spread_pairs_keeps_every_pair_in_the_given_order_from_k_pairs_up(k):
    pairs = pair_grid(_manifest_of({"a": 0.5, "b": 0.61, "c": 0.37, "d": 0.8, "e": 0.72}))
    assert _names(spread_pairs(pairs, k)) == _names(pairs)
