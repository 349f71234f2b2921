import json
import os
import pathlib
import re
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipxfer import models
from flipxfer.cli import main
from flipxfer.zoo import ManifestError, load_manifest

from oracles import brute_force_flips


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _dataset_section():
    return {
        "synthetic": {
            "classes": 4,
            "dims": 8,
            "modes_per_class": 2,
            "label_noise": 0.02,
            "sigma": 1.0,
            "anchor_scale": 2.5,
            "anchor_seed": 5,
            "train": {"samples": 240, "seed": 1},
            "val": {"samples": 200, "seed": 2},
        },
        "subsample_fraction": 1.0,
        "subsample_seed": 0,
    }


def _zoo_config(out):
    return {
        "dataset": _dataset_section(),
        "zoo": {
            "models": [
                {"name": "wide", "family": "mlp", "depth": 2, "width": 24,
                 "train": {"epochs": 6, "lr": 0.06, "init_seed": 1, "order_seed": 1}},
                {"name": "mid", "family": "mlp", "depth": 2, "width": 10,
                 "train": {"epochs": 4, "lr": 0.05, "init_seed": 2, "order_seed": 2}},
                {"name": "narrow", "family": "mlp", "depth": 2, "width": 4,
                 "train": {"epochs": 3, "lr": 0.05, "init_seed": 3, "order_seed": 3}},
            ]
        },
        "out": str(out),
    }


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_zoo")
    cfg = tmp_path_factory.mktemp("cfg") / "zoo.json"
    assert main(["zoo", "--config", _write(cfg, _zoo_config(out))]) == 0
    return out


def test_zoo_minimal_config_writes_manifest(zoo_dir):
    doc = json.loads((zoo_dir / "manifest.json").read_text())
    assert len(doc["entries"]) == 3
    assert all((zoo_dir / e["path"]).exists() for e in doc["entries"])
    assert (zoo_dir / "config.resolved.json").exists()


def test_zoo_rerun_identical_manifest(zoo_dir, tmp_path):
    out2 = tmp_path / "zoo2"
    cfg = tmp_path / "zoo.json"
    assert main(["zoo", "--config", _write(cfg, _zoo_config(out2))]) == 0
    a = json.loads((zoo_dir / "manifest.json").read_text())
    b = json.loads((out2 / "manifest.json").read_text())
    assert [e["val_accuracy"] for e in a["entries"]] == [e["val_accuracy"] for e in b["entries"]]


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"dataset": [,}')
    assert main(["zoo", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "weird.json"
    doc = _zoo_config(tmp_path / "out")
    doc["zoos"] = {}
    assert main(["zoo", "--config", _write(cfg, doc)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["zoo", "--config", "/nonexistent/cfg.json"]) == 2


def test_non_utf8_config_exits_2_naming_file(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(_zoo_config(tmp_path / "out")).encode("utf-16-le"))
    assert main(["zoo", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "not UTF-8 text" in err


def test_zoo_divergent_training_exits_3_but_writes_manifest(tmp_path, capsys):
    out = tmp_path / "zoo"
    doc = {
        "dataset": {
            "synthetic": {
                "classes": 10, "image_size": 8, "modes_per_class": 2,
                "label_noise": 0.02, "sigma": 1.0, "anchor_scale": 1.8,
                "anchor_seed": 22,
                "train": {"samples": 600, "seed": 21}, "val": {"samples": 400, "seed": 22},
            },
        },
        "zoo": {"models": [
            {"name": "fine", "family": "mlp", "depth": 2, "width": 16,
             "train": {"epochs": 2, "lr": 0.05, "init_seed": 1, "order_seed": 1}},
            {"name": "hot", "family": "mlp", "depth": 2, "width": 8,
             "train": {"epochs": 4, "lr": 1e9, "init_seed": 2, "order_seed": 2}},
        ]},
        "out": str(out),
    }
    cfg = tmp_path / "zoo.json"
    assert main(["zoo", "--config", _write(cfg, doc)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["entries"]) == 2
    assert sum(e["failed"] for e in manifest["entries"]) == 1
    assert "diverged" in capsys.readouterr().err


def _diverged_zoo_config(out):
    """Two 16-sample MLPs; b's step size makes it diverge, so a is the only trained model."""
    dataset = {"synthetic": {"classes": 2, "dims": 4, "train": {"samples": 16, "seed": 1},
                             "val": {"samples": 16, "seed": 2}}}
    models = [{"name": "a", "family": "mlp", "depth": 2, "width": 4, "train": {"epochs": 2}},
              {"name": "b", "family": "mlp", "depth": 2, "width": 3, "train": {"epochs": 2, "lr": 1e200}}]
    return {"dataset": dataset, "zoo": {"models": models}, "out": str(out)}


@pytest.fixture(scope="module")
def diverged_zoo(tmp_path_factory):
    out = tmp_path_factory.mktemp("diverged_zoo")
    cfg = tmp_path_factory.mktemp("cfg") / "zoo.json"
    assert main(["zoo", "--config", _write(cfg, _diverged_zoo_config(out))]) == 3
    return out


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_diverged_zoo_manifest_is_strict_json_with_a_null_accuracy(diverged_zoo):
    doc = json.loads((diverged_zoo / "manifest.json").read_text(), parse_constant=_reject_constant)
    entries = {e["name"]: e for e in doc["entries"]}
    assert entries["b"]["failed"] and entries["b"]["val_accuracy"] is None
    assert not entries["a"]["failed"] and 0.0 <= entries["a"]["val_accuracy"] <= 1.0


def test_manifest_with_a_nan_accuracy_is_rejected_naming_the_file(diverged_zoo, tmp_path):
    """NaN is not JSON, so a manifest holding it is malformed."""
    zoo = _copy_zoo(diverged_zoo, tmp_path / "zoo")
    text = (zoo / "manifest.json").read_text().replace('"val_accuracy": null', '"val_accuracy": NaN')
    assert "NaN" in text
    (zoo / "manifest.json").write_text(text)
    with pytest.raises(ManifestError, match=f"^{re.escape(str(zoo / 'manifest.json'))}: NaN is not JSON"):
        load_manifest(zoo / "manifest.json")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_config_with_a_non_finite_number_exits_2_naming_file(tmp_path, capsys, token):
    cfg = tmp_path / "zoo.json"
    doc = _zoo_config(tmp_path / "out")
    doc["zoo"]["models"][0]["train"]["lr"] = "@"
    cfg.write_text(json.dumps(doc).replace('"@"', token))
    assert main(["zoo", "--config", str(cfg)]) == 2
    assert f"error: {cfg}: {token} is not JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["flips", "sweep"])
def test_pairs_of_a_zoo_with_one_trained_model_exit_3_naming_its_models(diverged_zoo, tmp_path, capsys, command):
    manifest = diverged_zoo / "manifest.json"
    doc = {"manifest": str(manifest), "dataset": _diverged_zoo_config("unused")["dataset"], "out": str(tmp_path / "out")}
    if command == "sweep":
        doc["sweep"] = {"methods": ["kl"]}
    assert main([command, "--config", _write(tmp_path / "cfg.json", doc)]) == 3
    err = capsys.readouterr().err
    assert f"error: {manifest}: pairs need at least 2 trained models; trained: ['a'], failed: ['b']" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("transfer, key", [
    ({"teacher": "b", "student": "a"}, "transfer.teacher"),
    ({"teacher": "a", "student": "b"}, "transfer.student"),
    ({"student": "a", "multi": {"mode": "parallel", "teachers": ["a", "b"]}}, "transfer.multi.teachers[1]"),
], ids=["teacher", "student", "multi_teacher"])
def test_transfer_naming_a_failed_model_exits_2_with_its_error(diverged_zoo, tmp_path, capsys, transfer, key):
    doc = {"manifest": str(diverged_zoo / "manifest.json"), "dataset": _diverged_zoo_config("unused")["dataset"],
           "transfer": {"method": "kl", **transfer}, "out": str(tmp_path / "out")}
    assert main(["transfer", "--config", _write(tmp_path / "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: model 'b' failed to train (b: non-finite loss" in err
    assert "trained models: ['a']" in err
    assert not (tmp_path / "out").exists()


def test_zoo_with_a_non_finite_gradient_records_the_model_failed_and_exits_3(tmp_path, capsys):
    """a's loss stays finite while the gradient of its fc2.w overflows: a is
    recorded failed, naming the epoch and the parameter, and b still trains."""
    out = tmp_path / "zoo"
    dataset = {"synthetic": {"classes": 4, "dims": 8, "anchor_scale": 50,
                             "train": {"samples": 32, "seed": 1}, "val": {"samples": 16, "seed": 2}}}
    models = [{"name": "a", "family": "mlp", "depth": 3, "width": 5,
               "train": {"epochs": 4, "lr": 1e101, "batch_size": 8, "weight_decay": 0}},
              {"name": "b", "family": "mlp", "depth": 2, "width": 4, "train": {"epochs": 2}}]
    doc = {"dataset": dataset, "zoo": {"models": models}, "out": str(out)}
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", doc)]) == 3
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    entries = {e["name"]: e for e in manifest["entries"]}
    assert entries["a"]["failed"] and entries["a"]["val_accuracy"] is None
    assert entries["a"]["error"] == "a: non-finite gradient of parameter 'fc2.w' at epoch 3, step 1"
    assert not entries["b"]["failed"] and 0.0 <= entries["b"]["val_accuracy"] <= 1.0
    assert (out / "b.ckpt").exists() and not (out / "a.ckpt").exists()
    assert "error: 1 trainings diverged: a" in capsys.readouterr().err


def test_zoo_training_whose_update_overflows_a_parameter_records_the_model_failed(tmp_path, capsys):
    """One step at lr 1e308: a's loss and gradient are finite, but its update
    overflows fc1.w. a is recorded failed rather than kept with an infinite
    parameter, b still trains, and the run's files are all written."""
    out = tmp_path / "zoo"
    dataset = {"synthetic": {"classes": 4, "dims": 8, "anchor_scale": 50,
                             "train": {"samples": 32, "seed": 1}, "val": {"samples": 16, "seed": 2}}}
    models = [{"name": "a", "family": "mlp", "depth": 2, "width": 5,
               "train": {"epochs": 1, "lr": 1e308, "batch_size": 32, "weight_decay": 0}},
              {"name": "b", "family": "mlp", "depth": 2, "width": 4, "train": {"epochs": 2}}]
    doc = {"dataset": dataset, "zoo": {"models": models}, "out": str(out)}
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", doc)]) == 3
    entries = {e["name"]: e for e in json.loads((out / "manifest.json").read_text())["entries"]}
    assert entries["a"]["failed"] and entries["a"]["val_accuracy"] is None
    assert entries["a"]["error"] == "a: non-finite parameter 'fc1.w' after its update at epoch 0, step 0"
    assert not entries["b"]["failed"]
    assert sorted(p.name for p in out.iterdir()) == ["b.ckpt", "config.resolved.json", "manifest.json"]
    assert "error: 1 trainings diverged: a" in capsys.readouterr().err


def _pool_zoo_config(out):
    """A model that diverges, a CNN and a dropout MLP, the CNN the largest training."""
    dataset = {"synthetic": {"classes": 4, "image_size": 4, "anchor_scale": 50,
                             "train": {"samples": 32, "seed": 1}, "val": {"samples": 16, "seed": 2}}}
    models = [{"name": "a", "family": "mlp", "depth": 3, "width": 5,
               "train": {"epochs": 4, "lr": 1e101, "batch_size": 8, "weight_decay": 0}},
              {"name": "c", "family": "cnn", "depth": 2, "channels": [3, 2],
               "train": {"epochs": 2, "batch_size": 8, "augment_noise": 0.1}},
              {"name": "d", "family": "mlp", "depth": 2, "width": 6, "dropout": 0.25,
               "train": {"epochs": 3, "batch_size": 8, "init_seed": 3, "order_seed": 4}}]
    return {"dataset": dataset, "zoo": {"models": models}, "out": str(out)}


def test_zoo_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    """With one usable CPU the zoo trains in this process, with two in two
    worker processes; either way the CNN starts first, and the out trees
    (checkpoints, manifest and its entry order, resolved config) are equal."""
    import flipxfer.zoo as zoo

    calls = tmp_path / "calls"
    train = zoo.train_model

    def logged(*args, **kwargs):
        with open(calls, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {kwargs['name']}\n")
        return train(*args, **kwargs)

    monkeypatch.setattr(zoo, "train_model", logged)
    cfg = _write(tmp_path / "zoo.json", _pool_zoo_config(tmp_path / "out"))
    trees, runs = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        calls.write_text("")
        assert main(["zoo", "--config", cfg]) == 3
        trees.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
        shutil.rmtree(tmp_path / "out")
        runs.append([line.split() for line in calls.read_text().splitlines()])
    in_process, pooled = runs
    assert in_process == [[str(os.getpid()), name] for name in ("c", "a", "d")]
    assert sorted(name for _, name in pooled) == ["a", "c", "d"]
    assert str(os.getpid()) not in {pid for pid, _ in pooled}
    assert trees[0] == trees[1]
    manifest = json.loads(trees[0]["manifest.json"])
    assert [(e["name"], e["failed"]) for e in manifest["entries"]] == [("c", False), ("a", True), ("d", False)]
    assert sorted(trees[0]) == ["c.ckpt", "config.resolved.json", "d.ckpt", "manifest.json"]


def test_zoo_rerun_that_fails_mid_training_leaves_out_unchanged(tmp_path, monkeypatch, capsys):
    """Checkpoints are written only at the commit, so a training that raises
    after an earlier model has finished leaves the previous run's files as
    they were, whether the zoo trains in this process or in workers."""
    import flipxfer.zoo as zoo

    out = tmp_path / "zoo"
    conf = _zoo_config(out)
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", conf)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    conf["zoo"]["models"][0]["train"]["epochs"] += 1  # "wide", the first model trained, changes
    train = zoo.train_model

    def mid_fails(*args, **kwargs):
        if kwargs["name"] == "mid":
            raise OSError("disk full")
        return train(*args, **kwargs)

    monkeypatch.setattr(zoo, "train_model", mid_fails)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        assert main(["zoo", "--config", _write(tmp_path / "zoo2.json", conf)]) == 3
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_zoo_whose_worker_dies_exits_3_leaving_out_unchanged(tmp_path, monkeypatch, capsys):
    """A worker that ends without returning its training (here by
    ``os._exit``, as when the kernel kills it) is a runtime failure that
    names its cause, not a traceback, and nothing is committed."""
    import flipxfer.zoo as zoo

    out = tmp_path / "zoo"
    conf = _zoo_config(out)
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", conf)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    conf["zoo"]["models"][0]["train"]["epochs"] += 1  # a committed rerun would rewrite "wide"
    train, parent = zoo.train_model, os.getpid()

    def mid_dies(*args, **kwargs):
        if kwargs["name"] == "mid" and os.getpid() != parent:
            os._exit(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(zoo, "train_model", mid_dies)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    capsys.readouterr()
    assert main(["zoo", "--config", _write(tmp_path / "zoo2.json", conf)]) == 3
    assert "error: a worker process ended before returning its task" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command, flag", [
    ("zoo", "--seed"), ("zoo", "--jobs"), ("flips", "--seed"), ("flips", "--jobs"), ("transfer", "--jobs"),
])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as e:
        main([command, "--config", str(tmp_path / "cfg.json"), flag, "1"])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flips


def _flips_config(zoo_dir, out):
    return {
        "manifest": str(zoo_dir / "manifest.json"),
        "dataset": _dataset_section(),
        "out": str(out),
    }


def test_flips_outputs(zoo_dir, tmp_path):
    out = tmp_path / "flips"
    cfg = tmp_path / "flips.json"
    assert main(["flips", "--config", _write(cfg, _flips_config(zoo_dir, out))]) == 0
    doc = json.loads((out / "flips.json").read_text())
    assert len(doc["pairs"]) == 6  # 3 models -> 6 ordered pairs, no self-pairs
    names = {(r["teacher"], r["student"]) for r in doc["pairs"]}
    assert all(t != s for t, s in names)
    csv_lines = (out / "entropy_vs_delta_acc.csv").read_text().splitlines()
    assert csv_lines[0] == "teacher,student,delta_acc,rho_pos,entropy"
    assert len(csv_lines) == 7
    assert (out / "per_class_flips.csv").exists()


def test_flips_keeps_freed_memory_before_its_first_forward(zoo_dir, tmp_path, monkeypatch):
    """``main`` lets the allocator keep freed memory before it dispatches a
    command, so flips' val forwards reuse their temporaries as training steps
    do; the SIGTERM handler it installs is gone when it returns."""
    import flipxfer.cli as cli
    import flipxfer.transfer as transfer

    events, forward = [], transfer.predict_classes
    monkeypatch.setattr(cli, "keep_freed_memory", lambda: events.append("keep"))
    monkeypatch.setattr(transfer, "predict_classes", lambda *a: events.append("forward") or forward(*a))
    before = signal.getsignal(signal.SIGTERM)
    cfg = _write(tmp_path / "flips.json", _flips_config(zoo_dir, tmp_path / "flips"))
    assert main(["flips", "--config", cfg]) == 0
    assert events[:2] == ["keep", "forward"] and events.count("keep") == 1
    assert signal.getsignal(signal.SIGTERM) is before


def test_flips_rho_matches_brute_force(zoo_dir, tmp_path):
    from flipxfer.cli import _build_datasets, _resolve_dataset
    from flipxfer.models import load, predict_logits
    from flipxfer.zoo import load_manifest

    out = tmp_path / "flips"
    cfg = tmp_path / "flips.json"
    assert main(["flips", "--config", _write(cfg, _flips_config(zoo_dir, out))]) == 0
    doc = json.loads((out / "flips.json").read_text())
    _, val = _build_datasets(_resolve_dataset(_dataset_section()))
    manifest = load_manifest(str(zoo_dir / "manifest.json"))
    for rec in doc["pairs"]:
        t = predict_logits(manifest.load_checkpoint(rec["teacher"]), val.inputs)
        s = predict_logits(manifest.load_checkpoint(rec["student"]), val.inputs)
        _, counts, rho = brute_force_flips(t, s, val.labels)
        assert rec["rho_pos"] == rho
        assert rec["per_class_counts"] == counts


def test_flips_with_embeddings_reports_semantic_similarity(zoo_dir, tmp_path):
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(4, 6)) + 1.5
    emb_path = tmp_path / "emb.csv"
    emb_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in emb) + "\n")
    out = tmp_path / "flips"
    conf = _flips_config(zoo_dir, out)
    conf["embeddings"] = str(emb_path)
    cfg = tmp_path / "flips.json"
    assert main(["flips", "--config", _write(cfg, conf)]) == 0
    doc = json.loads((out / "flips.json").read_text())
    flipped = [r for r in doc["pairs"] if r["flip_count"] > 0]
    assert flipped
    # the class with the most flips alone holds 2% of them: a one-class set has no similarity
    assert all(r["semantic_similarity"]["2"] is None for r in flipped)


def test_cli_accepts_idx_dataset(zoo_dir, tmp_path):
    import struct

    from flipxfer.cli import _build_datasets, _resolve_dataset

    rng = np.random.default_rng(3)
    n, rows, cols = 40, 2, 4
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 3, size=n).tolist()
    imgs = tmp_path / "imgs.idx"
    lbls = tmp_path / "lbls.idx"
    imgs.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    lbls.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    section = {
        "idx": {"train_images": str(imgs), "train_labels": str(lbls),
                "val_images": str(imgs), "val_labels": str(lbls)},
        "subsample_fraction": 0.5,
        "subsample_seed": 1,
    }
    train, val = _build_datasets(_resolve_dataset(section))
    assert val.n == n and train.n < n
    assert train.input_shape == (1, rows, cols)


def test_flips_missing_checkpoint_exits_3(zoo_dir, tmp_path, capsys):
    broken = tmp_path / "broken_manifest.json"
    doc = json.loads((zoo_dir / "manifest.json").read_text())
    doc["entries"][0]["path"] = "gone.ckpt"
    broken.write_text(json.dumps(doc))
    cfg = tmp_path / "flips.json"
    conf = _flips_config(zoo_dir, tmp_path / "out")
    conf["manifest"] = str(broken)
    assert main(["flips", "--config", _write(cfg, conf)]) == 3
    assert "gone.ckpt" in capsys.readouterr().err


def _entry0(change):
    def edit(doc):
        change(doc["entries"][0])
        return json.dumps(doc)
    return edit


_BAD_MANIFESTS = {
    "truncated_json": (lambda doc: json.dumps(doc)[:40], "malformed JSON at line"),
    "not_utf8": (lambda doc: "\udcff" + json.dumps(doc), "not UTF-8 text"),
    "utf16": (lambda doc: json.dumps(doc).encode("utf-16").decode("utf-8", "surrogateescape"), "not UTF-8 text"),
    "no_entries": (lambda doc: "{}", "top level: missing required key 'entries'"),
    "unknown_entry_key": (_entry0(lambda e: e.update(bogus=1)), "entries[0]: unknown keys ['bogus']"),
    "string_val_accuracy": (_entry0(lambda e: e.update(val_accuracy="0.9")), "entries[0].val_accuracy: expected float"),
    "path_leaves_dir": (_entry0(lambda e: e.update(path="../" + e["path"])), "entries[0].path:"),
    "absolute_path": (_entry0(lambda e: e.update(path="/etc/passwd")), "entries[0].path:"),
    "duplicate_name": (
        lambda doc: json.dumps({"entries": [doc["entries"][0], doc["entries"][1] | {"name": doc["entries"][0]["name"]}]}),
        "entries[1].name: duplicate entry name",
    ),
}


@pytest.mark.parametrize("edit, message", list(_BAD_MANIFESTS.values()), ids=list(_BAD_MANIFESTS))
def test_malformed_manifest_exits_3_naming_file_and_key(zoo_dir, tmp_path, capsys, edit, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(edit(json.loads((zoo_dir / "manifest.json").read_text())).encode("utf-8", "surrogateescape"))
    for ck in zoo_dir.glob("*.ckpt"):  # the entries' files, beside the manifest
        (tmp_path / ck.name).write_bytes(ck.read_bytes())
    conf = _transfer_config(zoo_dir, tmp_path / "out")
    conf["manifest"] = str(manifest)
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 3
    err = capsys.readouterr().err
    assert f"error: {manifest}: " in err and message in err


# ---------------------------------------------------------------------------
# transfer


def _transfer_config(zoo_dir, out, method="kl_dp_sup", **hp):
    return {
        "manifest": str(zoo_dir / "manifest.json"),
        "dataset": _dataset_section(),
        "transfer": {
            "method": method,
            "teacher": "wide",
            "student": "narrow",
            "hyperparams": {"lr": 0.01, "epochs": 2, "batch_size": 64, "seed": 1, **hp},
        },
        "out": str(out),
    }


def test_transfer_report_and_epochs(zoo_dir, tmp_path):
    out = tmp_path / "tr"
    cfg = tmp_path / "tr.json"
    assert main(["transfer", "--config", _write(cfg, _transfer_config(zoo_dir, out))]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "kl_dp_sup"
    assert {"delta_acc", "delta_transf", "knowledge_gain", "knowledge_loss", "hyperparams"} <= set(report)
    assert report["hyperparams"]["epochs"] == 2
    lines = (out / "per_epoch.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 epochs
    assert (out / "student_after.ckpt").exists()


def test_cd_transfer_from_a_teacher_with_zero_feature_rows_exits_0(zoo_dir, tmp_path):
    """The teacher's hidden units read only the first input, so every sample
    whose first input is not positive has an all-zero feature row: a row the
    contrastive objective divides by 1e-12, not by its norm, and stays zero."""
    from flipxfer.cli import _build_datasets, _resolve_dataset

    zoo = _copy_zoo(zoo_dir, tmp_path / "zoo")
    conf = _transfer_config(zoo, tmp_path / "out", "cd")
    teacher = zoo / f"{conf['transfer']['teacher']}.ckpt"
    ck = models.load(teacher)
    ck.params["fc1.w"][:] = 0.0
    ck.params["fc1.w"][0] = 1.0
    ck.params["fc1.b"][:] = 0.0
    models.save(ck, teacher)
    train, _ = _build_datasets(_resolve_dataset(_dataset_section()))
    zero_rows = ~models.predict_features(ck, train.inputs).any(axis=1)
    assert 0 < zero_rows.sum() < train.n
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "cd" and np.isfinite(report["delta_transf"])


def test_transfer_unknown_method_exits_2(zoo_dir, tmp_path, capsys):
    cfg = tmp_path / "tr.json"
    assert main(["transfer", "--config", _write(cfg, _transfer_config(zoo_dir, tmp_path / "o", method="fancy"))]) == 2
    err = capsys.readouterr().err
    assert "kl_dp_sup" in err and "xe_kl_mcl" in err  # lists valid methods


def _multi_config(zoo_dir, out, method="kl_dp_sup"):
    doc = _transfer_config(zoo_dir, out, method)
    doc["transfer"]["teacher"] = None
    doc["transfer"]["multi"] = {"mode": "parallel", "teachers": ["wide", "mid"]}
    return doc


_BASES = {
    "zoo": ("zoo", lambda zoo_dir, out: _zoo_config(out)),
    "flips": ("flips", _flips_config),
    "transfer": ("transfer", _transfer_config),
    "multi": ("transfer", _multi_config),
    "multi_kl": ("transfer", lambda zoo_dir, out: _multi_config(zoo_dir, out, "kl")),
    "transfer_kl": ("transfer", lambda zoo_dir, out: _transfer_config(zoo_dir, out, "kl")),
    "sweep": ("sweep", lambda zoo_dir, out: _sweep_config(zoo_dir, out)),  # defined further down
    "sweep_kl": ("sweep", lambda zoo_dir, out: _sweep_config(zoo_dir, out, methods=["kl"])),
}


def _bad(base, dotted, value):
    """A maker of a ``base`` config whose key at ``dotted`` (list indices as
    numbers) is set to ``value``; missing objects on the way are created."""
    command, config = _BASES[base]

    def make(zoo_dir, out):
        doc = config(zoo_dir, out)
        *parents, leaf = [int(k) if k.isdigit() else k for k in dotted.split(".")]
        node = doc
        for k in parents:
            node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
        node[leaf] = value
        return command, doc
    return make


_BAD_VALUES = {
    "hp_lr_negative": (_bad("transfer", "transfer.hyperparams.lr", -1), "lr"),
    "hp_lr_string": (_bad("transfer", "transfer.hyperparams.lr", "x"), "lr"),
    "hp_momentum": (_bad("transfer", "transfer.hyperparams.momentum", 1.5), "momentum"),
    "zoo_lr_negative": (_bad("zoo", "zoo.models.1.train.lr", -1), "lr"),
    "zoo_batch_size_zero": (_bad("zoo", "zoo.models.1.train.batch_size", 0), "batch_size"),
    "multi_mode": (_bad("multi", "transfer.multi.mode", "blend"), "unknown multi-teacher mode 'blend'"),
    "multi_order": (_bad("multi", "transfer.multi.order", "sideways"), "order"),
    "multi_method": (_bad("multi", "transfer.method", "xe_kl"), "xe_kl"),
    # wrong-type values: each once escaped main or ran with a changed value
    "zoo_depth_string": (_bad("zoo", "zoo.models.0.depth", "x"), "zoo.models[0].depth"),
    "zoo_width_string": (_bad("zoo", "zoo.models.0.width", "x"), "zoo.models[0].width"),
    "zoo_channels_int": (_bad("zoo", "zoo.models.0.channels", 3), "zoo.models[0].channels"),
    "synthetic_classes_string": (_bad("zoo", "dataset.synthetic.classes", "x"), "dataset.synthetic.classes"),
    "synthetic_dims_string": (_bad("zoo", "dataset.synthetic.dims", "x"), "dataset.synthetic.dims"),
    "subsample_fraction_string": (_bad("zoo", "dataset.subsample_fraction", "x"), "dataset.subsample_fraction"),
    "hp_topk_string": (_bad("transfer", "transfer.hyperparams.topk", "x"), "transfer.hyperparams.topk"),
    "hp_epochs_float": (_bad("transfer", "transfer.hyperparams.epochs", 1.5), "transfer.hyperparams.epochs"),
    "hp_seed_string": (_bad("transfer", "transfer.hyperparams.seed", "x"), "transfer.hyperparams.seed"),
    "sweep_max_pairs_string": (_bad("sweep", "sweep.max_pairs", "x"), "sweep.max_pairs"),
    "sweep_bins_string": (_bad("sweep", "sweep.bins", ["x", 1]), "sweep.bins[0]"),
    "sweep_delta_acc_min_string": (_bad("sweep", "sweep.pairs.delta_acc_min", "x"), "sweep.pairs.delta_acc_min"),
    "flips_delta_acc_max_string": (_bad("flips", "pairs.delta_acc_max", "x"), "pairs.delta_acc_max"),
    "synthetic_classes_float": (_bad("zoo", "dataset.synthetic.classes", 4.7), "dataset.synthetic.classes"),
    "hp_batch_size_bool": (
        _bad("transfer", "transfer.hyperparams.batch_size", True), "transfer.hyperparams.batch_size"
    ),
    "multi_retain_string": (
        _bad("multi", "transfer.multi.retain_original_reference", "false"),
        "transfer.multi.retain_original_reference",
    ),
    "hp_temperature_string": (
        _bad("transfer", "transfer.hyperparams.temperature", "x"), "transfer.hyperparams.temperature"
    ),
    # names that are not in the manifest, and a topk that no class count admits
    "unknown_teacher": (_bad("transfer", "transfer.teacher", "nobody"), "transfer.teacher"),
    "unknown_student": (_bad("transfer", "transfer.student", "nobody"), "transfer.student"),
    "unknown_multi_teacher": (_bad("multi", "transfer.multi.teachers.1", "nobody"), "transfer.multi.teachers[1]"),
    "hp_topk_zero": (_bad("transfer", "transfer.hyperparams.topk", 0), "topk"),
    # a topk that only kl, outside a parallel transfer, reads: it was ignored
    "hp_topk_not_kl": (
        _bad("transfer", "transfer.hyperparams.topk", 2),
        "transfer.hyperparams.topk: only method 'kl' uses topk, not 'kl_dp_sup'",
    ),
    "multi_parallel_topk": (
        _bad("multi_kl", "transfer.hyperparams.topk", 2),
        "transfer.hyperparams.topk: a parallel transfer does not use topk",
    ),
    "sweep_topk_not_kl": (
        _bad("sweep", "sweep.hyperparams.topk", 2), "sweep.hyperparams.topk: only method 'kl' uses topk, not 'kl_dp_sup'"
    ),
    "sweep_method_topk_not_kl": (
        _bad("sweep", "sweep.hyperparams", {"kl": {"topk": 2}, "kl_dp_sup": {"topk": 2}}),
        "sweep.hyperparams.kl_dp_sup.topk: only method 'kl' uses topk, not 'kl_dp_sup'",
    ),
    # a topk above the dataset's 4 classes exited 3 naming no key
    "hp_topk_above_classes": (
        _bad("transfer_kl", "transfer.hyperparams.topk", 99), "transfer.hyperparams.topk: 99 is more than"
    ),
    "sweep_topk_above_classes": (_bad("sweep_kl", "sweep.hyperparams.topk", 99), "sweep.hyperparams.topk: 99"),
    "sweep_method_topk_above_classes": (
        _bad("sweep", "sweep.hyperparams", {"kl": {"topk": 5}, "kl_dp_sup": {}}), "sweep.hyperparams.kl.topk: 5"
    ),
    # training values that ran without a word: a negative noise scale, a patience below 1
    "zoo_augment_noise_negative": (
        _bad("zoo", "zoo.models.1.train.augment_noise", -1), "zoo.models[1].train.augment_noise"
    ),
    "zoo_plateau_patience_zero": (
        _bad("zoo", "zoo.models.1.train.plateau_patience", 0), "zoo.models[1].train.plateau_patience"
    ),
    "zoo_plateau_patience_negative": (
        _bad("zoo", "zoo.models.0.train.plateau_patience", -3), "zoo.models[0].train.plateau_patience"
    ),
    # values that escaped main as tracebacks from numpy or the file system
    "hp_seed_negative": (_bad("transfer", "transfer.hyperparams.seed", -1), "seed"),
    "synthetic_dims_negative": (_bad("zoo", "dataset.synthetic.dims", -2), "dims"),
    "sweep_bins_decreasing": (_bad("sweep", "sweep.bins", [0.5, -0.5]), "sweep.bins"),
    "sweep_max_pairs_zero": (_bad("sweep", "sweep.max_pairs", 0), "sweep.max_pairs"),
    "zoo_name_path": (_bad("zoo", "zoo.models.0.name", "/wide"), "zoo.models[0].name"),
    # a spec fault was named by the model's name, zoo.models[mid]
    "zoo_cnn_depth_channels": (
        _bad("zoo", "zoo.models.1", {"name": "mid", "family": "cnn", "depth": 2, "channels": [3]}),
        "zoo.models[1]: cnn depth must equal len(channels)",
    ),
    # a value the family does not read trained, and went into the spec digest and the header
    "zoo_cnn_width": (
        _bad("zoo", "zoo.models.0", {"name": "wide", "family": "cnn", "depth": 1, "channels": [3], "width": 64}),
        "zoo.models[0]: a cnn spec reads no width",
    ),
    "zoo_mlp_channels": (_bad("zoo", "zoo.models.1.channels", [9, 9]), "zoo.models[1]: an mlp spec reads no channels"),
    "zoo_mlp_no_channels": (_bad("zoo", "zoo.models.1.channels", []), "zoo.models[1]: an mlp spec reads no channels"),
    # a method listed twice ran, wrote and summarized each of its runs twice
    "sweep_method_twice": (
        _bad("sweep", "sweep.methods", ["kl", "kl_dp_sup", "kl"]), "sweep.methods: method 'kl' is listed twice"
    ),
    # a NUL byte escaped main from os.makedirs; a bad subsample exited 3 or was ignored
    "out_nul": (_bad("zoo", "out", "o\0x"), "out"),
    # a NUL byte in an input path escaped main from open()
    "manifest_nul": (_bad("transfer", "manifest", "m\0x"), "manifest: 'm\\x00x' contains a NUL byte"),
    "idx_nul": (
        _bad("zoo", "dataset", {"idx": {"train_images": "i\0x", "train_labels": "l", "val_images": "i", "val_labels": "l"}}),
        "dataset.idx.train_images: 'i\\x00x' contains a NUL byte",
    ),
    # a NUL byte in the embeddings path exited 3 with the raw byte in its message
    "embeddings_nul": (_bad("flips", "embeddings", "a\0b.csv"), "embeddings: 'a\\x00b.csv' contains a NUL byte"),
    "subsample_fraction_zero": (_bad("zoo", "dataset.subsample_fraction", 0), "dataset.subsample_fraction"),
    "subsample_fraction_above_one": (_bad("zoo", "dataset.subsample_fraction", 2), "dataset.subsample_fraction"),
}


@pytest.mark.parametrize("make, key", list(_BAD_VALUES.values()), ids=list(_BAD_VALUES))
def test_bad_config_value_exits_2_naming_key(zoo_dir, tmp_path, capsys, make, key):
    command, doc = make(zoo_dir, tmp_path / "out")
    assert main([command, "--config", _write(tmp_path / "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("key, value", [
    ("lr", -1), ("momentum", 1.5), ("weight_decay", -1), ("temperature", 0), ("lam", 1.5), ("mcl_tau", -0.5),
    ("mcl_every", 0), ("epochs", -1), ("batch_size", 0), ("seed", -1), ("topk", 0),
])
def test_each_bad_hyperparameter_is_named_by_its_dotted_key(zoo_dir, tmp_path, capsys, key, value):
    """Each field is checked on its own, and the message names the field and its value."""
    command, doc = _bad("transfer", f"transfer.hyperparams.{key}", value)(zoo_dir, tmp_path / "out")
    assert main([command, "--config", _write(tmp_path / "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert f"config error: transfer.hyperparams.{key} must be " in err and f", got {value}" in err


_MISFITS = {
    # the zoo was trained on 8 dims and 4 classes; each once exited 1 with a traceback
    # the first set checked names the misfit: transfer before val, and flips reads val alone
    "transfer_dims": (_bad("transfer", "dataset.synthetic.dims", 9), "transfer", "input shape", "narrow", "(9,)", "(8,)"),
    "flips_dims": (_bad("flips", "dataset.synthetic.dims", 9), "val", "input shape", "narrow", "(9,)", "(8,)"),
    "sweep_dims": (_bad("sweep", "dataset.synthetic.dims", 9), "transfer", "input shape", "narrow", "(9,)", "(8,)"),
    "flips_classes": (_bad("flips", "dataset.synthetic.classes", 5), "val", "class count", "narrow", "5", "4"),
    "parallel_classes": (_bad("multi", "dataset.synthetic.classes", 5), "transfer", "class count", "narrow", "5", "4"),
}


@pytest.mark.parametrize("make, which, what, model, got, want", list(_MISFITS.values()), ids=list(_MISFITS))
def test_dataset_that_does_not_fit_the_zoo_exits_3(zoo_dir, tmp_path, capsys, make, which, what, model, got, want):
    command, doc = make(zoo_dir, tmp_path / "out")
    assert main([command, "--config", _write(tmp_path / "cfg.json", doc)]) == 3
    err = capsys.readouterr().err
    assert f"error: {which} set {what} does not match model {model}: set {got}, model {want}" in err


def _idx_files(tmp_path, name, n, rows, cols, classes):
    """An IDX image and label file pair of n images; the labels cycle through the classes."""
    images, labels = tmp_path / f"{name}_images.idx", tmp_path / f"{name}_labels.idx"
    pixels = np.random.default_rng(n).integers(0, 256, size=n * rows * cols, dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % classes for i in range(n)))
    return str(images), str(labels)


@pytest.mark.parametrize("rows, classes, what, got, want", [
    (5, 3, "input shape", "(1, 5, 5)", "(1, 4, 4)"),
    (4, 4, "class count", "4", "3"),
], ids=["val_images_5x5", "val_classes_4"])
def test_idx_zoo_whose_val_set_does_not_fit_exits_3_before_training(tmp_path, monkeypatch, capsys,
                                                                     rows, classes, what, got, want):
    """The zoo's specs come from the train set, and each model is checked
    against the val set too before its first step. A 5x5 val set against 4x4
    train images once trained every model and then ended in a traceback; a
    4-class val set against 3 train classes exited 0 with val accuracies that
    a later ``flips`` rejected."""
    import flipxfer.zoo as zoo

    epochs = []
    monkeypatch.setattr(zoo, "sgd_epochs", lambda *args: epochs.append(args) or iter(()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the trainings run in this process
    train_images, train_labels = _idx_files(tmp_path, "train", 24, 4, 4, 3)
    val_images, val_labels = _idx_files(tmp_path, "val", 12, rows, rows, classes)
    doc = {
        "dataset": {"idx": {"train_images": train_images, "train_labels": train_labels,
                            "val_images": val_images, "val_labels": val_labels}},
        "zoo": {"models": [{"name": "a", "family": "mlp", "depth": 2, "width": 4, "train": {"epochs": 1}},
                           {"name": "b", "family": "mlp", "depth": 2, "width": 3, "train": {"epochs": 1}}]},
        "out": str(tmp_path / "out"),
    }
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", doc)]) == 3
    assert f"error: val set {what} does not match model a: set {got}, model {want}" in capsys.readouterr().err
    assert epochs == []
    assert not (tmp_path / "out").exists()


def test_out_flag_with_nul_byte_exits_2(tmp_path, capsys):
    conf = _write(tmp_path / "cfg.json", _zoo_config(tmp_path / "out"))
    assert main(["zoo", "--config", conf, "--out", str(tmp_path / "o\0x")]) == 2
    err = capsys.readouterr().err
    assert "config error: out:" in err and "NUL" in err


def test_run_that_fails_leaves_no_new_out_directory(tmp_path, monkeypatch, capsys):
    """out is created at the commit, so a run that exits 3 before it creates nothing."""
    monkeypatch.chdir(tmp_path)
    doc = _transfer_config(tmp_path / "no_zoo", "fresh/deep")
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", doc)]) == 3
    assert "manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("out", ["taken", "taken/deep"])
def test_out_under_or_at_a_file_exits_3_before_the_work(tmp_path, capsys, out):
    """A file where out or one of its ancestors should be is found before
    the missing manifest is read."""
    (tmp_path / "taken").write_text("a file\n")
    doc = _transfer_config(tmp_path / "no_zoo", tmp_path / out)
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", doc)]) == 3
    err = capsys.readouterr().err
    assert f"out: {tmp_path / 'taken'} exists and is not a directory" in err and "manifest" not in err
    assert (tmp_path / "taken").read_text() == "a file\n"


def test_unknown_model_name_lists_the_zoo(zoo_dir, tmp_path, capsys):
    command, doc = _bad("transfer", "transfer.teacher", "nobody")(zoo_dir, tmp_path / "out")
    assert main([command, "--config", _write(tmp_path / "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "'nobody'" in err and all(name in err for name in ("wide", "mid", "narrow"))


def test_malformed_embeddings_exits_2_naming_file(zoo_dir, tmp_path, capsys):
    emb_path = tmp_path / "emb.csv"
    emb_path.write_text("1.0,2.0\n3.0,x\n1.0,1.0\n2.0,2.0\n")
    conf = _flips_config(zoo_dir, tmp_path / "out")
    conf["embeddings"] = str(emb_path)
    assert main(["flips", "--config", _write(tmp_path / "flips.json", conf)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(emb_path) in err


def test_zero_norm_embeddings_row_exits_2_naming_file_and_row(zoo_dir, tmp_path, capsys):
    """A zero-norm row, and a row holding nan or inf, which JSON cannot hold."""
    for i, (text, fault) in enumerate([
        ("1.0,2.0\n3.0,1.0\n0.0,0.0\n2.0,2.0\n", "row 3 has zero norm"),
        ("1.0,2.0\n3.0,nan\n1.0,1.0\n2.0,2.0\n", "row 2 holds a non-finite value"),
        ("1.0,2.0\n3.0,1.0\n1.0,1.0\n-inf,2.0\n", "row 4 holds a non-finite value"),
    ]):
        emb_path = tmp_path / f"emb{i}.csv"
        emb_path.write_text(text)
        conf = _flips_config(zoo_dir, tmp_path / f"out{i}")
        conf["embeddings"] = str(emb_path)
        assert main(["flips", "--config", _write(tmp_path / f"flips{i}.json", conf)]) == 2
        assert f"config error: embeddings: {emb_path} {fault}" in capsys.readouterr().err
        assert not (tmp_path / f"out{i}").exists()


def test_transfer_rerun_from_resolved_config_identical_bytes(zoo_dir, tmp_path):
    out = tmp_path / "tr"
    cfg = tmp_path / "tr.json"
    assert main(["transfer", "--config", _write(cfg, _transfer_config(zoo_dir, out))]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["transfer", "--config", str(out / "config.resolved.json")]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_transfer_rerun_that_fails_to_write_leaves_no_resolved_config(zoo_dir, tmp_path, capsys):
    """A rerun whose last file cannot be written must not leave the previous
    run's config.resolved.json beside its new files."""
    out = tmp_path / "tr"
    assert main(["transfer", "--config", _write(tmp_path / "a.json", _transfer_config(zoo_dir, out, epochs=1))]) == 0
    assert (out / "config.resolved.json").exists()
    (out / "per_epoch.csv").unlink()
    (out / "per_epoch.csv").mkdir()
    assert main(["transfer", "--config", _write(tmp_path / "b.json", _transfer_config(zoo_dir, out, epochs=2))]) == 3
    assert "per_epoch.csv" in capsys.readouterr().err
    assert not (out / "config.resolved.json").exists()
    assert not (out / "config.resolved.json.tmp").exists()


def test_transfer_multi_sequential(zoo_dir, tmp_path):
    out = tmp_path / "seq"
    conf = _transfer_config(zoo_dir, out)
    conf["transfer"]["teacher"] = None
    conf["transfer"]["multi"] = {"mode": "sequential", "teachers": ["wide", "mid"]}
    cfg = tmp_path / "seq.json"
    assert main(["transfer", "--config", _write(cfg, conf)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "sequential"
    assert len(report["stages"]) == 2
    assert "cumulative_delta_transf" in report


def test_transfer_multi_sequential_whose_stages_diverge_reports_each_stage_failed(zoo_dir, tmp_path):
    """A stage that diverges is reported, not trained on: its failure, null
    accuracies and rho_pos, zero deltas and no class gains; with no stage
    trained, the cumulative delta is null and the student comes back as it was."""
    out = tmp_path / "seq"
    conf = _transfer_config(zoo_dir, out, lr=1e200)
    conf["transfer"]["teacher"] = None
    conf["transfer"]["multi"] = {"mode": "sequential", "order": "given", "teachers": ["wide", "mid"]}
    assert main(["transfer", "--config", _write(tmp_path / "seq.json", conf)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"mode", "stages", "cumulative_delta_transf"}
    assert report["mode"] == "sequential" and report["cumulative_delta_transf"] is None
    assert [stage["teacher"] for stage in report["stages"]] == ["wide", "mid"]
    for stage in report["stages"]:
        assert stage["failed"] == "kl_dp_sup: non-finite loss nan at epoch 0, step 1"
        assert (stage["acc_before"], stage["acc_after"], stage["rho_pos"]) == (None, None, None)
        assert stage["per_class_gain"] == []
        assert [stage[k] for k in ("delta_acc", "delta_transf", "knowledge_gain", "knowledge_loss")] == [0.0] * 4
        assert (stage["method"], stage["student"], stage["hyperparams"]["lr"]) == ("kl_dp_sup", "narrow", 1e200)
        assert "cumulative_delta_transf" not in stage and "transfer_rate" not in stage
    assert (out / "per_epoch.csv").read_text().count("\n") == 1  # the header only
    after = models.load(str(out / "student_after.ckpt"))
    assert after.digest() == models.load(str(zoo_dir / "narrow.ckpt")).digest()


def _copy_zoo(src, dst):
    dst.mkdir()
    for f in src.iterdir():
        if f.is_file():
            (dst / f.name).write_bytes(f.read_bytes())
    return dst


def _edit_header(path, edit, floats=None):
    """Replace a checkpoint's JSON header with edit(header) and, if ``floats``
    is given, its payload with that many zeros."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[5:9])
    blob = json.dumps(edit(json.loads(raw[9 : 9 + hlen]))).encode()
    payload = raw[9 + hlen :] if floats is None else np.zeros(floats).tobytes()
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + payload)


def _spec(**values):
    def edit(header):
        header["spec"].update(values)
        return header
    return edit


def _fractional_width(header):
    """narrow at width 4.5 (8 dims, 4 classes), with the shapes it gives; the
    payload of 58 floats matches their truncated sizes (36 + 4 + 18)."""
    header["spec"]["width"] = 4.5
    header["shapes"] = {"fc1.w": [8, 4.5], "fc1.b": [4.5], "fc2.w": [4.5, 4], "fc2.b": [4]}
    return header


_BAD_SPECS = {
    "depth_fraction": (_spec(depth=2.7), None, "depth"),
    "num_classes_fraction": (_spec(num_classes=4.9), None, "num_classes"),
    "dropout_string": (_spec(dropout="0.25"), None, "dropout"),
    "width_fraction": (_fractional_width, 58, "width"),
}


def test_checkpoint_spec_with_a_field_its_family_does_not_read_exits_3(zoo_dir, tmp_path, capsys):
    """narrow is an MLP: a header spec that also lists channels is malformed,
    not an MLP whose digest carries channels it ignores."""
    zoo = _copy_zoo(zoo_dir, tmp_path / "zoo")
    entry = next(e for e in json.loads((zoo / "manifest.json").read_text())["entries"] if e["name"] == "narrow")
    _edit_header(zoo / entry["path"], _spec(channels=[3]))
    conf = _transfer_config(zoo, tmp_path / "out")
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 3
    assert f"error: {zoo / entry['path']}: malformed header (an mlp spec reads no channels)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, floats, key", list(_BAD_SPECS.values()), ids=list(_BAD_SPECS))
def test_wrong_type_checkpoint_spec_exits_3_naming_file_and_key(zoo_dir, tmp_path, capsys, edit, floats, key):
    """A checkpoint spec value is typed as a config value is: each of these
    once ran on a truncated or string value, or escaped main as a TypeError."""
    zoo = _copy_zoo(zoo_dir, tmp_path / "zoo")
    entry = next(e for e in json.loads((zoo / "manifest.json").read_text())["entries"] if e["name"] == "narrow")
    _edit_header(zoo / entry["path"], edit, floats)
    conf = _transfer_config(zoo, tmp_path / "out")
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 3
    err = capsys.readouterr().err
    assert f"error: {zoo / entry['path']}: malformed header (header.spec.{key}: expected" in err
    assert not (tmp_path / "out").exists()


def test_zero_accuracy_student_exits_3_and_fails_only_its_sweep_runs(tmp_path, capsys):
    """A student with no correct val prediction has no knowledge-loss rate:
    the transfer exits 3 naming that, and a sweep records the run as failed
    and still writes the other pair's row."""
    dataset = {"synthetic": {"classes": 2, "dims": 4, "train": {"samples": 4, "seed": 1},
                             "val": {"samples": 2, "seed": 2}}}
    models = [{"name": n, "family": "mlp", "depth": 2, "width": 3, "train": {"epochs": 0, "init_seed": s}}
              for n, s in (("a", 0), ("b", 9))]
    zoo = tmp_path / "zoo"
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", {"dataset": dataset, "zoo": {"models": models},
                                                                  "out": str(zoo)})]) == 0
    accs = {e["name"]: e["val_accuracy"] for e in json.loads((zoo / "manifest.json").read_text())["entries"]}
    assert accs["b"] == 0.0 < accs["a"]
    common = {"manifest": str(zoo / "manifest.json"), "dataset": dataset}
    transfer = {**common, "transfer": {"method": "kl", "teacher": "a", "student": "b"}, "out": str(tmp_path / "tr")}
    capsys.readouterr()
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", transfer)]) == 3
    assert "error: student had no correct predictions before transfer" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()
    sweep = {**common, "sweep": {"methods": ["kl"]}, "out": str(tmp_path / "sw")}
    assert main(["sweep", "--config", _write(tmp_path / "sw.json", sweep)]) == 3
    assert "error: sweep run kl a -> b: student had no correct predictions" in capsys.readouterr().err
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["b", "a", "kl"]]
    failed = json.loads((tmp_path / "sw" / "summary.json").read_text())["failed"]
    assert [(f["teacher"], f["student"], f["method"]) for f in failed] == [("a", "b", "kl")]


# ---------------------------------------------------------------------------
# empty outcomes: no flips, and a student with no correct val prediction

_SEPARATED = {"synthetic": {"classes": 4, "dims": 4, "anchor_scale": 10,
                            "train": {"samples": 32, "seed": 1}, "val": {"samples": 16, "seed": 2}}}


@pytest.fixture(scope="module")
def swapped_zoo(tmp_path_factory):
    """A zoo of four well-separated classes: ``right`` is right on every val
    sample and ``twin`` is trained identically under another name; ``wrong``
    and ``wrong2`` are ``right`` with its head columns rotated by one, so they
    are wrong on every val sample and equal to each other."""
    out = tmp_path_factory.mktemp("swapped_zoo")
    trained = [{"name": n, "family": "mlp", "depth": 2, "width": 4, "train": {"epochs": 8, "lr": 0.05}}
               for n in ("right", "twin")]
    cfg = tmp_path_factory.mktemp("cfg") / "zoo.json"
    assert main(["zoo", "--config", _write(cfg, {"dataset": _SEPARATED, "zoo": {"models": trained}, "out": str(out)})]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    right = next(e for e in doc["entries"] if e["name"] == "right")
    assert [e["val_accuracy"] for e in doc["entries"]] == [1.0, 1.0]
    ck = models.load(out / right["path"])
    for name in ("wrong", "wrong2"):
        wrong = models.Checkpoint(ck.spec, ck.flat.copy(), dict(ck.meta, name=name, val_accuracy=0.0))
        for k in ("fc2.w", "fc2.b"):
            wrong.params[k][...] = np.roll(ck.params[k], 1, axis=-1)
        models.save(wrong, out / f"{name}.ckpt")
        doc["entries"].append(right | {"name": name, "path": f"{name}.ckpt", "val_accuracy": 0.0})
    (out / "manifest.json").write_text(json.dumps(doc))
    return out


def test_transfer_from_the_students_own_checkpoint_reports_the_empty_outcomes(zoo_dir, tmp_path):
    """Teacher and student are one checkpoint, so there are no flips: no gain,
    the lost share of the student's correct answers as the loss, a null gain
    for every class, and no transfer_rate."""
    from flipxfer.cli import _build_datasets, _resolve_dataset
    from flipxfer.models import predict_logits

    out = tmp_path / "self"
    conf = _transfer_config(zoo_dir, out, "xe_kl", lr=0.05)
    conf["transfer"]["teacher"] = conf["transfer"]["student"]
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 0
    report = json.loads((out / "report.json").read_text())
    _, val = _build_datasets(_resolve_dataset(_dataset_section()))
    manifest = load_manifest(str(zoo_dir / "manifest.json"))
    before = np.argmax(predict_logits(manifest.load_checkpoint("narrow"), val.inputs), axis=1) == val.labels
    after = np.argmax(predict_logits(models.load(out / "student_after.ckpt"), val.inputs), axis=1) == val.labels
    assert report["rho_pos"] == 0.0
    assert report["knowledge_gain"] == 0.0
    assert 0.0 < report["knowledge_loss"] == int((before & ~after).sum()) / int(before.sum())
    assert report["per_class_gain"] == [None] * 4
    assert "transfer_rate" not in report


def test_flips_of_two_identical_checkpoints_report_no_entropy_and_no_similarity(swapped_zoo, tmp_path):
    emb = tmp_path / "emb.csv"
    emb.write_text("1,0\n0,1\n1,1\n1,-1\n")
    out = tmp_path / "flips"
    conf = {"manifest": str(swapped_zoo / "manifest.json"), "dataset": _SEPARATED, "embeddings": str(emb),
            "out": str(out)}
    assert main(["flips", "--config", _write(tmp_path / "flips.json", conf)]) == 0
    records = {(r["teacher"], r["student"]): r for r in json.loads((out / "flips.json").read_text())["pairs"]}
    rows = {tuple(line.split(",")[:2]): line for line in (out / "entropy_vs_delta_acc.csv").read_text().splitlines()}
    for pair in (("right", "twin"), ("twin", "right"), ("wrong", "wrong2")):
        assert records[pair]["flip_count"] == 0
        assert records[pair]["entropy"] is None
        assert "semantic_similarity" not in records[pair]
        assert rows[pair] == ",".join(pair) + ",0.0,0.0,"
    # every val sample flips, four in each class: the top 2% to 20% are class 0
    # alone, the top 50% classes 0 and 1, whose embeddings are orthogonal
    flipped = records[("right", "wrong")]
    assert flipped["per_class_counts"] == [4, 4, 4, 4]
    assert flipped["semantic_similarity"] == {"2": None, "5": None, "10": None, "20": None, "50": -1.0}


@pytest.mark.parametrize("teacher", ["right", "wrong2"], ids=["teacher_with_flips", "teacher_without_flips"])
def test_transfer_into_a_student_with_no_correct_prediction_exits_3(swapped_zoo, tmp_path, capsys, teacher):
    """Knowledge loss is a share of the student's correct answers before
    transfer; without any it is undefined, whether the teacher has flips or not."""
    out = tmp_path / "out"
    conf = {"manifest": str(swapped_zoo / "manifest.json"), "dataset": _SEPARATED, "out": str(out),
            "transfer": {"method": "kl", "teacher": teacher, "student": "wrong",
                         "hyperparams": {"lr": 0.01, "epochs": 1, "batch_size": 16, "seed": 1}}}
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 3
    assert "error: student had no correct predictions before transfer" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_fails_each_run_into_a_student_with_no_correct_prediction(swapped_zoo, tmp_path, capsys):
    out = tmp_path / "sw"
    conf = {"manifest": str(swapped_zoo / "manifest.json"), "dataset": _SEPARATED, "out": str(out),
            "sweep": {"methods": ["kl"], "hyperparams": {"lr": 0.01, "epochs": 1, "batch_size": 16, "seed": 1}}}
    assert main(["sweep", "--config", _write(tmp_path / "sw.json", conf)]) == 3
    err = capsys.readouterr().err
    for teacher, student in (("wrong2", "wrong"), ("wrong", "wrong2"), ("right", "wrong")):
        assert f"error: sweep run kl {teacher} -> {student}: student had no correct predictions" in err
    rows = [r.split(",")[:2] for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert sorted(s for _, s in rows) == ["right"] * 3 + ["twin"] * 3
    failed = json.loads((out / "summary.json").read_text())["failed"]
    assert sorted((f["teacher"], f["student"]) for f in failed) == sorted(
        (t, s) for s in ("wrong", "wrong2") for t in ("right", "twin", "wrong", "wrong2") if t != s
    )


def test_transfer_multi_sequential_string_val_accuracy_exits_3(zoo_dir, tmp_path, capsys):
    """A teacher checkpoint whose meta val_accuracy is a string is a header
    fault naming the file and the key, not a traceback from the ordering."""
    zoo = _copy_zoo(zoo_dir, tmp_path / "zoo")
    entry = next(e for e in json.loads((zoo / "manifest.json").read_text())["entries"] if e["name"] == "mid")
    ck = models.load(zoo / entry["path"])
    ck.meta["val_accuracy"] = "high"
    models.save(ck, zoo / entry["path"])
    conf = _transfer_config(zoo, tmp_path / "seq")
    conf["transfer"]["teacher"] = None
    conf["transfer"]["multi"] = {"mode": "sequential", "teachers": ["wide", "mid"]}
    assert main(["transfer", "--config", _write(tmp_path / "seq.json", conf)]) == 3
    err = capsys.readouterr().err
    assert f"{zoo / entry['path']}: meta.val_accuracy: expected float" in err


def test_transfer_from_a_student_with_nan_meta_exits_3_naming_file(zoo_dir, tmp_path, capsys):
    """A checkpoint header is JSON: a NaN in its meta is a header fault, not
    a value the transfer copies into the student it writes."""
    zoo = _copy_zoo(zoo_dir, tmp_path / "zoo")
    conf = _transfer_config(zoo, tmp_path / "out")
    entry = next(e for e in json.loads((zoo / "manifest.json").read_text())["entries"]
                 if e["name"] == conf["transfer"]["student"])
    _edit_header(zoo / entry["path"], lambda header: {**header, "meta": {**header["meta"], "note": float("nan")}})
    assert b'"note": NaN' in (zoo / entry["path"]).read_bytes()
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 3
    err = capsys.readouterr().err
    assert f"error: {zoo / entry['path']}: malformed header (header: NaN is not JSON" in err
    assert not (tmp_path / "out").exists()


def test_transfer_from_a_teacher_with_a_nan_parameter_exits_3_naming_file_and_parameter(zoo_dir, tmp_path, capsys):
    """A NaN in a checkpoint's payload is refused at load. Read on, relu would
    make its hidden units dead ones and the transfer would exit 0."""
    zoo = _copy_zoo(zoo_dir, tmp_path / "zoo")
    conf = _transfer_config(zoo, tmp_path / "out")
    teacher = zoo / f"{conf['transfer']['teacher']}.ckpt"
    raw = bytearray(teacher.read_bytes())
    (hlen,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9 : 9 + hlen])
    before = header["names"][: header["names"].index("fc1.b")]
    at = 9 + hlen + 8 * sum(int(np.prod(header["shapes"][n])) for n in before)
    raw[at : at + 8] = struct.pack("<d", float("nan"))
    teacher.write_bytes(bytes(raw))
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 3
    assert f"error: {teacher}: parameter 'fc1.b' holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_transfer_whose_update_overflows_a_parameter_exits_3_leaving_out_unchanged(tmp_path, capsys):
    """One step at lr 1e308 on inputs of scale 50: the loss and gradients are
    finite, but the update overflows the student's fc1.w. The transfer
    diverges before its commit, so the previous run's files stay as they were."""
    dataset = {"synthetic": {"classes": 4, "dims": 8, "anchor_scale": 50,
                             "train": {"samples": 32, "seed": 1}, "val": {"samples": 16, "seed": 2}}}
    models = [{"name": "t", "family": "mlp", "depth": 2, "width": 6, "train": {"epochs": 2}},
              {"name": "s", "family": "mlp", "depth": 2, "width": 4, "train": {"epochs": 1}}]
    zoo = tmp_path / "zoo"
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json",
                                           {"dataset": dataset, "zoo": {"models": models}, "out": str(zoo)})]) == 0
    out = tmp_path / "out"
    conf = {"manifest": str(zoo / "manifest.json"), "dataset": dataset, "out": str(out),
            "transfer": {"method": "kl_dp_sup", "teacher": "t", "student": "s",
                         "hyperparams": {"lr": 0.01, "epochs": 1, "batch_size": 32, "seed": 1}}}
    assert main(["transfer", "--config", _write(tmp_path / "tr.json", conf)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    conf["transfer"]["hyperparams"]["lr"] = 1e308
    assert main(["transfer", "--config", _write(tmp_path / "tr2.json", conf)]) == 3
    assert "kl_dp_sup: non-finite parameter 'fc1.w' after its update at epoch 0, step 0" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# sweep


def _sweep_config(zoo_dir, out, **kw):
    return {
        "manifest": str(zoo_dir / "manifest.json"),
        "dataset": _dataset_section(),
        "sweep": {
            "methods": ["kl", "kl_dp_sup"],
            "hyperparams": {"lr": 0.01, "epochs": 2, "batch_size": 64, "seed": 1},
            **kw,
        },
        "out": str(out),
    }


def test_sweep_rows_and_summary(zoo_dir, tmp_path):
    out = tmp_path / "sw"
    cfg = tmp_path / "sw.json"
    assert main(["sweep", "--config", _write(cfg, _sweep_config(zoo_dir, out))]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 2  # header + 6 pairs x 2 methods
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {"kl", "kl_dp_sup"}
    for m in summary["methods"].values():
        assert 0.0 <= m["success_rate"] <= 1.0
        assert "binned_top_quartile_delta" in m


def _mean(values):
    """numpy's float64 mean of fewer than 9 values: the first plus the rest
    summed in order, over their count."""
    assert 0 < len(values) < 9
    rest = 0.0
    for v in values[1:]:
        rest += v
    return (values[0] + rest) / len(values)


def test_sweep_summary_is_its_rows_recomputed(zoo_dir, tmp_path):
    """Per method, the success rate, mean delta and binned top-quartile deltas
    of summary.json, recomputed from the rows of sweep.csv."""
    out = tmp_path / "sw"
    assert main(["sweep", "--config", _write(tmp_path / "sw.json", _sweep_config(zoo_dir, out))]) == 0
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    bins = json.loads((out / "config.resolved.json").read_text())["sweep"]["bins"]
    summary = json.loads((out / "summary.json").read_text())
    for method, got in summary["methods"].items():
        mine = [(float(r["delta_acc"]), float(r["delta_transf"])) for r in rows if r["method"] == method]
        deltas = [d for _, d in mine]
        binned = {}
        for lo, hi in zip(bins, bins[1:]):
            top = sorted((d for a, d in mine if lo <= a < hi or (hi == bins[-1] and a == hi)), reverse=True)
            if top:
                binned[f"[{lo},{hi})"] = _mean(top[: -(-len(top) // 4)])
        assert got == {
            "success_rate": sum(d > 0.0 for d in deltas) / len(deltas),
            "mean_delta_transf": _mean(deltas),
            "binned_top_quartile_delta": binned,
        }


def test_sweep_rate_columns_are_each_runs_transfer_rate(zoo_dir, tmp_path):
    """sweep.csv's transfer_rate_overall and transfer_rate_top2 hold the
    overall and top-2% rates of the transfer_rate document of the same run,
    and are empty for a run with no flips to transfer."""
    from flipxfer.cli import _build_datasets
    from flipxfer.transfer import TransferHyperparams, run_transfer

    out = tmp_path / "sw"
    assert main(["sweep", "--config", _write(tmp_path / "sw.json", _sweep_config(zoo_dir, out))]) == 0
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    resolved = json.loads((out / "config.resolved.json").read_text())
    manifest = load_manifest(resolved["manifest"])
    transfer_set, val = _build_datasets(resolved["dataset"])
    for row in rows:
        hp = TransferHyperparams(**resolved["sweep"]["hyperparams"][row["method"]])
        res = run_transfer(
            manifest.load_checkpoint(row["student"]), manifest.load_checkpoint(row["teacher"]), row["method"], hp,
            transfer_set, val, row["teacher"], row["student"],
        )
        rate = res.doc.get("transfer_rate", {"overall": None, "by_top_share": {"2.0": None}})
        for column, want in (("transfer_rate_overall", rate["overall"]), ("transfer_rate_top2", rate["by_top_share"]["2.0"])):
            assert row[column] == ("" if want is None else repr(want))
    assert any(row["transfer_rate_top2"] for row in rows)


def test_sweep_empty_filter_exits_2(zoo_dir, tmp_path, capsys):
    cfg = tmp_path / "sw.json"
    conf = _sweep_config(zoo_dir, tmp_path / "o", pairs={"delta_acc_min": 5.0})
    assert main(["sweep", "--config", _write(cfg, conf)]) == 2
    assert "no pairs matched" in capsys.readouterr().err


def test_sweep_jobs_parallel_same_bytes(zoo_dir, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cfg1 = tmp_path / "c1.json"
    cfg2 = tmp_path / "c2.json"
    assert main(["sweep", "--config", _write(cfg1, _sweep_config(zoo_dir, out1))]) == 0
    assert main(["sweep", "--config", _write(cfg2, _sweep_config(zoo_dir, out2)), "--jobs", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sweep_starts_no_more_workers_than_runs(zoo_dir, tmp_path, monkeypatch):
    """A pool starts all its workers at once, so one beyond the run count
    would be forked only to be reaped: two runs at ``--jobs 6`` start two
    workers, and write the bytes of ``--jobs 1``."""
    import flipxfer.pool as pool

    started, init = tmp_path / "started", pool._init

    def counted(shared):
        with open(started, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        init(shared)

    monkeypatch.setattr(pool, "_init", counted)
    outs = []
    for jobs in ("1", "6"):
        out = tmp_path / f"jobs{jobs}"
        conf = _sweep_config(zoo_dir, out, methods=["kl"], max_pairs=2)
        assert main(["sweep", "--config", _write(tmp_path / f"{jobs}.json", conf), "--jobs", jobs]) == 0
        outs.append(out)
    assert len(set(started.read_text().split())) == 2
    assert len((outs[1] / "sweep.csv").read_text().splitlines()) == 1 + 2
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()


def _group_is_gone(pgid: int, wait: float = 5.0) -> bool:
    """Whether no process is left in the process group ``pgid``, polled for ``wait`` seconds."""
    deadline = time.monotonic() + wait
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.parametrize("sig, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"])
def test_a_signalled_sweep_exits_with_its_code_and_leaves_no_worker(zoo_dir, tmp_path, sig, code):
    """A signal to a ``--jobs 2`` sweep, once its workers run transfers far
    longer than the test, ends it with one ``interrupted`` line after its
    log, no traceback, no out, and no process left in its group: the
    workers ignore the signal and the parent kills them."""
    out = tmp_path / "out"
    cfg = _write(tmp_path / "sw.json", _sweep_config(
        zoo_dir, out, methods=["kl"], hyperparams={"lr": 0.01, "epochs": 10**6, "batch_size": 64, "seed": 1}))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "flipxfer.cli", "sweep", "--config", cfg, "--jobs", "2"]
    # SIGINT at its default, so Python raises KeyboardInterrupt for it even
    # when the tests run where SIGINT is ignored, as a shell's background job
    restore = lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=restore)
    try:
        log = proc.stderr.readline()  # written just before the pool starts
        assert log.startswith("sweep: 6 pairs x 1 methods"), log
        time.sleep(0.5)
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == code
        assert proc.stderr.read() == "interrupted\n"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stderr.close()
    assert not out.exists()
    assert _group_is_gone(proc.pid)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_POOL_CHILD = """
import os, time
from flipxfer.pool import pool_map

def task(shared, i):
    os.write(1, f"{os.getpid()}\\n".encode())  # one write, so the two workers' lines do not interleave
    time.sleep(60)

pool_map(task, None, [0, 1], 2)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads worker states from /proc")
def test_a_pool_whose_parent_sigterm_ends_outside_main_leaves_no_worker():
    """Workers ignore SIGTERM, and only ``cli.main`` kills them on it: a
    process that runs ``pool_map`` itself and is ended by SIGTERM takes its
    workers with it, within a second."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", _POOL_CHILD], env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        workers = [int(proc.stdout.readline()) for _ in range(2)]  # each worker holds a task
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 1.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # whatever is left of the child's group
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_failed_runs_and_exits_3(zoo_dir, tmp_path, capsys, jobs):
    """A failing run no longer aborts the sweep: the finished runs are written
    as a sweep of them alone writes them, and summary.json lists the rest."""
    hp = {"lr": 0.01, "epochs": 2, "batch_size": 64, "seed": 1}
    ok = _sweep_config(zoo_dir, tmp_path / "ok", methods=["kl"])
    # xe_kl diverges at once with this step size
    mixed = _sweep_config(
        zoo_dir, tmp_path / "mixed", methods=["kl", "xe_kl"], hyperparams={"kl": hp, "xe_kl": {**hp, "lr": 1e200}}
    )
    assert main(["sweep", "--config", _write(tmp_path / "ok.json", ok)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", _write(tmp_path / "mixed.json", mixed), "--jobs", str(jobs)]) == 3
    assert capsys.readouterr().err.count("error: sweep run xe_kl ") == 6
    csv = (tmp_path / "ok" / "sweep.csv").read_bytes()
    assert (tmp_path / "mixed" / "sweep.csv").read_bytes() == csv
    ok_summary = json.loads((tmp_path / "ok" / "summary.json").read_text())
    summary = json.loads((tmp_path / "mixed" / "summary.json").read_text())
    assert "failed" not in ok_summary
    assert summary["methods"] == {**ok_summary["methods"], "xe_kl": None}
    pairs = [line.split(",")[:2] for line in csv.decode().splitlines()[1:]]
    assert [[f["teacher"], f["student"]] for f in summary["failed"]] == pairs
    assert {f["method"] for f in summary["failed"]} == {"xe_kl"}
    assert all(f["error"].startswith("xe_kl: non-finite loss") for f in summary["failed"])


def test_sweep_whose_worker_dies_exits_3_writing_nothing(zoo_dir, tmp_path, monkeypatch, capsys):
    import flipxfer.cli as cli

    run, parent = cli.run_transfer, os.getpid()

    def kl_dp_sup_dies(*args, **kwargs):
        if args[2] == "kl_dp_sup" and os.getpid() != parent:
            os._exit(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_transfer", kl_dp_sup_dies)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", _write(tmp_path / "sw.json", _sweep_config(zoo_dir, out)), "--jobs", "2"]) == 3
    assert "error: a worker process ended before returning its task" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_task_out_of_memory_is_its_error_row(zoo_dir, tmp_path, monkeypatch, capsys, jobs):
    """A run whose allocation fails is one failed row, as a divergence is: the
    other runs are written, and the sweep exits 3 naming the allocation."""
    import flipxfer.cli as cli

    run = cli.run_transfer

    def kl_dp_sup_runs_out(*args, **kwargs):
        if args[2] == "kl_dp_sup":
            raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2**60,) and data type float64")
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_transfer", kl_dp_sup_runs_out)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", _write(tmp_path / "sw.json", _sweep_config(zoo_dir, out)), "--jobs", str(jobs)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: sweep run kl_dp_sup ") == err.count("out of memory: Unable to allocate 8.00 EiB") > 0
    summary = json.loads((out / "summary.json").read_text())
    assert {f["method"] for f in summary["failed"]} == {"kl_dp_sup"}
    assert all(f["error"].startswith("out of memory: Unable to allocate") for f in summary["failed"])
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(summary["failed"])


@pytest.mark.parametrize("samples", [2**60, 10**15])
def test_zoo_whose_draw_cannot_be_allocated_exits_3_in_one_line(tmp_path, capsys, samples):
    """2**60 samples exceed numpy's largest array, 10**15 the address space:
    neither allocation touches memory, and each ends in exit 3 with one
    line on stderr, not a traceback, and no out."""
    cfg = _zoo_config(tmp_path / "out")
    cfg["dataset"]["synthetic"]["train"]["samples"] = samples
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_zoo_model_whose_parameters_cannot_be_allocated_exits_3_in_one_line(tmp_path, capsys):
    """An MLP of width 2**60 has more parameters than any address space
    holds: exit 3 with one error line after the zoo's log, as a draw too
    large ends, not numpy's "array is too big" traceback."""
    cfg = _zoo_config(tmp_path / "out")
    cfg["zoo"]["models"][0]["width"] = 2**60
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", cfg)]) == 3
    n = (8 + 1 + 4) * 2**60 + 4  # fc1.w and fc1.b over 8 dims, fc2.w and fc2.b into 4 classes
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == [f"error: out of memory: Unable to allocate {8 * n} bytes for a model's {n} parameters"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", [1, 2])
def test_zoo_of_images_below_3_pixels_exits_2_naming_image_size(tmp_path, capsys, size):
    """Such images smooth to constant templates; the zoo used to report the
    degenerate data as diverged trainings."""
    cfg = _zoo_config(tmp_path / "out")
    synthetic = cfg["dataset"]["synthetic"]
    del synthetic["dims"]
    synthetic["image_size"] = size
    assert main(["zoo", "--config", _write(tmp_path / "zoo.json", cfg)]) == 2
    assert capsys.readouterr().err == f"config error: dataset.synthetic: image_size must be at least 3, got {size}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_1_is_a_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--config", str(tmp_path / "sw.json"), "--jobs", jobs])
    assert e.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err


def test_sweep_max_pairs_downselects(zoo_dir, tmp_path):
    out = tmp_path / "sw"
    cfg = tmp_path / "sw.json"
    assert main(["sweep", "--config", _write(cfg, _sweep_config(zoo_dir, out, max_pairs=4))]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 2


@pytest.mark.parametrize("method", ["kl", "xe_kl_mcl"])
@pytest.mark.parametrize("epochs", [1, 4])
def test_sweep_task_forwards_the_val_set_three_times(zoo_dir, monkeypatch, method, epochs):
    """Student, teacher and the trained weights: a sweep row reads no epoch trace."""
    from dataclasses import asdict

    import flipxfer.transfer as transfer
    from flipxfer.cli import _build_datasets, _resolve_dataset, _sweep_task
    from flipxfer.transfer import default_hyperparams
    from flipxfer.zoo import load_manifest

    manifest = load_manifest(str(zoo_dir / "manifest.json"))
    transfer_set, val = _build_datasets(_resolve_dataset(_dataset_section()))
    hp = asdict(default_hyperparams(method, lr=0.01, epochs=epochs, batch_size=64, seed=1))
    calls = []
    predict = transfer.predict_classes

    def counted(ck, batch):
        calls.append(batch is val.inputs)
        return predict(ck, batch)

    monkeypatch.setattr(transfer, "predict_classes", counted)
    checkpoints = {name: manifest.load_checkpoint(name) for name in ("wide", "narrow")}
    row = _sweep_task((checkpoints, transfer_set, val), ("wide", "narrow", method, hp))
    assert "error" not in row
    assert sum(calls) == 3


def test_sweep_tasks_in_one_process_share_the_val_sets_memo(zoo_dir, monkeypatch):
    """A worker keeps its val set from task to task, and the set keeps its
    forwards: the second method on the same pair forwards only its trained
    student, reading the student's and teacher's flags from the memo."""
    from dataclasses import asdict

    import flipxfer.transfer as transfer
    from flipxfer.cli import _build_datasets, _resolve_dataset, _sweep_task
    from flipxfer.transfer import default_hyperparams
    from flipxfer.zoo import load_manifest

    manifest = load_manifest(str(zoo_dir / "manifest.json"))
    transfer_set, val = _build_datasets(_resolve_dataset(_dataset_section()))
    checkpoints = {name: manifest.load_checkpoint(name) for name in ("wide", "narrow")}
    calls = []
    predict = transfer.predict_classes

    def counted(ck, batch):
        calls.append(batch is val.inputs)
        return predict(ck, batch)

    monkeypatch.setattr(transfer, "predict_classes", counted)
    for method, forwards in (("kl", 3), ("kl_dp_sup", 1)):
        calls.clear()
        hp = asdict(default_hyperparams(method, lr=0.01, epochs=1, batch_size=64, seed=1))
        row = _sweep_task((checkpoints, transfer_set, val), ("wide", "narrow", method, hp))
        assert "error" not in row
        assert sum(calls) == forwards, method


def test_json_flag_prints_summary(zoo_dir, tmp_path, capsys):
    out = tmp_path / "tr"
    cfg = tmp_path / "tr.json"
    assert main(["transfer", "--config", _write(cfg, _transfer_config(zoo_dir, out)), "--json"]) == 0
    out_text = capsys.readouterr().out
    doc = json.loads(out_text)
    assert doc["method"] == "kl_dp_sup"


# ---------------------------------------------------------------------------
# any JSON value in any config leaf ends in a documented exit code


def _tiny_dataset():
    return {
        "synthetic": {
            "classes": 2, "image_size": 4, "modes_per_class": 1, "label_noise": 0.0,
            "sigma": 1.0, "anchor_scale": 2.0, "anchor_seed": 3,
            "train": {"samples": 16, "seed": 1}, "val": {"samples": 16, "seed": 2},
        },
        "subsample_fraction": 1.0,
        "subsample_seed": 0,
    }


def _tiny_zoo_config(out):
    return {
        "dataset": _tiny_dataset(),
        "zoo": {"models": [
            {"name": "a", "family": "mlp", "depth": 2, "width": 4, "dropout": 0.0,
             "train": {"epochs": 1, "batch_size": 8, "lr": 0.05, "init_seed": 1, "order_seed": 1}},
            {"name": "b", "family": "cnn", "depth": 1, "channels": [2], "width": None,
             "train": {"epochs": 1, "batch_size": 8, "lr": 0.05, "augment_noise": 0.1, "plateau_patience": 1}},
        ]},
        "out": str(out),
    }


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory):
    zoo_out = tmp_path_factory.mktemp("tiny_zoo")
    cfg = tmp_path_factory.mktemp("tiny_cfg") / "zoo.json"
    assert main(["zoo", "--config", _write(cfg, _tiny_zoo_config(zoo_out))]) == 0
    common = {"manifest": str(zoo_out / "manifest.json"), "dataset": _tiny_dataset(), "out": "unused"}
    hp = {"epochs": 1, "batch_size": 8, "lr": 0.01, "temperature": 2.0, "seed": 0}
    return {
        "zoo": _tiny_zoo_config("unused"),
        "transfer": {**common, "transfer": {
            "method": "kl", "teacher": "a", "student": "b", "hyperparams": {**hp, "topk": 2}}},
        "multi": {**common, "transfer": {
            "method": "kl_dp_sup", "student": "b", "hyperparams": hp,
            "multi": {"mode": "parallel", "teachers": ["a"], "order": "given",
                      "retain_original_reference": False}}},
        "sweep": {**common, "sweep": {
            "methods": ["kl"], "max_pairs": 1, "bins": [-1.0, 0.0, 1.0], "hyperparams": hp,
            "pairs": {"delta_acc_min": -1.0, "delta_acc_max": 1.0}}},
    }


def _leaves(node, path=()):
    """Paths of every scalar in a JSON document, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        return [path]
    return [leaf for k, v in items for leaf in _leaves(v, (*path, k))]


_JSON_VALUES = st.one_of(
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(max_value=-1),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


# the sizes a config gives: their leaves also draw the smallest sizes and one
# that no address space holds, never a mid-sized one that would really allocate
_SIZE_LEAVES = ("samples", "image_size", "dims", "width")
_SIZE_VALUES = st.one_of(_JSON_VALUES, st.sampled_from([1, 2, 2**60]))


def _set_leaf(doc, data):
    """Replace one drawn leaf of ``doc`` with a drawn JSON value."""
    *parents, leaf = data.draw(st.sampled_from(_leaves(doc)))
    node = doc
    for k in parents:
        node = node[k]
    node[leaf] = data.draw(_SIZE_VALUES if leaf in _SIZE_LEAVES else _JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_config_leaf_value_exits_0_2_or_3(tiny_configs, data):
    command = data.draw(st.sampled_from(sorted(tiny_configs)))
    doc = _set_leaf(json.loads(json.dumps(tiny_configs[command])), data)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(pathlib.Path(tmp) / "cfg.json", doc)
        out = os.path.join(tmp, "out")
        code = main(["transfer" if command == "multi" else command, "--config", cfg, "--out", out])
        assert code in (0, 2, 3)
        assert code != 2 or not os.path.exists(out)  # a config error is raised before the commit


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_manifest_or_checkpoint_header_leaf_value_exits_0_2_or_3(tiny_configs, data):
    """The zoo a transfer reads is outside input too: one leaf of its manifest
    or of a checkpoint header, set to any JSON value, ends in a documented exit."""
    source = pathlib.Path(tiny_configs["transfer"]["manifest"]).parent
    with tempfile.TemporaryDirectory() as tmp:
        zoo = _copy_zoo(source, pathlib.Path(tmp) / "zoo")
        manifest = json.loads((zoo / "manifest.json").read_text())
        target = data.draw(st.sampled_from(["manifest.json", *(e["path"] for e in manifest["entries"])]))
        if target == "manifest.json":
            _write(zoo / target, _set_leaf(manifest, data))
        else:
            _edit_header(zoo / target, lambda header: _set_leaf(header, data))
        cfg = _write(pathlib.Path(tmp) / "cfg.json", {**tiny_configs["transfer"], "manifest": str(zoo / "manifest.json")})
        assert main(["transfer", "--config", cfg, "--out", os.path.join(tmp, "out")]) in (0, 2, 3)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_checkpoint_payload_damage_exits_0_2_or_3(tiny_configs, data):
    """A checkpoint of the zoo whose header length, payload bytes or size is
    damaged ends a single or multi-teacher transfer in a documented exit."""
    source = pathlib.Path(tiny_configs["transfer"]["manifest"]).parent
    command = data.draw(st.sampled_from(["transfer", "multi"]))
    with tempfile.TemporaryDirectory() as tmp:
        zoo = _copy_zoo(source, pathlib.Path(tmp) / "zoo")
        path = zoo / data.draw(st.sampled_from(sorted(f.name for f in zoo.glob("*.ckpt"))))
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", raw[5:9])
        damage = data.draw(st.sampled_from(["header_length", "payload", "truncate", "append"]))
        if damage == "header_length":
            raw[5:9] = struct.pack("<I", data.draw(st.integers(0, 2**32 - 1)))
        elif damage == "payload":
            at = data.draw(st.integers(9 + hlen, len(raw) - 8))
            raw[at : at + 8] = data.draw(st.binary(min_size=8, max_size=8))
        elif damage == "truncate":
            del raw[data.draw(st.integers(0, len(raw) - 1)) :]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=16))
        path.write_bytes(bytes(raw))
        cfg = _write(pathlib.Path(tmp) / "cfg.json", {**tiny_configs[command], "manifest": str(zoo / "manifest.json")})
        assert main(["transfer", "--config", cfg, "--out", os.path.join(tmp, "out")]) in (0, 2, 3)
