"""Workload definitions: every config and seed the program sees comes from here.

A workload is a setup step (configs plus, for two of them, a trained input
zoo) and a fixed list of CLI operations. The list is the unit the harness
repeats and times. All paths are relative to the work directory, which the
harness makes the current directory, so resolved configs and hashes do not
depend on where the checkout lives.

Sizes are fixed; only seeds vary with ``--seed``. They were chosen for the
run time of one repetition (a few seconds on a 2-core box), never to avoid
an operation's failure: known failures stay in the op list (see README.md).
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field

METHODS = ("kl", "xe_kl", "xe_kl_mcl", "kl_dp_sup", "kl_dp_unsup", "cd")
SWEEP_JOBS = 2
SWEEP_PAIRS = 4

# files an op must have written when it exits 0
EXPECTED_FILES = {
    "zoo": ("manifest.json", "config.resolved.json"),
    "flips": ("flips.json", "per_class_flips.csv", "entropy_vs_delta_acc.csv", "config.resolved.json"),
    "transfer": ("report.json", "per_epoch.csv", "student_after.ckpt", "config.resolved.json"),
    "sweep": ("sweep.csv", "summary.json", "config.resolved.json"),
}


@dataclass
class Op:
    """One CLI invocation: ``flipxfer <command> --config <config> ...``."""

    name: str
    command: str
    config: str
    out: str
    extra: tuple = ()
    sweep_tasks: int = 0  # pool tasks the op submits, for span accounting

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", self.config, *self.extra]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    files: dict = field(default_factory=dict)  # config path -> document
    setup_zoo: str | None = None  # config path trained during setup
    round_s: float = 1.0  # nominal seconds of one repetition of ``ops``; sets the repetition count


def _seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(f"flipxfer-bench:{seed}")
    return [rng.randrange(1, 2**31 - 1) for _ in range(n)]


def _dataset(seeds, fraction: float) -> dict:
    train_seed, val_seed, anchor_seed, sub_seed = seeds
    return {
        "synthetic": {
            "classes": 10,
            "image_size": 8,
            "modes_per_class": 4,
            "label_noise": 0.02,
            "sigma": 1.0,
            "anchor_scale": 1.5,
            "anchor_seed": anchor_seed,
            "train": {"samples": 3000, "seed": train_seed},
            "val": {"samples": 2000, "seed": val_seed},
        },
        "subsample_fraction": fraction,
        "subsample_seed": sub_seed,
    }


def _mlp(name, depth, width, epochs, lr, seed, dropout=0.0):
    return {
        "name": name, "family": "mlp", "depth": depth, "width": width, "dropout": dropout,
        "train": {"epochs": epochs, "lr": lr, "augment_noise": 0.5, "init_seed": seed, "order_seed": seed},
    }


def _cnn(name, epochs, lr, seed):
    return {
        "name": name, "family": "cnn", "depth": 3, "channels": [8, 8, 8],
        "train": {"epochs": epochs, "lr": lr, "augment_noise": 0.5, "init_seed": seed, "order_seed": seed},
    }


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed)


def _zoo(seed: int) -> Workload:
    """Training-dominated: a mixed zoo, then flips over all ordered pairs."""
    s = _seeds(seed, 8)
    w = Workload("zoo", seed, round_s=3.0)
    w.files["zoo.json"] = {
        "dataset": _dataset(s[:4], 1.0),
        "zoo": {"models": [
            _mlp("mlp_w32", 2, 32, 6, 0.06, s[4], dropout=0.1),
            _mlp("mlp_w64", 3, 64, 4, 0.05, s[5]),
            _mlp("mlp_w16", 2, 16, 6, 0.08, s[6]),
            _cnn("cnn_c8", 2, 0.04, s[7]),
        ]},
        "out": "out/zoo",
    }
    w.files["flips.json"] = {
        "manifest": "out/zoo/manifest.json",
        "dataset": _dataset(s[:4], 1.0),
        "out": "out/flips",
    }
    w.ops = [Op("zoo", "zoo", "zoo.json", "out/zoo"), Op("flips", "flips", "flips.json", "out/flips")]
    return w


def _transfer_cnn(seed: int) -> Workload:
    """Eval-dominated: six single-teacher transfers into a CNN student."""
    s = _seeds(seed, 7)
    w = Workload("transfer_cnn", seed, round_s=8.5)
    w.files["setup_zoo.json"] = {
        "dataset": _dataset(s[:4], 0.5),
        "zoo": {"models": [_mlp("mlp_w32", 2, 32, 10, 0.06, s[4]), _cnn("cnn_c8", 4, 0.08, s[5])]},
        "out": "zoo",
    }
    w.setup_zoo = "setup_zoo.json"
    for method in METHODS:
        cfg = f"transfer_{method}.json"
        w.files[cfg] = {
            "manifest": "zoo/manifest.json",
            "dataset": _dataset(s[:4], 0.1),
            "transfer": {
                "method": method, "teacher": "mlp_w32", "student": "cnn_c8",
                "hyperparams": {"epochs": 2, "batch_size": 64, "seed": s[6]},
            },
            "out": f"out/{method}",
        }
        w.ops.append(Op(method, "transfer", cfg, f"out/{method}"))
    return w


def _sweep_mlp(seed: int) -> Workload:
    """Tape-overhead and pool dominated: per-method sweeps and multi-teacher runs on MLPs."""
    s = _seeds(seed, 9)
    w = Workload("sweep_mlp", seed, round_s=4.0)
    w.files["setup_zoo.json"] = {
        "dataset": _dataset(s[:4], 1.0),
        "zoo": {"models": [
            _mlp("mlp_a", 2, 32, 20, 0.06, s[4], dropout=0.1),
            _mlp("mlp_b", 3, 32, 20, 0.05, s[5]),
            _mlp("mlp_c", 2, 16, 20, 0.08, s[6]),
            _mlp("mlp_d", 2, 48, 2, 0.05, s[7]),
        ]},
        "out": "zoo",
    }
    w.setup_zoo = "setup_zoo.json"
    dataset = _dataset(s[:4], 0.1)
    for method in METHODS:
        cfg = f"sweep_{method}.json"
        w.files[cfg] = {
            "manifest": "zoo/manifest.json",
            "dataset": dataset,
            "sweep": {"methods": [method], "max_pairs": SWEEP_PAIRS, "hyperparams": {"seed": s[8]}},
            "out": f"out/sweep_{method}",
        }
        w.ops.append(Op(f"sweep_{method}", "sweep", cfg, f"out/sweep_{method}",
                        ("--jobs", str(SWEEP_JOBS)), sweep_tasks=SWEEP_PAIRS))
    for mode in ("sequential", "parallel", "soup"):
        cfg = f"multi_{mode}.json"
        w.files[cfg] = {
            "manifest": "zoo/manifest.json",
            "dataset": dataset,
            "transfer": {
                "method": "kl_dp_sup", "student": "mlp_d",
                "multi": {"mode": mode, "teachers": ["mlp_a", "mlp_b", "mlp_c"]},
                "hyperparams": {"seed": s[8]},
            },
            "out": f"out/multi_{mode}",
        }
        w.ops.append(Op(f"multi_{mode}", "transfer", cfg, f"out/multi_{mode}"))
    return w


WORKLOADS = {"zoo": _zoo, "transfer_cnn": _transfer_cnn, "sweep_mlp": _sweep_mlp}


def write_configs(w: Workload) -> None:
    """Write every config of the workload into the current directory."""
    for path, doc in w.files.items():
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    if os.path.exists(path):
        raise OSError(f"could not clear {path}")
