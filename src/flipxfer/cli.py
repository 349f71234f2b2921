"""Command-line entry point: zoo / flips / transfer / sweep.

Every command takes a JSON config (``--config``), rejects unknown keys,
fills defaults, and writes the fully-resolved config beside its outputs so
any run can be reproduced byte-for-byte from ``config.resolved.json``.
Logging goes to stderr; stdout stays silent unless ``--json`` asks for the
machine-readable summary.  Exit codes: 0 ok, 2 config error, 3 runtime
failure.

Accuracies, deltas, and bin edges are fractions in [0, 1] throughout the
emitted JSON/CSV (0.01 = one accuracy point).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, fields

import numpy as np

from .analysis import (
    NoFlipsError,
    binned_top_quartile_delta,
    flip_entropy,
    positive_flips,
    semantic_similarity,
    success_rate,
    top_share_classes,
)
from .data import DataError, Dataset, SyntheticConfig, generate_synthetic, load_idx, stratified_subsample
from .models import CheckpointError, ModelSpec, predict_logits, save
from .multiteacher import (
    MODES,
    ORDERS,
    PLAN_METHODS,
    MultiTeacherPlan,
    parallel_transfer,
    sequential_transfer,
    soup_transfer,
)
from .transfer import (
    METHODS,
    EpochTrace,
    TransferDivergedError,
    TransferError,
    TransferHyperparams,
    default_hyperparams,
    run_transfer,
)
from .zoo import (
    PairFilter,
    TrainConfig,
    TrainingDivergedError,
    ZooManifest,
    load_manifest,
    pair_grid,
    pretrain_zoo,
)

DEFAULT_BINS = [-0.3, -0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1, 0.3]


class ConfigError(ValueError):
    pass


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return cfg


def _check_keys(obj: dict, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj or obj[key] is None:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return obj[key]


def _resolve_synthetic(d: dict) -> dict:
    _check_keys(
        d,
        {
            "classes",
            "dims",
            "image_size",
            "modes_per_class",
            "label_noise",
            "sigma",
            "anchor_scale",
            "anchor_seed",
            "train",
            "val",
        },
        "dataset.synthetic",
    )
    train = _require(d, "train", "dataset.synthetic")
    val = _require(d, "val", "dataset.synthetic")
    for name, section in (("train", train), ("val", val)):
        _check_keys(section, {"samples", "seed"}, f"dataset.synthetic.{name}")
        _require(section, "samples", f"dataset.synthetic.{name}")
        _require(section, "seed", f"dataset.synthetic.{name}")
    out = {
        "classes": int(_require(d, "classes", "dataset.synthetic")),
        "dims": d.get("dims"),
        "image_size": d.get("image_size"),
        "modes_per_class": int(d.get("modes_per_class", 1)),
        "label_noise": float(d.get("label_noise", 0.0)),
        "sigma": float(d.get("sigma", 1.0)),
        "anchor_scale": float(d.get("anchor_scale", 4.0)),
        "anchor_seed": int(d.get("anchor_seed", train["seed"])),
        "train": {"samples": int(train["samples"]), "seed": int(train["seed"])},
        "val": {"samples": int(val["samples"]), "seed": int(val["seed"])},
    }
    if train["seed"] == val["seed"]:
        raise ConfigError("dataset.synthetic: train and val seeds must differ")
    return out


def _resolve_dataset(d: dict) -> dict:
    _check_keys(d, {"synthetic", "idx", "subsample_fraction", "subsample_seed"}, "dataset")
    if ("synthetic" in d) == ("idx" in d):
        raise ConfigError("dataset: exactly one of 'synthetic' or 'idx' must be given")
    out = {
        "subsample_fraction": float(d.get("subsample_fraction", 1.0)),
        "subsample_seed": int(d.get("subsample_seed", 0)),
    }
    if "synthetic" in d:
        out["synthetic"] = _resolve_synthetic(d["synthetic"])
    else:
        idx = d["idx"]
        _check_keys(idx, {"train_images", "train_labels", "val_images", "val_labels"}, "dataset.idx")
        out["idx"] = {k: str(_require(idx, k, "dataset.idx")) for k in
                      ("train_images", "train_labels", "val_images", "val_labels")}
    return out


def _build_datasets(resolved: dict) -> tuple[Dataset, Dataset]:
    """Returns (transfer/train set after subsampling, validation set)."""
    if "synthetic" in resolved:
        s = resolved["synthetic"]
        common = {k: v for k, v in s.items() if k not in ("train", "val")}
        try:
            train = generate_synthetic(
                SyntheticConfig(samples=s["train"]["samples"], seed=s["train"]["seed"], **common)
            )
            val = generate_synthetic(
                SyntheticConfig(samples=s["val"]["samples"], seed=s["val"]["seed"], **common)
            )
        except DataError as e:
            raise ConfigError(f"dataset.synthetic: {e}") from e
    else:
        p = resolved["idx"]
        train = load_idx(p["train_images"], p["train_labels"])
        val = load_idx(p["val_images"], p["val_labels"])
    if resolved["subsample_fraction"] < 1.0:
        train = stratified_subsample(train, resolved["subsample_fraction"], resolved["subsample_seed"])
    return train, val


_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_HYPERPARAM_KEYS = {f.name for f in fields(TransferHyperparams)}


def _resolve_zoo(d: dict) -> dict:
    _check_keys(d, {"models"}, "zoo")
    models = _require(d, "models", "zoo")
    if not isinstance(models, list) or len(models) < 2:
        raise ConfigError("zoo.models: need a list of at least 2 model entries")
    out = []
    names = set()
    for i, m in enumerate(models):
        path = f"zoo.models[{i}]"
        _check_keys(m, {"name", "family", "depth", "width", "channels", "dropout", "train"}, path)
        name = str(_require(m, "name", path))
        if name in names:
            raise ConfigError(f"{path}: duplicate model name {name!r}")
        names.add(name)
        train = dict(m.get("train", {}))
        _check_keys(train, _TRAIN_KEYS, f"{path}.train")
        try:
            resolved_train = asdict(TrainConfig(**train))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path}.train: {e}") from e
        out.append(
            {
                "name": name,
                "family": str(_require(m, "family", path)),
                "depth": int(_require(m, "depth", path)),
                "width": m.get("width"),
                "channels": m.get("channels"),
                "dropout": float(m.get("dropout", 0.0)),
                "train": resolved_train,
            }
        )
    return {"models": out}


def _resolve_hyperparams(method: str, overrides: dict, seed_override: int | None, path: str) -> dict:
    _check_keys(overrides, _HYPERPARAM_KEYS, path)
    try:
        hp = default_hyperparams(method, **overrides)
    except (TransferError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    d = asdict(hp)
    if seed_override is not None:
        d["seed"] = int(seed_override)
    return d


def _resolve_filter(d: dict | None, path: str) -> dict:
    d = d or {}
    keys = [f.name for f in fields(PairFilter)]
    _check_keys(d, keys, path)
    return {k: d.get(k) for k in keys}


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(out_dir, resolved_config: dict, summary: dict, as_json: bool) -> None:
    _write_json(os.path.join(out_dir, "config.resolved.json"), resolved_config)
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))


def _prepare_out(cfg: dict, args) -> str:
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    os.makedirs(out, exist_ok=True)
    return str(out)


# ---------------------------------------------------------------------------
# commands


def cmd_zoo(cfg: dict, args) -> int:
    _check_keys(cfg, {"dataset", "zoo", "out"}, "config")
    resolved = {
        "dataset": _resolve_dataset(_require(cfg, "dataset", "config")),
        "zoo": _resolve_zoo(_require(cfg, "zoo", "config")),
    }
    out_dir = _prepare_out(cfg, args)
    resolved["out"] = out_dir
    train, val = _build_datasets(resolved["dataset"])
    specs: list[tuple[ModelSpec, TrainConfig]] = []
    names: list[str] = []
    for m in resolved["zoo"]["models"]:
        try:
            spec = ModelSpec(
                family=m["family"],
                depth=m["depth"],
                input_shape=train.input_shape,
                num_classes=train.num_classes,
                width=m["width"],
                channels=tuple(m["channels"]) if m["channels"] else None,
                dropout=m["dropout"],
            )
        except ValueError as e:
            raise ConfigError(f"zoo.models[{m['name']}]: {e}") from e
        specs.append((spec, TrainConfig(**m["train"])))
        names.append(m["name"])
    _log(f"training {len(specs)} zoo models on {train.n} samples")
    manifest = pretrain_zoo(specs, train, val, out_dir, names=names)
    failed = [e.name for e in manifest.entries if e.failed]
    summary = {
        "models": {
            e.name: (None if e.failed else e.val_accuracy) for e in manifest.entries
        },
        "failed": failed,
        "manifest": os.path.join(out_dir, "manifest.json"),
    }
    _emit(out_dir, resolved, summary, args.json)
    if failed:
        # the manifest records the failures; the exit code still reports them
        _log(f"error: {len(failed)} trainings diverged: {', '.join(failed)}")
        return 3
    return 0


def _load_zoo(cfg: dict) -> ZooManifest:
    manifest_path = _require(cfg, "manifest", "config")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    return load_manifest(manifest_path)


def cmd_flips(cfg: dict, args) -> int:
    _check_keys(cfg, {"manifest", "dataset", "pairs", "embeddings", "out"}, "config")
    resolved = {
        "manifest": str(_require(cfg, "manifest", "config")),
        "dataset": _resolve_dataset(_require(cfg, "dataset", "config")),
        "pairs": _resolve_filter(cfg.get("pairs"), "pairs"),
        "embeddings": cfg.get("embeddings"),
    }
    out_dir = _prepare_out(cfg, args)
    resolved["out"] = out_dir
    manifest = _load_zoo(resolved)
    _, val = _build_datasets(resolved["dataset"])
    flt = PairFilter(**resolved["pairs"])
    pairs = pair_grid(manifest, flt)
    if not pairs:
        raise ConfigError("no pairs matched the filter")
    emb = None
    if resolved["embeddings"]:
        emb = np.loadtxt(resolved["embeddings"], delimiter=",", ndmin=2)
        if emb.shape[0] != val.num_classes:
            raise ConfigError(
                f"embeddings: {emb.shape[0]} rows for {val.num_classes} classes"
            )
    logits = {}
    for e in manifest.ok_entries():
        ck = manifest.load_checkpoint(e.name)
        logits[e.name] = predict_logits(ck, val.inputs)
    class_sizes = np.bincount(val.labels, minlength=val.num_classes)
    records = []
    per_class_rows = []
    for teacher, student in pairs:
        stats = positive_flips(logits[teacher.name], logits[student.name], val.labels)
        entropy = flip_entropy(stats) if stats.total > 0 else None
        rec = {
            "teacher": teacher.name,
            "student": student.name,
            "delta_acc": teacher.val_accuracy - student.val_accuracy,
            "rho_pos": stats.rho_pos,
            "flip_count": stats.total,
            "entropy": entropy,
            "per_class_counts": [int(c) for c in stats.per_class_counts],
        }
        if emb is not None and stats.total > 0:
            rec["semantic_similarity"] = {
                str(int(x)): (
                    semantic_similarity(emb, classes)
                    if len(classes := top_share_classes(stats, x)) >= 2
                    else None
                )
                for x in (2, 5, 10, 20, 50)
            }
        records.append(rec)
        order = np.lexsort((np.arange(val.num_classes), -stats.per_class_counts))
        for rank, k in enumerate(order):
            cnt = int(stats.per_class_counts[k])
            if cnt == 0:
                break
            per_class_rows.append(
                (
                    teacher.name,
                    student.name,
                    rank,
                    int(k),
                    cnt,
                    cnt / int(class_sizes[k]) if class_sizes[k] else None,
                )
            )
    _write_json(os.path.join(out_dir, "flips.json"), {"pairs": records})
    _write_csv(
        os.path.join(out_dir, "per_class_flips.csv"),
        ["teacher", "student", "rank", "class", "flips", "class_share"],
        per_class_rows,
    )
    _write_csv(
        os.path.join(out_dir, "entropy_vs_delta_acc.csv"),
        ["teacher", "student", "delta_acc", "rho_pos", "entropy"],
        [
            (r["teacher"], r["student"], r["delta_acc"], r["rho_pos"], r["entropy"])
            for r in records
        ],
    )
    summary = {"pairs": len(records), "out": out_dir}
    _emit(out_dir, resolved, summary, args.json)
    return 0


def cmd_transfer(cfg: dict, args) -> int:
    _check_keys(cfg, {"manifest", "dataset", "transfer", "out"}, "config")
    t = _require(cfg, "transfer", "config")
    _check_keys(t, {"method", "teacher", "student", "hyperparams", "multi"}, "transfer")
    method = str(_require(t, "method", "transfer"))
    if method not in METHODS:
        raise ConfigError(f"transfer.method: unknown method {method!r}; valid: {', '.join(METHODS)}")
    if ("teacher" in t and t["teacher"] is not None) == ("multi" in t and t["multi"] is not None):
        raise ConfigError("transfer: exactly one of 'teacher' or 'multi' must be given")
    multi = None
    if t.get("multi") is not None:
        _check_keys(
            t["multi"],
            {"mode", "teachers", "order", "retain_original_reference"},
            "transfer.multi",
        )
        mode = str(_require(t["multi"], "mode", "transfer.multi"))
        if mode not in MODES:
            raise ConfigError(f"transfer.multi.mode: unknown mode {mode!r}; valid: {', '.join(MODES)}")
        order = str(t["multi"].get("order", "ascending"))
        if order not in ORDERS:
            raise ConfigError(f"transfer.multi.order: unknown order {order!r}; valid: {', '.join(ORDERS)}")
        if method not in PLAN_METHODS:
            raise ConfigError(
                f"transfer.method: multi-teacher transfer supports {', '.join(PLAN_METHODS)}, not {method!r}"
            )
        teachers = _require(t["multi"], "teachers", "transfer.multi")
        if not isinstance(teachers, list) or not teachers:
            raise ConfigError("transfer.multi.teachers: need a non-empty list of zoo names")
        multi = {
            "mode": mode,
            "teachers": [str(x) for x in teachers],
            "order": order,
            "retain_original_reference": bool(t["multi"].get("retain_original_reference", False)),
        }
    resolved = {
        "manifest": str(_require(cfg, "manifest", "config")),
        "dataset": _resolve_dataset(_require(cfg, "dataset", "config")),
        "transfer": {
            "method": method,
            "teacher": t.get("teacher"),
            "student": str(_require(t, "student", "transfer")),
            "hyperparams": _resolve_hyperparams(
                method, dict(t.get("hyperparams") or {}), args.seed, "transfer.hyperparams"
            ),
            "multi": multi,
        },
    }
    out_dir = _prepare_out(cfg, args)
    resolved["out"] = out_dir
    manifest = _load_zoo(resolved)
    transfer_set, val = _build_datasets(resolved["dataset"])
    hp = TransferHyperparams(**resolved["transfer"]["hyperparams"])
    student_name = resolved["transfer"]["student"]
    student = manifest.load_checkpoint(student_name)

    sequential = multi is not None and multi["mode"] == "sequential"
    if multi is None:
        teacher_name = str(resolved["transfer"]["teacher"])
        teacher = manifest.load_checkpoint(teacher_name)
        results = [
            run_transfer(
                student, teacher, method, hp, transfer_set, val,
                teacher_name=teacher_name, student_name=student_name,
            )
        ]
        report_doc = _result_doc(results[0])
    else:
        teachers = [manifest.load_checkpoint(n) for n in multi["teachers"]]
        plan = MultiTeacherPlan(
            teachers=tuple(teachers),
            mode=multi["mode"],
            method=method,
            order=multi["order"],
            retain_original_reference=multi["retain_original_reference"],
            teacher_names=tuple(multi["teachers"]),
        )
        if sequential:
            results = sequential_transfer(student, plan, hp, transfer_set, val, student_name)
            report_doc = {
                "mode": "sequential",
                "stages": [_result_doc(r) for r in results],
                "cumulative_delta_transf": (
                    results[-1].extras.get("cumulative_delta_transf") if results else 0.0
                ),
            }
        else:
            run = parallel_transfer if multi["mode"] == "parallel" else soup_transfer
            results = [run(student, plan, hp, transfer_set, val, student_name)]
            report_doc = {**_result_doc(results[0]), "mode": multi["mode"]}
    if results:
        save(results[-1].student_after, os.path.join(out_dir, "student_after.ckpt"))
    _write_json(os.path.join(out_dir, "report.json"), report_doc)
    _write_csv(
        os.path.join(out_dir, "per_epoch.csv"),
        ["stage", "epoch", *(f.name for f in fields(EpochTrace))],
        [
            (i if sequential else None, epoch, *astuple(trace))
            for i, r in enumerate(results)
            for epoch, trace in enumerate(r.per_epoch)
        ],
    )
    _emit(out_dir, resolved, report_doc, args.json)
    return 0


def _result_doc(res) -> dict:
    r = res.report
    acc_before = res.extras.get("acc_before")
    doc = {
        "method": res.method,
        "teacher": r.teacher,
        "student": r.student,
        "delta_acc": r.delta_acc,
        "delta_transf": r.delta_transf,
        "knowledge_gain": r.knowledge_gain,
        "knowledge_loss": r.knowledge_loss,
        "acc_before": acc_before,
        "acc_after": None if acc_before is None else acc_before + r.delta_transf,
        "rho_pos": res.extras.get("rho_pos"),
        "hyperparams": asdict(res.hyperparams),
        "per_class_gain": [None if np.isnan(v) else v for v in r.per_class_gain],
    }
    if res.rate is not None:
        doc["transfer_rate"] = {
            "overall": res.rate["overall"],
            "by_top_share": {str(k): v for k, v in res.rate["by_top_share"].items()},
        }
    for key in ("failed", "cumulative_delta_transf", "branch_deltas", "source_share"):
        if key in res.extras:
            doc[key] = res.extras[key]
    return doc


def _sweep_task(task):
    teacher_ck, student_ck, method, hp_dict, transfer_set, val_set, tname, sname = task
    res = run_transfer(
        student_ck, teacher_ck, method, TransferHyperparams(**hp_dict), transfer_set, val_set,
        teacher_name=tname, student_name=sname,
    )
    rate_top2 = None
    rate_all = None
    if res.rate is not None:
        rate_all = res.rate["overall"]
        rate_top2 = res.rate["by_top_share"].get(2.0)
    return {
        "teacher": tname,
        "student": sname,
        "method": method,
        "delta_acc": res.report.delta_acc,
        "rho_pos": res.extras["rho_pos"],
        "delta_transf": res.report.delta_transf,
        "knowledge_gain": res.report.knowledge_gain,
        "knowledge_loss": res.report.knowledge_loss,
        "transfer_rate_overall": rate_all,
        "transfer_rate_top2": rate_top2,
        "report": res.report,
    }


def cmd_sweep(cfg: dict, args) -> int:
    _check_keys(cfg, {"manifest", "dataset", "sweep", "out"}, "config")
    s = _require(cfg, "sweep", "config")
    _check_keys(s, {"methods", "pairs", "hyperparams", "bins", "max_pairs"}, "sweep")
    methods = _require(s, "methods", "sweep")
    if not isinstance(methods, list) or not methods:
        raise ConfigError("sweep.methods: need a non-empty list")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"sweep.methods: unknown method {m!r}; valid: {', '.join(METHODS)}")
    overrides = dict(s.get("hyperparams") or {})
    # either one flat override dict for every method, or a per-method mapping
    # (the resolved-config form, so reruns from it validate unchanged)
    if overrides and set(overrides) <= set(METHODS):
        if not set(methods) <= set(overrides):
            raise ConfigError("sweep.hyperparams: per-method form must cover every method")
        per_method = {
            m: _resolve_hyperparams(m, dict(overrides[m]), args.seed, f"sweep.hyperparams.{m}")
            for m in methods
        }
    else:
        per_method = {
            m: _resolve_hyperparams(m, overrides, args.seed, "sweep.hyperparams")
            for m in methods
        }
    resolved = {
        "manifest": str(_require(cfg, "manifest", "config")),
        "dataset": _resolve_dataset(_require(cfg, "dataset", "config")),
        "sweep": {
            "methods": [str(m) for m in methods],
            "pairs": _resolve_filter(s.get("pairs"), "sweep.pairs"),
            "hyperparams": per_method,
            "bins": [float(b) for b in s.get("bins", DEFAULT_BINS)],
            "max_pairs": s.get("max_pairs"),
        },
    }
    out_dir = _prepare_out(cfg, args)
    resolved["out"] = out_dir
    manifest = _load_zoo(resolved)
    transfer_set, val = _build_datasets(resolved["dataset"])
    flt = PairFilter(**resolved["sweep"]["pairs"])
    pairs = pair_grid(manifest, flt)
    if not pairs:
        raise ConfigError("no pairs matched the filter")
    max_pairs = resolved["sweep"]["max_pairs"]
    if max_pairs is not None and len(pairs) > int(max_pairs):
        # deterministic spread over the delta_acc range
        pairs.sort(key=lambda p: (p[0].val_accuracy - p[1].val_accuracy, p[0].name, p[1].name))
        keep = np.linspace(0, len(pairs) - 1, int(max_pairs)).round().astype(int)
        pairs = [pairs[i] for i in sorted(set(keep))]
    checkpoints = {e.name: manifest.load_checkpoint(e.name) for e in manifest.ok_entries()}
    tasks = [
        (
            checkpoints[t.name],
            checkpoints[st.name],
            m,
            resolved["sweep"]["hyperparams"][m],
            transfer_set,
            val,
            t.name,
            st.name,
        )
        for t, st in pairs
        for m in resolved["sweep"]["methods"]
    ]
    _log(f"sweep: {len(pairs)} pairs x {len(methods)} methods = {len(tasks)} runs")
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            rows = list(ex.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    header = [
        "teacher", "student", "method", "delta_acc", "rho_pos", "delta_transf",
        "knowledge_gain", "knowledge_loss", "transfer_rate_overall", "transfer_rate_top2",
    ]
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        header,
        [[row[h] for h in header] for row in rows],
    )
    bins = resolved["sweep"]["bins"]
    summary: dict = {"pairs": len(pairs), "methods": {}}
    for m in resolved["sweep"]["methods"]:
        reports = [row["report"] for row in rows if row["method"] == m]
        binned = binned_top_quartile_delta(reports, bins)
        summary["methods"][m] = {
            "success_rate": success_rate(reports),
            "mean_delta_transf": float(np.mean([r.delta_transf for r in reports])),
            "binned_top_quartile_delta": {
                f"[{lo},{hi})": v for (lo, hi), v in binned.items()
            },
        }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _emit(out_dir, resolved, summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--out", default=None, help="output directory (overrides config 'out')")
    p.add_argument("--seed", type=int, default=None, help="override the transfer seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    p.add_argument("--json", action="store_true", help="print the summary JSON to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipxfer",
        description="Model zoos, prediction-flip analysis, and knowledge transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("zoo", "train a model zoo and write its manifest"),
        ("flips", "measure complementary knowledge for zoo pairs"),
        ("transfer", "run one knowledge transfer (single or multi teacher)"),
        ("sweep", "run transfers over a pair grid and summarize"),
    ):
        _add_common(sub.add_parser(name, help=help_))
    return parser


_COMMANDS = {"zoo": cmd_zoo, "flips": cmd_flips, "transfer": cmd_transfer, "sweep": cmd_sweep}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        _log(f"config error: {e}")
        return 2
    except (
        FileNotFoundError,
        CheckpointError,
        DataError,
        TrainingDivergedError,
        TransferDivergedError,
        TransferError,
        NoFlipsError,
        OSError,
    ) as e:
        _log(f"error: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
