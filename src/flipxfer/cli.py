"""Command-line entry point: zoo / flips / transfer / sweep.

Every command takes a JSON config (``--config``). One resolver
(``config.resolve``) checks each section against the dataclass that consumes
it: it rejects unknown keys, fills defaults and types every value by one
rule (``config.typed``), the rule that also reads zoo manifests and
checkpoint headers. The fully-resolved config is written beside the outputs
so any run can be reproduced byte-for-byte from ``config.resolved.json``.

A command writes nothing itself: it returns its exit code, its resolved
config, its files (name -> writer of a path) and its summary, and
``_commit`` alone writes them under ``out``, ``config.resolved.json`` last.

Logging goes to stderr; stdout stays silent unless ``--json`` asks for the
machine-readable summary.  Exit codes: 0 ok, 2 config error, 3 runtime
failure, an allocation that fails (``MemoryError``) included, 130 SIGINT
(Ctrl-C) and 143 SIGTERM, which end the worker processes too (during
``_commit`` they can leave a partial ``out``); each failure is one line on
stderr, ``interrupted`` for a signal.

Accuracies, deltas, and bin edges are fractions in [0, 1] throughout the
emitted JSON/CSV (0.01 = one accuracy point).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from dataclasses import astuple, fields
from functools import partial

import numpy as np

from .analysis import (
    AnalysisError,
    binned_top_quartile_delta,
    classes_by_flips,
    flip_entropy,
    flip_stats_from_flags,
    semantic_similarity,
    success_rate,
    top_share_classes,
)
from .config import REQUIRED, ConfigError, dump_json, parse_json, resolve, write_json
from .data import DataError, Dataset, SyntheticConfig, load_idx, stratified_subsample, train_val_pair
from .models import CheckpointError, ModelSpec, save
from .multiteacher import check_plan, parallel_transfer, sequential_doc, sequential_transfer, soup_transfer
from .pool import keep_freed_memory, pool_map
from .transfer import (
    METHODS,
    EpochTrace,
    TrainingDivergedError,
    TransferError,
    TransferHyperparams,
    check_dataset,
    default_hyperparams,
    run_transfer,
    val_correct,
)
from .zoo import (
    ManifestError,
    PairFilter,
    TrainConfig,
    ZooManifest,
    load_manifest,
    pair_grid,
    pretrain_zoo,
    save_manifest,
    spread_pairs,
)

DEFAULT_BINS = [-0.3, -0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1, 0.3]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    try:
        with open(path, "rb") as f:
            cfg = parse_json(f.read(), path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return cfg


def _resolve_dataset(d: dict) -> dict:
    r = resolve(
        d, "dataset",
        synthetic=(dict | None, None), idx=(dict | None, None),
        subsample_fraction=(float, 1.0), subsample_seed=(int, 0),
    )
    if (r["synthetic"] is None) == (r["idx"] is None):
        raise ConfigError("dataset: exactly one of 'synthetic' or 'idx' must be given")
    if r["synthetic"] is not None:
        s = r["synthetic"] = resolve(
            r["synthetic"], "dataset.synthetic", SyntheticConfig, skip=("samples", "seed"),
            train=(dict, REQUIRED), val=(dict, REQUIRED),
        )
        for part in ("train", "val"):  # the draws' own sizes and seeds
            s[part] = resolve(s[part], f"dataset.synthetic.{part}", samples=(int, REQUIRED), seed=(int, REQUIRED))
    else:
        r["idx"] = resolve(
            r["idx"], "dataset.idx",
            **{k: (str, REQUIRED) for k in ("train_images", "train_labels", "val_images", "val_labels")},
        )
        for k, path in r["idx"].items():
            _path(path, f"dataset.idx.{k}")
    return {k: v for k, v in r.items() if v is not None}  # only the given source


def _build_datasets(resolved: dict) -> tuple[Dataset, Dataset]:
    """Returns (transfer/train set after subsampling, validation set)."""
    if "synthetic" in resolved:
        s = resolved["synthetic"]
        common = {k: v for k, v in s.items() if k not in ("train", "val")}
        try:
            cfg = SyntheticConfig(**common, **s["train"])
            train, val = train_val_pair(cfg, s["val"]["samples"], s["val"]["seed"])
        except DataError as e:
            raise ConfigError(f"dataset.synthetic: {e}") from e
    else:
        p = resolved["idx"]
        train = load_idx(p["train_images"], p["train_labels"])
        val = load_idx(p["val_images"], p["val_labels"])
    if resolved["subsample_fraction"] != 1.0:  # 1.0 keeps the draw as it is
        try:
            train = stratified_subsample(train, resolved["subsample_fraction"], resolved["subsample_seed"])
        except DataError as e:
            raise ConfigError(f"dataset.subsample_fraction, dataset.subsample_seed: {e}") from e
    return train, val


def _resolve_zoo(d: dict) -> dict:
    models = resolve(d, "zoo", models=(list[dict], REQUIRED))["models"]
    if len(models) < 2:
        raise ConfigError("zoo.models: need a list of at least 2 model entries")
    out, names = [], set()
    for i, m in enumerate(models):
        path = f"zoo.models[{i}]"
        m = resolve(
            m, path, ModelSpec, skip=("input_shape", "num_classes"), name=(str, REQUIRED), train=(dict, {})
        )
        if m["name"] in names:
            raise ConfigError(f"{path}: duplicate model name {m['name']!r}")
        if os.sep in m["name"] or "\0" in m["name"]:  # it names the checkpoint file
            raise ConfigError(f"{path}.name: {m['name']!r} is not a file name")
        names.add(m["name"])
        m["train"] = resolve(m["train"], f"{path}.train", TrainConfig)
        try:
            TrainConfig(**m["train"])
        except ValueError as e:  # its message starts with the field's name
            raise ConfigError(f"{path}.train.{e}") from e
        out.append(m)
    return {"models": out}


def _resolve_hyperparams(method: str, overrides: dict, seed_override: int | None, path: str) -> dict:
    hp = resolve(overrides, path, default_hyperparams(method))
    if seed_override is not None:
        hp["seed"] = seed_override
    try:
        TransferHyperparams(**hp)
    except TransferError as e:  # its message starts with the field's name
        raise ConfigError(f"{path}.{e}") from e
    if hp["topk"] is not None and method != "kl":
        raise ConfigError(f"{path}.topk: only method 'kl' uses topk, not {method!r}")
    return hp


def _check_topk(hp: dict, path: str, classes: int) -> None:
    """A topk keeps at most every class; the dataset, built before any work, gives their count."""
    if hp["topk"] is not None and hp["topk"] > classes:
        raise ConfigError(f"{path}.topk: {hp['topk']} is more than the dataset's {classes} classes")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def _write_csv(header, rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _commit(resolved: dict, files: dict) -> None:
    """Write a run's files under ``resolved["out"]``, then its resolved config.

    The old ``config.resolved.json`` goes before the first write and the new
    one is renamed into place after the last, so ``out`` holds one only
    beside the complete files of the run it describes. ``out`` is created
    here, so a run that fails before its commit leaves no new directory."""
    os.makedirs(resolved["out"], exist_ok=True)
    marker = os.path.join(resolved["out"], "config.resolved.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(marker)
    for name, write in files.items():
        write(os.path.join(resolved["out"], name))
    write_json(resolved, marker + ".tmp")
    os.replace(marker + ".tmp", marker)


def _path(path: str, key: str) -> str:
    """``path``, the value of the config key ``key``. A NUL byte in it is a
    config error, where ``open`` and ``os.makedirs`` would raise ValueError."""
    if "\0" in path:
        raise ConfigError(f"{key}: {path!r} contains a NUL byte")
    return path


def _check_out(cfg: dict, args) -> str:
    """The run's output directory, checked before the work; ``_commit`` creates it."""
    out = args.out or cfg["out"]
    if not out:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    _path(out, "out")
    nearest = os.path.abspath(out)
    while not os.path.exists(nearest):  # out itself, or the ancestor _commit would create it under
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise NotADirectoryError(f"out: {nearest} exists and is not a directory")
    return out


# ---------------------------------------------------------------------------
# commands


_OUT = (str | None, None)  # the top-level "out" key of every command


def cmd_zoo(cfg: dict, args) -> tuple[int, dict, dict, dict]:
    cfg = resolve(cfg, "", dataset=(dict, REQUIRED), zoo=(dict, REQUIRED), out=_OUT)
    resolved = cfg | {"dataset": _resolve_dataset(cfg["dataset"]), "zoo": _resolve_zoo(cfg["zoo"])}
    resolved["out"] = _check_out(cfg, args)
    train, val = _build_datasets(resolved["dataset"])
    specs: list[tuple[ModelSpec, TrainConfig]] = []
    names: list[str] = []
    for i, m in enumerate(resolved["zoo"]["models"]):
        arch = {k: v for k, v in m.items() if k not in ("name", "train")} | {"channels": m["channels"] or None}
        try:
            spec = ModelSpec(**arch, input_shape=train.input_shape, num_classes=train.num_classes)
        except ValueError as e:
            raise ConfigError(f"zoo.models[{i}]: {e}") from e
        specs.append((spec, TrainConfig(**m["train"])))
        names.append(m["name"])
    _log(f"training {len(specs)} zoo models on {train.n} samples")
    manifest, checkpoints = pretrain_zoo(specs, train, val, names=names)
    files = {e.path: partial(save, checkpoints[e.name]) for e in manifest.ok_entries()}
    files["manifest.json"] = partial(save_manifest, manifest)
    failed = [e.name for e in manifest.entries if e.failed]
    summary = {
        "models": {e.name: e.val_accuracy for e in manifest.entries},  # null for a failed model
        "failed": failed,
        "manifest": os.path.join(resolved["out"], "manifest.json"),
    }
    if failed:
        # the manifest records the failures; the exit code still reports them
        _log(f"error: {len(failed)} trainings diverged: {', '.join(failed)}")
    return 3 if failed else 0, resolved, files, summary


def _checkpoint(manifest: ZooManifest, name: str, key: str):
    by_name = {e.name: e for e in manifest.entries}
    if name not in by_name:
        raise ConfigError(f"{key}: no model {name!r} in the manifest; its models: {', '.join(by_name)}")
    if by_name[name].failed:
        trained = [e.name for e in manifest.ok_entries()]
        raise ConfigError(f"{key}: model {name!r} failed to train ({by_name[name].error}); trained models: {trained}")
    return manifest.load_checkpoint(name)


def _pair_grid(manifest: ZooManifest, path: str, flt: PairFilter):
    """The filtered pairs of the manifest's trained models, of which it needs two."""
    if len(manifest.ok_entries()) < 2:
        trained, failed = ([e.name for e in manifest.entries if e.failed == f] for f in (False, True))
        raise ManifestError(f"{path}: pairs need at least 2 trained models; trained: {trained}, failed: {failed}")
    pairs = pair_grid(manifest, flt)
    if not pairs:
        raise ConfigError("no pairs matched the filter")
    return pairs


def cmd_flips(cfg: dict, args) -> tuple[int, dict, dict, dict]:
    cfg = resolve(
        cfg, "", manifest=(str, REQUIRED), dataset=(dict, REQUIRED),
        pairs=(dict | None, None), embeddings=(str | None, None), out=_OUT,
    )
    resolved = cfg | {
        "dataset": _resolve_dataset(cfg["dataset"]), "pairs": resolve(cfg["pairs"] or {}, "pairs", PairFilter)
    }
    resolved["out"] = _check_out(cfg, args)
    if resolved["embeddings"]:
        _path(resolved["embeddings"], "embeddings")
    manifest = load_manifest(_path(resolved["manifest"], "manifest"))
    _, val = _build_datasets(resolved["dataset"])
    pairs = _pair_grid(manifest, resolved["manifest"], PairFilter(**resolved["pairs"]))
    emb = None
    if resolved["embeddings"]:
        try:
            emb = np.loadtxt(resolved["embeddings"], delimiter=",", ndmin=2)
        except ValueError as e:
            raise ConfigError(f"embeddings: {resolved['embeddings']} is not a numeric CSV: {e}") from e
        if emb.shape[0] != val.num_classes:
            raise ConfigError(f"embeddings: {emb.shape[0]} rows for {val.num_classes} classes")
        nonfinite = np.flatnonzero(~np.isfinite(emb).all(axis=1))
        if nonfinite.size:
            raise ConfigError(f"embeddings: {resolved['embeddings']} row {nonfinite[0] + 1} holds a non-finite value")
        zero = np.flatnonzero(np.linalg.norm(emb, axis=1) == 0.0)
        if zero.size:
            raise ConfigError(f"embeddings: {resolved['embeddings']} row {zero[0] + 1} has zero norm")
    correct = {}  # a flip reads only top-1 classes: see analysis.positive_flips
    for e in manifest.ok_entries():
        ck = manifest.load_checkpoint(e.name)
        check_dataset(ck, e.name, val=val)
        correct[e.name] = val_correct(ck, val)
    class_sizes = np.bincount(val.labels, minlength=val.num_classes)
    records = []
    per_class_rows = []
    for teacher, student in pairs:
        stats = flip_stats_from_flags(correct[teacher.name] & ~correct[student.name], val.labels, val.num_classes)
        rec = {
            "teacher": teacher.name,
            "student": student.name,
            "delta_acc": teacher.val_accuracy - student.val_accuracy,
            "rho_pos": stats.rho_pos,
            "flip_count": stats.total,
            "entropy": flip_entropy(stats),
            "per_class_counts": [int(c) for c in stats.per_class_counts],
        }
        if emb is not None and stats.total > 0:
            rec["semantic_similarity"] = {
                str(x): semantic_similarity(emb, top_share_classes(stats, x)) for x in (2, 5, 10, 20, 50)
            }
        records.append(rec)
        for rank, k in enumerate(classes_by_flips(stats)):
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
    files = {
        "flips.json": partial(write_json, {"pairs": records}),
        "per_class_flips.csv": partial(
            _write_csv, ["teacher", "student", "rank", "class", "flips", "class_share"], per_class_rows
        ),
        "entropy_vs_delta_acc.csv": partial(
            _write_csv,
            ["teacher", "student", "delta_acc", "rho_pos", "entropy"],
            [(r["teacher"], r["student"], r["delta_acc"], r["rho_pos"], r["entropy"]) for r in records],
        ),
    }
    return 0, resolved, files, {"pairs": len(records), "out": resolved["out"]}


def cmd_transfer(cfg: dict, args) -> tuple[int, dict, dict, dict]:
    cfg = resolve(
        cfg, "", manifest=(str, REQUIRED), dataset=(dict, REQUIRED), transfer=(dict, REQUIRED), out=_OUT
    )
    t = resolve(
        cfg["transfer"], "transfer",
        method=(str, REQUIRED), teacher=(str | None, None), student=(str, REQUIRED),
        hyperparams=(dict | None, None), multi=(dict | None, None),
    )
    method = t["method"]
    if method not in METHODS:
        raise ConfigError(f"transfer.method: unknown method {method!r}; valid: {', '.join(METHODS)}")
    if (t["teacher"] is None) == (t["multi"] is None):
        raise ConfigError("transfer: exactly one of 'teacher' or 'multi' must be given")
    multi = t["multi"]
    if multi is not None:
        multi = t["multi"] = resolve(
            t["multi"], "transfer.multi", mode=(str, REQUIRED), order=(str, "ascending"),
            retain_original_reference=(bool, False), teachers=(list[str], REQUIRED),
        )
        try:
            check_plan(multi["mode"], multi["order"], method)
        except TransferError as e:
            raise ConfigError(f"transfer.multi: {e}") from e
        if not multi["teachers"]:
            raise ConfigError("transfer.multi.teachers: need a non-empty list of zoo names")
    t["hyperparams"] = _resolve_hyperparams(method, t["hyperparams"] or {}, args.seed, "transfer.hyperparams")
    if multi is not None and multi["mode"] == "parallel" and t["hyperparams"]["topk"] is not None:
        raise ConfigError("transfer.hyperparams.topk: a parallel transfer does not use topk")
    resolved = cfg | {"dataset": _resolve_dataset(cfg["dataset"]), "transfer": t}
    resolved["out"] = _check_out(cfg, args)
    manifest = load_manifest(_path(resolved["manifest"], "manifest"))
    transfer_set, val = _build_datasets(resolved["dataset"])
    _check_topk(t["hyperparams"], "transfer.hyperparams", val.num_classes)
    hp = TransferHyperparams(**resolved["transfer"]["hyperparams"])
    student_name = resolved["transfer"]["student"]
    student = _checkpoint(manifest, student_name, "transfer.student")

    sequential = multi is not None and multi["mode"] == "sequential"
    if multi is None:
        teacher_name = resolved["transfer"]["teacher"]
        teacher = _checkpoint(manifest, teacher_name, "transfer.teacher")
        results = [run_transfer(student, teacher, method, hp, transfer_set, val, teacher_name, student_name)]
    else:
        teachers = [
            (n, _checkpoint(manifest, n, f"transfer.multi.teachers[{i}]")) for i, n in enumerate(multi["teachers"])
        ]
        if sequential:
            results = sequential_transfer(
                student, teachers, method, hp, transfer_set, val, student_name,
                multi["order"], multi["retain_original_reference"],
            )
        else:
            run = parallel_transfer if multi["mode"] == "parallel" else soup_transfer
            results = [run(student, teachers, method, hp, transfer_set, val, student_name)]
    report_doc = sequential_doc(results) if sequential else results[0].doc
    failed = [r.doc["teacher"] for r in results if "failed" in r.doc]
    if failed:  # the report records the failures; the exit code still reports them
        _log(f"error: {len(failed)} sequential stages diverged: {', '.join(failed)}")
    files = {
        "student_after.ckpt": partial(save, results[-1].student_after),
        "report.json": partial(write_json, report_doc),
        "per_epoch.csv": partial(
            _write_csv,
            ["stage", "epoch", *(f.name for f in fields(EpochTrace))],
            [
                (i if sequential else None, epoch, *astuple(trace))
                for i, r in enumerate(results)
                for epoch, trace in enumerate(r.per_epoch)
            ],
        ),
    }
    return 3 if failed else 0, resolved, files, report_doc


def _message(e: Exception) -> str:
    """An error's one-line message; a ``MemoryError`` says it ran out of memory
    (numpy's names the allocation)."""
    if isinstance(e, MemoryError):
        return f"out of memory: {e}" if str(e) else "out of memory"
    return str(e)


def _sweep_task(data, task):
    """One sweep run's row; a run that fails returns its error instead. ``data``
    is what every run reads: the checkpoints by name and the two datasets."""
    checkpoints, transfer_set, val_set = data
    tname, sname, method, hp_dict = task
    try:
        res = run_transfer(
            checkpoints[sname], checkpoints[tname], method, TransferHyperparams(**hp_dict), transfer_set, val_set,
            teacher_name=tname, student_name=sname, forward_epochs=False,  # a sweep writes no per-epoch traces
        )
    except (TransferError, TrainingDivergedError, AnalysisError, MemoryError) as e:
        return {"teacher": tname, "student": sname, "method": method, "error": _message(e)}
    rate = res.doc.get("transfer_rate", {"overall": None, "by_top_share": {}})  # absent with no flips
    return res.doc | {"transfer_rate_overall": rate["overall"], "transfer_rate_top2": rate["by_top_share"].get("2.0")}


def cmd_sweep(cfg: dict, args) -> tuple[int, dict, dict, dict]:
    cfg = resolve(cfg, "", manifest=(str, REQUIRED), dataset=(dict, REQUIRED), sweep=(dict, REQUIRED), out=_OUT)
    s = resolve(
        cfg["sweep"], "sweep",
        methods=(list[str], REQUIRED), pairs=(dict | None, None), hyperparams=(dict | None, None),
        bins=(list[float], DEFAULT_BINS), max_pairs=(int | None, None),
    )
    methods = s["methods"]
    if not methods:
        raise ConfigError("sweep.methods: need a non-empty list")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"sweep.methods: unknown method {m!r}; valid: {', '.join(METHODS)}")
    overrides = s["hyperparams"] or {}
    # either one flat override dict for every method, or a per-method mapping
    # (the resolved-config form, so reruns from it validate unchanged)
    per_method = bool(overrides) and set(overrides) <= set(METHODS)
    if per_method and not set(methods) <= set(overrides):
        raise ConfigError("sweep.hyperparams: per-method form must cover every method")
    hp_paths = {m: f"sweep.hyperparams.{m}" if per_method else "sweep.hyperparams" for m in methods}
    s["hyperparams"] = {
        m: _resolve_hyperparams(m, overrides[m] if per_method else overrides, args.seed, hp_paths[m]) for m in methods
    }
    s["pairs"] = resolve(s["pairs"] or {}, "sweep.pairs", PairFilter)
    if s["max_pairs"] is not None and s["max_pairs"] < 1:
        raise ConfigError(f"sweep.max_pairs: must be at least 1, got {s['max_pairs']}")
    try:
        binned_top_quartile_delta([], s["bins"])  # checks the edges
    except AnalysisError as e:
        raise ConfigError(f"sweep.bins: {e}") from e
    resolved = cfg | {"dataset": _resolve_dataset(cfg["dataset"]), "sweep": s}
    resolved["out"] = _check_out(cfg, args)
    manifest = load_manifest(_path(resolved["manifest"], "manifest"))
    transfer_set, val = _build_datasets(resolved["dataset"])
    for m in methods:
        _check_topk(s["hyperparams"][m], hp_paths[m], val.num_classes)
    pairs = _pair_grid(manifest, resolved["manifest"], PairFilter(**resolved["sweep"]["pairs"]))
    if resolved["sweep"]["max_pairs"] is not None:
        pairs = spread_pairs(pairs, resolved["sweep"]["max_pairs"])
    checkpoints = {e.name: manifest.load_checkpoint(e.name) for e in manifest.ok_entries()}
    for name, ck in checkpoints.items():
        check_dataset(ck, name, transfer=transfer_set, val=val)
    tasks = [(t.name, st.name, m, resolved["sweep"]["hyperparams"][m]) for t, st in pairs for m in methods]
    _log(f"sweep: {len(pairs)} pairs x {len(methods)} methods = {len(tasks)} runs")
    rows = pool_map(_sweep_task, (checkpoints, transfer_set, val), tasks, args.jobs)
    failed = [row for row in rows if "error" in row]
    rows = [row for row in rows if "error" not in row]
    header = [
        "teacher", "student", "method", "delta_acc", "rho_pos", "delta_transf",
        "knowledge_gain", "knowledge_loss", "transfer_rate_overall", "transfer_rate_top2",
    ]
    files = {"sweep.csv": partial(_write_csv, header, [[row[h] for h in header] for row in rows])}
    bins = resolved["sweep"]["bins"]
    summary: dict = {"pairs": len(pairs), "methods": {}}
    for m in resolved["sweep"]["methods"]:
        reports = [row for row in rows if row["method"] == m]
        if not reports:
            summary["methods"][m] = None  # every run of it failed
            continue
        binned = binned_top_quartile_delta(reports, bins)
        summary["methods"][m] = {
            "success_rate": success_rate(reports),
            "mean_delta_transf": float(np.mean([r["delta_transf"] for r in reports])),
            "binned_top_quartile_delta": {
                f"[{lo},{hi})": v for (lo, hi), v in binned.items()
            },
        }
    if failed:
        summary["failed"] = failed
    files["summary.json"] = partial(write_json, summary)
    for f in failed:
        _log(f"error: sweep run {f['method']} {f['teacher']} -> {f['student']}: {f['error']}")
    return 3 if failed else 0, resolved, files, summary


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


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
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config 'out')")
        p.add_argument("--json", action="store_true", help="print the summary JSON to stdout")
        if name in ("transfer", "sweep"):
            p.add_argument("--seed", type=int, default=None, help="override the transfer seed")
        if name == "sweep":
            p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers for the runs")
    return parser


_COMMANDS = {"zoo": cmd_zoo, "flips": cmd_flips, "transfer": cmd_transfer, "sweep": cmd_sweep}


def _terminate(signum, frame):
    raise KeyboardInterrupt(143)  # SIGTERM, raised in the main thread as SIGINT is; its exit code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_memory()  # eval forwards reuse their temporaries too, as training steps do
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        cfg = _load_config(args.config)
        code, resolved, files, summary = _COMMANDS[args.command](cfg, args)
        _commit(resolved, files)
    except ConfigError as e:
        _log(f"config error: {e}")
        return 2
    except (
        CheckpointError,
        DataError,
        ManifestError,
        TrainingDivergedError,
        TransferError,
        AnalysisError,
        OSError,
        MemoryError,
    ) as e:
        _log(f"error: {_message(e)}")
        return 3
    except KeyboardInterrupt as e:
        _log("interrupted")
        return e.args[0] if e.args else 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    if args.json:
        sys.stdout.write(dump_json(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
