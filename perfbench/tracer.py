"""Outside-in tracer: times calls into flipxfer's public functions without editing them.

``Tracer.install`` replaces each function listed in ``LAYERS`` with a timing
wrapper in every ``flipxfer.*`` module namespace that binds it (modules use
``from .x import y``, so one function can have several bindings), then checks
that no binding of a wrapped function was missed. Spans (name, start, end,
parent, pid) are kept in memory; self time is a span's duration minus the
time its child spans cover in the same process.

Sweep pool workers are forked from the traced process and so run the
wrappers too. A worker keeps the spans of one pool task in memory and writes
them to the spool directory when the task ends; ``collect_workers`` merges
them after the op and names any task whose spans did not arrive.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import types
from collections import defaultdict
from time import perf_counter


def _shape(t):
    return getattr(t, "data", t).shape


def _conv2d_attrs(args, kwargs, result):
    x, w = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    n, cin, h, wd = _shape(x)
    cout = _shape(w)[0]
    positions = n * ((h - 1) // stride + 1) * ((wd - 1) // stride + 1)
    return {
        "rows": n,
        "flops": 2 * positions * cin * 9 * cout,  # forward multiply-adds, from shapes
        "im2col_bytes": positions * cin * 9 * 8,  # float64 patch matrix
    }


def _rows_of(i):
    return lambda args, kwargs, result: {"rows": len(args[i])}


def _model_forward_name(args, kwargs):
    train = args[3] if len(args) > 3 else kwargs.get("train", False)
    return "models.model_forward.train" if train else "models.model_forward.eval"


def _file_bytes(i):
    def attrs(args, kwargs, result):
        path = args[i]
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return attrs


# module -> {function name: (span name, or a function of (args, kwargs) giving it; attrs function)}
LAYERS = {
    "autodiff": {
        "conv2d": ("autodiff.conv2d", _conv2d_attrs),
        "backward": ("autodiff.backward", lambda a, k, r: {"nodes": len(a[0].nodes)}),
        "sgd_step": ("autodiff.sgd_step", None),
        "affine": ("autodiff.affine", None),
        "relu": ("autodiff.relu", None),
        "dropout": ("autodiff.dropout", None),
        "global_avg_pool": ("autodiff.global_avg_pool", None),
        "log_softmax": ("autodiff.log_softmax", None),
    },
    "models": {
        "predict_logits": ("models.predict_logits", _rows_of(1)),
        "predict_features": ("models.predict_features", _rows_of(1)),
        "model_forward": (_model_forward_name, lambda a, k, r: {"rows": _shape(a[2])[0]}),
        "save": ("models.save", _file_bytes(1)),
        "load": ("models.load", _file_bytes(0)),
    },
    "data": {
        "generate_synthetic": ("data.generate_synthetic", None),
        "stratified_subsample": ("data.stratified_subsample", None),
        "augment_batch": ("data.augment_batch", None),
        "epoch_permutation": ("data.epoch_permutation", None),
    },
    "zoo": {
        "train_model": ("zoo.train_model", None),
        "pretrain_zoo": ("zoo.pretrain_zoo", None),
        "save_manifest": ("zoo.save_manifest", None),
        "load_manifest": ("zoo.load_manifest", None),
        "pair_grid": ("zoo.pair_grid", lambda a, k, r: {"pairs": len(r) if r is not None else 0}),
    },
    "analysis": {
        name: (f"analysis.{name}", None)
        for name in ("positive_flips", "knowledge_gain_loss", "transfer_rate", "per_class_gain", "flip_entropy")
    },
    "transfer": {
        name: (f"transfer.{name}", None)
        for name in (
            "run_transfer", "kl_loss", "xe_kl_loss", "xe_loss", "dp_loss", "cd_loss",
            "topk_restricted_kl", "mcl_interpolate", "dp_masks_supervised", "dp_masks_unsupervised",
        )
    },
    "multiteacher": {
        name: (f"multiteacher.{name}", None)
        for name in ("sequential_transfer", "parallel_transfer", "soup_transfer")
    },
    "cli": {
        "main": ("cli.main", None),
        "cmd_zoo": ("cli.zoo", None),
        "cmd_flips": ("cli.flips", None),
        "cmd_transfer": ("cli.transfer", None),
        "cmd_sweep": ("cli.sweep", None),
        "_sweep_task": ("cli.sweep_task", None),  # runs in the pool workers
    },
}

WORKER_TASK = "cli.sweep_task"


class CoverageError(RuntimeError):
    pass


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "flipxfer" or name.startswith("flipxfer."))]


def _bindings_of(originals: dict) -> list[tuple[str, object, object]]:
    """Every place a flipxfer module holds one of ``originals`` (id -> function):
    module globals, values of module-level dicts (dispatch tables), class
    attributes and function defaults. Returns (where, holder, key); holder is
    a module or dict that can be rebound, or None where it cannot."""
    def held(obj):
        return id(obj) in originals and originals[id(obj)] is obj

    found = []
    for mod in _program_modules():
        for attr, val in vars(mod).items():
            if held(val):
                found.append((f"{mod.__name__}.{attr}", mod, attr))
            elif isinstance(val, dict):
                found += [(f"{mod.__name__}.{attr}[{k!r}]", val, k) for k, v in val.items() if held(v)]
            elif isinstance(val, (list, tuple, set, frozenset)):
                found += [(f"{mod.__name__}.{attr}[...]", None, None) for v in val if held(v)]
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            holders = []
            if isinstance(val, type):
                holders = list(vars(val).values())
            elif isinstance(val, types.FunctionType):
                holders = [*(val.__defaults__ or ()), *(val.__kwdefaults__ or {}).values()]
            found += [(f"{mod.__name__}.{attr} (nested)", None, None) for h in holders if held(h)]
    return found


def _get(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def _set(holder, key, value):
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent, child_s, attrs, error class, pid]
        self.stack: list[int] = []
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.in_worker = False
        self.task_seq = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("flipxfer.cli")  # imports every layer
        for modname, funcs in LAYERS.items():
            mod = importlib.import_module(f"flipxfer.{modname}")
            for fname, (span, attrs) in funcs.items():
                orig = getattr(mod, fname)
                self.originals[id(orig)] = orig
                self.wrappers[id(orig)] = self._wrap(orig, span, attrs)
        for where, holder, key in _bindings_of(self.originals):
            if holder is None:
                raise CoverageError(f"cannot rebind {where}")
            orig = _get(holder, key)
            _set(holder, key, self.wrappers[id(orig)])
            self.patched.append((holder, key, orig))
        self.check_coverage()

    def check_coverage(self) -> None:
        """Fail if any flipxfer namespace still binds an unwrapped function."""
        left = [where for where, _, _ in _bindings_of(self.originals)]
        if left:
            raise CoverageError(f"unwrapped bindings: {', '.join(left)}")

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self.patched):
            _set(holder, key, orig)
        self.patched.clear()

    def _wrap(self, fn, span, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(span(args, kwargs) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(idx, None, type(e).__name__)
                raise
            tracer._close(idx, attrs_fn(args, kwargs, result) if attrs_fn else None, None)
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        if os.getpid() != self.pid:  # first span in a forked pool worker
            self.pid, self.spans, self.stack, self.in_worker = os.getpid(), [], [], True
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, None, None, self.pid])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int, attrs, error) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2], span[5], span[6] = end, attrs, error
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][4] += end - span[1]
        if self.in_worker and not self.stack:
            self._flush_worker()

    def _flush_worker(self) -> None:
        self.task_seq += 1
        path = os.path.join(self.spool_dir, f"worker-{self.pid}-{self.task_seq}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as f:
            json.dump(self.spans, f)
        os.replace(path + ".tmp", path)
        self.spans = []

    def collect_workers(self, op_name: str, expected_tasks: int) -> None:
        """Merge the spans pool workers spooled for one op."""
        got = 0
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            if not fname.endswith(".json"):
                continue
            with open(path, encoding="utf-8") as f:
                spans = json.load(f)
            os.remove(path)
            base = len(self.spans)
            for s in spans:
                if s[3] is not None:
                    s[3] += base
                got += s[0] == WORKER_TASK
                self.spans.append(s)
        if got < expected_tasks:
            self.missing.append(f"{op_name}: spans of {expected_tasks - got} of {expected_tasks} pool tasks")

    def aggregate(self) -> dict[str, float]:
        """Sums per span name: calls, s (inclusive), self_s, failed and attrs."""
        agg: dict[str, float] = defaultdict(float)
        for name, start, end, _, child_s, attrs, error, _ in self.spans:
            agg[f"{name}.calls"] += 1
            agg[f"{name}.s"] += end - start
            agg[f"{name}.self_s"] += end - start - child_s
            agg[f"{name}.failed"] += error is not None
            for k, v in (attrs or {}).items():
                agg[f"{name}.{k}"] += v
        return agg

    def errors(self) -> dict[str, int]:
        """Count of raising spans by "span name: exception class"."""
        counts: dict[str, int] = defaultdict(int)
        for name, *_, error, _ in self.spans:
            if error is not None:
                counts[f"{name}: {error}"] += 1
        return dict(sorted(counts.items()))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, child_s, attrs, error, pid in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "self_s": end - start - child_s, "error": error, "pid": pid,
                                    "attrs": attrs}) + "\n")
            for m in self.missing:
                f.write(json.dumps({"missing": m}) + "\n")
