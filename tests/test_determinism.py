"""No output byte depends on the usable CPUs or the BLAS thread count, checked
at the real entry point.

One chain of commands runs through ``python -m flipxfer.cli`` in
subprocesses: a zoo of two MLPs and a CNN, flips with class embeddings,
six transfers into the CNN (``kl``, ``kl_dp_sup``, ``xe_kl_mcl`` with its
slow and fast weights, ``cd``, whose 8-wide CNN features meet the 6-wide
teacher's through the trained projection, a sequential and a parallel plan)
and a two-worker sweep. The CNN's 200-row
val forward spans four eval chunks, so its evals run in threads where a
process has two CPUs. The chain runs unpinned, with the child pinned to one
CPU, and at two BLAS threads, each into the same ``out`` path, so the
resolved configs are equal too; then the trees are compared byte for byte.
"""

import csv
import json
import os
import subprocess
import sys

import pytest

import flipxfer
from flipxfer.models import ModelSpec, eval_chunk_rows

VAL_ROWS = 200
_CNN = {"name": "c", "family": "cnn", "depth": 2, "channels": [8, 8],
        "train": {"epochs": 2, "batch_size": 16, "augment_noise": 0.1}}
_DATA = {"synthetic": {"classes": 8, "image_size": 8,
                       "train": {"samples": 64, "seed": 1}, "val": {"samples": VAL_ROWS, "seed": 2}}}
_HP = {"epochs": 2, "batch_size": 16, "lr": 0.1}
_TRANSFERS = {
    "kl": {"method": "kl", "teacher": "m", "student": "c"},
    "kl_dp_sup": {"method": "kl_dp_sup", "teacher": "m", "student": "c"},
    "xe_kl_mcl": {"method": "xe_kl_mcl", "teacher": "m", "student": "c"},
    "cd": {"method": "cd", "teacher": "n", "student": "c"},
    "sequential": {"method": "kl_dp_sup", "student": "c", "multi": {"mode": "sequential", "teachers": ["m", "n"]}},
    "parallel": {"method": "kl_dp_sup", "student": "c", "multi": {"mode": "parallel", "teachers": ["m", "n"]}},
}
# eight finite, nonzero class embeddings with a nonzero mean pairwise cosine
_EMBEDDINGS = "1,0\n0,1\n1,1\n1,-1\n2,1\n1,2\n2,-1\n-1,2\n"


def _configs(d: str) -> list[tuple[str, dict, list[str]]]:
    """(command, config, extra arguments) of each step, in order."""
    manifest = os.path.join(d, "out", "manifest.json")
    zoo = {"dataset": _DATA, "zoo": {"models": [
        {"name": "m", "family": "mlp", "depth": 2, "width": 8, "train": {"epochs": 2, "batch_size": 16}},
        {"name": "n", "family": "mlp", "depth": 2, "width": 6, "train": {"epochs": 3, "batch_size": 16}},
        _CNN,
    ]}}
    steps = [("zoo", zoo, ["--out", os.path.join(d, "out")])]
    steps.append(("flips", {"manifest": manifest, "dataset": _DATA, "embeddings": os.path.join(d, "embeddings.csv")},
                  ["--out", os.path.join(d, "out", "flips")]))
    for name, t in _TRANSFERS.items():
        steps.append(("transfer", {"manifest": manifest, "dataset": _DATA, "transfer": t | {"hyperparams": _HP}},
                      ["--out", os.path.join(d, "out", name)]))
    steps.append(("sweep", {"manifest": manifest, "dataset": _DATA, "sweep": {"methods": ["kl"], "hyperparams": _HP}},
                  ["--out", os.path.join(d, "out", "sweep"), "--jobs", "2"]))
    return steps


def _tree(root: str) -> dict[str, bytes]:
    files = {}
    for here, _, names in os.walk(root):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def _run_chain(d: str, label: str, blas_threads: int = 1, cpu: int | None = None) -> dict[str, bytes]:
    """Run every step into ``d/out``, move it to ``d/label`` and return its files."""
    src = os.path.dirname(os.path.dirname(flipxfer.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": str(blas_threads)}
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))  # the child only
    for i, (command, cfg, extra) in enumerate(_configs(d)):
        path = os.path.join(d, f"{i}_{command}.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        argv = [sys.executable, "-m", "flipxfer.cli", command, "--config", path, *extra]
        done = subprocess.run(argv, env=env, preexec_fn=pin, capture_output=True, text=True)
        assert done.returncode == 0, f"{label}: {command} exited {done.returncode}: {done.stderr}"
    os.rename(os.path.join(d, "out"), os.path.join(d, label))
    return _tree(os.path.join(d, label))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The directory the runs share, and the unpinned run at one BLAS thread,
    checked not to be degenerate."""
    d = str(tmp_path_factory.mktemp("chain"))
    with open(os.path.join(d, "embeddings.csv"), "w") as f:
        f.write(_EMBEDDINGS)
    files = _run_chain(d, "unpinned")
    # the flips compared at least one computed similarity, not only nulls
    pairs = json.loads(files[os.path.join("flips", "flips.json")])["pairs"]
    assert any(v is not None for p in pairs for v in p.get("semantic_similarity", {}).values())
    assert any("transfer_rate" in json.loads(files[os.path.join(t, "report.json")]) for t in _TRANSFERS)
    for t in _TRANSFERS:  # every transfer's traces move (MCL: the slow and the fast weights')
        rows = list(csv.DictReader(files[os.path.join(t, "per_epoch.csv")].decode().splitlines()))
        accs = {r[k] for r in rows for k in ("val_accuracy", "fast_val_accuracy") if r[k]}
        assert len(accs) >= 2, f"{t}/per_epoch.csv: every val accuracy reads {accs}"
    return d, files


def test_the_chain_forwards_its_cnn_in_several_eval_chunks():
    spec = ModelSpec("cnn", _CNN["depth"], (1, 8, 8), 8, channels=tuple(_CNN["channels"]))
    assert VAL_ROWS >= 3 * eval_chunk_rows(spec)


def _differing(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def test_outputs_do_not_depend_on_the_usable_cpus(chain):
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip(f"{len(cpus)} usable CPU: a run pinned to one CPU is the unpinned run")
    d, unpinned = chain
    assert _differing(unpinned, _run_chain(d, "one_cpu", cpu=cpus[0])) == []


def test_outputs_do_not_depend_on_the_blas_thread_count(chain):
    d, unpinned = chain
    assert _differing(unpinned, _run_chain(d, "blas_2", blas_threads=2)) == []
