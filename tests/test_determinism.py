"""No output byte depends on the usable CPUs or the BLAS thread count, and
every output byte equals a recorded digest, checked at the real entry point.

One chain of commands runs through ``python -m flipxfer.cli`` in
subprocesses: a zoo of two MLPs and a CNN, flips with class embeddings,
ten transfers into the CNN (``kl``, ``kl`` with ``topk``, ``xe_kl``,
``kl_dp_sup``, ``kl_dp_unsup``, ``xe_kl_mcl`` with its slow and fast
weights, ``cd``, whose 8-wide CNN features meet the 6-wide teacher's
through the trained projection, a sequential, a parallel and a soup plan)
and a two-worker sweep. The CNN's 200-row
val forward spans four eval chunks, so its evals run in threads where a
process has two CPUs. The chain runs unpinned, with the child pinned to one
CPU, and at two BLAS threads, each from the same directory with relative
paths, so the resolved configs are equal too; then the trees are compared
byte for byte. The unpinned tree's files are also compared with the sha256
digests in ``chain_digests.json``, which hold for the numpy version (and so
the BLAS build) they name; under another version that test is skipped.
After a change that alters output bytes on purpose, rewrite the digests:

    PYTHONPATH=src python tests/test_determinism.py --record
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
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
    "kl_topk": {"method": "kl", "teacher": "m", "student": "c", "hyperparams": {"topk": 5}},
    "xe_kl": {"method": "xe_kl", "teacher": "m", "student": "c"},
    "kl_dp_sup": {"method": "kl_dp_sup", "teacher": "m", "student": "c"},
    "kl_dp_unsup": {"method": "kl_dp_unsup", "teacher": "n", "student": "c"},
    "xe_kl_mcl": {"method": "xe_kl_mcl", "teacher": "m", "student": "c"},
    "cd": {"method": "cd", "teacher": "n", "student": "c"},
    "sequential": {"method": "kl_dp_sup", "student": "c", "multi": {"mode": "sequential", "teachers": ["m", "n"]}},
    "parallel": {"method": "kl_dp_sup", "student": "c", "multi": {"mode": "parallel", "teachers": ["m", "n"]}},
    "soup": {"method": "kl", "student": "c", "multi": {"mode": "soup", "teachers": ["m", "n"]}},
}
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chain_digests.json")
# eight finite, nonzero class embeddings with a nonzero mean pairwise cosine
_EMBEDDINGS = "1,0\n0,1\n1,1\n1,-1\n2,1\n1,2\n2,-1\n-1,2\n"


def _configs() -> list[tuple[str, dict, list[str]]]:
    """(command, config, extra arguments) of each step, in order; paths are
    relative to the directory the chain runs in."""
    manifest = "out/manifest.json"
    zoo = {"dataset": _DATA, "zoo": {"models": [
        {"name": "m", "family": "mlp", "depth": 2, "width": 8, "train": {"epochs": 2, "batch_size": 16}},
        {"name": "n", "family": "mlp", "depth": 2, "width": 6, "train": {"epochs": 3, "batch_size": 16}},
        _CNN,
    ]}}
    steps = [("zoo", zoo, ["--out", "out"])]
    steps.append(("flips", {"manifest": manifest, "dataset": _DATA, "embeddings": "embeddings.csv"},
                  ["--out", "out/flips"]))
    for name, t in _TRANSFERS.items():
        hp = _HP | t.get("hyperparams", {})
        steps.append(("transfer", {"manifest": manifest, "dataset": _DATA, "transfer": t | {"hyperparams": hp}},
                      ["--out", f"out/{name}"]))
    steps.append(("sweep", {"manifest": manifest, "dataset": _DATA, "sweep": {"methods": ["kl"], "hyperparams": _HP}},
                  ["--out", "out/sweep", "--jobs", "2"]))
    return steps


def _tree(root: str) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to it, "/"-separated."""
    files = {}
    for here, _, names in os.walk(root):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root).replace(os.sep, "/")] = f.read()
    return files


def _run_chain(d: str, label: str, blas_threads: int = 1, cpu: int | None = None) -> dict[str, bytes]:
    """Run every step into ``d/out``, move it to ``d/label`` and return its files."""
    src = os.path.dirname(os.path.dirname(flipxfer.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": str(blas_threads)}
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))  # the child only
    for i, (command, cfg, extra) in enumerate(_configs()):
        path = os.path.join(d, f"{i}_{command}.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        argv = [sys.executable, "-m", "flipxfer.cli", command, "--config", path, *extra]
        done = subprocess.run(argv, cwd=d, env=env, preexec_fn=pin, capture_output=True, text=True)
        assert done.returncode == 0, f"{label}: {command} exited {done.returncode}: {done.stderr}"
    os.rename(os.path.join(d, "out"), os.path.join(d, label))
    return _tree(os.path.join(d, label))


def _unpinned(d: str) -> dict[str, bytes]:
    """The unpinned run at one BLAS thread in ``d``, with its embeddings."""
    with open(os.path.join(d, "embeddings.csv"), "w") as f:
        f.write(_EMBEDDINGS)
    return _run_chain(d, "unpinned")


def _digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The directory the runs share, and the unpinned run at one BLAS thread,
    checked not to be degenerate."""
    d = str(tmp_path_factory.mktemp("chain"))
    files = _unpinned(d)
    # the flips compared at least one computed similarity, not only nulls
    pairs = json.loads(files["flips/flips.json"])["pairs"]
    assert any(v is not None for p in pairs for v in p.get("semantic_similarity", {}).values())
    assert any("transfer_rate" in json.loads(files[f"{t}/report.json"]) for t in _TRANSFERS)
    for t in _TRANSFERS:  # every transfer's traces move (MCL: the slow and the fast weights')
        if t == "soup":  # a soup trains no student of its own: it has no traces
            continue
        rows = list(csv.DictReader(files[f"{t}/per_epoch.csv"].decode().splitlines()))
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


def test_outputs_match_the_recorded_digests(chain):
    """Every file the chain writes has the recorded bytes: a change that
    alters every run alike still fails here."""
    with open(DIGESTS, encoding="utf-8") as f:
        recorded = json.load(f)
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"chain_digests.json holds the bytes of numpy {recorded['numpy']}, this is numpy {np.__version__}")
    _, files = chain
    differ = _differing(recorded["files"], _digests(files))
    assert differ == [], f"{len(differ)} files differ from chain_digests.json: {', '.join(differ)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_determinism.py --record")
    with tempfile.TemporaryDirectory() as d:
        doc = {"numpy": np.__version__, "files": _digests(_unpinned(d))}
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{DIGESTS}: {len(doc['files'])} files, numpy {doc['numpy']}")
