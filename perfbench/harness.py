"""Runs one workload: setup, timed repetitions of its op list, output checks, metrics.

Every op is ``flipxfer.cli.main(argv)`` in this process, the code the
``flipxfer`` console script runs. One caller runs one op after another
(a closed loop); the only other processes are the sweep's pool workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # at least; cheap setups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
CAL_PROBES = 15  # probes in the calibration before and after a span
PROBE_INTERVAL_S = 0.05  # between probes during a span
# probe()'s median on a 2-vCPU Intel Xeon VM (2.1 GHz, Python 3.11.7,
# numpy 2.4.6 with scipy-openblas 0.3.31); timed metrics are scaled to this speed
REF_PROBE_S = 0.00035
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flipxfer" / "cli.py").is_file():
        raise BenchError(f"no program source: {src / 'flipxfer'} is missing")
    sys.path.insert(0, str(src))
    from flipxfer import cli
    if Path(cli.__file__).resolve().parent != (src / "flipxfer").resolve():
        raise BenchError(f"imported flipxfer from {cli.__file__}, not from {src}")
    return cli


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def tree_digest(path: str) -> str:
    """sha256 over (relative path, bytes) of every file under ``path``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, path).replace(os.sep, "/")
            with open(full, "rb") as f:
                data = f.read()
            h.update(f"{rel}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def probe() -> float:
    """Seconds a small fixed piece of work takes now: a pure-Python loop and
    a few 64x64 matrix products, about a third of a millisecond in all."""
    import numpy as np  # here, not at the top: run.py pins BLAS threads first
    a = np.full((64, 64), 0.5)
    t0 = perf_counter()
    s = 0
    for i in range(3_000):
        s += i * i
    for _ in range(8):
        a @ a
    return perf_counter() - t0


def calibrate() -> float:
    return statistics.median(probe() for _ in range(CAL_PROBES))


class SpeedSampler:
    """Probes the machine's speed every PROBE_INTERVAL_S while a span runs.

    The speed of a shared VM drifts by a third between phases a few seconds
    long, within one op too, and the program's speed drifts with it
    (README.md). A SIGALRM handler takes each probe in the main thread
    between two bytecodes of whatever the span runs; it touches no state of
    the program. Forked pool workers do not inherit the timer."""

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum, frame):
        self.samples.append(probe())


def at_reference_speed(seconds: float, cal_before: float, samples: list[float], cal_after: float) -> float:
    """``seconds`` measured over a span, rescaled to the reference speed by the
    median of the span's probes and the calibrations around it."""
    return seconds * REF_PROBE_S / statistics.median([cal_before, *samples, cal_after])


@dataclass
class OpResult:
    name: str
    outcome: str  # "0", "2", "3" or the class name of an uncaught exception
    message: str
    wall_s: float  # as measured
    cpu_s: float
    digest: str
    ref_wall_s: float = 0.0  # at the reference speed, set by run_round
    ref_cpu_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.outcome != "0"


def _cpu() -> float:
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(cli, op: workloads.Op) -> OpResult:
    workloads.reset_dir(op.out)
    log = io.StringIO()
    error = None
    cpu0 = _cpu()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(log):
            outcome = str(cli.main(op.argv))
    except Exception as e:  # an escaped exception is a failed op, recorded by class and place
        outcome, error = type(e).__name__, e
    wall = perf_counter() - t0
    cpu = _cpu() - cpu0
    message = ""
    if error is not None:
        frame = traceback.extract_tb(error.__traceback__)[-1]
        message = f"{error} ({os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})"
    elif outcome in ("2", "3"):
        message = next((ln for ln in reversed(log.getvalue().splitlines()) if "error" in ln), "")
    return OpResult(op.name, outcome, message, wall, cpu, tree_digest(op.out))


def setup(cli, w: workloads.Workload) -> float:
    """Write configs, check the generated datasets, train the input zoo."""
    from flipxfer.data import SyntheticConfig, generate_synthetic
    t0 = perf_counter()
    for path in ("zoo", "out"):
        workloads.reset_dir(path)
    workloads.write_configs(w)
    seen = set()
    for doc in w.files.values():
        syn = doc["dataset"]["synthetic"]
        key = json.dumps(syn, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        common = {k: v for k, v in syn.items() if k not in ("train", "val")}
        for part in ("train", "val"):
            ds = generate_synthetic(SyntheticConfig(samples=syn[part]["samples"], seed=syn[part]["seed"], **common))
            if len(set(ds.labels.tolist())) != syn["classes"]:
                raise BenchError(f"generated {part} set lacks a class")
    if w.setup_zoo:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["zoo", "--config", w.setup_zoo])
        if code != 0:
            raise BenchError(f"setup zoo training exited {code}")
    return perf_counter() - t0


def run_round(cli, w, tracer: Tracer | None = None) -> list[OpResult]:
    """One repetition of the op list, calibrated before the first op and after each."""
    results = []
    cal = calibrate()
    for op in w.ops:
        with SpeedSampler() as speed:
            res = run_op(cli, op)
        after = calibrate()
        res.ref_wall_s = at_reference_speed(res.wall_s, cal, speed.samples, after)
        res.ref_cpu_s = at_reference_speed(res.cpu_s, cal, speed.samples, after)
        cal = after
        results.append(res)
        if tracer is not None:
            tracer.collect_workers(op.name, op.sweep_tasks)
    return results


def repetitions(w, seconds: float) -> int:
    """How many repetitions of the op list fill ``seconds`` at the workload's
    nominal repetition time, at least one. The count depends only on the
    arguments, so every run of a workload attempts the same ops."""
    return max(1, round(seconds / w.round_s))


def run_rounds(cli, w, seconds: float, tracer: Tracer | None = None) -> tuple[list, list]:
    """Run ``repetitions(w, seconds)`` repetitions of the op list.

    Untraced, every repetition is timed. Traced, repetitions alternate
    untraced and traced (at least one of each), so the pairs give the
    tracing overhead. Returns (untraced, traced) repetitions."""
    n = repetitions(w, seconds)
    if tracer is None:
        return [run_round(cli, w) for _ in range(n)], []
    plain: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    for _ in range(max(1, n // 2)):
        plain.append(run_round(cli, w))
        tracer.install()
        try:
            traced.append(run_round(cli, w, tracer))
        finally:
            tracer.uninstall()
    return plain, traced


def check(w, rounds: list[list[OpResult]]) -> list[str]:
    """Output check: every repetition gives the same outcome and bytes per op,
    ops that exit 0 wrote their files, and the default seed matches the reference."""
    problems = []
    first = rounds[0]
    for r in rounds[1:]:
        for a, b in zip(first, r):
            if (a.outcome, a.digest) != (b.outcome, b.digest):
                problems.append(f"{a.name}: repetitions differ ({a.outcome} {a.digest[:12]} vs {b.outcome} {b.digest[:12]})")
    for op, res in zip(w.ops, first):
        if not res.failed:
            absent = [f for f in workloads.EXPECTED_FILES[op.command] if not os.path.isfile(os.path.join(op.out, f))]
            if absent:
                problems.append(f"{op.name}: exit 0 without {absent}")
    if w.seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text()).get(w.name, {}) if REFERENCE.is_file() else {}
        for res in first:
            want = ref.get(res.name)
            if want is None:
                problems.append(f"{res.name}: no reference")
            elif want["outcome"] == "0" and (res.outcome, res.digest) != ("0", want["digest"]):
                problems.append(f"{res.name}: differs from reference ({res.outcome} {res.digest[:12]})")
    return problems


def op_counts(rounds):
    attempted = sum(len(r) for r in rounds)
    failed = sum(res.failed for r in rounds for res in r)
    return attempted, failed


def per_op_median(rounds, field: str) -> float:
    """One repetition's total, each op taken at its median over the repetitions."""
    return sum(statistics.median(getattr(r[i], field) for r in rounds) for i in range(len(rounds[0])))


def end_to_end(setup_times, rounds) -> dict:
    """Timed metrics are at the reference speed (see ``SpeedSampler``)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (per_op_median(rounds, "ref_wall_s"), "s"),
        "cpu_s": (per_op_median(rounds, "ref_cpu_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, untraced, traced, names_units: dict) -> tuple[dict, list[str]]:
    """Per-repetition means of the traced repetitions, keyed as in BENCHMARK.json."""
    n = len(traced)
    agg = {k: v / n for k, v in tracer.aggregate().items()}
    outcomes = [res.outcome for r in traced for res in r]
    attempted, failed = op_counts(traced)
    for code in ("0", "2", "3"):
        agg[f"cli.exit.{code}"] = outcomes.count(code) / n
    agg["cli.exit.exception"] = sum(o not in ("0", "2", "3") for o in outcomes) / n
    agg["fail_ratio"] = failed / attempted
    busy = agg.get("cli.sweep_task.s", 0.0)
    agg["cli.sweep.worker_busy_s"] = busy
    sweep_s = agg.get("cli.sweep.s", 0.0)
    agg["cli.sweep.pool_efficiency"] = busy / (workloads.SWEEP_JOBS * sweep_s) if sweep_s else 0.0
    agg["cli.sweep.worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    agg["trace.overhead_s"] = statistics.median(
        sum(x.wall_s for x in t) - sum(x.wall_s for x in u) for u, t in zip(untraced, traced))
    missing = list(tracer.missing)
    if missing:
        missing.append("per-layer sums lack the work of those pool tasks")
    return {k: (agg.get(k, 0.0), unit) for k, unit in names_units.items()}, missing


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Returns (report, result): the full record and the result line."""
    nproc = len(os.sched_getaffinity(0))
    if workloads.SWEEP_JOBS > nproc:
        raise BenchError(f"refusing --jobs {workloads.SWEEP_JOBS}: only {nproc} CPUs")
    cli = import_cli()
    w = workloads.build(workload, seed)
    work = WORK / workload
    workloads.reset_dir(str(work))
    (work / "trace").mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return _run(cli, w, work, seconds, trace, spec)
    finally:
        os.chdir(cwd)


def _run(cli, w, work: Path, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    setup_times: list[float] = []  # at the reference speed
    measured = 0.0
    cal = calibrate()
    while len(setup_times) < SETUP_REPEATS or measured < SETUP_MIN_S:
        with SpeedSampler() as speed:
            took = setup(cli, w)
        after = calibrate()
        setup_times.append(at_reference_speed(took, cal, speed.samples, after))
        measured += took
        cal = after
    env = environment(w.seed)
    if not trace:
        rounds, _ = run_rounds(cli, w, seconds)
        metrics = end_to_end(setup_times, rounds)
        missing, span_errors = [], {}
        all_rounds = rounds
    else:
        tracer = Tracer(str(work / "trace"))
        untraced, traced = run_rounds(cli, w, seconds, tracer)
        tracer.write(str(work / "trace" / "spans.jsonl"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, missing = per_layer(tracer, untraced, traced, units)
        span_errors = tracer.errors()
        all_rounds = untraced + traced
    problems = check(w, all_rounds)
    attempted, failed = op_counts(all_rounds)
    report = {
        "workload": w.name,
        "env": env,
        "rounds": len(all_rounds),
        "traced_rounds": len(traced) if trace else 0,
        "ops": [{"name": r.name, "outcome": r.outcome, "message": r.message, "digest": r.digest}
                for r in all_rounds[0]],
        "fail_ratio": failed / attempted,
        "op_wall_s": [[round(x.wall_s, 4) for x in r] for r in all_rounds],
        "op_ref_wall_s": [[round(x.ref_wall_s, 4) for x in r] for r in all_rounds],
        "measured_wall_s": per_op_median(all_rounds, "wall_s"),
        "problems": problems,
        "missing": missing,
        "span_errors": span_errors,
    }
    (work / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result
