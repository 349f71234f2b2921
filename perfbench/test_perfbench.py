"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import workloads
from tracer import CoverageError, Tracer


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


def _run_bench(*args, cwd=harness.ROOT):
    """Run the benchmark command the way BENCHMARK.json names it, from ``cwd``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def test_traced_outputs_match_untraced(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = workloads.build("sweep_mlp", harness.DEFAULT_SEED)
    w.ops = [op for op in w.ops if op.name in ("sweep_kl", "multi_parallel")]
    harness.setup(cli, w)
    plain = harness.run_round(cli, w)
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = Tracer(str(spool))
    tracer.install()
    try:
        traced = harness.run_round(cli, w, tracer)
    finally:
        tracer.uninstall()
    assert [(r.outcome, r.digest) for r in traced] == [(r.outcome, r.digest) for r in plain]
    assert all(r.outcome == "0" for r in plain)
    assert tracer.missing == []
    agg = tracer.aggregate()
    assert agg["cli.sweep_task.calls"] == workloads.SWEEP_PAIRS  # spans came back from the workers
    assert agg["multiteacher.parallel_transfer.calls"] == 1


def test_coverage_check_fails_on_one_unwrapped_binding(cli, tmp_path):
    import flipxfer.models
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert hasattr(cli._COMMANDS["sweep"], "__wrapped__")  # dispatch tables count as bindings
        wrapped = flipxfer.models.conv2d
        flipxfer.models.conv2d = wrapped.__wrapped__
        with pytest.raises(CoverageError, match="flipxfer.models.conv2d"):
            tracer.check_coverage()
        flipxfer.models.conv2d = wrapped
        tracer.check_coverage()
    finally:
        tracer.uninstall()
    assert not hasattr(flipxfer.models.conv2d, "__wrapped__")
    assert not hasattr(cli._COMMANDS["sweep"], "__wrapped__")


def test_times_scale_to_the_reference_speed():
    ref = harness.REF_PROBE_S
    assert harness.at_reference_speed(2.0, ref, [], ref) == 2.0
    # the machine ran at half speed over the span: most probes took twice as long
    assert harness.at_reference_speed(2.0, ref, [2 * ref, 2 * ref, 9 * ref], 2 * ref) == pytest.approx(1.0)


def test_speed_sampler_probes_during_a_span_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with harness.SpeedSampler() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_repetition_count_depends_only_on_workload_and_seconds():
    for name in workloads.WORKLOADS:
        counts = {harness.repetitions(workloads.build(name, seed), 25) for seed in (0, 1, 99)}
        assert len(counts) == 1 and counts.pop() >= 1
        assert harness.repetitions(workloads.build(name, 0), 0.1) == 1


def test_digest_ignores_location(tmp_path):
    for d in ("a/out", "b/deeper/out"):
        p = tmp_path / d / "sub"
        p.mkdir(parents=True)
        (p / "x.json").write_text('{"out": "out"}\n')
        (tmp_path / d / "y.csv").write_text("1,2\n")
    assert harness.tree_digest(str(tmp_path / "a/out")) == harness.tree_digest(str(tmp_path / "b/deeper/out"))
    (tmp_path / "b/deeper/out/y.csv").write_text("1,3\n")
    assert harness.tree_digest(str(tmp_path / "a/out")) != harness.tree_digest(str(tmp_path / "b/deeper/out"))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_unit(trace, section):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    code, lines = _run_bench("--workload", "zoo", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {ln.split()[1]: ln.split()[-1] for ln in lines if ln.startswith("metric ")}
    assert printed == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = _run_bench("--workload", "zoo", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(ln.startswith("{") for ln in lines)
    assert not os.path.exists(tmp_path / ".perfbench_work" / "zoo" / "result.json")
