"""flipxfer benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload zoo --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints its per-layer metrics from a run that alternates untraced and traced
repetitions of the workload's ops.
Exit code 1 means the output check failed (the result line says
``"correct": false``); 2 means the benchmark could not run here and printed
no result. See README.md.
"""

import argparse
import json
import os
import sys

import harness  # imports no numpy, so the pin below still takes effect
import workloads

# Pin BLAS/OpenMP to one thread before numpy loads; forked pool workers inherit it.
for _var in harness.THREAD_VARS:
    os.environ[_var] = "1"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec_path = harness.ROOT / "BENCHMARK.json"
    try:
        if not spec_path.is_file():
            raise harness.BenchError(f"missing {spec_path}")
        if args.workload not in workloads.WORKLOADS:
            raise harness.BenchError(f"unknown workload {args.workload!r}")
        spec = json.loads(spec_path.read_text())
        report, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except harness.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("env " + json.dumps(report["env"], sort_keys=True))
    for op in report["ops"]:
        print(f"op {op['name']:<18} exit {op['outcome']:<10} {op['message']}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"measured wall_s {report['measured_wall_s']} s (not scaled to the reference speed)")
    print(f"ops fail_ratio {report['fail_ratio']} 1 ({result['failed']} of {result['attempted']} ops failed)")
    for line in report["problems"]:
        print(f"problem {line}")
    for line in report["missing"]:
        print(f"missing {line}")
    for where, count in report["span_errors"].items():
        print(f"raised {where}: {count} times in {report['traced_rounds']} traced repetitions")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
