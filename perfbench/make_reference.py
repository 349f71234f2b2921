"""Rewrite reference.json: op outcomes and output digests of every workload at the default seed.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; the benchmark
compares later runs at the default seed against this file.
"""

import json
import os

import harness
import workloads

for _var in harness.THREAD_VARS:
    os.environ[_var] = "1"


def main() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    doc = {}
    for name in workloads.WORKLOADS:
        report, _ = harness.run(name, harness.DEFAULT_SEED, 0, False, spec)
        doc[name] = {op["name"]: {k: op[k] for k in ("outcome", "digest", "message")} for op in report["ops"]}
    harness.REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
