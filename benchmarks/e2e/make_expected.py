"""Write expected.json: the fingerprint of every op's output.

Run from the repository root after an intentional output change::

    python benchmarks/e2e/make_expected.py

Each op of each workload runs once, in the benchmark's environment,
through the same ``run`` and ``fingerprint`` methods the benchmark
checks with.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import bench_env
from workloads import EXPECTED_PATH, WORKLOADS, Context


def main() -> int:
    root = Path.cwd()
    env = bench_env(root)
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, env["PYTHONPATH"])
    expected = {"schema": "repro.e2e-expected/v1"}
    with tempfile.TemporaryDirectory() as tmp:
        ctx = Context(root=root, tmp=Path(tmp), warm_cache=Path(tmp) / "warm-cache")
        for name, cls in WORKLOADS.items():
            workload = cls(ctx)
            workload.setup()
            expected[name] = {op: workload.fingerprint(op, workload.run(op)) for op in workload.ops()}
            print(f"{name}: {len(expected[name])} ops")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
