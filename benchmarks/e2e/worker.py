"""One round of one workload, in a fresh interpreter (spawned by run.py).

Usage: ``python benchmarks/e2e/worker.py '<json config>'`` with the keys
``workload``, ``mode`` (``timed``, ``reference``, ``traced`` or
``prepare``), ``seed``, ``round``, ``budget_s``, ``max_ops``, ``root``,
``tmp``, ``warm_cache`` and ``result``.

Set-up is ``import repro.cli`` plus the workload's input loading; the
moment it ends is reported as ``ready`` (``time.monotonic``, shared by
all processes) so the parent can time set-up from the spawn. Then whole
cycles of ops run until the round's time is within half a cycle of
``budget_s``. An untimed host probe (the workload's kind, see
:data:`PROBES`) runs before each op and once after the last, so every
op lies between two probes. ``reference`` and ``traced`` rounds run CLI
ops as forks of this process; ``traced`` also wraps the layer functions
and enables the ``repro.obs`` registry. The result is written as JSON to
``result``.
"""

from __future__ import annotations

import json
import math
import random
import resource
import subprocess
import sys
import time
from pathlib import Path


def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest RSS of this process or any waited-for descendant (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# A host probe times a fixed piece of work that runs no program code, so
# its time moves only with how fast the host does that kind of work at
# the moment. A shared host slows some kinds of work much more than
# others, so each workload is scaled by the probe whose work resembles
# its ops (``Workload.probe``); the others hardly track it.


def kernel_probe() -> float:
    """Seconds one fixed pure-Python kernel takes now (about 4 ms): the
    interpreter work of in-process analytic ops."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(20000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i) if i & 1 else -i / 3.0
    ranked = sorted(table.items(), key=lambda kv: -kv[1])
    ",".join(f"{k}:{v:.1f}" for k, v in ranked)
    return time.perf_counter() - start


def numpy_probe() -> float:
    """Seconds one fixed NumPy convolution takes now (about 4 ms): an
    im2col copy, a single-threaded GEMM, ReLU and 2x2 max-pool on an
    8-image batch, the memory and BLAS work of the accuracy ops."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 16, 20, 20), dtype=np.float32)
    w = rng.standard_normal((16 * 5 * 5, 32), dtype=np.float32)
    windows = sliding_window_view(x, (5, 5), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
    y = np.maximum(np.ascontiguousarray(windows).reshape(-1, 16 * 5 * 5) @ w, 0)
    y.reshape(8, 8, 2, 8, 2, 32).max(axis=(2, 4))
    return time.perf_counter() - start


def spawn_probe() -> float:
    """Seconds a bare interpreter takes to start and exit now (about 10
    ms): the process start-up and page faults of ops that spawn a
    process, and of every worker's set-up. ``-I -S`` keeps it from
    reading the environment and site-packages."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


#: Each probe kind, and the time it takes on the reference host (this
#: 2-vCPU machine in a quiet period). run.py reports time metrics as on
#: that host: each op's times are multiplied by the reference over the
#: mean of the probes just before and just after it.
PROBES = {
    "kernel": (kernel_probe, 4.0e-3),
    "numpy": (numpy_probe, 4.0e-3),
    "spawn": (spawn_probe, 10.0e-3),
}


def main(config: dict) -> int:
    import repro.cli  # noqa: F401  -- the import is part of measured set-up

    from workloads import EXPECTED_PATH, WORKLOADS, Context

    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    ctx = Context(
        root=Path(config["root"]),
        tmp=Path(config["tmp"]),
        warm_cache=Path(config["warm_cache"]) if config.get("warm_cache") else None,
        fork=config["mode"] in ("reference", "traced"),
        expected=expected,
    )
    workload = WORKLOADS[config["workload"]](ctx)
    if config["mode"] == "prepare":
        workload.prepare()
        return 0
    workload.setup()
    ready = time.monotonic()

    tracer = missing = None
    if config["mode"] == "traced":
        from repro.obs import Registry, set_registry

        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install(TARGETS)
        ctx.tracer = tracer
        ctx.registry = Registry()
        set_registry(ctx.registry)

    rng = random.Random(config["seed"] * 1000 + config["round"])
    max_ops = config.get("max_ops")
    probe = PROBES[workload.probe][0]
    records = []
    counters: dict = {}
    extras: dict = {}
    probes = []
    start = time.perf_counter()
    while True:
        cycle = workload.cycle(rng)
        if max_ops:
            cycle = cycle[: max_ops - len(records)]
        cycle_start = time.perf_counter()
        for op in cycle:
            probes.append(probe())
            records.append(run_op(workload, op, len(records), ctx, counters, extras))
        now = time.perf_counter()
        # Stop where the round ends closest to its budget. Stopping only
        # once a cycle no longer fits would waste up to a whole cycle.
        if (max_ops and len(records) >= max_ops) or now - start + (now - cycle_start) / 2 > config["budget_s"]:
            break
    probes.append(probe())

    result = {
        "ready": ready,
        "op_wall_s": time.perf_counter() - start,
        "ops": records,
        "peak_rss_mb": peak_rss_mb(),
        "probe": workload.probe,
        "probes": probes,
    }
    if tracer is not None:
        result["trace"] = {"spans": tracer.spans, "counters": counters, "extras": extras, "missing": missing}
    Path(config["result"]).write_text(json.dumps(result))
    return 0


def run_op(workload, op: str, index: int, ctx, counters: dict, extras: dict) -> list:
    """Run, time and check one op: ``[op, latency_s, cpu_s, error]``."""
    error = output = None
    if ctx.registry is not None:
        ctx.registry.reset()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        if ctx.tracer is not None:
            with ctx.tracer.op_span(index, op):
                output = workload.run(op)
        else:
            output = workload.run(op)
    except Exception as exc:  # noqa: BLE001 - an op failure is a counted result
        error = f"{op}: {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if ctx.registry is not None:
        for path, value in ctx.registry.snapshot().items():
            counters[path] = counters.get(path, 0.0) + value
    if error is None:
        try:
            if ctx.tracer is not None:
                for key, value in workload.observe(op, output).items():
                    extras[key] = extras.get(key, 0.0) + value
            error = workload.check(op, output)
        except Exception as exc:  # noqa: BLE001 - a wrong output is a counted result
            error = f"{op}: {type(exc).__name__}: {exc}"
    return [op, latency, cpu, error]


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
