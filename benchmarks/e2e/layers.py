"""The layers the traced run attributes time to, and their metrics.

``TARGETS`` names the public functions (and the few private methods that
mark a layer boundary, such as the simcache disk I/O) that the tracer
wraps, grouped under one span name per layer. :func:`layer_metrics`
turns a traced round's span table, ``repro.obs`` counter deltas and the
benchmark's own observations into the per-op ``per_layer`` metrics
declared in BENCHMARK.json.

Metric names ending in ``.calls``, ``.ms`` or ``.self_ms`` read the span
of the same prefix (``nn.im2col.ms`` is the inclusive time of the
``nn.im2col`` spans); the rest are computed below.
"""

from __future__ import annotations

from typing import Dict

#: (span name, module, attribute, count from the call's result or None)
TARGETS = [
    ("cli.main", "repro.cli", "main", None),
    ("simcache.memoize", "repro.harness.simcache", "SimCache.memoize", None),
    ("simcache.cache_key", "repro.harness.simcache", "cache_key", None),
    ("simcache.disk_read", "repro.harness.simcache", "SimCache._disk_get", None),
    ("simcache.disk_write", "repro.harness.simcache", "SimCache._disk_put", None),
    ("experiments.simulate_cell", "repro.harness.experiments", "simulate_cell", None),
    ("explore.explore_cell", "repro.harness.explore", "explore_cell", lambda r: bool(r.get("cached"))),
    ("olaccel.simulate_layer", "repro.olaccel.accelerator", "OLAccelSimulator.simulate_layer", None),
    ("baselines.simulate_layer", "repro.baselines.eyeriss", "EyerissSimulator.simulate_layer", None),
    ("baselines.simulate_layer", "repro.baselines.zena", "ZenaSimulator.simulate_layer", None),
    ("olaccel.cluster_sim", "repro.olaccel.event_sim", "ClusterSim.run", None),
    ("faults.faulty_conv2d", "repro.faults.datapath", "faulty_olaccel_conv2d", None),
    ("arch.pack", "repro.arch.packing", "pack_weights", None),
    ("arch.pack", "repro.arch.act_packing", "pack_activations", None),
    ("arch.codec", "repro.arch.bitcodec", "encode_packed", None),
    ("arch.codec", "repro.arch.bitcodec", "decode_packed", None),
    ("arch.codec", "repro.arch.bitcodec", "encode_table", None),
    ("arch.codec", "repro.arch.bitcodec", "decode_table", None),
    ("quant.calibrate", "repro.quant.calibrate", "calibrate_activation_thresholds", None),
    ("quant.forward", "repro.quant.qmodel", "QuantizedModel.forward", None),
    ("quant.quantize", "repro.quant.outlier", "quantize_weights", None),
    ("quant.quantize", "repro.quant.outlier", "quantize_activations", None),
    ("quant.quantize", "repro.quant.outlier", "_quantize", None),
    ("quant.quantize", "repro.quant.linear", "LinearQuantizer.roundtrip", None),
    ("nn.conv2d", "repro.nn.functional", "conv2d", None),
    ("nn.im2col", "repro.nn.functional", "im2col", None),
    ("nn.maxpool2d", "repro.nn.functional", "maxpool2d", None),
    ("nn.linear", "repro.nn.functional", "linear", None),
    ("resilience.execute_sweep", "repro.harness.resilience", "execute_sweep", lambda r: len(r[3])),
    ("resilience.backoff", "repro.harness.resilience", "RetryPolicy.backoff", None),
    ("coord.try_claim", "repro.harness.coord", "LeaseManager.try_claim", lambda r: r is not None),
    ("coord.heartbeat", "repro.harness.coord", "LeaseManager.heartbeat", None),
]


def layer_metrics(
    names, stats: Dict[str, Dict[str, float]], counters: Dict[str, float], extras: Dict[str, float], ops: int
) -> Dict[str, float]:
    """Per-op value of every per-layer metric in ``names``.

    ``stats`` is :func:`tracer.span_stats` over the traced round,
    ``counters`` the summed ``repro.obs`` counter deltas of its ops, and
    ``extras`` what the benchmark measured itself (``import_ms``,
    ``inline_ms``, ``rundir_files``, ``overhead_pct``). A layer that did
    not run reads 0.
    """
    ops = max(ops, 1)

    def span(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0.0)

    lookups = counters.get("simcache/lookups", 0.0)
    cells = span("resilience.execute_sweep", "n")
    special = {
        "cli.import_ms": extras.get("import_ms", 0.0),
        "simcache.hit_ratio": counters.get("simcache/hits", 0.0) / lookups if lookups else 0.0,
        "simcache.layer_lookups": counters.get("simcache/layer_lookups", 0.0) / ops,
        "explore.cache_hits": span("explore.explore_cell", "n") / ops,
        "resilience.cells": cells / ops,
        "resilience.overhead_per_cell_ms": (
            (span("resilience.execute_sweep", "ms") - extras.get("inline_ms", 0.0)) / cells if cells else 0.0
        ),
        "resilience.retries": span("resilience.backoff", "calls") / ops,
        "coord.claimed": span("coord.try_claim", "n") / ops,
        "coord.heartbeats": span("coord.heartbeat", "calls") / ops,
        "rundir.files": extras.get("rundir_files", 0.0) / ops,
        "trace.overhead_pct": extras.get("overhead_pct", 0.0),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        prefix, _, field = name.rpartition(".")
        if field not in ("calls", "ms", "self_ms"):
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        values[name] = span(prefix, field) / ops
    return values
