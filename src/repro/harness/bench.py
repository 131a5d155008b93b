"""Wall-clock benchmark harness: `repro bench`.

Times the simulator's hot paths — chunk packing, the 80-bit bit codec,
activation packing, OAQ quantization, the analytic per-layer/network
simulators, and an end-to-end functional AlexNet-style conv stack — and,
wherever a vectorized path has a scalar twin in :mod:`repro.reference`,
times both and reports the speedup; the slow timers keep the
``/slow_reference`` name.
The result serializes through the standard ``repro.experiment/v1`` envelope into a versioned ``BENCH_<date>.json``,
so the performance trajectory is recorded next to the accuracy numbers
(docs/PERFORMANCE.md explains how to read it).

All inputs are seeded (``--seed``, else :data:`BENCH_SEED_DEFAULT`), so
two runs on the same machine time the same work. ``smoke=True`` shrinks
every case for CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import Registry
from .report import format_table

__all__ = ["BenchCase", "BenchResult", "run_benchmarks", "default_bench_path", "BENCH_SEED_DEFAULT"]

#: Default RNG seed for benchmark inputs (overridden by --seed).
BENCH_SEED_DEFAULT = 1808


@dataclass
class BenchCase:
    """One timed case; ``baseline_best_s``/``speedup`` only for paired
    fast-vs-slow_reference cases."""

    name: str
    repeats: int
    best_s: float
    mean_s: float
    baseline_best_s: Optional[float] = None
    baseline_repeats: int = 0
    speedup: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Envelope form. Timing-only cases omit the baseline fields
        entirely (absent, not null) — a paired case always carries all
        three, so consumers can distinguish "never had a baseline" from
        "paired but degenerate" without sniffing nulls."""
        doc: Dict[str, object] = {
            "name": self.name,
            "repeats": self.repeats,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
        }
        if self.baseline_best_s is not None:
            doc["baseline_best_s"] = self.baseline_best_s
            doc["baseline_repeats"] = self.baseline_repeats
            doc["speedup"] = self.speedup
        doc["meta"] = dict(self.meta)
        return doc


@dataclass
class BenchResult:
    """All cases of one ``repro bench`` invocation."""

    smoke: bool
    seed: int
    cases: List[BenchCase] = field(default_factory=list)
    obs: Registry = field(default_factory=Registry, repr=False)

    def case(self, name: str) -> BenchCase:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(name)

    def speedup(self, name: str) -> Optional[float]:
        return self.case(name).speedup

    def format(self) -> str:
        rows = []
        for c in self.cases:
            rows.append(
                (
                    c.name,
                    f"{c.best_s * 1e3:.2f}",
                    f"{c.mean_s * 1e3:.2f}",
                    f"{c.baseline_best_s * 1e3:.2f}" if c.baseline_best_s is not None else "-",
                    f"{c.speedup:.1f}x" if c.speedup is not None else "-",
                )
            )
        title = "repro bench — vectorized vs slow_reference" + (" (smoke)" if self.smoke else "")
        return format_table(["case", "best ms", "mean ms", "slow ms", "speedup"], rows, title=title)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "bench",
            "smoke": self.smoke,
            "seed": self.seed,
            "cases": [c.to_dict() for c in self.cases],
            "obs": self.obs.to_dict(),
        }


def default_bench_path() -> str:
    import datetime

    return f"BENCH_{datetime.date.today().isoformat()}.json"


def _time(fn: Callable[[], object], repeats: int, obs: Registry, name: str) -> Tuple[float, float]:
    times = []
    for _ in range(max(1, repeats)):
        with obs.timer(f"bench/{name}"):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times)


def _weight_levels(rng: np.random.Generator, out_c: int, reduction: int, ratio: float) -> np.ndarray:
    """OAQ-shaped integer levels: 4-bit normals + ``ratio`` 8-bit outliers."""
    levels = rng.integers(-7, 8, size=(out_c, reduction))
    outliers = rng.random(size=levels.shape) < ratio
    magnitudes = rng.integers(8, 128, size=levels.shape)
    signs = rng.choice(np.array([-1, 1]), size=levels.shape)
    return np.where(outliers, signs * magnitudes, levels).astype(np.int64)


def _act_levels(rng: np.random.Generator, c: int, h: int, w: int, ratio: float = 0.02) -> np.ndarray:
    levels = rng.integers(0, 16, size=(c, h, w))
    outliers = rng.random(size=levels.shape) < ratio
    return np.where(outliers, rng.integers(16, 256, size=levels.shape), levels).astype(np.int64)


def run_benchmarks(smoke: bool = False, seed: Optional[int] = None) -> BenchResult:
    """Run every benchmark case and return the collected timings."""
    from .. import reference
    from ..arch.act_packing import pack_activations, unpack_activations
    from ..arch.bitcodec import decode_packed, encode_packed
    from ..arch.packing import pack_weights
    from ..olaccel.functional import olaccel_conv2d
    from ..quant.outlier import quantize_weights
    from .experiments import _simulator
    from .workloads import paper_workload

    seed = BENCH_SEED_DEFAULT if seed is None else seed
    rng = np.random.default_rng(seed)
    result = BenchResult(smoke=smoke, seed=seed)
    obs = result.obs

    def paired(name: str, fast: Callable, slow: Callable, fast_reps: int, slow_reps: int, meta: dict) -> None:
        best, mean = _time(fast, fast_reps, obs, name)
        slow_best, _ = _time(slow, slow_reps, obs, f"{name}/slow_reference")
        result.cases.append(
            BenchCase(
                name=name,
                repeats=fast_reps,
                best_s=best,
                mean_s=mean,
                baseline_best_s=slow_best,
                baseline_repeats=slow_reps,
                speedup=slow_best / best if best > 0 else None,
                meta=meta,
            )
        )

    def single(name: str, fn: Callable, reps: int, meta: dict) -> None:
        best, mean = _time(fn, reps, obs, name)
        result.cases.append(BenchCase(name=name, repeats=reps, best_s=best, mean_s=mean, meta=meta))

    # -- chunk packing ----------------------------------------------------
    out_c, reduction = (64, 400) if smoke else (384, 2304)
    levels = _weight_levels(rng, out_c, reduction, ratio=0.03)
    paired(
        "pack_weights",
        lambda: pack_weights(levels),
        lambda: reference.pack_weights_scalar(levels),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"shape": [out_c, reduction], "outlier_ratio": 0.03},
    )

    packed = pack_weights(levels)
    unpack_args = reference.chunk_form(packed)  # built once: the slow path times unpacking only
    paired(
        "packed_unpack",
        lambda: packed.unpack(),
        lambda: reference.unpack_chunks(*unpack_args),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"shape": [out_c, reduction]},
    )

    # -- 80-bit codec (spill count must fit the 8-bit OLptr space) --------
    codec_shape = (64, 200) if smoke else (256, 1152)
    codec_levels = _weight_levels(rng, *codec_shape, ratio=0.005)
    codec_packed = pack_weights(codec_levels)
    codec_chunks = codec_packed.base_chunks, codec_packed.spill_chunks  # built once: times encoding only
    base_words, spill_words = encode_packed(codec_packed)
    decode_kwargs = dict(
        n_groups=codec_packed.n_groups,
        reduction=codec_packed.reduction,
        out_channels=codec_packed.out_channels,
    )
    paired(
        "bitcodec_encode",
        lambda: encode_packed(codec_packed),
        lambda: reference.encode_table(*codec_chunks),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"shape": list(codec_shape), "n_spill": codec_packed.n_spill},
    )
    paired(
        "bitcodec_decode",
        lambda: decode_packed(base_words, spill_words, **decode_kwargs),
        lambda: reference.decode_table(base_words, spill_words),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"n_base": len(base_words), "n_spill": len(spill_words)},
    )

    # -- activation packing ----------------------------------------------
    act_shape = (64, 8, 8) if smoke else (256, 16, 16)
    acts = _act_levels(rng, *act_shape)
    paired(
        "pack_activations",
        lambda: pack_activations(acts),
        lambda: reference.pack_activations_scalar(acts),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"shape": list(act_shape)},
    )
    packed_acts = pack_activations(acts)
    fifo = packed_acts.outliers  # built once: the slow path times unpacking only
    paired(
        "unpack_activations",
        lambda: unpack_activations(packed_acts),
        lambda: reference.unpack_activations_scalar(packed_acts.dense, packed_acts.shape, fifo),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"shape": list(act_shape), "outliers": packed_acts.n_outliers},
    )

    # -- quantization (timing only — already vectorized) ------------------
    weights = rng.standard_normal(20_000 if smoke else 1_000_000)
    single(
        "quantize_weights",
        lambda: quantize_weights(weights, ratio=0.03),
        reps=3,
        meta={"elements": weights.size},
    )

    # -- analytic simulators (timing only) --------------------------------
    workload = paper_workload("alexnet", ratio=0.03)
    simulator = _simulator("olaccel16", "alexnet", 0.03)
    single(
        "simulate_layer",
        lambda: simulator.simulate_layer(workload.layers[1]),
        reps=5,
        meta={"accelerator": "olaccel16", "layer": workload.layers[1].name},
    )
    single(
        "simulate_network",
        lambda: simulator.simulate_network(workload),
        reps=5,
        meta={"accelerator": "olaccel16", "network": "alexnet"},
    )

    # -- end-to-end functional AlexNet conv stack -------------------------
    if smoke:
        convs = [(32, 16, 3, 1), (48, 32, 3, 1)]
        spatial = 6
    else:
        # AlexNet convs 2-5 channel/kernel shapes at a reduced spatial size
        convs = [(256, 96, 5, 2), (384, 256, 3, 1), (384, 384, 3, 1), (256, 384, 3, 1)]
        spatial = 8
    stack = []
    for out_c, in_c, k, pad in convs:
        layer_acts = _act_levels(rng, in_c, spatial, spatial).reshape(1, in_c, spatial, spatial)
        layer_weights = _weight_levels(rng, out_c, in_c * k * k, ratio=0.03).reshape(out_c, in_c, k, k)
        stack.append((layer_acts, layer_weights, pad))

    def run_stack(slow: bool) -> None:
        for layer_acts, layer_weights, pad in stack:
            w_mat = layer_weights.reshape(layer_weights.shape[0], -1)
            packed = reference.pack_weights_scalar(w_mat) if slow else None
            olaccel_conv2d(layer_acts, layer_weights, pad=pad, packed=packed)

    paired(
        "e2e_alexnet_functional",
        lambda: run_stack(False),
        lambda: run_stack(True),
        fast_reps=2 if smoke else 3,
        slow_reps=1,
        meta={"convs": [list(c) for c in convs], "spatial": spatial},
    )

    # -- event-driven cluster sim: vectorized vs scalar stepper -----------
    from ..olaccel.event_sim import ClusterSim, passes_from_levels

    n_passes = 200 if smoke else 2000
    ev_levels = rng.integers(0, 16, size=(n_passes, 16))
    ev_levels[rng.random(ev_levels.shape) < 0.5] = 0
    ev_spills = rng.random(ev_levels.shape) < 0.1
    ev_passes = passes_from_levels(ev_levels, ev_spills)
    ev_outliers = n_passes // 4
    paired(
        "event_sim_cluster",
        lambda: ClusterSim(n_groups=6).run(ev_passes, outlier_broadcasts=ev_outliers),
        lambda: reference.cluster_run_scalar(
            ClusterSim(n_groups=6), ev_passes, outlier_broadcasts=ev_outliers
        ),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"passes": n_passes, "n_groups": 6, "outlier_broadcasts": ev_outliers},
    )

    # -- PE-pass cycle kernel: batched vs per-chunk scalar spec -----------
    from ..olaccel.pe_group import batch_pass_cycles

    paired(
        "pe_group_pass",
        lambda: batch_pass_cycles(ev_levels, ev_spills),
        lambda: reference.batch_pass_cycles_scalar(ev_levels, ev_spills),
        fast_reps=3 if smoke else 5,
        slow_reps=2,
        meta={"passes": n_passes, "spill_rate": 0.1},
    )

    # -- col2im scatter-add (conv backward dx) ----------------------------
    # A small-slice shape, where col2im takes its indexed scatter branch
    # (larger slices take the slice-add loop, the baseline here — a pair
    # there would time itself).
    from ..nn.functional import _col2im_slices, col2im, conv_out_size

    c2i_n, c2i_c, c2i_h, c2i_k, c2i_s, c2i_p = (1, 2, 6, 5, 1, 2) if smoke else (1, 3, 8, 5, 2, 2)
    c2i_oh = conv_out_size(c2i_h, c2i_k, c2i_s, c2i_p)
    c2i_cols = rng.standard_normal((c2i_n * c2i_oh * c2i_oh, c2i_c * c2i_k * c2i_k))
    c2i_shape = (c2i_n, c2i_c, c2i_h, c2i_h)
    paired(
        "col2im_backward",
        lambda: col2im(c2i_cols, c2i_shape, c2i_k, c2i_k, c2i_s, c2i_p),
        lambda: _col2im_slices(c2i_cols, c2i_shape, c2i_k, c2i_k, c2i_s, c2i_p),
        fast_reps=20,
        slow_reps=10,
        meta={"x_shape": list(c2i_shape), "kernel": c2i_k, "stride": c2i_s, "pad": c2i_p},
    )

    # -- simcache: disk-warm sweep replay vs cold compute -----------------
    # Fault cells are the expensive sweep cells (integer conv + golden
    # reference per cell), so they give the honest warm-vs-cold ratio.
    # The cache's only tier is its directory, so every warm repeat
    # measures verified disk reads.
    import shutil
    import tempfile

    from .faults import fault_rate_cell
    from .simcache import SimCache

    cache_rates = (0.0,) if smoke else (0.0, 1e-3, 1e-2)
    cache_root = tempfile.mkdtemp(prefix="repro-bench-simcache-")
    try:

        cache = SimCache(root=cache_root)

        def cache_sweep() -> None:
            for rate in cache_rates:
                fault_rate_cell("alexnet", rate, seed=seed, cache=cache)

        cold_best, _ = _time(cache_sweep, 1, obs, "simcache_warm_sweep/cold")
        warm_reps = 3
        warm_best, warm_mean = _time(cache_sweep, warm_reps, obs, "simcache_warm_sweep")
        result.cases.append(
            BenchCase(
                name="simcache_warm_sweep",
                repeats=warm_reps,
                best_s=warm_best,
                mean_s=warm_mean,
                baseline_best_s=cold_best,
                baseline_repeats=1,
                speedup=cold_best / warm_best if warm_best > 0 else None,
                meta={"cells": len(cache_rates), "cell": "fault_rate", "network": "alexnet"},
            )
        )
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    return result
