"""Experiment drivers: one function per paper table/figure.

Each function returns a structured result object with a ``format()``
method; the benchmarks in ``benchmarks/`` call these and print the rows,
and the tests assert the paper's qualitative claims on the returned data.
See DESIGN.md's per-experiment index for the figure -> module mapping and
EXPERIMENTS.md for paper-vs-measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..arch.area import (
    DEFAULT_AREA,
    eyeriss_pe_area,
    iso_area_clusters,
    olaccel_area,
    zena_pe_area,
)
from ..arch.stats import RunStats
from ..arch.workload import NetworkWorkload
from ..baselines import EyerissSimulator, ZenaSimulator, eyeriss16, eyeriss8, zena16, zena8
from ..olaccel import (
    OLAccelSimulator,
    multi_outlier_probability,
    olaccel16,
    olaccel8,
    sample_pass_cycles,
)
from .report import format_series, format_table
from .scaling import NpuSpec, ScalingModel
from .workloads import memory_bytes, paper_workload

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "simulate_cell",
    "fig1_weight_distributions",
    "fig2_accuracy_vs_ratio",
    "fig3_accuracy_networks",
    "table1_configurations",
    "breakdown_experiment",
    "fig14_ratio_sweep",
    "fig15_scalability",
    "fig16_outlier_histogram",
    "fig17_multi_outlier",
    "fig18_utilization",
    "fig19_chunk_cycles",
    "ALL_ACCELERATORS",
]

#: Outlier ratio per network used in Fig. 3 (paper caption).
FIG3_RATIOS = {"alexnet": 0.035, "vgg": 0.01, "resnet": 0.03, "densenet": 0.03}

ALL_ACCELERATORS = ("eyeriss16", "eyeriss8", "zena16", "zena8", "olaccel16", "olaccel8")


def _simulator(kind: str, network: str, ratio: float = 0.03, obs=None):
    bits = 16 if kind.endswith("16") else 8
    mem = memory_bytes(network, bits)
    if kind.startswith("eyeriss"):
        return EyerissSimulator(eyeriss16(mem) if bits == 16 else eyeriss8(mem), obs=obs)
    if kind.startswith("zena"):
        return ZenaSimulator(zena16(mem) if bits == 16 else zena8(mem), obs=obs)
    if kind.startswith("olaccel"):
        cfg = olaccel16(mem, ratio) if bits == 16 else olaccel8(mem, ratio)
        return OLAccelSimulator(cfg, obs=obs)
    raise ValueError(f"unknown accelerator kind {kind!r}")


def simulate_cell(kind: str, network: str, ratio: float = 0.03):
    """Simulate one (accelerator, network) breakdown cell.

    The one-cell entry point of the ``breakdown`` cell runner: builds
    the network's paper workload and runs the plain
    :meth:`simulate_network` of the ``kind`` accelerator on it, with no
    simcache in between. Building the workload costs about as much as
    the cycle/energy model, and together they cost less than keying,
    copying or verifying a cached entry (docs/PERFORMANCE.md, "What it
    buys, honestly"). Fault cells and explore accuracy cells keep the
    cache; the in-process drivers build a workload once and share it.
    """
    return _simulator(kind, network, ratio).simulate_network(paper_workload(network, ratio=ratio))


# ---------------------------------------------------------------------------
# Fig. 1 — weight distributions under three quantizers
# ---------------------------------------------------------------------------


@dataclass
class Fig1Result:
    """Distribution and error stats for full-precision vs linear vs OAQ."""

    layer_name: str
    fp_summary: object
    linear_sqnr_db: float
    oaq_sqnr_db: float
    linear_occupancy: np.ndarray  # 4-bit level histogram, full-range grid
    oaq_occupancy: np.ndarray  # 4-bit level histogram, OAQ normal grid
    outlier_ratio: float

    def format(self) -> str:
        rows = [
            ("full precision", f"max|w|={self.fp_summary.max_abs:.4f}", f"kurtosis={self.fp_summary.kurtosis:.2f}"),
            ("linear 4-bit", f"SQNR={self.linear_sqnr_db:.2f} dB",
             f"occupied levels={int((self.linear_occupancy > 0).sum())}/15"),
            ("OAQ 4-bit (3%)", f"SQNR={self.oaq_sqnr_db:.2f} dB",
             f"occupied levels={int((self.oaq_occupancy > 0).sum())}/15"),
        ]
        return format_table(["quantizer", "error", "level use"], rows,
                            title=f"Fig.1 — weight distribution, {self.layer_name}")


def fig1_weight_distributions(model_name: str = "alexnet", layer_index: int = 1, ratio: float = 0.03) -> Fig1Result:
    """Reproduce Fig. 1 on the trained mini model's conv2 weights."""
    # The accuracy and sampling figures import numpy, quant and the trained
    # minis themselves, so the breakdown verbs never load them.
    import numpy as np

    from ..quant import level_occupancy, quantize_linear, quantize_weights, sqnr_db, summarize
    from .pretrained import trained_mini

    model = trained_mini(model_name)
    layer = model.compute_layers()[layer_index]
    weights = layer.weight.value

    linear_rt = quantize_linear(weights, bits=4)
    oaq = quantize_weights(weights, ratio=ratio)

    # Level occupancy on the two 4-bit grids.
    max_abs = float(np.abs(weights).max())
    linear_levels = np.clip(np.rint(weights / (max_abs / 7.0)), -7, 7).astype(np.int64)
    oaq_normal = np.clip(oaq.levels, -7, 7)

    return Fig1Result(
        layer_name=getattr(layer, "name", f"layer{layer_index}"),
        fp_summary=summarize(weights),
        linear_sqnr_db=sqnr_db(weights, linear_rt),
        oaq_sqnr_db=sqnr_db(weights, oaq.dequantize()),
        linear_occupancy=level_occupancy(linear_levels, 7),
        oaq_occupancy=level_occupancy(oaq_normal, 7),
        outlier_ratio=oaq.outlier_ratio,
    )


# ---------------------------------------------------------------------------
# Fig. 2 / Fig. 3 — accuracy under outlier-aware quantization
# ---------------------------------------------------------------------------


@dataclass
class AccuracyPoint:
    ratio: float
    top1: float
    top5: float


@dataclass
class Fig2Result:
    model_name: str
    fp_top1: float
    fp_top5: float
    points: List[AccuracyPoint] = field(default_factory=list)

    def format(self) -> str:
        rows = [("full precision", f"{self.fp_top1:.3f}", f"{self.fp_top5:.3f}")]
        rows += [(f"ratio={p.ratio:.3f}", f"{p.top1:.3f}", f"{p.top5:.3f}") for p in self.points]
        return format_table(["config", "top-1", "top-5"], rows,
                            title=f"Fig.2 — accuracy vs outlier ratio ({self.model_name})")


def fig2_accuracy_vs_ratio(
    model_name: str = "alexnet",
    ratios: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.035, 0.05),
    calibration_samples: int = 100,
) -> Fig2Result:
    """Accuracy of the 4-bit quantized mini model across outlier ratios.

    ``ratio = 0`` is conventional full-range linear quantization without
    truncation or retraining, exactly the paper's baseline point.
    """
    from ..nn.model import score
    from ..quant import QuantConfig, QuantizedModel, capture_activations
    from .pretrained import default_dataset, trained_mini

    model = trained_mini(model_name)
    data = default_dataset()
    fp_top1, fp_top5 = score(model, data.test_x, data.test_y)
    result = Fig2Result(model_name=model.name, fp_top1=fp_top1, fp_top5=fp_top5)
    capture = capture_activations(model, data.train_x[:calibration_samples])
    for ratio in ratios:
        qm = QuantizedModel(model, capture.calibrate(ratio), QuantConfig(ratio=ratio))
        result.points.append(AccuracyPoint(ratio, *score(qm, data.test_x, data.test_y)))
    return result


@dataclass
class Fig3Row:
    network: str
    ratio: float
    fp_top1: float
    fp_top5: float
    oaq_top1: float
    oaq_top5: float


@dataclass
class Fig3Result:
    rows: List[Fig3Row] = field(default_factory=list)

    def format(self) -> str:
        table = [
            (r.network, f"{r.ratio * 100:.1f}%", f"{r.fp_top1:.3f}", f"{r.oaq_top1:.3f}",
             f"{r.fp_top5:.3f}", f"{r.oaq_top5:.3f}")
            for r in self.rows
        ]
        return format_table(
            ["network", "outliers", "fp top-1", "oaq top-1", "fp top-5", "oaq top-5"],
            table,
            title="Fig.3 — 4-bit OAQ accuracy across networks",
        )


def fig3_accuracy_networks(networks: Optional[Sequence[str]] = None) -> Fig3Result:
    """4-bit OAQ accuracy vs full precision for every mini network."""
    from ..nn.model import score
    from ..quant import QuantConfig, QuantizedModel, calibrate_activation_thresholds
    from .pretrained import default_dataset, trained_mini

    result = Fig3Result()
    for name in networks or ("alexnet", "vgg", "resnet", "densenet"):
        ratio = FIG3_RATIOS[name]
        model = trained_mini(name)
        data = default_dataset()
        cal = calibrate_activation_thresholds(model, data.train_x[:100], ratio=ratio)
        config = QuantConfig(ratio=ratio, first_layer_weight_bits=8 if name in ("resnet", "densenet") else 4)
        qm = QuantizedModel(model, cal, config)
        result.rows.append(
            Fig3Row(model.name, ratio, *score(model, data.test_x, data.test_y), *score(qm, data.test_x, data.test_y))
        )
    return result


# ---------------------------------------------------------------------------
# Table I — ISO-area configurations
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    rows: List[Tuple[str, int, float]] = field(default_factory=list)  # (name, PEs/MACs, area)

    def format(self) -> str:
        table = [(name, pes, f"{area:.2f}") for name, pes, area in self.rows]
        return format_table(["accelerator", "# PEs/MACs", "area (mm^2)"], table,
                            title="Table I — ISO-area configurations")

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        return {name: (pes, area) for name, pes, area in self.rows}


def table1_configurations() -> Table1Result:
    """Reproduce Table I's PE counts and areas from the area model."""
    result = Table1Result()
    for bits in (16, 8):
        result.rows.append((f"eyeriss{bits}", 165, 165 * eyeriss_pe_area(bits)))
        result.rows.append((f"zena{bits}", 168, 168 * zena_pe_area(bits)))
        budget = 165 * eyeriss_pe_area(bits) * 1.11  # the paper's ~10% slack
        clusters = iso_area_clusters(budget, ol_act_bits=bits)
        macs = clusters * DEFAULT_AREA.groups_per_cluster * 16
        result.rows.append((f"olaccel{bits}", macs, olaccel_area(clusters, bits)))
    return result


# ---------------------------------------------------------------------------
# Figs. 11-13 — cycle and energy breakdowns
# ---------------------------------------------------------------------------


@dataclass
class BreakdownResult:
    """Normalized cycle/energy comparison across all six accelerators.

    Under the resilient execution path (docs/RESILIENCE.md) individual
    accelerator cells can fail without aborting the sweep; those land in
    ``failures`` (accelerator kind -> structured CellError dict) and the
    report renders a FAILED row in their place.
    """

    network: str
    runs: Dict[str, RunStats] = field(default_factory=dict)
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def reference(self) -> RunStats:
        return self.runs["eyeriss16"]

    def normalized_cycles(self) -> Dict[str, float]:
        ref = self.reference.total_cycles
        return {k: r.total_cycles / ref for k, r in self.runs.items()}

    def normalized_energy(self) -> Dict[str, Dict[str, float]]:
        ref = self.reference.total_energy.total
        out = {}
        for k, r in self.runs.items():
            e = r.total_energy
            out[k] = {
                "dram": e.dram / ref,
                "buffer": e.buffer / ref,
                "local": e.local / ref,
                "logic": e.logic / ref,
                "total": e.total / ref,
            }
        return out

    def reduction(self, a: str, b: str, what: str = "energy") -> float:
        """Fractional reduction of ``a`` relative to ``b`` (paper headline)."""
        if what == "energy":
            return 1.0 - self.runs[a].total_energy.total / self.runs[b].total_energy.total
        if what == "cycles":
            return 1.0 - self.runs[a].total_cycles / self.runs[b].total_cycles
        raise ValueError(f"what must be 'energy' or 'cycles', got {what!r}")

    def layer_cycles(self, kind: str) -> Dict[str, float]:
        ref = self.reference.total_cycles
        return {s.layer_name: s.cycles / ref for s in self.runs[kind].layers}

    def format(self) -> str:
        from .report import FAILED, format_failures

        if "eyeriss16" not in self.runs:
            # The normalization reference itself failed — render absolute
            # totals for whatever succeeded plus the failure table.
            rows = [
                (kind, f"{self.runs[kind].total_cycles:.0f}",
                 f"{self.runs[kind].total_energy.total:.0f}")
                if kind in self.runs
                else (kind, FAILED, FAILED)
                for kind in ALL_ACCELERATORS
                if kind in self.runs or kind in self.failures
            ]
            table = format_table(
                ["accelerator", "cycles (abs)", "energy (abs pJ)"], rows,
                title=f"Cycle & energy breakdown, {self.network} "
                      "(reference eyeriss16 FAILED; absolute values)",
            )
            return table + "\n" + format_failures(self.failures.values())

        cyc = self.normalized_cycles()
        en = self.normalized_energy()
        rows = []
        for kind in ALL_ACCELERATORS:
            if kind in self.failures:
                rows.append((kind,) + (FAILED,) * 6)
                continue
            if kind not in self.runs:
                continue
            e = en[kind]
            rows.append(
                (kind, f"{cyc[kind]:.3f}", f"{e['total']:.3f}", f"{e['dram']:.3f}",
                 f"{e['buffer']:.3f}", f"{e['local']:.3f}", f"{e['logic']:.3f}")
            )
        table = format_table(
            ["accelerator", "cycles", "energy", "dram", "buffer", "local", "logic"],
            rows,
            title=f"Cycle & energy breakdown, {self.network} (normalized to eyeriss16)",
        )
        headlines = []
        for a, b, label in (
            ("olaccel16", "zena16", "OLAccel16 vs ZeNA16"),
            ("olaccel8", "zena8", "OLAccel8  vs ZeNA8 "),
        ):
            if a in self.runs and b in self.runs:
                headlines.append(
                    f"\n{label}: energy -{self.reduction(a, b) * 100:.1f}%, "
                    f"cycles -{self.reduction(a, b, 'cycles') * 100:.1f}%"
                )
        text = table + "".join(headlines)
        if self.failures:
            text += "\n" + format_failures(self.failures.values())
        return text


def breakdown_experiment(network: str, ratio: float = 0.03) -> BreakdownResult:
    """Figs. 11 (alexnet), 12 (vgg16), 13 (resnet18).

    The six accelerators share one paper workload (it is frozen)."""
    workload = paper_workload(network, ratio=ratio)
    result = BreakdownResult(network=network)
    for kind in ALL_ACCELERATORS:
        result.runs[kind] = _simulator(kind, network, ratio).simulate_network(workload)
    return result


# ---------------------------------------------------------------------------
# Fig. 14 — energy / cycles / accuracy vs outlier ratio
# ---------------------------------------------------------------------------


@dataclass
class Fig14Point:
    ratio: float
    cycles: float  # normalized to ratio = 0
    energy: float  # normalized to ratio = 0
    top5: Optional[float] = None


@dataclass
class Fig14Result:
    network: str
    points: List[Fig14Point] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            (f"{p.ratio * 100:.1f}%", f"{p.cycles:.3f}", f"{p.energy:.3f}",
             f"{p.top5:.3f}" if p.top5 is not None else "-")
            for p in self.points
        ]
        return format_table(["outlier ratio", "cycles", "energy", "top-5"], rows,
                            title=f"Fig.14 — outlier-ratio sweep ({self.network}, OLAccel16)")


def fig14_ratio_sweep(
    network: str = "alexnet",
    ratios: Sequence[float] = (0.0, 0.01, 0.02, 0.035, 0.05),
    with_accuracy: bool = True,
    mini_name: str = "alexnet",
) -> Fig14Result:
    """OLAccel16 cost vs outlier ratio, plus mini-model accuracy."""
    result = Fig14Result(network=network)
    base_run = None
    accuracy: Dict[float, float] = {}
    if with_accuracy:
        from ..nn.model import score
        from ..quant import QuantConfig, QuantizedModel, capture_activations
        from .pretrained import default_dataset, trained_mini

        model = trained_mini(mini_name)
        data = default_dataset()
        capture = capture_activations(model, data.train_x[:100])
        for ratio in ratios:
            qm = QuantizedModel(model, capture.calibrate(ratio), QuantConfig(ratio=ratio))
            accuracy[ratio] = score(qm, data.test_x, data.test_y)[1]

    for ratio in ratios:
        run = simulate_cell("olaccel16", network, ratio=ratio)
        if base_run is None:
            base_run = run
        result.points.append(
            Fig14Point(
                ratio=ratio,
                cycles=run.total_cycles / base_run.total_cycles,
                energy=run.total_energy.total / base_run.total_energy.total,
                top5=accuracy.get(ratio),
            )
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 15 — multi-NPU scalability
# ---------------------------------------------------------------------------


@dataclass
class Fig15Result:
    network: str
    #: speedups keyed by (accelerator, batch) -> list over npu_counts
    series: Dict[Tuple[str, int], List[float]] = field(default_factory=dict)
    npu_counts: Sequence[int] = (1, 2, 4, 8, 16)

    def format(self) -> str:
        out = [f"Fig.15 — scalability on {self.network} (speedup vs ZeNA batch 1, 1 NPU)"]
        for (kind, batch), values in sorted(self.series.items()):
            out.append(format_series(f"{kind} batch={batch}", list(self.npu_counts), values, "NPUs", "speedup"))
        return "\n".join(out)


def fig15_scalability(
    network: str = "alexnet",
    npu_counts: Sequence[int] = (1, 2, 4, 8, 16),
    batches: Sequence[int] = (1, 4, 16),
) -> Fig15Result:
    """Speedup vs NPU count for OLAccel and ZeNA at several batch sizes."""
    workload = paper_workload(network)
    ol_run = _simulator("olaccel16", network).simulate_network(workload)
    zena_run = _simulator("zena16", network).simulate_network(workload)

    zena_cycles = zena_run.total_cycles
    result = Fig15Result(network=network, npu_counts=tuple(npu_counts))
    for kind, run in (("olaccel16", ol_run), ("zena16", zena_run)):
        model = ScalingModel(NpuSpec.from_run(run))
        base_speed = zena_cycles / run.total_cycles  # 1 NPU, vs ZeNA batch 1
        for batch in batches:
            result.series[(kind, batch)] = [
                base_speed * model.speedup(n, batch).speedup for n in npu_counts
            ]
    return result


# ---------------------------------------------------------------------------
# Fig. 16 — effective outlier-activation ratio histogram
# ---------------------------------------------------------------------------


def _no_images() -> np.ndarray:
    import numpy as np

    return np.zeros(0)


@dataclass
class Fig16Result:
    target_ratio: float
    per_layer: Dict[str, float] = field(default_factory=dict)
    per_image: np.ndarray = field(default_factory=_no_images)

    @property
    def mean_ratio(self) -> float:
        return float(self.per_image.mean()) if self.per_image.size else 0.0

    def format(self) -> str:
        rows = [(name, f"{ratio:.4f}") for name, ratio in self.per_layer.items()]
        table = format_table(["layer", "effective ratio"], rows,
                             title=f"Fig.16 — effective outlier ratio (target {self.target_ratio})")
        return table + f"\nper-image mean={self.mean_ratio:.4f}, std={float(self.per_image.std()):.4f}"


def fig16_outlier_histogram(model_name: str = "alexnet", ratio: float = 0.03, images: int = 100) -> Fig16Result:
    """Runtime outlier ratios under statically calibrated thresholds."""
    import numpy as np

    from ..quant import calibrate_activation_thresholds, count_outliers, effective_outlier_ratios
    from .pretrained import default_dataset, trained_mini

    model = trained_mini(model_name)
    data = default_dataset()
    cal = calibrate_activation_thresholds(model, data.train_x[:100], ratio=ratio)

    result = Fig16Result(target_ratio=ratio)
    result.per_layer = effective_outlier_ratios(model, cal, data.test_x[:images])

    # Per-image effective ratio pooled over non-first layers (the histogram).
    per_image = []
    for i in range(min(images, data.test_x.shape[0])):
        captured = model.record_activations(data.test_x[i : i + 1])
        captured.pop(0)
        counts = [count_outliers(act, cal.layers[index].threshold) for index, act in captured.items()]
        outliers = sum(layer_outliers for layer_outliers, _ in counts)
        nonzero = sum(layer_nonzero for _, layer_nonzero in counts)
        per_image.append(outliers / nonzero if nonzero else 0.0)
    result.per_image = np.asarray(per_image)
    return result


# ---------------------------------------------------------------------------
# Fig. 17 — probability of multiple outlier weights per SIMD group
# ---------------------------------------------------------------------------


@dataclass
class Fig17Result:
    ratios: Sequence[float]
    series: Dict[int, List[float]] = field(default_factory=dict)  # lanes -> P(>=2)
    monte_carlo: Dict[int, List[float]] = field(default_factory=dict)

    def format(self) -> str:
        out = ["Fig.17 — P(multiple outlier weights) vs outlier ratio"]
        for lanes, values in sorted(self.series.items()):
            out.append(format_series(f"{lanes} MACs/group", [f"{r:.3f}" for r in self.ratios], values))
        return "\n".join(out)


def fig17_multi_outlier(
    ratios: Sequence[float] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05),
    lane_counts: Sequence[int] = (16, 32, 64),
    monte_carlo_trials: int = 20000,
    seed: Optional[int] = None,
) -> Fig17Result:
    """Analytic multi-outlier probability, with a Monte-Carlo check."""
    import numpy as np

    rng = np.random.default_rng(0 if seed is None else seed)
    result = Fig17Result(ratios=tuple(ratios))
    for lanes in lane_counts:
        result.series[lanes] = [multi_outlier_probability(r, lanes) for r in ratios]
        mc = []
        for r in ratios:
            draws = rng.random((monte_carlo_trials, lanes)) < r
            mc.append(float((draws.sum(axis=1) >= 2).mean()))
        result.monte_carlo[lanes] = mc
    return result


# ---------------------------------------------------------------------------
# Fig. 18 — utilization breakdown per conv layer
# ---------------------------------------------------------------------------


@dataclass
class Fig18Row:
    layer: str
    nonzero_ratio: float
    run: float
    skip: float
    idle: float


@dataclass
class Fig18Result:
    network: str
    rows: List[Fig18Row] = field(default_factory=list)

    def format(self) -> str:
        table = [
            (r.layer, f"{r.nonzero_ratio:.2f}", f"{r.run:.3f}", f"{r.skip:.3f}", f"{r.idle:.3f}")
            for r in self.rows
        ]
        return format_table(["layer", "nonzero", "run", "skip", "idle"], table,
                            title=f"Fig.18 — utilization breakdown ({self.network}, OLAccel16)")


def fig18_utilization(network: str = "alexnet", ratio: float = 0.03) -> Fig18Result:
    """Run/skip/idle cycle shares per conv layer."""
    workload = paper_workload(network, ratio=ratio)
    sim = _simulator("olaccel16", network, ratio)
    result = Fig18Result(network=network)
    for layer in workload.layers:
        stats = sim.simulate_layer(layer)
        group_cycles = stats.cycles * sim.config.n_groups
        result.rows.append(
            Fig18Row(
                layer=layer.name,
                nonzero_ratio=layer.act_density,
                run=stats.run_cycles / group_cycles,
                skip=stats.skip_cycles / group_cycles,
                idle=stats.idle_cycles / group_cycles,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 19 — per-chunk cycle histograms
# ---------------------------------------------------------------------------


@dataclass
class Fig19Result:
    network: str
    histograms: Dict[str, np.ndarray] = field(default_factory=dict)  # layer -> counts[cycles]
    peaks: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        rows = [(layer, int(peak), int(hist.sum())) for (layer, peak), hist in
                zip(self.peaks.items(), self.histograms.values())]
        return format_table(["layer", "peak cycles", "samples"], rows,
                            title=f"Fig.19 — cycles per A(1x1x16) chunk ({self.network})")


def fig19_chunk_cycles(
    network: str = "alexnet",
    ratio: float = 0.03,
    samples: int = 50000,
    seed: Optional[int] = None,
) -> Fig19Result:
    """Distribution of per-pass PE-group cycles for each conv layer."""
    import numpy as np

    rng = np.random.default_rng(1 if seed is None else seed)
    workload = paper_workload(network, ratio=ratio)
    result = Fig19Result(network=network)
    for layer in workload.layers:
        if layer.is_first:
            continue  # dense first layer has a fixed pass cost
        p_multi = multi_outlier_probability(layer.weight_outlier_ratio)
        d_norm = layer.act_density * (1.0 - layer.act_outlier_ratio)
        cycles = sample_pass_cycles(rng, samples, d_norm, p_multi)
        hist = np.bincount(cycles, minlength=36)
        result.histograms[layer.name] = hist
        result.peaks[layer.name] = int(hist.argmax())
    return result
