"""Design-space exploration: the ``repro explore`` Pareto autotuner.

The paper's Table I ISO-area configuration (8 clusters x 6 groups of
4-bit MACs, a 3% outlier ratio, 24-bit accumulators) was found by a
manual search. This module automates that search: it enumerates
candidate OLAccel designs over the explorer's free dimensions —
cluster/PE-group counts, swarm-buffer capacity, outlier ratio,
accumulator width, operand bit widths — prunes candidates whose
:func:`~repro.arch.area.olaccel_design_area` exceeds the area budget,
evaluates the survivors on the analytic simulator, and keeps the
energy-vs-cycles-vs-accuracy Pareto frontier.

Every candidate evaluation is a cost cell (kind ``explore``) that runs
the analytic simulator directly: its cycle model is cheaper than a
simcache key and a verified read. The accuracy cells, one per precision
point, stay simcache-keyed. With ``--run-dir`` each search *rung*
executes as a checkpointed
:func:`~repro.harness.resilience.execute_sweep` under
``<run-dir>/rungs/<n>/``, and an ``explore.json`` marker at the run
root records the full request so ``repro resume <run-dir>``
deterministically re-drives the whole search, skipping completed cells.

Search strategies live behind :class:`SearchStrategy` —
``grid`` (exhaustive), ``random`` (seeded subsample of the grid) and
``halving`` (successive halving: a cheap screen rung on the first K
conv layers, then full-fidelity refinement of the top ``1/eta``).

Observability lands under ``explore/*`` and reconciles exactly::

    candidates == evaluated + pruned

where ``pruned`` counts candidates never simulated (over budget or cut
by ``--max-candidates``) and ``evaluated`` counts screen-rung cells
(including ones that failed, tracked separately under
``explore/failed``). Refinement rungs count under
``explore/refine_evaluated``.

The result is a versioned ``repro.explore/v1`` envelope (JSON/CSV,
atomic + digest-carrying); ``run_id``/``created`` are declared in a
top-level ``volatile`` list so cold, warm and kill+resume runs are
byte-identical under
:func:`~repro.harness.resilience.canonical_envelope_bytes`.
See docs/EXPLORE.md for the full workflow.
"""

from __future__ import annotations

import functools
import itertools
import math
import uuid
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arch.area import olaccel_design_area, swarm_buffer_area
from ..arch.stats import STATS_SCHEMA_VERSION
from ..arch.workload import NetworkWorkload
from ..errors import ArtifactIntegrityError, CellError, ConfigError
from ..obs import Registry, get_registry
from .resilience import (
    PLAN_ASSEMBLERS,
    CellSpec,
    RetryPolicy,
    SweepPlan,
    execute_sweep,
)
from .serialize import content_digest, load_json, save_json, to_jsonable
from .simcache import SimCache, get_active
from .workloads import MEMORY_TABLE, memory_bytes, paper_workload

__all__ = [
    "EXPLORE_SCHEMA",
    "EXPLORE_MARKER",
    "DesignSpace",
    "Candidate",
    "ExploreRequest",
    "ExploreResult",
    "ParetoArchive",
    "SearchStrategy",
    "STRATEGIES",
    "register_strategy",
    "default_budget",
    "dominates",
    "explore_cell",
    "accuracy_cell",
    "explore_run",
    "explore_resume",
    "is_explore_run",
    "explore_envelope",
    "explore_csv_rows",
]

EXPLORE_SCHEMA = "repro.explore/v1"
EXPLORE_SCHEMA_VERSION = 1

#: Marker file at the run-dir root that records the full request, so
#: ``repro resume`` can re-drive the search without re-stating flags.
EXPLORE_MARKER = "explore.json"
MARKER_SCHEMA = "repro.explore-run/v1"
RUNGS_DIR = "rungs"

#: Paper network name -> trained mini-model zoo name (fig2/3/14 mapping).
MINI_OF = {
    "alexnet": "alexnet",
    "vgg16": "vgg",
    "resnet18": "resnet",
    "resnet101": "resnet",
    "densenet121": "densenet",
}


# ---------------------------------------------------------------------------
# Search space and candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpace:
    """The grid of values each design dimension may take.

    The defaults bracket the paper's 16-bit-comparison design point
    (8 clusters x 6 groups, 384 KiB-class buffer, 3% outliers, 24-bit
    accumulators, 4-bit operands); outlier activations stay at 16 bits
    — the paper's comparison precision — so accuracy depends only on
    the normal-path widths and the ratio.
    """

    clusters: Tuple[int, ...] = (4, 6, 8, 10)
    groups: Tuple[int, ...] = (4, 6, 8)
    buffers_kib: Tuple[int, ...] = (96, 192, 384)
    ratios: Tuple[float, ...] = (0.01, 0.03, 0.05)
    acc_bits: Tuple[int, ...] = (16, 24)
    act_bits: Tuple[int, ...] = (4,)
    weight_bits: Tuple[int, ...] = (4,)

    def __post_init__(self):
        # A repeated value, or two ratios that print alike, would give two
        # candidates one cand_id: one cell id, one frontier row.
        for f in fields(self):
            values = getattr(self, f.name)
            shown = [f"{v:g}" for v in values] if f.name == "ratios" else values
            if len(set(shown)) != len(values):
                raise ConfigError(
                    f"design-space dimension {f.name!r} repeats a value (as cand_id "
                    f"prints it): {', '.join(str(v) for v in values)}"
                )

    def size(self) -> int:
        out = 1
        for f in fields(self):
            out *= len(getattr(self, f.name))
        return out

    def to_dict(self) -> Dict[str, list]:
        return {f.name: list(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_dict(doc: Dict[str, Sequence]) -> "DesignSpace":
        known = {f.name for f in fields(DesignSpace)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown design-space dimension(s): {', '.join(sorted(unknown))}")
        kwargs = {
            name: tuple(float(v) if name == "ratios" else int(v) for v in values)
            for name, values in doc.items()
        }
        for name, values in kwargs.items():
            if not values:
                raise ConfigError(f"design-space dimension {name!r} must be non-empty")
        return DesignSpace(**kwargs)


@dataclass(frozen=True)
class Candidate:
    """One point of the design space, addressable by :attr:`cand_id`."""

    clusters: int
    groups: int
    buffer_kib: int
    ratio: float
    acc_bits: int
    act_bits: int
    weight_bits: int

    @functools.cached_property
    def cand_id(self) -> str:
        """Deterministic, filesystem-safe id doubling as the cell id."""
        return (
            f"c{self.clusters}g{self.groups}b{self.buffer_kib}"
            f"r{self.ratio:g}a{self.acc_bits}w{self.weight_bits}x{self.act_bits}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clusters": self.clusters,
            "groups": self.groups,
            "buffer_kib": self.buffer_kib,
            "ratio": self.ratio,
            "acc_bits": self.acc_bits,
            "act_bits": self.act_bits,
            "weight_bits": self.weight_bits,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "Candidate":
        return Candidate(
            clusters=int(doc["clusters"]),
            groups=int(doc["groups"]),
            buffer_kib=int(doc["buffer_kib"]),
            ratio=float(doc["ratio"]),
            acc_bits=int(doc["acc_bits"]),
            act_bits=int(doc["act_bits"]),
            weight_bits=int(doc["weight_bits"]),
        )

    def accel_config(self):
        """The :class:`~repro.olaccel.config.OLAccelConfig` this point names,
        built once per candidate."""
        return self._accel_config

    @functools.cached_property
    def _accel_config(self):
        from ..olaccel.config import OLAccelConfig

        # olaccel16's precision fields, with this point's geometry and widths.
        return OLAccelConfig(
            name=f"olx-{self.cand_id}",
            n_clusters=self.clusters,
            groups_per_cluster=self.groups,
            act_bits=self.act_bits,
            weight_bits=self.weight_bits,
            act_outlier_bits=16,
            acc_bits=self.acc_bits,
            raw_input_bits=16,
            outlier_ratio=self.ratio,
            swarm_buffer_bytes=self.buffer_kib * 1024,
        )

    def area_mm2(self) -> float:
        """Datapath + swarm-buffer area charged against the budget."""
        return olaccel_design_area(
            self.clusters,
            self.groups,
            act_bits=self.act_bits,
            weight_bits=self.weight_bits,
            ol_act_bits=16,
            acc_bits=self.acc_bits,
            swarm_buffer_bytes=self.buffer_kib * 1024,
        )


def default_budget(network: str) -> float:
    """The ISO-area budget: Table I's 16-bit Eyeriss-equivalent datapath
    (with the paper's 11% margin) plus the network's Table I swarm buffer."""
    from ..arch.area import eyeriss_pe_area

    if network not in MEMORY_TABLE:
        raise ConfigError(f"no memory budget recorded for network {network!r}")
    datapath = 165 * eyeriss_pe_area(16) * 1.11
    return datapath + swarm_buffer_area(memory_bytes(network, 16))


# ---------------------------------------------------------------------------
# Search strategies
# ---------------------------------------------------------------------------


class SearchStrategy:
    """Enumeration + refinement schedule of one search flavor.

    ``candidates`` returns the deterministic candidate list (the seeded
    ``rng`` is the only randomness source); ``rungs`` returns one
    fidelity per evaluation rung — ``None`` means the full conv
    workload, an integer means only the first K conv layers (the cheap
    screen used by successive halving).
    """

    name = "?"

    def candidates(
        self, space: DesignSpace, request: "ExploreRequest", rng: np.random.Generator
    ) -> List[Candidate]:
        raise NotImplementedError

    def rungs(self, request: "ExploreRequest") -> List[Optional[int]]:
        return [None]


def _grid(space: DesignSpace) -> List[Candidate]:
    return [
        Candidate(*point)
        for point in itertools.product(
            space.clusters,
            space.groups,
            space.buffers_kib,
            space.ratios,
            space.acc_bits,
            space.act_bits,
            space.weight_bits,
        )
    ]


class GridSearch(SearchStrategy):
    """Exhaustive enumeration in axis order."""

    name = "grid"

    def candidates(self, space, request, rng):
        return _grid(space)


class RandomSearch(SearchStrategy):
    """A seeded ``--samples``-point subsample of the grid, in grid order."""

    name = "random"

    def candidates(self, space, request, rng):
        grid = _grid(space)
        if request.samples >= len(grid):
            return grid
        picks = sorted(rng.permutation(len(grid))[: request.samples].tolist())
        return [grid[i] for i in picks]


class HalvingSearch(GridSearch):
    """Successive halving: screen the grid on the first ``--screen-layers``
    conv layers, refine the top ``1/eta`` at full fidelity."""

    name = "halving"

    def rungs(self, request):
        return [max(1, int(request.screen_layers)), None]


STRATEGIES: Dict[str, SearchStrategy] = {}


def register_strategy(strategy: SearchStrategy) -> None:
    """Register a strategy under its ``name`` (later PRs add samplers here)."""
    STRATEGIES[strategy.name] = strategy


register_strategy(GridSearch())
register_strategy(RandomSearch())
register_strategy(HalvingSearch())


# ---------------------------------------------------------------------------
# Pareto dominance
# ---------------------------------------------------------------------------


def dominates(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """True iff ``a`` is no worse than ``b`` everywhere and better somewhere.

    Minimizes ``cycles`` and ``energy_total``, maximizes ``accuracy``
    (ignored when either side carries ``None`` — the ``--accuracy
    none`` mode degrades to a 2-objective frontier).
    """
    a_cycles, b_cycles = a["cycles"], b["cycles"]
    a_energy, b_energy = a["energy_total"], b["energy_total"]
    if not (a_cycles <= b_cycles and a_energy <= b_energy):
        return False
    better = a_cycles < b_cycles or a_energy < b_energy
    a_acc, b_acc = a.get("accuracy"), b.get("accuracy")
    if a_acc is not None and b_acc is not None:
        if not a_acc >= b_acc:
            return False
        better = better or a_acc > b_acc
    return better


class ParetoArchive:
    """Incremental non-dominated archive over evaluated rows."""

    def __init__(self) -> None:
        self._rows: List[Dict[str, Any]] = []

    def offer(self, row: Dict[str, Any]) -> bool:
        """Admit ``row`` unless dominated; evict rows it dominates."""
        if any(dominates(kept, row) for kept in self._rows):
            return False
        self._rows = [kept for kept in self._rows if not dominates(row, kept)]
        self._rows.append(row)
        return True

    def __len__(self) -> int:
        return len(self._rows)

    def frontier(self) -> List[Dict[str, Any]]:
        """The archive sorted by (cycles, energy, cand_id) — deterministic."""
        return sorted(
            self._rows,
            key=lambda r: (r["cycles"], r["energy_total"], r["cand_id"]),
        )


# ---------------------------------------------------------------------------
# Cells: candidate cost + (shared) accuracy, both simcache-keyed
# ---------------------------------------------------------------------------


#: Per-process memo of paper workloads, keyed (network, ratio).
#: ``paper_workload`` is a pure function of its arguments and its result
#: is frozen, so a search builds each distinct workload once and every
#: candidate at that ratio simulates the same one.
_WORKLOADS: Dict[tuple, NetworkWorkload] = {}


def _workload(network: str, ratio: float) -> NetworkWorkload:
    key = (network, float(ratio))
    workload = _WORKLOADS.get(key)
    if workload is None:
        workload = _WORKLOADS[key] = paper_workload(network, ratio=ratio)
    return workload


def explore_cell(
    network: str,
    candidate: Union[Candidate, Dict[str, Any]],
    fidelity_layers: Optional[int] = None,
) -> Dict[str, float]:
    """Evaluate one candidate design on the analytic simulator.

    Returns a flat dict: ``cycles``, per-component ``energy_*`` plus
    ``energy_total`` (pJ). The cell computes directly; it is cheaper
    than a simcache key and a verified read.
    """
    from ..olaccel.accelerator import OLAccelSimulator

    cand = candidate if isinstance(candidate, Candidate) else Candidate.from_dict(candidate)
    if network not in MEMORY_TABLE:
        raise ConfigError(f"unknown network {network!r}")
    workload = _workload(network, cand.ratio)
    if fidelity_layers is not None:
        workload = NetworkWorkload(workload.name, workload.layers[:fidelity_layers])
    run = OLAccelSimulator(cand.accel_config()).simulate_network(workload)
    doc = {"cycles": float(run.total_cycles)}
    energy = run.energy_by_component()
    for component, pj in energy.items():
        doc[f"energy_{component}"] = float(pj)
    doc["energy_total"] = float(sum(energy.values()))
    return doc


def accuracy_cell(
    network: str,
    act_bits: int,
    weight_bits: int,
    ratio: float,
    mode: str = "proxy",
    samples: int = 256,
    seed: int = 0,
    cache: Optional[SimCache] = None,
) -> Dict[str, Any]:
    """The accuracy coordinate shared by every candidate at one
    (act_bits, weight_bits, ratio) point, memoized like any other cell.

    ``proxy`` (the default) quantizes deterministic heavy-tailed
    synthetic tensors and reports the mean weight/activation SQNR in
    dB — a training-free, seconds-scale stand-in that orders precision
    points the way measured accuracy does. ``quant`` measures top-1 on
    the trained mini model (trains it on first use — minutes, then
    cached). ``none`` drops the accuracy axis entirely.
    """
    if mode == "none":
        return {"metric": "none", "accuracy": None}
    if mode not in ("proxy", "quant"):
        raise ConfigError(f"unknown accuracy mode {mode!r}; use none, proxy or quant")
    cache = cache if cache is not None else get_active()
    components = {
        "cell": "explore-accuracy",
        "mode": mode,
        "network": network,
        "mini": MINI_OF.get(network),
        "act_bits": int(act_bits),
        "weight_bits": int(weight_bits),
        "ratio": float(ratio),
        "samples": int(samples),
        "seed": int(seed),
    }

    def compute() -> Dict[str, Any]:
        if mode == "proxy":
            return _proxy_accuracy(int(act_bits), int(weight_bits), float(ratio), int(seed))
        return _measured_accuracy(
            network, int(act_bits), int(weight_bits), float(ratio), int(samples)
        )

    return cache.memoize(components, compute)


def _proxy_accuracy(act_bits: int, weight_bits: int, ratio: float, seed: int) -> Dict[str, Any]:
    """Quantization SQNR (dB) on seeded Student-t tensors.

    Heavy-tailed draws mirror the outlier-rich distributions of Fig. 1;
    numpy ``Generator`` streams are stable across platforms, so the
    proxy is bit-deterministic for a given seed.
    """
    from ..quant.outlier import magnitude_threshold, quantize_activations, quantize_weights

    weights, acts = _proxy_tensors(seed, act_bits, weight_bits)
    qw = quantize_weights(weights, ratio=ratio, normal_bits=weight_bits, outlier_bits=8)
    threshold = magnitude_threshold(acts, ratio, over_nonzero=True)
    qa = quantize_activations(
        acts, threshold, normal_bits=act_bits, outlier_bits=16, ratio=ratio
    )

    def sqnr_db(x: np.ndarray, xq: np.ndarray) -> float:
        noise = float(np.sum((x - xq) ** 2))
        signal = float(np.sum(x**2))
        return 10.0 * math.log10(signal / noise) if noise > 0 else float("inf")

    w_sqnr = sqnr_db(weights, qw.dequantize())
    a_sqnr = sqnr_db(acts, qa.dequantize())
    return {
        "metric": "sqnr_db",
        "accuracy": 0.5 * (w_sqnr + a_sqnr),
        "weight_sqnr_db": w_sqnr,
        "act_sqnr_db": a_sqnr,
    }


@functools.lru_cache(maxsize=4)
def _proxy_tensors(seed: int, act_bits: int, weight_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded (weights, |activations|) draws of :func:`_proxy_accuracy`.

    Every outlier ratio shares them, so each key draws once; callers
    share the arrays, which are therefore read-only.
    """
    rng = np.random.default_rng([seed, act_bits, weight_bits])
    weights = rng.standard_t(4, size=1 << 15)
    acts = np.abs(rng.standard_t(4, size=1 << 15))
    weights.flags.writeable = acts.flags.writeable = False
    return weights, acts


def _measured_accuracy(
    network: str, act_bits: int, weight_bits: int, ratio: float, samples: int
) -> Dict[str, Any]:
    """Measured top-1 of the quantized mini model (``--accuracy quant``)."""
    from ..nn.model import score
    from ..quant import QuantConfig, QuantizedModel, calibrate_activation_thresholds
    from .pretrained import default_dataset, trained_mini

    mini = MINI_OF.get(network)
    if mini is None:
        raise ConfigError(f"no mini model mapped for network {network!r}")
    model = trained_mini(mini)
    data = default_dataset()
    cal = calibrate_activation_thresholds(model, data.train_x[:100], ratio=ratio)
    qm = QuantizedModel(
        model, cal, QuantConfig(ratio=ratio, weight_bits=weight_bits, act_bits=act_bits)
    )
    n = min(samples, len(data.test_y)) if samples else len(data.test_y)
    top1, _ = score(qm, data.test_x[:n], data.test_y[:n])
    return {"metric": "top1", "accuracy": float(top1), "samples": int(n), "mini": mini}


# ---------------------------------------------------------------------------
# Request, plan assembly, driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreRequest:
    """Everything that determines one search, JSON-round-trippable."""

    network: str
    budget_mm2: Optional[float] = None  # None -> default_budget(network)
    strategy: str = "grid"
    samples: int = 64
    eta: int = 4
    screen_layers: int = 2
    max_candidates: Optional[int] = None
    accuracy: str = "proxy"
    accuracy_samples: int = 256
    seed: Optional[int] = None
    space: DesignSpace = field(default_factory=DesignSpace)

    def resolved_budget(self) -> float:
        return float(self.budget_mm2) if self.budget_mm2 else default_budget(self.network)

    def to_dict(self) -> Dict[str, Any]:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "space"}
        doc["space"] = self.space.to_dict()
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ExploreRequest":
        doc = dict(doc)
        space = DesignSpace.from_dict(doc.pop("space", {}))
        known = {f.name for f in fields(ExploreRequest)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown explore request field(s): {', '.join(sorted(unknown))}")
        return ExploreRequest(space=space, **doc)


def _explore_plan(
    request: ExploreRequest,
    population: Sequence[Candidate],
    fidelity: Optional[int],
    rung: int,
    seed: int,
    budget: float,
) -> SweepPlan:
    cells = [
        CellSpec(
            cell_id=cand.cand_id,
            kind="explore",
            params={
                "network": request.network,
                "candidate": cand.to_dict(),
                "fidelity_layers": fidelity,
                "seed": seed,
            },
        )
        for cand in population
    ]
    return SweepPlan(
        plan="explore",
        experiment="explore",
        description=f"design-space rung {rung} for {request.network}",
        seed=seed,
        params={
            "network": request.network,
            "budget_mm2": budget,
            "strategy": request.strategy,
            "rung": rung,
            "fidelity_layers": fidelity,
            "space": request.space.to_dict(),
        },
        cells=cells,
    )


@dataclass
class ExploreRungResult:
    """Assembled view of one rung's records (``rungs/<n>/envelope.json``)."""

    network: str
    rung: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def format(self) -> str:
        from .report import format_failures, format_table

        table = format_table(
            ("candidate", "cycles", "energy pJ"),
            [(r["cand_id"], f"{r['cycles']:.0f}", f"{r['energy_total']:.3e}") for r in self.rows],
            title=f"explore rung {self.rung} — {self.network}",
        )
        if self.failures:
            table += "\n\n" + format_failures(self.failures)
        return table


def _assemble_explore(plan: SweepPlan, records: Dict[str, Dict[str, Any]]) -> ExploreRungResult:
    result = ExploreRungResult(network=plan.params["network"], rung=plan.params["rung"])
    for spec in plan.cells:
        record = records.get(spec.cell_id)
        if record is not None and record.get("status") == "ok":
            row = dict(record["result"])
            row["cand_id"] = spec.cell_id
            result.rows.append(row)
        else:
            result.failures.append(
                (record or {}).get("error")
                or CellError("cell record missing", cell_id=spec.cell_id, kind="crash").to_dict()
            )
    return result


PLAN_ASSEMBLERS["explore"] = _assemble_explore


def _execute_inline(
    network: str, population: Sequence[Candidate], fidelity: Optional[int]
) -> Dict[str, Dict[str, Any]]:
    """In-process execution (no run dir): same record shape as a sweep."""
    records: Dict[str, Dict[str, Any]] = {}
    for cand in population:
        try:
            result = explore_cell(network, cand, fidelity_layers=fidelity)
            records[cand.cand_id] = {"status": "ok", "result": result}
        except Exception as exc:  # pragma: no cover - exercised via failure tests
            records[cand.cand_id] = {
                "status": "failed",
                "error": CellError(
                    f"{type(exc).__name__}: {exc}", cell_id=cand.cand_id, kind="exception"
                ).to_dict(),
            }
    return records


@dataclass
class ExploreResult:
    """The search outcome: evaluated rows plus their Pareto frontier."""

    network: str
    strategy: str
    budget_mm2: float
    accuracy_mode: str
    seed: int
    space: Dict[str, list]
    candidates: int
    pruned: int
    rungs: int
    evaluated: List[Dict[str, Any]] = field(default_factory=list)
    frontier: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def format(self) -> str:
        from .report import format_failures, format_table

        header = (
            f"explore {self.network} — strategy {self.strategy}, "
            f"budget {self.budget_mm2:.3f} mm^2: {self.candidates} candidates, "
            f"{self.pruned} pruned, {len(self.evaluated)} evaluated, "
            f"{len(self.frontier)} on the frontier"
        )
        rows = [
            (
                r["cand_id"],
                r["clusters"],
                r["groups"],
                r["buffer_kib"],
                f"{r['ratio']:g}",
                r["acc_bits"],
                f"{r['area_mm2']:.3f}",
                f"{r['cycles']:.0f}",
                f"{r['energy_total']:.3e}",
                "-" if r.get("accuracy") is None else f"{r['accuracy']:.3f}",
            )
            for r in self.frontier
        ]
        table = format_table(
            ("candidate", "clu", "grp", "buf KiB", "ratio", "acc b", "area mm^2",
             "cycles", "energy pJ", "accuracy"),
            rows,
            title="Pareto frontier (cycles/energy minimized, accuracy maximized)",
        )
        out = header + "\n\n" + table
        if self.failures:
            out += "\n\n" + format_failures(self.failures)
        return out


def explore_envelope(result: ExploreResult) -> Dict[str, Any]:
    """Wrap a search result in the versioned ``repro.explore/v1`` envelope.

    ``run_id``/``created`` are declared under the top-level ``volatile``
    list, which :func:`~repro.harness.resilience.canonical_envelope_bytes`
    strips — everything else is a pure function of the request, so cold,
    warm-cache and kill+resume envelopes agree byte-for-byte.
    """
    return {
        "schema": EXPLORE_SCHEMA,
        "schema_version": EXPLORE_SCHEMA_VERSION,
        "stats_schema_version": STATS_SCHEMA_VERSION,
        "experiment": "explore",
        "description": f"design-space Pareto search for {result.network}",
        "run_id": uuid.uuid4().hex[:12],
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "volatile": ["run_id", "created"],
        "result": to_jsonable(result),
    }


def explore_csv_rows(result: ExploreResult) -> List[Dict[str, Any]]:
    """One flat CSV row per evaluated candidate, frontier membership marked."""
    on_frontier = {row["cand_id"] for row in result.frontier}
    return [
        {**row, "on_frontier": row["cand_id"] in on_frontier} for row in result.evaluated
    ]


def _marker_doc(request: ExploreRequest) -> Dict[str, Any]:
    body = to_jsonable(request.to_dict())
    return {
        "schema": MARKER_SCHEMA,
        "schema_version": 1,
        "request": body,
        "config_hash": content_digest(body),
    }


def _init_marker(root: Path, request: ExploreRequest, verify: bool) -> None:
    path = root / EXPLORE_MARKER
    doc = _marker_doc(request)
    if path.exists():
        existing = load_json(path, verify=verify)
        if not isinstance(existing, dict) or existing.get("config_hash") != doc["config_hash"]:
            raise ArtifactIntegrityError(
                "run directory belongs to a different explore request",
                path=str(path),
                reason="manifest_mismatch",
            )
        return
    root.mkdir(parents=True, exist_ok=True)
    save_json(doc, path)


def is_explore_run(run_dir: Union[str, Path]) -> bool:
    """Does ``run_dir`` hold an explore search (vs a plain sweep)?"""
    return (Path(run_dir) / EXPLORE_MARKER).exists()


def explore_run(
    request: ExploreRequest,
    run_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    obs: Optional[Registry] = None,
    verify: bool = True,
    lease_ttl: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
) -> Tuple[ExploreResult, Dict[str, Any]]:
    """Run (or continue) one design-space search; returns (result, envelope).

    Without ``run_dir`` every cell executes in-process (fast path, still
    simcache-keyed). With ``run_dir`` each rung is a checkpointed
    :func:`execute_sweep` under ``<run-dir>/rungs/<n>/`` and the final
    envelope lands at ``<run-dir>/envelope.json`` — killing the process
    mid-search and calling :func:`explore_resume` completes it with the
    already-finished cells skipped.
    """
    obs = obs if obs is not None else get_registry()
    if request.network not in MEMORY_TABLE:
        raise ConfigError(
            f"unknown network {request.network!r}; available: {', '.join(sorted(MEMORY_TABLE))}"
        )
    strategy = STRATEGIES.get(request.strategy)
    if strategy is None:
        raise ConfigError(
            f"unknown strategy {request.strategy!r}; available: {', '.join(sorted(STRATEGIES))}"
        )
    if request.eta < 2:
        raise ConfigError("eta must be >= 2 (the survivor fraction is 1/eta)")
    seed = 0 if request.seed is None else request.seed
    request = replace(request, seed=seed)
    budget = request.resolved_budget()

    rng = np.random.default_rng(seed)
    cands = strategy.candidates(request.space, request, rng)
    obs.counter("explore/candidates").add(len(cands))
    capped = 0
    if request.max_candidates is not None and len(cands) > request.max_candidates:
        capped = len(cands) - request.max_candidates
        cands = cands[: request.max_candidates]
    area = {c.cand_id: c.area_mm2() for c in cands}
    feasible = [c for c in cands if area[c.cand_id] <= budget]
    pruned = (len(cands) - len(feasible)) + capped
    obs.counter("explore/pruned").add(pruned)

    root: Optional[Path] = None
    if run_dir is not None:
        root = Path(run_dir)
        _init_marker(root, request, verify)

    rungs = strategy.rungs(request)
    population: List[Candidate] = list(feasible)
    final_rows: Dict[str, Dict[str, Any]] = {}
    failures: List[Dict[str, Any]] = []
    evaluated = 0

    for rung, fidelity in enumerate(rungs):
        if not population:
            break
        if root is not None:
            plan = _explore_plan(request, population, fidelity, rung, seed, budget)
            _, _, _, records = execute_sweep(
                plan, root / RUNGS_DIR / str(rung), jobs=jobs, retry=retry,
                obs=obs, verify=verify, lease_ttl=lease_ttl, heartbeat_s=heartbeat_s,
            )
        else:
            records = _execute_inline(request.network, population, fidelity)

        rung_rows: Dict[str, Dict[str, Any]] = {}
        if rung == 0:
            evaluated += len(population)
        else:
            obs.counter("explore/refine_evaluated").add(len(population))
        for cand in population:
            cell_id = cand.cand_id
            record = records.get(cell_id)
            if record is not None and record.get("status") == "ok":
                rung_rows[cell_id] = record["result"]
            else:
                obs.counter("explore/failed").add()
                failures.append(
                    (record or {}).get("error")
                    or CellError("cell record missing", cell_id=cell_id, kind="crash").to_dict()
                )

        if rung < len(rungs) - 1:
            # Successive halving: keep the best ceil(n/eta) by the
            # energy-cycles product on the screen metrics (cand_id
            # breaks ties deterministically).
            keep = max(1, math.ceil(len(population) / request.eta))
            scored = sorted(
                (cid for cid in rung_rows),
                key=lambda cid: (
                    rung_rows[cid]["energy_total"] * rung_rows[cid]["cycles"],
                    cid,
                ),
            )
            kept = set(scored[:keep])
            obs.counter("explore/refined").add(len(kept))
            population = [c for c in population if c.cand_id in kept]
        else:
            final_rows = rung_rows

    obs.counter("explore/evaluated").add(evaluated)

    # Accuracy is shared across candidates with identical precision
    # coordinates — one memoized cell per distinct point.
    accuracy_points: Dict[Tuple[int, int, float], Dict[str, Any]] = {}
    survivors = [c for c in population if c.cand_id in final_rows]
    if request.accuracy != "none":
        for cand in survivors:
            key = (cand.act_bits, cand.weight_bits, cand.ratio)
            if key not in accuracy_points:
                accuracy_points[key] = accuracy_cell(
                    request.network,
                    cand.act_bits,
                    cand.weight_bits,
                    cand.ratio,
                    mode=request.accuracy,
                    samples=request.accuracy_samples,
                    seed=seed,
                )
        obs.counter("explore/accuracy_cells").add(len(accuracy_points))

    archive = ParetoArchive()
    dominated = 0
    rows: List[Dict[str, Any]] = []
    for cand in survivors:
        row = {"cand_id": cand.cand_id, **cand.to_dict()}
        row["area_mm2"] = area[cand.cand_id]
        row.update(final_rows[cand.cand_id])
        acc = accuracy_points.get((cand.act_bits, cand.weight_bits, cand.ratio))
        row["accuracy"] = None if acc is None else acc.get("accuracy")
        row["accuracy_metric"] = "none" if acc is None else acc.get("metric")
        if not archive.offer(row):
            dominated += 1
        rows.append(row)
    obs.counter("explore/dominated").add(dominated)
    frontier = archive.frontier()
    obs.counter("explore/frontier").add(len(frontier))

    result = ExploreResult(
        network=request.network,
        strategy=request.strategy,
        budget_mm2=budget,
        accuracy_mode=request.accuracy,
        seed=seed,
        space=request.space.to_dict(),
        candidates=len(cands) + capped,
        pruned=pruned,
        rungs=len(rungs),
        evaluated=rows,
        frontier=frontier,
        failures=failures,
    )
    envelope = explore_envelope(result)
    if root is not None:
        save_json(envelope, root / "envelope.json")
    return result, envelope


def explore_resume(
    run_dir: Union[str, Path],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    obs: Optional[Registry] = None,
    verify: bool = True,
    lease_ttl: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
) -> Tuple[ExploreResult, Dict[str, Any]]:
    """Re-drive an interrupted search from its ``explore.json`` marker.

    The marker pins the full request (seed included), so the candidate
    list, rung plans and survivor selection re-derive identically;
    completed cells are skipped by the per-rung sweeps and the final
    envelope is byte-identical (modulo declared volatile fields) to an
    uninterrupted run.
    """
    path = Path(run_dir) / EXPLORE_MARKER
    if not path.exists():
        raise ArtifactIntegrityError(
            "no explore marker — not an explore run directory",
            path=str(path),
            reason="unreadable",
        )
    doc = load_json(path, verify=verify)
    if not isinstance(doc, dict):
        raise ArtifactIntegrityError(
            f"explore marker is not a JSON object ({type(doc).__name__})",
            path=str(path),
            reason="manifest_mismatch",
        )
    if doc.get("schema") != MARKER_SCHEMA:
        raise ArtifactIntegrityError(
            f"unknown explore marker schema {doc.get('schema')!r}",
            path=str(path),
            reason="manifest_mismatch",
        )
    if not isinstance(doc.get("request"), dict):
        raise ArtifactIntegrityError(
            "explore marker carries no request object",
            path=str(path),
            reason="manifest_mismatch",
        )
    request = ExploreRequest.from_dict(doc["request"])
    return explore_run(
        request, run_dir=run_dir, jobs=jobs, retry=retry, obs=obs, verify=verify,
        lease_ttl=lease_ttl, heartbeat_s=heartbeat_s,
    )
