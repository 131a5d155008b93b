"""Fault-rate and accumulator-width sweeps (the ``repro faults`` verb).

For one paper network the driver builds a synthetic conv case whose
sparsity and outlier statistics match the network's first non-input
conv layer (from :func:`repro.harness.workloads.paper_workload`), then:

1. **rate sweep** — runs the fault-injected datapath
   (:func:`repro.faults.faulty_olaccel_conv2d`) at each fault rate under
   the chosen recovery policy, reporting injected / detected /
   undetected / masked counters (which reconcile exactly:
   ``injected == detected + undetected``) and output corruption vs the
   clean golden reference;
2. **accumulator-width sweep** — runs the clean datapath through
   :class:`~repro.faults.accumulator.AccumulatorModel` at each width,
   reporting overflow counts and error vs the infinite-width reference,
   alongside the guaranteed-overflow-avoidance bound
   :func:`~repro.faults.accumulator.required_accumulator_bits` for the
   case.

Results carry ``format()`` for the terminal and serialize through the
standard ``repro.experiment/v1`` envelope (docs/EXPERIMENTS.md).

Each rate point and each width point is an independent **cell**
(:func:`fault_rate_cell` / :func:`fault_width_cell`): a pure function of
(network, parameters, seed) returning one JSON-able row. ``fault_sweep``
runs the cells serially; ``repro.harness.resilience`` runs the same
cells through the checkpointed supervised pool, so an interrupted sweep
resumes bit-identically (docs/RESILIENCE.md). Cells that fail under the
resilient path land in ``FaultSweepResult.failures`` and render as a
FAILED section instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..arch.workload import check_ratio
from ..constants import DEFAULT_RATES, DEFAULT_WIDTHS
from ..errors import ConfigError, config_field
from ..faults import AccumulatorModel, FaultPlan, faulty_olaccel_conv2d, required_accumulator_bits
from ..faults.validate import check_policy
from ..obs import Registry
from .report import format_failures, format_table
from .workloads import check_network, paper_workload

__all__ = [
    "DEFAULT_RATES",
    "DEFAULT_WIDTHS",
    "FaultSweepResult",
    "check_sweep",
    "fault_sweep",
    "fault_case",
    "fault_rate_cell",
    "fault_width_cell",
]

#: Synthetic case geometry — big enough for spill chunks and swarm
#: entries to appear at 3% outliers, small enough to sweep in seconds.
_CASE = dict(in_c=32, out_c=32, kernel=3, size=8, batch=2)


@dataclass
class FaultSweepResult:
    """Outcome of one ``repro faults`` sweep."""

    network: str
    policy: str
    model: str
    seed: int
    case: Dict[str, float]
    required_bits: int
    rate_rows: List[Dict[str, float]] = field(default_factory=list)
    width_rows: List[Dict[str, float]] = field(default_factory=list)
    #: Structured CellError dicts for cells the resilient path gave up on.
    failures: List[Dict[str, object]] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"fault sweep — {self.network} "
            f"(policy={self.policy}, model={self.model}, seed={self.seed})",
            f"case: {self.case['in_c']:.0f}x{self.case['size']:.0f}x{self.case['size']:.0f} "
            f"-> {self.case['out_c']:.0f} ch, k={self.case['kernel']:.0f}, "
            f"act outliers {self.case['act_outlier_ratio']:.1%}, "
            f"weight outliers {self.case['weight_outlier_ratio']:.1%}",
            "",
            format_table(
                ["rate", "injected", "detected", "undetected", "masked", "mismatch", "max|err|"],
                [
                    [
                        f"{row['rate']:g}",
                        f"{row['injected']:.0f}",
                        f"{row['detected']:.0f}",
                        f"{row['undetected']:.0f}",
                        f"{row['masked']:.0f}",
                        f"{row['mismatch_fraction']:.1%}",
                        f"{row['max_abs_error']:.0f}",
                    ]
                    for row in self.rate_rows
                ],
            ),
            "",
            f"accumulator sweep (guaranteed-avoidance bound: {self.required_bits} bits)",
            format_table(
                ["width", "mode", "overflows", "mismatch", "max|err|"],
                [
                    [
                        f"{row['width_bits']:.0f}",
                        row["mode"],
                        f"{row['overflows']:.0f}",
                        f"{row['mismatch_fraction']:.1%}",
                        f"{row['max_abs_error']:.0f}",
                    ]
                    for row in self.width_rows
                ],
            ),
        ]
        if self.failures:
            lines += ["", format_failures(self.failures)]
        return "\n".join(lines)


def _synthetic_case(network: str, ratio: float, seed: int):
    """Integer conv operands mirroring the network's first sparse layer."""
    workload = paper_workload(network, ratio=ratio)
    layer = next((l for l in workload.layers if not l.is_first), workload.layers[0])
    rng = np.random.default_rng([seed, 0xFA17])

    c_in, c_out = _CASE["in_c"], _CASE["out_c"]
    k, size, batch = _CASE["kernel"], _CASE["size"], _CASE["batch"]

    acts = rng.integers(1, 16, size=(batch, c_in, size, size))
    acts[rng.random(acts.shape) >= layer.act_density] = 0
    nonzero = acts > 0
    act_out = nonzero & (rng.random(acts.shape) < layer.act_outlier_ratio)
    acts[act_out] = rng.integers(16, 256, size=int(act_out.sum()))

    weights = rng.integers(-7, 8, size=(c_out, c_in, k, k))
    w_out = rng.random(weights.shape) < layer.weight_outlier_ratio
    magnitudes = rng.integers(8, 128, size=int(w_out.sum()))
    weights[w_out] = magnitudes * rng.choice([-1, 1], size=magnitudes.shape)

    stats = dict(
        _CASE,
        act_density=float(layer.act_density),
        act_outlier_ratio=float(layer.act_outlier_ratio),
        weight_outlier_ratio=float(layer.weight_outlier_ratio),
    )
    return acts, weights, stats


def fault_case(network: str, ratio: float, seed: int):
    """The sweep's shared operands: (acts, weights, stats, required_bits).

    A pure function of its arguments, so every cell (and the final
    assembly) recomputes identical operands instead of shipping arrays
    between processes.
    """
    acts, weights, stats = _synthetic_case(network, ratio, seed)
    act_max = int(acts.max(initial=1))
    weight_max = int(np.abs(weights).max(initial=1))
    reduction = weights.shape[1] * weights.shape[2] * weights.shape[3]
    required = required_accumulator_bits(reduction, act_max, weight_max)
    return acts, weights, stats, required


def fault_rate_cell(
    network: str,
    rate: float,
    policy: str = "degrade",
    model: str = "bitflip",
    ratio: float = 0.03,
    seed: int = 0,
    cache=None,
) -> Dict[str, float]:
    """One rate-sweep row — an independent, checkpointable cell.

    Memoized through the simcache: the key covers the full fault plan
    (rate, model, seed), the recovery policy, the synthetic case
    geometry and the network statistics it mirrors, so changing any of
    them recomputes while a repeated sweep reuses the stored row.
    """
    from .simcache import get_active

    cache = cache if cache is not None else get_active()
    components = {
        "cell": "fault_rate",
        "network": network,
        "ratio": float(ratio),
        "case": dict(_CASE),
        "fault_plan": {"rate": float(rate), "model": model, "seed": int(seed)},
        "policy": policy,
    }

    def compute() -> Dict[str, float]:
        acts, weights, _, _ = fault_case(network, ratio, seed)
        run = faulty_olaccel_conv2d(
            acts,
            weights,
            pad=1,
            plan=FaultPlan(rate=float(rate), seed=seed, model=model),
            policy=policy,
        )
        return {
            "rate": float(rate),
            "injected": run.injected,
            "detected": run.detected,
            "undetected": run.undetected,
            "masked": run.masked,
            "skipped": run.skipped,
            "mismatch_fraction": run.mismatch_fraction,
            "max_abs_error": run.max_abs_error,
            "bit_exact": run.bit_exact,
        }

    return cache.memoize(components, compute)


def fault_width_cell(
    network: str,
    width: int,
    ratio: float = 0.03,
    seed: int = 0,
    cache=None,
) -> Dict[str, float]:
    """One accumulator-width row — an independent, checkpointable cell.

    Memoized like :func:`fault_rate_cell`; the accumulator width and
    mode take the fault plan's place in the key.
    """
    from .simcache import get_active

    cache = cache if cache is not None else get_active()
    components = {
        "cell": "fault_width",
        "network": network,
        "ratio": float(ratio),
        "case": dict(_CASE),
        "accumulator": {"width_bits": int(width), "mode": "saturate"},
        "seed": int(seed),
    }

    def compute() -> Dict[str, float]:
        acts, weights, _, _ = fault_case(network, ratio, seed)
        run = faulty_olaccel_conv2d(
            acts,
            weights,
            pad=1,
            acc=AccumulatorModel(width_bits=int(width), mode="saturate"),
            obs=Registry(),
        )
        return {
            "width_bits": int(width),
            "mode": "saturate",
            "overflows": run.acc_overflows,
            "mismatch_fraction": run.mismatch_fraction,
            "max_abs_error": run.max_abs_error,
            "bit_exact": run.bit_exact,
        }

    return cache.memoize(components, compute)


def check_sweep(
    network: str, rates: Sequence[float], widths: Sequence[int], policy: str, model: str, ratio: float
) -> None:
    """Refuse, before any cell runs, a sweep that one of its cells'
    owners would refuse; the :class:`ConfigError` names the parameter."""
    check_network(network)
    check_ratio(ratio)
    with config_field("rates"):
        if not rates:
            raise ConfigError("rates must list at least one fault rate")
        for rate in rates:
            FaultPlan(rate=rate)
    with config_field("widths"):
        if not widths:
            raise ConfigError("widths must list at least one accumulator width")
        for width in widths:
            AccumulatorModel(width_bits=width)
    check_policy(policy)
    with config_field("model"):
        FaultPlan(model=model)


def fault_sweep(
    network: str,
    rates: Sequence[float] = DEFAULT_RATES,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    policy: str = "degrade",
    model: str = "bitflip",
    ratio: float = 0.03,
    seed: Optional[int] = None,
) -> FaultSweepResult:
    """Sweep fault rates and accumulator widths on one network's statistics."""
    check_sweep(network, rates, widths, policy, model, ratio)
    seed = 0 if seed is None else seed
    _, _, stats, required = fault_case(network, ratio, seed)

    rate_rows = [
        fault_rate_cell(network, rate, policy=policy, model=model, ratio=ratio, seed=seed)
        for rate in rates
    ]
    width_rows = [
        fault_width_cell(network, width, ratio=ratio, seed=seed) for width in widths
    ]

    return FaultSweepResult(
        network=network,
        policy=policy,
        model=model,
        seed=seed,
        case=stats,
        required_bits=required,
        rate_rows=rate_rows,
        width_rows=width_rows,
    )
