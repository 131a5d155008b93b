"""Quantized model execution (fake-quant inference).

Runs a trained float model exactly as OLAccel would see it numerically:
every compute layer's weights are replaced by their OAQ round-trip values,
and every compute layer's input activations are OAQ-quantized on entry
using the statically calibrated per-layer thresholds. Non-compute layers
(pooling, batch-norm with frozen statistics, residual adds) run in float,
matching the paper's accelerator which re-quantizes activations at each
convolution boundary.

The first layer is special (Sec. II): it consumes raw network input at
16/8 bits (signed linear grid over the calibrated range) and, for
ResNet-style networks, uses 8-bit weights.

Activations are fake-quantized in one pass over one fresh buffer per layer
entry (:meth:`~repro.quant.linear.LinearQuantizer.float_levels`, then an
in-place scale by the step), with each layer's OAQ grid built once from its
threshold. Integer levels are never materialized for activations, so
:meth:`QuantizedModel.measure_layer_stats` counts nonzeros and outliers on
the float levels before scaling; weights keep their
:class:`~repro.quant.outlier.QuantizedTensor` integer levels, which the
packers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn.layers import Conv2d, Linear
from ..nn.model import Model
from .calibrate import CalibrationResult
from .linear import LinearQuantizer, unsigned_levels
from .outlier import OutlierQuantConfig, QuantizedTensor, _grid, quantize_weights

__all__ = ["QuantConfig", "LayerQuantStats", "QuantizedModel"]


@dataclass(frozen=True)
class QuantConfig:
    """Network-level quantization settings.

    ``act_outlier_bits`` is 16 in the paper's 16-bit comparison and 8 in the
    8-bit comparison; ``first_layer_act_bits`` tracks the raw-input
    precision the same way. ``first_layer_weight_bits`` is 8 for
    ResNet-18/101 and 4 otherwise (Sec. II).
    """

    ratio: float = 0.03
    weight_bits: int = 4
    weight_outlier_bits: int = 8
    act_bits: int = 4
    act_outlier_bits: int = 16
    first_layer_act_bits: int = 16
    first_layer_weight_bits: int = 4


@dataclass
class LayerQuantStats:
    """Measured quantization statistics for one compute layer.

    These feed the accelerator simulators: weight outlier ratio drives the
    multi-outlier cycle penalty, activation densities drive zero-skipping,
    and the effective activation outlier ratio drives the outlier PE group
    load.
    """

    layer_index: int
    layer_name: str
    weight_outlier_ratio: float
    weight_density: float
    act_threshold: float
    act_density: float = 0.0
    act_outlier_ratio: float = 0.0
    is_first: bool = False


class QuantizedModel:
    """Fake-quant view over a trained float :class:`~repro.nn.model.Model`.

    The wrapped model is never mutated permanently: weights are swapped in
    and layer forwards wrapped only for the duration of a ``forward`` call.
    """

    def __init__(self, model: Model, calibration: CalibrationResult, config: Optional[QuantConfig] = None):
        self.model = model
        self.calibration = calibration
        self.config = config or QuantConfig()
        self._compute = model.compute_layers()
        if len(calibration.layers) != len(self._compute):
            raise ValueError(
                f"calibration covers {len(calibration.layers)} layers but the model has {len(self._compute)}"
            )
        self.weight_q: List[QuantizedTensor] = []
        self._quantized_weights: List[np.ndarray] = []
        self._act_stats_accum: Optional[List[dict]] = None
        # Each layer's OAQ input grid depends only on its threshold. None
        # marks the first layer and signed inputs, which get a linear grid
        # over each batch's own range instead.
        cfg = self.config
        oa_config = OutlierQuantConfig(
            ratio=cfg.ratio, normal_bits=cfg.act_bits, outlier_bits=cfg.act_outlier_bits, signed=False
        )
        self._act_grids: List[Optional[LinearQuantizer]] = [
            None if index == 0 or cal.signed else _grid(cal.threshold, oa_config)
            for index, cal in enumerate(calibration.layers)
        ]
        self._act_normal_max = unsigned_levels(cfg.act_bits)
        self._prepare_weights()

    # -- weight quantization ------------------------------------------------

    def _prepare_weights(self) -> None:
        cfg = self.config
        for index, layer in enumerate(self._compute):
            assert isinstance(layer, (Conv2d, Linear))
            if index == 0 and cfg.first_layer_weight_bits > cfg.weight_bits:
                # Dense high-precision first layer: plain linear grid.
                qt = quantize_weights(
                    layer.weight.value,
                    ratio=0.0,
                    normal_bits=cfg.first_layer_weight_bits,
                    outlier_bits=cfg.first_layer_weight_bits,
                )
            else:
                qt = quantize_weights(
                    layer.weight.value,
                    ratio=cfg.ratio,
                    normal_bits=cfg.weight_bits,
                    outlier_bits=cfg.weight_outlier_bits,
                )
            self.weight_q.append(qt)
            self._quantized_weights.append(qt.dequantize())

    # -- activation quantization ----------------------------------------------

    def _quantize_input(self, index: int, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        acc = self._act_stats_accum[index] if self._act_stats_accum is not None else None
        grid = self._act_grids[index]
        if grid is None:
            # Raw (or otherwise signed) input: linear grid over the full range.
            max_abs = float(max(x.max(), -x.min())) if x.size else 0.0
            bits = cfg.first_layer_act_bits if index == 0 else cfg.act_outlier_bits
            if acc is not None:
                acc["nonzero"] += int(np.count_nonzero(x))
                acc["total"] += x.size
            return LinearQuantizer.from_range(max_abs, bits=bits, signed=True).roundtrip(x)

        # One buffer: max(x, 0), divide, rint, clip, then scale in place.
        values = grid.float_levels(x)
        if acc is not None:
            acc["nonzero"] += int(np.count_nonzero(values))
            acc["total"] += values.size
            acc["outliers"] += int(np.count_nonzero(values > self._act_normal_max))
        values *= grid.delta
        return values

    # -- execution ------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantized inference over a batch."""
        originals: List[Callable] = []
        saved_weights: List[np.ndarray] = []

        def make_wrapper(index: int, layer, fwd: Callable) -> Callable:
            def wrapped(inp: np.ndarray, train: bool = False) -> np.ndarray:
                return fwd(self._quantize_input(index, inp), train=train)

            return wrapped

        for index, layer in enumerate(self._compute):
            saved_weights.append(layer.weight.value)
            layer.weight.value = self._quantized_weights[index]
            originals.append(layer.forward)
            layer.forward = make_wrapper(index, layer, layer.forward)  # type: ignore[method-assign]
        try:
            return self.model.forward(x, train=False)
        finally:
            for layer, fwd, weight in zip(self._compute, originals, saved_weights):
                layer.forward = fwd  # type: ignore[method-assign]
                layer.weight.value = weight

    __call__ = forward

    # -- statistics for the simulators -----------------------------------------

    def measure_layer_stats(self, sample_inputs: np.ndarray, batch_size: int = 64) -> List[LayerQuantStats]:
        """Run samples and collect per-layer quantization statistics."""
        self._act_stats_accum = [
            {"nonzero": 0, "total": 0, "outliers": 0} for _ in self._compute
        ]
        try:
            for start in range(0, sample_inputs.shape[0], batch_size):
                self.forward(sample_inputs[start : start + batch_size])
        finally:
            accum = self._act_stats_accum
            self._act_stats_accum = None

        stats: List[LayerQuantStats] = []
        for index, layer in enumerate(self._compute):
            qt = self.weight_q[index]
            acc = accum[index]
            total = acc["total"] or 1
            nonzero = acc["nonzero"]
            stats.append(
                LayerQuantStats(
                    layer_index=index,
                    layer_name=getattr(layer, "name", f"layer{index}"),
                    weight_outlier_ratio=qt.outlier_ratio,
                    weight_density=float(np.count_nonzero(qt.levels) / qt.levels.size),
                    act_threshold=self.calibration.layers[index].threshold,
                    act_density=nonzero / total,
                    act_outlier_ratio=(acc["outliers"] / nonzero) if nonzero else 0.0,
                    is_first=(index == 0),
                )
            )
        return stats
