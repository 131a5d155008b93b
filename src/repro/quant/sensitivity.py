"""Per-layer quantization sensitivity analysis.

The paper asserts (Sec. II) that "a larger bitwidth is needed for the
weights of the first layer(s), as it is more sensitive to such
optimizations as quantization than the other layers" — and builds the
8-bit first-layer path on that claim. This module measures the claim
directly on a trained model, two ways:

- :func:`layer_sensitivity` — quantize exactly one layer at a time (all
  others stay full precision) and record the accuracy drop;
- :func:`leave_one_out` — quantize the whole network *except* one layer
  and record the accuracy recovered by sparing it.

Both return per-layer scores the experiments can rank; the bench asserts
the paper's ordering (the first layer is among the most sensitive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..nn.model import Model, score
from .calibrate import CalibrationResult
from .qmodel import QuantConfig, QuantizedModel

__all__ = ["LayerSensitivity", "SensitivityReport", "layer_sensitivity", "leave_one_out"]


@dataclass(frozen=True)
class LayerSensitivity:
    """Accuracy impact of quantizing (or sparing) one layer."""

    layer_index: int
    layer_name: str
    accuracy: float
    delta_vs_reference: float  # negative = this configuration is worse


@dataclass
class SensitivityReport:
    """Ranked per-layer sensitivities."""

    mode: str  # "only-this-layer" or "all-but-this-layer"
    reference_accuracy: float
    rows: List[LayerSensitivity] = field(default_factory=list)

    def ranked(self) -> List[LayerSensitivity]:
        """Most damaging (only-mode) / most protective (loo-mode) first."""
        return sorted(self.rows, key=lambda r: r.delta_vs_reference)

    def most_sensitive(self) -> LayerSensitivity:
        return self.ranked()[0]

    def format(self) -> str:
        lines = [f"layer sensitivity ({self.mode}); reference accuracy {self.reference_accuracy:.3f}"]
        for row in self.ranked():
            lines.append(f"  {row.layer_name:12s} acc={row.accuracy:.3f} delta={row.delta_vs_reference:+.3f}")
        return "\n".join(lines)


class _SelectiveQuantizedModel(QuantizedModel):
    """Fake-quant executor that only quantizes a chosen subset of layers."""

    def __init__(self, model, calibration, config, active: Callable[[int], bool]):
        self._active = active
        super().__init__(model, calibration, config)

    def _prepare_weights(self) -> None:
        super()._prepare_weights()
        for index, layer in enumerate(self._compute):
            if not self._active(index):
                # Keep this layer full precision.
                self._quantized_weights[index] = layer.weight.value

    def _quantize_input(self, index: int, x: np.ndarray) -> np.ndarray:
        if not self._active(index):
            return x
        return super()._quantize_input(index, x)


def _evaluate(model: Model, calibration: CalibrationResult, config: QuantConfig,
              active: Callable[[int], bool], x: np.ndarray, y: np.ndarray) -> float:
    return score(_SelectiveQuantizedModel(model, calibration, config, active), x, y)[0]


def layer_sensitivity(
    model: Model,
    calibration: CalibrationResult,
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[QuantConfig] = None,
) -> SensitivityReport:
    """Quantize one layer at a time; reference = full-precision accuracy."""
    config = config or QuantConfig()
    reference = score(model, x, y)[0]
    report = SensitivityReport(mode="only-this-layer", reference_accuracy=reference)
    for index, layer in enumerate(model.compute_layers()):
        acc = _evaluate(model, calibration, config, lambda i, k=index: i == k, x, y)
        report.rows.append(
            LayerSensitivity(
                layer_index=index,
                layer_name=getattr(layer, "name", f"layer{index}"),
                accuracy=acc,
                delta_vs_reference=acc - reference,
            )
        )
    return report


def leave_one_out(
    model: Model,
    calibration: CalibrationResult,
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[QuantConfig] = None,
) -> SensitivityReport:
    """Quantize everything except one layer; reference = fully quantized."""
    config = config or QuantConfig()
    reference = _evaluate(model, calibration, config, lambda i: True, x, y)
    report = SensitivityReport(mode="all-but-this-layer", reference_accuracy=reference)
    for index, layer in enumerate(model.compute_layers()):
        acc = _evaluate(model, calibration, config, lambda i, k=index: i != k, x, y)
        report.rows.append(
            LayerSensitivity(
                layer_index=index,
                layer_name=getattr(layer, "name", f"layer{index}"),
                accuracy=acc,
                # positive delta = sparing this layer recovers accuracy,
                # i.e. the layer is sensitive; rank most sensitive first
                # by negating.
                delta_vs_reference=-(acc - reference),
            )
        )
    return report
