"""Static activation-threshold calibration (Sec. II).

Computing activation histograms at runtime would be expensive, so the paper
runs ~100 sample inputs through the network offline, records each layer's
input-activation distribution, and fixes a per-layer magnitude threshold at
the (1 - outlier_ratio) quantile of the *nonzero* activations. The capture
is made once (:func:`capture_activations`); each outlier ratio is then just a
quantile over it (:meth:`ActivationCapture.calibrate`). At runtime an
activation is an outlier iff it exceeds the stored threshold — a single
compare. Fig. 16 then checks that the *effective* runtime outlier ratio on
held-out inputs clusters around the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..nn.model import Model
from .outlier import magnitude_threshold

__all__ = ["ActivationCapture", "CalibrationResult", "LayerCalibration", "calibrate_activation_thresholds",
           "capture_activations", "count_outliers", "effective_outlier_ratios"]


@dataclass(frozen=True)
class LayerCalibration:
    """Calibrated statistics for one compute layer's input activations."""

    layer_index: int
    layer_name: str
    threshold: float
    signed: bool  # True when the layer sees raw (not post-ReLU) input
    nonzero_density: float


@dataclass
class CalibrationResult:
    """Per-layer thresholds plus the target ratio they were calibrated for."""

    ratio: float
    layers: List[LayerCalibration] = field(default_factory=list)

    def threshold(self, layer_index: int) -> float:
        return self.layers[layer_index].threshold

    def by_name(self) -> Dict[str, LayerCalibration]:
        return {cal.layer_name: cal for cal in self.layers}


@dataclass
class ActivationCapture:
    """Every compute layer's input activations, pooled over the sample inputs.

    Only the quantile depends on the outlier ratio, so one capture serves a
    whole ratio sweep: :meth:`calibrate` gives the same result as a fresh
    :func:`calibrate_activation_thresholds` call on the same samples.
    """

    layer_names: List[str]
    activations: List[np.ndarray]

    def calibrate(self, ratio: float) -> CalibrationResult:
        """Per-layer thresholds at the (1 - ``ratio``) nonzero-magnitude quantile."""
        result = CalibrationResult(ratio=ratio)
        for index, (name, acts) in enumerate(zip(self.layer_names, self.activations)):
            result.layers.append(
                LayerCalibration(
                    layer_index=index,
                    layer_name=name,
                    threshold=magnitude_threshold(acts, ratio, over_nonzero=True),
                    signed=bool(np.any(acts < 0)),
                    nonzero_density=float(np.count_nonzero(acts) / acts.size) if acts.size else 0.0,
                )
            )
        return result


def capture_activations(model: Model, sample_inputs: np.ndarray, batch_size: int = 32) -> ActivationCapture:
    """Run ``sample_inputs`` in batches and pool each compute layer's input."""
    compute = model.compute_layers()
    pooled: List[List[np.ndarray]] = [[] for _ in compute]
    for start in range(0, sample_inputs.shape[0], batch_size):
        for index, act in model.record_activations(sample_inputs[start : start + batch_size]).items():
            pooled[index].append(act.ravel())
    return ActivationCapture(
        layer_names=[getattr(layer, "name", f"layer{index}") for index, layer in enumerate(compute)],
        activations=[np.concatenate(chunks) if chunks else np.zeros(0) for chunks in pooled],
    )


def calibrate_activation_thresholds(
    model: Model,
    sample_inputs: np.ndarray,
    ratio: float = 0.03,
    batch_size: int = 32,
) -> CalibrationResult:
    """Derive per-layer activation thresholds from sample inputs.

    ``sample_inputs`` plays the role of the paper's 100 randomly sampled
    images. Quantiles are computed over the activations pooled across all
    sample batches. A ratio sweep should call :func:`capture_activations`
    once and :meth:`ActivationCapture.calibrate` per ratio instead.
    """
    return capture_activations(model, sample_inputs, batch_size).calibrate(ratio)


def count_outliers(act: np.ndarray, threshold: float) -> Tuple[int, int]:
    """``(outliers, nonzero)`` in one activation tensor: ``|act| > threshold``
    is an outlier, the runtime compare of Sec. II."""
    return int((np.abs(act) > threshold).sum()), int(np.count_nonzero(act))


def effective_outlier_ratios(
    model: Model,
    calibration: CalibrationResult,
    inputs: np.ndarray,
    batch_size: int = 32,
) -> Dict[str, float]:
    """Measure the runtime outlier ratio per layer on held-out inputs.

    Returns, per layer, outliers / nonzero activations — the quantity
    Fig. 16 histograms (it should cluster near the calibration target).
    """
    counts = np.zeros((len(calibration.layers), 2))  # (outliers, nonzero) per layer
    for start in range(0, inputs.shape[0], batch_size):
        for index, act in model.record_activations(inputs[start : start + batch_size]).items():
            counts[index] += count_outliers(act, calibration.layers[index].threshold)
    return {
        cal.layer_name: float(counts[i, 0] / counts[i, 1]) if counts[i, 1] else 0.0
        for i, cal in enumerate(calibration.layers)
    }
