"""Outlier-aware quantization (OAQ), the paper's Sec. II.

OAQ splits a value distribution at a magnitude threshold ``T`` placed so
that only a small *outlier ratio* of the data lies above it. Values below
``T`` (the vast majority) are quantized on a fine low-precision grid whose
step is ``T / max_level``; values above ``T`` keep high precision on the
*same step size*, just with more integer levels. Because the two regions
share one step, OLAccel can process an outlier weight as an LSB nibble (on
the normal MAC) plus an MSB nibble (on the outlier MAC) with exact integer
arithmetic — see Figs. 7–8 and :mod:`repro.olaccel.functional`.

Grids follow the hardware (Sec. III-A):

- weights: 4-bit sign-magnitude normal grid [-7, 7]; 8-bit outliers
  [-127, 127];
- activations: 4-bit unsigned normal grid [0, 15] (post-ReLU); 16-bit
  outliers [0, 65535] (or 8-bit in the 8-bit comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, QuantRangeError
from .linear import LinearQuantizer, signed_levels, unsigned_levels

__all__ = [
    "OutlierQuantConfig",
    "QuantizedTensor",
    "magnitude_threshold",
    "magnitude_thresholds",
    "quantize_weights",
    "quantize_activations",
]


@dataclass(frozen=True)
class OutlierQuantConfig:
    """Bitwidths and outlier ratio for one tensor.

    ``ratio`` is the target fraction of data in the high-precision region:
    for weights, a fraction of all weights; for activations, a fraction of
    *nonzero* activations (Sec. II — ReLU zeros are never outliers).
    ``ratio = 0`` degenerates to conventional full-range linear
    quantization without truncation, exactly the paper's 0%-outlier
    baseline in Figs. 2 and 14.
    """

    ratio: float = 0.03
    normal_bits: int = 4
    outlier_bits: int = 8
    signed: bool = True

    def __post_init__(self):
        if not 0.0 <= self.ratio < 1.0:
            raise ConfigError(f"outlier ratio must be in [0, 1), got {self.ratio}")
        if self.normal_bits < 1 or self.outlier_bits < 1:
            raise ConfigError(
                f"bit widths must be positive, got normal_bits={self.normal_bits}, "
                f"outlier_bits={self.outlier_bits}"
            )
        if self.outlier_bits < self.normal_bits:
            raise ConfigError("outlier grid cannot be narrower than the normal grid")


@dataclass
class QuantizedTensor:
    """An OAQ-quantized tensor in the integer domain.

    Attributes:
        levels: integer levels on the shared step (int64, full tensor).
        delta: real step size.
        threshold: magnitude threshold ``T`` that defined the grid.
        config: the quantizer configuration used.
    """

    levels: np.ndarray
    delta: float
    threshold: float
    config: OutlierQuantConfig

    @property
    def normal_max(self) -> int:
        bits = self.config.normal_bits
        return signed_levels(bits) if self.config.signed else unsigned_levels(bits)

    @property
    def outlier_mask(self) -> np.ndarray:
        """True where the level does not fit the normal low-precision grid."""
        return np.abs(self.levels) > self.normal_max

    @property
    def outlier_count(self) -> int:
        return int(self.outlier_mask.sum())

    @property
    def outlier_ratio(self) -> float:
        """Achieved outlier fraction (of all elements)."""
        return self.outlier_count / self.levels.size if self.levels.size else 0.0

    def effective_outlier_ratio(self) -> float:
        """Outliers as a fraction of *nonzero* elements (activation metric)."""
        nonzero = int(np.count_nonzero(self.levels))
        return self.outlier_count / nonzero if nonzero else 0.0

    def dequantize(self) -> np.ndarray:
        return self.levels.astype(np.float64) * self.delta


def magnitude_threshold(x: np.ndarray, ratio: float, over_nonzero: bool = False) -> float:
    """Magnitude quantile placing ``ratio`` of the data above the threshold.

    With ``over_nonzero`` the quantile is taken over nonzero magnitudes only
    (the activation convention). Returns the maximum magnitude when
    ``ratio`` is 0, i.e. full-range linear quantization.
    """
    return magnitude_thresholds(x, (ratio,), over_nonzero)[0]


def magnitude_thresholds(
    x: np.ndarray, ratios: Sequence[float], over_nonzero: bool = False
) -> List[float]:
    """:func:`magnitude_threshold` of ``x`` at each of ``ratios``, in order.

    The magnitudes are taken once and one ``np.quantile`` call covers
    every positive ratio. numpy computes each quantile element by
    element, so each threshold equals the one-ratio call's.
    """
    mags = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    if over_nonzero:
        mags = mags[mags > 0]
    if mags.size == 0:
        return [0.0] * len(ratios)
    quantiles = [1.0 - ratio for ratio in ratios if not ratio <= 0.0]
    found = iter(np.quantile(mags, quantiles).tolist() if quantiles else ())
    return [float(mags.max()) if ratio <= 0.0 else next(found) for ratio in ratios]


def _grid(threshold: float, config: OutlierQuantConfig) -> LinearQuantizer:
    """The OAQ grid: step ``threshold / normal_max``, ``outlier_bits`` of levels."""
    normal_max = signed_levels(config.normal_bits) if config.signed else unsigned_levels(config.normal_bits)
    # All-zero (or empty) data: any positive step represents it exactly.
    delta = threshold / normal_max if threshold > 0 else 1.0
    return LinearQuantizer(delta=delta, bits=config.outlier_bits, signed=config.signed)


def _quantize(x: np.ndarray, threshold: float, config: OutlierQuantConfig) -> QuantizedTensor:
    quantizer = _grid(threshold, config)
    return QuantizedTensor(levels=quantizer.quantize(x), delta=quantizer.delta, threshold=threshold, config=config)


def quantize_weights(
    weights: np.ndarray,
    ratio: float = 0.03,
    normal_bits: int = 4,
    outlier_bits: int = 8,
    threshold: Optional[float] = None,
) -> QuantizedTensor:
    """OAQ a weight tensor (signed, threshold over all weights).

    ``threshold`` defaults to :func:`magnitude_threshold` of the weights
    at ``ratio``; a caller that already holds it passes it.
    """
    config = OutlierQuantConfig(ratio=ratio, normal_bits=normal_bits, outlier_bits=outlier_bits, signed=True)
    if threshold is None:
        threshold = magnitude_threshold(weights, ratio, over_nonzero=False)
    return _quantize(weights, threshold, config)


def quantize_activations(
    activations: np.ndarray,
    threshold: float,
    normal_bits: int = 4,
    outlier_bits: int = 16,
    ratio: float = 0.03,
) -> QuantizedTensor:
    """OAQ a (post-ReLU, non-negative) activation tensor.

    Unlike weights, the threshold is *given*: it was calibrated offline from
    sample inputs (Sec. II, :mod:`repro.quant.calibrate`) so the runtime
    only performs a compare. ``ratio`` is recorded for bookkeeping.
    """
    if np.any(np.asarray(activations) < 0):
        raise QuantRangeError("activation quantization expects non-negative (post-ReLU) data")
    config = OutlierQuantConfig(ratio=ratio, normal_bits=normal_bits, outlier_bits=outlier_bits, signed=False)
    return _quantize(activations, threshold, config)
