"""Quantization error metrics and distribution summaries.

Used by the Fig. 1 reproduction (weight distributions under full precision,
linear, and outlier-aware quantization) and by tests asserting that OAQ
strictly improves on full-range linear quantization for heavy-tailed data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["mse", "sqnr_db", "max_abs_error", "level_occupancy", "DistributionSummary", "summarize"]


def mse(original: np.ndarray, quantized: np.ndarray) -> float:
    """Mean squared quantization error."""
    diff = np.asarray(original, dtype=np.float64) - np.asarray(quantized, dtype=np.float64)
    return float(np.mean(diff**2))


def sqnr_db(original: np.ndarray, quantized: np.ndarray) -> float:
    """Signal-to-quantization-noise ratio in dB (inf for exact match)."""
    signal = float(np.mean(np.asarray(original, dtype=np.float64) ** 2))
    noise = mse(original, quantized)
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal / noise)


def max_abs_error(original: np.ndarray, quantized: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(original) - np.asarray(quantized)))) if np.asarray(original).size else 0.0


def level_occupancy(levels: np.ndarray, max_level: int) -> np.ndarray:
    """Histogram of integer levels over [-max_level, max_level].

    Shows the failure mode of Fig. 1b: full-range linear quantization leaves
    most levels empty because the range is dictated by a few outliers.
    """
    clipped = np.clip(np.asarray(levels).ravel(), -max_level, max_level)
    return np.bincount((clipped + max_level).astype(np.int64), minlength=2 * max_level + 1)


@dataclass(frozen=True)
class DistributionSummary:
    """Compact description of a value distribution (for Fig. 1 style plots)."""

    count: int
    mean: float
    std: float
    max_abs: float
    p99_abs: float
    kurtosis: float

    @property
    def tail_spread(self) -> float:
        """max|x| / p99|x| — how far the outlier tail extends past the bulk."""
        return self.max_abs / self.p99_abs if self.p99_abs > 0 else float("inf")


def summarize(x: np.ndarray) -> DistributionSummary:
    flat = np.asarray(x, dtype=np.float64).ravel()
    if flat.size == 0:
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    std = float(flat.std())
    centered = flat - flat.mean()
    kurt = float(np.mean(centered**4) / (std**4)) if std > 0 else 0.0
    return DistributionSummary(
        count=flat.size,
        mean=float(flat.mean()),
        std=std,
        max_abs=float(np.abs(flat).max()),
        p99_abs=float(np.quantile(np.abs(flat), 0.99)),
        kurtosis=kurt,
    )
