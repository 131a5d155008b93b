"""Bit-exact functional simulation of the OLAccel datapath.

This module executes a convolution exactly the way the hardware does —
integer levels, the normal/outlier weight split of Figs. 7-8, the dense
4-bit stream with outlier activations diverted to the outlier PE group
(Fig. 9) — and proves the decomposition exact:

    conv(acts, weights) ==
          conv(normal_acts, lsb(weights))        # normal MACs
        + 8 * conv(normal_acts, msb(weights))    # outlier MAC / spill pass
        + conv(outlier_acts, weights)            # outlier PE group

It also counts the exact PE-group cycles (nonzero broadcasts, two-cycle
spill chunks, zero-quad skips) for the same data, which grounds the
stochastic cycle model used on full-size networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..arch.chunks import LANES
from ..arch.packing import PackedWeights, normal_max_level, pack_weights
from ..errors import ConfigError, QuantRangeError
from ..nn.functional import conv_out_size, im2col
from ..obs import NULL_REGISTRY, Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> olaccel)
    from ..faults.accumulator import AccumulatorModel

__all__ = [
    "split_weight_levels",
    "split_activation_levels",
    "FunctionalResult",
    "olaccel_conv2d",
    "reference_conv2d_int",
]

#: 24-bit signed partial-sum accumulator limit (Sec. III-B).
ACC_LIMIT = 2**23 - 1


def split_weight_levels(levels: np.ndarray) -> tuple:
    """Split integer weight levels into (lsb, msb) parts.

    Normal weights (|level| <= 7) are entirely in the LSB part; outliers
    contribute their low three magnitude bits (with sign) to the LSB part
    and their high nibble to the MSB part, so ``lsb + 8 * msb == levels``.
    """
    levels = np.asarray(levels, dtype=np.int64)
    sign = np.sign(levels)
    magnitude = np.abs(levels)
    is_outlier = magnitude > normal_max_level
    lsb = np.where(is_outlier, sign * (magnitude & 0b111), levels)
    msb = np.where(is_outlier, sign * (magnitude >> 3), 0)
    return lsb, msb


def split_activation_levels(levels: np.ndarray, normal_max: int = 15) -> tuple:
    """Split activation levels into the dense normal stream and sparse outliers.

    Outlier activations are *removed* from the dense stream (stored only in
    the swarm buffer, Sec. III-A) and carried at full precision by the
    outlier path, so ``normal + outlier == levels``.
    """
    levels = np.asarray(levels, dtype=np.int64)
    if np.any(levels < 0):
        raise QuantRangeError("activation levels must be non-negative (post-ReLU)")
    is_outlier = levels > normal_max
    normal = np.where(is_outlier, 0, levels)
    outlier = np.where(is_outlier, levels, 0)
    return normal, outlier


@dataclass
class FunctionalResult:
    """Outcome of a bit-exact OLAccel convolution."""

    psum: np.ndarray  # (N, out_c, out_h, out_w) int64 partial sums
    normal_psum: np.ndarray
    outlier_psum: np.ndarray
    cycles: int  # exact normal-PE-group cycles (single group, serial)
    pass_cycles: np.ndarray  # per (pixel, out-group, in-chunk) pass costs
    outlier_broadcasts: int  # exact outlier-PE-group broadcast count
    #: values clipped/wrapped by the accumulator model (0 without one)
    acc_overflows: int = 0

    @property
    def saturated(self) -> bool:
        """True if any partial sum exceeded the 24-bit accumulator."""
        return bool(np.abs(self.psum).max(initial=0) > ACC_LIMIT)


def reference_conv2d_int(
    act_levels: np.ndarray,
    weight_levels: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    acc: Optional["AccumulatorModel"] = None,
    obs: Registry = NULL_REGISTRY,
) -> np.ndarray:
    """Plain integer convolution — the golden reference.

    ``acc`` optionally reduces the ideal partial sums through a
    finite-width accumulator (:mod:`repro.faults.accumulator`); without
    one the accumulator is infinite, the seed behaviour.
    """
    n, c, h, w = act_levels.shape
    out_c = weight_levels.shape[0]
    out_h = conv_out_size(h, weight_levels.shape[2], stride, pad)
    out_w = conv_out_size(w, weight_levels.shape[3], stride, pad)
    cols = im2col(act_levels.astype(np.int64), weight_levels.shape[2], weight_levels.shape[3], stride, pad)
    w_mat = weight_levels.reshape(out_c, -1).astype(np.int64)
    y = cols @ w_mat.T
    if acc is not None:
        y = acc.apply(y, obs=obs)
    return y.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)


def olaccel_conv2d(
    act_levels: np.ndarray,
    weight_levels: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    act_normal_max: int = 15,
    packed: PackedWeights = None,
    acc: Optional["AccumulatorModel"] = None,
    obs: Registry = NULL_REGISTRY,
) -> FunctionalResult:
    """Run a convolution through the OLAccel integer datapath.

    ``act_levels`` is (N, C, H, W) non-negative activation levels;
    ``weight_levels`` is (out_c, in_c, kh, kw) signed levels within the
    8-bit outlier grid. ``packed`` may supply a pre-packed weight table
    (otherwise the weights are packed here) — the two-cycle spill chunks it
    contains drive the exact cycle count. ``acc`` optionally models a
    finite-width accumulator on the combined partial sums: ``wrap`` mode
    is bit-exact to per-MAC wraparound (modular addition commutes),
    ``saturate`` models clamping on write-back, and overflow events are
    counted on ``obs`` under ``acc/overflow``.
    """
    act_levels = np.asarray(act_levels, dtype=np.int64)
    weight_levels = np.asarray(weight_levels, dtype=np.int64)
    n, c, h, w = act_levels.shape
    out_c, in_c, k_h, k_w = weight_levels.shape
    if c != in_c:
        raise ConfigError(f"activation channels {c} != weight input channels {in_c}")

    w_mat = weight_levels.reshape(out_c, -1)
    if packed is None:
        packed = pack_weights(w_mat)
    lsb, msb = split_weight_levels(w_mat)
    normal_acts, outlier_acts = split_activation_levels(act_levels, act_normal_max)

    out_h = conv_out_size(h, k_h, stride, pad)
    out_w = conv_out_size(w, k_w, stride, pad)

    cols_norm = im2col(normal_acts, k_h, k_w, stride, pad)
    cols_out = im2col(outlier_acts, k_h, k_w, stride, pad)

    normal_flat = cols_norm @ lsb.T + 8 * (cols_norm @ msb.T)
    outlier_flat = cols_out @ w_mat.T

    def to_nchw(flat: np.ndarray) -> np.ndarray:
        return flat.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)

    # im2col column order is (c, kh, kw); weight chunks are packed over the
    # same flattened reduction axis, LANES input positions per chunk.
    reduction = cols_norm.shape[1]
    n_in_chunks = -(-reduction // LANES)
    padded_red = n_in_chunks * LANES
    cols_padded = np.zeros((cols_norm.shape[0], padded_red), dtype=np.int64)
    cols_padded[:, :reduction] = cols_norm
    lane_nonzero = (cols_padded != 0).reshape(-1, n_in_chunks, LANES)

    # Per-(out-group, reduction index) spill flag from the packed table.
    multi = np.zeros((packed.n_groups, padded_red), dtype=bool)
    multi[:, :reduction] = packed.multi_outlier_mask.reshape(packed.n_groups, reduction)
    multi_lanes = multi.reshape(packed.n_groups, n_in_chunks, LANES)

    # pass cost = nonzero broadcasts (+1 per spill-chunk broadcast) + zero quads
    nonzero = lane_nonzero.sum(axis=2)  # (pixels, in_chunks)
    quads = (~lane_nonzero.reshape(-1, n_in_chunks, LANES // 4, 4).any(axis=3)).sum(axis=2)
    # int operands: einsum over bools would saturate each (pass, chunk) at 1
    # instead of counting every spilled-lane broadcast.
    extra = np.einsum(
        "pcl,gcl->pgc", lane_nonzero.astype(np.int64), multi_lanes.astype(np.int64)
    )
    pass_cycles = nonzero[:, None, :] + quads[:, None, :] + extra
    cycles = int(pass_cycles.sum())
    outlier_broadcasts = int((cols_out != 0).sum()) * packed.n_groups

    combined = normal_flat + outlier_flat
    acc_overflows = 0
    if acc is not None:
        acc_overflows = acc.overflows(combined)
        combined = acc.apply(combined, obs=obs)

    return FunctionalResult(
        psum=to_nchw(combined),
        normal_psum=to_nchw(normal_flat),
        outlier_psum=to_nchw(outlier_flat),
        cycles=cycles,
        pass_cycles=pass_cycles,
        outlier_broadcasts=outlier_broadcasts,
        acc_overflows=acc_overflows,
    )
