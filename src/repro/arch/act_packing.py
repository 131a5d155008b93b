"""Packing activation tensors into the OLAccel on-chip layout.

The swarm/cluster activation buffers hold the dense 4-bit stream as
A(1x1x16) chunks (Fig. 5 bottom); activations above the calibrated
threshold are *removed* from that stream and queued as sparse
(value, coordinates) entries in the outlier FIFO (Fig. 9). This module
performs the split on integer activation levels and reassembles them, so
tests can prove the layout lossless end-to-end:

    levels  ->  (dense chunk array, outlier FIFO)  ->  levels

It also reports the exact storage footprint both halves occupy, which the
energy model's activation terms are anchored to.

The outlier FIFO has one in-memory form, a flat ``(n, 4)`` coordinate
table built straight from ``argwhere``; the fault striker, the swarm
validator and the unpack scatter all work on it. The per-element scalar
packer and the per-entry unpack it is held identical to live in
:mod:`repro.reference` (tests/test_vectorized_equiv.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError, QuantRangeError
from .chunks import LANES, OutlierActivation

__all__ = ["PackedActivations", "pack_activations", "unpack_activations", "ACT_NORMAL_MAX"]

#: Largest level the dense 4-bit unsigned stream can hold.
ACT_NORMAL_MAX = 15

#: Outlier FIFO entry: 16-bit value + 8-bit w/h indices + 8-bit channel-chunk
#: index (Fig. 9's OLw.idx / OLh.idx / OLc.idx).
OUTLIER_ENTRY_BITS = 16 + 24


@dataclass(frozen=True, eq=False)
class PackedActivations:
    """One layer's input activations in on-chip form.

    ``dense`` is a (chunks, 16) int array of 4-bit levels in channel-major
    chunk order: chunk ``(h, w, c_blk)`` covers channels
    ``[16 c_blk, 16 c_blk + 16)`` at pixel ``(h, w)``. ``outlier_table``
    is the outlier FIFO: an ``(n, 4)`` int64 array of (c, h, w, value)
    rows in FIFO order, C-order over (channel, row, col). ``outliers`` is
    a read-only :class:`OutlierActivation` view of it, built afresh on
    each access.
    """

    dense: np.ndarray
    shape: Tuple[int, int, int]
    outlier_table: np.ndarray

    @property
    def outliers(self) -> List[OutlierActivation]:
        return [
            OutlierActivation(value=value, w_idx=col, h_idx=row, c_idx=channel)
            for channel, row, col, value in self.outlier_table.tolist()
        ]

    @property
    def n_outliers(self) -> int:
        return int(self.outlier_table.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedActivations):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.dense, other.dense)
            and np.array_equal(self.outlier_table, other.outlier_table)
        )

    # -- footprint and density ----------------------------------------------

    @property
    def n_chunks(self) -> int:
        return self.dense.shape[0]

    @property
    def dense_bits(self) -> int:
        """Dense stream footprint: 4 bits per slot (zeros included)."""
        return self.dense.size * 4

    @property
    def outlier_bits(self) -> int:
        return self.n_outliers * OUTLIER_ENTRY_BITS

    @property
    def total_bits(self) -> int:
        return self.dense_bits + self.outlier_bits

    def nonzero_density(self) -> float:
        """Nonzero fraction of the dense stream (drives zero-skipping)."""
        return float(np.count_nonzero(self.dense) / self.dense.size) if self.dense.size else 0.0

    def zero_quad_fraction(self) -> float:
        """Fraction of aligned quads that are all zero (skip-cycle payers)."""
        if self.dense.size == 0:
            return 0.0
        quads = self.dense.reshape(-1, 4)
        return float((~quads.any(axis=1)).mean())


def _check_levels(levels: np.ndarray) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.int64)
    if levels.ndim != 3:
        raise ConfigError(f"expected (C, H, W) levels, got shape {levels.shape}")
    if levels.size and levels.min() < 0:
        raise QuantRangeError("activation levels must be non-negative")
    return levels


def pack_activations(levels: np.ndarray, normal_max: int = ACT_NORMAL_MAX) -> PackedActivations:
    """Split a (C, H, W) non-negative level tensor into dense + outliers.

    Channels are padded to a multiple of 16 with zeros. Values above
    ``normal_max`` go to the outlier FIFO and leave a zero in the dense
    stream (they are "stored only in the swarm buffer", Sec. III-A).

    One comparison, one ``argwhere`` and one gather build the dense chunk
    grid and the outlier table;
    :func:`repro.reference.pack_activations_scalar` is the per-element
    walk they are held identical to.
    """
    levels = _check_levels(levels)
    c, h, w = levels.shape
    n_blocks = -(-c // LANES)
    if n_blocks * LANES == c:
        padded = levels
    else:
        padded = np.zeros((n_blocks * LANES, h, w), dtype=np.int64)
        padded[:c] = levels
    is_outlier = padded > normal_max
    coords = np.argwhere(is_outlier)
    table = np.column_stack([coords, padded[is_outlier]]).astype(np.int64).reshape(-1, 4)
    dense = np.where(is_outlier, 0, padded)
    # chunk order: (h, w, channel block) — the traversal of Fig. 6.
    chunks = dense.reshape(n_blocks, LANES, h, w).transpose(2, 3, 0, 1).reshape(-1, LANES)
    return PackedActivations(dense=np.ascontiguousarray(chunks), shape=(c, h, w), outlier_table=table)


def unpack_activations(packed: PackedActivations) -> np.ndarray:
    """Reassemble the original (C, H, W) level tensor (dense + outliers).

    All outlier FIFO entries are scattered in one fancy-index assignment;
    duplicates are written last-entry-wins, as the per-entry loop of
    :func:`repro.reference.unpack_activations_scalar` writes them.
    """
    c, h, w = packed.shape
    n_blocks = -(-c // LANES)
    dense = packed.dense.reshape(h, w, n_blocks, LANES).transpose(2, 3, 0, 1).reshape(n_blocks * LANES, h, w)
    out = dense.copy()
    table = packed.outlier_table
    out[table[:, 0], table[:, 1], table[:, 2]] = table[:, 3]
    return out[:c]
