"""Normal PE group cycle model (paper Figs. 6-8, 17-19).

A PE group consumes one A(1x1x16) activation chunk per *pass* (one pass per
kernel position x input-channel chunk x output-channel group x output
pixel). Within a pass:

- each **nonzero** normal activation costs one broadcast cycle: the 16
  normal MACs multiply it with their lane weights while the 17th (outlier)
  MAC handles a single outlier weight's MSB nibble for free (Fig. 7);
- if the paired weight chunk holds **two or more** outlier weights
  (``ol_ptr`` set), the operation takes a second cycle to stream the MSB
  spill chunk through the normal MACs (Fig. 8);
- zero activations are skipped in aligned quads: a quad of four zeros
  costs one *skip* cycle and no MAC work (the ~20% overhead the paper
  reports around Fig. 18);
- dense high-precision passes (the first layer's raw input) serialize a
  wide operand over the 4-bit datapath: ``ceil(act_bits/4) x
  ceil(weight_bits/4)`` cycles per activation (Sec. V: 8x for 16-bit
  activations x 8-bit weights, 4x in the 8-bit comparison).

Two interfaces are provided: exact per-chunk cycle counting (used by the
bit-exact functional simulator and the Fig. 19 histograms) and a vectorized
stochastic model for full-size layers (used by Figs. 11-15, 18). The array
functions import numpy themselves, so the analytic models never load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from ..arch.chunks import ActivationChunk, WeightChunk

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "chunk_pass_cycles",
    "pass_op_counts",
    "batch_pass_cycles",
    "PassCosts",
    "expected_pass_costs",
    "sample_pass_cycles",
    "multi_outlier_probability",
    "single_or_more_outlier_probability",
]


def chunk_pass_cycles(activations: ActivationChunk, weight_chunks) -> int:
    """Exact cycles for one pass of an activation chunk against its weights.

    ``weight_chunks`` maps lane/channel index -> :class:`WeightChunk` (one
    per input channel in the chunk). Nonzero activations pay 1 cycle (2 if
    their weight chunk spills); all-zero quads pay 1 skip cycle each.
    """
    cycles = activations.zero_quads
    for channel, value in enumerate(activations.values):
        if value == 0:
            continue
        chunk = weight_chunks[channel]
        cycles += chunk.cycles if isinstance(chunk, WeightChunk) else int(chunk)
    return cycles


def pass_op_counts(act_levels: np.ndarray, spill_flags: np.ndarray):
    """Per-pass micro-op counts for a whole (n, 16) pass batch at once.

    Returns ``(bcast, stall, skip)`` int64 arrays of length n: nonzero
    lanes each cost one broadcast cycle, spilled nonzero lanes one extra
    stall cycle (Fig. 8), and all-zero aligned quads one skip cycle each
    (Fig. 18). ``bcast + stall + skip`` is the exact pass length the
    scalar micro-op schedule would execute — the batched form of
    :func:`chunk_pass_cycles`, and the one micro-op rule that
    :meth:`~repro.olaccel.event_sim.ClusterSim.run`,
    :func:`batch_pass_cycles` and :func:`sample_pass_cycles` count
    through. ``act_levels`` may also be a boolean nonzero mask.
    """
    import numpy as np

    act_levels = np.asarray(act_levels)
    spill_flags = np.asarray(spill_flags, dtype=bool)
    n = act_levels.shape[0]
    lanes = act_levels.shape[1] if act_levels.ndim == 2 else 0
    nonzero = act_levels != 0
    bcast = nonzero.sum(axis=1)
    stall = (spill_flags & nonzero).sum(axis=1)
    skip = (~nonzero.reshape(n, lanes // 4, 4).any(axis=2)).sum(axis=1)
    return bcast.astype(np.int64), stall.astype(np.int64), skip.astype(np.int64)


def batch_pass_cycles(act_levels: np.ndarray, spill_flags: np.ndarray = None) -> np.ndarray:
    """Exact cycles for every pass of an (n, 16) activation level batch.

    The vector twin of :func:`chunk_pass_cycles`: element i is the cycle
    count of pass i (broadcasts + spill stalls + zero-quad skips). It is
    held bit-identical to the pass-by-pass walk of
    :func:`repro.reference.batch_pass_cycles_scalar`
    (tests/test_vectorized_equiv.py).
    """
    import numpy as np

    act_levels = np.asarray(act_levels, dtype=np.int64)
    if spill_flags is None:
        spill_flags = np.zeros(act_levels.shape, dtype=bool)
    spill_flags = np.asarray(spill_flags, dtype=bool)
    if act_levels.shape != spill_flags.shape:
        raise ValueError("spill_flags must match act_levels shape")
    bcast, stall, skip = pass_op_counts(act_levels, spill_flags)
    return bcast + stall + skip


def multi_outlier_probability(ratio: float, lanes: int = 16) -> float:
    """P(>= 2 outlier weights among ``lanes`` weights) — paper Fig. 17.

    Assumes independent Bernoulli outliers at ``ratio``, the same model the
    paper uses to justify 16-wide PE groups.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    p_zero = (1.0 - ratio) ** lanes
    p_one = lanes * ratio * (1.0 - ratio) ** (lanes - 1)
    p_multi = 1.0 - p_zero - p_one
    return p_multi if p_multi > 0.0 else 0.0


def single_or_more_outlier_probability(ratio: float, lanes: int = 16) -> float:
    """P(>= 1 outlier among ``lanes`` weights) — the naive-SIMD stall rate."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    return 1.0 - (1.0 - ratio) ** lanes


class PassCosts(NamedTuple):
    """Expected per-pass cycle decomposition for a layer's statistics."""

    run_cycles: float  # broadcast cycles incl. multi-outlier second cycles
    skip_cycles: float  # zero-quad skip overhead
    broadcasts: float  # MAC-issue slots (for energy accounting)

    @property
    def total(self) -> float:
        return self.run_cycles + self.skip_cycles


def expected_pass_costs(
    act_density: float,
    weight_multi_outlier_fraction: float,
    lanes: int = 16,
    dense_factor: int = 1,
) -> PassCosts:
    """Expected cycles for one activation-chunk pass.

    ``act_density`` is the probability a normal-stream activation is
    nonzero (outlier activations are removed from the dense stream and
    handled by the outlier PE group). ``dense_factor`` > 1 models
    high-precision dense passes (first layer), which disable zero skipping.
    """
    if not 0.0 <= act_density <= 1.0:
        raise ValueError(f"act_density must be in [0, 1], got {act_density}")
    if dense_factor < 1:
        raise ValueError(f"dense_factor must be >= 1, got {dense_factor}")

    if dense_factor > 1 or act_density >= 1.0:
        # Dense pass: every lane slot is issued, no skip logic. Spilled
        # weight chunks still cost their extra MSB cycle.
        extra = lanes * weight_multi_outlier_fraction if dense_factor == 1 else 0.0
        return PassCosts(
            run_cycles=lanes * dense_factor + extra,
            skip_cycles=0.0,
            broadcasts=float(lanes),
        )

    nonzero = lanes * act_density
    extra = nonzero * weight_multi_outlier_fraction
    zero_quads = (lanes / 4.0) * (1.0 - act_density) ** 4
    return PassCosts(run_cycles=nonzero + extra, skip_cycles=zero_quads, broadcasts=nonzero)


def sample_pass_cycles(
    rng: np.random.Generator,
    n_passes: int,
    act_density: float,
    weight_multi_outlier_fraction: float,
    lanes: int = 16,
) -> np.ndarray:
    """Monte-Carlo per-pass cycle counts (the Fig. 19 histograms).

    Samples nonzero lane patterns i.i.d. at ``act_density`` and weight
    chunks' spill status at ``weight_multi_outlier_fraction``.
    """
    import numpy as np

    if n_passes <= 0:
        return np.zeros(0, dtype=np.int64)
    mask = rng.random((n_passes, lanes)) < act_density
    spill = rng.random((n_passes, lanes)) < weight_multi_outlier_fraction
    bcast, stall, skip = pass_op_counts(mask, spill)
    return bcast + stall + skip


def dense_pass_factor(act_bits: int, weight_bits: int, base_bits: int = 4) -> int:
    """Serialization factor for a dense high-precision pass (Sec. V)."""
    return math.ceil(act_bits / base_bits) * math.ceil(weight_bits / base_bits)
