"""End-to-end fault injection through the OLAccel datapath.

:func:`faulty_olaccel_conv2d` runs one convolution the way
:func:`repro.olaccel.functional.olaccel_conv2d` does, but routes every
operand through its on-chip encoding with a :class:`FaultPlan` striking
at the boundaries the hardware actually crosses:

1. **weights** — pack → :func:`encode_packed` to literal 80-bit words →
   strike (surface ``weight_chunks``) → :func:`transfer_words` across
   the DRAM/SRAM channel (surface ``memory``) → :func:`decode_packed`
   with ``strict=False`` → :func:`validate_packed` under the recovery
   policy → unpack to (possibly degraded) integer levels. The table
   stays in its flat-array form throughout; no chunk object is built;
2. **activations** — per-sample :func:`pack_activations` → strike the
   dense 4-bit stream (surface ``activations``) and the 16-bit swarm
   values (surface ``outliers``) → :func:`validate_swarm` → unpack;
3. run the normal/outlier datapath on the surviving levels, with an
   optional finite-width :class:`AccumulatorModel`, and compare against
   the clean golden reference.

The counting contract (docs/FAULTS.md) is closed here: after validation
the harness computes ``faults/undetected = injected - detected``, so the
three counters reconcile exactly on the registry carried by the result.

Detectability falls out of the encoding, not a simulation switch: a
4-bit dense-stream strike always lands back on the legal [0, 15] grid
(silent data corruption, *undetected*), while an ``OLptr`` strike that
dangles past the spill table is structurally impossible in a healthy
encoding and is *detected* — exactly the asymmetry real hardware has.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..arch.act_packing import pack_activations, unpack_activations
from ..arch.bitcodec import decode_packed, encode_packed
from ..arch.chunks import WEIGHT_CHUNK_BITS
from ..arch.memory import transfer_words
from ..arch.packing import PackedWeights, pack_weights
from ..obs import NULL_REGISTRY, Registry
from ..olaccel.functional import FunctionalResult, olaccel_conv2d, reference_conv2d_int
from .accumulator import AccumulatorModel
from .plan import FaultPlan
from .validate import validate_packed, validate_swarm

__all__ = ["FaultInjectionResult", "corrupt_packed_weights", "faulty_olaccel_conv2d"]

#: Dense activation stream nibble width (Fig. 5 / Sec. III-A).
_ACT_STREAM_BITS = 4
#: Swarm-buffer outlier value width (Fig. 9).
_SWARM_VALUE_BITS = 16


@dataclass
class FaultInjectionResult:
    """Outcome of one fault-injected convolution vs the clean reference."""

    result: FunctionalResult  #: the faulty datapath's FunctionalResult
    reference: np.ndarray  #: clean ideal golden psums (infinite accumulator)
    injected: int  #: value-changing strikes across all surfaces
    detected: int  #: violations caught by the validators
    masked: int  #: detected violations recovered under degrade/skip
    skipped: int  #: detected violations discarded under skip
    acc_overflows: int  #: psums clipped/wrapped by the accumulator model
    obs: Registry = field(repr=False, default=NULL_REGISTRY)

    @property
    def undetected(self) -> int:
        """Silent corruptions: ``injected - detected`` by construction."""
        return self.injected - self.detected

    @property
    def psum(self) -> np.ndarray:
        return self.result.psum

    @property
    def bit_exact(self) -> bool:
        """Did the faulty datapath still produce the clean psums?"""
        return bool(np.array_equal(self.result.psum, self.reference))

    @property
    def mismatch_fraction(self) -> float:
        """Fraction of output psums that differ from the reference."""
        total = self.reference.size
        if total == 0:
            return 0.0
        return float((self.result.psum != self.reference).sum() / total)

    @property
    def max_abs_error(self) -> int:
        if self.reference.size == 0:
            return 0
        return int(np.abs(self.result.psum - self.reference).max())


def corrupt_packed_weights(
    packed: PackedWeights,
    plan: FaultPlan,
    policy: str = "degrade",
    obs: Registry = NULL_REGISTRY,
) -> PackedWeights:
    """Round-trip a packed table through faulty encode/transfer/decode.

    The table is lowered to its literal 80-bit words, struck on the
    ``weight_chunks`` surface, carried across the memory channel
    (``memory`` surface), decoded leniently, and validated under
    ``policy``. With a disabled plan the same words decode back to an
    identical table — the bit-level round trip is exact.
    """
    base_words, spill_words = encode_packed(packed)
    base_words, _ = plan.corrupt_words(base_words, WEIGHT_CHUNK_BITS, surface="weight_chunks", obs=obs)
    spill_words, _ = plan.corrupt_words(spill_words, WEIGHT_CHUNK_BITS, surface="weight_chunks", obs=obs)
    base_words = transfer_words(base_words, WEIGHT_CHUNK_BITS, plan=plan, obs=obs)
    spill_words = transfer_words(spill_words, WEIGHT_CHUNK_BITS, plan=plan, obs=obs)
    rebuilt = decode_packed(
        base_words,
        spill_words,
        n_groups=packed.n_groups,
        reduction=packed.reduction,
        out_channels=packed.out_channels,
        strict=False,
    )
    return validate_packed(rebuilt, policy=policy, obs=obs)


def _corrupt_activations(
    act_levels: np.ndarray,
    plan: FaultPlan,
    policy: str,
    act_normal_max: int,
    obs: Registry,
) -> np.ndarray:
    """Strike each sample's dense stream and swarm entries, then rebuild."""
    out = np.empty_like(act_levels)
    for sample in range(act_levels.shape[0]):
        packed = pack_activations(act_levels[sample], normal_max=act_normal_max)
        dense, _ = plan.corrupt_levels(packed.dense, _ACT_STREAM_BITS, surface="activations", obs=obs)
        entries = packed.outliers
        if entries:
            values = packed._coord_table()[:, 3]
            values, _ = plan.corrupt_levels(values, _SWARM_VALUE_BITS, surface="outliers", obs=obs)
            entries = [replace(e, value=int(v)) for e, v in zip(entries, values)]
        entries = validate_swarm(
            entries, packed.shape, policy=policy, obs=obs, normal_max=act_normal_max
        )
        struck = packed.replace_streams(dense=dense, outliers=entries)
        out[sample] = unpack_activations(struck)
    return out


def faulty_olaccel_conv2d(
    act_levels: np.ndarray,
    weight_levels: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    act_normal_max: int = 15,
    plan: Optional[FaultPlan] = None,
    policy: str = "degrade",
    acc: Optional[AccumulatorModel] = None,
    obs: Optional[Registry] = None,
) -> FaultInjectionResult:
    """Run a convolution through the fault-injected OLAccel datapath.

    With ``plan=None`` (or rate 0) and a full-width accumulator this is
    bit-exact to :func:`reference_conv2d_int` — the no-op proof the
    tests pin down. ``obs`` defaults to a fresh enabled registry so the
    returned counters always reconcile; pass your own to aggregate
    across calls.
    """
    if obs is None:
        obs = Registry()
    if plan is None:
        plan = FaultPlan(rate=0.0)

    act_levels = np.asarray(act_levels, dtype=np.int64)
    weight_levels = np.asarray(weight_levels, dtype=np.int64)
    out_c = weight_levels.shape[0]
    w_mat = weight_levels.reshape(out_c, -1)

    packed = corrupt_packed_weights(pack_weights(w_mat), plan, policy=policy, obs=obs)
    faulty_weights = packed.unpack().reshape(weight_levels.shape)
    faulty_acts = _corrupt_activations(act_levels, plan, policy, act_normal_max, obs)

    result = olaccel_conv2d(
        faulty_acts,
        faulty_weights,
        stride=stride,
        pad=pad,
        act_normal_max=act_normal_max,
        packed=packed,
        acc=acc,
        obs=obs,
    )
    reference = reference_conv2d_int(act_levels, weight_levels, stride=stride, pad=pad)

    counters = obs.snapshot()
    injected = int(counters.get("faults/injected", 0))
    detected = int(counters.get("faults/detected", 0))
    undetected = injected - detected
    if undetected and obs.enabled:
        obs.counter("faults/undetected").add(undetected)

    return FaultInjectionResult(
        result=result,
        reference=reference,
        injected=injected,
        detected=detected,
        masked=int(counters.get("faults/masked", 0)),
        skipped=int(counters.get("faults/skipped", 0)),
        acc_overflows=result.acc_overflows,
        obs=obs,
    )
