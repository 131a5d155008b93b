"""Differential fuzzing of the OLAccel integer datapath.

Generates random quantized tensors across the full parameter space
(shapes, strides, padding, densities, outlier ratios, extreme levels) and
checks three independent implementations against each other:

1. the golden integer reference (`reference_conv2d_int`),
2. the bit-exact split datapath (`olaccel_conv2d` — normal/outlier paths),
3. the chunk tables serialized through the literal 80-bit words by the
   per-chunk codec of `repro.reference` (`encode_table`/`decode_table`),
   rebuilt into a table (`packed_from_chunks`) and re-used by the datapath.

It also strikes those words with a seeded fault plan and requires the
lenient vectorized decoder (`decode_packed(strict=False)`, the one the
fault datapath runs) to match its per-chunk twin chunk for chunk, and the
fault datapath's weight round trip (`corrupt_packed_weights`) under a
rate-0 plan to give back the original levels. Last, it strikes the
swarm outlier table of the case's activations and requires the array
`validate_swarm` and its per-entry twin (`validate_swarm_scalar`) to
agree under every recovery policy: same counters, same kept rows, and
the same entry named by `raise`; the clean table is audited the same
way with entries planted at both sides of the outlier threshold.

`check_case` is importable — `tests/test_fuzz_smoke.py` runs a small
fixed-seed sample of the same property on every test run; this tool
remains the high-volume standalone entry point (also run in CI):

    python tools/fuzz_datapath.py [iterations] [seed]
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from repro.arch import decode_packed, pack_activations, pack_weights
from repro.arch.act_packing import ACT_NORMAL_MAX
from repro.arch.chunks import WEIGHT_CHUNK_BITS
from repro.constants import RECOVERY_POLICIES
from repro.errors import ChunkIntegrityError
from repro.faults import FAULT_MODELS, FaultPlan, validate_swarm
from repro.faults.datapath import corrupt_packed_weights
from repro.obs import Registry
from repro.olaccel import olaccel_conv2d, reference_conv2d_int
from repro.reference import decode_table, encode_table, packed_from_chunks, validate_swarm_scalar

#: Strike probability per word for the struck-word decode check.
STRIKE_RATE = 0.2


def random_case(rng: np.random.Generator):
    c_in = int(rng.integers(1, 24))
    c_out = int(rng.integers(1, 40))
    size = int(rng.integers(3, 10))
    kernel = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    pad = int(rng.integers(0, kernel))
    if (size + 2 * pad - kernel) // stride + 1 <= 0:
        pad = kernel  # guarantee a valid output extent

    density = float(rng.uniform(0.0, 1.0))
    outlier = float(rng.uniform(0.0, 0.2))
    acts = rng.integers(0, 16, size=(int(rng.integers(1, 3)), c_in, size, size))
    acts[rng.random(acts.shape) >= density] = 0
    hot = rng.random(acts.shape) < outlier
    acts[hot] = rng.integers(16, 65536, size=int(hot.sum()))

    weights = rng.integers(-7, 8, size=(c_out, c_in, kernel, kernel))
    hot_w = rng.random(weights.shape) < outlier
    weights[hot_w] = rng.integers(8, 128, size=int(hot_w.sum())) * rng.choice([-1, 1], size=int(hot_w.sum()))
    return acts, weights, stride, pad


def check_struck_decode(packed, base_words, spill_words, fault_seed: int) -> Optional[str]:
    """Strike the words, then compare both lenient decoders; None when they agree."""
    plan = FaultPlan(rate=STRIKE_RATE, seed=fault_seed, model=FAULT_MODELS[fault_seed % len(FAULT_MODELS)])
    base_words, _ = plan.corrupt_words(base_words, WEIGHT_CHUNK_BITS, surface="weight_chunks")
    spill_words, _ = plan.corrupt_words(spill_words, WEIGHT_CHUNK_BITS, surface="weight_chunks")
    shape = dict(n_groups=packed.n_groups, reduction=packed.reduction, out_channels=packed.out_channels)
    fast = decode_packed(base_words, spill_words, strict=False, **shape)
    slow = packed_from_chunks(*decode_table(base_words, spill_words, strict=False), **shape)
    if fast.base_chunks != slow.base_chunks or fast.spill_chunks != slow.spill_chunks:
        return f"struck-word decode mismatch: fault_seed={fault_seed}"
    return None


def _swarm_outcome(validate, table, shape, policy):
    """(kept rows, index named by raise, counters) of one swarm audit."""
    obs = Registry()
    try:
        kept = validate(table, shape, policy=policy, obs=obs)
        return kept.tolist(), None, obs.snapshot()
    except ChunkIntegrityError as exc:
        return None, exc.chunk_index, obs.snapshot()


def check_struck_swarm(acts, fault_seed: int) -> Optional[str]:
    """Strike every sample's swarm table, values and coordinates, then
    compare the array and per-entry validators; None when they agree.

    Each sample's clean table is also audited with two entries planted
    at the outlier threshold: ``ACT_NORMAL_MAX`` (corrupt) and
    ``ACT_NORMAL_MAX + 1`` (a true outlier), where random strikes
    rarely land.
    """
    plan = FaultPlan(rate=STRIKE_RATE, seed=fault_seed, model=FAULT_MODELS[fault_seed % len(FAULT_MODELS)])
    for sample in acts:
        packed = pack_activations(sample)
        struck = packed.outlier_table.copy()
        struck[:, 3], _ = plan.corrupt_levels(struck[:, 3], 16, surface="outliers")
        struck[:, :3], _ = plan.corrupt_levels(struck[:, :3], 8, surface="activations")
        planted = np.concatenate((packed.outlier_table, [[0, 0, 0, ACT_NORMAL_MAX], [0, 0, 0, ACT_NORMAL_MAX + 1]]))
        for table in (struck, planted):
            for policy in RECOVERY_POLICIES:
                fast = _swarm_outcome(validate_swarm, table, packed.shape, policy)
                slow = _swarm_outcome(validate_swarm_scalar, table, packed.shape, policy)
                if fast != slow:
                    return f"struck-swarm validate mismatch: fault_seed={fault_seed} policy={policy}"
    return None


def check_case(acts, weights, stride: int, pad: int, fault_seed: int = 0) -> Optional[str]:
    """Run one case through all implementations; None when they agree.

    ``fault_seed`` seeds the plans that strike the encoded weight words
    and the swarm outlier tables.
    """
    reference = reference_conv2d_int(acts, weights, stride, pad)

    result = olaccel_conv2d(acts, weights, stride, pad, act_normal_max=15)
    if not np.array_equal(result.psum, reference):
        return f"datapath mismatch: shape={acts.shape} w={weights.shape} s={stride} p={pad}"

    packed = pack_weights(weights.reshape(weights.shape[0], -1))
    if packed.n_spill <= 254:
        base_words, spill_words = encode_table(packed.base_chunks, packed.spill_chunks)
        packed = packed_from_chunks(
            *decode_table(base_words, spill_words), packed.n_groups, packed.reduction, packed.out_channels
        )
        error = check_struck_decode(packed, base_words, spill_words, fault_seed)
        if error:
            return error
        clean = corrupt_packed_weights(packed, FaultPlan(rate=0.0))
        if not np.array_equal(clean.unpack(), weights.reshape(weights.shape[0], -1)):
            return f"rate-0 weight round trip mismatch: w={weights.shape}"
    via_words = olaccel_conv2d(acts, weights, stride, pad, packed=packed)
    if not np.array_equal(via_words.psum, reference):
        return f"bit-codec mismatch: shape={acts.shape} w={weights.shape}"
    return check_struck_swarm(acts, fault_seed)


def run(iterations: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for i in range(iterations):
        acts, weights, stride, pad = random_case(rng)
        error = check_case(acts, weights, stride, pad, fault_seed=seed + i)
        if error:
            failures += 1
            print(f"[{i}] {error}")

    print(f"{iterations} cases, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(run(iterations, seed))
