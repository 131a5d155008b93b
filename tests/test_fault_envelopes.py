"""Golden digests of the ``repro faults`` sweep envelopes.

Each digest is the SHA-256 of the envelope's ``canonical_envelope_bytes``
as ``repro faults NET`` writes it, computed on a fresh memory cache. The
default alexnet sweep equals the ``cli_commands`` "faults alexnet"
fingerprint in ``benchmarks/e2e/expected.json``; the other three reach
the repair paths of the weight validator (degrade on a higher-rate
sweep, skip with stuck-at-1 strikes, burst strikes on resnet18), so a
change to decode, validation or unpacking that alters a single repaired
weight changes their bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness.faults import fault_sweep
from repro.harness.resilience import canonical_envelope_bytes
from repro.harness.serialize import experiment_envelope
from repro.harness.simcache import SimCache, set_active

#: (network, fault_sweep keywords, digest, faults/detected per rate row)
CASES = [
    ("alexnet", {}, "58a9e01aec1efbeb73f4d86a342857120779c8e4203c67840b514bd522c1b1e9", [0, 0, 0, 2]),
    (
        "alexnet",
        {"rates": (0.05, 0.2), "seed": 3},
        "e33981dc7dc73f0586851d14136319462bb172cda37a038a5ad5e21ca56bb42f",
        [5, 25],
    ),
    (
        "alexnet",
        {"policy": "skip", "model": "stuck1", "rates": (0.05, 0.2)},
        "1fe76bdb47d780830f5b27f5f267dd56490129cde3b431a3d46d834103b1f1e2",
        [5, 19],
    ),
    (
        "resnet18",
        {"model": "burst", "rates": (0.2,)},
        "9c63859bd6cda2691bc0fcc589a9dd2b0ca78eea75d592673c237c46f042c7f2",
        [27],
    ),
]


@pytest.fixture
def rootless_cache():
    cache = SimCache()
    set_active(cache)
    yield cache
    set_active(None)


@pytest.mark.parametrize(
    "network,kwargs,expected,detected", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)]
)
def test_fault_sweep_envelope_digest(rootless_cache, network, kwargs, expected, detected):
    result = fault_sweep(network, **kwargs)
    assert [row["detected"] for row in result.rate_rows] == detected
    envelope = experiment_envelope("faults", result, f"fault-rate + accumulator-width sweep for {network}")
    assert hashlib.sha256(canonical_envelope_bytes(envelope)).hexdigest() == expected
