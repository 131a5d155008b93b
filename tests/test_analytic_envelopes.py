"""Golden digests of the analytic envelopes, and how often their drivers
build a paper workload.

``tests/test_golden.py`` pins breakdown totals to a relative tolerance;
this file pins the exact bytes. Each digest is the SHA-256 of an
envelope's ``canonical_envelope_bytes``: the breakdown envelopes of the
five paper networks, the fig14 ratio sweep without accuracy, and the
default ``explore resnet18`` search with ``accuracy="none"`` (whose
bytes depend on no random draw). The first six equal the
``analytic_sweep`` fingerprints in ``benchmarks/e2e/expected.json``.

The build counts check that a driver builds each distinct workload once
and shares it between the simulations that need it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness import experiments, explore
from repro.harness.experiments import breakdown_experiment, fig14_ratio_sweep, fig15_scalability
from repro.harness.explore import ExploreRequest, explore_run
from repro.harness.resilience import canonical_envelope_bytes
from repro.harness.serialize import experiment_envelope
from repro.harness.simcache import SimCache, set_active

BREAKDOWN_DIGESTS = {
    "alexnet": "ff789a4ae5916ff6d81a98088c63fd107d4d2a9d04d9828d0818488743dc74da",
    "vgg16": "83d64eee80bdb28b8d4558eb44084c80ef5d69150f6970bd0919c52771177d1a",
    "resnet18": "57269a3b5f6ae4afc703342b421c949a27348aa04c882d869c340fa6226dec0c",
    "resnet101": "cd1f88435c6cc198ae5d4d0620ce03d020dbea02dca2507af19eb879cd92ff55",
    "densenet121": "2f1ba682139f462406cb1c156fc2a3e8df960a817e4d08d846b6fbabc8eaf196",
}
FIG14_DIGEST = "234d2e236ae829134794df3dc3aee8b2b8bcd2a39bb337c269b931b25b0dd173"
EXPLORE_RESNET18_DIGEST = "a660a5878171f2c7147331a622d892fdd7e67bc920aa550554efa253d6556a57"


def digest(envelope) -> str:
    return hashlib.sha256(canonical_envelope_bytes(envelope)).hexdigest()


@pytest.fixture
def rootless_cache():
    cache = SimCache()
    set_active(cache)
    yield cache
    set_active(None)


def count_builds(monkeypatch, module) -> list:
    """Record the arguments of every ``paper_workload`` call ``module`` makes."""
    calls = []
    build = module.paper_workload

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(module, "paper_workload", counting)
    return calls


@pytest.mark.parametrize("network", sorted(BREAKDOWN_DIGESTS))
def test_breakdown_envelope_digest(network):
    envelope = experiment_envelope("breakdown", breakdown_experiment(network))
    assert digest(envelope) == BREAKDOWN_DIGESTS[network]


def test_fig14_envelope_digest():
    envelope = experiment_envelope("fig14", fig14_ratio_sweep(with_accuracy=False))
    assert digest(envelope) == FIG14_DIGEST


def test_explore_envelope_digest(rootless_cache):
    envelope = explore_run(ExploreRequest("resnet18", accuracy="none"))[1]
    assert digest(envelope) == EXPLORE_RESNET18_DIGEST


def test_breakdown_builds_its_workload_once(monkeypatch):
    calls = count_builds(monkeypatch, experiments)
    breakdown_experiment("resnet18")
    assert len(calls) == 1


def test_fig15_builds_its_workload_once(monkeypatch):
    calls = count_builds(monkeypatch, experiments)
    fig15_scalability("alexnet")
    assert len(calls) == 1


def test_explore_builds_each_ratio_once(monkeypatch, rootless_cache):
    monkeypatch.setattr(explore, "_WORKLOADS", {})
    calls = count_builds(monkeypatch, explore)
    result, _ = explore_run(ExploreRequest("resnet18", accuracy="none"))
    assert result.candidates == 216
    assert len(calls) == len({kwargs["ratio"] for _, kwargs in calls}) == 3
