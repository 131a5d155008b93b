"""Golden digests of the analytic envelopes, and how often their drivers
build a paper workload.

``tests/test_golden.py`` pins breakdown totals to a relative tolerance;
this file pins the exact bytes. Each digest is the SHA-256 of an
envelope's ``canonical_envelope_bytes``: the breakdown envelopes of the
five paper networks, the fig14 ratio sweep without accuracy, and the
default ``explore resnet18`` search with ``accuracy="none"`` (whose
bytes depend on no random draw). The first six equal the
``analytic_sweep`` fingerprints in ``benchmarks/e2e/expected.json``.
Two more explore digests pin the default proxy-accuracy search and a
successive-halving search, whose screen rung simulates only the first
``screen_layers`` layers.

The remaining digests pin the branches those envelopes never take: the
ablation switches and group widths other than 16 (the ablation and
group-size results, plus full per-layer stats of each ablated alexnet
run), fig15/fig18, the baselines with an explicit accumulator model,
and the simulated-only part of ``profile alexnet``. Counter lists keep
their creation order: they are hashed as ``[path, value]`` pairs.

The build counts check that a driver builds each distinct workload once
and shares it between the simulations that need it, and that the explore
accuracy proxy draws its tensors once per precision point.
"""

from __future__ import annotations

import hashlib

import pytest

from dataclasses import replace

from repro.baselines import EyerissSimulator, ZenaSimulator, eyeriss8, zena8
from repro.faults.accumulator import AccumulatorModel
from repro.harness import experiments, explore
from repro.harness.ablations import run_all_ablations, sweep_group_size
from repro.harness.experiments import (
    breakdown_experiment,
    fig14_ratio_sweep,
    fig15_scalability,
    fig18_utilization,
)
from repro.harness.explore import ExploreRequest, explore_run
from repro.harness.profile import profile_network
from repro.harness.resilience import canonical_envelope_bytes
from repro.harness.serialize import content_digest, experiment_envelope, to_jsonable
from repro.harness.simcache import SimCache, set_active
from repro.harness.workloads import paper_workload
from repro.obs import Registry
from repro.olaccel import OLAccelSimulator, olaccel16

BREAKDOWN_DIGESTS = {
    "alexnet": "ff789a4ae5916ff6d81a98088c63fd107d4d2a9d04d9828d0818488743dc74da",
    "vgg16": "83d64eee80bdb28b8d4558eb44084c80ef5d69150f6970bd0919c52771177d1a",
    "resnet18": "57269a3b5f6ae4afc703342b421c949a27348aa04c882d869c340fa6226dec0c",
    "resnet101": "cd1f88435c6cc198ae5d4d0620ce03d020dbea02dca2507af19eb879cd92ff55",
    "densenet121": "2f1ba682139f462406cb1c156fc2a3e8df960a817e4d08d846b6fbabc8eaf196",
}
FIG14_DIGEST = "234d2e236ae829134794df3dc3aee8b2b8bcd2a39bb337c269b931b25b0dd173"
EXPLORE_RESNET18_DIGEST = "a660a5878171f2c7147331a622d892fdd7e67bc920aa550554efa253d6556a57"
EXPLORE_RESNET18_PROXY_DIGEST = "2d247492159e33dd7cf797ce7cf3992c279be21b7e6a4aba2526c9e05d785681"
EXPLORE_RESNET18_HALVING_DIGEST = "57cd30a91f7a1a9d7fa6ac1039ef0eb946af565a15e62e784ca79c4b97f60568"
ABLATION_DIGESTS = {
    "alexnet": "39e1b974c2f1c87ae971d59f2446d6ddf6933eb88b707d91b9fd071c846427e8",
    "resnet18": "aa43f91fbeeb210ecfc306546eeafae5029936fb7a07dc7747e957f3359f8cf8",
}
GROUP_SIZE_DIGESTS = {
    "alexnet": "2c9ca2db413eba8d363f9627321036003a937f71b233621f6060600889d5aefd",
    "resnet18": "1de9a6e2c961f195a50a9380a8aacbf56c7fba1c09eec904a8edd314e3fa8bdb",
}
#: alexnet RunStats.to_dict() of OLAccel16 with one config field changed
ABLATED_RUN_DIGESTS = {
    "no-outlier-mac": (
        {"has_outlier_mac": False},
        "baf91e8e0dac2195ff63cd1c5dedd044694563879f3e75da1e8740ddaa7dd9d0",
    ),
    "no-zero-skip": (
        {"zero_skip": False},
        "16a5e463504cb02e29d44a886073fc760b0d68808af03ae0f8f5e11c9350913b",
    ),
    "serial-accumulation": (
        {"pipelined_accumulation": False},
        "3caab60e48e8e5d1c6cc0840d3da0864a6da98c43a221cccdc6284414fb5207e",
    ),
    "lanes-8": (
        {"lanes": 8, "groups_per_cluster": 12},
        "c829e7703669b843df6bf28fca464492301e6c201fb8fb1391e03764227091ca",
    ),
    "lanes-32": (
        {"lanes": 32, "groups_per_cluster": 3},
        "fc727c2af66cd73060bdd6c93c86be7a5b8ccfa6e123a3de022f9b9937d7aeb9",
    ),
}
FIG15_ALEXNET_DIGEST = "0a43fc3428fa390731cb367d6752b41640576191359b4d94473a944f0f389e7d"
FIG18_ALEXNET_DIGEST = "7e635ee3af30edd8f90535194b5b53294214efdc3bcd8c1f5e60f74b083c5cc6"
#: alexnet runs and counters of the 8-bit baselines with a 16-bit accumulator
ACCUMULATOR_BASELINE_DIGESTS = {
    "eyeriss8": (
        EyerissSimulator,
        eyeriss8,
        "49cae9c460dbf36c1eb0bd1fd53115d52f3b980049d6685f68fb91f79fe771b2",
    ),
    "zena8": (
        ZenaSimulator,
        zena8,
        "ed28356f19d3ec5dd1c502aa1efa90a767dafb4b22996cec5a7258967f2c7ed4",
    ),
}
PROFILE_ALEXNET_DIGEST = "b66463e894127353adf032c3253c69e094d0c89fc386ec21146a59f9f0c1f820"


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


def test_explore_proxy_accuracy_envelope_digest(rootless_cache):
    envelope = explore_run(ExploreRequest("resnet18"))[1]
    assert digest(envelope) == EXPLORE_RESNET18_PROXY_DIGEST


def test_explore_halving_envelope_digest(rootless_cache):
    request = ExploreRequest("resnet18", strategy="halving", accuracy="none")
    assert digest(explore_run(request)[1]) == EXPLORE_RESNET18_HALVING_DIGEST


@pytest.mark.parametrize("network", sorted(ABLATION_DIGESTS))
def test_ablations_digest(network):
    assert content_digest(to_jsonable(run_all_ablations(network))) == ABLATION_DIGESTS[network]


@pytest.mark.parametrize("network", sorted(GROUP_SIZE_DIGESTS))
def test_group_size_sweep_digest(network):
    assert content_digest(to_jsonable(sweep_group_size(network))) == GROUP_SIZE_DIGESTS[network]


@pytest.mark.parametrize("variant", sorted(ABLATED_RUN_DIGESTS))
def test_ablated_run_stats_digest(variant):
    overrides, expected = ABLATED_RUN_DIGESTS[variant]
    run = OLAccelSimulator(replace(olaccel16(), **overrides)).simulate_network(
        paper_workload("alexnet")
    )
    assert content_digest(run.to_dict()) == expected


def test_fig15_envelope_digest():
    envelope = experiment_envelope("fig15", fig15_scalability("alexnet"))
    assert digest(envelope) == FIG15_ALEXNET_DIGEST


def test_fig18_envelope_digest():
    envelope = experiment_envelope("fig18", fig18_utilization("alexnet"))
    assert digest(envelope) == FIG18_ALEXNET_DIGEST


@pytest.mark.parametrize("kind", sorted(ACCUMULATOR_BASELINE_DIGESTS))
def test_baseline_with_accumulator_digest(kind):
    sim_cls, make_config, expected = ACCUMULATOR_BASELINE_DIGESTS[kind]
    obs = Registry()
    acc = AccumulatorModel(width_bits=16, mode="saturate")
    run = sim_cls(make_config(), obs=obs, acc=acc).simulate_network(paper_workload("alexnet"))
    counters = list(obs.to_dict()["counters"].items())
    assert content_digest({"run": run.to_dict(), "counters": counters}) == expected


def test_profile_simulated_digest():
    """``profile alexnet`` without its wall-clock fields: simulated cycles,
    fractions, the event micro-trace and every counter in creation order."""
    envelope = experiment_envelope("profile", profile_network("alexnet").to_dict())
    result = envelope["result"]
    for row in result["rows"]:
        del row["wall_ms"]
    result["counters"] = [
        [path, value] for path, value in result["counters"].items() if not path.endswith(".seconds")
    ]
    assert digest(envelope) == PROFILE_ALEXNET_DIGEST


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


def test_explore_draws_each_proxy_pair_once(rootless_cache):
    explore._proxy_tensors.cache_clear()
    explore_run(ExploreRequest("resnet18"))
    info = explore._proxy_tensors.cache_info()
    # Three ratios at one (act_bits, weight_bits) point: one draw, scored
    # for all three in one pass.
    assert (info.misses, info.hits) == (1, 0)
    weights, acts = explore._proxy_tensors(0, 4, 4)
    assert not weights.flags.writeable and not acts.flags.writeable
