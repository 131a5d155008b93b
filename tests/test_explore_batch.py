"""The in-process explore search prices candidates in batches.

``_execute_inline`` runs each ratio's candidates through one
:meth:`OLAccelSimulator.batch`, whose per-design constants are float64
vectors over the one per-layer model. Its records must be the ones a
sweep of :func:`explore_cell` cells gives, float for float: here for
every candidate of the default space on the five paper networks at both
halving fidelities, for random small spaces, for candidates that fail,
and for whole envelopes against a ``--run-dir --jobs 2`` search. The
design-space checks that keep bad values out of a search are here too.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.workload import LayerWorkload, NetworkWorkload
from repro.cli import main
from repro.errors import CellError, ConfigError
from repro.harness.explore import (
    Candidate,
    DesignSpace,
    ExploreRequest,
    _execute_inline,
    _grid,
    explore_cell,
    explore_run,
)
from repro.harness.resilience import canonical_envelope_bytes
from repro.harness.serve import JOB_SCHEMA, JobServer, ServeConfig
from repro.olaccel.accelerator import OLAccelSimulator
from repro.olaccel.config import OLAccelConfig

NETWORKS = ("alexnet", "vgg16", "resnet18", "resnet101", "densenet121")


def per_candidate_records(network, population, fidelity):
    """The records of one ``explore_cell`` per candidate."""
    records = {}
    for cand in population:
        try:
            result = explore_cell(network, cand, fidelity_layers=fidelity)
            records[cand.cand_id] = {"status": "ok", "result": result}
        except Exception as exc:  # noqa: BLE001 - the record is the point
            records[cand.cand_id] = {
                "status": "failed",
                "error": CellError(
                    f"{type(exc).__name__}: {exc}", cell_id=cand.cand_id, kind="exception"
                ).to_dict(),
            }
    return records


def assert_same_records(got, want):
    assert got.keys() == want.keys()
    for cell_id, record in want.items():
        # == on the dicts is exact float equality; the types and key
        # order must match too, so the envelopes serialize alike.
        assert got[cell_id] == record, cell_id
        if record["status"] == "ok":
            assert list(got[cell_id]["result"]) == list(record["result"])
            assert all(type(v) is float for v in got[cell_id]["result"].values())


# ---------------------------------------------------------------------------
# batched records == per-candidate records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("network", NETWORKS)
def test_default_space_batches_equal_explore_cell(network):
    population = _grid(DesignSpace())
    fidelities = [None, ExploreRequest(network).screen_layers]  # halving's two rungs
    for fidelity in fidelities:
        assert_same_records(
            _execute_inline(network, population, fidelity),
            per_candidate_records(network, population, fidelity),
        )


def small_values(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True).map(tuple)


SPACES = st.builds(
    DesignSpace,
    clusters=small_values([1, 2, 4, 6, 8, 10, 12]),
    groups=small_values([1, 2, 4, 6, 8]),
    buffers_kib=small_values([1, 16, 96, 192, 384, 1024]),
    ratios=small_values([0.0, 0.01, 0.03, 0.05, 0.1, 1.0]),
    acc_bits=small_values([8, 16, 24, 32]),
    act_bits=small_values([2, 4, 8, 16]),
    weight_bits=small_values([2, 4, 8]),
)


@settings(max_examples=40, deadline=None)
@given(SPACES, st.sampled_from(NETWORKS), st.sampled_from([None, 1, 3]))
def test_mixed_small_spaces_batch_exactly(space, network, fidelity):
    population = _grid(space)
    assert_same_records(
        _execute_inline(network, population, fidelity),
        per_candidate_records(network, population, fidelity),
    )


UNIT = st.floats(0.0, 1.0)
LAYERS = st.builds(
    LayerWorkload,
    name=st.just("l"),
    kind=st.sampled_from(["conv", "fc"]),
    macs=st.integers(1, 10**10),
    weight_count=st.integers(1, 10**8),
    input_count=st.integers(1, 10**7),
    output_count=st.integers(1, 10**7),
    out_channels=st.integers(1, 4096),
    kernel=st.integers(1, 11),
    stride=st.integers(1, 4),
    act_density=UNIT,
    weight_density=UNIT,
    act_outlier_ratio=UNIT,
    weight_outlier_ratio=UNIT,
    is_first=st.booleans(),
    first_weight_bits=st.sampled_from([4, 8]),
)
#: The per-design fields a batch holds as vectors.
DESIGNS = st.fixed_dictionaries(
    {
        "n_clusters": st.integers(1, 12),
        "groups_per_cluster": st.integers(1, 10),
        "act_bits": st.sampled_from([2, 4, 8, 16]),
        "weight_bits": st.sampled_from([2, 4, 8]),
        "acc_bits": st.sampled_from([16, 24, 32]),
        "swarm_buffer_bytes": st.integers(1, 1 << 22),
        # Above 1 the idle clamp bites, so both of its branches run.
        "dispatch_efficiency": st.floats(0.05, 2.0),
    }
)
#: The fields every design of a batch shares, ablation switches included.
SHARED = st.fixed_dictionaries(
    {
        "lanes": st.sampled_from([4, 8, 16, 32]),
        "raw_input_bits": st.sampled_from([8, 16]),
        "act_outlier_bits": st.sampled_from([8, 16]),
        "has_outlier_mac": st.booleans(),
        "zero_skip": st.booleans(),
        "pipelined_accumulation": st.booleans(),
    }
)


@settings(max_examples=100, deadline=None)
@given(st.lists(LAYERS, min_size=1, max_size=4), SHARED, st.lists(DESIGNS, min_size=1, max_size=5))
def test_batch_layer_stats_equal_each_design_alone(layers, shared, designs):
    workload = NetworkWorkload("net", layers)
    sims = [OLAccelSimulator(OLAccelConfig(**shared, **design)) for design in designs]
    batch = OLAccelSimulator.batch(sims).simulate_network(workload)
    for i, sim in enumerate(sims):
        alone = sim.simulate_network(workload)
        for got, want in zip(batch.layers, alone.layers):
            for field in ("cycles", "idle_cycles"):
                assert repr(float(getattr(got, field)[i])) == repr(getattr(want, field))
            for component, pj in want.energy.as_dict().items():
                assert repr(float(got.energy.as_dict()[component][i])) == repr(pj)
            assert got.run_cycles == want.run_cycles
            assert repr(float(got.extras["outlier_cycles"][i])) == repr(want.extras["outlier_cycles"])


def test_batch_refuses_designs_that_differ_in_a_shared_field():
    base = OLAccelConfig()
    for name, value in (("lanes", 8), ("zero_skip", False), ("act_outlier_bits", 8)):
        with pytest.raises(ValueError, match=f"one {name}"):
            OLAccelSimulator.batch([OLAccelSimulator(base), OLAccelSimulator(replace(base, **{name: value}))])


def test_zero_groups_raise_up_front():
    with pytest.raises(ValueError, match="n_groups must be positive"):
        OLAccelSimulator(OLAccelConfig(n_clusters=0))
    with pytest.raises(ValueError, match="n_groups must be positive"):
        OLAccelSimulator(OLAccelConfig(groups_per_cluster=0))


# ---------------------------------------------------------------------------
# failures and whole envelopes
# ---------------------------------------------------------------------------


def test_a_candidate_failing_in_a_batch_gets_its_own_record():
    # No clusters, or no swarm buffer, fails when the simulator is built;
    # its batch-mates still compute.
    population = [
        Candidate(4, 6, 96, 0.03, 16, 4, 4),
        Candidate(0, 6, 96, 0.03, 16, 4, 4),
        Candidate(8, 6, 0, 0.03, 24, 4, 4),
        Candidate(8, 6, 384, 0.03, 24, 4, 4),
    ]
    got = _execute_inline("alexnet", population, None)
    assert_same_records(got, per_candidate_records("alexnet", population, None))
    statuses = [got[c.cand_id]["status"] for c in population]
    assert statuses == ["ok", "failed", "failed", "ok"]
    assert "n_groups must be positive" in got[population[1].cand_id]["error"]["message"]
    assert "SRAM capacity must be positive" in got[population[2].cand_id]["error"]["message"]


def test_inline_batches_match_run_dir_cells(tmp_path):
    space = DesignSpace(
        clusters=(4, 8), groups=(4, 6), buffers_kib=(96, 384),
        ratios=(0.01, 0.03), acc_bits=(16, 24), act_bits=(4,), weight_bits=(4,),
    )
    request = ExploreRequest("alexnet", accuracy="none", seed=7, space=space)
    _, inline = explore_run(request)
    _, rundir = explore_run(request, run_dir=tmp_path / "run", jobs=2)
    assert inline["result"]["evaluated"]
    assert canonical_envelope_bytes(inline) == canonical_envelope_bytes(rundir)


# ---------------------------------------------------------------------------
# design-space values
# ---------------------------------------------------------------------------


BAD_SPACES = [
    ({"clusters": [4.7]}, "'clusters' takes integers, got 4.7"),
    ({"acc_bits": [16, "x"]}, "'acc_bits' takes integers"),
    ({"ratios": [2.5]}, r"'ratios' takes values in \[0, 1\], got 2.5"),
    ({"ratios": [-0.01]}, r"'ratios' takes values in \[0, 1\]"),
    ({"ratios": [float("nan")]}, r"'ratios' takes values in \[0, 1\]"),
    ({"groups": 6}, "'groups' must be a non-empty list"),
]


@pytest.mark.parametrize("doc,message", BAD_SPACES)
def test_from_dict_refuses_values_a_candidate_cannot_hold(doc, message):
    with pytest.raises(ConfigError, match=message):
        DesignSpace.from_dict(doc)


def test_integral_values_are_taken_as_integers():
    space = DesignSpace.from_dict({"clusters": [4.0, 8], "ratios": [0, 1]})
    assert space.clusters == (4, 8) and all(type(v) is int for v in space.clusters)
    assert space.ratios == (0.0, 1.0) and all(type(v) is float for v in space.ratios)
    assert DesignSpace(buffers_kib=(96.0,)).buffers_kib == (96,)


@pytest.mark.parametrize("flag,value", [("--ratios", "2.5"), ("--ratios", "-0.5")])
def test_cli_refuses_a_bad_ratio_before_the_run_dir(tmp_path, capsys, flag, value):
    run_dir = tmp_path / "run"
    argv = [
        "explore", "alexnet", "--clusters", "4", "--groups", "6", "--buffers-kib", "96",
        "--acc-bits", "16", flag, value, "--run-dir", str(run_dir),
    ]
    assert main(argv) == 2
    assert "'ratios' takes values in [0, 1]" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "space", [{"clusters": [4.7]}, {"ratios": [2.5]}], ids=["fractional_clusters", "ratio_above_1"]
)
def test_serve_refuses_a_bad_space_without_making_a_job(tmp_path, space):
    server = JobServer(ServeConfig(spool=tmp_path / "spool"))
    doc = {"schema": JOB_SCHEMA, "verb": "explore", "network": "alexnet", "params": {"space": space}}
    status, body, _ = server.handle_request("POST", "/jobs", json.dumps(doc).encode())
    assert status == 400
    assert (body["error"], body["field"]) == ("JobError", "space")
    assert server.store.list_ids() == []
