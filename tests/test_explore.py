"""Tests for the design-space explorer (docs/EXPLORE.md).

Covers the search space and area budget, the strategy interface, the
Pareto archive, the directly computed cost cells and simcache-keyed
accuracy cells, the exact ``explore/*`` counter reconciliation, and the
headline guarantee: cold, warm-cache and kill+resume searches emit
byte-identical ``repro.explore/v1`` envelopes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.area import olaccel_area, olaccel_design_area, swarm_buffer_area
from repro.cli import main
from repro.errors import ArtifactIntegrityError, ConfigError
from repro.harness.explore import (
    EXPLORE_MARKER,
    EXPLORE_SCHEMA,
    Candidate,
    DesignSpace,
    ExploreRequest,
    ParetoArchive,
    STRATEGIES,
    accuracy_cell,
    default_budget,
    dominates,
    explore_cell,
    explore_csv_rows,
    explore_resume,
    explore_run,
    is_explore_run,
)
from repro.harness.resilience import KILL_AFTER_ENV, canonical_envelope_bytes
from repro.harness.serialize import load_json
from repro.harness.simcache import SimCache, set_active
from repro.obs import Registry

REPO = Path(__file__).resolve().parents[1]
CLI_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
for var in (KILL_AFTER_ENV, "REPRO_CACHE_DIR", "REPRO_NO_CACHE"):
    CLI_ENV.pop(var, None)

#: A small space (8 points, two precision coordinates) shared by the
#: driver-level tests to keep them fast.
SMALL_SPACE = DesignSpace(
    clusters=(4, 8),
    groups=(6,),
    buffers_kib=(96, 384),
    ratios=(0.01,),
    acc_bits=(16,),
    act_bits=(4, 8),
    weight_bits=(4,),
)


def _repro(*argv, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env or CLI_ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture()
def fresh_cache():
    """Pin a rootless simcache: every cell computes, none is stored."""
    cache = SimCache()
    set_active(cache)
    yield cache
    set_active(None)


# ---------------------------------------------------------------------------
# Space, candidates, area, budget
# ---------------------------------------------------------------------------


class TestSpaceAndArea:
    def test_space_size_and_roundtrip(self):
        space = DesignSpace()
        assert space.size() == 4 * 3 * 3 * 3 * 2 * 1 * 1
        assert DesignSpace.from_dict(space.to_dict()) == space

    def test_space_rejects_unknown_and_empty_dimensions(self):
        with pytest.raises(ConfigError):
            DesignSpace.from_dict({"voltage": [1]})
        with pytest.raises(ConfigError):
            DesignSpace.from_dict({"clusters": []})

    def test_space_rejects_values_that_share_a_cand_id(self):
        with pytest.raises(ConfigError, match="'acc_bits' repeats"):
            DesignSpace.from_dict({"acc_bits": [16, 16.0]})
        with pytest.raises(ConfigError, match="'ratios' repeats"):
            DesignSpace.from_dict({"ratios": [0.01, 0.0100000001]})
        with pytest.raises(ConfigError, match="'groups' repeats"):
            DesignSpace(groups=(6, 6))

    def test_candidate_id_is_deterministic_and_fs_safe(self):
        cand = Candidate(8, 6, 384, 0.03, 24, 4, 4)
        assert cand.cand_id == "c8g6b384r0.03a24w4x4"
        assert "/" not in cand.cand_id and " " not in cand.cand_id
        assert Candidate.from_dict(cand.to_dict()) == cand

    def test_accel_config_carries_every_dimension(self):
        cfg = Candidate(6, 4, 192, 0.05, 16, 4, 4).accel_config()
        assert cfg.n_clusters == 6
        assert cfg.groups_per_cluster == 4
        assert cfg.swarm_buffer_bytes == 192 * 1024
        assert cfg.outlier_ratio == 0.05
        assert cfg.acc_bits == 16

    def test_design_area_matches_table1_model_at_paper_point(self):
        # At the paper's design point the generalized model must agree
        # with the calibrated Table I datapath model exactly.
        datapath = olaccel_design_area(8, 6, acc_bits=24)
        assert datapath == pytest.approx(olaccel_area(8, 16))
        with_buffer = olaccel_design_area(8, 6, swarm_buffer_bytes=393 * 1024)
        assert with_buffer == pytest.approx(datapath + swarm_buffer_area(393 * 1024))

    def test_design_area_monotone_in_each_dimension(self):
        base = Candidate(8, 6, 192, 0.03, 24, 4, 4).area_mm2()
        assert Candidate(10, 6, 192, 0.03, 24, 4, 4).area_mm2() > base
        assert Candidate(8, 8, 192, 0.03, 24, 4, 4).area_mm2() > base
        assert Candidate(8, 6, 384, 0.03, 24, 4, 4).area_mm2() > base
        assert Candidate(8, 6, 192, 0.03, 24, 8, 4).area_mm2() > base
        assert Candidate(8, 6, 192, 0.03, 16, 4, 4).area_mm2() < base

    def test_default_budget_admits_the_paper_design(self):
        budget = default_budget("alexnet")
        paper = Candidate(8, 6, 384, 0.03, 24, 4, 4)
        assert paper.area_mm2() <= budget
        with pytest.raises(ConfigError):
            default_budget("lenet5")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class TestStrategies:
    def test_registry_has_the_documented_strategies(self):
        assert {"grid", "random", "halving"} <= set(STRATEGIES)

    def test_grid_enumerates_the_full_space_deterministically(self):
        import numpy as np

        grid = STRATEGIES["grid"]
        req = ExploreRequest(network="alexnet", space=SMALL_SPACE)
        a = grid.candidates(SMALL_SPACE, req, np.random.default_rng(0))
        b = grid.candidates(SMALL_SPACE, req, np.random.default_rng(99))
        assert a == b
        assert len(a) == SMALL_SPACE.size()
        assert len({c.cand_id for c in a}) == len(a)

    def test_random_is_a_seeded_subset_of_the_grid(self):
        import numpy as np

        rand = STRATEGIES["random"]
        req = ExploreRequest(network="alexnet", strategy="random", samples=5, space=SMALL_SPACE)
        a = rand.candidates(SMALL_SPACE, req, np.random.default_rng(7))
        b = rand.candidates(SMALL_SPACE, req, np.random.default_rng(7))
        c = rand.candidates(SMALL_SPACE, req, np.random.default_rng(8))
        assert a == b
        assert len(a) == 5
        assert a != c  # a different seed draws a different subset
        grid_ids = {g.cand_id for g in STRATEGIES["grid"].candidates(SMALL_SPACE, req, None)}
        assert {x.cand_id for x in a} <= grid_ids

    def test_halving_schedules_a_screen_rung(self):
        req = ExploreRequest(network="alexnet", strategy="halving", screen_layers=2)
        assert STRATEGIES["halving"].rungs(req) == [2, None]
        assert STRATEGIES["grid"].rungs(req) == [None]


# ---------------------------------------------------------------------------
# Pareto dominance
# ---------------------------------------------------------------------------


class TestPareto:
    def test_dominates_minimizes_cost_maximizes_accuracy(self):
        a = {"cycles": 10, "energy_total": 10, "accuracy": 0.9}
        b = {"cycles": 20, "energy_total": 10, "accuracy": 0.9}
        c = {"cycles": 20, "energy_total": 5, "accuracy": 0.9}
        d = {"cycles": 10, "energy_total": 10, "accuracy": 0.95}
        assert dominates(a, b)
        assert not dominates(b, a)
        assert not dominates(a, c) and not dominates(c, a)  # incomparable
        assert dominates(d, a) and not dominates(a, d)

    def test_dominates_ignores_missing_accuracy(self):
        a = {"cycles": 10, "energy_total": 10, "accuracy": None}
        b = {"cycles": 20, "energy_total": 20, "accuracy": None}
        assert dominates(a, b)

    def test_archive_prunes_incrementally(self):
        archive = ParetoArchive()
        rows = [
            {"cand_id": "a", "cycles": 10, "energy_total": 30, "accuracy": None},
            {"cand_id": "b", "cycles": 30, "energy_total": 10, "accuracy": None},
            {"cand_id": "c", "cycles": 20, "energy_total": 20, "accuracy": None},
            {"cand_id": "d", "cycles": 5, "energy_total": 5, "accuracy": None},  # dominates all
            {"cand_id": "e", "cycles": 40, "energy_total": 40, "accuracy": None},  # dominated
        ]
        admitted = [archive.offer(r) for r in rows]
        assert admitted == [True, True, True, True, False]
        assert [r["cand_id"] for r in archive.frontier()] == ["d"]

    def test_frontier_order_is_deterministic(self):
        archive = ParetoArchive()
        archive.offer({"cand_id": "z", "cycles": 1, "energy_total": 9, "accuracy": None})
        archive.offer({"cand_id": "a", "cycles": 9, "energy_total": 1, "accuracy": None})
        assert [r["cand_id"] for r in archive.frontier()] == ["z", "a"]


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


class TestCells:
    def test_explore_cell_computes_and_stores_nothing(self, tmp_path):
        cand = Candidate(4, 6, 96, 0.03, 24, 4, 4)
        try:
            set_active(SimCache(root=tmp_path))
            first = explore_cell("alexnet", cand)
            again = explore_cell("alexnet", cand)
        finally:
            set_active(None)
        assert first == again and "cached" not in first
        assert not list(tmp_path.rglob("*.json"))
        assert first["cycles"] > 0
        assert first["energy_total"] == pytest.approx(
            sum(v for k, v in first.items() if k.startswith("energy_") and k != "energy_total")
        )

    def test_explore_cell_fidelity_truncates_the_workload(self):
        cand = Candidate(4, 6, 96, 0.03, 24, 4, 4)
        full = explore_cell("alexnet", cand)
        screen = explore_cell("alexnet", cand, fidelity_layers=2)
        assert screen["cycles"] < full["cycles"]

    def test_explore_cell_accepts_param_dicts(self):
        cand = Candidate(4, 6, 96, 0.03, 24, 4, 4)
        via_dict = explore_cell("alexnet", cand.to_dict())
        via_obj = explore_cell("alexnet", cand)
        assert via_dict["cycles"] == via_obj["cycles"]
        with pytest.raises(ConfigError):
            explore_cell("lenet5", cand)

    def test_accuracy_proxy_is_deterministic_and_orders_precision(self, fresh_cache):
        a = accuracy_cell("alexnet", 4, 4, 0.03, mode="proxy", seed=7, cache=fresh_cache)
        b = accuracy_cell("alexnet", 4, 4, 0.03, mode="proxy", seed=7, cache=SimCache())
        assert a == b
        assert a["metric"] == "sqnr_db"
        wide = accuracy_cell("alexnet", 8, 8, 0.03, mode="proxy", seed=7, cache=fresh_cache)
        assert wide["accuracy"] > a["accuracy"]  # more bits, higher SQNR

    def test_accuracy_modes_none_and_unknown(self, fresh_cache):
        assert accuracy_cell("alexnet", 4, 4, 0.03, mode="none")["accuracy"] is None
        with pytest.raises(ConfigError):
            accuracy_cell("alexnet", 4, 4, 0.03, mode="oracle", cache=fresh_cache)


# ---------------------------------------------------------------------------
# The driver: counters, budget, envelopes, resume
# ---------------------------------------------------------------------------


def _request(**overrides):
    kwargs = dict(network="alexnet", seed=7, space=SMALL_SPACE)
    kwargs.update(overrides)
    return ExploreRequest(**kwargs)


def _counter(obs, name):
    counter = obs.counters.get(name)
    return counter.value if counter is not None else 0.0


def _assert_reconciles(obs):
    assert _counter(obs, "explore/candidates") == (
        _counter(obs, "explore/evaluated") + _counter(obs, "explore/pruned")
    )


class TestExploreRun:
    def test_counters_reconcile_with_pruning(self, fresh_cache):
        obs = Registry()
        result, envelope = explore_run(_request(budget_mm2=2.5), obs=obs)
        _assert_reconciles(obs)
        assert _counter(obs, "explore/pruned") > 0  # budget actually bites
        assert result.candidates == SMALL_SPACE.size()
        assert result.pruned + len(result.evaluated) == result.candidates
        assert envelope["schema"] == EXPLORE_SCHEMA

    def test_cost_cells_are_never_keyed(self, fresh_cache, tmp_path, monkeypatch):
        from repro.harness import simcache

        set_active(SimCache(root=tmp_path))
        keyed = []
        real = simcache.cache_key
        monkeypatch.setattr(
            simcache, "cache_key", lambda *args, **kw: keyed.append(1) or real(*args, **kw)
        )
        for label in ("first", "second"):
            obs = Registry()
            result, _ = explore_run(_request(strategy="grid", accuracy="none"), obs=obs)
            _assert_reconciles(obs)
            assert _counter(obs, "explore/evaluated") == len(result.evaluated) > 0, label
        assert keyed == [] and not list(tmp_path.rglob("*.json"))

    def test_seeded_search_leaves_unseeded_drivers_alone(self, fresh_cache):
        # An unseeded driver run after a seeded search keeps its own
        # default seed, not the search's.
        from repro.harness.faults import fault_sweep

        before = fault_sweep("alexnet", rates=(0.0, 1e-3), widths=(24,))
        explore_run(ExploreRequest("alexnet", seed=7, accuracy="none"))
        after = fault_sweep("alexnet", rates=(0.0, 1e-3), widths=(24,))
        assert after == before

    def test_max_candidates_counts_as_pruned(self, fresh_cache):
        obs = Registry()
        result, _ = explore_run(_request(max_candidates=3), obs=obs)
        _assert_reconciles(obs)
        assert result.candidates == SMALL_SPACE.size()
        assert len(result.evaluated) <= 3

    def test_frontier_rows_are_nondominated_and_marked_in_csv(self, fresh_cache):
        result, _ = explore_run(_request())
        frontier = result.frontier
        assert frontier, "expected a non-empty frontier"
        for row in frontier:
            assert not any(dominates(other, row) for other in result.evaluated)
        csv_rows = explore_csv_rows(result)
        assert len(csv_rows) == len(result.evaluated)
        marked = {r["cand_id"] for r in csv_rows if r["on_frontier"]}
        assert marked == {r["cand_id"] for r in frontier}

    def test_accuracy_none_drops_the_axis(self, fresh_cache):
        result, _ = explore_run(_request(accuracy="none"))
        assert all(row["accuracy"] is None for row in result.evaluated)
        # Without accuracy the 4- and 8-bit twins collapse to cost only.
        result_proxy, _ = explore_run(_request())
        assert len(result_proxy.frontier) >= len(result.frontier)

    def test_accuracy_quant_measures_top1_of_the_quantized_mini(self, fresh_cache, monkeypatch):
        from repro.harness import pretrained
        from repro.nn.zoo_mini import build_mini

        # An untrained mini keeps the test free of training; the measured
        # path (calibrate, quantize, forward) is the same either way.
        monkeypatch.setattr(pretrained, "trained_mini", lambda name, **_: build_mini(name))
        one = DesignSpace(
            clusters=(4,), groups=(6,), buffers_kib=(96,), ratios=(0.01,),
            acc_bits=(16,), act_bits=(4,), weight_bits=(4,),
        )
        result, _ = explore_run(_request(space=one, accuracy="quant", accuracy_samples=32))
        (row,) = result.evaluated
        assert row["accuracy_metric"] == "top1"
        assert 0.0 <= row["accuracy"] <= 1.0

    def test_halving_keeps_ceil_n_over_eta(self, fresh_cache):
        obs = Registry()
        result, _ = explore_run(_request(strategy="halving", eta=4), obs=obs)
        _assert_reconciles(obs)
        assert len(result.evaluated) == 2  # ceil(8/4)
        assert _counter(obs, "explore/refined") == 2
        assert _counter(obs, "explore/refine_evaluated") == 2
        assert result.rungs == 2

    def test_rejects_unknown_network_strategy_and_eta(self):
        with pytest.raises(ConfigError):
            explore_run(_request(network="lenet5"))
        with pytest.raises(ConfigError):
            explore_run(_request(strategy="anneal"))
        with pytest.raises(ConfigError):
            explore_run(_request(eta=1))

    def test_request_roundtrips_through_json_dict(self):
        from repro.harness.serialize import to_jsonable

        req = _request(budget_mm2=3.5, strategy="halving", max_candidates=10)
        again = ExploreRequest.from_dict(to_jsonable(req.to_dict()))
        assert again == req
        with pytest.raises(ConfigError):
            ExploreRequest.from_dict({"network": "alexnet", "warp": 9})


class TestReproducibility:
    def test_cold_warm_byte_identity(self, tmp_path):
        # Speed is not asserted here: the counters prove the warm run
        # computed nothing; CI's bench-smoke job gates the replay's speed
        # through the simcache_warm_sweep case's speedup ratio.
        cache_dir = tmp_path / "cache"
        try:
            set_active(SimCache(root=cache_dir))
            obs_cold = Registry()
            _, cold = explore_run(_request(), obs=obs_cold)

            # A fresh SimCache instance on the warm directory.
            set_active(SimCache(root=cache_dir))
            obs_warm = Registry()
            _, warm = explore_run(_request(), obs=obs_warm)
        finally:
            set_active(None)

        assert canonical_envelope_bytes(cold) == canonical_envelope_bytes(warm)
        _assert_reconciles(obs_warm)
        # Cost cells compute on every run; only the accuracy cells replay.
        assert _counter(obs_warm, "explore/evaluated") == len(cold["result"]["evaluated"])

    def test_inline_and_run_dir_envelopes_agree(self, tmp_path, fresh_cache):
        _, inline = explore_run(_request())
        _, rundir = explore_run(_request(), run_dir=tmp_path / "run")
        assert canonical_envelope_bytes(inline) == canonical_envelope_bytes(rundir)
        disk = load_json(tmp_path / "run" / "envelope.json")
        assert canonical_envelope_bytes(disk) == canonical_envelope_bytes(inline)
        assert is_explore_run(tmp_path / "run")
        assert not is_explore_run(tmp_path)

    def test_resume_of_a_finished_run_is_idempotent(self, tmp_path, fresh_cache):
        _, first = explore_run(_request(), run_dir=tmp_path / "run")
        result, second = explore_resume(tmp_path / "run")
        assert canonical_envelope_bytes(first) == canonical_envelope_bytes(second)
        assert result.network == "alexnet"

    def test_marker_mismatch_is_refused(self, tmp_path, fresh_cache):
        explore_run(_request(), run_dir=tmp_path / "run")
        with pytest.raises(ArtifactIntegrityError):
            explore_run(_request(budget_mm2=9.9), run_dir=tmp_path / "run")

    def test_resume_requires_a_marker(self, tmp_path):
        with pytest.raises(ArtifactIntegrityError):
            explore_resume(tmp_path)


class TestKillResumeCLI:
    def test_explore_kill_resume_byte_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        argv = [
            "explore", "alexnet", "--seed", "7", "--no-cache",
            "--clusters", "4", "8", "--groups", "6", "--buffers-kib", "96", "384",
            "--ratios", "0.01", "--acc-bits", "16", "--act-bits", "4", "8",
        ]
        killed = _repro(
            *argv, "--run-dir", str(run_dir),
            env=dict(CLI_ENV, **{KILL_AFTER_ENV: "3"}),
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert len(list((run_dir / "rungs" / "0" / "cells").glob("*.json"))) == 3
        assert not (run_dir / "envelope.json").exists()

        resumed = _repro("resume", str(run_dir), "--no-cache")
        assert resumed.returncode == 0, resumed.stderr
        envelope = load_json(run_dir / "envelope.json")

        reference = _repro(*argv, "--json", str(tmp_path / "ref.json"))
        assert reference.returncode == 0, reference.stderr
        ref = load_json(tmp_path / "ref.json")
        assert canonical_envelope_bytes(envelope) == canonical_envelope_bytes(ref)

    def test_resume_dispatches_on_the_marker(self, tmp_path):
        # A directory without explore.json falls through to sweep resume,
        # which rejects it for having no manifest.
        proc = _repro("resume", str(tmp_path))
        assert proc.returncode == 2
        assert "manifest" in proc.stderr


class TestExploreCLI:
    def test_unknown_network_and_strategy_exit_2(self, capsys):
        assert main(["explore", "lenet5"]) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["explore", "alexnet", "--strategy", "anneal"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_explore_writes_json_and_csv(self, tmp_path, capsys, fresh_cache):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main([
            "explore", "alexnet", "--seed", "7",
            "--clusters", "4", "--groups", "6", "--buffers-kib", "96",
            "--ratios", "0.03", "--acc-bits", "24",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        envelope = load_json(json_path)
        assert envelope["schema"] == EXPLORE_SCHEMA
        assert envelope["volatile"] == ["run_id", "created"]
        assert envelope["result"]["evaluated"]
        from repro.harness.serialize import load_csv

        rows = load_csv(csv_path)
        assert rows and "on_frontier" in rows[0]

    def test_marker_file_name_is_stable(self, tmp_path, fresh_cache):
        # docs and the resume dispatch both rely on the literal name.
        explore_run(_request(), run_dir=tmp_path / "run")
        assert (tmp_path / "run" / EXPLORE_MARKER).exists()
