"""Chaos convergence tests (docs/COORD.md, ISSUE acceptance property).

For every seeded kill schedule: (serial cold run) == (3 real worker
processes drained with SIGKILLs at protocol-critical instants, then
``repro resume``) == (warm re-run) — byte-identical canonical envelope
bytes, exactly-reconciling ``coord/*`` counters, and zero orphaned
lease files after the final drain.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

import tests.chaos.cells as cells  # registers the chaos runner/assembler
from tests.chaos.harness import KILL_HOOKS, drain, kill_schedule, spawn_workers
from repro.harness.resilience import (
    RetryPolicy,
    RunDir,
    canonical_envelope_bytes,
    execute_sweep,
    work_run,
)
from repro.obs import Registry

SIGKILLED = -signal.SIGKILL
LEASE_TTL = 1.0
HEARTBEAT = 0.1


@pytest.fixture(autouse=True)
def _no_inherited_kill_hooks(monkeypatch):
    for hook in KILL_HOOKS:
        monkeypatch.delenv(hook, raising=False)


def _retry():
    return RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_factor=1.0)


def _serial_reference(tmp_path, plan):
    _, envelope, _, _ = execute_sweep(plan, tmp_path / "ref", retry=_retry())
    return canonical_envelope_bytes(envelope)


def _resume(run_dir, obs=None):
    return work_run(
        run_dir,
        retry=_retry(),
        obs=obs,
        lease_ttl=LEASE_TTL,
        heartbeat_s=HEARTBEAT,
    )


def _assert_reconciled(obs: Registry):
    snap = obs.snapshot()
    assert snap.get("coord/claimed", 0) == (
        snap.get("coord/completed", 0)
        + snap.get("coord/expired", 0)
        + snap.get("coord/released", 0)
    ), snap


def _assert_no_leases(run_dir):
    leases = Path(run_dir) / "leases"
    assert not leases.exists() or not list(leases.iterdir())


def _wait_for_lease(run_dir, timeout=30.0):
    leases = Path(run_dir) / "leases"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = sorted(leases.glob("*.lease.json")) if leases.exists() else []
        if found:
            return found
        time.sleep(0.02)
    raise AssertionError("no worker claimed a lease in time")


class TestSeededSchedules:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_chaotic_drain_converges_to_serial_bytes(self, tmp_path, seed):
        plan = cells.chaos_plan(n_cells=8, seed=seed)
        reference = _serial_reference(tmp_path, plan)

        run = tmp_path / "run"
        RunDir(run).init(plan)
        schedule = kill_schedule(seed, workers=3, min_kills=2)
        assert sum(1 for extra in schedule if extra) >= 2
        codes = drain(spawn_workers(run, schedule, LEASE_TTL, HEARTBEAT))
        # every armed worker that processed anything died by SIGKILL;
        # unarmed workers either finished (0) or hold no guarantee here
        assert all(code in (0, SIGKILLED) for code in codes), codes

        obs = Registry()
        _, envelope, _, _ = _resume(run, obs=obs)
        assert canonical_envelope_bytes(envelope) == reference
        _assert_reconciled(obs)
        _assert_no_leases(run)

        # warm re-run: nothing left to execute, identical bytes again
        warm_obs = Registry()
        _, warm, _, _ = _resume(run, obs=warm_obs)
        assert canonical_envelope_bytes(warm) == reference
        assert warm_obs.snapshot().get("coord/claimed", 0) == 0
        _assert_no_leases(run)


class TestTargetedKills:
    def test_kill_between_claim_and_record_is_stolen_and_recovered(self, tmp_path):
        plan = cells.chaos_plan(n_cells=4, seed=11)
        reference = _serial_reference(tmp_path, plan)
        run = tmp_path / "run"
        RunDir(run).init(plan)

        [code] = drain(
            spawn_workers(run, [{"REPRO_KILL_AFTER_CLAIMS": "1"}], LEASE_TTL, HEARTBEAT)
        )
        assert code == SIGKILLED
        # the dead worker's lease is orphaned: a claim with no record
        orphaned = list((run / "leases").glob("*.lease.json"))
        assert orphaned
        assert not list((run / "cells").glob("*.json"))

        obs = Registry()
        _, envelope, _, _ = _resume(run, obs=obs)
        assert canonical_envelope_bytes(envelope) == reference
        assert obs.snapshot()["coord/steals"] >= 1  # dead-owner fast path
        _assert_reconciled(obs)
        _assert_no_leases(run)

    def test_kill_during_heartbeat_is_stolen_and_recovered(self, tmp_path):
        plan = cells.chaos_plan(n_cells=4, seed=12)
        reference = _serial_reference(tmp_path, plan)
        run = tmp_path / "run"
        RunDir(run).init(plan)

        [code] = drain(
            spawn_workers(run, [{"REPRO_KILL_AFTER_HEARTBEATS": "1"}], LEASE_TTL, HEARTBEAT)
        )
        assert code == SIGKILLED
        stale = list((run / "leases").glob("*.lease.json"))
        assert stale  # mid-cell lease, freshly renewed, owner dead

        obs = Registry()
        _, envelope, _, _ = _resume(run, obs=obs)
        assert canonical_envelope_bytes(envelope) == reference
        assert obs.snapshot()["coord/steals"] >= 1
        _assert_reconciled(obs)
        _assert_no_leases(run)

    def test_stalled_live_worker_is_stolen_from_via_observation(self, tmp_path):
        """SIGSTOP exercises the TTL observation path: the owner's
        process is alive, so only elapsed silence on the observer's own
        clock can expire the lease."""
        plan = cells.chaos_plan(n_cells=4, seed=13)
        reference = _serial_reference(tmp_path, plan)
        run = tmp_path / "run"
        RunDir(run).init(plan)

        [proc] = spawn_workers(run, [{}], LEASE_TTL, HEARTBEAT)
        try:
            _wait_for_lease(run)
            os.kill(proc.pid, signal.SIGSTOP)

            obs = Registry()
            _, envelope, _, _ = _resume(run, obs=obs)
            assert canonical_envelope_bytes(envelope) == reference
            snap = obs.snapshot()
            assert snap["coord/steals"] >= 1
            assert snap["coord/stale_detected"] >= 1
            _assert_reconciled(obs)
            _assert_no_leases(run)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
