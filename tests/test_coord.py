"""Tests for the distributed sweep coordination layer (docs/COORD.md).

Covers the lease protocol itself (atomic claims, heartbeats, fencing
tokens, rename-CAS steals), the clock-skew guarantee (expiry is
observation-based on each worker's own monotonic clock — wall clocks
never participate), first-durable-record-wins double-completion
handling, the exactly-reconciling ``coord/*`` counters, ``repro
status``/``repro work`` CLI surfaces, the parse-time lease-knob
validation, and the satellite fixes (prune race tolerance, the
config-mismatch diff in resume errors).
"""

from __future__ import annotations

import multiprocessing
import os
import socket
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ArtifactIntegrityError, LeaseError, ReproError, StaleOwnerError
from repro.harness.coord import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    LEASE_SCHEMA,
    CellCoordinator,
    Lease,
    LeaseManager,
    default_owner_id,
    safe_cell_filename,
)
from repro.harness.resilience import (
    PLAN_ASSEMBLERS,
    CellSpec,
    RetryPolicy,
    RunDir,
    SweepPlan,
    effective_lease_ttl,
    execute_sweep,
    register_cell_runner,
    status_run,
    work_run,
)
from repro.harness.serialize import load_json, save_json
from repro.harness.simcache import SimCache
from repro.obs import Registry


# ---------------------------------------------------------------------------
# Synthetic cells (registered at import time so forked workers inherit).
# ---------------------------------------------------------------------------


def _cell_double(params):
    return {"value": params["x"] * 2}


register_cell_runner("c_ok", _cell_double)


class _RowsResult(dict):
    """Dict result with the ``format()`` the CLI drain path expects."""

    def format(self):
        return f"{len(self['rows'])} ok, {len(self['failed'])} failed"


def _rows(plan, records):
    return _RowsResult(
        rows={c: r["result"] for c, r in records.items() if r.get("status") == "ok"},
        failed=sorted(c for c, r in records.items() if r.get("status") != "ok"),
    )


PLAN_ASSEMBLERS["coordplan"] = _rows


def _plan(n=3, seed=0):
    return SweepPlan(
        plan="coordplan",
        experiment="coordplan",
        description="coordination cells",
        seed=seed,
        params={},
        cells=[CellSpec(f"cell{i}", "c_ok", {"x": i}) for i in range(n)],
    )


class _FakeClock:
    """An injectable monotonic clock a test can advance by hand."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _manager(root, owner, clock=None, ttl=5.0, obs=None, **kw):
    return LeaseManager(
        root,
        owner=owner,
        ttl_s=ttl,
        heartbeat_s=0.1,
        obs=obs if obs is not None else Registry(),
        clock=clock if clock is not None else _FakeClock(),
        **kw,
    )


# ---------------------------------------------------------------------------
# Lease mechanics
# ---------------------------------------------------------------------------


class TestLeaseManager:
    def test_claim_creates_schema_valid_lease_file(self, tmp_path):
        mgr = _manager(tmp_path, "a")
        lease = mgr.try_claim("cell0")
        assert lease is not None and mgr.holds("cell0")
        doc = load_json(mgr.lease_path("cell0"))
        assert doc["schema"] == LEASE_SCHEMA
        assert doc["owner"] == "a" and doc["token"] == 1
        assert doc["cell_id"] == "cell0"

    def test_fresh_claim_is_exclusive(self, tmp_path):
        a, b = _manager(tmp_path, "a"), _manager(tmp_path, "b")
        assert a.try_claim("cell0") is not None
        assert b.try_claim("cell0") is None
        assert b.obs.counter("coord/contention").value == 1

    def test_release_unlinks_only_our_lease(self, tmp_path):
        a = _manager(tmp_path, "a")
        a.try_claim("cell0")
        a.release("cell0", "completed")
        assert not a.lease_path("cell0").exists()
        # a second release of a cell we no longer hold is a no-op
        a.release("cell0", "completed")
        assert a.obs.counter("coord/completed").value == 1

    def test_release_rejects_unknown_outcome(self, tmp_path):
        a = _manager(tmp_path, "a")
        with pytest.raises(LeaseError):
            a.release("cell0", "misplaced")

    def test_heartbeat_renews_and_counts(self, tmp_path):
        clock = _FakeClock()
        a = _manager(tmp_path, "a", clock=clock)
        a.try_claim("cell0")
        clock.advance(0.5)
        lease = a.heartbeat("cell0")
        assert lease.heartbeats == 1
        assert lease.elapsed_s == pytest.approx(0.5, abs=0.01)
        doc = load_json(a.lease_path("cell0"))
        assert doc["heartbeats"] == 1

    def test_heartbeat_without_claim_raises(self, tmp_path):
        a = _manager(tmp_path, "a")
        with pytest.raises(LeaseError, match="does not hold"):
            a.heartbeat("cell0")

    def test_heartbeat_after_steal_raises_stale_owner(self, tmp_path):
        clock_a, clock_b = _FakeClock(), _FakeClock()
        a = _manager(tmp_path, "a", clock=clock_a, ttl=1.0)
        b = _manager(tmp_path, "b", clock=clock_b, ttl=1.0)
        a.try_claim("cell0")
        assert b.try_claim("cell0") is None  # starts b's staleness clock
        clock_b.advance(5.0)  # a never renews: stale on b's clock
        stolen = b.try_claim("cell0")
        assert stolen is not None and stolen.token == 2
        with pytest.raises(StaleOwnerError) as err:
            a.heartbeat("cell0")
        assert "b" in str(err.value)
        # the raise did not settle the claim; a still decides via release
        assert a.holds("cell0")
        a.release("cell0", "expired")
        assert a.obs.counter("coord/expired").value == 1

    def test_steal_is_fenced_by_token(self, tmp_path):
        clock_b = _FakeClock()
        a = _manager(tmp_path, "a", ttl=1.0)
        b = _manager(tmp_path, "b", clock=clock_b, ttl=1.0)
        a.try_claim("cell0")
        b.try_claim("cell0")
        clock_b.advance(3.0)
        assert b.try_claim("cell0").token == 2
        # a's release must not remove b's (re-owned, higher-token) lease
        a.release("cell0", "expired")
        assert b.lease_path("cell0").exists()
        assert load_json(b.lease_path("cell0"))["token"] == 2

    def test_corrupt_lease_is_stealable_after_ttl(self, tmp_path):
        clock = _FakeClock()
        b = _manager(tmp_path, "b", clock=clock, ttl=1.0)
        path = b.lease_path("cell0")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all")
        assert b.try_claim("cell0") is None  # corrupt ≠ immediately free
        clock.advance(3.0)
        lease = b.try_claim("cell0")
        assert lease is not None and lease.token == 1
        assert b.obs.counter("coord/stale_detected").value == 1

    def test_reclaim_of_own_lease_is_idempotent(self, tmp_path):
        a = _manager(tmp_path, "a")
        first = a.try_claim("cell0")
        again = a.try_claim("cell0")
        assert again is first
        assert a.obs.counter("coord/claimed").value == 1

    def test_safe_cell_filename_sanitizes(self):
        assert safe_cell_filename("a/b c", ".lease.json") == "a_b_c.lease.json"
        assert safe_cell_filename("rate=1e-3") == "rate=1e-3.json"

    def test_cleanup_sweeps_directory_empty(self, tmp_path):
        a = _manager(tmp_path / "leases", "a")
        a.try_claim("cell0")
        a.try_claim("cell1")
        a.release_all()
        removed = a.cleanup()
        assert removed == 0  # release already unlinked them
        assert not (tmp_path / "leases").exists()


class TestCounterReconciliation:
    def test_every_claim_lands_in_exactly_one_bucket(self, tmp_path):
        obs = Registry()
        clock = _FakeClock()
        a = _manager(tmp_path, "a", clock=clock, ttl=1.0, obs=obs)
        b = _manager(tmp_path, "b", clock=_FakeClock(), ttl=1.0, obs=obs)
        a.try_claim("done")
        a.release("done", "completed")
        a.try_claim("dropped")
        a.release("dropped", "released")
        a.try_claim("stolen")
        b.try_claim("stolen")
        for mgr in (b,):
            mgr.clock.advance(3.0)
        assert b.try_claim("stolen") is not None
        with pytest.raises(StaleOwnerError):
            a.heartbeat("stolen")
        a.release("stolen", "expired")
        b.release("stolen", "completed")
        snap = obs.snapshot()
        assert snap["coord/claimed"] == (
            snap["coord/completed"] + snap["coord/expired"] + snap.get("coord/released", 0)
        )
        assert snap["coord/claimed"] == 4
        assert snap["coord/steals"] == 1


# ---------------------------------------------------------------------------
# Clock skew: expiry never compares wall clocks across workers
# ---------------------------------------------------------------------------


class TestClockSkew:
    """Satellite d: two fake workers with wildly skewed wall clocks.

    Owners ``a``/``b`` are synthetic (not ``host:pid:nonce``), so the
    dead-owner fast path is undecidable and every expiry decision goes
    through the observation clock — the code path these tests pin down.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_absurd_wall_clock_timestamps_do_not_expire_leases(self, tmp_path, seed):
        import random

        rng = random.Random(seed)
        skew = rng.uniform(-1e6, 1e6)  # seconds of wall-clock skew
        b_clock = _FakeClock(start=rng.uniform(0, 1e4))
        a = _manager(tmp_path, "a", ttl=10.0)
        b = _manager(tmp_path, "b", clock=b_clock, ttl=10.0)
        a.try_claim("cell0")
        # rewrite the lease with a wall timestamp from a skewed clock
        doc = load_json(a.lease_path("cell0"))
        doc["claimed_wall"] = f"1970-01-01T00:00:00+00:00 (skew {skew:+.0f}s)"
        save_json(doc, a.lease_path("cell0"))
        assert b.try_claim("cell0") is None  # first sighting, never a steal
        b_clock.advance(5.0)  # under ttl + margin on b's own clock
        assert b.try_claim("cell0") is None
        b_clock.advance(10.0)  # now past ttl + margin of *observation*
        assert b.try_claim("cell0") is not None

    def test_heartbeat_resets_the_observers_staleness_clock(self, tmp_path):
        a_clock, b_clock = _FakeClock(), _FakeClock()
        a = _manager(tmp_path, "a", clock=a_clock, ttl=1.0)
        b = _manager(tmp_path, "b", clock=b_clock, ttl=1.0)
        a.try_claim("cell0")
        assert b.try_claim("cell0") is None
        b_clock.advance(1.5)
        a.heartbeat("cell0")  # fingerprint changes just in time
        assert b.try_claim("cell0") is None  # observation restarts
        b_clock.advance(1.5)
        assert b.try_claim("cell0") is None  # still within new window
        b_clock.advance(1.0)
        assert b.try_claim("cell0") is not None  # silence finally expires it

    def test_observer_never_trusts_the_leases_own_ttl_less_margin(self, tmp_path):
        b_clock = _FakeClock()
        b = _manager(tmp_path, "b", clock=b_clock, ttl=1.0, skew_margin_s=2.0)
        a = _manager(tmp_path, "a", ttl=1.0)
        a.try_claim("cell0")
        assert b.try_claim("cell0") is None
        b_clock.advance(2.5)  # > ttl but <= ttl + margin
        assert b.try_claim("cell0") is None
        b_clock.advance(1.0)
        assert b.try_claim("cell0") is not None


class TestDeadOwnerFastPath:
    def test_same_host_dead_pid_is_stale_immediately(self, tmp_path):
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()
        dead_owner = f"{socket.gethostname()}:{proc.pid}:deadbe"
        writer = _manager(tmp_path, dead_owner)
        writer.try_claim("cell0")
        thief = _manager(tmp_path, "thief")  # no clock advance at all
        lease = thief.try_claim("cell0")
        assert lease is not None and lease.token == 2
        assert thief.obs.counter("coord/steals").value == 1

    def test_live_same_host_owner_is_not_fast_path_stale(self, tmp_path):
        live_owner = f"{socket.gethostname()}:{os.getpid()}:abc123"
        writer = _manager(tmp_path, live_owner)
        writer.try_claim("cell0")
        thief = _manager(tmp_path, "thief")
        assert thief.try_claim("cell0") is None


# ---------------------------------------------------------------------------
# Double completion: first durable record wins
# ---------------------------------------------------------------------------


class TestWriteCellExclusive:
    def test_first_ok_record_wins_and_duplicate_is_discarded(self, tmp_path):
        rd = RunDir(tmp_path / "run")
        rd.init(_plan(1))
        spec = _plan(1).cells[0]
        first, wrote = rd.write_cell_exclusive(spec, "ok", result={"value": 0})
        assert wrote
        second, wrote = rd.write_cell_exclusive(spec, "ok", result={"value": 0})
        assert not wrote and second == first

    def test_diverging_ok_records_raise_cell_conflict(self, tmp_path):
        rd = RunDir(tmp_path / "run")
        rd.init(_plan(1))
        spec = _plan(1).cells[0]
        rd.write_cell_exclusive(spec, "ok", result={"value": 0})
        with pytest.raises(ArtifactIntegrityError, match="diverging"):
            rd.write_cell_exclusive(spec, "ok", result={"value": 999})

    def test_ok_replaces_failed_but_not_vice_versa(self, tmp_path):
        rd = RunDir(tmp_path / "run")
        rd.init(_plan(1))
        spec = _plan(1).cells[0]
        rd.write_cell_exclusive(spec, "failed", error={"message": "boom"})
        record, wrote = rd.write_cell_exclusive(spec, "ok", result={"value": 0})
        assert wrote and record["status"] == "ok"
        record, wrote = rd.write_cell_exclusive(spec, "failed", error={"message": "boom"})
        assert not wrote and record["status"] == "ok"

    def test_coordinator_counts_duplicates(self, tmp_path):
        obs = Registry()
        rd = RunDir(tmp_path / "run")
        plan = _plan(1)
        rd.init(plan)
        coord = CellCoordinator(rd, owner="w", obs=obs)
        spec = plan.cells[0]
        rd.write_cell(spec, "ok", result={"value": 0})  # another worker won
        assert coord.begin(spec)[0] == "done"
        # a worker that had already launched the cell commits anyway
        coord.leases.try_claim(spec.cell_id)
        coord.commit(spec, "ok", result={"value": 0})
        snap = obs.snapshot()
        assert snap["coord/duplicates"] == 1
        assert snap["coord/claimed"] == snap["coord/completed"]


# ---------------------------------------------------------------------------
# The sweep executor on top of the protocol
# ---------------------------------------------------------------------------


class TestSweepIntegration:
    def test_sweep_leaves_zero_lease_files(self, tmp_path):
        obs = Registry()
        run = tmp_path / "run"
        result, envelope, _, _ = execute_sweep(_plan(3), run, obs=obs)
        assert result["rows"]["cell1"] == {"value": 2}
        assert not (run / "leases").exists()
        snap = obs.snapshot()
        assert snap["coord/claimed"] == 3
        assert snap["coord/claimed"] == snap["coord/completed"]

    def test_second_worker_adopts_completed_cells(self, tmp_path):
        run = tmp_path / "run"
        execute_sweep(_plan(3), run)
        obs = Registry()
        result, _, _, _ = work_run(run, obs=obs)
        assert len(result["rows"]) == 3
        snap = obs.snapshot()
        assert snap.get("coord/claimed", 0) == 0  # nothing left to claim
        assert snap["resilience/cells_skipped"] == 3

    def test_concurrent_worker_contention_defers_not_duplicates(self, tmp_path):
        """A validly-held cell is waited out, then adopted."""
        run = tmp_path / "run"
        plan = _plan(2)
        rd = RunDir(run)
        rd.init(plan)
        # a live foreign worker (this very process) holds cell0
        holder = LeaseManager(rd.leases_dir, owner="peer", ttl_s=30.0)
        holder.try_claim("cell0")
        obs = Registry()
        coord = CellCoordinator(rd, owner="w", obs=obs, heartbeat_s=0.05)
        verdict, payload = coord.begin(plan.cells[0])
        assert verdict == "wait" and payload == pytest.approx(coord.poll_s)
        # the peer finishes and releases; our next begin adopts the record
        rd.write_cell(plan.cells[0], "ok", result={"value": 0})
        holder.release("cell0", "completed")
        verdict, record = coord.begin(plan.cells[0])
        assert verdict == "done" and record["status"] == "ok"

    def test_effective_lease_ttl_scales_past_timeout(self):
        assert effective_lease_ttl(None, None, None) == DEFAULT_LEASE_TTL_S
        assert effective_lease_ttl(12.5, None, None) == 12.5
        long_cells = RetryPolicy(timeout_s=300.0)
        assert effective_lease_ttl(None, None, long_cells) == 300.0 + 2 * DEFAULT_HEARTBEAT_S
        assert effective_lease_ttl(None, 5.0, long_cells) == 310.0

    def test_status_run_reports_records_and_leases(self, tmp_path):
        run = tmp_path / "run"
        plan = _plan(3)
        rd = RunDir(run)
        rd.init(plan)
        rd.write_cell(plan.cells[0], "ok", result={"value": 0})
        holder = LeaseManager(rd.leases_dir, owner="worker-1", ttl_s=9.0)
        holder.try_claim("cell1")
        status = status_run(run)
        states = {c["cell_id"]: c["state"] for c in status["cells"]}
        assert states == {"cell0": "ok", "cell1": "leased", "cell2": "pending"}
        assert status["counts"] == {
            "total": 3, "ok": 1, "failed": 0, "leased": 1, "pending": 1,
        }
        leased = next(c for c in status["cells"] if c["cell_id"] == "cell1")
        assert leased["owner"] == "worker-1" and leased["token"] == 1


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCoordinationCli:
    def test_status_command_renders_table(self, tmp_path, capsys):
        run = tmp_path / "run"
        execute_sweep(_plan(2), run)
        assert main(["status", str(run)]) == 0
        out = capsys.readouterr().out
        assert "envelope=yes" in out
        assert "cell0" in out and "cell1" in out
        assert "2 ok, 0 failed, 0 leased, 0 pending" in out

    def test_work_command_drains_and_reports_owner(self, tmp_path, capsys):
        run = tmp_path / "run"
        rd = RunDir(run)
        rd.init(_plan(2))
        assert main(["work", str(run)]) == 0
        out = capsys.readouterr().out
        assert "worker " in out and "draining" in out
        assert (run / "envelope.json").exists()

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--lease-ttl", "1", "--heartbeat", "2"], "must exceed the --heartbeat"),
            (["--lease-ttl", "5", "--timeout", "10"], "must exceed --timeout"),
        ],
    )
    def test_inconsistent_lease_knobs_exit_2(self, tmp_path, capsys, argv, needle):
        assert main(["work", str(tmp_path / "nowhere"), *argv]) == 2
        assert needle in capsys.readouterr().err

    def test_nonpositive_lease_knobs_rejected_at_parse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["work", str(tmp_path), "--lease-ttl", "0"])
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Satellite fixes
# ---------------------------------------------------------------------------


class TestSatelliteFixes:
    def test_resume_mismatch_names_both_hashes_and_keys(self, tmp_path):
        """Satellite b: the refusal must say *what* differs."""
        run = tmp_path / "run"
        execute_sweep(_plan(2, seed=0), run)
        other = _plan(2, seed=99)
        with pytest.raises(ArtifactIntegrityError) as err:
            execute_sweep(other, run)
        message = str(err.value)
        manifest = load_json(run / "manifest.json")
        assert manifest["config_hash"] in message
        assert other.config_hash() in message
        assert "seed" in message

    def test_prune_tolerates_concurrently_vanishing_entries(self, tmp_path, monkeypatch):
        """Satellite a: a file deleted between stat and unlink is a
        counted skip, not a crash."""
        obs = Registry()
        cache = SimCache(root=tmp_path / "cache", obs=obs)
        for i in range(4):
            cache.memoize({"cell": i}, lambda i=i: {"data": "x" * 256, "i": i})

        real_unlink = Path.unlink
        vanished = []

        def racing_unlink(self, *a, **kw):
            if self.suffix == ".json" and not vanished:
                vanished.append(self)
                real_unlink(self)  # the concurrent worker got there first
                raise FileNotFoundError(str(self))
            return real_unlink(self, *a, **kw)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        removed, remaining = cache.prune(max_bytes=0)
        assert removed == 3  # 4 entries, one vanished mid-prune
        assert remaining == 0
        assert obs.snapshot()["simcache/prune_skipped"] == 1

    def test_prune_tolerates_vanish_before_stat(self, tmp_path, monkeypatch):
        obs = Registry()
        cache = SimCache(root=tmp_path / "cache", obs=obs)
        cache.memoize({"cell": 1}, lambda: {"data": "x" * 64})

        real_stat = Path.stat

        def racing_stat(self, *a, **kw):
            if self.suffix == ".json":
                raise FileNotFoundError(str(self))
            return real_stat(self, *a, **kw)

        monkeypatch.setattr(Path, "stat", racing_stat)
        removed, remaining = cache.prune(max_bytes=0)
        assert removed == 0 and remaining == 0
        assert obs.snapshot()["simcache/prune_skipped"] == 1

    def test_lease_errors_are_repro_errors(self):
        assert issubclass(LeaseError, ReproError)
        assert issubclass(StaleOwnerError, LeaseError)
        err = StaleOwnerError("lost", cell_id="c", owner="a", current_owner="b")
        assert "c" in str(err) and "b" in str(err)
