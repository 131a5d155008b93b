"""The HTTP work-dispatch protocol (docs/REMOTE.md).

Four layers:

- unit: the client's :class:`Backoff` schedule;
- the synchronous broker protocol through ``JobServer.handle_request``
  (claim/heartbeat/result/abandon, fencing rejections, idempotent and
  conflicting uploads, re-delivered claims, the TTL reaper on an
  injected clock, the remote/coord counter books);
- the worker's coordinator calls against a scripted client: one
  bounded attempt per request, uploads retried from later ticks;
- end-to-end: a real :class:`RemoteWorker` draining a live ``--workers
  0`` coordinator over real sockets, byte-identical to a cold serial
  run; the shared supervisor's crash, timeout, ``--jobs`` and SIGTERM
  handling on remote cells; plus the ``--connect`` CLI surfaces.

tests/chaos/test_remote_chaos.py adds the network-fault-injection
battery on top of the same protocol.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.errors import RemoteProtocolError
from repro.harness.remote import (
    ABANDON_SCHEMA,
    Backoff,
    CELLSPEC_SCHEMA,
    CLAIM_REQUEST_SCHEMA,
    HEARTBEAT_SCHEMA,
    RESULT_SCHEMA,
    RemoteCellBroker,
    RemoteClient,
    RemoteWorker,
)
from repro.harness.resilience import (
    CELL_RUNNERS,
    RetryPolicy,
    RunDir,
    canonical_envelope_bytes,
    execute_sweep,
    faults_plan,
)
from repro.harness.serialize import load_json
from repro.harness.serve import JOB_SCHEMA, TERMINAL_STATES, JobServer, ServeConfig
from repro.obs import Registry
from tests.chaos.harness import REPO, worker_env
from tests.test_serve_protocol import _LiveServer

FAULTS_DOC = {
    "schema": JOB_SCHEMA,
    "verb": "faults",
    "network": "alexnet",
    "params": {"rates": [0.0], "widths": [24]},
    "seed": 7,
}


#: A real ``repro work --connect`` process whose ``fault_rate`` runner
#: is replaced by ``{runner}`` (source text) before the CLI starts.
SWAPPED_WORKER = """\
import os, sys, time
from repro.harness import resilience
resilience.CELL_RUNNERS["fault_rate"] = {runner}
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _hard_exit(params):
    os._exit(9)


def _hang(params):
    time.sleep(3600)


def _rendezvous(root, params):
    """Check in, then wait until every cell of FAULTS_DOC has checked in:
    completes only when both cells run at the same time."""
    (root / f"{params.get('rate', params.get('width'))}").touch()
    deadline = time.monotonic() + 60
    while len(list(root.iterdir())) < 2:
        if time.monotonic() > deadline:
            raise TimeoutError("the other cell never ran concurrently")
        time.sleep(0.01)
    return {"met": True}


def _fail_first(marker, runner, params):
    """Raise on the first call across all worker processes, then run
    ``runner``: exactly one attempt of one cell fails."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return runner(params)
    raise RuntimeError("the first attempt fails")


def spawn_swapped_worker(url, runner, *flags):
    return subprocess.Popen(
        [sys.executable, "-c", SWAPPED_WORKER.format(runner=runner),
         "work", "--connect", url, *flags],
        env=worker_env(), cwd=str(REPO),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def finish(proc, timeout=120.0):
    """Wait a worker out (hard-killing it past ``timeout``); returns
    its exit code and output."""
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
    return proc.returncode, output


def reference_envelope(tmp_path):
    """The envelope a cold serial run of FAULTS_DOC's plan produces."""
    plan = faults_plan(
        "alexnet", rates=(0.0,), widths=(24,), policy="degrade",
        model="bitflip", ratio=0.03, seed=7,
    )
    ref_dir = tmp_path / "reference"
    RunDir(ref_dir).init(plan)
    _, envelope, _, _ = execute_sweep(plan, ref_dir)
    return envelope


# ---------------------------------------------------------------------------
# Backoff
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_grows_exponentially_to_the_cap(self):
        b = Backoff(base_s=1.0, factor=2.0, cap_s=6.0, jitter=0.0)
        assert [b.next_delay() for _ in range(5)] == [1.0, 2.0, 4.0, 6.0, 6.0]

    def test_jitter_stays_within_the_fraction(self):
        b = Backoff(base_s=1.0, factor=2.0, cap_s=64.0, jitter=0.25,
                    rng=random.Random(7))
        for i in range(8):
            raw = min(64.0, 2.0 ** i)
            assert raw * 0.75 <= b.next_delay() <= raw * 1.25

    def test_reset_restarts_the_schedule(self):
        b = Backoff(base_s=1.0, factor=2.0, cap_s=64.0, jitter=0.0)
        assert b.next_delay() == 1.0
        assert b.next_delay() == 2.0
        b.reset()
        assert b.next_delay() == 1.0

    def test_never_negative(self):
        b = Backoff(base_s=0.01, jitter=1.0, rng=random.Random(3))
        assert all(b.next_delay() >= 0.0 for _ in range(50))


# ---------------------------------------------------------------------------
# The broker through the sync request core (no sockets)
# ---------------------------------------------------------------------------


def make_server(tmp_path, **config_kwargs):
    config = ServeConfig(spool=tmp_path / "spool", **config_kwargs)
    return JobServer(config)


def submit(server, doc=FAULTS_DOC):
    status, body, _ = server.handle_request("POST", "/jobs", json.dumps(doc).encode())
    assert status == 202
    return body["job_id"]


def claim(server, worker="w1"):
    return server.handle_request(
        "POST", "/cells/claim",
        json.dumps({"schema": CLAIM_REQUEST_SCHEMA, "worker": worker}).encode(),
    )


def upload(server, claim_doc, status="ok", result=None, worker=None, token=None):
    body = {
        "schema": RESULT_SCHEMA,
        "worker": worker or claim_doc["lease"]["owner"],
        "token": claim_doc["lease"]["token"] if token is None else token,
        "status": status,
        "result": result if result is not None else {"value": 1},
        "error": None if status == "ok" else {"message": "boom"},
        "attempts": 1,
    }
    return server.handle_request(
        "PUT", f"/cells/{claim_doc['claim_id']}/result", json.dumps(body).encode()
    )


def lease_files(server, job_id):
    return sorted((server.store.run_dir(job_id) / "leases").glob("*.lease.json"))


class TestClaim:
    def test_claim_returns_cellspec_with_lease_and_fencing_token(self, tmp_path):
        server = make_server(tmp_path)
        job_id = submit(server)
        status, doc, _ = claim(server)
        assert status == 200
        assert doc["schema"] == CELLSPEC_SCHEMA
        assert doc["job_id"] == job_id
        assert doc["claim_id"]
        assert doc["cell"]["cell_id"] in ("rate-0", "width-24")
        assert doc["cell"]["kind"] in ("fault_rate", "fault_width")
        assert doc["seed"] == 7
        assert doc["lease"]["owner"] == "w1"
        assert doc["lease"]["token"] >= 1
        assert doc["lease"]["ttl_s"] > doc["lease"]["heartbeat_s"] > 0
        # the claim is a real lease file local workers contend on
        assert len(lease_files(server, job_id)) == 1

    def test_idle_only_when_no_jobs_exist(self, tmp_path):
        server = make_server(tmp_path)
        status, doc, _ = claim(server)
        assert status == 200
        assert doc["cell"] is None
        assert doc["idle"] is True

        submit(server)
        # both cells leased out: w3 gets "try again", not "go home"
        claim(server, worker="w1")
        claim(server, worker="w2")
        status, doc, _ = claim(server, worker="w3")
        assert status == 200
        assert doc["cell"] is None
        assert doc["idle"] is False
        assert doc["retry_after_s"] > 0

    def test_two_workers_claim_disjoint_cells(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, one, _ = claim(server, worker="w1")
        _, two, _ = claim(server, worker="w2")
        assert one["cell"]["cell_id"] != two["cell"]["cell_id"]

    def test_redelivered_claim_returns_same_cell_and_supersedes(self, tmp_path):
        """A worker whose claim response was lost in transit re-claims:
        it gets the same cell back under the same lease, and the
        orphaned first claim settles expired so the books balance."""
        server = make_server(tmp_path)
        submit(server)
        _, first, _ = claim(server)
        _, second, _ = claim(server)
        assert second["cell"]["cell_id"] == first["cell"]["cell_id"]
        assert second["claim_id"] != first["claim_id"]
        assert second["lease"]["token"] == first["lease"]["token"]
        counters = server.obs.snapshot()
        assert counters["remote/claims"] == 2
        assert counters["remote/expired"] == 1
        # the superseded claim still resolves uploads idempotently
        status, doc, _ = upload(server, second)
        assert (status, doc["recorded"]) == (200, True)
        assert server.broker.stats()["reconciles"]

    def test_malformed_claim_is_a_structured_400(self, tmp_path):
        server = make_server(tmp_path)
        for bad in (b"not json", b"[]", b'{"schema": "nope", "worker": "w"}',
                    json.dumps({"schema": CLAIM_REQUEST_SCHEMA, "worker": ""}).encode()):
            status, doc, _ = server.handle_request("POST", "/cells/claim", bad)
            assert status == 400
            assert doc["error"] == "JobError"


class TestHeartbeat:
    def beat(self, server, claim_doc, token=None, worker=None):
        body = {
            "schema": HEARTBEAT_SCHEMA,
            "worker": worker or claim_doc["lease"]["owner"],
            "token": claim_doc["lease"]["token"] if token is None else token,
        }
        return server.handle_request(
            "POST", f"/cells/{claim_doc['claim_id']}/heartbeat", json.dumps(body).encode()
        )

    def test_renews_and_counts(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        status, beat, _ = self.beat(server, doc)
        assert status == 200
        assert beat["ok"] is True
        assert beat["heartbeats"] >= 1
        assert server.obs.snapshot()["remote/heartbeats"] == 1

    def test_stale_fencing_token_is_a_structured_409(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        status, body, _ = self.beat(server, doc, token=doc["lease"]["token"] + 5)
        assert status == 409
        assert body["error"] == "RemoteProtocolError"
        assert body["reason"] == "stale_token"
        # a wrong worker id is the same rejection
        status, body, _ = self.beat(server, doc, worker="imposter")
        assert (status, body["reason"]) == (409, "stale_token")
        assert server.obs.snapshot()["remote/stale_tokens"] == 2

    def test_unknown_claim_is_410(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        body = {"schema": HEARTBEAT_SCHEMA, "worker": "w1", "token": 1}
        status, doc, _ = server.handle_request(
            "POST", "/cells/no-such-claim/heartbeat", json.dumps(body).encode()
        )
        assert status == 410
        assert doc["reason"] == "unknown_claim"

    def test_settled_claim_is_410(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        upload(server, doc)
        status, body, _ = self.beat(server, doc)
        assert status == 410
        assert body["reason"] == "claim_settled"


class TestResult:
    def test_upload_settles_the_claim_and_releases_the_lease(self, tmp_path):
        server = make_server(tmp_path)
        job_id = submit(server)
        _, doc, _ = claim(server)
        status, body, _ = upload(server, doc)
        assert status == 200
        assert body == {"recorded": True, "duplicate": False, "state": "done"}
        assert lease_files(server, job_id) == []
        counters = server.obs.snapshot()
        assert counters["remote/claims"] == 1
        assert counters["remote/completed"] == 1
        assert server.broker.stats() == {
            "claims": 1, "completed": 1, "expired": 0, "abandoned": 0,
            "active": 0, "reconciles": True,
        }

    def test_duplicate_upload_is_idempotent_and_counted(self, tmp_path):
        """At-least-once semantics: the network retry of a result that
        already landed is discarded, counted, never an error."""
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        upload(server, doc, result={"value": 42})
        status, body, _ = upload(server, doc, result={"value": 42})
        assert status == 200
        assert body["duplicate"] is True
        counters = server.obs.snapshot()
        assert counters["remote/duplicates"] == 1
        assert counters["coord/duplicates"] == 1
        assert counters["remote/completed"] == 1  # settled exactly once
        assert server.broker.stats()["reconciles"]

    def test_diverging_upload_is_a_cell_conflict_409(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        upload(server, doc, result={"value": 1})
        status, body, _ = upload(server, doc, result={"value": 2})
        assert status == 409
        assert body["error"] == "ArtifactIntegrityError"
        assert body["reason"] == "cell_conflict"
        assert server.obs.snapshot()["remote/conflicts"] == 1

    def test_double_completion_across_the_network_boundary(self, tmp_path):
        """Satellite: a filesystem worker and a remote worker race the
        same cell; the local record lands first and the remote upload is
        the counted duplicate (first durable record wins)."""
        server = make_server(tmp_path)
        job_id = submit(server)
        _, doc, _ = claim(server)
        # the local worker computes the same cell and records first,
        # straight through the shared run dir
        rundir = RunDir(server.store.run_dir(job_id))
        plan = rundir.plan_from_manifest(rundir.load_manifest())
        spec = next(c for c in plan.cells if c.cell_id == doc["cell"]["cell_id"])
        _, wrote = rundir.write_cell_exclusive(spec, "ok", result={"value": 42})
        assert wrote
        status, body, _ = upload(server, doc, result={"value": 42})
        assert status == 200
        assert body["duplicate"] is True
        counters = server.obs.snapshot()
        assert counters["coord/duplicates"] == 1
        assert counters["remote/completed"] == 1
        assert server.broker.stats()["reconciles"]
        # ...and a diverging race is corruption, loudly
        _, doc2, _ = claim(server)
        spec2 = next(c for c in plan.cells if c.cell_id == doc2["cell"]["cell_id"])
        rundir.write_cell_exclusive(spec2, "ok", result={"value": 1})
        status, body, _ = upload(server, doc2, result={"value": 2})
        assert (status, body["reason"]) == (409, "cell_conflict")

    def test_stale_token_upload_is_rejected(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        status, body, _ = upload(server, doc, token=99)
        assert (status, body["reason"]) == (409, "stale_token")

    def test_malformed_result_fields_are_400(self, tmp_path):
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        for patch in ({"status": "maybe"}, {"attempts": 0}, {"attempts": True},
                      {"error": "a string"}, {"token": "1"}):
            body = {
                "schema": RESULT_SCHEMA, "worker": "w1",
                "token": doc["lease"]["token"], "status": "ok",
                "result": {}, "error": None, "attempts": 1,
            }
            body.update(patch)
            status, out, _ = server.handle_request(
                "PUT", f"/cells/{doc['claim_id']}/result", json.dumps(body).encode()
            )
            assert status == 400, patch
            assert out["error"] == "JobError"


class TestAbandonAndReaper:
    def test_abandon_releases_the_cell_for_others(self, tmp_path):
        server = make_server(tmp_path)
        job_id = submit(server)
        _, doc, _ = claim(server)
        body = {
            "schema": ABANDON_SCHEMA, "worker": "w1",
            "token": doc["lease"]["token"],
        }
        status, out, _ = server.handle_request(
            "POST", f"/cells/{doc['claim_id']}/abandon", json.dumps(body).encode()
        )
        assert status == 200
        assert out["released"] is True
        assert server.obs.snapshot()["remote/abandoned"] == 1
        # idempotent: a second abandon reports the settled state
        status, out, _ = server.handle_request(
            "POST", f"/cells/{doc['claim_id']}/abandon", json.dumps(body).encode()
        )
        assert (status, out["released"]) == (200, False)
        # another worker can claim the freed cell (and the other one)
        _, again, _ = claim(server, worker="w2")
        assert again["cell"] is not None
        assert len(lease_files(server, job_id)) == 1
        assert server.broker.stats()["reconciles"]

    def test_reaper_expires_silent_claims_and_late_upload_still_lands(self, tmp_path):
        server = make_server(tmp_path)
        job_id = submit(server)
        now = [0.0]
        obs = Registry()
        broker = RemoteCellBroker(
            server.store, server._claimable_job_ids,
            ttl_s=5.0, heartbeat_s=1.0, obs=obs, clock=lambda: now[0],
        )
        status, doc, _ = broker.claim({"schema": CLAIM_REQUEST_SCHEMA, "worker": "w1"})
        assert status == 200 and doc["cell"] is not None
        assert broker.reap() == 0  # fresh claim survives
        now[0] = 7.0  # past ttl + skew margin: the client went silent
        assert broker.reap() == 1
        assert obs.snapshot()["remote/expired"] == 1
        assert lease_files(server, job_id) == []
        # the zombie's heartbeat learns the claim is settled
        status, body, _ = broker.heartbeat(
            doc["claim_id"],
            {"schema": HEARTBEAT_SCHEMA, "worker": "w1", "token": doc["lease"]["token"]},
        )
        assert (status, body["reason"]) == (410, "claim_settled")
        # ...but its upload still lands: first durable record wins
        status, body = broker.result(
            doc["claim_id"],
            {
                "schema": RESULT_SCHEMA, "worker": "w1",
                "token": doc["lease"]["token"], "status": "ok",
                "result": {"value": 9}, "error": None, "attempts": 1,
            },
        )[:2]
        assert status == 200
        assert body["recorded"] is True
        assert body["state"] == "expired"
        counters = obs.snapshot()
        assert counters["remote/late_results"] == 1
        assert counters["remote/claims"] == 1
        assert counters["remote/claims"] == (
            counters.get("remote/completed", 0) + counters["remote/expired"]
            + counters.get("remote/abandoned", 0)
        )

    def test_forget_job_settles_outstanding_claims(self, tmp_path):
        server = make_server(tmp_path)
        job_id = submit(server)
        _, doc, _ = claim(server)
        assert doc["cell"] is not None
        server.broker.forget_job(job_id)
        stats = server.broker.stats()
        assert stats["active"] == 0
        assert stats["reconciles"]


# ---------------------------------------------------------------------------
# The worker as a coordinator: every request is one bounded attempt
# ---------------------------------------------------------------------------


class _ScriptedClient:
    """Stands in for :class:`RemoteClient`: answers each ``(method, last
    path segment)`` from a script and records how each request was made."""

    timeout_s = 10.0
    retries = 2

    def __init__(self, script):
        self.script = script
        self.calls = []

    def request(self, method, path, doc=None, retries=None, timeout_s=None):
        endpoint = path.rsplit("/", 1)[-1]
        self.calls.append((method, endpoint, retries, timeout_s))
        answer = self.script[(method, endpoint)].pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer


def _claim_answer(claim_id, heartbeat_s=0.05):
    spec = {"cell_id": "rate-0", "kind": "fault_rate", "params": {"rate": 0.0}}
    lease = {"token": 1, "heartbeat_s": heartbeat_s}
    return 200, {"cell": spec, "claim_id": claim_id, "lease": lease}


def _until(condition, what):
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


class TestRemoteWorkerCoordinator:
    def test_requests_never_retry_inside_the_supervisor_loop(self):
        """Claims, heartbeats and uploads each make one attempt; a failed
        upload is retried from later ticks (and holds back new claims
        until it settles) instead of blocking the loop in a retry."""
        unreachable = RemoteProtocolError("down", url="x", reason="unreachable")
        client = _ScriptedClient({
            ("POST", "claim"): [_claim_answer("c1")],
            ("POST", "heartbeat"): [(200, {})] * 100,
            ("PUT", "result"): [unreachable, unreachable, (200, {"recorded": True})],
        })
        obs = Registry()
        worker = RemoteWorker(client, owner="w", obs=obs)
        spec = worker.next_cell()
        assert spec.cell_id == "rate-0"
        _until(lambda: (worker.tick(), obs.snapshot().get("remote/heartbeats"))[1], "no beat")
        worker.commit(spec, "ok", result={"value": 1})
        assert isinstance(worker.next_cell(), float)  # the upload is still pending
        _until(
            lambda: (worker.tick(), obs.snapshot().get("remote/cells_completed"))[1],
            "the upload never landed",
        )
        assert all(retries == 0 for _, _, retries, _ in client.calls), client.calls
        beats = [timeout for _, endpoint, _, timeout in client.calls if endpoint == "heartbeat"]
        assert beats and all(timeout == 0.05 for timeout in beats)
        assert [endpoint for _, endpoint, _, _ in client.calls].count("result") == 3
        assert obs.snapshot()["remote/http_retries"] == 2

    def test_upload_abandons_the_cell_once_the_retry_budget_is_spent(self):
        unreachable = RemoteProtocolError("down", url="x", reason="unreachable")
        client = _ScriptedClient({
            ("POST", "claim"): [_claim_answer("c1", heartbeat_s=60.0)],
            ("PUT", "result"): [unreachable] * 3,
        })
        obs = Registry()
        worker = RemoteWorker(client, owner="w", obs=obs, stream=io.StringIO())
        worker.commit(worker.next_cell(), "ok", result={"value": 1})
        _until(
            lambda: (worker.tick(), obs.snapshot().get("remote/cells_abandoned"))[1],
            "the upload was never given up",
        )
        assert [endpoint for _, endpoint, _, _ in client.calls].count("result") == 3
        assert "remote/cells_completed" not in obs.snapshot()


# ---------------------------------------------------------------------------
# End to end: a real worker over real sockets, --workers 0 coordinator
# ---------------------------------------------------------------------------


class TestRemoteWorkerEndToEnd:
    def test_remote_only_drain_is_byte_identical_to_serial(self, tmp_path):
        """The acceptance bar: a job drained solely by remote workers
        over HTTP produces the byte-identical envelope, zero orphaned
        leases, and exactly-reconciling remote/* counters."""
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            _, doc = live.request("POST", "/jobs", FAULTS_DOC)
            job_id = doc["job_id"]
            obs = Registry()
            client = RemoteClient(
                f"http://127.0.0.1:{live.server.port}", timeout_s=10.0, obs=obs
            )
            worker = RemoteWorker(client, owner="remote-1", obs=obs)
            assert worker.run() == 0
            final = live.wait_state(job_id)
            assert final["state"] == "DONE"
            # every cell was computed by the remote worker, none locally
            counters = obs.snapshot()
            assert counters["remote/cells_completed"] == 2
            status, stats = live.request("GET", "/stats")
            assert stats["remote"] == {
                "claims": 2, "completed": 2, "expired": 0, "abandoned": 0,
                "active": 0, "reconciles": True,
            }
            assert stats["jobs"]["reconciles"]
            run_dir = live.server.store.run_dir(job_id)
            envelope = json.loads((run_dir / "envelope.json").read_text())
            assert list((run_dir / "leases").glob("*")) == []
        reference = reference_envelope(tmp_path)
        assert canonical_envelope_bytes(envelope) == canonical_envelope_bytes(reference)

    def test_worker_exits_zero_when_server_is_idle(self, tmp_path):
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            client = RemoteClient(f"http://127.0.0.1:{live.server.port}")
            assert RemoteWorker(client, owner="idle-1").run() == 0

    def test_unreachable_server_exhausts_the_retry_budget(self, tmp_path):
        client = RemoteClient(
            "http://127.0.0.1:9", timeout_s=0.2, retries=1,
            backoff=Backoff(base_s=0.01, cap_s=0.02, jitter=0.0),
        )
        with pytest.raises(RemoteProtocolError) as err:
            client.request("GET", "/healthz")
        assert err.value.reason == "unreachable"
        worker = RemoteWorker(client, owner="lost-1", max_failures=2)
        assert worker.run() == 3

    def _rate_record(self, live, job_id):
        return load_json(live.server.store.run_dir(job_id) / "cells" / "rate-0.json")

    def test_hard_exiting_cell_is_a_crash_record(self, tmp_path, monkeypatch):
        """A remote cell that hard-exits fails its cell, not the worker:
        after ``--retries`` attempts it is recorded as a ``crash``, the
        worker exits 0 and the job settles. (The server's final drain
        re-runs failed cells; swapping its runner too keeps the
        worker's record as the first durable one.)"""
        monkeypatch.setitem(CELL_RUNNERS, "fault_rate", _hard_exit)
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            _, doc = live.request("POST", "/jobs", FAULTS_DOC)
            url = f"http://127.0.0.1:{live.server.port}"
            proc = spawn_swapped_worker(url, "lambda params: os._exit(9)", "--retries", "2")
            code, output = finish(proc)
            assert code == 0, output
            final = live.wait_state(doc["job_id"])
            assert final["state"] in TERMINAL_STATES
            record = self._rate_record(live, doc["job_id"])
            assert record["status"] == "failed"
            assert record["error"]["kind"] == "crash"
            assert record["attempts"] == 2
            _, stats = live.request("GET", "/stats")
            assert stats["remote"]["completed"] == 2  # both cells uploaded
            assert stats["remote"]["reconciles"]

    def test_hung_cell_is_a_timeout_record(self, tmp_path, monkeypatch):
        """``--timeout`` applies to remote cells: a hung cell is killed
        and recorded as a ``timeout``."""
        monkeypatch.setitem(CELL_RUNNERS, "fault_rate", _hang)
        config = ServeConfig(
            spool=tmp_path / "spool", workers=0, retries=1, cell_timeout_s=1.0
        )
        with _LiveServer(config) as live:
            _, doc = live.request("POST", "/jobs", FAULTS_DOC)
            url = f"http://127.0.0.1:{live.server.port}"
            proc = spawn_swapped_worker(
                url, "lambda params: time.sleep(3600)", "--timeout", "1", "--retries", "1"
            )
            code, output = finish(proc)
            assert code == 0, output
            final = live.wait_state(doc["job_id"])
            assert final["state"] in TERMINAL_STATES
            record = self._rate_record(live, doc["job_id"])
            assert record["status"] == "failed"
            assert record["error"]["kind"] == "timeout"
            _, stats = live.request("GET", "/stats")
            assert stats["remote"]["completed"] == 2  # the worker uploaded the timeout
            assert stats["remote"]["reconciles"]

    def test_jobs_run_remote_cells_concurrently(self, tmp_path, monkeypatch):
        """``jobs=2`` holds two claims at once (under distinct worker ids,
        since the broker re-delivers a held cell to its owner): each cell
        only completes once the other one is running too."""
        meet = tmp_path / "meet"
        meet.mkdir()
        for kind in ("fault_rate", "fault_width"):
            monkeypatch.setitem(CELL_RUNNERS, kind, functools.partial(_rendezvous, meet))
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            _, doc = live.request("POST", "/jobs", FAULTS_DOC)
            obs = Registry()
            client = RemoteClient(f"http://127.0.0.1:{live.server.port}", obs=obs)
            worker = RemoteWorker(
                client, owner="pair", obs=obs, jobs=2, retry=RetryPolicy(max_attempts=1)
            )
            assert worker.run() == 0
            assert live.wait_state(doc["job_id"])["state"] == "DONE"
            counters = obs.snapshot()
            assert counters["remote/cells_completed"] == 2
            assert counters["resilience/cells_succeeded"] == 2
            _, stats = live.request("GET", "/stats")
            assert (stats["remote"]["claims"], stats["remote"]["reconciles"]) == (2, True)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_sharing_ids_across_jobs_settle_their_own_claims(
        self, tmp_path, monkeypatch, jobs
    ):
        """Cell ids are unique only within a job, and a cell waiting out
        retry backoff stays claimed while the worker claims more: two
        queued jobs both have ``rate-0``, and one job's ``rate-0`` fails
        once. Every claim still settles as itself — one ``rate-0`` record
        took two attempts, the other one, each job's envelope is its own
        serial run's, and the worker never crashes or orphans a claim."""
        runner = functools.partial(
            _fail_first, tmp_path / "failed-once", CELL_RUNNERS["fault_rate"]
        )
        monkeypatch.setitem(CELL_RUNNERS, "fault_rate", runner)
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            job_ids = [
                live.request("POST", "/jobs", {**FAULTS_DOC, "seed": seed})[1]["job_id"]
                for seed in (7, 8)
            ]
            obs = Registry()
            client = RemoteClient(f"http://127.0.0.1:{live.server.port}", obs=obs)
            retry = RetryPolicy(max_attempts=2, backoff_base_s=0.5)
            worker = RemoteWorker(client, owner="shared", obs=obs, jobs=jobs, retry=retry)
            assert worker.run() == 0
            attempts = []
            for job_id in job_ids:
                assert live.wait_state(job_id)["state"] == "DONE"
                attempts.append(self._rate_record(live, job_id)["attempts"])
            envelope = live.request("GET", f"/jobs/{job_ids[0]}/result")[1]
            counters = obs.snapshot()
            _, stats = live.request("GET", "/stats")
        assert sorted(attempts) == [1, 2]
        assert (counters["resilience/retries"], counters["remote/cells_completed"]) == (1, 4)
        remote = stats["remote"]
        assert (remote["claims"], remote["completed"], remote["reconciles"]) == (4, 4, True)
        monkeypatch.undo()
        reference = reference_envelope(tmp_path)
        assert canonical_envelope_bytes(envelope) == canonical_envelope_bytes(reference)

    def test_sigterm_mid_cell_abandons_the_claim(self, tmp_path):
        """SIGTERM to a worker mid-cell settles its claim ``abandoned``
        right away — the 30 s default TTL reaper never gets involved —
        and the books still reconcile."""
        mark = tmp_path / "cell-started"
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            live.request("POST", "/jobs", FAULTS_DOC)
            url = f"http://127.0.0.1:{live.server.port}"
            runner = f"lambda params: (open({str(mark)!r}, 'w').close(), time.sleep(3600))"
            proc = spawn_swapped_worker(url, runner)
            deadline = time.monotonic() + 60
            while not mark.exists():  # the cell is running in its worker
                assert proc.poll() is None, finish(proc)
                if time.monotonic() > deadline:
                    pytest.fail(f"cell never started: {finish(proc, timeout=0)}")
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            code, output = finish(proc)
            assert code == 130, output
            _, stats = live.request("GET", "/stats")
            remote = stats["remote"]
            assert (remote["claims"], remote["abandoned"], remote["active"]) == (1, 1, 0)
            assert remote["reconciles"]

    def test_lost_lease_mid_cell_still_uploads_first_record_wins(self, tmp_path):
        """A worker that loses its lease mid-compute finishes and
        uploads anyway; whether it is recorded or counted duplicate is
        decided by the durable record, not the lease."""
        server = make_server(tmp_path)
        submit(server)
        _, doc, _ = claim(server)
        # the TTL machinery (simulated by forgetting the claim) fences
        # the worker off while it is still computing
        server.broker._settle(server.broker._claims[doc["claim_id"]], "expired")
        status, body, _ = upload(server, doc, result={"value": 3})
        assert status == 200
        assert body["recorded"] is True
        assert body["state"] == "expired"
        assert server.obs.snapshot()["remote/late_results"] == 1
        assert server.broker.stats()["reconciles"]


class TestConnectCli:
    def test_work_requires_exactly_one_target(self, capsys):
        assert main(["work"]) == 2
        assert main(["work", "somedir", "--connect", "http://x"]) == 2
        assert main(["status"]) == 2
        err = capsys.readouterr().err
        assert "exactly one of" in err

    @pytest.mark.parametrize("target, flag", [
        (["--connect", "http://127.0.0.1:9"], ["--lease-ttl", "30"]),
        (["--connect", "http://127.0.0.1:9"], ["--heartbeat", "1"]),
        (["--connect", "http://127.0.0.1:9"], ["--no-verify"]),
        (["--connect", "http://127.0.0.1:9"], ["--json", "out.json"]),
        (["somedir"], ["--linger", "0"]),
        (["somedir"], ["--request-timeout", "5"]),
    ])
    def test_work_rejects_flags_of_the_other_mode(self, target, flag, capsys):
        """One meaning per flag: a flag that cannot apply in the chosen
        mode exits 2 with a message instead of being ignored."""
        assert main(["work", *target, *flag]) == 2
        assert f"does not take {flag[0]}" in capsys.readouterr().err

    def test_status_connect_renders_the_job_table(self, tmp_path, capsys):
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            _, doc = live.request("POST", "/jobs", FAULTS_DOC)
            url = f"http://127.0.0.1:{live.server.port}"
            assert main(["status", "--connect", url]) == 0
            out = capsys.readouterr().out
            assert doc["job_id"] in out
            assert "rate-0" in out and "width-24" in out
            assert "pending" in out

    def test_status_connect_unreachable_is_exit_2(self, capsys):
        assert main(["status", "--connect", "http://127.0.0.1:9",
                     "--request-timeout", "0.2"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_work_connect_drains_the_spool(self, tmp_path, capsys):
        config = ServeConfig(spool=tmp_path / "spool", workers=0)
        with _LiveServer(config) as live:
            _, doc = live.request("POST", "/jobs", FAULTS_DOC)
            url = f"http://127.0.0.1:{live.server.port}"
            assert main(["work", "--connect", url]) == 0
            final = live.wait_state(doc["job_id"])
            assert final["state"] == "DONE"
