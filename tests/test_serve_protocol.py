"""``repro.job/v1`` protocol properties and the in-process server core.

Two layers:

- seeded property tests over the request codec (valid documents
  round-trip exactly; random single-field corruptions raise taxonomy
  errors, never KeyError/AssertionError) and the job state machine;
- the synchronous request core (`JobServer.handle_request`) and the
  async lifecycle driven in-process, so the serve module's routing,
  spool, rescan and drain paths are exercised under coverage without
  subprocesses (tests/test_serve.py is the black-box battery).
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import JobError, ReproError
from repro.harness.serialize import save_json
from repro.harness.serve import (
    JOB_SCHEMA,
    JobRequest,
    JobServer,
    JobStore,
    STATES,
    ServeConfig,
    TERMINAL_STATES,
    TRANSITIONS,
    SWEEPABLE_EXPERIMENTS,
    build_plan,
    check_transition,
    job_progress,
)
from repro.harness.workloads import MEMORY_TABLE

NETWORKS = sorted(MEMORY_TABLE)


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def make_valid_doc(rng: random.Random) -> dict:
    verb = rng.choice(["run", "compare", "faults", "explore"])
    doc = {"schema": JOB_SCHEMA, "verb": verb}
    if verb == "run":
        doc["experiment"] = rng.choice(sorted(SWEEPABLE_EXPERIMENTS))
    else:
        doc["network"] = rng.choice(NETWORKS)
    params = {}
    if verb == "compare" and rng.random() < 0.7:
        params["ratio"] = rng.choice([0.01, 0.03, 0.25])
    if verb == "faults":
        if rng.random() < 0.7:
            params["rates"] = [rng.choice([0.0, 1e-4, 0.01]) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.7:
            params["widths"] = [rng.choice([16, 24, 32])]
        if rng.random() < 0.3:
            params["policy"] = "degrade"
        if rng.random() < 0.3:
            params["model"] = "bitflip"
    if verb == "explore":
        if rng.random() < 0.5:
            params["budget"] = rng.choice([1.0, 2.5])
        if rng.random() < 0.5:
            params["strategy"] = "grid"
        if rng.random() < 0.5:
            params["samples"] = rng.randint(1, 64)
        if rng.random() < 0.5:
            params["accuracy"] = rng.choice(["none", "proxy", "quant"])
        if rng.random() < 0.5:
            params["space"] = {"clusters": [4, 8]}
    if params or rng.random() < 0.5:
        doc["params"] = params
    if rng.random() < 0.5:
        doc["seed"] = rng.randint(0, 100)
    if rng.random() < 0.5:
        doc["priority"] = rng.randint(-5, 5)
    if rng.random() < 0.3:
        doc["timeout_s"] = rng.choice([0.5, 30, 3600])
    return doc


#: One corruption per entry: (name, mutate(doc, rng) -> doc).
CORRUPTIONS = [
    ("not_an_object", lambda d, r: ["not", "an", "object"]),
    ("missing_schema", lambda d, r: {k: v for k, v in d.items() if k != "schema"}),
    ("wrong_schema", lambda d, r: {**d, "schema": "repro.job/v0"}),
    ("unknown_top_key", lambda d, r: {**d, "jobz": 1}),
    ("missing_verb", lambda d, r: {k: v for k, v in d.items() if k != "verb"}),
    ("unknown_verb", lambda d, r: {**d, "verb": "bench"}),
    ("non_string_verb", lambda d, r: {**d, "verb": 7}),
    ("bool_seed", lambda d, r: {**d, "seed": True}),
    ("string_seed", lambda d, r: {**d, "seed": "7"}),
    ("negative_seed", lambda d, r: {**d, "seed": -1}),
    ("float_priority", lambda d, r: {**d, "priority": 1.5}),
    ("negative_timeout", lambda d, r: {**d, "timeout_s": -1}),
    ("params_not_object", lambda d, r: {**d, "params": [1]}),
    (
        "network_for_run",
        lambda d, r: {**{k: v for k, v in d.items() if k != "experiment"},
                      "verb": "run", "network": "alexnet"},
    ),
    (
        "experiment_for_compare",
        lambda d, r: {**{k: v for k, v in d.items() if k != "network"},
                      "verb": "compare", "experiment": "fig11"},
    ),
    ("unknown_network", lambda d, r: {**d, "verb": "compare", "network": "nonesuch",
                                      **({} if "experiment" not in d else {"experiment": None})}),
    ("unsweepable_experiment", lambda d, r: {**{k: v for k, v in d.items() if k != "network"},
                                             "verb": "run", "experiment": "fig1"}),
    ("foreign_param", lambda d, r: {**d, "verb": "compare", "network": "alexnet",
                                    "experiment": None, "params": {"rates": [0.1]}}),
    ("bad_ratio", lambda d, r: {**d, "verb": "compare", "network": "alexnet",
                                "experiment": None, "params": {"ratio": 1.5}}),
    ("empty_rates", lambda d, r: {**d, "verb": "faults", "network": "alexnet",
                                  "experiment": None, "params": {"rates": []}}),
    ("negative_rate", lambda d, r: {**d, "verb": "faults", "network": "alexnet",
                                    "experiment": None, "params": {"rates": [-0.1]}}),
    ("zero_width", lambda d, r: {**d, "verb": "faults", "network": "alexnet",
                                 "experiment": None, "params": {"widths": [0]}}),
    ("rate_above_one", lambda d, r: {**d, "verb": "faults", "network": "alexnet",
                                     "experiment": None, "params": {"rates": [2.5]}}),
    ("one_bit_width", lambda d, r: {**d, "verb": "faults", "network": "alexnet",
                                    "experiment": None, "params": {"widths": [1]}}),
    ("eta_one", lambda d, r: {**d, "verb": "explore", "network": "alexnet",
                              "experiment": None, "params": {"eta": 1}}),
    ("bad_policy", lambda d, r: {**d, "verb": "faults", "network": "alexnet",
                                 "experiment": None, "params": {"policy": "panic"}}),
    ("bad_strategy", lambda d, r: {**d, "verb": "explore", "network": "alexnet",
                                   "experiment": None, "params": {"strategy": "dowse"}}),
    ("bad_accuracy", lambda d, r: {**d, "verb": "explore", "network": "alexnet",
                                   "experiment": None, "params": {"accuracy": "vibes"}}),
    ("zero_samples", lambda d, r: {**d, "verb": "explore", "network": "alexnet",
                                   "experiment": None, "params": {"samples": 0}}),
    ("space_not_object", lambda d, r: {**d, "verb": "explore", "network": "alexnet",
                                       "experiment": None, "params": {"space": [4]}}),
]


def _strip_nones(doc):
    """The corruption helpers mark removed fields with None; drop them."""
    if not isinstance(doc, dict):
        return doc
    return {k: v for k, v in doc.items() if v is not None or k in ("seed", "timeout_s")}


class TestRequestRoundTrip:
    def test_valid_documents_round_trip(self):
        rng = random.Random(20260808)
        for _ in range(300):
            doc = make_valid_doc(rng)
            request = JobRequest.from_dict(doc)
            encoded = request.to_dict()
            again = JobRequest.from_dict(encoded)
            assert again == request
            assert again.to_dict() == encoded  # fixed point
            # the canonical form survives a JSON wire trip
            assert JobRequest.from_dict(json.loads(json.dumps(encoded))) == request

    def test_defaults_are_canonical(self):
        request = JobRequest.from_dict({"schema": JOB_SCHEMA, "verb": "run",
                                        "experiment": "fig11"})
        assert request.params == {}
        assert request.seed is None
        assert request.priority == 0
        assert request.timeout_s is None

    def test_invalid_documents_raise_taxonomy_errors_only(self):
        rng = random.Random(20260809)
        for _ in range(300):
            name, mutate = rng.choice(CORRUPTIONS)
            doc = _strip_nones(mutate(make_valid_doc(rng), rng))
            try:
                JobRequest.from_dict(doc)
            except JobError as exc:
                assert isinstance(exc, ReproError)
                assert isinstance(exc, ValueError)
                assert str(exc)
            except Exception as exc:  # noqa: BLE001 - the property under test
                pytest.fail(f"corruption {name!r} raised {type(exc).__name__}: {exc}")
            else:
                pytest.fail(f"corruption {name!r} was accepted: {doc!r}")

    def test_error_names_the_field(self):
        with pytest.raises(JobError) as err:
            JobRequest.from_dict({"schema": JOB_SCHEMA, "verb": "faults",
                                  "network": "alexnet", "params": {"widths": [0]}})
        assert err.value.field == "widths"

    def test_build_plan_matches_cli_plans(self):
        """serve's sweep table stays in lock-step with the CLI's."""
        from repro.cli import EXPERIMENTS, SWEEPABLE

        assert {k: v[0] for k, v in SWEEPABLE_EXPERIMENTS.items()} == SWEEPABLE
        for experiment, (network, description) in SWEEPABLE_EXPERIMENTS.items():
            assert description == EXPERIMENTS[experiment][1]
            shape, plan = build_plan(JobRequest.from_dict(
                {"schema": JOB_SCHEMA, "verb": "run", "experiment": experiment, "seed": 7}
            ))
            assert shape == "sweep"
            assert plan.experiment == experiment
            assert plan.params["network"] == network


class TestStateMachine:
    def test_every_edge_matches_the_table(self):
        for old in STATES:
            for new in STATES:
                if new in TRANSITIONS[old]:
                    check_transition(old, new)  # must not raise
                else:
                    with pytest.raises(JobError):
                        check_transition(old, new)

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert not TRANSITIONS[state]

    def test_unknown_states_rejected(self):
        with pytest.raises(JobError):
            check_transition("QUEUED", "EXPLODED")
        with pytest.raises(JobError):
            check_transition("EXPLODED", "QUEUED")

    def test_random_walks_never_escape_the_table(self):
        rng = random.Random(99)
        for _ in range(200):
            state = "QUEUED"
            while TRANSITIONS[state]:
                candidate = rng.choice(STATES)
                try:
                    check_transition(state, candidate)
                except JobError:
                    assert candidate not in TRANSITIONS[state]
                else:
                    state = candidate
            assert state in TERMINAL_STATES


FAULTS_DOC = {
    "schema": JOB_SCHEMA,
    "verb": "faults",
    "network": "alexnet",
    "params": {"rates": [0.0], "widths": [24]},
    "seed": 7,
}


class TestJobStore:
    def test_create_materializes_a_joinable_run_dir(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        assert (store.run_dir(job_id) / "manifest.json").exists()
        assert store.read_state(job_id)["state"] == "QUEUED"
        assert store.read_request(job_id) == JobRequest.from_dict(FAULTS_DOC)
        progress = job_progress(store.run_dir(job_id))
        assert progress["cells_total"] == 2
        assert progress["cells_ok"] == 0
        assert not progress["envelope"]

    def test_state_writes_respect_the_machine(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        store.set_state(job_id, "RUNNING")
        store.set_state(job_id, "DONE")
        with pytest.raises(JobError):
            store.set_state(job_id, "RUNNING")
        # the restart path may force a rewrite without an edge
        store.set_state(job_id, "QUEUED", "requeued after restart", force=True)
        assert store.read_state(job_id)["state"] == "QUEUED"

    def test_external_worker_completes_the_run_dir(self, tmp_path):
        """The materialized run dir is an ordinary `repro work` target."""
        from repro.harness.resilience import work_run

        store = JobStore(tmp_path)
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        _, envelope, _, _ = work_run(store.run_dir(job_id))
        assert envelope["resilience"]["cells_failed"] == 0
        progress = job_progress(store.run_dir(job_id))
        assert progress["cells_ok"] == progress["cells_total"] == 2
        assert progress["cells_leased"] == 0
        assert progress["envelope"]


# ---------------------------------------------------------------------------
# the sync request core, no sockets
# ---------------------------------------------------------------------------


def _post(server, doc):
    return server.handle_request("POST", "/jobs", json.dumps(doc).encode())


#: Requests each refused by the owner of one param before a job exists:
#: (verb, params, seed, field). Each was once queued and then failed in
#: its drain.
OWNER_REFUSALS = [
    ("faults", {"rates": [2.5]}, None, "rates"),
    ("faults", {"widths": [1]}, None, "widths"),
    ("explore", {"eta": 1}, None, "eta"),
    ("explore", {"space": {"ratios": [1.0]}}, None, "space"),  # the proxy quantizes at 1.0
    ("faults", {}, -5, "seed"),
    ("explore", {"accuracy": "none"}, -1, "seed"),
]


class TestOwnersRefuseBeforeAJobExists:
    @pytest.mark.parametrize("verb,params,seed,field", OWNER_REFUSALS)
    def test_refused_with_the_param_named(self, tmp_path, verb, params, seed, field):
        server = JobServer(ServeConfig(spool=tmp_path / "spool"))
        doc = {"schema": JOB_SCHEMA, "verb": verb, "network": "alexnet", "params": params, "seed": seed}
        status, body, _ = _post(server, doc)
        assert status == 400
        assert (body["error"], body["field"]) == ("JobError", field)
        assert server.store.list_ids() == []
        assert not server.store.jobs_dir.exists()

    def test_a_ratio_the_model_accepts_is_queued(self, tmp_path):
        # fig14 sweeps the 0% point; so may a compare job
        server = JobServer(ServeConfig(spool=tmp_path / "spool"))
        doc = {"schema": JOB_SCHEMA, "verb": "compare", "network": "alexnet", "params": {"ratio": 0.0}}
        assert _post(server, doc)[0] == 202

    def test_an_accepted_job_builds_its_plan_once(self, tmp_path, monkeypatch):
        from repro.harness import serve

        calls = []
        monkeypatch.setattr(serve, "build_plan", lambda request: calls.append(request) or build_plan(request))
        server = JobServer(ServeConfig(spool=tmp_path / "spool"))
        assert _post(server, FAULTS_DOC)[0] == 202
        assert len(calls) == 1


class TestRequestCore:
    @pytest.fixture
    def server(self, tmp_path):
        return JobServer(ServeConfig(spool=tmp_path / "spool", queue_limit=2))

    def test_healthz_and_stats(self, server):
        status, doc, _ = server.handle_request("GET", "/healthz", b"")
        assert status == 200 and doc["status"] == "ok"
        status, doc, _ = server.handle_request("GET", "/stats", b"")
        assert status == 200
        assert doc["jobs"]["reconciles"]

    def test_submit_status_cancel_and_conflicts(self, server):
        status, doc, _ = _post(server, FAULTS_DOC)
        assert status == 202
        job_id = doc["job_id"]

        status, doc, _ = server.handle_request("GET", f"/jobs/{job_id}", b"")
        assert status == 200
        assert doc["state"] == "QUEUED"
        assert doc["progress"]["cells_total"] == 2

        status, doc, _ = server.handle_request("GET", f"/jobs/{job_id}/result", b"")
        assert status == 409 and doc["error"] == "JobError"

        status, doc, _ = server.handle_request("DELETE", f"/jobs/{job_id}", b"")
        assert status == 200 and doc["state"] == "CANCELLED"

        status, doc, _ = server.handle_request("DELETE", f"/jobs/{job_id}", b"")
        assert status == 409 and doc["error"] == "JobError"

        stats = server.stats_doc()["jobs"]
        assert stats["submitted"] == stats["cancelled"] == 1
        assert stats["reconciles"]

    def test_malformed_json_is_400_with_taxonomy_name(self, server):
        status, doc, _ = server.handle_request("POST", "/jobs", b"{nope")
        assert status == 400 and doc["error"] == "JobError"

    def test_invalid_request_is_400_naming_the_field(self, server):
        status, doc, _ = _post(server, {**FAULTS_DOC, "network": "nonesuch"})
        assert status == 400
        assert doc["error"] == "JobError"
        assert doc["field"] == "network"

    def test_unknown_job_and_route_are_404(self, server):
        for path in ("/jobs/nonesuch", "/jobs/nonesuch/result", "/nope", "/jobs/a/b/c"):
            method = "GET"
            status, doc, _ = server.handle_request(method, path, b"")
            assert status == 404, path
            assert doc["error"] == "NotFound"

    def test_wrong_method_is_405_with_allow(self, server):
        status, doc, headers = server.handle_request("PUT", "/jobs", b"")
        assert status == 405 and "Allow" in headers
        status, _, _ = server.handle_request("POST", "/healthz", b"")
        assert status == 405

    def test_queue_overflow_is_429_with_retry_after(self, server):
        assert _post(server, FAULTS_DOC)[0] == 202
        assert _post(server, FAULTS_DOC)[0] == 202
        status, doc, headers = _post(server, FAULTS_DOC)
        assert status == 429
        assert headers["Retry-After"]
        assert doc["error"] == "QueueFull"
        # overflow rejections never count as submitted
        assert server.stats_doc()["jobs"]["submitted"] == 2
        assert server.stats_doc()["jobs"]["reconciles"]

    def test_retry_after_adapts_to_queue_depth_and_drain_rate(self, server):
        _post(server, FAULTS_DOC)
        _post(server, FAULTS_DOC)
        status, doc, headers = _post(server, FAULTS_DOC)
        assert status == 429
        # no drain history yet: the depth alone sets the hint
        assert headers["Retry-After"] == "1"
        assert doc["retry_after_s"] == 1
        # recent drains averaged 40s: two queued jobs over two lanes
        server._drain_durations.extend([30.0, 50.0])
        _, doc, headers = _post(server, FAULTS_DOC)
        assert headers["Retry-After"] == "40"
        assert doc["retry_after_s"] == 40
        # the hint is clamped to something a client can sanely honour
        server._drain_durations.append(1e6)
        assert int(_post(server, FAULTS_DOC)[2]["Retry-After"]) == 600

    def test_priority_orders_the_queue(self, server):
        low = _post(server, {**FAULTS_DOC, "priority": -1})[1]["job_id"]
        high = _post(server, {**FAULTS_DOC, "priority": 5})[1]["job_id"]
        assert server._pop_next().job_id == high
        assert server._pop_next().job_id == low

    def test_jobs_listing(self, server):
        job_id = _post(server, FAULTS_DOC)[1]["job_id"]
        status, doc, _ = server.handle_request("GET", "/jobs", b"")
        assert status == 200
        assert [j["job_id"] for j in doc["jobs"]] == [job_id]


class TestHttpFraming:
    def _roundtrip(self, server, raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await server._read_and_route(reader)

        return asyncio.run(go())

    @pytest.fixture
    def server(self, tmp_path):
        return JobServer(ServeConfig(spool=tmp_path / "spool", max_body_bytes=64))

    def test_get_without_body(self, server):
        status, doc, _ = self._roundtrip(server, b"GET /healthz HTTP/1.1\r\n\r\n")
        assert status == 200 and doc["status"] == "ok"

    def test_post_with_content_length(self, server):
        body = json.dumps({"schema": JOB_SCHEMA}).encode()
        raw = (
            b"POST /jobs HTTP/1.1\r\nContent-Length: " + str(len(body)).encode()
            + b"\r\n\r\n" + body
        )
        status, doc, _ = self._roundtrip(server, raw)
        assert status == 400 and doc["error"] == "JobError"  # verb missing

    def test_oversized_body_is_413(self, server):
        raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"
        status, doc, _ = self._roundtrip(server, raw)
        assert status == 413

    def test_malformed_request_line_is_400(self, server):
        status, doc, _ = self._roundtrip(server, b"garbage\r\n\r\n")
        assert status == 400

    def test_bad_content_length_is_400(self, server):
        raw = b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        status, doc, _ = self._roundtrip(server, raw)
        assert status == 400

    def test_body_shorter_than_content_length_is_400(self, server):
        raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"schema\""
        status, doc, _ = self._roundtrip(server, raw)
        assert status == 400
        assert "truncated" in doc["message"]
        assert server.obs.snapshot()["serve/http_truncated"] == 1

    def test_unbounded_header_count_is_400(self, server):
        raw = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(300))
            + b"\r\n"
        )
        status, doc, _ = self._roundtrip(server, raw)
        assert status == 400
        assert "headers" in doc["message"]


def _recv_http_response(sock, timeout=10.0):
    """Read one Connection: close HTTP response to EOF."""
    sock.settimeout(timeout)
    data = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return data
        data += chunk


class TestFramingHardening:
    """Raw-socket regressions: slow-loris and truncated uploads get
    structured answers instead of pinning (or crashing) the server."""

    @pytest.fixture
    def live(self, tmp_path):
        config = ServeConfig(spool=tmp_path / "spool", workers=0, read_timeout_s=0.5)
        with _LiveServer(config) as live:
            yield live

    def test_stalled_request_line_is_answered_408(self, live):
        with socket.create_connection(("127.0.0.1", live.server.port)) as sock:
            sock.sendall(b"GET /heal")  # ...and never finish the line
            data = _recv_http_response(sock)
        assert data.startswith(b"HTTP/1.1 408 Request Timeout")
        assert b"RequestTimeout" in data

    def test_dribbled_headers_hit_the_shared_deadline(self, live):
        """A slow-loris that keeps each individual read alive still runs
        out of the whole-request budget: per-read timers would reset."""
        with socket.create_connection(("127.0.0.1", live.server.port)) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            data = b""
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                readable, _, _ = select.select([sock], [], [], 0.05)
                if readable:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                else:
                    try:
                        sock.sendall(b"X-Drip: y\r\n")  # never the blank line
                    except OSError:
                        pass
        assert data.startswith(b"HTTP/1.1 408 Request Timeout")

    def test_truncated_body_is_answered_400(self, live):
        with socket.create_connection(("127.0.0.1", live.server.port)) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n" + b'{"schema"'
            )
            sock.shutdown(socket.SHUT_WR)  # the other 41 bytes never come
            data = _recv_http_response(sock)
        assert data.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"truncated" in data

    def test_well_formed_request_still_flows(self, live):
        """The deadline rejects stallers, not normal clients."""
        status, doc = live.request("GET", "/healthz")
        assert status == 200 and doc["status"] == "ok"


# ---------------------------------------------------------------------------
# the async lifecycle, in-process (one real drain)
# ---------------------------------------------------------------------------


class _LiveServer:
    """A JobServer on its own event loop in a thread, plus a tiny client."""

    def __init__(self, config: ServeConfig):
        self.server = JobServer(config)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve()), daemon=True
        )

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 30
        while self.server.port is None:
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise TimeoutError("server never bound")
            time.sleep(0.02)
        return self

    def __exit__(self, *exc):
        self.server.request_stop()
        self.thread.join(timeout=30)

    def request(self, method, path, doc=None):
        data = json.dumps(doc).encode() if doc is not None else None
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.server.port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def wait_state(self, job_id, timeout=120):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, doc = self.request("GET", f"/jobs/{job_id}")
            if doc["state"] in TERMINAL_STATES:
                return doc
            time.sleep(0.05)
        raise TimeoutError(f"job {job_id} never settled")  # pragma: no cover


class TestLifecycleInProcess:
    def test_drain_to_done_and_result_integrity(self, tmp_path):
        from repro.harness.serialize import load_json

        config = ServeConfig(spool=tmp_path / "spool", workers=1)
        with _LiveServer(config) as live:
            status, doc = live.request("POST", "/jobs", FAULTS_DOC)
            assert status == 202
            job_id = doc["job_id"]
            final = live.wait_state(job_id)
            assert final["state"] == "DONE"
            assert final["progress"]["cells_ok"] == 2
            assert final["progress"]["cells_leased"] == 0
            assert final["obs"]["resilience/cells_succeeded"] == 2
            # the result is the envelope with its digest intact: the
            # served bytes re-verify like the artifact on disk
            status, envelope = live.request("GET", f"/jobs/{job_id}/result")
            assert status == 200
            assert "__integrity__" in envelope
            served = tmp_path / "served.json"
            served.write_text(json.dumps(envelope))
            assert load_json(served, verify=True) == load_json(
                tmp_path / "spool" / "jobs" / job_id / "run" / "envelope.json",
                verify=True,
            )
            stats = live.request("GET", "/stats")[1]["jobs"]
            assert stats["reconciles"]
            assert stats["completed"] == 1
        # graceful shutdown removes the discovery file
        assert not (tmp_path / "spool" / "serve.json").exists()

    def test_rescan_requeues_and_counts_terminals(self, tmp_path):
        spool = tmp_path / "spool"
        store = JobStore(spool)
        unfinished = store.create(JobRequest.from_dict(FAULTS_DOC))
        finished = store.create(JobRequest.from_dict(FAULTS_DOC))
        store.set_state(finished, "RUNNING")
        store.set_state(finished, "DONE")
        with _LiveServer(ServeConfig(spool=spool, workers=1)) as live:
            final = live.wait_state(unfinished)
            assert final["state"] == "DONE"
            assert final["detail"] != "accepted"  # went through the requeue path
            stats = live.request("GET", "/stats")[1]
            assert stats["jobs"]["submitted"] == 2
            assert stats["jobs"]["completed"] == 2
            assert stats["jobs"]["reconciles"]
            assert stats["counters"]["serve/jobs_requeued"] == 1


# ---------------------------------------------------------------------------
# plan building, spool tolerance, and the drain entry run in-process
# ---------------------------------------------------------------------------


EXPLORE_DOC = {
    "schema": JOB_SCHEMA,
    "verb": "explore",
    "network": "alexnet",
    "params": {
        "space": {
            "clusters": [4, 8],
            "groups": [6],
            "buffers_kib": [96],
            "ratios": [0.01],
            "acc_bits": [16],
        },
        "accuracy": "none",
    },
    "seed": 7,
}


class TestBuildPlanShapes:
    def test_compare_defaults_and_explicit_ratio(self):
        shape, plan = build_plan(
            JobRequest.from_dict(
                {"schema": JOB_SCHEMA, "verb": "compare", "network": "alexnet",
                 "params": {"ratio": 0.05}, "seed": 3}
            )
        )
        assert shape == "sweep"
        assert plan.seed == 3
        assert all(cell.params["ratio"] == 0.05 for cell in plan.cells)

    def test_explore_knobs_reach_the_request(self):
        shape, request = build_plan(
            JobRequest.from_dict(
                {"schema": JOB_SCHEMA, "verb": "explore", "network": "alexnet",
                 "params": {"strategy": "random", "samples": 4, "budget": 60.0,
                            "space": {"clusters": [4, 8]}},
                 "seed": 11}
            )
        )
        assert shape == "explore"
        assert request.strategy == "random"
        assert request.samples == 4
        assert request.budget_mm2 == 60.0
        assert request.seed == 11
        assert request.space.clusters == (4, 8)

    def test_explore_without_space_uses_the_default(self):
        shape, request = build_plan(
            JobRequest.from_dict(
                {"schema": JOB_SCHEMA, "verb": "explore", "network": "alexnet"}
            )
        )
        assert shape == "explore"
        assert request.space.clusters  # the full default design space


class TestStoreTolerance:
    """Corrupt spool entries degrade to None/JobError, never tracebacks."""

    def test_read_request_missing_and_corrupt(self, tmp_path):
        store = JobStore(tmp_path / "spool")
        assert store.read_request("job-nope") is None
        assert store.list_ids() == []
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        assert store.list_ids() == [job_id]
        save_json([1, 2], store.job_dir(job_id) / "job.json")
        with pytest.raises(JobError):
            store.read_request(job_id)

    @pytest.mark.parametrize(
        "state,request_edit",
        [
            ("FAILED", {"seed": -5, "params": {"rates": [2.5]}}),
            ("FAILED", {"params": {"widths": [1]}}),
            ("DONE", {"verb": "compare", "seed": -3, "params": {}}),
            ("QUEUED", {"verb": "compare", "seed": -3, "params": {}}),
        ],
    )
    def test_rescan_keeps_records_the_owners_now_refuse(self, tmp_path, state, request_edit):
        """A record accepted under looser rules stays listed after a restart."""
        from repro.harness.serialize import load_json

        server = JobServer(ServeConfig(spool=tmp_path / "spool"))
        job_id = server.store.create(JobRequest.from_dict(FAULTS_DOC))
        path = server.store.job_dir(job_id) / "job.json"
        record = load_json(path)
        record["request"].update(request_edit)
        save_json(record, path)
        if state != "QUEUED":
            server.store.set_state(job_id, "RUNNING")
            server.store.set_state(job_id, state)
        server._rescan()
        status, doc, _ = server.handle_request("GET", f"/jobs/{job_id}", b"")
        assert (status, doc["state"]) == (200, state)
        assert server.obs.counter("serve/rescan_corrupt").value == 0
        assert server._pop_next() is (server._jobs[job_id] if state == "QUEUED" else None)

    def test_read_state_malformed(self, tmp_path):
        store = JobStore(tmp_path / "spool")
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        save_json({"schema": "something/else"}, store.job_dir(job_id) / "state.json")
        with pytest.raises(JobError):
            store.read_state(job_id)

    def test_obs_and_error_docs_tolerate_garbage(self, tmp_path):
        store = JobStore(tmp_path / "spool")
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        assert store.read_obs(job_id) is None
        assert store.read_error(job_id) is None
        (store.job_dir(job_id) / "obs.json").write_text("{truncated")
        (store.job_dir(job_id) / "error.json").write_text('"a string"')
        assert store.read_obs(job_id) is None
        assert store.read_error(job_id) is None

    def test_progress_tolerates_corrupt_manifest_and_records(self, tmp_path):
        store = JobStore(tmp_path / "spool")
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        run = store.run_dir(job_id)
        (run / "cells").mkdir(exist_ok=True)
        (run / "cells" / "bad.json").write_text("{nope")
        (run / "manifest.json").write_text("[]")
        progress = job_progress(run)
        assert progress["cells_total"] is None  # manifest unreadable
        assert progress["cells_ok"] == 0


class _restored_signals:
    """The drain entry installs its own SIGTERM/SIGINT handlers and a
    process-global registry; running it in-process must not leak either
    into the rest of the suite."""

    def __enter__(self):
        import signal as _signal

        from repro.obs import get_registry

        self._term = _signal.getsignal(_signal.SIGTERM)
        self._int = _signal.getsignal(_signal.SIGINT)
        self._registry = get_registry()
        return self

    def __exit__(self, *exc):
        import signal as _signal

        from repro.obs import set_registry

        _signal.signal(_signal.SIGTERM, self._term)
        _signal.signal(_signal.SIGINT, self._int)
        set_registry(self._registry)
        return False


class TestDrainEntry:
    """`_drain_job_entry` run in this process (it is an ordinary
    function; the server merely hosts it in a child)."""

    def test_drains_a_sweep_job_to_done(self, tmp_path):
        from repro.harness.serve import _drain_job_entry

        store = JobStore(tmp_path / "spool")
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        with _restored_signals(), pytest.raises(SystemExit) as exit_info:
            _drain_job_entry(str(store.job_dir(job_id)), 1, 3, None, None, None)
        assert exit_info.value.code == 0
        progress = job_progress(store.run_dir(job_id))
        assert progress["cells_ok"] == progress["cells_total"]
        assert progress["envelope"]
        obs_doc = store.read_obs(job_id)
        assert obs_doc["counters"]["resilience/cells_succeeded"] == progress["cells_ok"]

    def test_drains_an_explore_job_to_done(self, tmp_path):
        from repro.harness.serve import _drain_job_entry

        store = JobStore(tmp_path / "spool")
        job_id = store.create(JobRequest.from_dict(EXPLORE_DOC))
        with _restored_signals(), pytest.raises(SystemExit) as exit_info:
            _drain_job_entry(str(store.job_dir(job_id)), 1, 3, None, None, None)
        assert exit_info.value.code == 0
        progress = job_progress(store.run_dir(job_id))
        assert progress["cells_ok"] >= 2  # both rung-0 candidates simulated
        assert progress["cells_leased"] == 0
        assert progress["envelope"]

    def test_structural_error_exits_2_with_error_doc(self, tmp_path):
        from repro.harness.serve import _drain_job_entry

        store = JobStore(tmp_path / "spool")
        job_id = store.create(JobRequest.from_dict(FAULTS_DOC))
        (store.run_dir(job_id) / "manifest.json").unlink()
        with _restored_signals(), pytest.raises(SystemExit) as exit_info:
            _drain_job_entry(str(store.job_dir(job_id)), 1, 3, None, None, None)
        assert exit_info.value.code == 2
        error = store.read_error(job_id)
        assert error["error"]
        assert error["message"]
