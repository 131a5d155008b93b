"""Remote-protocol chaos: real workers, real sockets, injected faults.

The tentpole acceptance battery from docs/REMOTE.md: a live ``--workers
0`` coordinator is drained *solely* by real ``repro work --connect``
subprocesses, every byte of whose traffic crosses the seeded
:class:`tests.chaos.netproxy.FaultyProxy` (drops, delays, duplicated /
truncated / eaten responses, RSTs), while a seeded schedule SIGKILLs
workers at protocol-critical instants. Afterwards the served envelope
must be byte-identical to a cold serial run, the run directory must
hold zero lease files, and the ``remote/*`` books must reconcile
exactly (claims == completed + expired + abandoned).

Kill hooks: remote schedules draw from the claim-ack and upload-ack
hooks only — the heartbeat hook needs cells that outlive the heartbeat
interval, and real ``faults`` cells finish in milliseconds; the
heartbeat kill instant is covered by tests/chaos/test_chaos.py (shared
filesystem) and the zombie-fencing units in tests/test_remote.py.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List

import pytest

from repro.harness.resilience import (
    RunDir,
    canonical_envelope_bytes,
    execute_sweep,
    faults_plan,
)
from repro.harness.serve import JOB_SCHEMA, ServeConfig, TERMINAL_STATES
from tests.chaos.harness import KILL_HOOKS, REPO, drain, worker_env
from tests.chaos.netproxy import CLAIM_BREAKING, MAX_BREAKING_RUN, FaultyProxy
from tests.test_serve_protocol import _LiveServer

SIGKILLED = -signal.SIGKILL
LEASE_TTL = 1.0
HEARTBEAT = 0.1

#: Deterministic remote kill instants: right after a claim is acked
#: (the server holds a live lease for a dead worker) and right after a
#: result upload is acked (the record is durable, the settle raced).
REMOTE_KILL_HOOKS = ("REPRO_KILL_AFTER_CLAIMS", "REPRO_KILL_AFTER_CELLS")

CHAOS_JOB = {
    "schema": JOB_SCHEMA,
    "verb": "faults",
    "network": "alexnet",
    "params": {"rates": [0.0, 1e-4, 1e-3], "widths": [24, 20, 16]},
    "seed": 11,
}


@pytest.fixture(autouse=True)
def _no_inherited_kill_hooks(monkeypatch):
    for hook in KILL_HOOKS:
        monkeypatch.delenv(hook, raising=False)


def _serial_reference(tmp_path):
    plan = faults_plan(
        "alexnet",
        rates=(0.0, 1e-4, 1e-3),
        widths=(24, 20, 16),
        policy="degrade",
        model="bitflip",
        ratio=0.03,
        seed=11,
    )
    ref = tmp_path / "reference"
    RunDir(ref).init(plan)
    _, envelope, _, _ = execute_sweep(plan, ref)
    return canonical_envelope_bytes(envelope)


def remote_kill_schedule(seed: int, workers: int = 3, min_kills: int = 2) -> List[Dict[str, str]]:
    """Seeded per-worker env overrides, ≥ ``min_kills`` armed."""
    rng = random.Random(seed)
    schedule: List[Dict[str, str]] = [{} for _ in range(workers)]
    n_victims = rng.randint(min(min_kills, workers), workers)
    for victim in rng.sample(range(workers), n_victims):
        schedule[victim] = {rng.choice(REMOTE_KILL_HOOKS): "1"}
    return schedule


def spawn_remote_workers(
    url: str,
    schedule: List[Dict[str, str]],
    request_timeout: float = 5.0,
    linger_s: float = 0.0,
) -> List[subprocess.Popen]:
    """Real ``repro work --connect`` subprocesses, one per schedule entry."""
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "work",
                "--connect",
                url,
                "--request-timeout",
                str(request_timeout),
                "--linger",
                str(linger_s),
            ],
            env=worker_env(extra),
            cwd=str(REPO),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for extra in schedule
    ]


def _assert_remote_books_reconcile(stats: dict):
    remote = stats["remote"]
    assert remote["active"] == 0, remote
    assert remote["claims"] == (
        remote["completed"] + remote["expired"] + remote["abandoned"]
    ), remote


def test_proxy_faults_ignore_interleaving_and_cap_breaking_runs():
    """Each worker's faults depend on its own requests alone, and no
    worker sees more than MAX_BREAKING_RUN claim-breaking faults in a row."""
    workers = ["w0", "w1", None]
    # never started: _draw needs no accept loop
    serial, mixed = FaultyProxy("127.0.0.1", 9, seed=3), FaultyProxy("127.0.0.1", 9, seed=3)
    try:
        alone = {w: [serial._draw(w) for _ in range(3000)] for w in workers}
        interleaved: Dict[object, list] = {w: [] for w in workers}
        for w in random.Random(0).choices(workers, k=6000):
            interleaved[w].append(mixed._draw(w))
    finally:
        serial.close()
        mixed.close()
    for w in workers:
        n = len(interleaved[w])
        assert interleaved[w] == alone[w][:n], w
        run = longest = 0
        for fault, _ in alone[w]:
            run = run + 1 if fault in CLAIM_BREAKING else 0
            longest = max(longest, run)
        assert longest == MAX_BREAKING_RUN, w
    assert alone["w0"] != alone["w1"]


def test_close_stops_the_accept_thread():
    """close() wakes the thread blocked in accept(), so it has exited
    by the time close() returns."""
    proxy = FaultyProxy("127.0.0.1", 9).start()
    thread = proxy._accept_thread
    seen = 0
    for _ in range(1000):  # until two polls in a row find it in socket.accept()
        frame = sys._current_frames().get(thread.ident)
        seen = seen + 1 if frame is not None and frame.f_code.co_name == "accept" else 0
        if seen == 2:
            break
        time.sleep(0.01)
    proxy.close()
    assert not proxy._accept_thread.is_alive()


class TestRemoteChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_faulty_network_drain_converges_to_serial_bytes(self, tmp_path, seed):
        reference = _serial_reference(tmp_path)

        config = ServeConfig(
            spool=tmp_path / "spool",
            workers=0,  # pure coordinator: only remote workers may drain
            lease_ttl=LEASE_TTL,
            heartbeat_s=HEARTBEAT,
        )
        with _LiveServer(config) as live:
            with FaultyProxy("127.0.0.1", live.server.port, seed=seed) as proxy:
                status, doc = live.request("POST", "/jobs", CHAOS_JOB)
                assert status == 202
                job_id = doc["job_id"]

                url = f"http://127.0.0.1:{proxy.port}"
                schedule = remote_kill_schedule(seed, workers=3, min_kills=2)
                assert sum(1 for extra in schedule if extra) >= 2
                codes = drain(spawn_remote_workers(url, schedule))
                # armed workers die by SIGKILL once their hook fires;
                # a worker the schedule starved may instead idle out
                assert all(code in (0, SIGKILLED) for code in codes), codes

                # a clean second wave reconnects through the same faulty
                # proxy and finishes whatever the kills orphaned (leases
                # are reclaimed by the server's TTL reaper)
                if live.request("GET", f"/jobs/{job_id}")[1]["state"] not in TERMINAL_STATES:
                    codes = drain(spawn_remote_workers(url, [{}, {}], linger_s=1.0))
                    assert codes == [0, 0], codes

                final = live.wait_state(job_id)
                assert final["state"] == "DONE", final

                # byte-identical to the cold serial run
                status, envelope = live.request("GET", f"/jobs/{job_id}/result")
                assert status == 200
                assert canonical_envelope_bytes(envelope) == reference

                # zero orphaned leases on disk
                leases = live.server.store.run_dir(job_id) / "leases"
                assert not leases.exists() or not list(leases.iterdir())

                # the books reconcile exactly
                status, stats = live.request("GET", "/stats")
                assert status == 200
                _assert_remote_books_reconcile(stats)
                assert stats["jobs"]["reconciles"] is True, stats["jobs"]

                # the proxy really saw the traffic (and, with these
                # weights, almost surely mangled some of it)
                assert sum(proxy.counts.values()) >= 9, proxy.counts

    def test_eaten_upload_is_retried_and_lands_once(self, tmp_path):
        """A proxy that eats every first response forces the
        at-least-once path: the worker retries operations the server
        already performed, and idempotency keeps the books exact."""
        config = ServeConfig(
            spool=tmp_path / "spool",
            workers=0,
            lease_ttl=30.0,  # no reaping: only idempotency may save us
            heartbeat_s=HEARTBEAT,
        )
        with _LiveServer(config) as live:
            proxy = FaultyProxy("127.0.0.1", live.server.port, seed=5)
            # deterministic override: eat exactly the first response of
            # every even-numbered connection
            seen = {"n": 0}

            def eat_alternate(worker):
                seen["n"] += 1
                fault = "eat_response" if seen["n"] % 2 == 0 else "none"
                proxy.counts[fault] += 1
                return fault, 0.0

            proxy._draw = eat_alternate  # type: ignore[method-assign]
            with proxy:
                status, doc = live.request(
                    "POST",
                    "/jobs",
                    {
                        "schema": JOB_SCHEMA,
                        "verb": "faults",
                        "network": "alexnet",
                        "params": {"rates": [0.0], "widths": [24]},
                        "seed": 7,
                    },
                )
                assert status == 202
                job_id = doc["job_id"]
                codes = drain(
                    spawn_remote_workers(f"http://127.0.0.1:{proxy.port}", [{}], linger_s=1.0)
                )
                assert codes == [0], codes
                final = live.wait_state(job_id)
                assert final["state"] == "DONE", final
                assert final["progress"]["cells_ok"] == 2

                _, stats = live.request("GET", "/stats")
                _assert_remote_books_reconcile(stats)
                assert proxy.counts["eat_response"] >= 1, proxy.counts
