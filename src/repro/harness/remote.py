"""The HTTP work-dispatch protocol: remote workers with no shared filesystem.

``repro work --connect http://host:port`` joins a running ``repro
serve`` from another machine. Nothing is shared but the wire — the
protocol maps 1:1 onto the filesystem lease protocol (docs/COORD.md),
with the *server* executing every lease operation on the remote
worker's behalf against the same lease files local workers contend on:

- ``POST /cells/claim`` — the server scans its non-terminal jobs for a
  pending cell, claims it through a :class:`~repro.harness.coord.LeaseManager`
  bearing the remote worker's identity, and answers with a
  ``repro.cellspec/v1`` document: the cell's spec plus the lease and
  its fencing token.
- ``POST /cells/<claim>/heartbeat`` — renews the lease while the
  client simulates. A stale fencing token (or a lease lost to a local
  thief) answers a structured **409**; the client may still finish and
  upload — the first durable record wins.
- ``PUT /cells/<claim>/result`` — idempotent, at-least-once upload
  through :meth:`~repro.harness.resilience.RunDir.write_cell_exclusive`:
  a duplicate upload after a network retry is counted and discarded, a
  *diverging* one is an ``ArtifactIntegrityError(cell_conflict)`` 409.
- ``POST /cells/<claim>/abandon`` — clean client-side give-up; a
  vanished client is reclaimed by the server's TTL reaper instead.

Server-side accounting lands under ``remote/*`` and reconciles exactly:
``claims == completed + expired + abandoned + active`` (and once a
drain is over, ``active == 0``). The client side is
:class:`RemoteWorker`, which the shared supervised pool
(``resilience._execute_cells``) drives exactly like the filesystem
coordinator: cells run forked under the usual timeout and retry
policy, while the transport adds per-request timeouts, capped
exponential backoff with jitter and a retry budget; on partition it
abandons cleanly, reconnects, and re-claims, and fencing tokens fence
off any zombie. docs/REMOTE.md has the full protocol, lifecycle and
failure matrix.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from ..errors import (
    ArtifactIntegrityError,
    JobError,
    LeaseError,
    RemoteProtocolError,
    StaleOwnerError,
)
from ..obs import NULL_REGISTRY, Registry
from .coord import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    KILL_AFTER_CLAIMS_ENV,
    KILL_AFTER_HEARTBEATS_ENV,
    SKEW_MARGIN_S,
    LeaseManager,
    default_owner_id,
    maybe_kill,
)
from .resilience import (
    KILL_AFTER_ENV,
    CellSpec,
    RetryPolicy,
    RunDir,
    SweepPlan,
    _execute_cells,
    _sigterm_guard,
)
from .serialize import to_jsonable

__all__ = [
    "CELLSPEC_SCHEMA",
    "CLAIM_REQUEST_SCHEMA",
    "HEARTBEAT_SCHEMA",
    "RESULT_SCHEMA",
    "ABANDON_SCHEMA",
    "Backoff",
    "RemoteClient",
    "RemoteWorker",
    "RemoteCellBroker",
]

CLAIM_REQUEST_SCHEMA = "repro.claim/v1"
CELLSPEC_SCHEMA = "repro.cellspec/v1"
HEARTBEAT_SCHEMA = "repro.heartbeat/v1"
RESULT_SCHEMA = "repro.cellresult/v1"
ABANDON_SCHEMA = "repro.abandon/v1"

#: Settled claims kept around (as tombstones) so late/duplicate result
#: uploads still route idempotently; beyond this the oldest are dropped.
MAX_TOMBSTONES = 4096

#: Transport-level failures worth retrying — everything below an HTTP
#: status: refused/reset connections, timeouts, truncated responses.
_TRANSPORT_ERRORS = (
    urllib.error.URLError,
    http.client.HTTPException,
    ConnectionError,
    TimeoutError,
    OSError,
)


# ---------------------------------------------------------------------------
# Client plumbing: backoff + HTTP transport
# ---------------------------------------------------------------------------


class Backoff:
    """Capped exponential backoff with jitter, seeded for the tests."""

    def __init__(
        self,
        base_s: float = 0.25,
        factor: float = 2.0,
        cap_s: float = 10.0,
        jitter: float = 0.25,
        rng: Optional[random.Random] = None,
    ):
        self.base_s = float(base_s)
        self.factor = float(factor)
        self.cap_s = float(cap_s)
        self.jitter = float(jitter)
        self.rng = rng if rng is not None else random.Random()
        self.failures = 0

    def reset(self) -> None:
        self.failures = 0

    def next_delay(self) -> float:
        """The delay before the next attempt; grows per call until reset."""
        self.failures += 1
        raw = min(self.cap_s, self.base_s * self.factor ** (self.failures - 1))
        spread = raw * self.jitter
        return max(0.0, raw + self.rng.uniform(-spread, spread))


class RemoteClient:
    """Stdlib-urllib JSON transport with deadlines and bounded retry.

    Every request carries a per-request timeout (default 10 s).
    Transport failures (refused, reset, timed out, truncated mid-body)
    and 5xx answers are retried up to ``retries`` extra attempts behind
    :class:`Backoff`;
    exhausting the budget raises :class:`RemoteProtocolError`
    (``reason="unreachable"``). Any sub-500 HTTP answer — including the
    protocol's structured 4xx rejections — is returned to the caller as
    ``(status, parsed-body)``: those are answers, not failures.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: Optional[float] = None,
        retries: int = 5,
        backoff: Optional[Backoff] = None,
        obs: Optional[Registry] = None,
    ):
        base_url = base_url.rstrip("/")
        if not base_url.startswith(("http://", "https://")):
            raise RemoteProtocolError(
                "server URL must start with http:// or https://",
                url=base_url,
                reason="bad_url",
            )
        self.base_url = base_url
        self.timeout_s = 10.0 if timeout_s is None else float(timeout_s)
        self.retries = int(retries)
        self.backoff = backoff if backoff is not None else Backoff()
        self.obs = obs if obs is not None else NULL_REGISTRY

    def request(
        self,
        method: str,
        path: str,
        doc: Optional[Dict[str, Any]] = None,
        retries: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        url = self.base_url + path
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        payload = None if doc is None else json.dumps(to_jsonable(doc)).encode("utf-8")
        budget = self.retries if retries is None else int(retries)
        self.backoff.reset()
        last = "no attempt made"
        for attempt in range(budget + 1):
            if attempt:
                self.obs.counter("remote/http_retries").add()
                time.sleep(self.backoff.next_delay())
            self.obs.counter("remote/http_requests").add()
            try:
                status, raw = self._once(url, method, payload, timeout_s)
            except _TRANSPORT_ERRORS as exc:
                last = f"{type(exc).__name__}: {exc}"
                continue
            if status >= 500:
                last = f"server answered {status}"
                continue
            try:
                body = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, ValueError) as exc:
                # A truncated or mangled body is a transport fault even
                # though a status line made it through.
                last = f"unparseable response body: {exc}"
                continue
            if not isinstance(body, dict):
                last = f"response body is {type(body).__name__}, not an object"
                continue
            return status, body
        raise RemoteProtocolError(
            f"{method} {path} failed after {budget + 1} attempt(s): {last}",
            url=url,
            reason="unreachable",
        )

    def _once(
        self, url: str, method: str, payload: Optional[bytes], timeout_s: float
    ) -> Tuple[int, bytes]:
        req = urllib.request.Request(
            url, data=payload, method=method, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()


# ---------------------------------------------------------------------------
# The remote worker: an HTTP coordinator for the shared supervisor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Claimed(CellSpec):
    """A claimed cell. Cell ids repeat across jobs, so the worker
    tracks what it holds by ``claim_id``."""

    claim_id: str


@dataclass
class _Held:
    """One claim the worker holds: where to renew and settle it."""

    cell_id: str
    worker: str
    token: int
    heartbeat_s: float
    due: float  # the next heartbeat, or the next upload attempt once ``result`` is set
    lost: bool = False
    result: Optional[Dict[str, Any]] = None  # the settled outcome awaiting upload
    upload_backoff: Optional[Backoff] = None


class RemoteWorker:
    """Drain a remote server's cells until it reports itself idle.

    A remote worker is the shared supervisor (``resilience._execute_cells``)
    driving this class as its coordinator over HTTP: every cell runs in
    its own worker process under ``retry`` (per-cell timeout, bounded
    attempts), up to ``jobs`` at once, and SIGTERM abandons every held
    claim before the worker exits. The coordinator calls map onto the
    protocol: :meth:`next_cell` is ``POST /cells/claim``, :meth:`tick`
    heartbeats every held claim that is due, :meth:`commit` is an
    at-least-once ``PUT /cells/<claim>/result`` and :meth:`abandon_all`
    a best-effort ``POST /cells/<claim>/abandon`` per held claim. The
    broker re-delivers a cell to an owner that already holds its lease,
    so each concurrently held claim goes out under its own identity:
    ``owner`` for the first, ``owner/1``, ``owner/2``, ... for the rest.

    The supervisor makes these calls between polls of its running cells,
    so each is one request that waits at most the client's timeout (a
    heartbeat: one interval); failed claims and uploads are retried on
    later passes behind backoff.
    """

    def __init__(
        self,
        client: RemoteClient,
        owner: Optional[str] = None,
        obs: Optional[Registry] = None,
        jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        max_failures: int = 8,
        linger_s: Optional[float] = None,
        rng: Optional[random.Random] = None,
        stream=None,
    ):
        self.client = client
        self.owner = owner or default_owner_id()
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_failures = max(1, int(max_failures))
        self.linger_s = 0.0 if linger_s is None else float(linger_s)
        self.rng = rng if rng is not None else random.Random()
        self.stream = stream if stream is not None else sys.stdout
        self.exit_code = 0
        self._backoff = Backoff(base_s=0.5, cap_s=10.0, rng=self.rng)
        self._held: Dict[str, _Held] = {}  # by claim_id
        self._failures = 0
        self._retrying_as: Optional[str] = None
        self._idle_since: Optional[float] = None
        self._beats = 0
        self._claims = 0
        self._completed = 0
        self._abandoned = 0

    def run(self) -> int:
        """Drain until the server is idle for ``linger_s`` (0), rejects
        the claim document outright (2), or fails ``max_failures``
        consecutive claim rounds (3)."""
        _sigterm_guard(lambda: _execute_cells(self, self.jobs, self.retry, self.obs))
        return self.exit_code

    def _log(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def _claim_failed(self, reason: str) -> Optional[float]:
        self._failures += 1
        if self._failures < self.max_failures:
            return self._backoff.next_delay()
        self.exit_code = 3
        self._log(f"giving up after {self._failures} consecutive failed claim rounds: {reason}")
        return None

    def next_cell(self) -> Union[CellSpec, float, None]:
        if any(held.result is not None for held in self._held.values()):
            return 0.05  # settle the uploads tick() is retrying before claiming more
        # A failed round retries under the same identity, so a claim the
        # server granted but whose answer was lost is re-delivered to us.
        in_use = {held.worker for held in self._held.values()}
        names = [self.owner] + [f"{self.owner}/{k}" for k in range(1, len(in_use) + 1)]
        worker = self._retrying_as or next(name for name in names if name not in in_use)
        self._retrying_as = worker
        try:
            status, doc = self.client.request(
                "POST", "/cells/claim", {"schema": CLAIM_REQUEST_SCHEMA, "worker": worker},
                retries=0,
            )
        except RemoteProtocolError as exc:
            self.obs.counter("remote/claim_failures").add()
            return self._claim_failed(str(exc))
        if status == 400:
            # The server rejected the claim document itself — a protocol
            # bug, not a transient; retrying cannot help.
            self.exit_code = 2
            self._log(f"server rejected claim request: {doc.get('message')}")
            return None
        if status != 200:
            # 503 while draining, or anything unexpected: back off.
            return self._claim_failed(f"server keeps answering {status}")
        self._failures = 0
        self._backoff.reset()
        self._retrying_as = None
        if not doc.get("cell"):
            if not doc.get("idle"):
                self._idle_since = None
            else:
                self.obs.counter("remote/idle_polls").add()
                now = time.monotonic()
                if self._idle_since is None:
                    self._idle_since = now
                if now - self._idle_since >= self.linger_s:
                    self._log(
                        f"server idle; worker {self.owner} done "
                        f"({self._completed} cells completed, {self._abandoned} abandoned)"
                    )
                    return None
            return float(doc.get("retry_after_s") or 0.5) * self.rng.uniform(0.8, 1.2)
        self._idle_since = None
        spec = _Claimed(**vars(CellSpec.from_dict(doc["cell"])), claim_id=doc["claim_id"])
        lease = doc.get("lease") or {}
        heartbeat_s = max(0.05, float(lease.get("heartbeat_s") or DEFAULT_HEARTBEAT_S))
        self._held[spec.claim_id] = _Held(
            cell_id=spec.cell_id,
            worker=worker,
            token=int(lease.get("token", 1)),
            heartbeat_s=heartbeat_s,
            due=time.monotonic() + heartbeat_s,
        )
        self.obs.counter("remote/cells_claimed").add()
        self._claims += 1
        maybe_kill(KILL_AFTER_CLAIMS_ENV, self._claims)
        return spec

    def tick(self) -> None:
        """Renew due claims and retry due uploads. A missed beat
        (transport fault) is counted and retried next interval — the TTL
        absorbs gaps. A structured rejection (409 stale token or stolen
        lease, 410 settled claim) marks the claim lost for good, but its
        attempt still finishes and uploads: the first durable record
        settles who won."""
        now = time.monotonic()
        for claim_id, held in list(self._held.items()):
            if now < held.due:
                continue
            if held.result is not None:
                self._send_result(claim_id, held)
                continue
            if held.lost:
                continue
            held.due = now + held.heartbeat_s
            body = {"schema": HEARTBEAT_SCHEMA, "worker": held.worker, "token": held.token}
            try:
                status, _ = self.client.request(
                    "POST", f"/cells/{claim_id}/heartbeat", body, retries=0,
                    timeout_s=min(self.client.timeout_s, held.heartbeat_s),
                )
            except RemoteProtocolError:
                self.obs.counter("remote/heartbeat_misses").add()
                continue
            if status == 200:
                self.obs.counter("remote/heartbeats").add()
                self._beats += 1
                maybe_kill(KILL_AFTER_HEARTBEATS_ENV, self._beats)
            else:
                self.obs.counter("remote/lease_lost").add()
                held.lost = True

    def commit(
        self,
        spec: _Claimed,
        status: str,
        result: Any = None,
        error: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
    ) -> None:
        """Upload a final outcome, even when the lease was lost mid-cell:
        the record write is exclusive, so a zombie's upload is counted,
        never corrupting."""
        held = self._held[spec.claim_id]
        held.result = {
            "schema": RESULT_SCHEMA,
            "worker": held.worker,
            "token": held.token,
            "status": status,
            "result": result,
            "error": error,
            "attempts": attempts,
        }
        held.upload_backoff = Backoff(rng=self.rng)
        self._send_result(spec.claim_id, held)

    def _send_result(self, claim_id: str, held: _Held) -> None:
        """One ``PUT /cells/<claim>/result``; a transport fault is retried
        from :meth:`tick` up to the client's retry budget. An unreachable
        or rejected upload abandons the cell — the TTL reaper re-offers it."""
        try:
            code, doc = self.client.request(
                "PUT", f"/cells/{claim_id}/result", held.result, retries=0
            )
        except RemoteProtocolError:
            if held.upload_backoff.failures < self.client.retries:
                self.obs.counter("remote/http_retries").add()
                held.due = time.monotonic() + held.upload_backoff.next_delay()
                return
            code, doc = None, {"reason": "unreachable"}
        del self._held[claim_id]
        if code != 200:
            self._abandoned += 1
            self.obs.counter("remote/cells_abandoned").add()
            reason = doc.get("reason") or doc.get("error")
            self._log(f"abandoning {held.cell_id}: result upload failed ({code} {reason})")
            return
        self._completed += 1
        self.obs.counter("remote/cells_completed").add()
        if doc.get("duplicate"):
            self.obs.counter("remote/duplicates").add()
        maybe_kill(KILL_AFTER_ENV, self._completed)

    def abandon_all(self) -> None:
        """Release every held claim promptly (Ctrl-C / SIGTERM), so peers
        pick the cells up instead of waiting out the TTL."""
        for claim_id, held in self._held.items():
            body = {"schema": ABANDON_SCHEMA, "worker": held.worker, "token": held.token}
            try:
                self.client.request("POST", f"/cells/{claim_id}/abandon", body, retries=0)
            except RemoteProtocolError:
                pass  # best effort; the TTL reaper covers us
        self._held.clear()


# ---------------------------------------------------------------------------
# The server-side broker
# ---------------------------------------------------------------------------


class _RemoteClaim:
    """One outstanding (or tombstoned) remote claim."""

    __slots__ = (
        "claim_id",
        "job_id",
        "cell_id",
        "worker",
        "token",
        "spec",
        "manager",
        "rundir",
        "last_seen",
        "state",  # active -> done | expired | abandoned
    )

    def __init__(self, claim_id, job_id, worker, token, spec, manager, rundir, now):
        self.claim_id = claim_id
        self.job_id = job_id
        self.cell_id = spec.cell_id
        self.worker = worker
        self.token = token
        self.spec = spec
        self.manager = manager
        self.rundir = rundir
        self.last_seen = now
        self.state = "active"


def _reject(status: int, reason: str, message: str, error: str = "RemoteProtocolError"):
    return status, {"error": error, "reason": reason, "message": message}, {}


class RemoteCellBroker:
    """Server-side end of the protocol: leases executed by proxy.

    Each (job, remote worker) pair gets its own
    :class:`~repro.harness.coord.LeaseManager` bearing the *remote
    worker's* owner id, rooted at the job's ordinary leases directory —
    so remote claims, local drain workers and filesystem ``repro work``
    processes all contend through the identical lease files and steal
    rules. Claims the client stops renewing are reaped on the server's
    monotonic clock after the TTL and settle as ``expired``; settled
    claims stay behind as tombstones so late and duplicate uploads
    still resolve idempotently. All methods are synchronous and called
    from the server's single event-loop thread.
    """

    def __init__(
        self,
        store: Any,
        jobs_view: Callable[[], Iterable[str]],
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        obs: Optional[Registry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store = store
        self.jobs_view = jobs_view
        self.ttl_s = float(ttl_s)
        self.heartbeat_s = float(heartbeat_s)
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.clock = clock
        self._claims: Dict[str, _RemoteClaim] = {}
        self._by_job: Dict[str, set] = {}
        self._managers: Dict[Tuple[str, str], LeaseManager] = {}
        self._plans: Dict[str, Optional[Tuple[RunDir, SweepPlan]]] = {}
        self._settled: deque = deque()
        self._claim_seq = 0

    # -- helpers -------------------------------------------------------------

    def _plan(self, job_id: str) -> Optional[Tuple[RunDir, SweepPlan]]:
        """The job's (RunDir, plan), cached — ``None`` for run dirs the
        network protocol does not dispatch. An explore job has no
        manifest at its root: each rung's plan exists only once the
        previous rung has picked its survivors, so the search runs where
        it started and its rungs are never offered to remote workers."""
        if job_id not in self._plans:
            rundir = RunDir(self.store.run_dir(job_id))
            try:
                manifest = rundir.load_manifest(verify=True)
                self._plans[job_id] = (rundir, rundir.plan_from_manifest(manifest))
            except ArtifactIntegrityError:
                self._plans[job_id] = None
        return self._plans[job_id]

    def _manager(self, job_id: str, worker: str) -> LeaseManager:
        key = (job_id, worker)
        manager = self._managers.get(key)
        if manager is None:
            entry = self._plan(job_id)
            assert entry is not None  # callers claim only sweep-shaped jobs
            manager = LeaseManager(
                entry[0].leases_dir,
                owner=worker,
                ttl_s=self.ttl_s,
                heartbeat_s=self.heartbeat_s,
                obs=self.obs,
                clock=self.clock,
            )
            self._managers[key] = manager
        return manager

    def _worker_field(self, doc: Any, schema: str) -> str:
        if not isinstance(doc, dict):
            raise JobError("request body must be a JSON object")
        if doc.get("schema") != schema:
            raise JobError(
                f"request schema must be {schema!r}, got {doc.get('schema')!r}",
                field="schema",
            )
        worker = doc.get("worker")
        if not isinstance(worker, str) or not worker or len(worker) > 200:
            raise JobError("worker must be a non-empty string", field="worker")
        return worker

    def _token_field(self, doc: Dict[str, Any]) -> int:
        token = doc.get("token")
        if not isinstance(token, int) or isinstance(token, bool):
            raise JobError("token must be an integer fencing token", field="token")
        return token

    def _settle(self, claim: _RemoteClaim, outcome: str, release: bool = True) -> None:
        """Move an active claim into exactly one terminal bucket.

        ``release=False`` supersedes the claim on the books without
        touching the lease file — used when a re-delivered claim for
        the same (cell, worker) continues under the same lease.
        """
        if claim.state != "active":
            return
        claim.state = "done" if outcome == "completed" else outcome
        if release:
            claim.manager.release(
                claim.cell_id,
                {"completed": "completed", "expired": "expired", "abandoned": "released"}[
                    outcome
                ],
            )
        self.obs.counter(f"remote/{outcome}").add()
        self._settled.append(claim.claim_id)
        while len(self._settled) > MAX_TOMBSTONES:
            old_id = self._settled.popleft()
            old = self._claims.get(old_id)
            if old is not None and old.state != "active":
                self._claims.pop(old_id, None)
                self._by_job.get(old.job_id, set()).discard(old_id)

    def _lookup(self, claim_id: str, worker: str, token: int):
        """The claim, or a ready-to-return rejection tuple."""
        claim = self._claims.get(claim_id)
        if claim is None:
            return None, _reject(
                410, "unknown_claim", f"claim {claim_id!r} is unknown or forgotten"
            )
        if claim.worker != worker or claim.token != token:
            self.obs.counter("remote/stale_tokens").add()
            return None, _reject(
                409,
                "stale_token",
                f"fencing token {token} for worker {worker!r} does not match "
                f"claim {claim_id!r} (token {claim.token})",
            )
        return claim, None

    # -- protocol operations -------------------------------------------------

    def claim(self, doc: Any):
        """``POST /cells/claim`` — find and lease one pending cell."""
        worker = self._worker_field(doc, CLAIM_REQUEST_SCHEMA)
        jobs = list(self.jobs_view())
        for job_id in jobs:
            entry = self._plan(job_id)
            if entry is None:
                continue
            rundir, plan = entry
            for spec in rundir.pending_cells(plan, retry_failed=False):
                manager = self._manager(job_id, worker)
                lease = manager.try_claim(spec.cell_id)
                if lease is None:
                    continue
                now = self.clock()
                # A re-delivered claim (our earlier answer was lost in
                # transit) returns the same still-held lease: supersede
                # the orphaned claim on the books, keep the lease live.
                for old_id in list(self._by_job.get(job_id, ())):
                    old = self._claims.get(old_id)
                    if (
                        old is not None
                        and old.state == "active"
                        and old.cell_id == spec.cell_id
                        and old.worker == worker
                    ):
                        self._settle(old, "expired", release=False)
                self._claim_seq += 1
                claim_id = f"cl-{self._claim_seq:06d}-{lease.token}"
                claim = _RemoteClaim(
                    claim_id, job_id, worker, lease.token, spec, manager, rundir, now
                )
                self._claims[claim_id] = claim
                self._by_job.setdefault(job_id, set()).add(claim_id)
                self.obs.counter("remote/claims").add()
                return (
                    200,
                    {
                        "schema": CELLSPEC_SCHEMA,
                        "claim_id": claim_id,
                        "job_id": job_id,
                        "cell": spec.to_dict(),
                        "seed": plan.seed,
                        "lease": {
                            "owner": worker,
                            "token": lease.token,
                            "ttl_s": self.ttl_s,
                            "heartbeat_s": self.heartbeat_s,
                        },
                    },
                    {},
                )
        idle = not jobs
        if idle:
            self.obs.counter("remote/idle_polls").add()
        return (
            200,
            {
                "schema": CELLSPEC_SCHEMA,
                "claim_id": None,
                "cell": None,
                "idle": idle,
                "retry_after_s": round(min(2.0, max(0.1, self.heartbeat_s / 2)), 3),
            },
            {},
        )

    def heartbeat(self, claim_id: str, doc: Any):
        """``POST /cells/<id>/heartbeat`` — renew, 409 on stale fencing."""
        worker = self._worker_field(doc, HEARTBEAT_SCHEMA)
        token = self._token_field(doc)
        claim, rejection = self._lookup(claim_id, worker, token)
        if rejection is not None:
            return rejection
        if claim.state != "active":
            return _reject(
                410, "claim_settled", f"claim {claim_id!r} already settled ({claim.state})"
            )
        try:
            lease = claim.manager.heartbeat(claim.cell_id)
        except StaleOwnerError as exc:
            self._settle(claim, "expired")
            return _reject(409, "stale_lease", str(exc), error="StaleOwnerError")
        except LeaseError as exc:  # lease swept by a finished drain
            self._settle(claim, "expired")
            return _reject(409, "stale_lease", str(exc), error="LeaseError")
        claim.last_seen = self.clock()
        self.obs.counter("remote/heartbeats").add()
        return 200, {"ok": True, "token": lease.token, "heartbeats": lease.heartbeats}, {}

    def result(self, claim_id: str, doc: Any):
        """``PUT /cells/<id>/result`` — idempotent first-record-wins."""
        worker = self._worker_field(doc, RESULT_SCHEMA)
        token = self._token_field(doc)
        status = doc.get("status")
        if status not in ("ok", "failed"):
            raise JobError("status must be 'ok' or 'failed'", field="status")
        attempts = doc.get("attempts", 1)
        if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 1:
            raise JobError("attempts must be a positive integer", field="attempts")
        error = doc.get("error")
        if error is not None and not isinstance(error, dict):
            raise JobError("error must be an object or null", field="error")
        claim, rejection = self._lookup(claim_id, worker, token)
        if rejection is not None:
            return rejection
        try:
            record, wrote = claim.rundir.write_cell_exclusive(
                claim.spec, status, result=doc.get("result"), error=error, attempts=attempts
            )
        except ArtifactIntegrityError as exc:
            # Diverging double completion — deterministic cells cannot
            # disagree unless something is broken. Fence the claim off.
            self.obs.counter("remote/conflicts").add()
            self._settle(claim, "expired")
            return _reject(409, "cell_conflict", str(exc), error="ArtifactIntegrityError")
        if not wrote:
            self.obs.counter("coord/duplicates").add()
            self.obs.counter("remote/duplicates").add()
        if claim.state == "active":
            self._settle(claim, "completed")
        elif claim.state in ("expired", "abandoned"):
            self.obs.counter("remote/late_results").add()
        claim.last_seen = self.clock()
        return 200, {"recorded": True, "duplicate": not wrote, "state": claim.state}, {}

    def abandon(self, claim_id: str, doc: Any):
        """``POST /cells/<id>/abandon`` — clean client-side give-up."""
        worker = self._worker_field(doc, ABANDON_SCHEMA)
        token = self._token_field(doc)
        claim, rejection = self._lookup(claim_id, worker, token)
        if rejection is not None:
            return rejection
        released = claim.state == "active"
        if released:
            self._settle(claim, "abandoned")
        return 200, {"released": released, "state": claim.state}, {}

    # -- housekeeping --------------------------------------------------------

    def reap(self) -> int:
        """Expire active claims whose client stopped renewing (TTL on
        the server's own monotonic clock); returns claims reaped."""
        now = self.clock()
        reaped = 0
        for claim in list(self._claims.values()):
            if claim.state != "active":
                continue
            if now - claim.last_seen > self.ttl_s + SKEW_MARGIN_S:
                self._settle(claim, "expired")
                reaped += 1
        return reaped

    def job_fully_recorded(self, job_id: str) -> bool:
        """True when every cell of a sweep-shaped job has a durable
        record — the moment a remote-only drain can be finalized."""
        entry = self._plan(job_id)
        if entry is None:
            return False
        rundir, plan = entry
        return not rundir.pending_cells(plan, retry_failed=False)

    def forget_job(self, job_id: str) -> None:
        """Drop a terminal job's claims, managers and cached plan.

        Any still-active claim is settled ``expired`` first so the
        ``remote/*`` books keep balancing; its lease file (if one
        remains) is released through the normal path.
        """
        for claim_id in list(self._by_job.get(job_id, ())):
            claim = self._claims.pop(claim_id, None)
            if claim is not None:
                self._settle(claim, "expired")
        self._by_job.pop(job_id, None)
        self._plans.pop(job_id, None)
        for key in [key for key in self._managers if key[0] == job_id]:
            del self._managers[key]

    def shutdown(self) -> None:
        """Settle every active claim (server-initiated teardown)."""
        for claim in list(self._claims.values()):
            self._settle(claim, "expired")

    def stats(self) -> Dict[str, Any]:
        """The ``remote`` reconciliation block for ``GET /stats``."""
        counters = dict(self.obs.snapshot())
        active = sum(1 for claim in self._claims.values() if claim.state == "active")
        doc = {
            "claims": int(counters.get("remote/claims", 0)),
            "completed": int(counters.get("remote/completed", 0)),
            "expired": int(counters.get("remote/expired", 0)),
            "abandoned": int(counters.get("remote/abandoned", 0)),
            "active": active,
        }
        doc["reconciles"] = doc["claims"] == (
            doc["completed"] + doc["expired"] + doc["abandoned"] + doc["active"]
        )
        return doc
