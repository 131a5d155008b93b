"""Distributed sweep coordination: crash-safe cell leases over a run dir.

Any number of ``repro work <run-dir>`` worker processes — on one
machine or many sharing a filesystem — cooperatively drain one
checkpointed sweep. The only shared state is the run directory itself:

- **Claims** are lease files under ``<run-dir>/leases/``, one per
  in-flight cell, created atomically (write-to-temp + ``os.link``,
  which fails if the lease already exists — the portable ``O_EXCL``).
  A lease carries the claimer's owner id, a fencing token that
  increments on every steal, and heartbeat progress.
- **Heartbeats** re-write the lease atomically while the cell
  simulates. A renewal that finds the file gone or re-owned raises
  :class:`~repro.errors.StaleOwnerError` — the lease was stolen.
- **Steals** recover cells whose owner died or stalled. Expiry is
  *observation-based*: a would-be thief remembers the lease fingerprint
  ``(owner, token, heartbeats)`` and the first time it saw it on its
  **own monotonic clock**; only when the same fingerprint has persisted
  longer than the lease TTL plus a skew margin is the lease stale.
  Wall-clock timestamps in the lease are informational only — workers'
  clocks are never compared (see the clock-skew tests). As a fast
  path, a lease whose owner is a dead process on *this* host is stale
  immediately. The steal itself is a rename-to-unique-name CAS, so of
  N concurrent thieves exactly one wins.
- **Double completion** cannot corrupt results: the first durable
  ``repro.cell/v1`` record wins, a second identical completion is
  counted (``coord/duplicates``) and discarded, and a *diverging*
  completion raises :class:`~repro.errors.ArtifactIntegrityError` —
  a deterministic cell can only diverge if something is broken.

Counters land under ``coord/*`` and reconcile exactly per process:
``claimed == completed + expired + released`` (every claim ends in
exactly one bucket), plus ``steals``, ``contention``,
``stale_detected``, ``heartbeats`` and ``duplicates``.
docs/COORD.md has the full protocol, lifecycle diagram and failure
matrix.
"""

from __future__ import annotations

import heapq
import itertools
import os
import signal
import socket
import time
import uuid
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..constants import DEFAULT_HEARTBEAT_S, DEFAULT_LEASE_TTL_S
from ..errors import ArtifactIntegrityError, LeaseError, StaleOwnerError
from ..obs import NULL_REGISTRY, Registry
from .serialize import load_json, save_json

__all__ = [
    "LEASE_SCHEMA",
    "LEASES_DIR",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_HEARTBEAT_S",
    "SKEW_MARGIN_S",
    "KILL_AFTER_CLAIMS_ENV",
    "KILL_AFTER_HEARTBEATS_ENV",
    "Lease",
    "LeaseManager",
    "CellCoordinator",
    "default_owner_id",
    "maybe_kill",
    "safe_cell_filename",
]

LEASE_SCHEMA = "repro.lease/v1"
LEASES_DIR = "leases"

#: Grace added to the TTL before an observer declares a lease stale —
#: absorbs scheduling jitter between the claimer's renewal cadence and
#: the observer's sampling cadence (both on their own monotonic clocks).
SKEW_MARGIN_S = 1.0

#: Test/CI hook: SIGKILL this process right after its N-th successful
#: lease claim — before any work or record — i.e. crash in the
#: claim-to-record window.
KILL_AFTER_CLAIMS_ENV = "REPRO_KILL_AFTER_CLAIMS"
#: Test/CI hook: SIGKILL this process right after writing its N-th
#: heartbeat renewal — i.e. crash mid-cell with a fresh-looking lease.
KILL_AFTER_HEARTBEATS_ENV = "REPRO_KILL_AFTER_HEARTBEATS"


def default_owner_id() -> str:
    """A globally unique worker identity: ``host:pid:nonce``.

    The host and pid let same-host workers detect dead owners
    immediately; the nonce keeps recycled pids from impersonating a
    previous owner's lease fingerprint.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


def safe_cell_filename(cell_id: str, suffix: str = ".json") -> str:
    """The filesystem-safe name a cell's artifacts are stored under."""
    safe = "".join(c if (c.isalnum() or c in "._=-") else "_" for c in cell_id)
    return f"{safe}{suffix}"


def maybe_kill(env: str, done: int) -> None:
    """Chaos hook: SIGKILL this process once ``done`` reaches ``$env``.

    Shared by every worker flavour (filesystem leases here, HTTP remote
    workers in :mod:`repro.harness.remote`) so the chaos harness can
    crash any of them at the same protocol-critical instants.
    """
    kill_after = os.environ.get(env)
    if kill_after and done >= int(kill_after):
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here


def _owner_alive(owner: str) -> Optional[bool]:
    """Is the owner's process alive — ``None`` when undecidable.

    Only a same-host owner id of the ``host:pid:nonce`` form can be
    probed; anything else (remote worker, synthetic test owner) returns
    ``None`` and expiry falls back to the observation clock. A recycled
    pid can only make a dead owner look alive — the safe direction.
    """
    parts = owner.rsplit(":", 2)
    if len(parts) != 3 or parts[0] != socket.gethostname():
        return None
    try:
        pid = int(parts[1])
    except ValueError:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return None
    return True


@dataclass
class Lease:
    """One cell's claim: who holds it, fenced by ``token``.

    ``claimed_wall`` is a human-facing wall-clock timestamp and is
    **never** compared across workers — expiry uses each observer's own
    monotonic clock. ``elapsed_s`` is the claimer's monotonic time
    since its claim, refreshed on every heartbeat (status display and
    diagnostics only).
    """

    cell_id: str
    owner: str
    token: int
    ttl_s: float
    claimed_wall: str = ""
    elapsed_s: float = 0.0
    heartbeats: int = 0

    def fingerprint(self) -> Tuple[str, int, int]:
        """Changes on every claim, steal, and heartbeat — the identity
        an observer's staleness clock is keyed on."""
        return (self.owner, self.token, self.heartbeats)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": LEASE_SCHEMA,
            "cell_id": self.cell_id,
            "owner": self.owner,
            "token": self.token,
            "ttl_s": self.ttl_s,
            "claimed_wall": self.claimed_wall,
            "elapsed_s": self.elapsed_s,
            "heartbeats": self.heartbeats,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "Lease":
        return Lease(
            cell_id=doc["cell_id"],
            owner=doc["owner"],
            token=int(doc["token"]),
            ttl_s=float(doc["ttl_s"]),
            claimed_wall=doc.get("claimed_wall", ""),
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
            heartbeats=int(doc.get("heartbeats", 0)),
        )


#: Sentinel fingerprint for a lease file that exists but cannot be
#: parsed — breakable like any other lease once it sits unchanged for
#: a full TTL.
_CORRUPT = Lease(cell_id="", owner="<corrupt>", token=-1, ttl_s=0.0)


class LeaseManager:
    """Claim, renew, steal and release cell leases in one directory.

    One instance per worker process; ``owner`` identifies it in every
    lease it writes. ``clock`` is this process's monotonic clock,
    injectable for the clock-skew tests — wall clocks never participate
    in expiry decisions.
    """

    def __init__(
        self,
        root: Union[str, Path],
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        obs: Optional[Registry] = None,
        clock: Callable[[], float] = time.monotonic,
        skew_margin_s: float = SKEW_MARGIN_S,
    ):
        self.root = Path(root)
        self.owner = owner or default_owner_id()
        self.ttl_s = float(ttl_s)
        self.heartbeat_s = float(heartbeat_s)
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.clock = clock
        self.skew_margin_s = float(skew_margin_s)
        #: leases this process currently holds, by cell id
        self._held: Dict[str, Lease] = {}
        #: monotonic claim instant of each held lease
        self._claim_t0: Dict[str, float] = {}
        #: staleness clock per contested cell: (fingerprint, first seen)
        self._observed: Dict[str, Tuple[Tuple[str, int, int], float]] = {}
        self._claims = 0
        self._renewals = 0

    def _count(self, name: str, n: int = 1) -> None:
        self.obs.counter(f"coord/{name}").add(n)

    def lease_path(self, cell_id: str) -> Path:
        return self.root / safe_cell_filename(cell_id, suffix=".lease.json")

    def holds(self, cell_id: str) -> bool:
        return cell_id in self._held

    @property
    def held(self) -> Dict[str, Lease]:
        return dict(self._held)

    # -- reading ------------------------------------------------------------

    def _read(self, path: Path) -> Optional[Lease]:
        """The lease at ``path`` — ``_CORRUPT`` if unparseable, ``None``
        if (or once) the file is gone."""
        try:
            doc = load_json(path, verify=True)
            if doc.get("schema") != LEASE_SCHEMA:
                return _CORRUPT
            return Lease.from_dict(doc)
        except ArtifactIntegrityError:
            return _CORRUPT if path.exists() else None
        except (KeyError, TypeError, ValueError):
            return _CORRUPT

    def observe_all(self) -> Dict[str, Lease]:
        """Every current lease by cell id (``repro status`` view)."""
        out: Dict[str, Lease] = {}
        if not self.root.exists():
            return out
        for path in sorted(self.root.glob("*.lease.json")):
            lease = self._read(path)
            if lease is None:
                continue
            if lease is _CORRUPT:
                cell_id = path.name[: -len(".lease.json")]
                out[cell_id] = Lease(
                    cell_id=cell_id, owner="<corrupt>", token=-1, ttl_s=0.0
                )
            else:
                out[lease.cell_id] = lease
        return out

    # -- claiming -----------------------------------------------------------

    def try_claim(self, cell_id: str) -> Optional[Lease]:
        """Claim ``cell_id``, stealing an expired lease if need be.

        Returns the held :class:`Lease`, or ``None`` when the cell is
        validly held elsewhere (counted as ``coord/contention``) — call
        again later; the staleness clock is already running.
        """
        path = self.lease_path(cell_id)
        current = self._read(path)
        if current is None:
            lease = self._fresh(cell_id, token=1)
            if self._publish_new(path, lease):
                self._register_claim(lease)
                return lease
            self._count("contention")
            return None
        return self._try_steal(cell_id, path, current)

    def _fresh(self, cell_id: str, token: int) -> Lease:
        return Lease(
            cell_id=cell_id,
            owner=self.owner,
            token=token,
            ttl_s=self.ttl_s,
            claimed_wall=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    def _publish_new(self, path: Path, lease: Lease) -> bool:
        """Atomically create ``path`` — False if someone else got there.

        ``os.link`` from a private temp file is the portable
        fail-if-exists primitive (``O_EXCL`` semantics, rename-based
        like every other artifact write in this repo).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:8]}.tmp")
        save_json(lease.to_dict(), tmp)
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _try_steal(self, cell_id: str, path: Path, current: Lease) -> Optional[Lease]:
        if current is not _CORRUPT and current.owner == self.owner:
            held = self._held.get(cell_id)
            if held is not None and held.token == current.token:
                return held  # already ours
        if not self._is_stale(cell_id, current):
            self._count("contention")
            return None
        self._count("stale_detected")
        # Rename-CAS: of N concurrent thieves exactly one wins the rename;
        # the losers see ENOENT and fall back to contention.
        grave = path.with_name(f".{path.name}.steal.{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, grave)
        except OSError:
            self._count("contention")
            return None
        old_token = 0 if current is _CORRUPT else current.token
        lease = self._fresh(cell_id, token=old_token + 1)
        published = self._publish_new(path, lease)
        try:
            os.unlink(grave)
        except OSError:
            pass
        self._observed.pop(cell_id, None)
        if not published:
            # A fresh claimer slipped in between our rename and link;
            # its lease (token restarted) is live — back off.
            self._count("contention")
            return None
        self._count("steals")
        self._register_claim(lease)
        return lease

    def _is_stale(self, cell_id: str, current: Lease) -> bool:
        """Observation-based expiry on this process's monotonic clock."""
        if current is not _CORRUPT and _owner_alive(current.owner) is False:
            return True
        ttl = self.ttl_s if current is _CORRUPT else max(current.ttl_s, 0.0)
        fp = current.fingerprint()
        now = self.clock()
        seen = self._observed.get(cell_id)
        if seen is None or seen[0] != fp:
            self._observed[cell_id] = (fp, now)
            return False
        return (now - seen[1]) > ttl + self.skew_margin_s

    def _register_claim(self, lease: Lease) -> None:
        self._held[lease.cell_id] = lease
        self._claim_t0[lease.cell_id] = self.clock()
        self._count("claimed")
        self._claims += 1
        maybe_kill(KILL_AFTER_CLAIMS_ENV, self._claims)

    # -- renewing -----------------------------------------------------------

    def heartbeat(self, cell_id: str) -> Lease:
        """Renew a held lease; :class:`StaleOwnerError` if it was stolen.

        The raise does **not** release the claim — the caller decides
        whether to abandon the attempt or finish it and let the first
        durable record win; either way the claim is settled exactly
        once through :meth:`release`.
        """
        lease = self._held.get(cell_id)
        if lease is None:
            raise LeaseError(
                "heartbeat on a lease this process does not hold",
                cell_id=cell_id,
                owner=self.owner,
            )
        current = self._read(self.lease_path(cell_id))
        if (
            current is None
            or current is _CORRUPT
            or current.owner != lease.owner
            or current.token != lease.token
        ):
            raise StaleOwnerError(
                "lease expired and was stolen",
                cell_id=cell_id,
                owner=self.owner,
                current_owner=None if current in (None, _CORRUPT) else current.owner,
            )
        lease.elapsed_s = round(self.clock() - self._claim_t0[cell_id], 3)
        lease.heartbeats += 1
        save_json(lease.to_dict(), self.lease_path(cell_id))
        self._count("heartbeats")
        self._renewals += 1
        maybe_kill(KILL_AFTER_HEARTBEATS_ENV, self._renewals)
        return lease

    # -- releasing ----------------------------------------------------------

    def release(self, cell_id: str, outcome: str) -> None:
        """Settle a claim into exactly one ``coord/*`` outcome bucket.

        ``completed`` — a durable cell record is in place (written by us
        or adopted identical); ``released`` — voluntary relinquish with
        no record (teardown); ``expired`` — the lease was lost to a
        thief and the attempt abandoned. The lease file is removed only
        if it is still verifiably ours.
        """
        if outcome not in ("completed", "expired", "released"):
            raise LeaseError(f"unknown release outcome {outcome!r}", cell_id=cell_id)
        lease = self._held.pop(cell_id, None)
        self._claim_t0.pop(cell_id, None)
        if lease is None:
            return
        self._count(outcome)
        path = self.lease_path(cell_id)
        current = self._read(path)
        if (
            current is not None
            and current is not _CORRUPT
            and current.owner == lease.owner
            and current.token == lease.token
        ):
            try:
                os.unlink(path)
            except OSError:
                pass

    def release_all(self, lost: Optional[set] = None) -> None:
        """Settle every outstanding claim (teardown path)."""
        lost = lost or set()
        for cell_id in list(self._held):
            self.release(cell_id, "expired" if cell_id in lost else "released")

    def cleanup(self) -> int:
        """Delete every lease and temp file — call only once all cells
        have durable records; returns files removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in list(self.root.iterdir()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed


class CellCoordinator:
    """The lease protocol as the supervised pool speaks it.

    One instance per :func:`~repro.harness.resilience.execute_sweep`
    invocation, over the sweep's not-yet-ok ``cells``. ``rundir`` is
    duck-typed (anything with ``leases_dir``, ``read_cell`` and
    ``write_cell_exclusive`` — in practice a
    :class:`~repro.harness.resilience.RunDir`), which keeps this module
    free of an import cycle with the resilience layer above it.

    It implements the coordinator interface the supervisor
    (``resilience._execute_cells``) drives: :meth:`next_cell` hands out
    the next claimed cell (adopting records other workers finished and
    deferring cells validly leased elsewhere), :meth:`tick` heartbeats
    every held lease — including cells waiting out retry backoff —,
    :meth:`commit` records a final status and settles its claim, and
    :meth:`abandon_all` releases everything on teardown. ``records``
    collects every durable record this drain saw, seeded with the
    caller's already-ok ones; :meth:`finalize` ends the drain.
    """

    def __init__(
        self,
        rundir: Any,
        cells: Sequence[Any] = (),
        records: Optional[Dict[str, Dict[str, Any]]] = None,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        obs: Optional[Registry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rundir = rundir
        self._cells = list(cells)
        self.records: Dict[str, Dict[str, Any]] = dict(records or {})
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.heartbeat_s = float(heartbeat_s)
        self.leases = LeaseManager(
            rundir.leases_dir,
            owner=owner,
            ttl_s=ttl_s,
            heartbeat_s=heartbeat_s,
            obs=self.obs,
            clock=clock,
        )
        #: how long a deferred (validly-leased-elsewhere) cell waits
        #: before its next claim attempt — also the observation cadence
        #: feeding the staleness clock
        self.poll_s = max(0.05, min(1.0, self.heartbeat_s))
        self._clock = clock
        self._queue = deque(self._cells)
        self._deferred: List[Tuple[float, int, Any]] = []  # heap: (ready, seq, spec)
        self._seq = itertools.count()
        self._due: Dict[str, float] = {}
        self._lost: set = set()

    @property
    def owner(self) -> str:
        return self.leases.owner

    def begin(self, spec: Any) -> Tuple[str, Any]:
        """Open a cell: ``("done", record)`` — another worker already
        finished it; ``("lease", lease)`` — ours, run it; or
        ``("wait", delay_s)`` — validly held elsewhere, retry later."""
        record = self.rundir.read_cell(spec)
        if record is not None and record.get("status") == "ok":
            return "done", record
        lease = self.leases.try_claim(spec.cell_id)
        if lease is None:
            return "wait", self.poll_s
        self._due[spec.cell_id] = self._clock() + self.heartbeat_s
        return "lease", lease

    def next_cell(self) -> Union[Any, float, None]:
        """The next cell to run under a fresh lease, the seconds to wait
        before asking again (every remaining cell is leased elsewhere),
        or ``None`` once every cell is claimed or adopted."""
        while self._queue or self._deferred:
            if self._queue:
                spec = self._queue.popleft()
            else:
                delay = self._deferred[0][0] - self._clock()
                if delay > 0:
                    return delay
                spec = heapq.heappop(self._deferred)[2]
            verdict, payload = self.begin(spec)
            if verdict == "lease":
                return spec
            if verdict == "done":
                self.obs.counter("resilience/cells_adopted").add()
                self.records[spec.cell_id] = payload
            else:
                heapq.heappush(self._deferred, (self._clock() + payload, next(self._seq), spec))
        return None

    def tick(self) -> None:
        """Renew every held lease that is due. A stolen lease is marked
        lost (once) and its in-flight attempt allowed to finish — the
        first durable record settles who won."""
        now = self._clock()
        for cell_id, due in list(self._due.items()):
            if cell_id in self._lost or now < due:
                continue
            try:
                self.leases.heartbeat(cell_id)
            except StaleOwnerError:
                self._lost.add(cell_id)
            self._due[cell_id] = now + self.heartbeat_s

    def commit(
        self,
        spec: Any,
        status: str,
        result: Any = None,
        error: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
    ) -> Dict[str, Any]:
        """Durably record a cell's final status and settle its claim.

        First durable record wins: if an identical record is already in
        place the duplicate is counted and discarded; a diverging one
        raises from ``write_cell_exclusive``.
        """
        record, wrote = self.rundir.write_cell_exclusive(
            spec, status, result=result, error=error, attempts=attempts
        )
        if not wrote:
            self.obs.counter("coord/duplicates").add()
        self._due.pop(spec.cell_id, None)
        self._lost.discard(spec.cell_id)
        self.leases.release(spec.cell_id, "completed")
        self.records[spec.cell_id] = record
        return record

    def abandon_all(self) -> None:
        """Settle every outstanding claim without a record (teardown)."""
        self.leases.release_all(lost=self._lost)
        self._due.clear()
        self._lost.clear()

    def finalize(self) -> int:
        """End-of-drain housekeeping: settle leftovers, and once every
        cell has a durable record sweep the leases directory empty —
        the zero-orphaned-lease-files guarantee."""
        self.abandon_all()
        if all(spec.cell_id in self.records for spec in self._cells):
            return self.leases.cleanup()
        return 0
