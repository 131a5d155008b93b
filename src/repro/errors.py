"""The repository-wide error taxonomy.

Every structural failure the simulators can detect derives from
:class:`ReproError`, so callers can catch "anything this repo diagnosed"
with one clause, or narrow to a family:

- :class:`ConfigError` — a simulator/quantizer was constructed with
  parameters that cannot describe real hardware (unknown accelerator
  kind, non-positive bit width, malformed fault plan);
- :class:`QuantRangeError` — a value does not fit the integer grid it
  was asked to occupy (a weight level beyond the 8-bit outlier grid, a
  negative post-ReLU activation, a nibble outside [-7, 7]);
- :class:`CapacityError` — a hardware resource overflowed its sized
  capacity (spill chunks beyond the 8-bit ``OLptr`` space, a
  non-positive buffer budget);
- :class:`ChunkIntegrityError` — an on-chip chunk violates a structural
  invariant (dangling or duplicate ``OLptr``, out-of-range ``OLidx``,
  corrupt lane nibble, a swarm-buffer entry pointing outside its
  tensor). Carries the chunk coordinates so a fault report can name the
  exact 80-bit word.
- :class:`ArtifactIntegrityError` — an on-disk artifact (JSON/CSV
  envelope, checkpoint cell record, manifest) is truncated, fails its
  embedded content digest, or was written under a different manifest.
  Carries the path and reason, mirroring the chunk-level diagnostics at
  the filesystem layer.
- :class:`CellError` — one cell of a checkpointed sweep failed
  (worker exception, per-task timeout, or a crashed/killed worker
  process). Carries the cell id, the failure kind and the attempt
  count so reports and envelopes can name exactly what is missing.
- :class:`LeaseError` — a coordination lease on a sweep cell could not
  be acquired, renewed, or released (docs/COORD.md). Carries the cell
  id and the owner id involved.
- :class:`StaleOwnerError` — the narrower, expected flavour of
  :class:`LeaseError`: this process's lease expired and another worker
  stole the cell. Raised on the next heartbeat so the loser can finish
  its attempt and defer to the first durable record.
- :class:`JobError` — a ``repro serve`` job request (``repro.job/v1``)
  is malformed, or a job state transition is illegal (docs/SERVE.md).
  Carries the offending field so the HTTP 400 body can name it.
- :class:`RemoteProtocolError` — the HTTP work-dispatch protocol
  between a remote ``repro work --connect`` worker and a ``repro
  serve`` server failed (docs/REMOTE.md): the server is unreachable
  past the retry budget, an answer is out of protocol, or an operation
  was rejected (stale fencing token, unknown claim). Carries the URL,
  the HTTP status, and a machine-readable ``reason`` slug.

Every pre-existing concrete class also subclasses :class:`ValueError`:
the seed codebase raised bare ``ValueError`` for those conditions, and
existing ``except ValueError`` call sites (and tests) must keep working
unchanged. :class:`CellError`, :class:`LeaseError` and
:class:`StaleOwnerError` are new with this taxonomy (no legacy call
sites) and subclass :class:`RuntimeError` instead — they report a
failed computation or a lost race, not a bad value. New code should
catch the taxonomy classes.

The fault-injection layer (:mod:`repro.faults`) raises
:class:`ChunkIntegrityError` under its ``raise`` recovery policy and
*counts* the same detections under ``degrade``/``skip`` — see
docs/FAULTS.md for the policy and counter semantics.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "ReproError",
    "ConfigError",
    "config_field",
    "QuantRangeError",
    "CapacityError",
    "ChunkIntegrityError",
    "ArtifactIntegrityError",
    "CellError",
    "LeaseError",
    "StaleOwnerError",
    "JobError",
    "RemoteProtocolError",
]


class ReproError(Exception):
    """Base class for every error this repository diagnoses itself."""


class ConfigError(ReproError, ValueError):
    """A component was configured with parameters it cannot honour;
    ``field`` names the refused parameter when the raiser knows it."""

    def __init__(self, message: str, *, field: Optional[str] = None):
        self.field = field
        super().__init__(message)


@contextmanager
def config_field(name: str) -> Iterator[None]:
    """Name ``name`` as the ``field`` of any :class:`ConfigError` raised
    in the block that does not name one already."""
    try:
        yield
    except ConfigError as exc:
        if exc.field is None:
            exc.field = name
        raise


class QuantRangeError(ReproError, ValueError):
    """A value does not fit the integer grid it must occupy."""


class CapacityError(ReproError, ValueError):
    """A sized hardware resource (buffer, pointer space) overflowed."""


class ChunkIntegrityError(ReproError, ValueError):
    """An on-chip chunk violates a structural invariant.

    ``group``/``reduction`` locate a weight chunk in its packed table
    (output-channel group x flattened reduction index); ``chunk_index``
    is the flat buffer index when only that is known; ``field`` names
    the offending field (``ol_ptr``, ``ol_idx``, ``ol_msb``, ``lanes``,
    ``swarm``). All are optional — whatever is known is rendered into
    the message so logs name the exact chunk.
    """

    def __init__(
        self,
        message: str,
        *,
        group: Optional[int] = None,
        reduction: Optional[int] = None,
        chunk_index: Optional[int] = None,
        field: Optional[str] = None,
        is_spill: bool = False,
    ):
        self.group = group
        self.reduction = reduction
        self.chunk_index = chunk_index
        self.field = field
        self.is_spill = is_spill
        where = []
        if group is not None:
            where.append(f"group={group}")
        if reduction is not None:
            where.append(f"reduction={reduction}")
        if chunk_index is not None:
            where.append(f"chunk={chunk_index}")
        if field is not None:
            where.append(f"field={field}")
        if is_spill:
            where.append("spill")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(message + suffix)


class ArtifactIntegrityError(ReproError, ValueError):
    """An on-disk artifact is truncated, corrupt, or fails its digest.

    ``path`` names the offending file and ``reason`` the check that
    failed (``truncated``, ``digest_mismatch``, ``missing_digest``,
    ``manifest_mismatch``); both are rendered into the message so logs
    name the exact artifact, in the same spirit as
    :class:`ChunkIntegrityError` naming the exact 80-bit word.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        reason: Optional[str] = None,
    ):
        self.path = str(path) if path is not None else None
        self.reason = reason
        where = []
        if path is not None:
            where.append(f"path={path}")
        if reason is not None:
            where.append(f"reason={reason}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(message + suffix)


class CellError(ReproError, RuntimeError):
    """One cell of a checkpointed sweep failed.

    ``kind`` distinguishes the failure mode: ``"exception"`` (the cell
    runner raised), ``"timeout"`` (the worker exceeded its per-task
    budget), ``"crash"`` (the worker process died without reporting).
    ``attempts`` counts executions including retries. Structured so a
    failed cell can be recorded in an envelope and re-raised losslessly
    by ``repro resume``.
    """

    def __init__(
        self,
        message: str,
        *,
        cell_id: Optional[str] = None,
        kind: str = "exception",
        attempts: int = 1,
    ):
        self.cell_id = cell_id
        self.kind = kind
        self.attempts = attempts
        where = []
        if cell_id is not None:
            where.append(f"cell={cell_id}")
        where.append(f"kind={kind}")
        where.append(f"attempts={attempts}")
        super().__init__(f"{message} [{', '.join(where)}]")

    def to_dict(self) -> dict:
        """JSON-able form recorded in cell records and envelopes."""
        return {
            "cell_id": self.cell_id,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": str(self),
        }


class LeaseError(ReproError, RuntimeError):
    """A coordination lease could not be acquired, renewed, or released.

    Raised by the lease protocol (docs/COORD.md) when this process asks
    for an operation on a lease it does not hold, or when the lease
    file itself cannot be maintained. ``cell_id`` names the contested
    cell and ``owner`` the owner id the operation ran as.
    """

    def __init__(
        self,
        message: str,
        *,
        cell_id: Optional[str] = None,
        owner: Optional[str] = None,
    ):
        self.cell_id = cell_id
        self.owner = owner
        where = []
        if cell_id is not None:
            where.append(f"cell={cell_id}")
        if owner is not None:
            where.append(f"owner={owner}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(message + suffix)


class JobError(ReproError, ValueError):
    """A ``repro serve`` job request or state transition is invalid.

    Raised for malformed ``repro.job/v1`` documents (unknown verb,
    missing/extra fields, out-of-domain parameter values) and for
    illegal job state-machine transitions (e.g. cancelling a job that
    already reached a terminal state). ``field`` names the offending
    request field when one can be pinpointed. Subclasses
    :class:`ValueError` so generic request-validation call sites can
    treat it like the other bad-value taxonomy members.
    """

    def __init__(self, message: str, *, field: Optional[str] = None):
        self.field = field
        suffix = f" [field={field}]" if field is not None else ""
        super().__init__(message + suffix)


class RemoteProtocolError(ReproError, RuntimeError):
    """The HTTP work-dispatch protocol (docs/REMOTE.md) failed.

    Raised by the remote-worker client when the server stays
    unreachable past the retry budget, answers with an out-of-protocol
    status or body, or rejects an operation the client believed it was
    entitled to (a stale fencing token, an unknown or already-settled
    claim). Like :class:`LeaseError` it reports a failed coordination
    step, not a bad value, so it subclasses :class:`RuntimeError`.
    ``status`` is the HTTP status involved (when one was received) and
    ``reason`` a stable machine-readable slug (``unreachable``,
    ``stale_token``, ``unknown_claim``, ``claim_settled``,
    ``cell_conflict``, ``bad_response``).
    """

    def __init__(
        self,
        message: str,
        *,
        url: Optional[str] = None,
        status: Optional[int] = None,
        reason: Optional[str] = None,
    ):
        self.url = url
        self.status = status
        self.reason = reason
        where = []
        if url is not None:
            where.append(f"url={url}")
        if status is not None:
            where.append(f"status={status}")
        if reason is not None:
            where.append(f"reason={reason}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(message + suffix)


class StaleOwnerError(LeaseError):
    """This process's lease on a cell expired and was stolen.

    The expected contention outcome, not a bug: a worker that stalled
    (or whose heartbeats stopped) finds out on its next renewal that
    another owner now holds the cell. ``current_owner`` names the
    thief; the loser may still finish its attempt — the first durable
    cell record wins deterministically.
    """

    def __init__(
        self,
        message: str,
        *,
        cell_id: Optional[str] = None,
        owner: Optional[str] = None,
        current_owner: Optional[str] = None,
    ):
        self.current_owner = current_owner
        if current_owner is not None:
            message = f"{message} (now held by {current_owner})"
        super().__init__(message, cell_id=cell_id, owner=owner)
