"""``repro serve`` — the simulator as a long-running HTTP job service.

One asyncio process (stdlib only — ``asyncio.start_server``, no new
dependencies) accepts experiment requests as versioned ``repro.job/v1``
JSON documents and schedules them onto the existing coordination
substrate (docs/COORD.md):

- ``POST /jobs`` — submit a job (verb ``run``/``compare``/``faults``/
  ``explore`` + verb-specific params, seed, priority). Each accepted
  job immediately materializes a normal checkpointed run directory
  under the server's ``--spool``, so any external ``repro work DIR``
  process can join it, and a killed server recovers by rescanning the
  spool and re-draining unfinished jobs through the same resume path.
- ``GET /jobs/<id>`` — job state (QUEUED → RUNNING → DONE/FAILED/
  CANCELLED) plus per-cell progress pulled from the run dir's record
  and lease files.
- ``GET /jobs/<id>/result`` — the finished ``repro.experiment/v1`` /
  ``repro.explore/v1`` envelope, integrity digest intact (the exact
  bytes of ``envelope.json``).
- ``DELETE /jobs/<id>`` — cancel; a running drain is SIGTERMed so its
  leases are released through the normal teardown.
- ``GET /healthz`` / ``GET /stats`` — liveness and the obs counter
  snapshot; the ``serve/*`` counters reconcile exactly:
  ``submitted == completed + failed + cancelled + queued + running``.
- ``GET /status`` — every job's per-cell record/lease/owner table, the
  same document ``repro status`` renders locally, so ``repro status
  --connect`` works with no shared filesystem.
- ``POST /cells/claim`` + ``/cells/<id>/heartbeat`` / ``result`` /
  ``abandon`` — the remote work-dispatch protocol (docs/REMOTE.md):
  ``repro work --connect`` workers on other machines claim, renew and
  settle cells through :class:`repro.harness.remote.RemoteCellBroker`,
  which executes the ordinary lease protocol on their behalf against
  the same lease files local workers contend on.

Jobs are drained by an in-process pool of supervisor tasks, each
spawning one ``work_run`` / ``explore_resume`` worker process per job
(the drain). With ``--workers 0`` the server is a pure coordinator:
remote workers compute every cell, and a housekeeper finalizes each
job (envelope assembly through the same drain path) the moment its
last record lands. Overlapping jobs dedupe through the
content-addressed simcache (docs/PERFORMANCE.md) when the server runs
with ``--cache-dir``: the second identical job's cells replay as cache
hits.

The queue is bounded (``--queue-limit``): overflow answers 429 with a
``Retry-After`` header derived from the queue depth and the observed
drain rate. Request validation failures answer 400 with the
error-taxonomy class name (:class:`repro.errors.JobError` and
friends); a request that stalls past the read deadline answers 408 and
a truncated body 400, so slow-loris connections cannot pin the server.
See docs/SERVE.md for the endpoint reference, lifecycle diagram and a
curl-able worked example.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import math
import os
import signal
import sys
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..constants import DEFAULT_HEARTBEAT_S
from ..errors import ConfigError, JobError, ReproError, config_field
from .coord import default_owner_id
from .explore import (
    DesignSpace,
    ExploreRequest,
    _init_marker,
    explore_resume,
    is_explore_run,
)
from .remote import RemoteCellBroker
from .resilience import (
    RetryPolicy,
    RunDir,
    breakdown_plan,
    effective_lease_ttl,
    faults_plan,
    pool_context,
    status_run,
    work_run,
)
from .serialize import _canonical_dumps, load_json, save_json
from ..obs import Registry

__all__ = [
    "JOB_SCHEMA",
    "STATE_SCHEMA",
    "SERVE_SCHEMA",
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "VERBS",
    "JobRequest",
    "JobStore",
    "JobServer",
    "ServeConfig",
    "build_plan",
    "check_transition",
    "job_progress",
    "serve_forever",
]

JOB_SCHEMA = "repro.job/v1"
RECORD_SCHEMA = "repro.job-record/v1"
STATE_SCHEMA = "repro.job-state/v1"
OBS_SCHEMA = "repro.job-obs/v1"
ERROR_SCHEMA = "repro.job-error/v1"
SERVE_SCHEMA = "repro.serve/v1"
STATS_SCHEMA = "repro.serve-stats/v1"
STATUS_SCHEMA = "repro.job-status/v1"
SERVE_STATUS_SCHEMA = "repro.serve-status/v1"

#: Experiments a ``run`` job may name (the sweep-shaped subset).
SWEEPABLE_EXPERIMENTS = {
    "fig11": ("alexnet", "AlexNet cycle/energy breakdown"),
    "fig12": ("vgg16", "VGG-16 cycle/energy breakdown"),
    "fig13": ("resnet18", "ResNet-18 cycle/energy breakdown"),
}

VERBS = ("run", "compare", "faults", "explore")

STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED")
TERMINAL_STATES = frozenset({"DONE", "FAILED", "CANCELLED"})
#: Legal state-machine edges. RUNNING → QUEUED is the restart-requeue
#: edge: a job found RUNNING while rescanning the spool lost its drain.
TRANSITIONS: Dict[str, frozenset] = {
    "QUEUED": frozenset({"RUNNING", "CANCELLED"}),
    "RUNNING": frozenset({"DONE", "FAILED", "CANCELLED", "QUEUED"}),
    "DONE": frozenset(),
    "FAILED": frozenset(),
    "CANCELLED": frozenset(),
}


def check_transition(old: str, new: str) -> None:
    """Raise :class:`JobError` unless ``old -> new`` is a legal edge."""
    if old not in TRANSITIONS:
        raise JobError(f"unknown job state {old!r}", field="state")
    if new not in TRANSITIONS:
        raise JobError(f"unknown job state {new!r}", field="state")
    if new not in TRANSITIONS[old]:
        raise JobError(f"illegal job state transition {old} -> {new}", field="state")


# ---------------------------------------------------------------------------
# repro.job/v1 — the request document
# ---------------------------------------------------------------------------

_TOP_KEYS = frozenset(
    {"schema", "verb", "experiment", "network", "params", "seed", "priority", "timeout_s"}
)


def _require(condition: bool, message: str, field: Optional[str] = None) -> None:
    if not condition:
        raise JobError(message, field=field)


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_NUMBER = (_number, "a number")
_INTEGER = (_integer, "an integer")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers")
_INTEGERS = (lambda v: isinstance(v, list) and all(map(_integer, v)), "a list of integers")

#: Each verb's params and the JSON type each must have. Whether a value
#: is in range is its owner's rule (docs/SERVE.md), applied when
#: :func:`build_plan` builds the job's plan.
_PARAM_SHAPES = {
    "run": {},
    "compare": {"ratio": _NUMBER},
    "faults": {"rates": _NUMBERS, "widths": _INTEGERS, "policy": _STRING, "model": _STRING, "ratio": _NUMBER},
    "explore": {
        "budget": _NUMBER, "strategy": _STRING, "accuracy": _STRING, "space": _OBJECT,
        **dict.fromkeys(("samples", "eta", "screen_layers", "max_candidates", "accuracy_samples"), _INTEGER),
    },
}


@dataclass(frozen=True)
class JobRequest:
    """One validated ``repro.job/v1`` document.

    Construction via :meth:`from_dict` rejects every malformed input
    with a :class:`JobError` naming the offending field — never a
    ``KeyError`` or assert — so the HTTP layer can answer 400 with the
    taxonomy name. :meth:`parse` checks the document's JSON shape and
    nothing more, as a stored record needs; :meth:`from_dict` also
    builds the job's plan, whose owners refuse out-of-range values.
    ``to_dict``/``from_dict`` round-trip exactly.
    """

    verb: str
    experiment: Optional[str] = None
    network: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    priority: int = 0
    timeout_s: Optional[float] = None

    @classmethod
    def from_dict(cls, doc: Any) -> "JobRequest":
        request = cls.parse(doc)
        build_plan(request)
        return request

    @classmethod
    def parse(cls, doc: Any) -> "JobRequest":
        _require(isinstance(doc, dict), "job request must be a JSON object")
        unknown = sorted(set(doc) - _TOP_KEYS)
        _require(not unknown, f"unknown request field(s): {', '.join(unknown)}",
                 field=unknown[0] if unknown else None)
        _require(
            doc.get("schema") == JOB_SCHEMA,
            f"request schema must be {JOB_SCHEMA!r}, got {doc.get('schema')!r}",
            field="schema",
        )
        verb = doc.get("verb")
        _require(
            isinstance(verb, str) and verb in VERBS,
            f"verb must be one of {', '.join(VERBS)}; got {verb!r}",
            field="verb",
        )

        experiment = doc.get("experiment")
        network = doc.get("network")
        if verb == "run":
            _require(
                network is None,
                "run jobs name an 'experiment', not a 'network'",
                field="network",
            )
            _require(
                isinstance(experiment, str) and experiment in SWEEPABLE_EXPERIMENTS,
                "run jobs need a sweep-shaped experiment: "
                f"{', '.join(sorted(SWEEPABLE_EXPERIMENTS))}; got {experiment!r}",
                field="experiment",
            )
        else:
            _require(
                experiment is None,
                f"{verb} jobs name a 'network', not an 'experiment'",
                field="experiment",
            )
            _require(
                isinstance(network, str),
                f"{verb} jobs need a 'network' string; got {network!r}",
                field="network",
            )

        params = doc.get("params", {})
        _require(isinstance(params, dict), "params must be a JSON object", field="params")
        shapes = _PARAM_SHAPES[verb]
        bad = sorted(set(params) - set(shapes))
        _require(
            not bad,
            f"unknown param(s) for verb {verb!r}: {', '.join(bad)}"
            + (f"; allowed: {', '.join(sorted(shapes))}" if shapes else ""),
            field=bad[0] if bad else None,
        )
        for key, value in params.items():
            accept, expected = shapes[key]
            _require(accept(value), f"{key} must be {expected}", field=key)

        seed = doc.get("seed")
        _require(seed is None or _integer(seed), "seed must be an integer", field="seed")
        priority = doc.get("priority", 0)
        _require(_integer(priority), "priority must be an integer", field="priority")
        timeout_s = doc.get("timeout_s")
        _require(
            timeout_s is None or (_number(timeout_s) and timeout_s > 0),
            "timeout_s must be a positive number",
            field="timeout_s",
        )
        return cls(
            verb=verb,
            experiment=experiment,
            network=network,
            params=dict(params),
            seed=seed,
            priority=priority,
            timeout_s=float(timeout_s) if timeout_s is not None else None,
        )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": JOB_SCHEMA, "verb": self.verb}
        if self.experiment is not None:
            doc["experiment"] = self.experiment
        if self.network is not None:
            doc["network"] = self.network
        doc["params"] = dict(self.params)
        doc["seed"] = self.seed
        doc["priority"] = self.priority
        doc["timeout_s"] = self.timeout_s
        return doc


def build_plan(request: JobRequest):
    """Turn a request into its executable form.

    Returns ``("sweep", SweepPlan)`` for run/compare/faults jobs and
    ``("explore", ExploreRequest)`` for explore jobs. A param the plan's
    owners refuse, or a negative seed, raises a :class:`JobError` naming
    it; a param left out takes the owner's default.
    """
    p = request.params
    _require(request.seed is None or request.seed >= 0, "seed must be non-negative", field="seed")
    try:
        if request.verb == "run":
            network, description = SWEEPABLE_EXPERIMENTS[request.experiment]
            return "sweep", breakdown_plan(
                network,
                seed=request.seed,
                experiment=request.experiment,
                description=description,
            )
        if request.verb == "compare":
            return "sweep", breakdown_plan(request.network, seed=request.seed, **p)
        if request.verb == "faults":
            return "sweep", faults_plan(request.network, seed=request.seed, **p)
        kwargs = {("budget_mm2" if key == "budget" else key): value for key, value in p.items()}
        with config_field("space"):
            kwargs["space"] = DesignSpace.from_dict(p.get("space", {}))
        return "explore", ExploreRequest(request.network, seed=request.seed, **kwargs)
    except ConfigError as exc:
        raise JobError(str(exc), field=exc.field) from None


# ---------------------------------------------------------------------------
# The spool: one directory per job, drained through the resume path
# ---------------------------------------------------------------------------


class JobStore:
    """Durable job state under ``<spool>/jobs/<job_id>/``.

    ``job.json`` is the immutable accepted request, ``state.json`` the
    current state-machine position (every write checked against
    :data:`TRANSITIONS`), ``run/`` the ordinary checkpointed run
    directory, ``obs.json``/``error.json`` the drain's counter dump and
    structured failure. Everything is written through the atomic,
    digest-stamped :func:`save_json`, so a SIGKILL never leaves a
    half-written document.
    """

    def __init__(self, spool: Union[str, Path]):
        self.root = Path(spool)
        self.jobs_dir = self.root / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def run_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "run"

    def create(self, request: JobRequest, plan: Optional[Tuple[str, Any]] = None) -> str:
        """Accept a request: materialize its run dir, then durably QUEUED.

        ``plan`` is ``build_plan(request)``, built here when not given.
        The run dir (manifest or explore marker) exists before the job
        is visible as QUEUED, so an external ``repro work`` process can
        join the moment the submitter learns the id.
        """
        shape, plan = plan or build_plan(request)
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        job_dir = self.job_dir(job_id)
        run_dir = self.run_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        if shape == "sweep":
            RunDir(run_dir).init(plan)
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
            _init_marker(run_dir, plan, verify=True)
        save_json(
            {"schema": RECORD_SCHEMA, "job_id": job_id, "request": request.to_dict()},
            job_dir / "job.json",
        )
        self._write_state(job_id, "QUEUED", "accepted")
        return job_id

    def read_request(self, job_id: str) -> Optional[JobRequest]:
        path = self.job_dir(job_id) / "job.json"
        if not path.exists():
            return None
        doc = load_json(path)
        if not isinstance(doc, dict):
            raise JobError(f"job record {path} is not an object")
        # Its owners accepted it once; a later, stricter rule must not
        # orphan it, so only the shape is checked again.
        return JobRequest.parse(doc.get("request"))

    def read_state(self, job_id: str) -> Dict[str, Any]:
        path = self.job_dir(job_id) / "state.json"
        doc = load_json(path)
        if not isinstance(doc, dict) or doc.get("schema") != STATE_SCHEMA:
            raise JobError(f"job state file {path} is malformed", field="state")
        return doc

    def set_state(
        self, job_id: str, state: str, detail: str = "", force: bool = False
    ) -> Dict[str, Any]:
        if not force:
            check_transition(self.read_state(job_id)["state"], state)
        return self._write_state(job_id, state, detail)

    def _write_state(self, job_id: str, state: str, detail: str) -> Dict[str, Any]:
        doc = {"schema": STATE_SCHEMA, "job_id": job_id, "state": state, "detail": detail}
        save_json(doc, self.job_dir(job_id) / "state.json")
        return doc

    def read_obs(self, job_id: str) -> Optional[Dict[str, Any]]:
        path = self.job_dir(job_id) / "obs.json"
        if not path.exists():
            return None
        try:
            doc = load_json(path, verify=False)
        except ReproError:
            return None
        return doc if isinstance(doc, dict) else None

    def read_error(self, job_id: str) -> Optional[Dict[str, Any]]:
        path = self.job_dir(job_id) / "error.json"
        if not path.exists():
            return None
        try:
            doc = load_json(path, verify=False)
        except ReproError:
            return None
        return doc if isinstance(doc, dict) else None

    def list_ids(self) -> List[str]:
        if not self.jobs_dir.exists():
            return []
        return sorted(d.name for d in self.jobs_dir.iterdir() if d.is_dir())


def _scan_sweep_dir(sweep_dir: Path) -> Tuple[Optional[int], int, int, int]:
    """(total, ok, failed, leased) for one manifest-shaped directory."""
    total: Optional[int] = None
    manifest_path = sweep_dir / "manifest.json"
    if manifest_path.exists():
        try:
            manifest = load_json(manifest_path, verify=False)
            if isinstance(manifest, dict):
                total = len(manifest.get("cells") or [])
        except ReproError:
            pass
    ok = failed = 0
    cells_dir = sweep_dir / "cells"
    if cells_dir.exists():
        for record_path in cells_dir.glob("*.json"):
            try:
                record = load_json(record_path, verify=False)
            except ReproError:
                continue
            if isinstance(record, dict) and record.get("status") == "ok":
                ok += 1
            else:
                failed += 1
    leases_dir = sweep_dir / "leases"
    leased = len(list(leases_dir.glob("*.json"))) if leases_dir.exists() else 0
    return total, ok, failed, leased


def job_progress(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Per-cell progress counts straight from the run dir's files.

    For explore jobs the total is the sum over the rungs materialized
    so far (later rungs don't exist until earlier ones finish, so it
    grows as the search deepens).
    """
    run_dir = Path(run_dir)
    if is_explore_run(run_dir):
        total: Optional[int] = 0
        ok = failed = leased = 0
        rungs_dir = run_dir / "rungs"
        rungs = sorted(rungs_dir.iterdir()) if rungs_dir.exists() else []
        for rung in rungs:
            rung_total, rung_ok, rung_failed, rung_leased = _scan_sweep_dir(rung)
            total = None if (total is None or rung_total is None) else total + rung_total
            ok += rung_ok
            failed += rung_failed
            leased += rung_leased
    else:
        total, ok, failed, leased = _scan_sweep_dir(run_dir)
    return {
        "cells_total": total,
        "cells_ok": ok,
        "cells_failed": failed,
        "cells_leased": leased,
        "envelope": (run_dir / "envelope.json").exists(),
    }


# ---------------------------------------------------------------------------
# The drain: one worker process per running job, through the resume path
# ---------------------------------------------------------------------------


def _drain_job_entry(
    job_dir: str,
    jobs: int,
    retries: int,
    cell_timeout_s: Optional[float],
    lease_ttl: Optional[float],
    heartbeat_s: Optional[float],
) -> None:
    """Child-process entry: drain one job's run dir to completion.

    Runs the exact external-worker code path (``work_run`` /
    ``explore_resume``) under a fresh process-global registry, so the
    job's counters — including the simcache hits shipped back from each
    cell worker — land in ``obs.json`` for ``GET /jobs/<id>`` and
    ``/stats``. SIGTERM (cancel, shutdown, timeout) maps to
    ``KeyboardInterrupt``: the sweep teardown releases every held lease
    before the process exits 130.
    """
    from ..obs import set_registry

    def _interrupt(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    try:
        signal.set_wakeup_fd(-1)  # detach the forked parent's asyncio wakeup pipe
    except (ValueError, OSError):  # pragma: no cover - non-main thread / closed fd
        pass

    obs = Registry()
    set_registry(obs)
    job_path = Path(job_dir)
    run_dir = job_path / "run"
    retry = RetryPolicy(max_attempts=retries, timeout_s=cell_timeout_s)
    code = 0
    try:
        if is_explore_run(run_dir):
            result, _ = explore_resume(
                run_dir,
                jobs=jobs,
                retry=retry,
                obs=obs,
                lease_ttl=lease_ttl,
                heartbeat_s=heartbeat_s,
            )
            code = 1 if result.failures else 0
        else:
            _, envelope, _, _ = work_run(
                run_dir,
                jobs=jobs,
                retry=retry,
                obs=obs,
                owner=default_owner_id(),
                lease_ttl=lease_ttl,
                heartbeat_s=heartbeat_s,
            )
            code = 1 if envelope["resilience"]["cells_failed"] else 0
    except KeyboardInterrupt:
        code = 130
    except BaseException as exc:  # noqa: BLE001 - report, then exit 2
        try:
            save_json(
                {
                    "schema": ERROR_SCHEMA,
                    "error": type(exc).__name__,
                    "message": str(exc),
                },
                job_path / "error.json",
            )
        except Exception:  # pragma: no cover - disk gone
            pass
        code = 2
    finally:
        try:
            save_json(
                {"schema": OBS_SCHEMA, "counters": dict(obs.snapshot())},
                job_path / "obs.json",
            )
        except Exception:  # pragma: no cover - disk gone
            pass
    sys.exit(code)


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs, parsed once at the CLI edge."""

    spool: Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in serve.json
    workers: int = 2  # 0 = pure coordinator: remote workers drain cells
    queue_limit: int = 16
    job_timeout_s: Optional[float] = None  # per-job wall clock default
    cell_jobs: int = 1
    retries: int = 3
    cell_timeout_s: Optional[float] = None
    lease_ttl: Optional[float] = None
    heartbeat_s: Optional[float] = None
    max_body_bytes: int = 1 << 20
    read_timeout_s: float = 10.0  # whole-request read deadline (-> 408)


class _JobRuntime:
    """In-memory mirror of one job: state, queue entry, drain handle."""

    __slots__ = ("job_id", "request", "state", "detail", "proc", "cancel_requested")

    def __init__(self, job_id: str, request: JobRequest, state: str, detail: str = ""):
        self.job_id = job_id
        self.request = request
        self.state = state
        self.detail = detail
        self.proc = None
        self.cancel_requested = False


class JobServer:
    """The asyncio HTTP job server (see the module docstring).

    Request routing (:meth:`handle_request`) is deliberately
    synchronous and side-effect-complete — the event loop is
    single-threaded, so every route observes and mutates a consistent
    state snapshot — while connection handling, the drain supervisors
    and shutdown are async tasks around it.
    """

    def __init__(self, config: ServeConfig, obs: Optional[Registry] = None):
        self.config = config
        self.store = JobStore(config.spool)
        self.obs = obs if obs is not None else Registry()
        self._jobs: Dict[str, _JobRuntime] = {}
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._seq = 0
        self._stopping = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._worker_tasks: List[asyncio.Task] = []
        self.port: Optional[int] = None
        #: wall-clock of recently finished drains, for adaptive Retry-After
        self._drain_durations: deque = deque(maxlen=32)
        retry = RetryPolicy(max_attempts=config.retries, timeout_s=config.cell_timeout_s)
        self.broker = RemoteCellBroker(
            self.store,
            self._claimable_job_ids,
            ttl_s=effective_lease_ttl(config.lease_ttl, config.heartbeat_s, retry),
            heartbeat_s=config.heartbeat_s or DEFAULT_HEARTBEAT_S,
            obs=self.obs,
        )

    # -- bookkeeping --------------------------------------------------------

    def _count(self, state: str) -> int:
        return sum(1 for rt in self._jobs.values() if rt.state == state)

    def _enqueue(self, job_id: str, priority: int) -> None:
        heapq.heappush(self._heap, (-priority, self._seq, job_id))
        self._seq += 1

    def _pop_next(self) -> Optional[_JobRuntime]:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            rt = self._jobs.get(job_id)
            if rt is not None and rt.state == "QUEUED" and not rt.cancel_requested:
                return rt
        return None

    def _claimable_job_ids(self) -> List[str]:
        """Jobs the remote protocol may hand cells from, best first.

        QUEUED and RUNNING jobs both qualify — remote workers race the
        local drain through the shared lease files, which is the point.
        Sort is stable, so equal priorities keep submission order.
        """
        live = [
            rt
            for rt in self._jobs.values()
            if rt.state in ("QUEUED", "RUNNING") and not rt.cancel_requested
        ]
        live.sort(key=lambda rt: -rt.request.priority)
        return [rt.job_id for rt in live]

    def _retry_after_s(self) -> int:
        """Adaptive 429 Retry-After: queue depth times the observed
        per-job drain time, spread over the drain workers."""
        if self._drain_durations:
            avg = sum(self._drain_durations) / len(self._drain_durations)
        else:
            avg = 1.0
        depth = self._count("QUEUED") + self._count("RUNNING")
        lanes = max(1, self.config.workers)
        return max(1, min(600, math.ceil(depth * avg / lanes)))

    def _finish(self, rt: _JobRuntime, state: str, detail: str) -> None:
        self.store.set_state(rt.job_id, state, detail)
        rt.state = state
        rt.detail = detail
        self.obs.counter(f"serve/jobs_{state.lower()}").add()
        if state in TERMINAL_STATES:
            self.broker.forget_job(rt.job_id)

    def stats_doc(self) -> Dict[str, Any]:
        counters = dict(self.obs.snapshot())
        jobs = {
            "submitted": int(counters.get("serve/jobs_submitted", 0)),
            "completed": int(counters.get("serve/jobs_done", 0)),
            "failed": int(counters.get("serve/jobs_failed", 0)),
            "cancelled": int(counters.get("serve/jobs_cancelled", 0)),
            "queued": self._count("QUEUED"),
            "running": self._count("RUNNING"),
        }
        jobs["reconciles"] = jobs["submitted"] == (
            jobs["completed"]
            + jobs["failed"]
            + jobs["cancelled"]
            + jobs["queued"]
            + jobs["running"]
        )
        return {
            "schema": STATS_SCHEMA,
            "jobs": jobs,
            "remote": self.broker.stats(),
            "counters": counters,
        }

    # -- the sync request core ----------------------------------------------

    def handle_request(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], bytes], Dict[str, str]]:
        """Route one request; returns (status, json-doc-or-raw-bytes, headers)."""
        self.obs.counter("serve/http_requests").add()
        try:
            return self._route(method, path, body)
        except JobError as exc:
            self.obs.counter("serve/http_errors").add()
            doc = {"error": "JobError", "message": str(exc)}
            if exc.field is not None:
                doc["field"] = exc.field
            return 400, doc, {}
        except ReproError as exc:
            self.obs.counter("serve/http_errors").add()
            return 400, {"error": type(exc).__name__, "message": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.obs.counter("serve/http_errors").add()
            return 500, {"error": type(exc).__name__, "message": str(exc)}, {}

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], bytes], Dict[str, str]]:
        path = path.split("?", 1)[0]
        if len(path) > 1:
            path = path.rstrip("/")
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, {"status": "ok", "schema": SERVE_SCHEMA, "pid": os.getpid()}, {}
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self.stats_doc(), {}
        if path == "/status":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._status_all()
        if path == "/cells/claim":
            if method != "POST":
                return self._method_not_allowed("POST")
            if self._stopping:
                return 503, {"error": "ShuttingDown", "message": "server is draining"}, {}
            return self.broker.claim(self._json_body(body))
        if path.startswith("/cells/"):
            claim_id, _, op = path[len("/cells/"):].partition("/")
            if claim_id and op == "heartbeat" and method == "POST":
                return self.broker.heartbeat(claim_id, self._json_body(body))
            if claim_id and op == "result" and method == "PUT":
                return self.broker.result(claim_id, self._json_body(body))
            if claim_id and op == "abandon" and method == "POST":
                return self.broker.abandon(claim_id, self._json_body(body))
            if claim_id and op in ("heartbeat", "result", "abandon"):
                return self._method_not_allowed("PUT" if op == "result" else "POST")
            return 404, {"error": "NotFound", "message": f"no route {path!r}"}, {}
        if path == "/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {"jobs": [self._summary(rt) for rt in self._jobs.values()]}, {}
            return self._method_not_allowed("GET, POST")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/result"):
                job_id = rest[: -len("/result")]
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._result(job_id)
            job_id = rest
            if "/" in job_id:
                return 404, {"error": "NotFound", "message": f"no route {path!r}"}, {}
            if method == "GET":
                return self._status(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            return self._method_not_allowed("GET, DELETE")
        return 404, {"error": "NotFound", "message": f"no route {path!r}"}, {}

    def _method_not_allowed(self, allow: str):
        return 405, {"error": "MethodNotAllowed", "message": f"allowed: {allow}"}, {"Allow": allow}

    @staticmethod
    def _json_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobError(f"body is not valid JSON: {exc}")

    def _status_all(self):
        """``GET /status`` — every job's per-cell table, the document
        ``repro status --connect`` renders (docs/REMOTE.md)."""
        jobs = []
        for rt in self._jobs.values():
            entry = self._summary(rt)
            entry["detail"] = rt.detail
            run_dir = self.store.run_dir(rt.job_id)
            entry["progress"] = job_progress(run_dir)
            entry["cells"] = None
            if not is_explore_run(run_dir):
                try:
                    entry["cells"] = status_run(run_dir, verify=False)
                except ReproError:
                    pass
            jobs.append(entry)
        return 200, {"schema": SERVE_STATUS_SCHEMA, "jobs": jobs}, {}

    def _summary(self, rt: _JobRuntime) -> Dict[str, Any]:
        return {
            "job_id": rt.job_id,
            "state": rt.state,
            "verb": rt.request.verb,
            "priority": rt.request.priority,
        }

    def _submit(self, body: bytes):
        if self._stopping:
            return 503, {"error": "ShuttingDown", "message": "server is draining"}, {}
        if self._count("QUEUED") >= self.config.queue_limit:
            self.obs.counter("serve/jobs_rejected").add()
            retry_after = self._retry_after_s()
            return (
                429,
                {
                    "error": "QueueFull",
                    "message": f"queue limit {self.config.queue_limit} reached; retry later",
                    "retry_after_s": retry_after,
                },
                {"Retry-After": str(retry_after)},
            )
        try:
            request = JobRequest.parse(self._json_body(body))
            plan = build_plan(request)
        except JobError as exc:
            self.obs.counter("serve/jobs_invalid").add()
            self.obs.counter("serve/http_errors").add()
            error = {"error": "JobError", "message": str(exc)}
            if exc.field is not None:
                error["field"] = exc.field
            return 400, error, {}
        job_id = self.store.create(request, plan)
        rt = _JobRuntime(job_id, request, "QUEUED", "accepted")
        self._jobs[job_id] = rt
        self._enqueue(job_id, request.priority)
        self.obs.counter("serve/jobs_submitted").add()
        return 202, {"job_id": job_id, "state": "QUEUED", "run_dir": str(self.store.run_dir(job_id))}, {}

    def _status(self, job_id: str):
        rt = self._jobs.get(job_id)
        if rt is None:
            return 404, {"error": "NotFound", "message": f"unknown job {job_id!r}"}, {}
        doc: Dict[str, Any] = {
            "schema": STATUS_SCHEMA,
            "job_id": job_id,
            "state": rt.state,
            "detail": rt.detail,
            "request": rt.request.to_dict(),
            "run_dir": str(self.store.run_dir(job_id)),
            "progress": job_progress(self.store.run_dir(job_id)),
        }
        obs_doc = self.store.read_obs(job_id)
        if obs_doc is not None:
            doc["obs"] = obs_doc.get("counters")
        error_doc = self.store.read_error(job_id)
        if error_doc is not None:
            doc["error"] = {k: error_doc.get(k) for k in ("error", "message")}
        return 200, doc, {}

    def _result(self, job_id: str):
        rt = self._jobs.get(job_id)
        if rt is None:
            return 404, {"error": "NotFound", "message": f"unknown job {job_id!r}"}, {}
        if rt.state != "DONE":
            return (
                409,
                {
                    "error": "JobError",
                    "message": f"job {job_id} is {rt.state}; the result exists once DONE",
                    "state": rt.state,
                },
                {},
            )
        envelope_path = self.store.run_dir(job_id) / "envelope.json"
        # The exact bytes on disk: the embedded integrity digest stays
        # valid in the client's hands.
        return 200, envelope_path.read_bytes(), {}

    def _cancel(self, job_id: str):
        rt = self._jobs.get(job_id)
        if rt is None:
            return 404, {"error": "NotFound", "message": f"unknown job {job_id!r}"}, {}
        if rt.state in TERMINAL_STATES:
            return (
                409,
                {
                    "error": "JobError",
                    "message": f"job {job_id} already {rt.state}; cannot cancel",
                    "state": rt.state,
                },
                {},
            )
        rt.cancel_requested = True
        if rt.state == "QUEUED":
            self._finish(rt, "CANCELLED", "cancelled before start")
            return 200, {"job_id": job_id, "state": "CANCELLED"}, {}
        # RUNNING: SIGTERM the drain; its teardown releases the leases and
        # the supervisor records CANCELLED once the process is gone.
        if rt.proc is not None and rt.proc.is_alive():
            rt.proc.terminate()
        return 202, {"job_id": job_id, "state": rt.state, "cancelling": True}, {}

    # -- async plumbing -----------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.store.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._rescan()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        save_json(
            {
                "schema": SERVE_SCHEMA,
                "host": self.config.host,
                "port": self.port,
                "pid": os.getpid(),
                "spool": str(self.store.root),
            },
            self.store.root / "serve.json",
        )
        for _ in range(max(0, self.config.workers)):
            self._worker_tasks.append(asyncio.ensure_future(self._worker_loop()))
        # The housekeeper reaps silent remote claims and finalizes jobs
        # whose cells were all recorded by remote workers — with
        # ``--workers 0`` it is the only thing that completes a job.
        self._worker_tasks.append(asyncio.ensure_future(self._housekeeper_loop()))

    def _rescan(self) -> None:
        """Reload the spool after a restart: terminal jobs are counted,
        unfinished ones requeue through the normal resume path."""
        for job_id in self.store.list_ids():
            try:
                request = self.store.read_request(job_id)
                if request is None:
                    continue
                state_doc = self.store.read_state(job_id)
                state = state_doc["state"]
            except ReproError:
                self.obs.counter("serve/rescan_corrupt").add()
                continue
            self.obs.counter("serve/jobs_submitted").add()
            if state in TERMINAL_STATES:
                rt = _JobRuntime(job_id, request, state, state_doc.get("detail", ""))
                self._jobs[job_id] = rt
                self.obs.counter(f"serve/jobs_{state.lower()}").add()
                continue
            self.store.set_state(job_id, "QUEUED", "requeued after restart", force=True)
            rt = _JobRuntime(job_id, request, "QUEUED", "requeued after restart")
            self._jobs[job_id] = rt
            self._enqueue(job_id, request.priority)
            self.obs.counter("serve/jobs_requeued").add()

    async def serve(self) -> int:
        """Start, run until :meth:`request_stop`, shut down cleanly."""
        await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.shutdown()
        return 0

    def request_stop(self) -> None:
        """Thread-safe stop signal (SIGTERM/SIGINT handler, tests)."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._stop_event.set)

    async def shutdown(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        # Any job still RUNNING lost its supervisor mid-drain: stop the
        # drain (its teardown releases leases) and requeue durably so a
        # restart resumes it.
        for rt in self._jobs.values():
            if rt.state != "RUNNING":
                continue
            proc = rt.proc
            if proc is not None and proc.is_alive():
                proc.terminate()
                await self._loop.run_in_executor(None, proc.join, 10)
                if proc.is_alive():  # pragma: no cover - stuck drain
                    proc.kill()
                    await self._loop.run_in_executor(None, proc.join, 5)
            self.store.set_state(rt.job_id, "QUEUED", "requeued at shutdown")
            rt.state = "QUEUED"
        # Settle outstanding remote claims so the remote/* books balance;
        # reconnecting workers re-claim after the restart.
        self.broker.shutdown()
        try:
            (self.store.root / "serve.json").unlink()
        except OSError:
            pass

    async def _worker_loop(self) -> None:
        while not self._stopping:
            rt = self._pop_next()
            if rt is None:
                await asyncio.sleep(0.05)
                continue
            await self._run_job(rt)

    async def _housekeeper_loop(self) -> None:
        """Reap expired remote claims; finalize remotely-drained jobs.

        A QUEUED job whose every cell already has a durable record (all
        computed by remote workers) goes through the ordinary drain,
        which finds nothing pending, assembles the envelope and sweeps
        the leases — the server stays the single assembler. The
        fully-recorded check and :meth:`_run_job`'s synchronous
        QUEUED→RUNNING transition run without an ``await`` between
        them, so a concurrent :meth:`_worker_loop` cannot double-drain.
        """
        while not self._stopping:
            await asyncio.sleep(0.2)
            try:
                self.broker.reap()
            except Exception:  # noqa: BLE001 - keep the loop alive
                self.obs.counter("serve/housekeeper_errors").add()
            for rt in list(self._jobs.values()):
                if self._stopping:
                    break
                if rt.state != "QUEUED" or rt.cancel_requested:
                    continue
                try:
                    ready = self.broker.job_fully_recorded(rt.job_id)
                except ReproError:
                    continue
                if ready:
                    self.obs.counter("serve/jobs_finalized").add()
                    await self._run_job(rt)

    async def _run_job(self, rt: _JobRuntime) -> None:
        self.store.set_state(rt.job_id, "RUNNING", "draining")
        rt.state = "RUNNING"
        rt.detail = "draining"
        config = self.config
        ctx = pool_context()
        proc = ctx.Process(
            target=_drain_job_entry,
            args=(
                str(self.store.job_dir(rt.job_id)),
                config.cell_jobs,
                config.retries,
                config.cell_timeout_s,
                config.lease_ttl,
                config.heartbeat_s,
            ),
        )
        proc.start()
        rt.proc = proc
        started = time.monotonic()
        timeout = rt.request.timeout_s or config.job_timeout_s
        deadline = started + timeout if timeout else None
        timed_out = False
        kill_at: Optional[float] = None
        while proc.is_alive():
            await asyncio.sleep(0.05)
            now = time.monotonic()
            if deadline is not None and now > deadline and not timed_out:
                timed_out = True
                kill_at = now + 5.0
                proc.terminate()
                self.obs.counter("serve/jobs_timed_out").add()
            if kill_at is not None and now > kill_at and proc.is_alive():
                proc.kill()  # pragma: no cover - drain ignored SIGTERM
                kill_at = None
        proc.join()
        code = proc.exitcode
        rt.proc = None
        self._drain_durations.append(max(0.0, time.monotonic() - started))
        self._merge_job_obs(rt.job_id)
        if rt.cancel_requested:
            self._finish(rt, "CANCELLED", "cancelled while running")
        elif timed_out:
            self._finish(rt, "FAILED", f"job exceeded its {timeout:g}s timeout")
        elif code == 0:
            self._finish(rt, "DONE", "completed")
        elif code == 1:
            self._finish(rt, "FAILED", "one or more cells failed")
        else:
            self._finish(rt, "FAILED", f"drain exited with code {code}")

    def _merge_job_obs(self, job_id: str) -> None:
        """Aggregate a finished drain's counters into the server registry."""
        doc = self.store.read_obs(job_id)
        if doc is None:
            return
        counters = doc.get("counters")
        if not isinstance(counters, dict):
            return
        for path, value in counters.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
                self.obs.counter(path).add(value)

    # -- HTTP framing -------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            status, payload, headers = await self._read_and_route(reader)
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
            writer.close()
            return
        body = payload if isinstance(payload, bytes) else (
            _canonical_dumps(payload) + "\n"
        ).encode("utf-8")
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
            410: "Gone", 413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
        }.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        writer.close()

    async def _read_and_route(self, reader):
        """Frame one request under a single read deadline.

        The whole request — line, headers and body — must arrive within
        ``read_timeout_s``. A slow-loris connection that dribbles bytes
        to keep each individual read alive still hits the shared
        deadline and is answered 408; a body cut short of its declared
        Content-Length answers 400. Both are answers, not silent
        drops, so well-behaved clients can tell policy from partition.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.read_timeout_s

        def timed(awaitable):
            return asyncio.wait_for(awaitable, timeout=max(0.0, deadline - loop.time()))

        try:
            request_line = await timed(reader.readline())
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400, {"error": "BadRequest", "message": "malformed request line"}, {}
            method, path = parts[0], parts[1]
            content_length = 0
            headers_seen = 0
            while True:
                line = await timed(reader.readline())
                if line in (b"\r\n", b"\n", b""):
                    break
                headers_seen += 1
                if headers_seen > 256:
                    return 400, {"error": "BadRequest", "message": "too many headers"}, {}
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        return 400, {"error": "BadRequest", "message": "bad Content-Length"}, {}
            if content_length > self.config.max_body_bytes:
                return (
                    413,
                    {
                        "error": "JobError",
                        "message": f"body exceeds {self.config.max_body_bytes} bytes",
                    },
                    {},
                )
            body = await timed(reader.readexactly(content_length)) if content_length else b""
        except asyncio.TimeoutError:
            self.obs.counter("serve/http_timeouts").add()
            return (
                408,
                {
                    "error": "RequestTimeout",
                    "message": (
                        f"request not received within {self.config.read_timeout_s:g}s"
                    ),
                },
                {},
            )
        except asyncio.IncompleteReadError:
            self.obs.counter("serve/http_truncated").add()
            return 400, {"error": "BadRequest", "message": "request body truncated"}, {}
        return self.handle_request(method, path, body)


def serve_forever(config: ServeConfig, obs: Optional[Registry] = None) -> int:
    """Blocking entry point for ``repro serve``.

    Installs SIGTERM/SIGINT handlers when running in the main thread
    (tests drive :meth:`JobServer.request_stop` directly instead) and
    serves until stopped; returns the process exit code.
    """
    server = JobServer(config, obs=obs)

    async def _main() -> int:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except (ValueError, NotImplementedError, RuntimeError):
                pass  # non-main thread (tests) or platform without support
        await server.start()
        print(
            f"repro serve listening on http://{config.host}:{server.port} "
            f"(spool {server.store.root}, {config.workers} workers)",
            flush=True,
        )
        try:
            await server._stop_event.wait()
        finally:
            await server.shutdown()
        return 0

    return asyncio.run(_main())
