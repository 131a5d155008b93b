"""Resilient sweep execution: checkpointed cells, supervised workers, resume.

Every sweep-shaped verb decomposes into **cells** — independent
(accelerator, network, ratio) or (rate)/(width) points, each a pure
function of its JSON-able parameters, the seed among them. This module
executes a sweep's cells through a checkpointed, supervised pipeline so
a crash, hang, or Ctrl-C loses at most the cell in flight:

- **Run directory** — ``<run-dir>/manifest.json`` records the sweep's
  identity (plan name, parameters, seed, a SHA-256 ``config_hash`` over
  all of it, and the full cell list); each finished cell writes an
  atomic, digest-carrying record to ``<run-dir>/cells/<id>.json``.
- **Supervised worker pool** — each cell runs in its own worker
  process with a per-task timeout, bounded retry with exponential
  backoff, and crash isolation: a worker that dies (segfault, OOM
  kill, raised exception) fails *its cell*, not the run.
  ``KeyboardInterrupt``/``SIGTERM`` terminate and join all workers
  before propagating; completed cells are already on disk.
- **Graceful degradation** — a cell that exhausts its retries is
  recorded as a structured :class:`~repro.errors.CellError` in its
  record, the assembled result, and the envelope; reports render a
  FAILED row instead of aborting.
- **Resume** — ``repro resume <run-dir>`` re-executes only missing,
  failed, or corrupt cells and reassembles the final envelope
  bit-identically to an uninterrupted run (modulo the fields the
  manifest declares volatile: run id and creation timestamp).
- **Coordination** — the supervised pool gets its cells from a
  coordinator. Every run-dir mode (serial, ``--jobs``, ``repro
  resume``, and N independent ``repro work`` processes draining one
  run dir) uses the lease protocol (:mod:`repro.harness.coord`,
  docs/COORD.md): cells are claimed via crash-consistent lease files,
  heartbeat-renewed while simulating, stolen when their owner dies or
  stalls, and settled by the first durable cell record. A worker that
  finds a cell finished elsewhere *adopts* the record instead of
  recomputing. ``repro work --connect`` drives the same pool over HTTP
  (:mod:`repro.harness.remote`, docs/REMOTE.md).

Observability lands under ``resilience/*`` (see docs/RESILIENCE.md for
the exact counter semantics); the core reconciliation invariant is
``cells_attempted == cells_succeeded + cells_failed``, with
``cells_adopted`` counting records taken over from other workers and
the ``coord/*`` ledger reconciling claims exactly (docs/COORD.md).
"""

from __future__ import annotations

import copy
import heapq
import itertools
import multiprocessing.connection
import signal
import time
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ArtifactIntegrityError, CellError
from ..obs import NULL_REGISTRY, Registry
from .coord import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    LEASES_DIR,
    CellCoordinator,
    LeaseManager,
    maybe_kill,
    safe_cell_filename,
)
from .serialize import (
    INTEGRITY_KEY,
    _canonical_dumps,
    content_digest,
    experiment_envelope,
    load_json,
    save_json,
    to_jsonable,
)

__all__ = [
    "RUN_SCHEMA",
    "CELL_SCHEMA",
    "MANIFEST_NAME",
    "ENVELOPE_NAME",
    "KILL_AFTER_ENV",
    "CellSpec",
    "RetryPolicy",
    "SweepPlan",
    "RunDir",
    "register_cell_runner",
    "breakdown_plan",
    "faults_plan",
    "execute_sweep",
    "work_run",
    "status_run",
    "effective_lease_ttl",
    "canonical_envelope_bytes",
]

RUN_SCHEMA = "repro.run/v1"
CELL_SCHEMA = "repro.cell/v1"
MANIFEST_NAME = "manifest.json"
ENVELOPE_NAME = "envelope.json"
CELLS_DIR = "cells"

#: Fields of the manifest (and the envelope's ``resilience`` block) that
#: legitimately differ between a resumed and an uninterrupted run.
VOLATILE_FIELDS = ("run_id", "created")

#: Test/CI hook: when set to N, the parent SIGKILLs itself immediately
#: after the N-th cell record is written this invocation — a
#: deterministic "crash at a cell boundary" for kill-resume tests.
KILL_AFTER_ENV = "REPRO_KILL_AFTER_CELLS"


# ---------------------------------------------------------------------------
# Cells, plans, policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One re-executable unit of a sweep, addressable by ``cell_id``."""

    cell_id: str
    kind: str
    params: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"cell_id": self.cell_id, "kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "CellSpec":
        return CellSpec(cell_id=doc["cell_id"], kind=doc["kind"], params=dict(doc["params"]))


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and a per-task timeout.

    ``timeout_s=None`` disables the per-task deadline. ``max_attempts``
    counts executions, so 3 means one try plus two retries.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0

    def backoff(self, failed_attempt: int) -> float:
        return self.backoff_base_s * (self.backoff_factor ** (failed_attempt - 1))


@dataclass
class SweepPlan:
    """A sweep's full declarative identity: enough to (re-)execute it."""

    plan: str
    experiment: str
    description: str
    seed: Optional[int]
    params: Dict[str, Any]
    cells: List[CellSpec] = field(default_factory=list)

    def config_hash(self) -> str:
        return content_digest(
            {
                "plan": self.plan,
                "experiment": self.experiment,
                "seed": self.seed,
                "params": self.params,
                "cells": [c.to_dict() for c in self.cells],
            }
        )


#: kind -> runner; a runner maps a cell's params dict to a JSON-able result.
CELL_RUNNERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}

#: kind -> modules its runner imports when it runs (see register_cell_runner).
CELL_RUNNER_MODULES: Dict[str, Tuple[str, ...]] = {}

#: plan name -> assembler(plan, records) -> result object with ``format()``.
PLAN_ASSEMBLERS: Dict[str, Callable[["SweepPlan", Dict[str, Dict[str, Any]]], Any]] = {}


def register_cell_runner(
    kind: str, runner: Callable[[Dict[str, Any]], Any], modules: Sequence[str] = ()
) -> None:
    """Register a cell runner; workers look their cell's kind up here.

    ``modules`` are what the runner imports when it runs. The supervisor
    imports them before it forks the kind's first worker, so every worker
    inherits them instead of importing them again.
    """
    CELL_RUNNERS[kind] = runner
    CELL_RUNNER_MODULES[kind] = tuple(modules)


# -- built-in cells: breakdown sweeps (fig11/12/13, compare) ----------------


def _run_breakdown_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from .experiments import simulate_cell

    kind, network, ratio = params["accelerator"], params["network"], params["ratio"]
    return simulate_cell(kind, network, ratio=ratio).to_dict()


def _run_fault_rate_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from .faults import fault_rate_cell

    return fault_rate_cell(
        params["network"],
        params["rate"],
        policy=params["policy"],
        model=params["model"],
        ratio=params["ratio"],
        seed=params["seed"],
    )


def _run_fault_width_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from .faults import fault_width_cell

    return fault_width_cell(
        params["network"], params["width"], ratio=params["ratio"], seed=params["seed"]
    )


def _run_explore_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from .explore import explore_cell

    return explore_cell(
        params["network"],
        params["candidate"],
        fidelity_layers=params.get("fidelity_layers"),
    )


# Each runner's driver modules, plus the simcache for the cells it memoizes.
_SIMCACHE = "repro.harness.simcache"
register_cell_runner("breakdown", _run_breakdown_cell, ("repro.harness.experiments",))
register_cell_runner("fault_rate", _run_fault_rate_cell, ("repro.harness.faults", _SIMCACHE))
register_cell_runner("fault_width", _run_fault_width_cell, ("repro.harness.faults", _SIMCACHE))
register_cell_runner("explore", _run_explore_cell, ("repro.harness.explore",))


def breakdown_plan(
    network: str,
    ratio: float = 0.03,
    seed: Optional[int] = None,
    experiment: str = "compare",
    description: str = "",
) -> SweepPlan:
    """One cell per accelerator of a Figs. 11-13 / ``compare`` breakdown."""
    from .experiments import ALL_ACCELERATORS

    params = {"network": network, "ratio": float(ratio)}
    cells = [
        CellSpec(
            cell_id=kind,
            kind="breakdown",
            params={"accelerator": kind, "network": network, "ratio": float(ratio), "seed": seed},
        )
        for kind in ALL_ACCELERATORS
    ]
    return SweepPlan(
        plan="breakdown",
        experiment=experiment,
        description=description or f"cycle/energy breakdown for {network}",
        seed=seed,
        params=params,
        cells=cells,
    )


def _assemble_breakdown(plan: SweepPlan, records: Dict[str, Dict[str, Any]]):
    from .experiments import BreakdownResult
    from .serialize import run_stats_from_dict

    result = BreakdownResult(network=plan.params["network"])
    for spec in plan.cells:
        record = records.get(spec.cell_id)
        if record is not None and record.get("status") == "ok":
            result.runs[spec.cell_id] = run_stats_from_dict(record["result"])
        else:
            error = (record or {}).get("error") or CellError(
                "cell record missing", cell_id=spec.cell_id, kind="crash"
            ).to_dict()
            result.failures[spec.cell_id] = error
    return result


def faults_plan(
    network: str,
    rates: Sequence[float],
    widths: Sequence[int],
    policy: str = "degrade",
    model: str = "bitflip",
    ratio: float = 0.03,
    seed: Optional[int] = None,
) -> SweepPlan:
    """One cell per rate point and per width point of ``repro faults``."""
    seed = 0 if seed is None else seed
    params = {
        "network": network,
        "rates": [float(r) for r in rates],
        "widths": [int(w) for w in widths],
        "policy": policy,
        "model": model,
        "ratio": float(ratio),
    }
    cells = [
        CellSpec(
            cell_id=f"rate-{float(rate):g}",
            kind="fault_rate",
            params={
                "network": network,
                "rate": float(rate),
                "policy": policy,
                "model": model,
                "ratio": float(ratio),
                "seed": seed,
            },
        )
        for rate in rates
    ] + [
        CellSpec(
            cell_id=f"width-{int(width)}",
            kind="fault_width",
            params={"network": network, "width": int(width), "ratio": float(ratio), "seed": seed},
        )
        for width in widths
    ]
    return SweepPlan(
        plan="faults",
        experiment="faults",
        description=f"fault-rate + accumulator-width sweep for {network}",
        seed=seed,
        params=params,
        cells=cells,
    )


def _assemble_faults(plan: SweepPlan, records: Dict[str, Dict[str, Any]]):
    from .faults import FaultSweepResult, fault_case

    p = plan.params
    _, _, stats, required = fault_case(p["network"], p["ratio"], plan.seed)
    result = FaultSweepResult(
        network=p["network"],
        policy=p["policy"],
        model=p["model"],
        seed=plan.seed,
        case=stats,
        required_bits=required,
    )
    for spec in plan.cells:
        record = records.get(spec.cell_id)
        if record is not None and record.get("status") == "ok":
            if spec.kind == "fault_rate":
                result.rate_rows.append(record["result"])
            else:
                result.width_rows.append(record["result"])
        else:
            result.failures.append(
                (record or {}).get("error")
                or CellError("cell record missing", cell_id=spec.cell_id, kind="crash").to_dict()
            )
    return result


PLAN_ASSEMBLERS["breakdown"] = _assemble_breakdown
PLAN_ASSEMBLERS["faults"] = _assemble_faults


# ---------------------------------------------------------------------------
# Run directory: manifest + per-cell checkpoint records
# ---------------------------------------------------------------------------


def _cell_filename(cell_id: str) -> str:
    return safe_cell_filename(cell_id)


def _config_diff(manifest: Dict[str, Any], plan: SweepPlan) -> List[str]:
    """The config keys on which a manifest and a plan disagree.

    Names the *semantic* source of a config-hash mismatch — seed,
    params.<key>, the cell list — so the error message says what to
    change rather than just that two digests differ.
    """
    diffs: List[str] = []
    for key, ours in (
        ("plan", plan.plan),
        ("experiment", plan.experiment),
        ("seed", plan.seed),
    ):
        if to_jsonable(manifest.get(key)) != to_jsonable(ours):
            diffs.append(key)
    theirs_params = manifest.get("params") or {}
    ours_params = to_jsonable(plan.params) or {}
    for key in sorted(set(theirs_params) | set(ours_params)):
        if theirs_params.get(key) != ours_params.get(key):
            diffs.append(f"params.{key}")
    if to_jsonable([c.to_dict() for c in plan.cells]) != (manifest.get("cells") or []):
        diffs.append("cells")
    return diffs


class RunDir:
    """The on-disk checkpoint of one sweep (docs/RESILIENCE.md layout)."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._written = 0

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def cells_dir(self) -> Path:
        return self.root / CELLS_DIR

    @property
    def envelope_path(self) -> Path:
        return self.root / ENVELOPE_NAME

    @property
    def leases_dir(self) -> Path:
        return self.root / LEASES_DIR

    def cell_path(self, cell_id: str) -> Path:
        return self.cells_dir / _cell_filename(cell_id)

    # -- manifest -----------------------------------------------------------

    def init(self, plan: SweepPlan, verify: bool = True) -> Tuple[Dict[str, Any], bool]:
        """Create the manifest, or validate against an existing one.

        Returns ``(manifest, resumed)``. An existing manifest whose
        ``config_hash`` differs from the plan's is a different sweep —
        refusing beats silently mixing two runs' cells.
        """
        if self.manifest_path.exists():
            manifest = self.load_manifest(verify=verify)
            if manifest["config_hash"] != plan.config_hash():
                diffs = _config_diff(manifest, plan) or ["<undetermined>"]
                raise ArtifactIntegrityError(
                    "run directory belongs to a different sweep configuration: "
                    f"manifest config_hash {manifest['config_hash']} != "
                    f"requested {plan.config_hash()}; "
                    f"differing keys: {', '.join(diffs)}",
                    path=str(self.manifest_path),
                    reason="manifest_mismatch",
                )
            return manifest, True
        manifest = {
            "schema": RUN_SCHEMA,
            "schema_version": 1,
            "run_id": uuid.uuid4().hex[:12],
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "volatile": list(VOLATILE_FIELDS),
            "plan": plan.plan,
            "experiment": plan.experiment,
            "description": plan.description,
            "seed": plan.seed,
            "params": plan.params,
            "config_hash": plan.config_hash(),
            "cells": [c.to_dict() for c in plan.cells],
        }
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        save_json(manifest, self.manifest_path)
        return manifest, False

    def load_manifest(self, verify: bool = True) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            raise ArtifactIntegrityError(
                "no manifest — not a run directory",
                path=str(self.manifest_path),
                reason="unreadable",
            )
        manifest = load_json(self.manifest_path, verify=verify)
        if not isinstance(manifest, dict):
            raise ArtifactIntegrityError(
                f"manifest is not a JSON object ({type(manifest).__name__}) — "
                "not a run directory",
                path=str(self.manifest_path),
                reason="manifest_mismatch",
            )
        if manifest.get("schema") != RUN_SCHEMA:
            raise ArtifactIntegrityError(
                f"unknown manifest schema {manifest.get('schema')!r}",
                path=str(self.manifest_path),
                reason="manifest_mismatch",
            )
        return manifest

    def plan_from_manifest(self, manifest: Dict[str, Any]) -> SweepPlan:
        return SweepPlan(
            plan=manifest["plan"],
            experiment=manifest["experiment"],
            description=manifest["description"],
            seed=manifest["seed"],
            params=manifest["params"],
            cells=[CellSpec.from_dict(c) for c in manifest["cells"]],
        )

    # -- cell records -------------------------------------------------------

    def write_cell(
        self,
        spec: CellSpec,
        status: str,
        result: Any = None,
        error: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
    ) -> Tuple[Dict[str, Any], Path]:
        record = {
            "schema": CELL_SCHEMA,
            "cell_id": spec.cell_id,
            "kind": spec.kind,
            "status": status,
            "attempts": attempts,
            "result": result,
            "error": error,
        }
        path = save_json(record, self.cell_path(spec.cell_id))
        self._written += 1
        maybe_kill(KILL_AFTER_ENV, self._written)
        return record, path

    def write_cell_exclusive(
        self,
        spec: CellSpec,
        status: str,
        result: Any = None,
        error: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
    ) -> Tuple[Dict[str, Any], bool]:
        """Write a record only if one is not already durably in place.

        The double-completion rule (docs/COORD.md): the **first durable
        ok record wins**. A second ok completion must carry an
        identical result digest — cells are deterministic, so a
        divergence is corruption and raises — and is otherwise
        discarded in favour of the existing record. An existing
        *failed* record is replaceable by an ok one (resume semantics:
        a later attempt that succeeds beats a recorded failure) but not
        by another failure. Returns ``(record, wrote)``.
        """
        existing = self.read_cell(spec)
        if existing is not None:
            if existing.get("status") == "ok":
                if status == "ok":
                    theirs = content_digest(to_jsonable(existing.get("result")))
                    ours = content_digest(to_jsonable(result))
                    if theirs != ours:
                        raise ArtifactIntegrityError(
                            f"cell {spec.cell_id!r} completed twice with diverging "
                            f"results (existing digest {theirs}, new {ours}) — "
                            "cell runners must be deterministic",
                            path=str(self.cell_path(spec.cell_id)),
                            reason="cell_conflict",
                        )
                return existing, False
            if status != "ok":
                return existing, False
        record, _ = self.write_cell(spec, status, result=result, error=error, attempts=attempts)
        return record, True

    def read_cell(self, spec: CellSpec, verify: bool = True) -> Optional[Dict[str, Any]]:
        """One readable, digest-valid record — or ``None``.

        A truncated or tampered record is treated as missing — the cell
        simply re-executes — rather than poisoning the resume.
        """
        path = self.cell_path(spec.cell_id)
        if not path.exists():
            return None
        try:
            record = load_json(path, verify=verify)
        except ArtifactIntegrityError:
            return None
        if record.get("schema") == CELL_SCHEMA and record.get("cell_id") == spec.cell_id:
            return record
        return None

    def read_cells(self, plan: SweepPlan, verify: bool = True) -> Dict[str, Dict[str, Any]]:
        """All readable, digest-valid records keyed by cell id."""
        records: Dict[str, Dict[str, Any]] = {}
        for spec in plan.cells:
            record = self.read_cell(spec, verify=verify)
            if record is not None:
                records[spec.cell_id] = record
        return records

    def pending_cells(
        self, plan: SweepPlan, verify: bool = True, retry_failed: bool = True
    ) -> List[CellSpec]:
        """The cells of ``plan`` still worth executing.

        With ``retry_failed`` (the resume/drain semantics) a cell is
        pending unless an *ok* record is durably in place — a recorded
        failure gets another chance. Without it (the remote dispatch
        semantics, docs/REMOTE.md) any durable record settles the cell:
        a failure already consumed a full local retry budget somewhere,
        so the network protocol does not re-offer it.
        """
        pending: List[CellSpec] = []
        for spec in plan.cells:
            record = self.read_cell(spec, verify=verify)
            if record is None or (retry_failed and record.get("status") != "ok"):
                pending.append(spec)
        return pending


# ---------------------------------------------------------------------------
# Supervised worker pool
# ---------------------------------------------------------------------------


def pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, shares the warm interpreter), else spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _cell_worker(conn, kind: str, params: Dict[str, Any]) -> None:
    """Child-process entry: run one cell, ship (status, payload, counters,
    elapsed_s) back.

    The child installs a fresh enabled registry as its process-global one
    so counters recorded inside the cell (notably ``simcache/*`` — the
    cache resolves ``get_registry()`` per lookup) survive the process
    boundary: they ride back as the third message element and the parent
    merges them into its own registry. The fourth element is the cell's
    duration from worker entry to result on the monotonic clock, which
    the parent judges against the deadline.
    """
    start = time.monotonic()
    from ..obs import Registry, set_registry

    worker_obs = Registry()
    set_registry(worker_obs)

    def counters() -> Dict[str, int]:
        return dict(worker_obs.snapshot())

    try:
        runner = CELL_RUNNERS.get(kind)
        if runner is None:
            conn.send(("error", f"no cell runner registered for kind {kind!r}", {}, 0.0))
            return
        from .serialize import to_jsonable

        result = to_jsonable(runner(params))
        conn.send(("ok", result, counters(), time.monotonic() - start))
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        try:
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}", counters(), time.monotonic() - start)
            )
        except Exception:
            pass
    finally:
        conn.close()


def _merge_worker_counters(obs: Registry, message) -> None:
    """Fold a worker's counter snapshot (3rd message element) into ``obs``."""
    if len(message) < 3 or not isinstance(message[2], dict):
        return  # old 2-tuple protocol, or garbage — nothing to merge
    for path, value in message[2].items():
        # snapshot() hands back floats; bools are never counters
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
            obs.counter(path).add(int(value))


def _terminate(proc) -> None:
    proc.terminate()
    proc.join(5)
    if proc.is_alive():  # pragma: no cover - stuck in uninterruptible state
        proc.kill()
        proc.join()


def _execute_cells(coord: Any, jobs: int, retry: RetryPolicy, obs: Registry) -> None:
    """Run the cells ``coord`` hands out on up to ``jobs`` supervised workers.

    This is the one loop that executes cells — for ``--run-dir`` sweeps,
    ``resume``, ``repro work DIR``, serve's drains and ``repro work
    --connect`` alike. It talks only to a *coordinator*, which owns
    claiming and recording:

    - ``next_cell()`` — a claimed :class:`CellSpec` to run, a delay in
      seconds before asking again, or ``None`` once drained;
    - ``tick()`` — called every poll iteration to renew held claims,
      including cells waiting out retry backoff;
    - ``commit(spec, status, result=..., error=..., attempts=...)`` —
      settles a cell's final ``ok``/``failed`` outcome;
    - ``abandon_all()`` — releases every held claim on teardown.

    ``commit`` gets back the object ``next_cell`` returned; nothing here
    is keyed by ``cell_id``, which may repeat across a coordinator's sweeps.

    :class:`~repro.harness.coord.CellCoordinator` implements it over
    lease files, :class:`~repro.harness.remote.RemoteWorker` over
    HTTP. Each cell attempt gets its own short-lived process (fork where
    available), so a crashed or hung worker is terminated and retried
    without corrupting a shared pool. A worker still running past its
    deadline is killed; a result delivered after the deadline — judged
    from the cell's own measured duration, not from when this loop
    polls — is a ``timeout`` too.
    """
    ctx = pool_context()
    backlog: List[Tuple[float, int, CellSpec, int]] = []  # (ready, tiebreak, spec, attempt)
    tickets = itertools.count()  # backlog tiebreak and ``active`` key, one per launch
    active: Dict[int, Tuple[Any, Any, CellSpec, int, float]] = {}
    jobs = max(1, int(jobs))
    ask_at = 0.0  # monotonic instant before which next_cell() is not asked again
    drained = False

    def overran(elapsed_s: float) -> bool:
        return retry.timeout_s is not None and elapsed_s > retry.timeout_s

    def timeout_outcome() -> Tuple[str, str]:
        return ("timeout", f"cell exceeded its {retry.timeout_s:g}s timeout")

    def launch(spec: CellSpec, attempt: int) -> None:
        for module in CELL_RUNNER_MODULES.get(spec.kind, ()):
            __import__(module)  # once here, not once per forked worker
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_cell_worker, args=(send, spec.kind, spec.params), daemon=True)
        proc.start()
        send.close()
        active[next(tickets)] = (proc, recv, spec, attempt, time.monotonic())
        obs.counter("resilience/attempts").add()

    try:
        while True:
            coord.tick()
            now = time.monotonic()
            while backlog and backlog[0][0] <= now and len(active) < jobs:
                _, _, spec, attempt = heapq.heappop(backlog)
                launch(spec, attempt)
            while not drained and ask_at <= now and len(active) < jobs:
                cell = coord.next_cell()
                if cell is None:
                    drained = True
                elif isinstance(cell, CellSpec):
                    obs.counter("resilience/cells_attempted").add()
                    launch(cell, 1)
                else:
                    ask_at = time.monotonic() + cell
            if not active:
                wakes = ([] if drained else [ask_at]) + ([backlog[0][0]] if backlog else [])
                if not wakes:
                    return
                time.sleep(max(0.0, min(0.05, min(wakes) - time.monotonic())))
                continue

            multiprocessing.connection.wait(
                [proc.sentinel for proc, _, _, _, _ in active.values()], timeout=0.05
            )
            for ticket in list(active):
                proc, recv, spec, attempt, started = active[ticket]
                if proc.is_alive():
                    if not overran(time.monotonic() - started):
                        continue
                    _terminate(proc)
                    outcome = timeout_outcome()
                else:
                    proc.join()
                    message = None
                    try:
                        if recv.poll():
                            message = recv.recv()
                    except (EOFError, OSError):
                        message = None
                    if message is not None and overran(message[3]):
                        outcome = timeout_outcome()
                    elif message is not None and message[0] == "ok":
                        outcome = ("ok", message[1])
                        _merge_worker_counters(obs, message)
                    elif message is not None:
                        outcome = ("exception", message[1])
                        _merge_worker_counters(obs, message)
                    else:
                        outcome = (
                            "crash",
                            f"worker died (exit code {proc.exitcode}) before reporting",
                        )
                recv.close()
                del active[ticket]

                status, payload = outcome
                if status == "timeout":
                    obs.counter("resilience/timeouts").add()
                if status == "ok":
                    obs.counter("resilience/cells_succeeded").add()
                    coord.commit(spec, "ok", result=payload, attempts=attempt)
                elif attempt < retry.max_attempts:
                    obs.counter("resilience/retries").add()
                    heapq.heappush(
                        backlog,
                        (time.monotonic() + retry.backoff(attempt), next(tickets), spec, attempt + 1),
                    )
                else:
                    obs.counter("resilience/cells_failed").add()
                    error = CellError(
                        str(payload), cell_id=spec.cell_id, kind=status, attempts=attempt
                    )
                    coord.commit(spec, "failed", error=error.to_dict(), attempts=attempt)
    except BaseException:
        # Clean teardown on Ctrl-C / SIGTERM / anything: no orphan
        # workers, every completed cell is already committed, and held
        # claims are relinquished so peers pick the cells up
        # immediately instead of waiting out the TTL.
        for proc, recv, _, _, _ in active.values():
            _terminate(proc)
            recv.close()
        coord.abandon_all()
        raise


# ---------------------------------------------------------------------------
# Top-level execution + resume
# ---------------------------------------------------------------------------


def effective_lease_ttl(
    lease_ttl: Optional[float],
    heartbeat_s: Optional[float],
    retry: Optional[RetryPolicy] = None,
) -> float:
    """Resolve the lease TTL, auto-scaling the default past ``--timeout``.

    An explicit TTL is taken as given (the CLI validates it at parse
    time). The default grows to cover the per-cell timeout plus two
    heartbeat intervals, so a live lease can never expire mid-cell by
    construction — heartbeats renew during simulation, but the TTL
    still bounds how stale a *crashed* owner's last renewal may look.
    """
    hb = heartbeat_s if heartbeat_s is not None else DEFAULT_HEARTBEAT_S
    if lease_ttl is not None:
        return float(lease_ttl)
    timeout = retry.timeout_s if retry is not None else None
    return max(DEFAULT_LEASE_TTL_S, (timeout or 0.0) + 2.0 * hb)


def execute_sweep(
    plan: SweepPlan,
    run_dir: Union[str, Path],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    obs: Optional[Registry] = None,
    verify: bool = True,
    owner: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
):
    """Run (or continue) a checkpointed sweep; returns the assembled pieces.

    Returns ``(result, envelope, manifest, records)`` where ``result``
    is the experiment's normal result object (with failures recorded
    structurally) and ``envelope`` the final versioned document, also
    written atomically to ``<run-dir>/envelope.json``.

    Serial, ``--jobs`` and multi-worker (``repro work``) execution all
    route through one lease-protocol code path: every pending cell is
    claimed before launch, heartbeat-renewed while simulating, and
    settled by the first durable record (docs/COORD.md). ``owner``
    names this worker in lease files (default: a fresh
    ``host:pid:nonce`` id); ``lease_ttl``/``heartbeat_s`` are the
    ``--lease-ttl``/``--heartbeat`` knobs.
    """
    retry = retry if retry is not None else RetryPolicy()
    obs = obs if obs is not None else NULL_REGISTRY
    rd = RunDir(run_dir)
    manifest, resumed = rd.init(plan, verify=verify)

    done = {
        cid: rec
        for cid, rec in rd.read_cells(plan, verify=verify).items()
        if rec.get("status") == "ok"
    }
    pending = [spec for spec in plan.cells if spec.cell_id not in done]

    obs.counter("resilience/cells_total").add(len(plan.cells))
    obs.counter("resilience/cells_skipped").add(len(done))
    obs.counter("resilience/cells_attempted").add(0)
    if resumed:
        obs.counter("resilience/cells_resumed").add(len(pending))

    coord = CellCoordinator(
        rd,
        cells=pending,
        records=done,
        owner=owner,
        ttl_s=effective_lease_ttl(lease_ttl, heartbeat_s, retry),
        heartbeat_s=heartbeat_s if heartbeat_s is not None else DEFAULT_HEARTBEAT_S,
        obs=obs,
    )
    try:
        _sigterm_guard(lambda: _execute_cells(coord, jobs=jobs, retry=retry, obs=obs))
    finally:
        coord.finalize()

    records = coord.records
    result = PLAN_ASSEMBLERS[plan.plan](plan, records)
    envelope = _resilient_envelope(plan, result, manifest, records)
    save_json(envelope, rd.envelope_path)
    return result, envelope, manifest, records


def work_run(
    run_dir: Union[str, Path],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    obs: Optional[Registry] = None,
    verify: bool = True,
    owner: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
):
    """Drain a shared run dir as one cooperating worker (``repro work``).

    The plan comes from the manifest, so any number of workers pointed
    at the same directory execute the identical cell list: each claims
    what it can, adopts what others finish, steals from the dead, and
    whichever workers reach the end assemble the same envelope bytes.
    ``repro resume`` is this exact code path — resume *is* a drain.
    """
    rd = RunDir(run_dir)
    manifest = rd.load_manifest(verify=verify)
    plan = rd.plan_from_manifest(manifest)
    return execute_sweep(
        plan,
        run_dir,
        jobs=jobs,
        retry=retry,
        obs=obs,
        verify=verify,
        owner=owner,
        lease_ttl=lease_ttl,
        heartbeat_s=heartbeat_s,
    )


def status_run(run_dir: Union[str, Path], verify: bool = True) -> Dict[str, Any]:
    """Per-cell record/lease/owner state of a run dir (``repro status``)."""
    rd = RunDir(run_dir)
    manifest = rd.load_manifest(verify=verify)
    plan = rd.plan_from_manifest(manifest)
    records = rd.read_cells(plan, verify=verify)
    leases = LeaseManager(rd.leases_dir).observe_all()
    cells = []
    counts = {"total": len(plan.cells), "ok": 0, "failed": 0, "leased": 0, "pending": 0}
    for spec in plan.cells:
        record = records.get(spec.cell_id)
        lease = leases.get(spec.cell_id)
        if record is not None:
            state = record.get("status", "pending")
        elif lease is not None:
            state = "leased"
        else:
            state = "pending"
        counts[state if state in counts else "pending"] += 1
        cells.append(
            {
                "cell_id": spec.cell_id,
                "state": state,
                "attempts": None if record is None else record.get("attempts"),
                "owner": None if lease is None else lease.owner,
                "token": None if lease is None else lease.token,
                "heartbeats": None if lease is None else lease.heartbeats,
                "elapsed_s": None if lease is None else lease.elapsed_s,
            }
        )
    return {
        "run_id": manifest["run_id"],
        "plan": manifest["plan"],
        "experiment": manifest["experiment"],
        "config_hash": manifest["config_hash"],
        "envelope": rd.envelope_path.exists(),
        "counts": counts,
        "cells": cells,
    }


def _sigterm_guard(work: Callable[[], Any]) -> Any:
    """Run ``work`` with SIGTERM mapped to KeyboardInterrupt.

    Supervisors (CI, schedulers, ``kill``) speak SIGTERM; mapping it to
    the same teardown path as Ctrl-C means workers are terminated and
    joined and the checkpoint stays consistent either way.
    """

    def _raise(signum, frame):
        raise KeyboardInterrupt

    installed = False
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
        installed = True
    except ValueError:  # not the main thread; rely on KeyboardInterrupt alone
        previous = None
    try:
        return work()
    finally:
        if installed:
            signal.signal(signal.SIGTERM, previous)


def _resilient_envelope(
    plan: SweepPlan,
    result: Any,
    manifest: Dict[str, Any],
    records: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    failed = [
        records[spec.cell_id]["error"]
        for spec in plan.cells
        if spec.cell_id in records and records[spec.cell_id].get("status") != "ok"
    ]
    missing = [spec.cell_id for spec in plan.cells if spec.cell_id not in records]
    envelope = experiment_envelope(plan.experiment, result, plan.description)
    envelope["resilience"] = {
        "run_id": manifest["run_id"],
        "created": manifest["created"],
        "config_hash": manifest["config_hash"],
        "volatile": [f"resilience/{name}" for name in VOLATILE_FIELDS],
        "cells_total": len(plan.cells),
        "cells_failed": len(failed) + len(missing),
        "failures": failed + [
            CellError("cell record missing", cell_id=cid, kind="crash").to_dict()
            for cid in missing
        ],
    }
    return envelope


def canonical_envelope_bytes(envelope: Dict[str, Any], volatile: Optional[Sequence[str]] = None) -> bytes:
    """The envelope's canonical bytes with volatile fields removed.

    Two runs of the same sweep — uninterrupted, or killed and resumed —
    must produce identical bytes here; the kill-resume equivalence
    tests assert exactly that. ``volatile`` defaults to the paths the
    envelope itself declares — under ``resilience/volatile`` for
    sweep envelopes, plus any top-level ``volatile`` list (the
    ``repro.explore/v1`` convention).
    """
    doc = {k: v for k, v in envelope.items() if k != INTEGRITY_KEY}
    if volatile is None:
        top = doc.get("volatile")
        volatile = list(top) if isinstance(top, list) else []
        volatile += list(doc.get("resilience", {}).get("volatile", []))
    doc = copy.deepcopy(doc)
    for path in volatile:
        node = doc
        parts = path.split("/")
        for part in parts[:-1]:
            node = node.get(part, {}) if isinstance(node, dict) else {}
        if isinstance(node, dict):
            node.pop(parts[-1], None)
    return _canonical_dumps(doc).encode()
