"""Serialization of experiment results to JSON/CSV.

The figure drivers return rich dataclasses; this module flattens them to
plain dictionaries and writes JSON or CSV so results can be archived,
diffed across runs, or plotted outside Python. Round-trip tested for the
structures the benchmarks produce.

Two documented, versioned schemas live here (full field reference in
docs/EXPERIMENTS.md):

- the **experiment envelope** (``experiment_envelope``) wrapping any
  experiment result under ``{"schema": "repro.experiment/v1", ...}`` —
  what ``repro run --json`` writes;
- the **run-stats document** (``RunStats.to_dict`` in
  ``repro.arch.stats``) — one accelerator x network simulation with
  per-layer rows, lossless through ``run_stats_from_dict``.

All writers here are **atomic and checksummed** (docs/RESILIENCE.md):
content goes to a temp file in the target directory, is fsync'd, then
renamed over the destination, so an interrupt never leaves a
half-written artifact. JSON documents embed a SHA-256 content digest
under ``"__integrity__"`` which :func:`load_json` verifies (and strips)
on read; CSV files get a ``<name>.sha256`` sidecar. A truncated or
tampered artifact is rejected with a structured
:class:`~repro.errors.ArtifactIntegrityError` naming the path and the
failed check, never a raw ``JSONDecodeError``.

**Canonical JSON.** Digests, simcache keys and every JSON artifact use
one text form, ``json.dumps(doc, indent=2, sort_keys=True)``. The
stdlib writes it with its pure-Python encoder (its C encoder has no
``indent``), so :func:`_canonical_dumps` writes the same bytes with a
direct recursive encoder over exact ``dict``/``list``/``str``/
``float``/``int``/``bool``/``None`` values and leaves any other document
to ``json.dumps``. :func:`save_json` encodes a document of those types
as it stands, and each top-level value once: it joins those pieces
twice, without the digest to compute it and with it for the file.
Nothing here imports numpy: :func:`to_jsonable` converts numpy values
only once something else has loaded numpy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from ..arch.stats import LayerStats, RunStats, STATS_SCHEMA_VERSION
from ..errors import ArtifactIntegrityError

__all__ = [
    "EXPERIMENT_SCHEMA",
    "SCHEMA_VERSION",
    "INTEGRITY_KEY",
    "to_jsonable",
    "atomic_write_text",
    "content_digest",
    "save_json",
    "load_json",
    "run_stats_rows",
    "run_stats_from_dict",
    "save_csv",
    "load_csv",
    "experiment_envelope",
    "experiment_csv_rows",
]

#: Version of the experiment-envelope schema written by ``repro run --json``.
SCHEMA_VERSION = 1
EXPERIMENT_SCHEMA = f"repro.experiment/v{SCHEMA_VERSION}"

#: Key under which JSON documents carry their embedded content digest.
INTEGRITY_KEY = "__integrity__"


def to_jsonable(obj: Any) -> Any:
    """Recursively convert results (dataclasses, numpy, dicts) to JSON types.

    A dataclass converts field by field in the same walk, to what
    converting its ``dataclasses.asdict`` copy would give. The exact
    JSON types come first, with what the general checks below give them.
    """
    kind = type(obj)
    if kind is str or kind is float or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {k if type(k) is str else _key(k): to_jsonable(v) for k, v in obj.items()}
    if kind is list:
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    np = sys.modules.get("numpy")  # no numpy value exists before numpy is loaded
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _key(key: Any) -> str:
    """JSON object keys must be strings; tuples join with '/'."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def atomic_write_text(text: str, path: Union[str, Path]) -> Path:
    """Write ``text`` to ``path`` with write-to-temp + fsync + rename.

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem atomic rename: readers see
    either the previous complete artifact or the new complete one,
    never a truncated intermediate. The directory entry is fsync'd
    best-effort afterwards so the rename itself survives a crash.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:  # persist the rename; not all filesystems allow dir fsync
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


#: The stdlib's own string escaper (its C version where built), so strings
#: come out exactly as ``json.dumps`` writes them.
_escape = json.encoder.encode_basestring_ascii
#: ``float.__repr__`` of the floats JSON has no literal for, as ``json`` spells them.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at
    the depth whose line break and indentation are ``indent``.

    Raises ``TypeError`` for a value of any type but exact ``dict``,
    ``list``, ``str``, ``float``, ``int``, ``bool`` and ``None``, and for a
    key that is not exactly ``str``: ``json.dumps`` converts or rejects
    those itself.
    """
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if kind is dict:
        inner = indent + "  "
        return _object({key: _encode(item, inner) for key, item in value.items()}, indent)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_encode(item, inner) for item in value]) + indent + "]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"not canonical JSON: {kind.__name__}")


def _object(members: Dict[str, str], indent: str) -> str:
    """An object from its members' :func:`_encode` texts, keys sorted."""
    if not members:
        return "{}"
    inner = indent + "  "
    keys = sorted(members)
    if not all(type(key) is str for key in keys):
        raise TypeError("not canonical JSON: a key that is not exactly str")
    pairs = [_escape(key) + ": " + members[key] for key in keys]
    return "{" + inner + ("," + inner).join(pairs) + indent + "}"


def _canonical_dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    A value of any other type, a non-string key, or nesting too deep to
    recurse (a self-referencing list) sends the whole document through
    ``json.dumps``, which converts it, or raises, as it always did.
    """
    try:
        return _encode(doc, "\n")
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True)


def content_digest(doc: Any) -> str:
    """SHA-256 hex digest of a document's canonical JSON form.

    For dicts the embedded ``__integrity__`` block is excluded, so the
    digest of a loaded document reproduces the digest it was saved with.
    """
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != INTEGRITY_KEY}
    return hashlib.sha256(_canonical_dumps(doc).encode()).hexdigest()


def save_json(obj: Any, path: Union[str, Path], digest: bool = True) -> Path:
    """Atomically serialize a result object to a JSON file.

    Dict documents additionally embed ``{"__integrity__": {"algo":
    "sha256", "digest": ...}}`` over their canonical content, which
    :func:`load_json` verifies and strips. Non-dict payloads (bare
    lists/scalars) have nowhere to embed a digest and are written
    plain.

    A document of plain JSON types is encoded as it stands, in one walk;
    anything else goes through :func:`to_jsonable` first. The bytes are
    the same either way, because :func:`_encode` accepts exact JSON
    types only.
    """
    try:
        text = _document_text(obj, digest)
    except (TypeError, RecursionError):
        doc = to_jsonable(obj)
        try:
            text = _document_text(doc, digest)
        except (TypeError, RecursionError):
            if digest and isinstance(doc, dict):
                doc = dict(doc)
                doc[INTEGRITY_KEY] = {"algo": "sha256", "digest": content_digest(doc)}
            text = _canonical_dumps(doc)
    return atomic_write_text(text, path)


def _document_text(doc: Any, digest: bool) -> str:
    """:func:`save_json`'s text of ``doc``; raises where :func:`_encode` does.

    Each top-level value is encoded once; the digest covers the members
    without it, and the file is the same members with it.
    """
    if not (digest and type(doc) is dict):
        return _encode(doc, "\n")
    members = {key: _encode(value, "\n  ") for key, value in doc.items() if key != INTEGRITY_KEY}
    checksum = hashlib.sha256(_object(members, "\n").encode()).hexdigest()
    members[INTEGRITY_KEY] = _encode({"algo": "sha256", "digest": checksum}, "\n  ")
    return _object(members, "\n")


def load_json(path: Union[str, Path], verify: bool = True) -> Any:
    """Load a JSON artifact, verifying (and stripping) its digest.

    A file that does not parse — the signature of a torn non-atomic
    write — raises :class:`ArtifactIntegrityError` with the path and
    parse position rather than a raw ``JSONDecodeError``; a digest
    mismatch likewise. ``verify=False`` (the CLI's ``--no-verify``)
    skips the digest check but still strips the key.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ArtifactIntegrityError(
            f"cannot read artifact: {exc}", path=str(path), reason="unreadable"
        ) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(
            f"artifact is not valid JSON (truncated or torn write?): {exc}",
            path=str(path),
            reason="truncated",
        ) from exc
    if isinstance(doc, dict) and INTEGRITY_KEY in doc:
        declared = doc.pop(INTEGRITY_KEY)
        if verify:
            expected = declared.get("digest") if isinstance(declared, dict) else None
            actual = content_digest(doc)
            if expected != actual:
                raise ArtifactIntegrityError(
                    f"content digest mismatch: declared {expected!r}, computed {actual!r}",
                    path=str(path),
                    reason="digest_mismatch",
                )
    return doc


def run_stats_rows(run: RunStats) -> List[Dict[str, Any]]:
    """Flatten a :class:`RunStats` into one row per layer (CSV-friendly)."""
    rows: List[Dict[str, Any]] = []
    for layer in run.layers:
        rows.append(
            {
                "accelerator": run.accelerator,
                "network": run.network,
                "layer": layer.layer_name,
                "cycles": layer.cycles,
                "macs": layer.macs,
                "ops_issued": layer.ops_issued,
                "run_cycles": layer.run_cycles,
                "skip_cycles": layer.skip_cycles,
                "idle_cycles": layer.idle_cycles,
                "energy_dram_pj": layer.energy.dram,
                "energy_buffer_pj": layer.energy.buffer,
                "energy_local_pj": layer.energy.local,
                "energy_logic_pj": layer.energy.logic,
                "energy_total_pj": layer.energy.total,
            }
        )
    return rows


def run_stats_from_dict(data: Dict[str, Any]) -> RunStats:
    """Rebuild a :class:`RunStats` from its ``to_dict`` document."""
    return RunStats.from_dict(data)


def experiment_envelope(experiment_id: str, result: Any, description: str = "") -> Dict[str, Any]:
    """Wrap one experiment result in the versioned JSON envelope.

    The envelope is self-describing: ``schema`` names the format,
    ``experiment`` the id (``fig11``, ``tab1``, ``profile``, ...), and
    ``result`` holds the JSON-converted driver output. :class:`RunStats`
    values found inside the result are serialized through their own
    versioned ``to_dict`` so they round-trip losslessly.
    """
    return {
        "schema": EXPERIMENT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "stats_schema_version": STATS_SCHEMA_VERSION,
        "experiment": experiment_id,
        "description": description,
        "result": to_jsonable(_expand_run_stats(result)),
    }


def _expand_run_stats(obj: Any) -> Any:
    """Swap embedded RunStats for their versioned dict form, recursively."""
    if isinstance(obj, RunStats):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {k: _expand_run_stats(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            name: _expand_run_stats(getattr(obj, name))
            for name in obj.__dataclass_fields__
        }
    if isinstance(obj, (list, tuple)):
        return [_expand_run_stats(v) for v in obj]
    return obj


def experiment_csv_rows(result: Any) -> List[Dict[str, Any]]:
    """Per-layer CSV rows for any result that exposes ``.runs`` of RunStats.

    Breakdown-style experiments (fig11/12/13, ``compare``) carry one
    :class:`RunStats` per accelerator; other experiments have no natural
    tabular layer form and yield no rows.
    """
    rows: List[Dict[str, Any]] = []
    runs = getattr(result, "runs", None)
    if isinstance(runs, dict):
        for run in runs.values():
            if isinstance(run, RunStats):
                rows.extend(run_stats_rows(run))
    return rows


def save_csv(rows: Iterable[Dict[str, Any]], path: Union[str, Path], digest: bool = True) -> Path:
    """Atomically write uniform dict rows as CSV; returns the path.

    CSV has no in-band place for metadata, so the SHA-256 content
    digest goes to a ``<name>.sha256`` sidecar (``sha256sum`` format)
    that :func:`load_csv` verifies when present.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    atomic_write_text(text, path)
    if digest:
        checksum = hashlib.sha256(text.encode()).hexdigest()
        atomic_write_text(f"{checksum}  {path.name}\n", path.with_suffix(path.suffix + ".sha256"))
    return path


def load_csv(path: Union[str, Path], verify: bool = True) -> List[Dict[str, str]]:
    """Read a CSV artifact back as dict rows, checking its sidecar digest."""
    path = Path(path)
    try:
        # bytes, not read_text(): universal-newline translation would
        # change the \r\n the csv writer emits and break the digest
        text = path.read_bytes().decode()
    except OSError as exc:
        raise ArtifactIntegrityError(
            f"cannot read artifact: {exc}", path=str(path), reason="unreadable"
        ) from exc
    sidecar = path.with_suffix(path.suffix + ".sha256")
    if verify and sidecar.exists():
        declared = sidecar.read_text().split()[0] if sidecar.read_text().split() else ""
        actual = hashlib.sha256(text.encode()).hexdigest()
        if declared != actual:
            raise ArtifactIntegrityError(
                f"content digest mismatch: declared {declared!r}, computed {actual!r}",
                path=str(path),
                reason="digest_mismatch",
            )
    return list(csv.DictReader(io.StringIO(text)))
