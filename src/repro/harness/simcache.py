"""Persistent content-addressed cache of simulation cells (``simcache``).

The sweep verbs are grids of pure cells — one (accelerator config,
network workload, quant config, fault plan, seed) point each — and most
cells are bit-identical across invocations. This module memoizes the
cells that cost more to compute than to replay: fault cells
(``faults``) and explore cost and accuracy cells (``explore``, whose
``--accuracy quant`` cells score the trained minis). The analytic
breakdown cells of ``run``/``compare`` compute directly, because their
cycle models are cheaper than a key, a copy or a verified disk read
(docs/PERFORMANCE.md):

- **Key** — a SHA-256 digest of the cell's canonical JSON *components*
  (accelerator id + full config dataclass, layer specs, quant/outlier
  parameters, seed-relevant inputs, fault plan) mixed with a
  ``code_version`` salt (:data:`CODE_VERSION`); bump the salt whenever
  simulator semantics change and every old entry silently misses.
- **Value** — the cell's serialized result (a fault-sweep row, an
  explore cycles/energy dict), stored one file per key under
  ``<root>/<key[:2]>/<key>.json`` through the PR 4 artifact layer:
  atomic temp+fsync+rename writes with an embedded ``__integrity__``
  digest, verified on every read. A corrupt or truncated entry is a
  structured **miss** (``simcache/corrupt`` counter + a
  :class:`ChunkIntegrityError`-family warning naming the path and
  reason) and the cell recomputes — never a wrong result.
- **One tier** — the verified ``--cache-dir`` directory is the only
  tier. Without a root a cell computes directly, with no key, store or
  copy: no command looks the same cell up twice in one process, so an
  in-process layer would only add cost (docs/PERFORMANCE.md).
  Concurrent ``--jobs`` workers share the disk root safely: writes are
  atomic renames and identical keys carry identical bytes.

Process-wide resolution (:func:`get_active`) honors the CLI flags via
environment variables — ``REPRO_CACHE_DIR`` (sets the disk root) and
``REPRO_NO_CACHE`` (no root, whatever the directory) — so forked and
spawned sweep workers inherit the caller's cache configuration without
any change to run-dir manifests or cell params.

Observability lands under ``simcache/*`` and reconciles exactly::

    lookups == hits + misses + bypassed

(docs/PERFORMANCE.md documents the full counter set and key schema).
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import ArtifactIntegrityError
from ..obs import Registry, get_registry
from .serialize import content_digest, load_json, save_json, to_jsonable

__all__ = [
    "SIMCACHE_SCHEMA",
    "CODE_VERSION",
    "CACHE_DIR_ENV",
    "NO_CACHE_ENV",
    "SimCache",
    "get_active",
    "set_active",
    "cache_key",
]

SIMCACHE_SCHEMA = "repro.simcache/v1"

#: Code-version salt folded into every key. Bump on any change to
#: simulator/quantizer semantics so stale entries become misses.
CODE_VERSION = "pr5-2026-08-05"

#: Environment variables the CLI sets so worker processes (fork or
#: spawn) resolve the same cache configuration as the parent.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"


def cache_key(components: Dict[str, Any], code_version: str = CODE_VERSION) -> str:
    """Canonical content digest of a cell's key components.

    ``components`` may contain dataclasses, numpy values, nested dicts —
    anything :func:`~repro.harness.serialize.to_jsonable` accepts. The
    ``code_version`` salt is folded in under its own key so semantic
    changes to the simulators invalidate every prior entry at once.
    """
    doc = dict(to_jsonable(components))
    doc["code_version"] = code_version
    return content_digest(doc)


class SimCache:
    """A simulation cache backed by one verified directory.

    ``root=None`` (the default, and the ``--no-cache`` semantics) keys
    and stores nothing: every lookup is a counted bypass that computes
    the cell.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None, obs: Optional[Registry] = None):
        self.root = Path(root) if root else None
        self._obs = obs

    # -- observability ------------------------------------------------------

    @property
    def obs(self) -> Registry:
        """The registry counters land in (process-global unless pinned)."""
        return self._obs if self._obs is not None else get_registry()

    def _count(self, name: str, value: int = 1) -> None:
        self.obs.counter(f"simcache/{name}").add(value)

    # -- key/value plumbing -------------------------------------------------

    def key(self, components: Dict[str, Any]) -> str:
        return cache_key(components)

    def entry_path(self, key: str) -> Optional[Path]:
        """On-disk location for ``key`` (two-hex-char shard dirs)."""
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.json"

    def _disk_get(self, key: str) -> Optional[Any]:
        path = self.entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            doc = load_json(path, verify=True)
        except ArtifactIntegrityError as exc:
            self._count("corrupt")
            warnings.warn(
                f"simcache entry {path} failed integrity verification "
                f"({exc.reason}); treating as a miss and recomputing",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if doc.get("schema") != SIMCACHE_SCHEMA or doc.get("key") != key:
            self._count("corrupt")
            warnings.warn(
                f"simcache entry {path} carries the wrong schema or key; "
                "treating as a miss and recomputing",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return doc.get("value")

    def _disk_put(self, key: str, encoded: Any, components: Dict[str, Any]) -> None:
        path = self.entry_path(key)
        if path is None:
            return
        doc = {
            "schema": SIMCACHE_SCHEMA,
            "key": key,
            "components": to_jsonable(components),
            "code_version": CODE_VERSION,
            "value": encoded,
        }
        save_json(doc, path)
        self._count("stores")

    # -- the memoization entry point ---------------------------------------

    def memoize(
        self,
        components: Dict[str, Any],
        compute: Callable[[], Any],
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """Return the cell's result, computing and storing it on a miss.

        ``encode`` maps the computed value to its JSON-able stored form
        (default :func:`to_jsonable`); ``decode`` maps the stored form
        back to the caller's type. **Both the hit and the miss path
        return ``decode(stored)``**, so cold and warm results are
        identical by construction — a lossless ``encode``/``decode``
        pair (e.g. ``RunStats.to_dict``/``from_dict``) makes warm
        envelopes byte-identical to cold ones. A stored form is decoded
        once, from a fresh disk read or a fresh ``encode``, so callers
        never share state.

        Every call counts one ``simcache/lookups`` plus exactly one of
        ``hits``/``misses``/``bypassed``; without a root it is always
        ``bypassed`` and no key is computed.
        """
        encode = encode if encode is not None else to_jsonable
        decode = decode if decode is not None else (lambda doc: doc)
        self._count("lookups")
        if self.root is None:
            self._count("bypassed")
            return decode(encode(compute()))
        key = self.key(components)
        encoded = self._disk_get(key)
        if encoded is not None:
            self._count("hits")
            return decode(encoded)
        self._count("misses")
        encoded = encode(compute())
        self._disk_put(key, encoded, components)
        return decode(encoded)

    # -- maintenance (the ``repro cache`` verb) -----------------------------

    def _entries(self):
        """Yield ``(path, stat)`` for every on-disk entry."""
        if self.root is None or not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def stats(self) -> Dict[str, Any]:
        """Entry count and byte totals for ``repro cache stats``."""
        entries = 0
        nbytes = 0
        for _, st in self._entries():
            entries += 1
            nbytes += st.st_size
        return {
            "root": str(self.root) if self.root is not None else None,
            "entries": entries,
            "bytes": nbytes,
        }

    def clear(self) -> int:
        """Delete every entry; returns files removed."""
        removed = 0
        for path, _ in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        if self.root is not None and self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """Evict least-recently-used entries until ≤ ``max_bytes`` remain.

        Recency is the entry file's mtime (reads do not touch it, so
        this is least-recently-*stored* on filesystems without atime).
        Returns ``(removed, remaining_bytes)``.

        Concurrent workers may clear or re-prune the same directory
        while this pass walks it, so an entry vanishing between listing
        and stat, or between stat and unlink, is an expected race — it
        is skipped (and its bytes no longer count as remaining) and
        tallied under ``simcache/prune_skipped``, never an error.
        """
        entries = []
        if self.root is not None and self.root.exists():
            for shard in sorted(self.root.iterdir()):
                if not shard.is_dir():
                    continue
                for path in sorted(shard.glob("*.json")):
                    try:
                        entries.append((path, path.stat()))
                    except OSError:
                        self._count("prune_skipped")
        entries.sort(key=lambda e: (e[1].st_mtime, e[0]))
        total = sum(st.st_size for _, st in entries)
        removed = 0
        for path, st in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                self._count("prune_skipped")
                total -= st.st_size
                continue
            except OSError:
                continue
            total -= st.st_size
            removed += 1
            self._count("evictions")
        return removed, total


# ---------------------------------------------------------------------------
# Process-wide active cache
# ---------------------------------------------------------------------------

_active: Optional[SimCache] = None


def set_active(cache: Optional[SimCache]) -> None:
    """Pin the process-wide cache explicitly; ``None`` reverts to env."""
    global _active
    _active = cache


def get_active() -> SimCache:
    """The process-wide cache: explicit pin, else env-var resolution.

    Built afresh from the environment on each call (there is no
    in-process state to keep): ``REPRO_CACHE_DIR`` sets the root unless
    ``REPRO_NO_CACHE`` is set, and without a root every cell computes
    directly.
    """
    if _active is not None:
        return _active
    no_cache = os.environ.get(NO_CACHE_ENV)
    return SimCache(root=None if no_cache else os.environ.get(CACHE_DIR_ENV))
