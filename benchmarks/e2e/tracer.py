"""In-memory span tracer for the benchmark's traced run.

The tracer wraps functions *from outside* the program: each target
attribute is replaced by a timing wrapper, in every loaded ``repro.*``
module that holds the original object (so ``from x import y`` bindings
are covered) or on its class for a method. Nothing is passed into the
simulators, so the traced run executes the same code paths as the timed
run; it only pays the wrapper cost, which the benchmark reports as the
tracing overhead.

A span is the list ``[name, start_s, end_s, parent, op, n]``: wall-clock
bounds from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans
from forked children line up with the parent's), the index of the
enclosing span (-1 at the root), the benchmark op it belongs to, and an
optional count taken from the wrapped call's result. Spans stay in memory
until the benchmark writes them out as Chrome trace events.

This module imports nothing from the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """Records one span per call of every installed target, in memory.

    Wrappers record only while an op is open (:meth:`op_span`), so work
    the benchmark does between ops is never attributed to a layer.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around each call.

        ``count(result)`` (if given) is stored as the span's count, e.g.
        1 for a cache hit.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[COUNT] = int(count(result))
            return result

        return traced

    def install(self, targets: Iterable[Tuple[str, str, str, Optional[Callable]]]) -> List[str]:
        """Wrap every ``(span name, module, attribute, count)`` target.

        ``attribute`` is ``func`` for a module-level function or
        ``Class.method`` for a method. Returns the targets that do not
        exist in this version of the program; their metrics read 0.
        """
        missing = []
        for name, module_name, attr, count in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, original, count)
            if owner_name:
                setattr(owner, leaf, wrapped)
                continue
            prefix = module_name.split(".")[0]
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != prefix:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return missing

    @contextlib.contextmanager
    def op_span(self, op: int, name: str):
        """Open op ``op``: a root span that every layer span nests under."""
        span = [name, time.perf_counter(), 0.0, -1, op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.op = op
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.op = None


def fork_call(fn: Callable[[], int], tracer: Optional[Tracer] = None, registry=None) -> Tuple[int, Dict]:
    """Run ``fn()`` in a forked child; return ``(exit code, counters)``.

    The child starts from this process's imported state, so each call
    gets fresh per-process caches without paying the interpreter start.
    Its stdout and stderr go to /dev/null. The spans it records are
    appended to ``tracer``; ``registry`` is reset in the child and its
    snapshot returned.
    """
    first = len(tracer.spans) if tracer is not None else 0
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            if registry is not None:
                registry.reset()
            code = fn()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:  # noqa: BLE001 - reported as the exit code
            code = 1
        finally:
            try:
                payload = {
                    "spans": tracer.spans[first:] if tracer is not None else [],
                    "counters": registry.snapshot() if registry is not None else {},
                }
                with os.fdopen(write_fd, "w") as pipe:
                    json.dump(payload, pipe)
            finally:
                os._exit(code if isinstance(code, int) else 1)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    try:
        payload = json.loads(text)
    except ValueError:
        return code or 1, {}
    if tracer is not None:
        tracer.spans.extend(payload["spans"])
    return code, payload["counters"]


def self_time(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """``end - start`` minus the union of the child intervals inside it."""
    covered = 0.0
    run_start = run_end = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def span_stats(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``ms``, ``self_ms`` and count ``n``.

    Inclusive time counts only the outermost span of a name, so a
    function that calls itself (or another target under the same name)
    is not counted twice.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    stats: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "n": 0})
        entry["calls"] += 1
        entry["n"] += span[COUNT]
        kids = [(spans[c][START], spans[c][END]) for c in children.get(index, ())]
        entry["self_ms"] += self_time(span[START], span[END], kids) * 1e3
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["ms"] += (span[END] - span[START]) * 1e3
    return stats


def chrome_trace(processes: Dict[str, Sequence[list]]) -> Dict:
    """Chrome trace-event JSON (opens in Perfetto), one process per key."""
    starts = [span[START] for spans in processes.values() for span in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for pid, (label, spans) in enumerate(processes.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}})
        for index, span in enumerate(spans):
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[NAME].split(".")[0],
                    "ph": "X",
                    "ts": (span[START] - origin) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"id": index, "parent": span[PARENT], "op": span[OP], "n": span[COUNT]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
