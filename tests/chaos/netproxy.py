"""Seeded network-fault-injection TCP proxy for the remote chaos tests.

Sits between ``repro work --connect`` workers and a ``repro serve``
server and mangles whole connections, one seeded draw per connection
(the protocol is Connection: close, one request per connection, so a
connection *is* a request):

- ``none`` — forward faithfully;
- ``delay`` — forward after a bounded pause;
- ``drop_request`` — swallow the request, close the client socket (the
  server never sees it);
- ``truncate_response`` — forward, then cut the answer mid-body (the
  client's Content-Length check turns this into a retry);
- ``duplicate_response`` — forward, then send the answer twice (the
  client's Content-Length framing discards the trailing copy);
- ``eat_response`` — forward, let the server act, discard the answer
  (the client must retry an operation that already happened: the
  at-least-once / idempotency path);
- ``reset`` — RST the client connection outright (SO_LINGER 0).

Each draw is a function of (seed, the request body's ``"worker"``
field, that worker's request number), so a worker sees the same fault
sequence however the workers' connections interleave; requests without
a worker field share one stream of their own. No worker gets more than
``MAX_BREAKING_RUN`` claim-breaking faults in a row, fewer than the
``max_failures=8`` failed claim rounds in a row after which a
``RemoteWorker`` gives up, so progress is always possible.

Runnable standalone for the CI smoke::

    python tests/chaos/netproxy.py HOST:PORT --seed 7 [--port 0]

prints ``proxy listening on PORT`` and serves until killed.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import socket
import struct
import sys
import threading
import time
from typing import Dict, Optional, Tuple

#: (fault, weight) — ``none`` dominates so progress is always possible,
#: but nearly half of all connections suffer *something*.
FAULT_WEIGHTS = (
    ("none", 0.55),
    ("delay", 0.10),
    ("drop_request", 0.08),
    ("truncate_response", 0.07),
    ("duplicate_response", 0.07),
    ("eat_response", 0.08),
    ("reset", 0.05),
)

#: Faults that make a claim round fail on the worker's side.
CLAIM_BREAKING = frozenset({"drop_request", "truncate_response", "eat_response", "reset"})

#: Longest run of CLAIM_BREAKING faults one worker sees; the draw after
#: such a run is ``none``.
MAX_BREAKING_RUN = 4

_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


class FaultyProxy:
    """A threaded TCP proxy that injects one seeded fault per connection."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_delay_s: float = 0.3,
        io_timeout_s: float = 30.0,
    ):
        self.upstream = (upstream_host, upstream_port)
        self.seed = seed
        self.max_delay_s = max_delay_s
        self.io_timeout_s = io_timeout_s
        self.counts: Dict[str, int] = {name: 0 for name, _ in FAULT_WEIGHTS}
        # per worker: its fault stream and its current claim-breaking run
        self._streams: Dict[Optional[str], random.Random] = {}
        self._breaking_run: Dict[Optional[str], int] = {}
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((host, port))
        self.listener.listen(64)
        self.host, self.port = self.listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FaultyProxy":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._closing.set()
        try:
            # On Linux, close() alone does not wake a thread blocked in
            # accept(); shutdown() does.
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "FaultyProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the faults ----------------------------------------------------------

    def _draw(self, worker: Optional[str]) -> Tuple[str, float]:
        """The fault and delay of ``worker``'s next request: the next two
        draws of that worker's own stream, with its claim-breaking runs
        capped at ``MAX_BREAKING_RUN``."""
        with self._lock:
            rng = self._streams.get(worker)
            if rng is None:
                rng = self._streams[worker] = random.Random(f"{self.seed}/{worker}")
            fault = rng.choices(
                [name for name, _ in FAULT_WEIGHTS],
                weights=[w for _, w in FAULT_WEIGHTS],
            )[0]
            delay = rng.uniform(0.02, self.max_delay_s)
            run = self._breaking_run.get(worker, 0)
            if fault in CLAIM_BREAKING and run >= MAX_BREAKING_RUN:
                fault = "none"
            self._breaking_run[worker] = run + 1 if fault in CLAIM_BREAKING else 0
            self.counts[fault] += 1
            return fault, delay

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            with conn:
                request = self._read_request(conn)
                if request is None:
                    return
                fault, delay = self._draw(_worker_of(request))
                if fault == "drop_request":
                    return  # the server never hears about it
                if fault == "reset":
                    conn.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    return
                if fault == "delay":
                    time.sleep(delay)
                response = self._forward(request)
                if response is None or fault == "eat_response":
                    return  # the server acted; the client never learns
                if fault == "truncate_response":
                    conn.sendall(response[: max(1, len(response) // 2)])
                    return
                conn.sendall(response)
                if fault == "duplicate_response":
                    conn.sendall(response)
        except OSError:
            pass

    # -- plumbing ------------------------------------------------------------

    def _read_request(self, conn: socket.socket) -> Optional[bytes]:
        """One whole HTTP request, framed by its Content-Length."""
        conn.settimeout(self.io_timeout_s)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        match = _CONTENT_LENGTH.search(head)
        length = int(match.group(1)) if match else 0
        while len(body) < length:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            body += chunk
        return head + b"\r\n\r\n" + body

    def _forward(self, request: bytes) -> Optional[bytes]:
        """Send upstream, read the Connection: close answer to EOF."""
        try:
            with socket.create_connection(self.upstream, timeout=self.io_timeout_s) as up:
                up.sendall(request)
                response = b""
                while True:
                    chunk = up.recv(65536)
                    if not chunk:
                        return response
                    response += chunk
        except OSError:
            return None


def _worker_of(request: bytes) -> Optional[str]:
    """The ``"worker"`` field of a request's JSON body, if it has one."""
    try:
        doc = json.loads(request.partition(b"\r\n\r\n")[2])
    except ValueError:
        return None
    worker = doc.get("worker") if isinstance(doc, dict) else None
    return worker if isinstance(worker, str) else None


def _parse_hostport(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("upstream", metavar="HOST:PORT", type=_parse_hostport)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    proxy = FaultyProxy(
        args.upstream[0], args.upstream[1], seed=args.seed, host=args.host, port=args.port
    )
    proxy.start()
    print(f"proxy listening on {proxy.port}", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.close()
        print(f"proxy fault counts: {proxy.counts}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
