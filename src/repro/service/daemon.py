"""Long-lived store daemon: one process owns the segment files.

Motivation (ROADMAP "store daemon + live serving surface"): with many
worker processes sharing one :class:`~repro.cache.store.GraphStore`
directory, every write queues on the advisory ``flock`` — a fleet-wide
convoy — and per-process recency batching makes the cross-process LRU
only approximate.  :class:`StoreDaemon` fixes both by construction:
exactly one process opens the segments, so its single in-process
:class:`~repro.cache.lock.StoreLock` replaces the ``flock`` convoy, it
sees *every* load and its recency is exact at each eviction decision.

The daemon is deliberately dumb: it moves **bytes**.  Requests arrive
over a unix-domain socket (wire format in :mod:`repro.cache.client`)
and map onto the store's byte-level record surface
(:meth:`~repro.cache.store.GraphStore.record_get` /
:meth:`~repro.cache.store.GraphStore.record_put`) plus the maintenance
ops (``keys``/``stats``/``prune``/``invalidate``/``compact``).  Graph
encoding and decoding stay in the clients, so a request's time under
the store lock is one segment append or one block read — the daemon
never deserialises a graph.

Per-client accounting: every request carries a client id; the daemon
keeps request/byte meters per client (surfaced by the ``stats`` op and
``python -m repro cache stats --remote``) and can enforce optional
``quota_requests`` / ``quota_bytes`` caps — an over-quota request is
refused with ``code="quota"``, which clients deliberately do *not*
fail open on (see :class:`~repro.cache.client.QuotaExceeded`).

Run it embedded (tests, notebooks)::

    daemon = StoreDaemon(cache_dir, socket_path)
    daemon.start()          # background thread
    ...
    daemon.stop()

or as a process: ``python -m repro daemon --cache-dir DIR --socket S``.
"""

from __future__ import annotations

import contextlib
import os
import socket
import socketserver
import threading
import time
from pathlib import Path as FilePath
from typing import Any, Iterator

from repro.cache.client import read_message, write_message
from repro.cache.store import TABLES, GraphStore
from repro.errors import CacheError, ServiceError

__all__ = ["ClientMeter", "StoreDaemon", "running_daemon"]

#: Ops that mutate the store — refused once a client is over quota.
#: Reads are refused too (a free-riding reader still costs lock time),
#: except ``ping``/``stats`` so an over-quota client can observe *why*.
_METERED_OPS = frozenset(
    {"get", "put", "has", "keys", "prune", "invalidate", "invalidate_table", "compact"}
)

_TABLES = frozenset(table.name for table in TABLES)


class ClientMeter:
    """Cumulative per-client traffic counters (one lock-free snapshot
    per ``stats`` call; mutated only under the daemon's request lock)."""

    __slots__ = ("requests", "bytes_in", "bytes_out", "refused")

    def __init__(self) -> None:
        self.requests = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.refused = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "refused": self.refused,
        }


class _Server(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, socket_path: str, owner: "StoreDaemon") -> None:
        self.owner = owner
        super().__init__(socket_path, _Handler)


class _Handler(socketserver.BaseRequestHandler):
    """One thread per connection; requests on a connection are handled
    in arrival order until the client hangs up."""

    server: _Server

    def handle(self) -> None:
        daemon = self.server.owner
        sock = self.request
        daemon._register(sock)
        try:
            self._serve_connection(daemon, sock)
        finally:
            daemon._unregister(sock)

    def _serve_connection(self, daemon: "StoreDaemon", sock: Any) -> None:
        while True:
            try:
                header, payload, extra = read_message(sock)
            except EOFError:
                return  # clean hang-up between requests
            except (ConnectionError, OSError):
                return  # torn frame / dead peer: nothing to answer
            except ValueError as exc:
                # malformed header: answer once, then drop the
                # connection — framing is gone, resync is impossible
                with contextlib.suppress(OSError):
                    write_message(sock, {"ok": False, "error": str(exc)})
                return
            try:
                response, out_payload = daemon.dispatch(header, payload, extra)
            except Exception as exc:  # noqa: BLE001 - fault barrier
                response, out_payload = (
                    {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                    b"",
                )
            stopping = header.get("op") == "shutdown"
            try:
                write_message(sock, response, out_payload)
            except (ConnectionError, OSError):
                return
            finally:
                # only once the reply is out (or its reader gone): the
                # teardown severs this connection and unlinks the socket
                if stopping and response.get("ok"):
                    daemon._request_async_shutdown()
            if stopping:
                return


class StoreDaemon:
    """Unix-domain-socket RPC server owning one :class:`GraphStore`.

    Args:
        root: the store directory (opened in-process, never remote).
        socket_path: where to listen.  Unix sockets cap path length
            around 100 bytes — keep it short.  A stale socket file from
            a dead daemon is replaced; a *live* daemon on the path is an
            error.
        max_bytes / max_entries: eviction caps for the owned store —
            under a daemon these are the fleet-wide caps.
        quota_requests / quota_bytes: optional per-client caps on total
            requests / total transferred bytes; exceeded clients get
            ``code="quota"`` refusals (reads degrade to misses
            client-side, saves are skipped).

    Thread model: the socket server is threading (one thread per
    connection) but every store operation runs under ``_ops_lock``, so
    the store sees strictly serial access — the single-owner premise
    that makes daemon recency exact and lock hold times the only
    queueing cost.
    """

    def __init__(
        self,
        root: str | FilePath,
        socket_path: str | FilePath,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        quota_requests: int | None = None,
        quota_bytes: int | None = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.store = GraphStore(root, max_bytes=max_bytes, max_entries=max_entries)
        self.quota_requests = quota_requests
        self.quota_bytes = quota_bytes
        self._ops_lock = threading.RLock()
        self._conns_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._meters: dict[str, ClientMeter] = {}
        self._started_at: float | None = None
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _claim_socket(self) -> None:
        """Remove a stale socket file; refuse to evict a live daemon."""
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(self.socket_path)
        except OSError:
            # nobody answers: a crashed daemon's leftover — reclaim it
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
        else:
            probe.close()
            raise ServiceError(
                f"a store daemon is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    def start(self) -> None:
        """Bind the socket and serve from a background thread.

        Raises:
            ServiceError: when another daemon is live on the path.
        """
        if self._server is not None:
            raise ServiceError("daemon already started")
        self._claim_socket()
        self._server = _Server(self.socket_path, self)
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._serve_in_background,
            name="repro-store-daemon",
            daemon=True,
        )
        self._thread.start()

    def _serve_in_background(self) -> None:
        """Thread target for :meth:`start`: serve, then tear down — so a
        ``shutdown`` RPC fully stops a background daemon (socket file
        removed, recency flushed) without anyone calling :meth:`stop`."""
        server = self._server
        if server is None:  # pragma: no cover - start() just set it
            return
        try:
            server.serve_forever()
        finally:
            self._teardown()

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread until :meth:`stop` (or a
        ``shutdown`` RPC) — the ``python -m repro daemon`` entry point."""
        if self._server is None:
            self._claim_socket()
            self._server = _Server(self.socket_path, self)
            self._started_at = time.monotonic()
        try:
            self._server.serve_forever()
        finally:
            self._teardown()

    def stop(self) -> None:
        """Stop serving, flush recency, and remove the socket file.
        Idempotent."""
        server = self._server
        if server is None:
            return
        server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._teardown()

    def _register(self, sock: socket.socket) -> None:
        with self._conns_lock:
            self._conns.add(sock)

    def _unregister(self, sock: socket.socket) -> None:
        with self._conns_lock:
            self._conns.discard(sock)

    def _teardown(self) -> None:
        server = self._server
        self._server = None
        if server is not None:
            server.server_close()
        # sever live connections: handler threads otherwise keep serving
        # connected clients after shutdown, which would hide a daemon
        # stop from exactly the clients that should fail open
        with self._conns_lock:
            conns = list(self._conns)
        for sock in conns:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()
        with self._ops_lock:
            with contextlib.suppress(CacheError, OSError):
                self.store.flush_recency()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)

    def __enter__(self) -> "StoreDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._server is not None

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def dispatch(
        self, header: dict[str, Any], payload: bytes, extra: bytes
    ) -> tuple[dict[str, Any], bytes]:
        """Serve one request; returns ``(response_header, payload)``.

        Exposed for tests — the socket handler calls straight into it.
        A ``shutdown`` request is only answered here: the handler stops
        the daemon once the reply is written.
        """
        op = str(header.get("op", ""))
        client = str(header.get("client", "?"))
        with self._ops_lock:
            meter = self._meters.setdefault(client, ClientMeter())
            if op in _METERED_OPS and self._over_quota(meter):
                meter.refused += 1
                return (
                    {
                        "ok": False,
                        "code": "quota",
                        "error": (
                            f"client {client!r} is over quota "
                            f"({meter.requests} requests, "
                            f"{meter.bytes_in + meter.bytes_out} bytes)"
                        ),
                    },
                    b"",
                )
            meter.requests += 1
            meter.bytes_in += len(payload) + len(extra)
            response, out_payload = self._serve_op(op, header, payload, extra)
            meter.bytes_out += len(out_payload)
        return response, out_payload

    def _over_quota(self, meter: ClientMeter) -> bool:
        if self.quota_requests is not None and meter.requests >= self.quota_requests:
            return True
        return (
            self.quota_bytes is not None
            and meter.bytes_in + meter.bytes_out >= self.quota_bytes
        )

    def _serve_op(
        self, op: str, header: dict[str, Any], payload: bytes, extra: bytes
    ) -> tuple[dict[str, Any], bytes]:
        store = self.store
        if op == "ping":
            return (
                {
                    "ok": True,
                    "pid": os.getpid(),
                    "root": str(store.root),
                    "format": store.format,
                    "uptime": self._uptime(),
                },
                b"",
            )
        if op == "get":
            table, key = self._table_key(header)
            record = store.record_get(table, key)
            if record is None:
                return {"ok": True, "found": False}, b""
            return {"ok": True, "found": True}, record
        if op == "has":
            table, key = self._table_key(header)
            return {"ok": True, "found": store.record_has(table, key)}, b""
        if op == "put":
            table, key = self._table_key(header)
            graph_payload = extra if header.get("has_graph_payload") else None
            stored = store.record_put(table, key, payload, graph_payload)
            return {"ok": True, "stored": stored}, b""
        if op == "keys":
            return {"ok": True, "keys": store.keys()}, b""
        if op == "stats":
            return (
                {
                    "ok": True,
                    "store": store.stats(),
                    "daemon": self.daemon_stats(),
                },
                b"",
            )
        if op == "prune":
            removed = store.prune(
                max_bytes=_opt_int(header, "max_bytes"),
                max_entries=_opt_int(header, "max_entries"),
            )
            return {"ok": True, "removed": removed}, b""
        if op == "invalidate":
            removed = store.invalidate(
                log_fingerprint=_opt_str(header, "log_fingerprint"),
                options_fingerprint=_opt_str(header, "options_fingerprint"),
            )
            return {"ok": True, "removed": removed}, b""
        if op == "invalidate_table":
            removed = store.invalidate_table(str(header.get("table", "")))
            return {"ok": True, "removed": removed}, b""
        if op == "compact":
            return {"ok": True, "rewritten": store.compact()}, b""
        if op == "shutdown":
            return {"ok": True}, b""
        return {"ok": False, "error": f"unknown op {op!r}"}, b""

    @staticmethod
    def _table_key(header: dict[str, Any]) -> tuple[str, str]:
        table = str(header.get("table", ""))
        key = str(header.get("key", ""))
        if table not in _TABLES:
            raise CacheError(f"unknown table {table!r}")
        if not key:
            raise CacheError("missing record key")
        return table, key

    def _uptime(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def daemon_stats(self) -> dict[str, Any]:
        """The ``daemon`` half of the ``stats`` RPC: identity, uptime,
        quota config, and the per-client meters."""
        return {
            "pid": os.getpid(),
            "socket": self.socket_path,
            "uptime_seconds": self._uptime(),
            "quota_requests": self.quota_requests,
            "quota_bytes": self.quota_bytes,
            "clients": {
                client: meter.as_dict()
                for client, meter in sorted(self._meters.items())
            },
        }

    def _request_async_shutdown(self) -> None:
        """Stop the server from a helper thread — ``shutdown()`` called
        from a handler thread would deadlock ``serve_forever``."""
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        server = self._server
        if server is None:
            return
        threading.Thread(
            target=server.shutdown, name="repro-daemon-shutdown", daemon=True
        ).start()


def _opt_int(header: dict[str, Any], field: str) -> int | None:
    value = header.get(field)
    return None if value is None else int(value)


def _opt_str(header: dict[str, Any], field: str) -> str | None:
    value = header.get(field)
    return None if value is None else str(value)


@contextlib.contextmanager
def running_daemon(
    root: str | FilePath, socket_path: str | FilePath, **kwargs: Any
) -> Iterator[StoreDaemon]:
    """``with running_daemon(dir, sock) as d:`` — start/stop convenience
    for tests and doc snippets."""
    daemon = StoreDaemon(root, socket_path, **kwargs)
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.stop()
