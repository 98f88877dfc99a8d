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
and name an op of the store's registry
(:data:`~repro.cache.store.OPS`: the record get/has/put surface plus
the maintenance ops ``keys``/``stats``/``prune``/``invalidate``/
``invalidate_table``/``compact``); the daemon runs that
:class:`~repro.cache.store.GraphStore` method on the store it owns.
Its own ops are ``ping`` and ``shutdown``, and it adds a ``daemon``
block to the ``stats`` reply.  Graph encoding and decoding stay in the
clients, so a request's time under the store lock is one segment
append or one block read — the daemon never deserialises a graph.

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
from typing import Any, Callable

from repro.cache.client import read_message, write_message
from repro.cache.store import OPS, GraphStore
from repro.errors import CacheError, ServiceError

__all__ = ["ClientMeter", "StoreDaemon", "running_daemon"]


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
        return {name: getattr(self, name) for name in self.__slots__}


class _Server(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, socket_path: str, owner: "StoreDaemon") -> None:
        self.owner = owner
        super().__init__(socket_path, _Handler)

    def shutdown(self) -> None:
        """Stop ``serve_forever`` now.  Its loop sees a shutdown only when
        ``select`` returns, at a connection or at its next 0.5 s poll, so
        connect until it has stopped (polling more often slowed a busy
        daemon's writes: about 10% of each drain at a 0.05 s poll)."""
        stopping = threading.Thread(target=super().shutdown)
        stopping.start()
        while stopping.is_alive():
            with contextlib.suppress(OSError), socket.socket(socket.AF_UNIX) as waker:
                waker.settimeout(1.0)
                waker.connect(self.server_address)
            stopping.join(0.01)


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
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                if isinstance(exc, ValueError):
                    # the store rejected an argument: the client raises
                    # the ValueError the same call raises in process
                    response["code"] = "invalid"
                out_payload = b""
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
        #: the daemon's own reply fields per op: ``ping`` and
        #: ``shutdown`` are its own ops, and ``stats`` adds its block to
        #: the store's report.  These ops are never refused for quota,
        #: so an over-quota client can still see why.
        self._own_replies: dict[str, Callable[[], dict[str, Any]]] = {
            "ping": self._identity,
            "stats": lambda: {"daemon": self.daemon_stats()},
            "shutdown": dict,
        }

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
            raise ServiceError(
                f"a store daemon is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    def _bind(self) -> _Server:
        if self._server is not None:
            raise ServiceError("daemon already started")
        self._claim_socket()
        self._server = _Server(self.socket_path, self)
        self._started_at = time.monotonic()
        return self._server

    def start(self) -> None:
        """Bind the socket, then :meth:`serve_forever` on a background
        thread; the socket exists when this returns.

        Raises:
            ServiceError: when another daemon is live on the path.
        """
        self._bind()
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-store-daemon", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` or a ``shutdown`` RPC, then tear down
        (socket file removed, recency flushed); binds first unless
        :meth:`start` did.  The ``python -m repro daemon`` entry point
        runs it on the calling thread."""
        server = self._server if self._server is not None else self._bind()
        try:
            server.serve_forever()
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
            metered = op in OPS and op not in self._own_replies
            if metered and self._over_quota(meter):
                meter.refused += 1
                error = (
                    f"client {client!r} is over quota ({meter.requests} requests, "
                    f"{meter.bytes_in + meter.bytes_out} bytes)"
                )
                return {"ok": False, "code": "quota", "error": error}, b""
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
        self, name: str, header: dict[str, Any], payload: bytes, extra: bytes
    ) -> tuple[dict[str, Any], bytes]:
        """Run the registry op ``name`` on the store, then add the
        daemon's own reply fields; an op in neither is refused."""
        op = OPS.get(name)
        own = self._own_replies.get(name)
        if op is None and own is None:
            return {"ok": False, "error": f"unknown op {name!r}"}, b""
        response, out_payload = (
            ({"ok": True}, b"")
            if op is None
            else op.serve(self.store, header, payload, extra)
        )
        if own is not None:
            response.update(own())
        return response, out_payload

    def _identity(self) -> dict[str, Any]:
        """The ``ping`` reply: who serves which store, for how long."""
        return {
            "pid": os.getpid(),
            "root": str(self.store.root),
            "format": self.store.format,
            "uptime": self._uptime(),
        }

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


def running_daemon(
    root: str | FilePath, socket_path: str | FilePath, **kwargs: Any
) -> StoreDaemon:
    """``with running_daemon(dir, sock) as d:`` — a daemon that starts on
    entering the block and stops on leaving it (tests, doc snippets)."""
    return StoreDaemon(root, socket_path, **kwargs)
