"""Socket RPC client for a remote :class:`~repro.cache.store.GraphStore`
daemon.

Per-operation ``flock`` serialises every store write across the whole
fleet — each prune, each derived-table save queues on one advisory file
lock, and per-process recency batching makes the cross-process LRU only
approximate.  The store daemon (:mod:`repro.service.daemon`) removes
both costs: exactly one process owns the segment files, every other
process talks to it over a unix-domain socket, and the daemon's single
in-process lock replaces the fleet-wide ``flock`` convoy.  Because the
daemon sees *every* load, recency is exact at each eviction decision.

This module is the client half: the wire protocol (length-prefixed JSON
header + raw payload bytes) and :class:`StoreClient`, the low-level
request/response socket wrapper.  ``GraphStore(root, remote=socket)``
builds on it — the store keeps its exact public API and merely moves
the *byte* operations (record get/put, prune, stats) over the socket;
encoding and decoding stay client-side, so the daemon never
deserialises a graph and its lock hold times stay tiny.

Failure semantics are deliberately fail-open: a client that cannot
reach the daemon (never started, crashed, stale socket file) falls back
to direct in-process store access — the cache degrades to the previous
per-op-``flock`` behaviour instead of taking requests down.  Only a
*quota* refusal does not fall back: the daemon said no, and routing
around it would defeat the quota.

Wire format (both directions)::

    [header_len u32 BE][header JSON utf-8][payload bytes][extra bytes]

``header["payload_len"]`` / ``header["extra_len"]`` give the two binary
segment lengths (both default 0).  Requests carry ``op``, ``client``,
and op-specific fields; responses carry ``ok`` plus op-specific fields.
``ok: false`` is reserved for protocol, usage, and quota errors —
domain outcomes ("key not found", "derived save skipped: no graph
entry") ride on ``ok: true`` responses with ``found``/``stored`` flags.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
from typing import Any

from repro.errors import CacheError

__all__ = [
    "DaemonUnavailable",
    "QuotaExceeded",
    "StoreClient",
    "read_message",
    "write_message",
]

#: Upper bound on a header, as a sanity guard against framing bugs and
#: foreign writers; real headers are well under a kilobyte.
MAX_HEADER_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class DaemonUnavailable(CacheError):
    """Transport-level failure talking to the store daemon: the socket
    is missing, the connection was refused or dropped, or a frame could
    not be read.  :class:`~repro.cache.store.GraphStore` reacts by
    failing open to direct in-process store access."""


class QuotaExceeded(CacheError):
    """The daemon refused the operation because this client exhausted
    its request or byte quota.  Deliberately *not* a transport failure:
    the caller must not fall back to direct store access (that would
    route around the quota) — loads degrade to cache misses, saves
    surface the error."""


def write_message(
    sock: socket.socket,
    header: dict[str, Any],
    payload: bytes = b"",
    extra: bytes = b"",
) -> None:
    """Send one framed message (header sizes are filled in here)."""
    header = dict(header)
    header["payload_len"] = len(payload)
    header["extra_len"] = len(extra)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    sock.sendall(_LEN.pack(len(raw)) + raw + payload + extra)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(sock: socket.socket) -> tuple[dict[str, Any], bytes, bytes]:
    """Read one framed message; returns ``(header, payload, extra)``.

    Raises:
        ConnectionError: on EOF mid-message (a clean EOF *before* any
            byte of a message raises :class:`EOFError` instead, so
            servers can tell "client hung up between requests" from a
            torn frame).
        ValueError: for an oversized or malformed header.
    """
    first = sock.recv(_LEN.size)
    if not first:
        raise EOFError("connection closed")
    while len(first) < _LEN.size:
        more = sock.recv(_LEN.size - len(first))
        if not more:
            raise ConnectionError("peer closed the connection mid-message")
        first += more
    (header_len,) = _LEN.unpack(first)
    if header_len > MAX_HEADER_BYTES:
        raise ValueError(f"header length {header_len} exceeds protocol maximum")
    try:
        header = json.loads(_recv_exact(sock, header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed message header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"message header must be an object, got {type(header)}")
    payload = _recv_exact(sock, int(header.get("payload_len", 0)))
    extra = _recv_exact(sock, int(header.get("extra_len", 0)))
    return header, payload, extra


class StoreClient:
    """One persistent request/response connection to a store daemon.

    Args:
        socket_path: the daemon's unix-domain socket.
        client_id: name this client reports for per-client metrics and
            quotas; defaults to ``pid@hostname``, which groups a worker
            process's traffic under one meter.
        timeout: per-operation socket timeout in seconds.

    Thread-safe through a per-instance mutex (one in-flight request at a
    time — the protocol is strictly request/response).  A dropped
    connection is re-established once per call, so a daemon restart is
    invisible to the caller as long as the new daemon is up before the
    retry; a second failure raises :class:`DaemonUnavailable`.
    """

    def __init__(
        self,
        socket_path: str,
        client_id: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.socket_path = str(socket_path)
        self.client_id = client_id or f"{os.getpid()}@{socket.gethostname()}"
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._mutex = threading.Lock()

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise DaemonUnavailable(
                f"cannot reach store daemon at {self.socket_path}: {exc}"
            ) from exc
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    def close(self) -> None:
        """Close the connection (the next call reconnects).  Idempotent."""
        with self._mutex:
            self._drop()

    def ping(self) -> dict[str, Any]:
        """Round-trip a no-op; returns the daemon's identity header
        (pid, store root, uptime).  Raises :class:`DaemonUnavailable`
        when no daemon answers."""
        header, _payload = self.call("ping")
        return header

    def call(
        self,
        op: str,
        payload: bytes = b"",
        extra: bytes = b"",
        **fields: Any,
    ) -> tuple[dict[str, Any], bytes]:
        """Send one request and return ``(response_header, payload)``.

        Raises:
            DaemonUnavailable: transport failure after one reconnect
                attempt.
            QuotaExceeded: the daemon refused for quota.
            ValueError: the daemon's store rejected an argument.
            CacheError: any other daemon-reported error.
        """
        request = {"op": op, "client": self.client_id, **fields}
        with self._mutex:
            last_exc: Exception | None = None
            for attempt in (0, 1):
                if self._sock is None:
                    self._sock = self._connect()
                try:
                    write_message(self._sock, request, payload, extra)
                    response, resp_payload, _ = read_message(self._sock)
                    break
                except (OSError, EOFError, ValueError) as exc:
                    # a dead daemon (or one restarted under us) shows up
                    # as a send/recv failure: reconnect once, then give up
                    self._drop()
                    last_exc = exc
            else:
                raise DaemonUnavailable(
                    f"store daemon at {self.socket_path} did not answer "
                    f"{op!r}: {last_exc}"
                ) from last_exc
        if not response.get("ok"):
            error = str(response.get("error", "unknown daemon error"))
            if response.get("code") == "quota":
                raise QuotaExceeded(error)
            if response.get("code") == "invalid":
                raise ValueError(error)
            raise CacheError(f"store daemon refused {op!r}: {error}")
        return response, resp_payload
