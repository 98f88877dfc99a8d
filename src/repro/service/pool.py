"""Cross-process concurrent session serving.

One :class:`~repro.api.session.InterfaceSession` serialises its appends:
even ``astream`` only moves the work off the event loop, every append
still runs one after the other in one process.  Real interface-mining
deployments ingest many *independent* client logs concurrently, and
independent sessions have no reason to queue behind each other — they
are embarrassingly parallel right up to the shared cache.

A :class:`SessionPool` is that parallel layer:

* it owns ``pool_size`` **worker processes**, each hosting the
  :class:`InterfaceSession` objects of the clients sharded onto it
  (stable client→worker hashing, so one client's batches always land on
  the same worker in arrival order);
* :meth:`submit` routes one ``(client_id, batch)`` to its shard through a
  **bounded queue** — when a worker falls behind, ``submit`` blocks
  instead of buffering unboundedly.  That is the backpressure contract:
  producers slow to the pool's real throughput, memory stays flat;
* :meth:`serve` is the async face of the same contract: it consumes a
  sync or async stream of ``(client_id, batch)`` events, submitting via
  a worker thread so a full shard queue never blocks the event loop;
* :meth:`drain` is the synchronisation point: it waits until every
  submitted batch is fully processed and returns the latest
  :class:`~repro.api.result.GenerationResult` per client.

With ``options.cache_dir`` set, all workers share one
:class:`~repro.cache.store.GraphStore` (whose multi-file operations are
file-lock guarded exactly for this): on :meth:`drain` each session
publishes its accumulated graph and widget set, so a later pool — or a
one-shot ``generate`` — full-hits on the same log.

Result equivalence: a pool is sharding, not approximation.  For every
client, the drained result equals what one-shot
:func:`~repro.api.generate` over the client's concatenated batches
produces — the property-based parity suite in
``tests/service/test_pool_properties.py`` holds this across random
workloads.

Usage::

    from repro.service import SessionPool

    with SessionPool(pool_size=4, queue_depth=8) as pool:
        for client_id, batch in arriving_batches:
            pool.submit(client_id, batch)          # blocks when saturated
        results = pool.drain()                     # {client_id: GenerationResult}

    async with SessionPool(pool_size=4) as pool:   # same pool, async face
        results = await pool.serve(event_stream())
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import inspect
import itertools
import multiprocessing as mp
import queue
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Iterable, NamedTuple

from repro.api.result import GenerationResult
from repro.api.session import InterfaceSession
from repro.core.options import PipelineOptions
from repro.errors import ServiceError

__all__ = ["SessionPool", "AppendAck", "CloseReport", "PoolStats"]

#: Default bound of each worker's inbox queue, in batches.  Deep enough
#: to keep a worker busy while the producer parses the next arrivals,
#: shallow enough that a stalled worker pushes back within a few batches.
DEFAULT_QUEUE_DEPTH = 8

_OP_APPEND = "append"
_OP_RELEASE = "release"
# a drain, or with a deadline a close: each worker answers it with a
# _Reply after every message queued before it
_OP_BARRIER = "barrier"


@dataclass(frozen=True)
class AppendAck:
    """One processed append, as reported back by a worker."""

    client_id: str
    seq: int
    worker: int
    n_queries: int
    n_widgets: int
    seconds: float
    error: str | None = None
    #: The append's compiled interface — attached only for appends
    #: submitted by a ``serve(compile=...)`` call.  In
    #: ``"patch"`` mode this is the structural patch
    #: (:func:`repro.compiler.incremental.make_patch` wire format); in
    #: ``"page"`` mode it is ``{"kind": "page_html", "html": ...}``.  A
    #: compile failure rides along as ``{"kind": "error", "error": ...}``
    #: without failing the append itself.
    compiled: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        """True when the append was applied to the client's session."""
        return self.error is None


@dataclass(frozen=True)
class CloseReport:
    """What :meth:`SessionPool.close` managed to save — and what it
    lost.  ``close()`` used to swallow both: a worker wedged in
    ``flush_to_store`` was ``terminate()``d mid-write and its queued
    flush errors vanished with its queue."""

    #: Store-publication failures reported by workers while closing
    #: (including any still queued from earlier drains).
    flush_errors: tuple[str, ...] = ()
    #: Clients whose sessions missed the flush deadline (or lived on a
    #: worker that had to be killed); their *drained* results were
    #: delivered, but their latest state is not in the store.
    unflushed_clients: tuple[str, ...] = ()
    #: Workers that never acknowledged the close and were terminated.
    terminated_workers: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """True when every session flushed and every worker exited."""
        return not (
            self.flush_errors or self.unflushed_clients or self.terminated_workers
        )


@dataclass(frozen=True)
class PoolStats:
    """Counters over the pool's lifetime (monotonic until ``close``)."""

    pool_size: int
    queue_depth: int
    n_submitted: int
    n_completed: int
    n_failed: int
    n_clients: int


class _Reply(NamedTuple):
    """A worker's answer to a drain or close barrier (see
    :func:`_flush_sessions`); ``seq`` is the barrier's."""

    worker: int
    seq: int
    results: dict[str, GenerationResult]
    flush_errors: list[str]
    unflushed: list[str]


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    """SIGTERM → ``SystemExit``: unwind instead of dying on the spot.

    ``Process.terminate()`` sends SIGTERM, whose *default* disposition
    kills the process without running ``finally`` blocks — a worker
    terminated inside ``with store_lock.held()`` used to leave the lock
    to kernel cleanup mid-write.  Raising ``SystemExit`` lets the
    ``finally`` chain release the lock (an in-progress ``flock`` wait is
    interrupted by the signal too), so escalated shutdown degrades to an
    orderly exit whenever the worker is in Python code at all.
    """
    raise SystemExit(143)


def _worker_main(
    worker_id: int,
    options: PipelineOptions,
    inbox: Any,
    outbox: Any,
) -> None:
    """Worker-process loop: host sessions, apply appends, answer barriers.

    Module-level so it pickles by reference under every multiprocessing
    start method.  Messages are processed strictly in queue order, which
    is what makes per-client ordering and the barriers correct: a drain
    or close enqueued after a client's batches is necessarily handled
    after them.
    """
    with contextlib.suppress(OSError, ValueError):  # restricted environments
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sessions: dict[str, InterfaceSession] = {}
    while True:
        message = inbox.get()
        op = message[0]
        if op == _OP_APPEND:
            _, seq, client_id, batch, compile_mode = message
            started = time.perf_counter()
            n_widgets = 0
            error: str | None = None
            compiled: dict[str, Any] | None = None
            try:
                session = sessions.get(client_id)
                if session is None:
                    session = InterfaceSession(options=options)
                    sessions[client_id] = session
                n_widgets = len(session.append_batch(batch).interface.widgets)
                if compile_mode is not None:
                    # compile inside the worker — the incremental
                    # compiler's artifacts live with the session, so the
                    # steady-state cost is the dirty part of the page; a
                    # compile failure must not fail the (already applied)
                    # append
                    try:
                        if compile_mode == "patch":
                            compiled = session.compile_patch()
                        else:
                            compiled = {
                                "kind": "page_html",
                                "html": session.compile(),
                            }
                    except Exception as exc:
                        compiled = {
                            "kind": "error",
                            "error": f"{type(exc).__name__}: {exc}",
                        }
            except Exception as exc:  # a bad batch fails only its own ack
                # (SystemExit, which a SIGTERM raises, and
                # KeyboardInterrupt end the worker, wedged append or not)
                error = f"{type(exc).__name__}: {exc}"
            outbox.put(
                AppendAck(
                    client_id=client_id,
                    seq=seq,
                    worker=worker_id,
                    n_queries=len(sessions.get(client_id) or ()),
                    n_widgets=n_widgets,
                    seconds=time.perf_counter() - started,
                    error=error,
                    compiled=compiled,
                )
            )
        elif op == _OP_RELEASE:
            _, client_ids = message
            for client_id in client_ids:
                sessions.pop(client_id, None)
        else:  # _OP_BARRIER
            _, seq, close_deadline = message
            outbox.put(_flush_sessions(worker_id, seq, sessions, close_deadline))
            if close_deadline is not None:
                break


def _flush_sessions(
    worker_id: int,
    seq: int,
    sessions: dict[str, InterfaceSession],
    close_deadline: float | None,
) -> _Reply:
    """Publish every session to the store and answer a barrier.

    A drain (no deadline) flushes inline and returns each session's
    result.  A close flushes on a *daemon* thread and waits at most
    ``close_deadline`` seconds: a flush wedged on the store lock (or a
    hung daemon socket) can no longer wedge ``close()`` — the reply
    names the clients the worker could not publish and the worker
    exits; the wedged thread dies with the process, and process exit
    releases any held ``flock``.
    """
    flush_errors: list[str] = []
    flushed: set[str] = set()
    results: dict[str, GenerationResult] = {}

    def flush_all() -> None:
        for client_id, session in list(sessions.items()):
            if session.result is not None:
                try:
                    session.flush_to_store()  # no-op without a cache_dir
                except Exception as exc:
                    # publication is an optimisation; the results are not
                    flush_errors.append(f"{client_id}: {exc}")
                results[client_id] = session.result
            flushed.add(client_id)

    if close_deadline is None:
        flush_all()
    else:
        thread = threading.Thread(
            target=flush_all, daemon=True, name=f"repro-close-flush-{worker_id}"
        )
        thread.start()
        thread.join(close_deadline)
    return _Reply(
        worker_id,
        seq,
        results if close_deadline is None else {},  # a close discards them
        list(flush_errors),
        sorted(set(sessions) - set(flushed)),
    )


def _shard_of(client_id: str, pool_size: int) -> int:
    """Stable client→worker routing (process- and run-independent)."""
    return zlib.crc32(client_id.encode("utf-8")) % pool_size


class SessionPool:
    """Serve many concurrent :class:`InterfaceSession` clients across
    worker processes against one shared store.

    Args:
        options: pipeline configuration shared by every hosted session;
            set ``options.cache_dir`` to back all workers by one
            :class:`~repro.cache.store.GraphStore`.
        pool_size: number of worker processes (>= 1).
        queue_depth: per-worker inbox bound, in batches (>= 1); this is
            the backpressure knob — :meth:`submit` blocks when the target
            shard's queue is full.

    The pool is a context manager; leaving the ``with`` block (or calling
    :meth:`close`) stops the workers.  Observers are deliberately not
    accepted: like ``generate_many(workers=N)``, hook objects hold
    process-local state and cannot follow an append into a worker.
    """

    def __init__(
        self,
        options: PipelineOptions | None = None,
        pool_size: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
    ) -> None:
        if pool_size < 1:
            raise ServiceError(f"pool_size must be >= 1, got {pool_size}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        self.options = options or PipelineOptions()
        self.pool_size = pool_size
        self.queue_depth = queue_depth
        self._seq = itertools.count()
        self._n_submitted = 0
        self._n_completed = 0
        self._n_failed = 0
        # held by the one thread taking messages off the outbox (_take)
        self._reading = threading.Lock()
        # the counters and the failure list, across threads
        self._lock = threading.Lock()
        # error acks not yet reported by a drain()
        self._unreported_failures: list[AppendAck] = []
        # append seq -> the ack deque of the serve(on_result=...) call
        # that submitted it; no other ack is kept
        self._routes: dict[int, collections.deque[AppendAck]] = {}
        # barrier seq -> the replies for the drain() or close() waiting
        self._replies: dict[int, list[_Reply]] = {}
        self._flush_errors: list[str] = []
        self._clients: set[str] = set()
        self._closed = False
        self._close_report: CloseReport | None = None
        self._outbox = mp.Queue()
        self._inboxes = [mp.Queue(maxsize=queue_depth) for _ in range(pool_size)]
        self._workers = [
            mp.Process(
                target=_worker_main,
                args=(worker_id, self.options, self._inboxes[worker_id], self._outbox),
                daemon=True,
                name=f"repro-session-worker-{worker_id}",
            )
            for worker_id in range(pool_size)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    async def __aenter__(self) -> "SessionPool":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await asyncio.to_thread(self.close)

    def close(self, flush_timeout: float = 10.0) -> CloseReport:
        """Stop every worker and release the queues.  Idempotent.

        Pending (submitted but undrained) work is still processed — the
        close barrier queues behind it — and each worker publishes its
        sessions to the shared store under ``flush_timeout`` seconds
        before exiting; undrained *results* are still discarded, so call
        :meth:`drain` first to keep them.

        Unlike the old fire-and-forget teardown, nothing is swallowed:
        the returned :class:`CloseReport` carries every flush error the
        workers reported while closing (including ones from earlier
        drains that no drain call collected), the clients whose sessions
        missed the flush deadline, and any worker that had to be
        terminated.  A terminated worker now exits by ``SystemExit``
        (SIGTERM handler), so a held store lock is released by its
        ``finally`` block rather than left to kernel cleanup mid-write.
        """
        if self._closed:
            return self._close_report or CloseReport()
        self._closed = True
        n_earlier_errors = len(self._flush_errors)
        awaiting: set[int] = set()
        terminated: list[str] = []
        unflushed: set[str] = set()
        seq = next(self._seq)
        replies: list[_Reply] = []
        self._replies[seq] = replies
        for worker_id, (inbox, worker) in enumerate(
            zip(self._inboxes, self._workers)
        ):
            if not worker.is_alive():
                # died before close: its queue owes us no reply, and
                # whatever sessions lived there were never published
                unflushed.update(self._clients_of(worker_id))
                continue
            try:
                # bounded put: a dead or wedged worker leaves its queue
                # full forever, and close() must never hang on it
                inbox.put((_OP_BARRIER, seq, flush_timeout), timeout=5)
                awaiting.add(worker_id)
            except Exception:  # queue.Full, or a queue already torn down
                self._terminate_worker(worker_id, terminated, unflushed)
        deadline = time.monotonic() + flush_timeout + 5.0
        while awaiting and time.monotonic() < deadline:
            arrived = self._take(0.2)
            while replies:
                reply = replies.pop()
                awaiting.discard(reply.worker)
                unflushed.update(reply.unflushed)
            if not arrived:
                for worker_id in sorted(awaiting):
                    if not self._workers[worker_id].is_alive():
                        # crashed before answering: its sessions are gone
                        awaiting.discard(worker_id)
                        unflushed.update(self._clients_of(worker_id))
        del self._replies[seq]
        for worker_id in sorted(awaiting):
            self._terminate_worker(worker_id, terminated, unflushed)
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.kill()
                worker.join(timeout=5)
        with self._reading:
            # the report marks the outbox closed: stats() and pending()
            # answer the final counts from here on
            for channel in (*self._inboxes, self._outbox):
                channel.close()
            self._close_report = CloseReport(
                flush_errors=tuple(self._flush_errors[n_earlier_errors:]),
                unflushed_clients=tuple(sorted(unflushed)),
                terminated_workers=tuple(terminated),
            )
        return self._close_report

    def _clients_of(self, worker_id: int) -> list[str]:
        """Every known client sharded onto ``worker_id``."""
        return [
            client_id
            for client_id in self._clients
            if _shard_of(client_id, self.pool_size) == worker_id
        ]

    def _terminate_worker(
        self, worker_id: int, terminated: list[str], unflushed: set[str]
    ) -> None:
        worker = self._workers[worker_id]
        worker.terminate()
        terminated.append(worker.name)
        # whatever lived there was not (necessarily) published
        unflushed.update(self._clients_of(worker_id))

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("the pool is closed")
        dead = [w.name for w in self._workers if not w.is_alive()]
        if dead:
            raise ServiceError(f"worker process(es) died: {', '.join(dead)}")

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def submit(self, client_id: str, batch: Any) -> int:
        """Enqueue one batch for one client; returns the submit sequence.

        ``batch`` is anything :meth:`InterfaceSession.append_batch`
        accepts: a raw SQL string, a parsed AST, or an iterable of either.
        Batches of one client are applied in submit order (they share a
        shard, and shards process in FIFO order).  **Blocks** while the
        client's shard queue is full — that is the backpressure: a caller
        reading from a firehose is throttled to what the workers sustain.

        Raises:
            ServiceError: when the pool is closed or a worker died.
        """
        return self._submit(client_id, batch, None, None)

    def _submit(
        self,
        client_id: str,
        batch: Any,
        compile_mode: str | None,
        route: collections.deque[AppendAck] | None,
    ) -> int:
        """:meth:`submit`, with the append's compile mode and the deque
        its ack is routed to (``None``: counted, not kept)."""
        self._require_open()
        seq = next(self._seq)
        if route is not None:
            # before the put: the ack can be taken before this returns
            self._routes[seq] = route
        shard = _shard_of(client_id, self.pool_size)
        self._inboxes[shard].put((_OP_APPEND, seq, client_id, batch, compile_mode))
        with self._lock:
            self._n_submitted += 1
        self._clients.add(client_id)
        return seq

    def pending(self) -> int:
        """Batches submitted but not yet acknowledged (approximate while
        workers are mid-append; exact after :meth:`drain`)."""
        self._take()
        return self._n_submitted - self._n_completed - self._n_failed

    def _take(self, timeout: float = 0.0) -> bool:
        """Take every message off the outbox, first waiting up to
        ``timeout`` seconds for one; False when none came.

        The outbox's one reader, for every thread (drain, close, a
        ``serve`` waiting for its acks, a monitor polling :meth:`stats`).
        An ack is counted and handed to the ``serve`` call that submitted
        it; a barrier reply's flush errors are recorded at once, and the
        reply is kept for the drain or close that sent the barrier.  Once
        :meth:`close` has closed the outbox there is nothing to take.
        """
        if not self._reading.acquire(False):
            # another thread is reading: once it is done, do not wait on
            # the queue — the caller first checks what that thread routed
            if timeout <= 0 or not self._reading.acquire(True, timeout):
                return False
            timeout = 0.0
        taken = False
        try:
            while self._close_report is None:
                try:
                    message = self._outbox.get(timeout > 0 and not taken, timeout)
                except queue.Empty:
                    return taken
                taken = True
                if isinstance(message, AppendAck):
                    with self._lock:
                        if message.ok:
                            self._n_completed += 1
                        else:
                            self._n_failed += 1
                            self._unreported_failures.append(message)
                    route = self._routes.pop(message.seq, None)
                    if route is not None:
                        route.append(message)
                else:
                    self._flush_errors.extend(message.flush_errors)
                    replies = self._replies.get(message.seq)
                    if replies is not None:
                        replies.append(message)
            return taken
        finally:
            self._reading.release()

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def drain(self, strict: bool = True) -> dict[str, GenerationResult]:
        """Wait for every submitted batch, then return per-client results.

        Sends a drain barrier down each shard (FIFO guarantees it runs
        after all pending appends) and gathers the workers' replies.  Each
        worker also publishes its sessions to the shared store first, when
        one is configured.  The pool stays usable afterwards — sessions
        keep their state and later submits keep appending.

        Args:
            strict: raise :class:`ServiceError` if any *append* failed
                (the per-client messages ride on the exception's
                ``failures``).  With ``strict=False`` failures are only
                visible through :meth:`stats`.  Store-flush
                failures never gate result delivery — publication is an
                optimisation — and are reported via :meth:`flush_errors`.

        Returns:
            The latest :class:`GenerationResult` per client, for every
            client that has at least one successful append.

        Raises:
            ServiceError: per ``strict``, or when a worker died.
        """
        self._require_open()
        seq = next(self._seq)
        replies: list[_Reply] = []
        self._replies[seq] = replies
        try:
            for inbox in self._inboxes:
                inbox.put((_OP_BARRIER, seq, None))
            while len(replies) < self.pool_size:
                if not self._take(1.0):
                    # a dead worker mid-drain would otherwise hang us here
                    self._require_open()
        finally:
            del self._replies[seq]
        results: dict[str, GenerationResult] = {}
        for reply in replies:
            results.update(reply.results)
        with self._lock:
            reported, self._unreported_failures = self._unreported_failures, []
        if strict and reported:
            raise ServiceError(
                f"{len(reported)} append(s) failed in the pool",
                failures=[
                    f"{ack.client_id} (batch #{ack.seq}): {ack.error}"
                    for ack in reported
                ],
            )
        return results

    def flush_errors(self) -> list[str]:
        """Store-publication failures the workers reported so far.  These
        never fail a drain (the results exist regardless); a caller that
        needs durability checks here."""
        return list(self._flush_errors)

    def release(self, client_ids: Iterable[str]) -> None:
        """Drop the named clients' sessions from their workers.

        Freed memory, not a barrier: in-flight appends for a released
        client that are still queued will transparently start a fresh
        session.  Call after :meth:`drain` for a clean hand-off.
        """
        self._require_open()
        ids = list(client_ids)
        by_shard: dict[int, list[str]] = {}
        for client_id in ids:
            by_shard.setdefault(_shard_of(client_id, self.pool_size), []).append(
                client_id
            )
        for shard, shard_ids in by_shard.items():
            self._inboxes[shard].put((_OP_RELEASE, shard_ids))
        self._clients.difference_update(ids)

    # ------------------------------------------------------------------
    # async serving
    # ------------------------------------------------------------------
    async def serve(
        self,
        stream: Any,
        drain: bool = True,
        strict: bool = True,
        on_result: Callable[[AppendAck], Any] | None = None,
        compile: str | None = None,
    ) -> dict[str, GenerationResult]:
        """Consume a stream of ``(client_id, batch)`` events and serve
        them through the pool; the async replacement for per-session
        ``astream`` loops.

        ``stream`` may be a sync or an async iterable.  Every submit runs
        in a worker thread, so when a shard queue is full the *stream* is
        what stalls (bounded-queue backpressure) while the event loop
        stays responsive for other tasks.  With ``drain=True`` (default)
        the pool is drained after the stream ends and the per-client
        results are returned; ``drain=False`` returns an empty dict and
        leaves synchronisation to the caller.

        With ``on_result``, serving is **live**: the callback (sync or
        async, invoked on the event loop) receives each append's
        :class:`AppendAck` — its counters, and the compiled interface
        under ``compile=`` — *as the worker finishes it*, not at the
        drain barrier.  It receives exactly the acks of the batches this
        call submitted, so concurrent ``serve`` calls on one pool each
        see only their own.  Every one is delivered before the final
        drain runs, so a subscriber always sees the live updates before
        the caller sees the drained results; the pool keeps an ack only
        until it is delivered.  Failed appends are delivered too
        (``ack.ok`` false, ``ack.error`` set) so a subscriber can surface
        them immediately even under ``strict=False``.

        With ``compile="patch"`` (or ``"page"``), each append this call
        submits is also compiled *in the worker* and the ack's
        ``compiled`` field carries the structural interface patch (or
        the full page HTML) — the opt-in that turns a serve into
        interface streaming.  Workers keep their sessions' incremental
        compilers across appends, so the steady-state compile cost is the
        dirty part of the page, and the emitted patch stream folds
        (:func:`repro.compiler.incremental.apply_patch`) into pages
        byte-identical to a full recompile.

        Raises:
            ServiceError: as :meth:`submit` / :meth:`drain`, and for an
                unknown ``compile`` mode.
        """
        if compile not in (None, "page", "patch"):
            raise ServiceError(
                f"compile must be 'page', 'patch', or None, got {compile!r}"
            )
        # this call's acks, routed here by seq; none kept without a subscriber
        route = None if on_result is None else collections.deque[AppendAck]()
        n_undelivered = 0

        async def deliver(subscriber: Callable[[AppendAck], Any]) -> None:
            """Hand the subscriber every ack routed here so far."""
            nonlocal n_undelivered
            while route:
                n_undelivered -= 1
                outcome = subscriber(route.popleft())
                if inspect.isawaitable(outcome):
                    await outcome

        async for client_id, batch in _events(stream):
            await asyncio.to_thread(self._submit, client_id, batch, compile, route)
            if on_result is not None:
                n_undelivered += 1
                self._take()
                await deliver(on_result)
        # deliver every outstanding ack *before* the drain barrier
        while on_result is not None and n_undelivered:
            await asyncio.to_thread(self._take, 0.2)
            await deliver(on_result)
            self._require_open()
        if not drain:
            return {}
        return await asyncio.to_thread(self.drain, strict)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Lifetime counters (see :class:`PoolStats`)."""
        self._take()
        return PoolStats(
            pool_size=self.pool_size,
            queue_depth=self.queue_depth,
            n_submitted=self._n_submitted,
            n_completed=self._n_completed,
            n_failed=self._n_failed,
            n_clients=len(self._clients),
        )


async def _events(stream: Any) -> AsyncIterator[Any]:
    """A sync or an async iterable, iterated asynchronously."""
    if hasattr(stream, "__aiter__"):
        async for event in stream:
            yield event
    else:
        for event in stream:
            yield event
