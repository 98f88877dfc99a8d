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
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Iterable

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
_OP_DRAIN = "drain"
_OP_RELEASE = "release"
_OP_CLOSE = "close"


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
    #: submitted while a ``serve(compile=...)`` mode is active.  In
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
    """Worker-process loop: host sessions, apply appends, answer drains.

    Module-level so it pickles by reference under every multiprocessing
    start method.  Messages are processed strictly in queue order, which
    is what makes per-client ordering and the drain barrier correct: a
    drain sentinel enqueued after a client's batches is necessarily
    handled after them.
    """
    with _swallow_os_error():
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sessions: dict[str, InterfaceSession] = {}
    while True:
        message = inbox.get()
        op = message[0]
        if op == _OP_APPEND:
            _, seq, client_id, batch, compile_mode = message
            started = time.perf_counter()
            try:
                session = sessions.get(client_id)
                if session is None:
                    session = InterfaceSession(options=options)
                    sessions[client_id] = session
                result = session.append_batch(batch)
                compiled = None
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
                outbox.put(
                    AppendAck(
                        client_id=client_id,
                        seq=seq,
                        worker=worker_id,
                        n_queries=len(session),
                        n_widgets=len(result.interface.widgets),
                        seconds=time.perf_counter() - started,
                        compiled=compiled,
                    )
                )
            except BaseException as exc:  # the pool must survive bad batches
                outbox.put(
                    AppendAck(
                        client_id=client_id,
                        seq=seq,
                        worker=worker_id,
                        n_queries=len(sessions.get(client_id) or ()),
                        n_widgets=0,
                        seconds=time.perf_counter() - started,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
        elif op == _OP_DRAIN:
            _, seq = message
            results: dict[str, GenerationResult] = {}
            flush_errors: list[str] = []
            for client_id, session in sessions.items():
                if session.result is None:
                    continue
                try:
                    session.flush_to_store()  # no-op without a cache_dir
                except Exception as exc:
                    # publication is an optimisation; the results are not
                    flush_errors.append(f"{client_id}: {exc}")
                results[client_id] = session.result
            outbox.put(("drained", worker_id, seq, results, flush_errors))
        elif op == _OP_RELEASE:
            _, client_ids = message
            for client_id in client_ids:
                sessions.pop(client_id, None)
        elif op == _OP_CLOSE:
            _, flush_deadline = message
            outbox.put(_close_worker(worker_id, sessions, flush_deadline))
            break


def _close_worker(
    worker_id: int,
    sessions: dict[str, InterfaceSession],
    flush_deadline: float,
) -> tuple[str, int, list[str], list[str]]:
    """Flush every session to the store under a deadline.

    The flush runs on a *daemon* thread and the worker waits at most
    ``flush_deadline`` seconds: a flush wedged on the store lock (or a
    hung daemon socket) can no longer wedge ``close()`` — the worker
    reports which clients it could not publish and exits; the wedged
    thread dies with the process, and process exit releases any held
    ``flock``.  Returns the ``("closed", ...)`` outbox message.
    """
    close_errors: list[str] = []
    flushed: set[str] = set()
    done = threading.Event()

    def _flush_all() -> None:
        for client_id, session in list(sessions.items()):
            if session.result is not None:
                try:
                    session.flush_to_store()  # no-op without a cache_dir
                except Exception as exc:
                    close_errors.append(f"{client_id}: {exc}")
            flushed.add(client_id)
        done.set()

    thread = threading.Thread(
        target=_flush_all, daemon=True, name=f"repro-close-flush-{worker_id}"
    )
    thread.start()
    finished = done.wait(flush_deadline)
    unflushed = [] if finished else sorted(set(sessions) - set(flushed))
    return ("closed", worker_id, list(close_errors), unflushed)


@contextlib.contextmanager
def _swallow_os_error() -> Any:
    """Signal registration is best-effort (restricted environments)."""
    try:
        yield
    except (OSError, ValueError):  # pragma: no cover - platform-specific
        pass


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
        mp_context: a :mod:`multiprocessing` start-method name
            (``"fork"``/``"spawn"``/``"forkserver"``) or ``None`` for the
            platform default.

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
        mp_context: str | None = None,
    ) -> None:
        if pool_size < 1:
            raise ServiceError(f"pool_size must be >= 1, got {pool_size}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        self.options = options or PipelineOptions()
        self.pool_size = pool_size
        self.queue_depth = queue_depth
        self._ctx = mp.get_context(mp_context)
        self._seq = itertools.count()
        self._n_submitted = 0
        self._n_completed = 0
        self._n_failed = 0
        # acks are recorded by whichever thread reads the outbox (drain,
        # serve's waits, a monitor polling stats()): keep the counts exact
        self._count_lock = threading.Lock()
        # error acks not yet reported by a drain() (per-client consumption)
        self._unreported_failures: list[AppendAck] = []
        # acks not yet handed to the on_result subscriber of the running
        # serve(); None while no such serve runs, so no ack is kept
        self._undelivered: collections.deque[AppendAck] | None = None
        # non-ack messages (drain replies) popped by _collect_ready while
        # a concurrent drain() was waiting for them — never discard these
        self._stashed_replies: list[tuple[Any, ...]] = []
        self._flush_errors: list[str] = []
        self._clients: set[str] = set()
        self._closed = False
        self._close_report: CloseReport | None = None
        # while a serve(compile=...) is active, appends also carry the
        # compiled interface (page or structural patch; AppendAck.compiled)
        self._compile_mode: str | None = None
        self._outbox = self._ctx.Queue()
        self._inboxes = [
            self._ctx.Queue(maxsize=queue_depth) for _ in range(pool_size)
        ]
        self._workers = [
            self._ctx.Process(
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
        close sentinel queues behind it — and each worker publishes its
        sessions to the shared store under ``flush_timeout`` seconds
        before exiting; undrained *results* are still discarded, so call
        :meth:`drain` first to keep them.

        Unlike the old fire-and-forget teardown, nothing is swallowed:
        the returned :class:`CloseReport` carries every flush error the
        workers managed to queue (including ones from earlier drains
        that no drain call collected), the clients whose sessions missed
        the flush deadline, and any worker that had to be terminated.  A
        terminated worker now exits by ``SystemExit`` (SIGTERM handler),
        so a held store lock is released by its ``finally`` block rather
        than left to kernel cleanup mid-write.
        """
        import queue as queue_mod

        if self._closed:
            return self._close_report or CloseReport()
        self._closed = True
        awaiting: set[int] = set()
        terminated: list[str] = []
        unflushed: set[str] = set()
        close_errors: list[str] = []
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
                inbox.put((_OP_CLOSE, flush_timeout), timeout=5)
                awaiting.add(worker_id)
            except Exception:  # queue.Full, or a queue already torn down
                self._terminate_worker(worker_id, terminated, unflushed)
        deadline = time.monotonic() + flush_timeout + 5.0
        while awaiting and time.monotonic() < deadline:
            try:
                message = self._outbox.get(timeout=0.2)
            except queue_mod.Empty:
                for worker_id in sorted(awaiting):
                    if not self._workers[worker_id].is_alive():
                        # crashed before answering: its sessions are gone
                        awaiting.discard(worker_id)
                        unflushed.update(self._clients_of(worker_id))
                continue
            if isinstance(message, AppendAck):
                self._record_ack(message)
            elif message[0] == "closed":
                _, worker_id, worker_errors, worker_unflushed = message
                awaiting.discard(worker_id)
                close_errors.extend(worker_errors)
                unflushed.update(worker_unflushed)
            elif message[0] == "drained":
                # a drain reply nobody collected: keep its flush errors
                self._flush_errors.extend(message[4])
        for worker_id in sorted(awaiting):
            self._terminate_worker(worker_id, terminated, unflushed)
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.kill()
                worker.join(timeout=5)
        for queue in (*self._inboxes, self._outbox):
            queue.close()
        self._flush_errors.extend(close_errors)
        self._close_report = CloseReport(
            flush_errors=tuple(close_errors),
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
        self._require_open()
        seq = next(self._seq)
        shard = _shard_of(client_id, self.pool_size)
        self._inboxes[shard].put(
            (_OP_APPEND, seq, client_id, batch, self._compile_mode)
        )
        self._n_submitted += 1
        self._clients.add(client_id)
        return seq

    def pending(self) -> int:
        """Batches submitted but not yet acknowledged (approximate while
        workers are mid-append; exact after :meth:`drain`)."""
        self._collect_ready()
        return self._n_submitted - self._n_completed - self._n_failed

    def _record_ack(self, ack: AppendAck) -> None:
        with self._count_lock:
            if ack.error is None:
                self._n_completed += 1
            else:
                self._n_failed += 1
        if ack.error is not None:
            self._unreported_failures.append(ack)
        if self._undelivered is not None:
            self._undelivered.append(ack)

    def _collect_ready(self) -> None:
        """Drain the outbox of already-available acks without blocking.

        A drain reply popped here (stats()/pending() racing a concurrent
        :meth:`drain`, e.g. a monitor polling while ``serve`` drains in a
        worker thread) is stashed, not dropped — the waiting drain would
        otherwise hang forever on a reply that already left the queue.
        """
        import queue as queue_mod

        while True:
            try:
                message = self._outbox.get_nowait()
            except queue_mod.Empty:
                return
            if isinstance(message, AppendAck):
                self._record_ack(message)
            else:
                self._stashed_replies.append(message)

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def drain(
        self, strict: bool = True, clients: Iterable[str] | None = None
    ) -> dict[str, GenerationResult]:
        """Wait for every submitted batch, then return per-client results.

        Sends a drain sentinel down each shard (FIFO guarantees it runs
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
            clients: restrict *failure* reporting/consumption to these
                client ids; other clients' failures stay pending for
                their owner's drain (the ``generate_many(pool=...)``
                contract on a shared pool).  Results are always the full
                barrier's — every client's latest.

        Returns:
            The latest :class:`GenerationResult` per client, for every
            client that has at least one successful append.

        Raises:
            ServiceError: per ``strict``, or when a worker died.
        """
        import queue as queue_mod

        self._require_open()
        drain_seq = next(self._seq)
        for inbox in self._inboxes:
            inbox.put((_OP_DRAIN, drain_seq))
        results: dict[str, GenerationResult] = {}
        replied = 0
        while replied < self.pool_size:
            if self._stashed_replies:
                message: Any = self._stashed_replies.pop(0)
            else:
                try:
                    message = self._outbox.get(timeout=1.0)
                except queue_mod.Empty:
                    # a dead worker mid-drain would otherwise hang us here
                    self._require_open()
                    continue
            if isinstance(message, AppendAck):
                self._record_ack(message)
                continue
            kind, _worker_id, seq, worker_results, worker_flush_errors = message
            if kind == "drained" and seq == drain_seq:
                replied += 1
                results.update(worker_results)
                self._flush_errors.extend(worker_flush_errors)
            # a reply for an older drain (stashed after its waiter gave
            # up) is obsolete; drop it
        client_filter = set(clients) if clients is not None else None
        reported = [
            ack
            for ack in self._unreported_failures
            if client_filter is None or ack.client_id in client_filter
        ]
        self._unreported_failures = [
            ack for ack in self._unreported_failures if ack not in reported
        ]
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
        """Store-publication failures observed by drains so far.  These
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
        drain barrier.  Every ack for a batch this call submitted is
        delivered before the final drain runs, so a subscriber always
        sees the live updates before the caller sees the drained
        results; the pool keeps an ack only until it is delivered.
        Failed appends are delivered too (``ack.ok`` false,
        ``ack.error`` set) so a subscriber can surface them immediately
        even under ``strict=False``.

        With ``compile="patch"`` (or ``"page"``), each append is also
        compiled *in the worker* and the ack's ``compiled`` field carries
        the structural interface patch (or the full page HTML) — the
        opt-in that turns a serve into interface streaming.  Workers keep
        their sessions' incremental compilers across appends, so the
        steady-state compile cost is the dirty part of the page, and the
        emitted patch stream folds (:func:`repro.compiler.incremental.apply_patch`)
        into pages byte-identical to a full recompile.

        Raises:
            ServiceError: as :meth:`submit` / :meth:`drain`, and for an
                unknown ``compile`` mode.
        """
        if compile not in (None, "page", "patch"):
            raise ServiceError(
                f"compile must be 'page', 'patch', or None, got {compile!r}"
            )
        undelivered: collections.deque[AppendAck] = collections.deque()

        async def _dispatch_new() -> None:
            """Deliver any newly arrived acks, in arrival order."""
            if on_result is None:
                return
            self._collect_ready()
            while undelivered:
                outcome = on_result(undelivered.popleft())
                if inspect.isawaitable(outcome):
                    await outcome

        if on_result is not None:
            # acks recorded before this serve are not its own
            self._undelivered = undelivered
        self._compile_mode = compile
        try:
            if hasattr(stream, "__aiter__"):
                async for client_id, batch in stream:
                    await asyncio.to_thread(self.submit, client_id, batch)
                    await _dispatch_new()
            else:
                for client_id, batch in stream:
                    await asyncio.to_thread(self.submit, client_id, batch)
                    await _dispatch_new()
            if on_result is not None:
                # deliver every outstanding ack *before* the drain barrier
                while self.pending() > 0:
                    await asyncio.to_thread(self._wait_for_message, 0.2)
                    await _dispatch_new()
                    self._require_open()
                await _dispatch_new()
        finally:
            self._undelivered = None
            self._compile_mode = None
        if not drain:
            return {}
        return await asyncio.to_thread(self.drain, strict)

    def _wait_for_message(self, timeout: float) -> None:
        """Block up to ``timeout`` for one outbox message and absorb it
        (acks recorded, drain replies stashed) — the blocking counterpart
        of :meth:`_collect_ready` for streaming waits."""
        import queue as queue_mod

        try:
            message = self._outbox.get(timeout=timeout)
        except queue_mod.Empty:
            return
        if isinstance(message, AppendAck):
            self._record_ack(message)
        else:
            self._stashed_replies.append(message)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Lifetime counters (see :class:`PoolStats`)."""
        self._collect_ready()
        return PoolStats(
            pool_size=self.pool_size,
            queue_depth=self.queue_depth,
            n_submitted=self._n_submitted,
            n_completed=self._n_completed,
            n_failed=self._n_failed,
            n_clients=len(self._clients),
        )

    def unique_client_id(self, prefix: str = "client") -> str:
        """A client id no earlier submit of this pool has used (for
        callers like ``generate_many`` that invent ids per call)."""
        while True:
            candidate = f"{prefix}-{next(self._seq)}"
            if candidate not in self._clients:
                return candidate
