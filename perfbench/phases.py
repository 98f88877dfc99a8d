"""The benchmark's three phases, each driven through the public API.

* ``batch``: one-shot ``generate()`` over an interleaved SDSS log.
* ``store``: distinct mixed logs, each generated once cold with
  ``cache_dir`` (mine and persist), then three times warm (full hits).
* ``serve``: live serving, one batch in flight (a closed loop): each batch
  goes through its own ``SessionPool.serve(..., compile=mode,
  on_result=...)`` call on a one-worker pool whose store sits behind a
  ``python -m repro daemon`` process; the benchmark drains every 40 appends.

Each phase synthesises its inputs from the seed, starts from an empty
store, times its operations, and checks its outputs outside the timed
regions; a failed check is a failed operation in the run's ledger.  Every
operation is preceded by a host-speed probe, whose index is kept with
the operation's time as a ``(seconds, probe)`` sample.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from measure import HostSpeed, Ledger, median, peak_rss_mb, percentile, widget_digest
from tracing import StageObserver, Tracer, install

from repro import InterfaceSession, PipelineOptions, SessionPool, generate
from repro.cache import GraphStore
from repro.cache.client import DaemonUnavailable, StoreClient
from repro.compiler.html import compile_html
from repro.compiler.incremental import apply_patch, page_html
from repro.errors import ReproError
from repro.logs import SDSSLogGenerator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Client id of the benchmark's own daemon connections; every other
#: meter on the daemon belongs to the pool worker.
BENCH_CLIENT = "perfbench"
DEFAULT_SEED = 0
#: Full-hit generates per log in the store phase, after its cold one.
WARM_RUNS = 3


@dataclass(frozen=True)
class BatchSize:
    queries: int
    min_runs: int

    @property
    def key(self) -> str:
        return f"batch/{self.queries}"


@dataclass(frozen=True)
class ServeSize:
    clients: int
    queries: int
    batch: int
    drain_every: int = 40

    @property
    def key(self) -> str:
        return f"serve/{self.clients}x{self.queries}/b{self.batch}"


@dataclass(frozen=True)
class StoreSize:
    logs: int
    queries: int

    @property
    def key(self) -> str:
        return f"store/{self.logs}x{self.queries}"


def _maybe(tracer: Tracer | None, kind: str, traced: bool) -> Any:
    return tracer.op(kind, traced) if tracer is not None else contextlib.nullcontext()


def _mark(tracer: Tracer | None, mark: int | slice) -> None:
    if tracer is not None:
        tracer.mark(mark)


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
class BatchPhase:
    def __init__(self, size: BatchSize, seed: int, answers: dict[str, str], plants: frozenset[str] = frozenset()) -> None:
        self.size = size
        self.seed = seed
        self.answers = answers
        self.plants = plants
        self.samples: list[tuple[float, int | slice]] = []
        self.digests: list[str] = []
        self.statements: list[str] = []

    def synth(self, seed: int) -> list[str]:
        return SDSSLogGenerator(seed).full_log(self.size.queries).statements()

    def _digest(self, result: Any) -> str:
        if "drop_widget" in self.plants:
            result.interface.widgets.pop()
        return widget_digest(result)

    def run(self, budget: float, speed: HostSpeed, ledger: Ledger, tracer: Tracer | None = None) -> None:
        """As many ``generate()`` runs as fit in ``budget`` seconds, never
        fewer than ``min_runs``, each probed while it runs.  A run's time
        includes dropping its result and collecting the result's reference
        cycles, a cost every caller pays; only the widget digest taken
        between the two is untimed."""
        observers = [StageObserver(tracer)] if tracer is not None else []
        total = self.size.min_runs
        while len(self.samples) < total:
            traced = tracer is not None and len(self.samples) % 2 == 0
            with _maybe(tracer, "generate", traced), speed.during() as probed:
                t0 = perf_counter()
                result = generate(self.statements, observers=observers)
                elapsed = perf_counter() - t0
            self.digests.append(self._digest(result))
            with speed.during() as teardown:
                t0 = perf_counter()
                del result
                gc.collect()
                elapsed += perf_counter() - t0
            elapsed -= probed["probing_s"] + teardown["probing_s"]
            self.samples.append((elapsed, probed["mark"]))
            _mark(tracer, probed["mark"])
            if len(self.samples) == 1:
                total = max(self.size.min_runs, round(budget / elapsed))
        speed.probe()
        ledger.ops(len(self.samples))

    def check(self, ledger: Ledger) -> None:
        ledger.check(
            len(set(self.digests)) == 1,
            f"batch: {len(set(self.digests))} different widget sets from one log",
        )
        answer = self.answers.get(str(self.seed))
        observed = self.digests[0]
        if answer is None:
            # no answer recorded for this seed: check the default seed's
            observed = self._digest(generate(self.synth(DEFAULT_SEED)))
            answer = self.answers[str(DEFAULT_SEED)]
        ledger.check(
            observed == answer,
            f"batch: widget summary {observed} differs from known answer {answer}",
        )


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
class StorePhase:
    def __init__(self, size: StoreSize, plants: frozenset[str] = frozenset()) -> None:
        self.size = size
        self.plants = plants
        self.logs: list[list[str]] = []
        self.cold: list[tuple[float, int]] = []
        self.warm: list[tuple[float, int]] = []
        self.bytes_by_table: dict[str, int] = {}
        self.total_bytes = 0

    def synth(self, seed: int) -> list[list[str]]:
        return [
            SDSSLogGenerator(seed + index).full_log(self.size.queries, n_clients=8).statements()
            for index in range(self.size.logs)
        ]

    @property
    def queries_persisted(self) -> int:
        return sum(len(log) for log in self.logs)

    def run(self, workdir: Path, speed: HostSpeed, ledger: Ledger, tracer: Tracer | None = None) -> None:
        """Each log generated cold, then ``WARM_RUNS`` times warm."""
        root = workdir / "store"
        shutil.rmtree(root, ignore_errors=True)
        options = PipelineOptions(cache_dir=str(root))
        observers = [StageObserver(tracer)] if tracer is not None else []
        uninstall = install(tracer) if tracer is not None else None
        try:
            for index, log in enumerate(self.logs):
                traced = tracer is not None and index % 2 == 0
                mark = speed.probe()
                with _maybe(tracer, "cold", traced):
                    t0 = perf_counter()
                    cold = generate(log, options=options, observers=observers)
                    self.cold.append((perf_counter() - t0, mark))
                _mark(tracer, mark)
                expected = widget_digest(cold)
                del cold
                if "corrupt_warm" in self.plants and index == 0:
                    (root / "widgets.seg").write_bytes(b"\x00corrupt record\x00" * 8)
                for _ in range(WARM_RUNS):
                    mark = speed.probe()
                    with _maybe(tracer, "warm", traced):
                        t0 = perf_counter()
                        warm = generate(log, options=options, observers=observers)
                        self.warm.append((perf_counter() - t0, mark))
                    _mark(tracer, mark)
                    self._check_warm(ledger, index, warm, expected)
                    del warm
        finally:
            if uninstall is not None:
                uninstall()
        speed.probe()
        stats = GraphStore(root).stats()
        self.bytes_by_table = dict(stats["bytes_by_table"])
        self.total_bytes = int(stats["total_bytes"])
        ledger.ops(len(self.cold) + len(self.warm))

    @staticmethod
    def _check_warm(ledger: Ledger, index: int, warm: Any, expected: str) -> None:
        run = warm.run
        full_hit = bool(run.stage("cache").stats.get("widgets_hit")) and all(
            run.stage(name).stats.get("skipped") for name in ("mine", "map", "merge")
        )
        ledger.check(full_hit, f"store: warm run of log {index} was not a full hit")
        ledger.check(
            widget_digest(warm) == expected,
            f"store: warm run of log {index} returned another widget set",
        )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def start_daemon(store_dir: Path, socket_path: str, log_path: Path) -> subprocess.Popen[bytes]:
    """Start ``python -m repro daemon`` and wait until it answers a ping."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "daemon", "--cache-dir", str(store_dir), "--socket", socket_path],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    client = StoreClient(socket_path, client_id=BENCH_CLIENT)
    deadline = time.monotonic() + 60.0
    try:
        while True:
            if proc.poll() is not None:
                raise RuntimeError(f"store daemon exited with {proc.returncode}; see {log_path}")
            try:
                client.ping()
                return proc
            except DaemonUnavailable:
                if time.monotonic() > deadline:
                    stop_daemon(proc, socket_path)
                    raise RuntimeError("store daemon did not answer within 60 s") from None
                time.sleep(0.005)
    finally:
        client.close()


def stop_daemon(proc: subprocess.Popen[bytes], socket_path: str) -> None:
    """Ask the daemon to shut down, then make sure it has exited."""
    client = StoreClient(socket_path, client_id=BENCH_CLIENT, timeout=5.0)
    with contextlib.suppress(ReproError, OSError):
        client.call("shutdown")
    client.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def daemon_stats(socket_path: str) -> dict[str, Any]:
    client = StoreClient(socket_path, client_id=BENCH_CLIENT)
    try:
        header, _payload = client.call("stats")
    finally:
        client.close()
    return header


def worker_meter(stats: dict[str, Any]) -> dict[str, int]:
    """The pool worker's request/byte meters (every client but ours)."""
    total = {"requests": 0, "bytes": 0}
    for client, meter in stats["daemon"]["clients"].items():
        if client != BENCH_CLIENT:
            total["requests"] += meter["requests"]
            total["bytes"] += meter["bytes_in"] + meter["bytes_out"]
    return total


class ServePhase:
    def __init__(self, size: ServeSize, mode: str, plants: frozenset[str] = frozenset()) -> None:
        self.size = size
        #: ``compile=`` of every serve call: ``"patch"`` acks carry
        #: structural patches, ``"page"`` acks the whole page's HTML
        self.mode = mode
        self.plants = plants
        self.logs: dict[str, list[str]] = {}
        self.arrivals: list[tuple[str, list[str]]] = []
        self.pool: SessionPool | None = None
        self.daemon: subprocess.Popen[bytes] | None = None
        self.socket = ""
        self.latencies: list[tuple[float, int]] = []
        self.calls: list[tuple[float, int]] = []
        self.drains: list[tuple[float, int]] = []
        self.acks: list[Any] = []
        self.rss_mb = 0.0
        self.total_bytes = 0
        self.bytes_by_table: dict[str, int] = {}
        self.meter = {"requests": 0, "bytes": 0}
        self.drained: dict[str, Any] = {}

    def synth(self, seed: int) -> dict[str, list[str]]:
        logs = SDSSLogGenerator(seed).clients(self.size.clients, self.size.queries)
        return {client: log.statements() for client, log in logs.items()}

    def set_inputs(self, logs: dict[str, list[str]]) -> None:
        """Round-robin arrivals of ``size.batch`` queries, except that a
        client's first batch runs up to its second distinct query: an
        interface needs an interaction before there is a widget to
        compile (some profiles open by repeating a query)."""
        self.logs = logs
        step = self.size.batch
        chunks = {}
        for client, log in logs.items():
            first = _second_distinct(log)
            chunks[client] = [log[:first]] + [
                log[i : i + step] for i in range(first, len(log), step)
            ]
        rounds = max(len(c) for c in chunks.values())
        self.arrivals = [
            (client, chunks[client][r])
            for r in range(rounds)
            for client in logs
            if r < len(chunks[client])
        ]

    @property
    def queries_persisted(self) -> int:
        return sum(len(log) for log in self.logs.values())

    def start(self, workdir: Path) -> None:
        """Set-up: the daemon answering and the pool's worker serving."""
        base = workdir / "serve"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        self.socket = os.path.relpath(base / "daemon.sock", ROOT)
        self.daemon = start_daemon(base / "store", self.socket, base / "daemon.log")
        options = PipelineOptions(cache_dir=str(base / "fallback"), daemon_socket=self.socket)
        self.pool = SessionPool(options=options, pool_size=1)
        self.pool.drain()

    def stop(self, ledger: Ledger | None = None) -> None:
        if self.pool is not None:
            report = self.pool.close()
            if ledger is not None:
                ledger.check(report.clean, f"serve: pool did not close cleanly: {report}")
            self.pool = None
        if self.daemon is not None:
            stop_daemon(self.daemon, self.socket)
            self.daemon = None

    def run(self, speed: HostSpeed, ledger: Ledger) -> None:
        """The closed loop: every arrival in turn, and a drain after every
        ``drain_every`` appends and after the last; leaves the last
        drain's results in ``drained``."""
        pool = self.pool
        assert pool is not None
        every = self.size.drain_every
        loop = asyncio.new_event_loop()
        try:
            for index, (client, batch) in enumerate(self.arrivals):
                loop.run_until_complete(self._append(pool, speed, ledger, index, client, batch))
                if (index + 1) % every == 0 or index + 1 == len(self.arrivals):
                    self._drain(pool, speed, ledger)
        finally:
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()
        speed.probe()
        ledger.ops(len(self.arrivals) + len(self.drains))
        stats = daemon_stats(self.socket)
        self.total_bytes = int(stats["store"]["total_bytes"])
        self.bytes_by_table = dict(stats["store"]["bytes_by_table"])
        self.meter = worker_meter(stats)
        self.rss_mb = peak_rss_mb(stats["daemon"]["pid"]) + sum(
            peak_rss_mb(child.pid) for child in multiprocessing.active_children()
        )

    async def _append(
        self, pool: SessionPool, speed: HostSpeed, ledger: Ledger, index: int, client: str, batch: list[str]
    ) -> None:
        box: list[tuple[float, Any]] = []
        mark = speed.probe()
        t0 = perf_counter()
        await pool.serve(
            [(client, batch)],
            compile=self.mode,
            on_result=lambda ack: box.append((perf_counter(), ack)),
            drain=False,
        )
        self.calls.append((perf_counter() - t0, mark))
        if ledger.check(len(box) == 1, f"serve: {len(box)} acks for batch #{index}"):
            self.latencies.append((box[0][0] - t0, mark))
            self.acks.append(box[0][1])

    def _drain(self, pool: SessionPool, speed: HostSpeed, ledger: Ledger) -> None:
        """One ``drain()``, probed while it runs: this thread only waits
        for it, and one probe per ``INTERVAL_S`` takes ~1% of the CPU the
        worker and the daemon flush on (taken out of the drain's time)."""
        before = worker_meter(daemon_stats(self.socket))["requests"]
        with speed.during() as probed:
            t0 = perf_counter()
            self.drained = pool.drain(False)
            elapsed = perf_counter() - t0
        self.drains.append((elapsed - probed["probing_s"], probed["mark"]))
        after = worker_meter(daemon_stats(self.socket))["requests"]
        ledger.check(
            after > before,
            f"serve: drain #{len(self.drains)} sent no requests to the daemon",
        )

    def check(self, ledger: Ledger) -> None:
        """Every ack ok and compiled; each client's page (its patch stream
        folded, or its last page ack) equals ``compile_html`` of its
        drained interface, whose widgets equal one-shot ``generate``."""
        drained = self.drained
        pages: dict[str, Any] = {client: None for client in self.logs}
        dropped = False
        for ack in self.acks:
            client = ack.client_id
            if not ledger.check(ack.ok, f"serve: append #{ack.seq} of {client} failed: {ack.error}"):
                continue
            patch = ack.compiled or {"kind": "error", "error": "no compiled patch"}
            if not ledger.check(
                patch.get("kind") != "error",
                f"serve: compile of append #{ack.seq} failed: {patch.get('error')}",
            ):
                continue
            if "drop_patch" in self.plants and not dropped and pages[client] is not None:
                dropped = True
                continue
            if self.mode == "page":
                pages[client] = patch["html"]
                continue
            try:
                pages[client] = apply_patch(pages[client], patch)
            except ReproError as exc:
                ledger.check(False, f"serve: patch #{ack.seq} of {client} does not fold: {exc}")
        for client, log in self.logs.items():
            result = drained.get(client)
            if not ledger.check(result is not None, f"serve: {client} missing from the drain"):
                continue
            page = pages[client]
            html = page if self.mode == "page" or page is None else page_html(page)
            ledger.check(
                html == compile_html(result.interface),
                f"serve: {self.mode} acks of {client} do not fold to compile_html",
            )
            ledger.check(
                result.interface.widget_summary() == generate(log).interface.widget_summary(),
                f"serve: drained interface of {client} differs from one-shot generate",
            )

    def service_metrics(self) -> dict[str, float]:
        """The ``service.*`` per-layer metrics, from the pool run itself."""
        latencies = [seconds for seconds, _mark in self.latencies]
        ipc = [lat - ack.seconds for lat, ack in zip(latencies, self.acks)]
        n = len(self.acks)
        return {
            "service.ipc_ms_p50": median(ipc) * 1000.0,
            "service.ipc_ms_p99": percentile(ipc, 99.0) * 1000.0,
            "service.worker_ms_p50": median(ack.seconds for ack in self.acks) * 1000.0,
            "service.ack_bytes": median(len(pickle.dumps(ack)) for ack in self.acks),
            "service.rpc_requests": self.meter["requests"] / n,
            "service.rpc_bytes": self.meter["bytes"] / n,
        }

    def replay(self, workdir: Path, speed: HostSpeed, tracer: Tracer) -> dict[str, Any]:
        """The worker-side split: the same arrivals through in-process
        sessions with the same options and compile mode, against a fresh
        daemon.  Rounds of arrivals alternate between traced and
        untraced."""
        base = workdir / "replay"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        socket_path = os.path.relpath(base / "daemon.sock", ROOT)
        daemon = start_daemon(base / "store", socket_path, base / "daemon.log")
        options = PipelineOptions(cache_dir=str(base / "fallback"), daemon_socket=socket_path)
        observer = StageObserver(tracer)
        sessions = {client: InterfaceSession(options, observers=[observer]) for client in self.logs}
        uninstall = install(tracer)
        # the replay stands in for the pool worker, whose heap does not
        # hold the acks this process kept: keep them out of its collections
        gc.collect()
        gc.freeze()
        try:
            for index, (client, batch) in enumerate(self.arrivals):
                traced = (index // len(self.logs)) % 2 == 0
                session = sessions[client]
                mark = speed.probe()
                with tracer.op("append", traced):
                    session.append_batch(batch)
                    if self.mode == "page":
                        patch = {"kind": "page_html", "html": session.compile()}
                    else:
                        patch = session.compile_patch()
                tracer.mark(mark)
                _count_patch(tracer, patch)
                if (index + 1) % self.size.drain_every == 0 or index + 1 == len(self.arrivals):
                    with tracer.op("drain", True), speed.during() as probed:
                        for other in sessions.values():
                            if other.result is not None:
                                other.flush_to_store()
                    tracer.mark(probed["mark"])
        finally:
            gc.unfreeze()
            uninstall()
            stop_daemon(daemon, socket_path)
        return {client: session.result for client, session in sessions.items()}


def _second_distinct(log: list[str]) -> int:
    """Length of the shortest prefix holding two distinct statements."""
    for index, sql in enumerate(log):
        if sql != log[0]:
            return max(2, index + 1)
    return len(log)


def _count_patch(tracer: Tracer, patch: dict[str, Any]) -> None:
    """Count what one ack ships: a patch's blocks and closure delta, or a
    whole page (its blocks and closure come from the compiled page)."""
    if patch["kind"] == "page_html":
        page = tracer.last_page
        tracer.count("blocks", len(page.blocks))
        tracer.count("closure_set", len(page.closure))
    elif patch["kind"] == "page":
        tracer.count("blocks", len(patch["page"]["blocks"]))
        tracer.count("closure_set", len(patch["page"]["closure"]))
    else:
        tracer.count("blocks", len(patch["blocks"]))
        tracer.count("closure_set", len(patch["closure_set"]))
        tracer.count("closure_del", len(patch["closure_del"]))
    tracer.count("patch_bytes", len(json.dumps(patch, sort_keys=True)))


@contextlib.contextmanager
def workdir_at(path: Path) -> Iterator[Path]:
    """A fresh work directory inside the checkout, removed afterwards."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
