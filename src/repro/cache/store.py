"""Content-addressed on-disk store for mined graphs and widget sets.

A :class:`GraphStore` is a directory of cache entries keyed by
``(log fingerprint, options fingerprint)``.  Each key owns up to two
records — two content-addressed tables over the same key space, listed
once in the :data:`TABLES` registry:

* **graphs** — the mined interaction graph (JSONL payload, see
  :func:`~repro.cache.serialize.graph_to_jsonl_bytes`), skipping the Mine
  stage on a hit;
* **widget_sets** — the mapped-and-merged widget set, skipping Map and
  Merge too.  Widget records are only meaningful next to their graph
  record (they reference its diffs table by index), so
  :meth:`load_widget_set` takes the loaded graph.

These are the two artefacts a later run reads back.  Everything else a
session accelerates with — closure proofs, the Mine stage's alignment
plans, compiled page state — is rebuilt in process.

Each table is one append-only block-compressed segment file
(``graphs.seg``, ``widgets.seg``; see :mod:`repro.cache.blockstore`).  A
save appends one record, a lookup is an mmap + bisect + single-block
decode, eviction appends a tombstone, and ``stats()``/``prune()`` read
the footers.  Every typed load and save goes through one get path and
one put path (:meth:`record_get` / :meth:`record_put`), whichever
transport serves them.  Opening a store that earlier versions wrote
removes the segments of their retired tables (``proofs.seg``,
``diffmemos.seg``, ``compiled.seg``).

A record's payload is the exact content of the one-file-per-record JSON
layout earlier versions wrote (``<key>.graph.jsonl`` plus a
``<key>.widgets.json``).  That layout is no longer served; it survives
as maintenance: :meth:`GraphStore.import_json` folds such files into the
segments in place, and :meth:`GraphStore.export_json` writes a store out
in it, byte for byte.

The key is content-addressed, so there is no explicit invalidation
protocol for correctness: a changed log or changed options simply hashes
to a different entry and misses.  :meth:`GraphStore.invalidate` and
:meth:`GraphStore.clear` exist for space management and for forcing a
re-mine after a code change.

Space management is optional and LRU: construct the store with
``max_bytes`` and/or ``max_entries`` and every save evicts the
least-recently-*used* keys until the caps hold; :meth:`prune` applies
caps on demand and :meth:`stats` reports occupancy.  Eviction is per-key
— a key's graph and widget records leave together, never orphaning a
derived entry.  Recency is a record timestamp: loads batch recency bumps
in memory and the next save (or :meth:`flush_recency`, or :meth:`prune`)
appends them as TOUCH markers, so cross-process recency is exact at
every eviction decision.

Concurrency: the store is the shared backing of every worker process —
``generate_many`` shards, :class:`~repro.service.SessionPool` workers,
concurrent CLI invocations.  All *writes* to the shared segment files
are serialised by the advisory :class:`~repro.cache.lock.StoreLock` on
``<root>/.lock``; because segments are append-only and compaction
replaces them atomically, *loads* stay deliberately lock-free — a reader
racing an eviction simply misses.

Remote mode: constructed with ``remote=<socket path>``, the store
becomes a thin client of a :class:`~repro.service.daemon.StoreDaemon` —
the same public API, but each method of the :data:`OPS` registry
(record get/has/put, keys, stats, prune, invalidate, compact) travels
over a unix-domain socket to the one process that owns the segment
files, through one forwarding path, and the daemon runs the same method
there.  Encoding/decoding stays in this process; the daemon only moves
bytes.  When no daemon answers (never started, crashed), the store
*fails open* to direct in-process access and keeps working; see
:mod:`repro.cache.client` for the transport and failure semantics.
"""

from __future__ import annotations

import functools
import inspect
import os
from pathlib import Path as FilePath
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, TypeVar
from uuid import uuid4

from repro.cache.blockstore import Segment
from repro.cache.client import DaemonUnavailable, QuotaExceeded, StoreClient
from repro.cache.lock import StoreLock
from repro.cache.serialize import (
    GraphEncoder,
    graph_from_jsonl_bytes,
    graph_to_jsonl_bytes,
    widgets_from_json_bytes,
    widgets_to_json_bytes,
)
from repro.errors import CacheError
from repro.graph.build import BuildStats
from repro.graph.interaction import InteractionGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sqlparser.grammar import GrammarAnnotations
    from repro.widgets.base import Widget, WidgetType

__all__ = ["GraphStore", "OPS", "Op", "TABLES", "Table"]

_T = TypeVar("_T")

#: Hex digits of each fingerprint kept in the key.  16 of each
#: (64 bits log + 64 bits options) keeps keys short while making
#: accidental collisions vanishingly unlikely for any realistic store.
_KEY_DIGITS = 16


class Table(NamedTuple):
    """One store table: its name (in ``stats()`` and on the daemon
    wire), its segment file, the file suffix of its legacy JSON layout,
    and the ``stats()`` counter of its live records."""

    name: str
    segment: str
    suffix: str
    counter: str


#: The table registry.  Graphs come first, so a derived record is never
#: written (or imported) before the graph record it belongs to.
TABLES = (
    Table("graphs", "graphs.seg", ".graph.jsonl", "n_graphs"),
    Table("widget_sets", "widgets.seg", ".widgets.json", "n_widget_sets"),
)

#: Segment files and legacy JSON suffixes of the tables earlier versions
#: kept (closure proofs, diff memos, compiled pages).  Nothing reads them:
#: opening a store deletes the segments, and import_json drops the files.
_RETIRED_SEGMENTS = ("proofs.seg", "diffmemos.seg", "compiled.seg")
_RETIRED_SUFFIXES = (".proofs.json", ".diffmemo.json", ".compiled.json")

_BY_NAME = {table.name: table for table in TABLES}

#: Tables a caller may drop wholesale via invalidate_table (never the
#: graphs table — that would orphan every derived record).
_DERIVED_TABLES = tuple(table.name for table in TABLES[1:])


class Op(NamedTuple):
    """One store operation a daemon serves: its name on the wire and the
    :class:`GraphStore` method it runs.

    The method's arguments travel as named header fields (``fields``),
    except its bytes arguments (``parts``), which ride the message's
    payload and extra parts, each flagged ``has_<name>`` in the header.
    The result comes back in the reply field ``reply``; a record (bytes,
    or ``None`` for a miss) rides the reply's payload part instead,
    flagged ``found``.  ``refused`` is what the method answers when the
    daemon refuses the client for quota; the default,
    :class:`~repro.cache.client.QuotaExceeded`, raises it.
    """

    name: str
    method: str
    fields: tuple[str, ...] = ()
    parts: tuple[str, ...] = ()
    reply: str | None = None
    refused: Any = QuotaExceeded

    def call(self, client: StoreClient, arguments: dict[str, Any]) -> Any:
        """Run the method in the daemon behind ``client`` on a call's
        bound arguments, and return its result."""
        fields = {name: arguments[name] for name in self.fields if name in arguments}
        blobs = [arguments.get(name) for name in self.parts] + [None, None]
        for name, blob in zip(self.parts, blobs):
            fields[f"has_{name}"] = blob is not None
        reply, part = client.call(self.name, blobs[0] or b"", blobs[1] or b"", **fields)
        if self.reply is None:
            return part if reply.get("found") else None
        if "daemon" in reply:
            # the stats reply: the daemon's own sub-report joins the store's
            return {**reply[self.reply], "daemon": reply["daemon"]}
        return reply[self.reply]

    def serve(
        self, store: "GraphStore", header: dict[str, Any], payload: bytes, extra: bytes
    ) -> tuple[dict[str, Any], bytes]:
        """Run the method on ``store`` for one request; returns the reply
        header and its payload."""
        arguments = {name: header[name] for name in self.fields if name in header}
        for name, blob in zip(self.parts, (payload, extra)):
            arguments[name] = blob if header.get(f"has_{name}") else None
        result = getattr(store, self.method)(**arguments)
        if self.reply is None:
            return {"ok": True, "found": result is not None}, result or b""
        return {"ok": True, self.reply: result}, b""


#: The operation registry: every store operation a daemon serves.  An
#: attached :class:`GraphStore` forwards each of these methods to its
#: daemon (:func:`_forwarded`), and the daemon runs the same method on
#: the store it owns.  Over quota, reads degrade to misses; a ``put``
#: raises to its callers, which skip the save.
OPS = {
    op.name: op
    for op in (
        Op("get", "record_get", ("table", "key"), refused=None),
        Op("has", "record_has", ("table", "key"), reply="found", refused=False),
        Op("put", "_put", ("table", "key"), ("payload", "graph_payload"), "stored"),
        Op("keys", "keys", reply="keys"),
        Op("stats", "stats", reply="store"),
        Op("prune", "prune", ("max_bytes", "max_entries"), reply="removed"),
        Op("invalidate", "invalidate", ("log_fingerprint", "options_fingerprint"), reply="removed"),
        Op("invalidate_table", "invalidate_table", ("table",), reply="removed"),
        Op("compact", "compact", reply="rewritten"),
    )
}

#: Keys imported per append batch.  Batching keeps a JSON import
#: O(keys) instead of O(keys^2) footer rebuilds, while an interruption
#: loses at most one batch of progress (the source files of a batch are
#: only removed after its records are committed).
_IMPORT_BATCH = 256


def _check_table(name: str) -> None:
    if name not in _BY_NAME:
        raise ValueError(f"unknown table {name!r}")


class GraphStore:
    """Load/save/invalidate cached graphs and their derived records
    under one directory.

    Args:
        root: the cache directory; created (with parents) if missing.
        max_bytes: optional cap on the total on-disk size of the store;
            exceeding saves evict least-recently-used keys.
        max_entries: optional cap on the number of distinct keys.
        remote: unix-domain socket of a running
            :class:`~repro.service.daemon.StoreDaemon`; when set, the
            methods of :data:`OPS` run in the daemon (the caps then
            describe the *fallback* store).  When no daemon answers — at
            construction or later — the store fails open to direct
            access on ``root``.
    """

    def __init__(
        self,
        root: str | FilePath,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        remote: str | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.root = FilePath(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = StoreLock(self.root)
        retired = [self.root / name for name in _RETIRED_SEGMENTS]
        if any(path.exists() for path in retired):
            # their bytes would otherwise count against the prune caps
            with self._lock.held():
                for path in retired:
                    path.unlink(missing_ok=True)
        # opening a Segment touches no file: the remote mode keeps these
        # ready for a fail-open
        self._segments = {
            table.name: Segment(self.root / table.segment, self._lock, table.name)
            for table in TABLES
        }
        #: loads record recency here; the next locked write appends the
        #: batch as TOUCH markers (see flush_recency)
        self._pending_touches: dict[str, set[str]] = {
            table.name: set() for table in TABLES
        }
        self._remote: StoreClient | None = None
        if remote is not None:
            client = StoreClient(remote)
            try:
                client.ping()
                self._remote = client
            except DaemonUnavailable:
                # fail open at construction: no daemon is a degraded
                # deployment, not an error
                client.close()

    def _fail_open(self) -> None:
        """Drop an unreachable daemon and continue with direct access.

        One-way: once a store fell open it stays local for its lifetime
        (flip-flopping between a recovering daemon and direct access
        would interleave two writers' lock domains).  Constructing a new
        ``GraphStore(remote=...)`` re-attaches.
        """
        if self._remote is not None:
            self._remote.close()
            self._remote = None

    @property
    def format(self) -> str:
        """``"packed"``, or ``"remote"`` while attached to a store
        daemon."""
        return "remote" if self._remote is not None else "packed"

    @property
    def remote(self) -> str | None:
        """The daemon socket this store is attached to, or ``None`` when
        operating directly on the local segments (including after a
        fail-open)."""
        return self._remote.socket_path if self._remote is not None else None

    # ------------------------------------------------------------------
    # keys and recency
    # ------------------------------------------------------------------
    @staticmethod
    def key(log_fingerprint: str, options_fingerprint: str) -> str:
        """The store key for a (log, options) pair."""
        return f"{log_fingerprint[:_KEY_DIGITS]}-{options_fingerprint[:_KEY_DIGITS]}"

    def _flush_touches_locked(self) -> None:
        """Append pending recency bumps as TOUCH markers (under lock)."""
        with self._lock.held():
            for table, keys in self._pending_touches.items():
                if keys:
                    self._segments[table].append_touches(sorted(keys))
                    keys.clear()

    def flush_recency(self) -> None:
        """Persist batched load-recency.

        Saves, :meth:`prune`, and the pipeline's cache stage call this
        automatically; long-running read-only consumers may call it so
        their hits count for cross-process LRU.  Through a daemon every
        load already updated the daemon's exact recency, so there is
        nothing to flush.
        """
        if any(self._pending_touches.values()):
            with self._lock.held():
                self._flush_touches_locked()

    # ------------------------------------------------------------------
    # byte-level record surface: the one get path and the one put path
    # ------------------------------------------------------------------
    # The daemon serves these (and the maintenance methods below) as the
    # ops of OPS: records travel as raw payload bytes, so the daemon
    # never encodes or decodes a graph and its lock hold times stay tiny.

    def record_get(self, table: str, key: str) -> bytes | None:
        """Raw payload bytes of one record, or ``None`` on a miss.  A
        hit counts as recency (a TOUCH marker)."""
        _check_table(table)
        payload = self._segments[table].get(key)
        if payload is not None:
            self._pending_touches[table].add(key)
        return payload

    def record_has(self, table: str, key: str) -> bool:
        """True when a live record exists for ``key`` in ``table``."""
        _check_table(table)
        return self._segments[table].reader().has(key)

    def record_put(
        self,
        table: str,
        key: str,
        payload: bytes,
        graph_payload: bytes | None = None,
    ) -> bool:
        """Store one record's raw payload bytes under ``key``.

        Derived tables keep the no-orphan invariant: when the key has no
        live graph record the save is refused (returns ``False``) unless
        ``graph_payload`` is supplied, in which case the graph record is
        written first under the same lock.  A daemon's quota refusal
        also returns ``False``.
        """
        try:
            return self._put(table, key, payload, graph_payload)
        except QuotaExceeded:
            # saves are an optimisation; over quota they are skipped, and
            # the daemon's per-client counters make the denial visible
            return False

    def _put(
        self,
        table: str,
        key: str,
        payload: bytes,
        graph_payload: bytes | None = None,
    ) -> bool:
        """:meth:`record_put`, with a quota refusal raised as
        :class:`~repro.cache.client.QuotaExceeded` so that the typed
        saves can tell it from a missing graph record."""
        _check_table(table)
        with self._lock.held():
            graphs = self._segments["graphs"]
            if table != "graphs" and not graphs.reader().has(key):
                if graph_payload is None:
                    return False
                graphs.append_records([(key, graph_payload, None)])
            self._segments[table].append_records([(key, payload, None)])
            self._flush_touches_locked()
        self._enforce_caps()
        return True

    def _load(
        self,
        table: str,
        log_fingerprint: str,
        options_fingerprint: str,
        decode: Callable[[bytes, str], _T],
    ) -> _T | None:
        """The typed loads' shared path: fetch one record and decode it.
        A miss and a record that fails to decode (foreign version, stale
        library, corruption) both return ``None``: the caller recomputes
        and overwrites, which is always safe because the store is
        content-addressed."""
        key = self.key(log_fingerprint, options_fingerprint)
        payload = self.record_get(table, key)
        if payload is None:
            return None
        try:
            return decode(payload, f"{table}[{key}]")
        except CacheError:
            return None

    def _save(
        self,
        table: str,
        log_fingerprint: str,
        options_fingerprint: str,
        payload: bytes,
        graph: InteractionGraph | None = None,
        stats: BuildStats | None = None,
        encoder: GraphEncoder | None = None,
    ) -> None:
        """The typed saves' shared path.

        A widget record whose key has no live graph record is refused;
        it is then resent together with ``graph`` and its ``stats``,
        encoded (through ``encoder``, when given) only on that refusal,
        so a flush encodes each graph once and the resent graph record
        is the one :meth:`save` writes.  A daemon's quota refusal is not
        retried: saves are an optimisation.
        """
        key = self.key(log_fingerprint, options_fingerprint)
        try:
            if not self._put(table, key, payload) and graph is not None:
                graph_payload = graph_to_jsonl_bytes(graph, stats, encoder=encoder)
                self._put(table, key, payload, graph_payload)
        except QuotaExceeded:
            pass

    # ------------------------------------------------------------------
    # typed tables
    # ------------------------------------------------------------------
    def has(self, log_fingerprint: str, options_fingerprint: str) -> bool:
        """True when a graph entry exists for this key (it may still fail
        to load if written by an incompatible version)."""
        return self.record_has(
            "graphs", self.key(log_fingerprint, options_fingerprint)
        )

    def load(
        self, log_fingerprint: str, options_fingerprint: str
    ) -> tuple[InteractionGraph, BuildStats] | None:
        """Return the cached ``(graph, stats)`` for this key, or ``None``.

        A missing entry, a version mismatch, or a corrupt record all load
        as ``None`` (a miss).  A successful load touches the entry (LRU
        recency for eviction).
        """
        decoded = self._load(
            "graphs", log_fingerprint, options_fingerprint, graph_from_jsonl_bytes
        )
        return None if decoded is None else (decoded[0], decoded[1])

    def save(
        self,
        log_fingerprint: str,
        options_fingerprint: str,
        graph: InteractionGraph,
        stats: BuildStats | None = None,
        encoder: GraphEncoder | None = None,
    ) -> FilePath:
        """Persist a mined graph under this key; returns the segment file
        the entry lands in (``graphs.seg``).

        ``encoder`` is the :class:`~repro.cache.serialize.GraphEncoder`
        that encoded this graph's earlier states (a session's), so only
        what was added since is encoded; the record is the same bytes.
        """
        payload = graph_to_jsonl_bytes(graph, stats, encoder=encoder)
        self._save("graphs", log_fingerprint, options_fingerprint, payload)
        return self.root / _BY_NAME["graphs"].segment

    def load_widget_set(
        self,
        log_fingerprint: str,
        options_fingerprint: str,
        graph: InteractionGraph,
        library: list[WidgetType],
        annotations: GrammarAnnotations,
    ) -> list[Widget] | None:
        """Return the cached widget set for this key decoded against
        ``graph``, or ``None``.

        ``graph`` must be the graph loaded from the *same* key — widget
        records reference its diffs table by index.
        """

        def decode(data: bytes, label: str) -> list[Widget]:
            return widgets_from_json_bytes(data, graph, library, annotations, label)

        return self._load("widget_sets", log_fingerprint, options_fingerprint, decode)

    def save_widget_set(
        self,
        log_fingerprint: str,
        options_fingerprint: str,
        widgets: list[Widget],
        graph: InteractionGraph,
        stats: BuildStats | None = None,
        encoder: GraphEncoder | None = None,
    ) -> FilePath:
        """Persist a mapped widget set under this key; returns the
        segment file the entry lands in.

        If the key's graph entry is gone (a pruner evicted it since the
        caller loaded or saved it), it is re-saved together with the
        widgets under one lock — the caller holds the graph, its
        ``stats`` and its ``encoder`` in hand, so the graph record is
        the one :meth:`save` writes — and a widget record never exists
        without its graph.

        Raises:
            CacheError: when the widgets do not belong to ``graph``.
        """
        payload = widgets_to_json_bytes(widgets, graph)
        self._save(
            "widget_sets", log_fingerprint, options_fingerprint, payload,
            graph, stats, encoder,
        )
        return self.root / _BY_NAME["widget_sets"].segment

    def _retired(self, *args: Any, **kwargs: Any) -> None:
        """Inert: the store keeps no closure proofs, diff memos or
        compiled pages any more, so loads miss and saves write nothing.

        The six names bound to this method are the typed loads and saves
        of those retired tables.  Nothing in the library calls them; they
        remain because ``perfbench/tracing.py`` wraps each by name.
        """
        return None

    load_proof_triples = load_diff_memo_pairs = load_compiled_page = _retired
    save_closure_proofs = save_diff_memo = save_compiled_page = _retired

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """All keys with a live graph entry, sorted."""
        return self._segments["graphs"].reader().keys()

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> dict[str, Any]:
        """Occupancy counters: per-table live record counts, total and
        *per-table* bytes, and caps.

        ``bytes_by_table`` breaks ``total_bytes`` down by table, so
        ``prune`` caps are explainable — you can see which table the
        space went to.  The ``tables`` sub-report adds live vs
        tombstoned record counts, live bytes, and
        ``compaction_debt_bytes`` (bytes a compaction would reclaim) per
        segment — read from the segment footers.

        Lock-free and therefore a *snapshot*: concurrent writers can move
        the numbers between two calls.  Through a daemon, the report is
        the daemon store's own plus a ``daemon`` sub-report with uptime
        and the per-client request/byte meters.
        """
        counts: dict[str, int] = {}
        bytes_by_table: dict[str, int] = {}
        tables: dict[str, dict[str, int]] = {}
        surviving_keys: set[str] = set()
        for table in TABLES:
            reader = self._segments[table.name].reader()
            seg_stats = reader.stats()
            counts[table.counter] = seg_stats.n_live
            bytes_by_table[table.name] = seg_stats.file_bytes
            surviving_keys.update(reader.keys())
            tables[table.name] = {
                "file_bytes": seg_stats.file_bytes,
                "n_live": seg_stats.n_live,
                "n_tombstoned": seg_stats.n_tombstoned,
                "live_bytes": seg_stats.live_bytes,
                "compaction_debt_bytes": seg_stats.dead_bytes,
            }
        return {
            "format": "packed",
            "n_keys": len(surviving_keys),
            **counts,
            "n_files": sum(1 for size in bytes_by_table.values() if size),
            "total_bytes": sum(bytes_by_table.values()),
            "bytes_by_table": bytes_by_table,
            "tables": tables,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }

    def compact(self) -> bool:
        """Rewrite every segment down to its live records, packing them
        into multi-record blocks (one decompression per ~64 records on a
        bulk warm load).  Returns True when any segment was rewritten.

        The store compacts segments on its own when their debt crosses a
        threshold; calling this explicitly is maintenance — reclaim all
        dead bytes now and leave every segment in its densest, fastest
        to-bulk-load layout.
        """
        with self._lock.held():
            self._flush_touches_locked()
            rewritten = False
            for segment in self._segments.values():
                rewritten = segment.compact() or rewritten
            return rewritten

    def prune(
        self, max_bytes: int | None = None, max_entries: int | None = None
    ) -> int:
        """Evict least-recently-used keys until the caps hold.

        Explicit caps override the store's own; with neither configured
        nor given, this is a no-op.  Returns the number of keys removed.
        Through a daemon, the store's own caps are the daemon's, which
        own eviction fleet-wide.

        Runs entirely under the store lock: concurrent pruners from other
        processes serialise instead of interleaving their scans, so a key
        is evicted (and counted) by exactly one of them, and a derived
        save cannot land between the scan and the removal.  Derived
        records whose graph entry is gone (left by a crashed writer
        mid-key) are swept regardless of recency.

        Eviction appends tombstones and compacts the segments,
        re-measuring real file sizes until the caps hold — recency comes
        from record/touch timestamps in the segment footers.  Each round
        either reclaims dead bytes or evicts at least one key, so the
        loop terminates.

        Raises:
            ValueError: for negative caps (use ``clear()`` to empty the
                store deliberately).
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_entries = max_entries if max_entries is not None else self.max_entries
        if max_bytes is None and max_entries is None:
            return 0
        removed = 0
        with self._lock.held():
            self._flush_touches_locked()
            while True:
                readers = {}
                for table, segment in self._segments.items():
                    segment.invalidate_reader()
                    readers[table] = segment.reader()
                indexes = {
                    table: reader.index() for table, reader in readers.items()
                }
                info: dict[str, tuple[float, int, bool]] = {}
                for table, index in indexes.items():
                    for key, entry in index.items():
                        recency, size, has_graph = info.get(key, (0.0, 0, False))
                        info[key] = (
                            max(recency, entry.ts),
                            size + readers[table].entry_cost(entry),
                            has_graph or table == "graphs",
                        )
                actual_total = sum(r.size for r in readers.values())
                n_keys = len(info)
                orphans = any(not has_graph for _, _, has_graph in info.values())
                over_entries = max_entries is not None and n_keys > max_entries
                over_bytes = max_bytes is not None and actual_total > max_bytes
                if not over_entries and not over_bytes and not orphans:
                    break
                total_dead = sum(r.stats().dead_bytes for r in readers.values())
                if over_bytes and total_dead > 0 and not over_entries and not orphans:
                    # over-cap purely from garbage: reclaim before deciding
                    # to evict anything (cannot repeat — debt is 0 after)
                    for segment in self._segments.values():
                        segment.compact()
                    continue
                ranked = sorted(
                    (recency if has_graph else -1.0, size, key)
                    for key, (recency, size, has_graph) in info.items()
                )
                if not ranked:
                    # caps smaller than the empty segments' fixed overhead:
                    # nothing left to evict
                    for segment in self._segments.values():
                        segment.compact()
                    break
                victims: list[str] = []
                sim_keys = n_keys
                sim_total = actual_total
                for recency, size, key in ranked:
                    sim_over_entries = (
                        max_entries is not None and sim_keys > max_entries
                    )
                    sim_over_bytes = max_bytes is not None and sim_total > max_bytes
                    if not sim_over_entries and not sim_over_bytes and recency >= 0:
                        break
                    victims.append(key)
                    sim_keys -= 1
                    sim_total -= size
                for table, segment in self._segments.items():
                    doomed = [key for key in victims if key in indexes[table]]
                    if doomed:
                        segment.append_tombstones(doomed)
                removed += len(victims)
                for segment in self._segments.values():
                    segment.compact()
                if not victims:
                    break
        return removed

    def _enforce_caps(self) -> None:
        """Apply the store's own caps after a save (no-op when uncapped)."""
        if self.max_bytes is not None or self.max_entries is not None:
            self.prune()

    def invalidate(
        self,
        log_fingerprint: str | None = None,
        options_fingerprint: str | None = None,
    ) -> int:
        """Remove keys matching either fingerprint prefix.

        With both arguments, removes the single exact key; with one,
        removes every key sharing that side; with neither, removes
        everything (same as :meth:`clear`).  A key's graph and derived
        records are removed together.  Returns the number of keys
        removed.
        """
        log_part = log_fingerprint[:_KEY_DIGITS] if log_fingerprint else None
        opts_part = (
            options_fingerprint[:_KEY_DIGITS] if options_fingerprint else None
        )

        def matches(key: str) -> bool:
            entry_log, _, entry_opts = key.partition("-")
            if log_part is not None and entry_log != log_part:
                return False
            if opts_part is not None and entry_opts != opts_part:
                return False
            return True

        with self._lock.held():
            doomed_keys: set[str] = set()
            for table, segment in self._segments.items():
                segment.invalidate_reader()
                doomed = [key for key in segment.reader().keys() if matches(key)]
                if doomed:
                    segment.append_tombstones(doomed)
                self._pending_touches[table] -= set(doomed)
                doomed_keys.update(doomed)
            for segment in self._segments.values():
                segment.compact()
            return len(doomed_keys)

    def clear(self) -> int:
        """Remove every key; returns how many were removed."""
        return self.invalidate()

    def invalidate_table(self, table: str) -> int:
        """Drop every record of one *derived* table (widget_sets),
        leaving graphs intact — the targeted version of :meth:`clear`
        for forcing a re-map after a library or rule change.  Returns
        the number of records removed.

        Raises:
            ValueError: for the graphs table (dropping it would orphan
                every derived record — use :meth:`clear`) or an unknown
                table name.
        """
        if table not in _DERIVED_TABLES:
            raise ValueError(
                f"table must be one of {_DERIVED_TABLES}, got {table!r}"
            )
        with self._lock.held():
            segment = self._segments[table]
            segment.invalidate_reader()
            doomed = segment.reader().keys()
            if doomed:
                segment.append_tombstones(doomed)
                segment.compact()
            self._pending_touches[table].clear()
            return len(doomed)

    # ------------------------------------------------------------------
    # the legacy JSON layout: import and export
    # ------------------------------------------------------------------
    def _require_local(self, operation: str) -> None:
        if self._remote is not None:
            raise CacheError(
                f"cannot {operation} a store through a daemon: the layout is "
                "the daemon's to own — stop it and run this in-process"
            )

    def import_json(self) -> dict[str, int]:
        """Fold legacy JSON-layout files in the store directory (one
        ``<key><suffix>`` file per table per key) into the segments;
        returns ``{"imported_keys", "orphans_dropped"}``.

        Each file's bytes become the record's payload unchanged and its
        mtime the record's recency.  Derived files whose key has no
        graph file are dropped, not imported, and count as one orphan
        per key; so does each file of a retired table (closure proofs,
        diff memos, compiled pages), which is deleted.  The import runs
        in batches and is resumable: a batch's source files are removed
        only after its records are committed, so an interrupted run
        loses nothing and a re-run imports what is left.  With no legacy
        files present it is a no-op.

        Raises:
            CacheError: through a daemon.
        """
        self._require_local("import into")
        imported = 0
        orphans = 0
        with self._lock.held():
            for suffix in _RETIRED_SUFFIXES:
                for path in self.root.glob("*" + suffix):
                    path.unlink(missing_ok=True)
                    orphans += 1
            by_key: dict[str, dict[str, FilePath]] = {}
            for table in TABLES:
                for path in self.root.glob("*" + table.suffix):
                    key = path.name[: -len(table.suffix)]
                    by_key.setdefault(key, {})[table.name] = path
            keys = sorted(by_key)
            for start in range(0, len(keys), _IMPORT_BATCH):
                pending: dict[str, list[tuple[str, bytes, float | None]]] = {
                    table.name: [] for table in TABLES
                }
                imported_files: list[FilePath] = []
                for key in keys[start : start + _IMPORT_BATCH]:
                    files = by_key[key]
                    if "graphs" not in files:
                        # derived files without a graph can never hit:
                        # drop them instead of importing an orphan
                        for path in files.values():
                            path.unlink(missing_ok=True)
                        orphans += 1
                        continue
                    for table, path in files.items():
                        try:
                            data = path.read_bytes()
                            ts = path.stat().st_mtime
                        except OSError:
                            continue
                        pending[table].append((key, data, ts))
                    imported_files.extend(files.values())
                    imported += 1
                for table, records in pending.items():
                    if records:
                        self._segments[table].append_records(records)
                # source files go only after their records are committed,
                # so an interruption never loses a key
                for path in imported_files:
                    path.unlink(missing_ok=True)
        return {"imported_keys": imported, "orphans_dropped": orphans}

    def export_json(self, dest: str | FilePath) -> dict[str, int]:
        """Write every live record to ``dest`` in the legacy JSON layout
        (created if missing); returns ``{"exported_keys",
        "orphans_dropped"}``.

        Each file holds the record's payload bytes unchanged and carries
        its recency as mtime, so :meth:`import_json` on ``dest`` rebuilds
        the same records.  Derived records whose key has no graph record
        are not exported.  Files are written atomically, so re-running
        an interrupted export finishes it.  The store itself is not
        modified.

        Raises:
            ValueError: when ``dest`` is the store's own directory.
            CacheError: through a daemon.
        """
        self._require_local("export")
        target = FilePath(dest)
        if target.resolve() == self.root.resolve():
            raise ValueError("export_json needs a directory other than the store's")
        target.mkdir(parents=True, exist_ok=True)
        exported = 0
        orphans = 0
        with self._lock.held():
            self._flush_touches_locked()
            graph_keys = set(self._segments["graphs"].reader().keys())
            for table in TABLES:
                reader = self._segments[table.name].reader()
                for key, entry in reader.index().items():
                    if key not in graph_keys:
                        orphans += 1
                        continue
                    payload = reader.get(key)
                    if payload is None:
                        continue
                    path = target / (key + table.suffix)
                    tmp = path.with_name(
                        f"{path.name}.{os.getpid()}-{uuid4().hex[:8]}.tmp"
                    )
                    try:
                        tmp.write_bytes(payload)
                        os.utime(tmp, (entry.ts, entry.ts))
                        tmp.replace(path)
                    finally:
                        tmp.unlink(missing_ok=True)
                    if table.name == "graphs":
                        exported += 1
        return {"exported_keys": exported, "orphans_dropped": orphans}


def _forwarded(op: Op, local: Callable[..., Any]) -> Callable[..., Any]:
    """The one forwarding path: ``local``, a :class:`GraphStore` method,
    runs in the daemon while the store is attached to one, and in
    process otherwise.

    A :class:`~repro.cache.client.DaemonUnavailable` falls the store
    open (for good) and runs ``local`` instead; a quota refusal answers
    ``op.refused``, or raises.
    """
    signature = inspect.signature(local)

    @functools.wraps(local)
    def method(store: GraphStore, *args: Any, **kwargs: Any) -> Any:
        if store._remote is not None:
            try:
                return op.call(store._remote, signature.bind(store, *args, **kwargs).arguments)
            except DaemonUnavailable:
                store._fail_open()
            except QuotaExceeded:
                if op.refused is QuotaExceeded:
                    raise
                return op.refused
        return local(store, *args, **kwargs)

    return method


for _op in OPS.values():
    setattr(GraphStore, _op.method, _forwarded(_op, getattr(GraphStore, _op.method)))
