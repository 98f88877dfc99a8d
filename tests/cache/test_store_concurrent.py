"""Multi-process GraphStore integrity under interleaved save/load/prune.

Marked ``stress``: excluded from the default (tier-1) run by the
``-m "not stress"`` addopts and executed by CI's dedicated stress job
(``pytest -m stress``).

Several worker processes hammer one store directory with a tight
``max_bytes`` cap, so LRU eviction runs constantly while other workers
are saving and loading the very same keys.  The invariants:

* no corrupt entries — every record still live at the end decodes, and
  every mid-run load either hits (a valid graph) or misses (``None``),
  never raises;
* no orphans — every derived record's key has a live graph record
  (eviction tombstones a key in every table as one unit, and the
  lock-guarded derived saves refuse to recreate them);
* consistent ``stats()`` — every snapshot a concurrent observer takes is
  internally coherent (no negative counters, per-table bytes add up).
"""

import multiprocessing as mp
import os
import random
import sys

import pytest

from repro import parse_sql
from repro.cache.fingerprint import log_fingerprint, options_fingerprint
from repro.cache.store import TABLES, GraphStore
from repro.core.closure import ClosureCache, expresses
from repro.core.options import PipelineOptions
from repro.graph.build import BuildStats, build_interaction_graph
from repro.treediff.memo import DiffMemo
from tests.helpers import map_diffs

pytestmark = [
    pytest.mark.stress,
    pytest.mark.skipif(
        not hasattr(os, "fork"), reason="fork-based stress harness"
    ),
]

N_PROCESSES = 4
N_OPS = 150
N_KEYS = 6
#: tight enough that only ~2-3 of the 6 keys fit -> constant eviction
MAX_BYTES = 9_000


def _payloads():
    """Mine the shared key set: every worker derives the same (log,
    options) keys, so all processes contend on the same entries."""
    options = PipelineOptions()
    payloads = []
    for key_index in range(N_KEYS):
        statements = [
            f"SELECT a FROM t{key_index} WHERE x = {value}"
            for value in (1, 2, 5, 9)
        ]
        queries = [parse_sql(s) for s in statements]
        stats = BuildStats()
        memo = DiffMemo()
        graph = build_interaction_graph(queries, window=2, stats=stats, memo=memo)
        widgets = map_diffs(graph.diffs, options)
        cache = ClosureCache()
        expresses(widgets, queries[0], queries[1], cache=cache)
        payloads.append(
            {
                "log_fp": log_fingerprint(queries),
                "opts_fp": options_fingerprint(options),
                "graph": graph,
                "stats": stats,
                "widgets": widgets,
                "proofs": cache,
                "diffmemo": memo,
            }
        )
    return payloads


def _hammer(
    root: str,
    seed: int,
    failures: "mp.Queue",
    remote: str | None = None,
) -> None:
    """One worker: N_OPS random interleaved store operations."""
    rng = random.Random(seed)
    try:
        store = GraphStore(root, max_bytes=MAX_BYTES, remote=remote)
        if remote is not None and store.remote is None:
            failures.put(f"worker {seed}: never attached to the daemon")
            return
        payloads = _payloads()
        options = PipelineOptions()
        for _ in range(N_OPS):
            payload = rng.choice(payloads)
            op = rng.choice(
                [
                    "save",
                    "save",
                    "widgets",
                    "proofs",
                    "diffmemo",
                    "load",
                    "load_widgets",
                    "load_diffmemo",
                    "prune",
                ]
            )
            if op == "save":
                store.save(
                    payload["log_fp"], payload["opts_fp"],
                    payload["graph"], payload["stats"],
                )
            elif op == "widgets":
                store.save_widget_set(
                    payload["log_fp"], payload["opts_fp"],
                    payload["widgets"], payload["graph"],
                )
            elif op == "proofs":
                store.save_closure_proofs(
                    payload["log_fp"], payload["opts_fp"],
                    payload["proofs"], payload["widgets"],
                )
            elif op == "diffmemo":
                store.save_diff_memo(
                    payload["log_fp"], payload["opts_fp"], payload["diffmemo"]
                )
            elif op == "load_diffmemo":
                pairs = store.load_diff_memo_pairs(
                    payload["log_fp"], payload["opts_fp"]
                )
                if pairs is not None:
                    assert len(pairs) == payload["diffmemo"].n_plans
            elif op == "load":
                loaded = store.load(payload["log_fp"], payload["opts_fp"])
                if loaded is not None:
                    graph, _stats = loaded
                    assert len(graph.queries) == len(payload["graph"].queries)
            elif op == "load_widgets":
                loaded = store.load(payload["log_fp"], payload["opts_fp"])
                if loaded is not None:
                    graph, _stats = loaded
                    widgets = store.load_widget_set(
                        payload["log_fp"], payload["opts_fp"],
                        graph, options.library, options.annotations,
                    )
                    if widgets is not None:
                        assert len(widgets) == len(payload["widgets"])
            else:
                store.prune()
    except BaseException as exc:  # noqa: BLE001 - report, don't hang join
        failures.put(f"worker {seed}: {type(exc).__name__}: {exc}")


def _assert_stats_consistent(stats: dict) -> None:
    assert stats["n_keys"] >= 0
    assert stats["n_files"] >= 0
    assert stats["total_bytes"] >= 0
    # one file per table: per-table accounting must be coherent
    assert stats["n_files"] <= len(TABLES)
    for table, entry in stats["tables"].items():
        assert entry["n_live"] >= 0, table
        assert entry["n_tombstoned"] >= 0, table
        assert entry["live_bytes"] >= 0, table
        assert entry["compaction_debt_bytes"] >= 0, table
        assert entry["file_bytes"] == stats["bytes_by_table"][table]
        assert (
            entry["live_bytes"] + entry["compaction_debt_bytes"]
            <= entry["file_bytes"] or entry["file_bytes"] == 0
        ), table
    if stats["n_files"] == 0:
        assert stats["total_bytes"] == 0


def _assert_no_orphans(store: GraphStore, options: PipelineOptions) -> None:
    """Every live record in every segment decodes, and derived keys are a
    subset of the graph keys."""
    from repro.cache.blockstore import SegmentReader
    from repro.cache.serialize import graph_from_jsonl_bytes

    graphs = SegmentReader(store.root / "graphs.seg")
    graph_keys = set(graphs.keys())
    decoded = {}
    for key in graph_keys:
        payload = graphs.get(key)
        assert payload is not None, f"live graph record {key} unreadable"
        graph, _stats, _extra = graph_from_jsonl_bytes(payload)
        assert graph.queries
        decoded[key] = graph
    for table in TABLES[1:]:
        reader = SegmentReader(store.root / table.segment)
        for key in reader.keys():
            assert key in graph_keys, f"orphaned {table.name} record {key}"
            assert reader.get(key) is not None, f"{table.segment}[{key}] unreadable"


def test_concurrent_save_load_prune_leaves_a_coherent_store(tmp_path):
    root = tmp_path / "store"
    ctx = mp.get_context("fork")
    failures: mp.Queue = ctx.Queue()
    processes = [
        ctx.Process(target=_hammer, args=(str(root), seed, failures))
        for seed in range(N_PROCESSES)
    ]
    for process in processes:
        process.start()

    # concurrent observer: every stats() snapshot must be coherent while
    # the workers are mid-flight
    observer = GraphStore(root)
    while any(p.is_alive() for p in processes):
        _assert_stats_consistent(observer.stats())
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0

    reported = []
    while not failures.empty():
        reported.append(failures.get())
    assert not reported, reported

    store = GraphStore(root)

    # 1 + 2. no corrupt entries, no orphaned derived records
    _assert_no_orphans(store, PipelineOptions())

    # 3. final occupancy is coherent, and one more prune enforces the cap
    final = store.stats()
    _assert_stats_consistent(final)
    store.prune(max_bytes=MAX_BYTES)
    assert store.stats()["total_bytes"] <= MAX_BYTES


def test_concurrent_pruners_never_break_caps_or_orphan(tmp_path):
    """All processes prune aggressively while two keep saving: the lock
    serialises the scans, so caps hold and keys evict atomically."""
    root = tmp_path / "store"
    store = GraphStore(root)
    payloads = _payloads()
    for payload in payloads:
        store.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
        store.save_widget_set(
            payload["log_fp"], payload["opts_fp"],
            payload["widgets"], payload["graph"],
        )
        store.save_diff_memo(
            payload["log_fp"], payload["opts_fp"], payload["diffmemo"]
        )

    def prune_hard(seed: int, failures: "mp.Queue") -> None:
        try:
            local = GraphStore(str(root))
            rng = random.Random(seed)
            for _ in range(30):
                local.prune(max_entries=rng.choice([1, 2, 3]))
        except BaseException as exc:  # noqa: BLE001
            failures.put(f"pruner {seed}: {exc}")

    ctx = mp.get_context("fork")
    failures: mp.Queue = ctx.Queue()
    pruners = [
        ctx.Process(target=prune_hard, args=(seed, failures)) for seed in range(3)
    ]
    savers = [
        ctx.Process(target=_hammer, args=(str(root), 100 + seed, failures))
        for seed in range(2)
    ]
    for process in pruners + savers:
        process.start()
    for process in pruners + savers:
        process.join(timeout=120)
        assert process.exitcode == 0
    reported = []
    while not failures.empty():
        reported.append(failures.get())
    assert not reported, reported

    _assert_no_orphans(store, PipelineOptions())
    assert store.prune(max_entries=1) >= 0
    assert store.stats()["n_keys"] <= 1


def test_concurrent_rpc_save_load_prune_through_a_daemon(tmp_path):
    """The same interleaved matrix, but every worker goes through the
    store daemon: prune-vs-save races serialise on the daemon's ops
    lock instead of the flock, and the shared LRU stays exact."""
    import shutil
    import tempfile

    from repro.service import running_daemon

    root = tmp_path / "store"
    sock_dir = tempfile.mkdtemp(prefix="repro-sock-", dir="/tmp")
    sock = f"{sock_dir}/d.sock"
    ctx = mp.get_context("fork")
    failures: mp.Queue = ctx.Queue()
    try:
        with running_daemon(root, sock, max_bytes=MAX_BYTES) as daemon:
            processes = [
                ctx.Process(
                    target=_hammer_remote, args=(str(root), seed, failures, sock)
                )
                for seed in range(N_PROCESSES)
            ]
            for process in processes:
                process.start()
            for process in processes:
                process.join(timeout=120)
                assert process.exitcode == 0
            meters = daemon.daemon_stats()["clients"]
            # every worker really spoke RPC (constructor ping + traffic)
            assert len(meters) >= N_PROCESSES
            assert sum(m["requests"] for m in meters.values()) >= N_PROCESSES
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)

    reported = []
    while not failures.empty():
        reported.append(failures.get())
    assert not reported, reported

    store = GraphStore(root)
    assert store.format == "packed"
    _assert_no_orphans(store, PipelineOptions())
    final = store.stats()
    _assert_stats_consistent(final)
    store.prune(max_bytes=MAX_BYTES)
    assert store.stats()["total_bytes"] <= MAX_BYTES


def _hammer_remote(root: str, seed: int, failures: "mp.Queue", sock: str) -> None:
    """A _hammer worker that must stay attached to the daemon end to end
    (a mid-run fail-open would silently bypass the RPC path under test)."""
    _hammer(root, seed, failures, remote=sock)
    try:
        probe = GraphStore(root, remote=sock)
        if probe.remote is None:
            failures.put(f"worker {seed}: daemon unreachable after the run")
    except BaseException as exc:  # noqa: BLE001 - report, don't hang join
        failures.put(f"worker {seed}: post-run probe: {exc}")
