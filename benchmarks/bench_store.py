"""Packed block-compressed store vs a per-key JSON file layout.

Not a paper figure — this benchmarks the storage layer the
:class:`~repro.cache.store.GraphStore` segments rest on against the
one-file-per-record layout earlier versions served (and
``GraphStore.export_json`` still writes), at the byte level both share
(one serialised mined graph per key).  The per-key layout is a small
reference kept in this file: files named ``<key><table suffix>``, and
an LRU prune that finds every table's files, stats each, ranks by mtime
and unlinks the oldest keys.

* **populate** — N single-key saves.  JSON writes one file per key; the
  packed segment appends one RECORD frame per save (the L0 path).
* **compact** — one :meth:`GraphStore.compact` pass re-packs the append
  tail into BLOCK frames (~64 records per zlib stream), the steady-state
  layout maintenance produces on its own over time.
* **cold / warm load** — a full byte sweep of every key.  JSON is
  ``iterdir()`` + ``read_bytes()`` per file; packed is one
  :meth:`SegmentReader.items` pass over the compacted segment.  *Cold*
  constructs a fresh reader (footer decode included); *warm* goes
  through the segment's cached reader, exactly as a long-lived
  ``GraphStore`` serves repeated loads (the JSON layout's only warm
  state is the OS page cache, which both layouts enjoy).  The
  acceptance gate is the warm ratio: packed must beat JSON by >= 3x at
  the full 10k-key budget.
* **prune** — evict half the keys by LRU.  JSON must ``stat`` every
  file to rank recency; packed ranks from the in-footer index and
  evicts with tombstone appends, so prune is no longer O(files).

Writes ``results/BENCH_store.json`` — the machine-readable record CI's
regression gate compares against
``benchmarks/baselines/bench_store_baseline.json`` (dimensionless
``speedup_*`` ratios only; absolute seconds differ across hardware).

A second arm, :func:`test_flush_encode`, times the graph encode of a
flush: one SDSS session's graph, mined one query at a time and encoded
after every append, through the one :class:`~repro.cache.serialize.
GraphEncoder` a session keeps (it encodes what the append added and
renumbers the rest) against ``tests/oracle.py``'s reference encoder,
which builds every record as a dict and dumps it.  The two records must
be byte-identical at every flush.  It writes
``results/BENCH_store_flush.json``: ``speedup_flush_encode`` and the
exact counters ``n_flush_records`` and ``n_flush_payload_bytes``, gated
against ``benchmarks/baselines/bench_store_flush_baseline.json``.

Set ``REPRO_BENCH_BUDGET=tiny`` to shrink the key counts (CI smoke);
the absolute 3x assertion is skipped there because a tiny segment's
footer decode is not amortised, but the JSON is still produced for the
ratio gate.
"""

import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.cache.blockstore import SegmentReader
from repro.cache.serialize import GraphEncoder, graph_to_jsonl_bytes
from repro.cache.store import TABLES, GraphStore
from repro.graph.build import (
    BuildStats,
    build_interaction_graph,
    extend_interaction_graph,
    in_build_order,
)
from repro.graph.interaction import InteractionGraph
from repro.logs import SDSSLogGenerator
from repro.treediff.memo import DiffMemo
from tests import oracle

from helpers import emit, emit_json, run_once

TINY = os.environ.get("REPRO_BENCH_BUDGET") == "tiny"

N_KEYS = 1_000 if TINY else 10_000
#: evict down to half the keys in the prune phase
PRUNE_KEEP = N_KEYS // 2
OPTS_FP = "0123456789abcdef"
WARM_TRIALS = 3
#: the flush-encode arm's session length (one flush per append)
FLUSH_QUERIES = 60 if TINY else 300


def _log_fp(i: int) -> str:
    # unique leading bytes: fingerprints are hex digests, never
    # zero-padded numbers, and prune/eviction sorts by them
    return f"{i:016x}" + "0" * 48


def _payloads() -> list[bytes]:
    """One real short-log mined graph (~2 KB) serialised exactly as
    ``GraphStore.save`` stores it, with a unique incompressible tail per
    key so cross-record zlib redundancy stays realistic.  Small records
    at high key counts are the regime the packed format targets: per-file
    metadata and syscall overhead dominate the per-key layout there."""
    asts = SDSSLogGenerator(seed=7).client_log("C1", "object_lookup", 3).asts()
    graph = build_interaction_graph(asts, window=2)
    base = graph_to_jsonl_bytes(graph)
    return [
        base + hashlib.sha256(f"tag-{i}".encode()).hexdigest().encode()
        for i in range(N_KEYS)
    ]


def _json_path(root: Path, i: int) -> Path:
    return root / (GraphStore.key(_log_fp(i), OPTS_FP) + TABLES[0].suffix)


def _prune_json(root: Path, keep: int) -> int:
    """LRU-prune the per-key layout to ``keep`` keys: find every table's
    files, stat each, rank keys by mtime and unlink the oldest."""
    by_key: dict[str, list[Path]] = {}
    for table in TABLES:
        for path in root.glob("*" + table.suffix):
            by_key.setdefault(path.name[: -len(table.suffix)], []).append(path)
    ranked = sorted(
        (max(path.stat().st_mtime for path in files), key)
        for key, files in by_key.items()
    )
    doomed = ranked[: max(0, len(ranked) - keep)]
    for _mtime, key in doomed:
        for path in by_key[key]:
            path.unlink()
    return len(doomed)


def _sweep_json(root: Path) -> int:
    total = 0
    for path in sorted(root.iterdir()):
        if path.name.endswith(".graph.jsonl"):
            total += len(path.read_bytes())
    return total


def _sweep_packed(segment_path: Path) -> int:
    reader = SegmentReader(segment_path)
    return sum(len(payload) for _key, payload in reader.items())


def test_store_format_speedups(benchmark):
    payloads = _payloads()
    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    json_dir = workdir / "json"
    packed_dir = workdir / "packed"

    def run():
        out: dict[str, float] = {}

        json_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        for i in range(N_KEYS):
            _json_path(json_dir, i).write_bytes(payloads[i])
        out["populate_json_seconds"] = time.perf_counter() - t0

        packed_store = GraphStore(packed_dir)
        segment = packed_store._segments["graphs"]
        t0 = time.perf_counter()
        for i in range(N_KEYS):
            segment.append_records(
                [(f"{_log_fp(i)}-{OPTS_FP}", payloads[i], None)]
            )
        out["populate_packed_seconds"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        packed_store.compact()
        out["compact_seconds"] = time.perf_counter() - t0

        segment_path = packed_dir / "graphs.seg"
        out["bytes_json"] = sum(len(p) for p in payloads)
        out["bytes_packed"] = segment_path.stat().st_size

        # first sweep pays reader construction + footer decode (and, on
        # a cold page cache, the file reads); later sweeps are the warm
        # steady state a long-lived session sees
        t0 = time.perf_counter()
        swept_json = _sweep_json(json_dir)
        out["cold_load_json_seconds"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        swept_packed = _sweep_packed(segment_path)
        out["cold_load_packed_seconds"] = time.perf_counter() - t0
        assert swept_json == swept_packed, "layouts must sweep identical bytes"

        warm_json = []
        warm_packed = []
        for _ in range(WARM_TRIALS):
            t0 = time.perf_counter()
            _sweep_json(json_dir)
            warm_json.append(time.perf_counter() - t0)
            # the store's cached reader, as GraphStore serves warm loads
            t0 = time.perf_counter()
            sum(len(payload) for _key, payload in segment.reader().items())
            warm_packed.append(time.perf_counter() - t0)
        out["warm_load_json_seconds"] = min(warm_json)
        out["warm_load_packed_seconds"] = min(warm_packed)

        t0 = time.perf_counter()
        removed_json = _prune_json(json_dir, PRUNE_KEEP)
        out["prune_json_seconds"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        removed_packed = GraphStore(packed_dir).prune(max_entries=PRUNE_KEEP)
        out["prune_packed_seconds"] = time.perf_counter() - t0
        assert removed_json == removed_packed == N_KEYS - PRUNE_KEEP
        return out

    try:
        out = run_once(benchmark, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speedup_warm = out["warm_load_json_seconds"] / out["warm_load_packed_seconds"]
    speedup_prune = out["prune_json_seconds"] / out["prune_packed_seconds"]
    compression = out["bytes_json"] / out["bytes_packed"]

    lines = [
        f"keys: {N_KEYS}  (tiny budget: {TINY})",
        f"populate   json {out['populate_json_seconds']:.3f}s   "
        f"packed {out['populate_packed_seconds']:.3f}s   "
        f"(+ compact {out['compact_seconds']:.3f}s)",
        f"cold load  json {out['cold_load_json_seconds']:.3f}s   "
        f"packed {out['cold_load_packed_seconds']:.3f}s",
        f"warm load  json {out['warm_load_json_seconds']:.3f}s   "
        f"packed {out['warm_load_packed_seconds']:.3f}s   "
        f"speedup x{speedup_warm:.2f}",
        f"prune      json {out['prune_json_seconds']:.3f}s   "
        f"packed {out['prune_packed_seconds']:.3f}s   "
        f"speedup x{speedup_prune:.2f}",
        f"on-disk    json {out['bytes_json']} B   "
        f"packed {out['bytes_packed']} B   ratio x{compression:.2f}",
    ]
    emit("BENCH_store", "\n".join(lines))
    emit_json(
        "BENCH_store",
        {
            "workload": {
                "n_keys": N_KEYS,
                "prune_keep": PRUNE_KEEP,
                "warm_trials": WARM_TRIALS,
                "tiny_budget": TINY,
            },
            **{k: round(v, 4) for k, v in out.items()},
            "speedup_warm_load": round(speedup_warm, 3),
            "speedup_prune": round(speedup_prune, 3),
            "compression_ratio": round(compression, 3),
        },
    )

    # the acceptance gate: block decode must beat per-file reads by 3x
    # at the full budget (a tiny segment can't amortise footer decode)
    if not TINY:
        assert speedup_warm >= 3.0, (
            f"packed warm load only x{speedup_warm:.2f} vs JSON "
            f"(expected >= x3 at {N_KEYS} keys)"
        )


def test_flush_encode(benchmark):
    """An SDSS session flushed after every append: the session's encoder
    against the reference encoder, byte-identical at every flush."""
    asts = SDSSLogGenerator(seed=5).client_log("C2", "object_lookup", FLUSH_QUERIES).asts()

    def run():
        out = {"flush_seconds": 0.0, "oracle_seconds": 0.0}
        graph, stats, memo = InteractionGraph(), BuildStats(), DiffMemo()
        encoder = GraphEncoder()
        n_records = n_bytes = 0
        for ast in asts:
            extend_interaction_graph(graph, [ast], window=2, stats=stats, memo=memo)
            ordered = in_build_order(graph)
            # zeroed wall time: the payload bytes are an exact counter
            flushed = replace(stats, mining_seconds=0.0)
            t0 = time.perf_counter()
            record = graph_to_jsonl_bytes(ordered, flushed, encoder=encoder)
            t1 = time.perf_counter()
            reference = oracle.graph_to_jsonl_bytes(ordered, flushed)
            t2 = time.perf_counter()
            assert record == reference, f"record {n_records} differs from the reference"
            out["flush_seconds"] += t1 - t0
            out["oracle_seconds"] += t2 - t1
            n_records += 1
            n_bytes += len(record)
        out["n_flush_records"] = n_records
        out["n_flush_payload_bytes"] = n_bytes
        return out

    out = run_once(benchmark, run)
    speedup = out["oracle_seconds"] / out["flush_seconds"]
    n_records = out["n_flush_records"]
    emit(
        "BENCH_store_flush",
        f"session: {FLUSH_QUERIES} queries, a flush after every append "
        f"(tiny budget: {TINY})\n"
        f"encode   session encoder {out['flush_seconds'] * 1000 / n_records:.3f} ms/flush   "
        f"reference {out['oracle_seconds'] * 1000 / n_records:.3f} ms/flush   "
        f"speedup x{speedup:.2f}\n"
        f"records  {n_records}   payload {out['n_flush_payload_bytes']} B",
    )
    emit_json(
        "BENCH_store_flush",
        {
            "workload": {"session_queries": FLUSH_QUERIES, "tiny_budget": TINY},
            "flush_ms": round(out["flush_seconds"] * 1000 / n_records, 4),
            "oracle_ms": round(out["oracle_seconds"] * 1000 / n_records, 4),
            "speedup_flush_encode": round(speedup, 3),
            "n_flush_records": n_records,
            "n_flush_payload_bytes": out["n_flush_payload_bytes"],
        },
    )
