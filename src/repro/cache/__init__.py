"""Persistence and caching for mined interaction graphs.

Mining dominates generation cost; the graph it produces is a pure function
of (parsed log, options).  This package makes that artefact durable:

* :mod:`repro.cache.serialize` — versioned JSON/JSONL encoding of
  :class:`~repro.graph.interaction.InteractionGraph` +
  :class:`~repro.graph.build.BuildStats` (``graph_to_jsonl_bytes`` /
  ``save_graph`` and their inverses), plus the derived tables' record
  codecs (``widgets_to_dict``: widgets encode as diff-table indices and
  decode by re-running the deterministic ``pickWidget``);
* :mod:`repro.cache.fingerprint` — process-stable SHA-256 fingerprints of
  a parsed log and of the mining-relevant options, with
  :class:`LogFingerprinter` for incrementally growing logs;
* :mod:`repro.cache.format` / :mod:`repro.cache.blockstore` — the on-disk
  format: CRC-checksummed, length-prefixed, block-compressed record
  framing (:mod:`~repro.cache.format`) and the append-only per-table
  segment files built on it (:class:`Segment` / :class:`SegmentReader`:
  mmap + footer-index lookups, tombstone eviction, threshold
  compaction);
* :mod:`repro.cache.store` — :class:`GraphStore`, a content-addressed
  directory holding five tables per ``(log_fingerprint,
  options_fingerprint)`` key — graph, widget set, closure proofs, diff
  memo, compiled page — with load/save/invalidate, optional LRU size
  caps (``max_bytes``/``max_entries``, ``stats()``, ``prune()``), and
  ``import_json()``/``export_json()`` for the legacy one-file-per-record
  JSON layout.

The pipeline consumes it through ``PipelineOptions.cache_dir`` (see
:class:`~repro.api.stages.CacheStage`): on a graph hit the Mine stage is
skipped, on a full hit (graph + widget set) Map and Merge are skipped
too, and :meth:`repro.api.session.InterfaceSession.resume` restores a
session in a new process from a saved snapshot.
"""

from repro.cache.blockstore import Segment, SegmentReader, SegmentStats
from repro.cache.fingerprint import (
    LogFingerprinter,
    log_fingerprint,
    options_fingerprint,
)
from repro.cache.serialize import (
    FORMAT_VERSION,
    diff_memo_from_dict,
    diff_memo_to_dict,
    load_graph,
    node_from_dict,
    node_to_dict,
    save_graph,
    widgets_from_dict,
    widgets_to_dict,
)
from repro.cache.store import GraphStore

__all__ = [
    "FORMAT_VERSION",
    "GraphStore",
    "Segment",
    "SegmentReader",
    "SegmentStats",
    "save_graph",
    "load_graph",
    "widgets_to_dict",
    "widgets_from_dict",
    "diff_memo_to_dict",
    "diff_memo_from_dict",
    "node_to_dict",
    "node_from_dict",
    "LogFingerprinter",
    "log_fingerprint",
    "options_fingerprint",
]
