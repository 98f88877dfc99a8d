"""Regression: a torn JSON import or export must finish on a re-run.

``GraphStore.import_json`` folds a legacy JSON-layout directory into the
segments in batches; one killed between batches leaves *both* layouts in
the directory: segments holding the already-imported keys (their source
files removed) and legacy JSON files for the rest.  Such a store serves
the imported half, and re-running the import folds in the rest, byte for
byte, dropping orphans and keeping each file's mtime as recency.  A torn
``export_json`` leaves part of the files in the destination, and
re-running it finishes the job.
"""

import os
import shutil

from repro.cache.blockstore import SegmentReader
from repro.cache.store import TABLES, GraphStore
from tests.cache.test_packed_store import _mined, _save_all

OTHER_SQL = [
    "SELECT b FROM u WHERE y = 3",
    "SELECT b FROM u WHERE y = 9",
    "SELECT b FROM u WHERE y = 4",
    "SELECT b FROM u WHERE y = 7",
]
#: a derived file whose key has no graph file
ORPHAN = "2" * 16 + "-" + "3" * 16 + ".widgets.json"


def _key(store, payload):
    return store.key(payload["log_fp"], payload["opts_fp"])


def _torn_import(tmp_path):
    """The exact on-disk state of an import killed after its first
    one-key batch: segments hold ``imported`` (its files are gone),
    ``pending`` is still five JSON files, plus one orphan file — and the
    pending files carry old mtimes, the recency the import must keep."""
    imported, pending = _mined(), _mined(OTHER_SQL)
    source = GraphStore(tmp_path / "source")
    _save_all(source, imported)
    _save_all(source, pending)
    root = tmp_path / "store"
    source.export_json(root)
    (root / ORPHAN).write_text('{"version": 1}\n')
    pending_files = {
        table.name: root / (_key(source, pending) + table.suffix) for table in TABLES
    }
    for path in pending_files.values():
        os.utime(path, (1_000_000.0, 1_000_000.0))
    pending_bytes = {name: path.read_bytes() for name, path in pending_files.items()}
    aux = GraphStore(tmp_path / "aux")
    _save_all(aux, imported)
    for table in TABLES:
        shutil.copy(tmp_path / "aux" / table.segment, root / table.segment)
        (root / (_key(source, imported) + table.suffix)).unlink()
    return root, imported, pending, pending_bytes


class TestResumeTowardPacked:
    def test_import_heals_and_serves_every_key(self, tmp_path):
        root, imported, pending, pending_bytes = _torn_import(tmp_path)
        store = GraphStore(root)
        # the torn store serves the imported half ...
        assert store.has(imported["log_fp"], imported["opts_fp"])
        assert not store.has(pending["log_fp"], pending["opts_fp"])
        # ... and re-running the import folds in the rest
        assert store.import_json() == {"imported_keys": 1, "orphans_dropped": 1}
        assert store.has(pending["log_fp"], pending["opts_fp"])
        graph, _ = store.load(pending["log_fp"], pending["opts_fp"])
        assert graph.summary() == pending["graph"].summary()
        # no legacy files left behind, the orphan included
        assert sorted(p.name for p in root.glob("*.json*")) == []
        # the resumed records are the JSON files' bytes, untouched, and
        # their mtimes became the records' recency
        key = _key(store, pending)
        for table in TABLES:
            reader = SegmentReader(root / table.segment)
            assert reader.get(key) == pending_bytes[table.name], table.name
            assert reader.entry(key).ts == 1_000_000.0, table.name

    def test_healed_store_is_stable_on_reopen(self, tmp_path):
        root, *_ = _torn_import(tmp_path)
        GraphStore(root).import_json()
        again = GraphStore(root)
        assert again.import_json() == {"imported_keys": 0, "orphans_dropped": 0}
        assert again.keys() == SegmentReader(root / "graphs.seg").keys()
        assert len(again.keys()) == 2

    def test_stats_count_every_key_after_heal(self, tmp_path):
        root, *_ = _torn_import(tmp_path)
        store = GraphStore(root)
        store.import_json()
        stats = store.stats()
        assert stats["n_keys"] == 2
        assert stats["n_graphs"] == stats["n_compiled"] == 2
        assert stats["format"] == "packed"


class TestResumeTowardJson:
    def test_interrupted_migrate_then_rerun_finishes(self, tmp_path):
        """An export killed part-way leaves some files (one of them
        half-written); re-running it rewrites every file whole."""
        a, b = _mined(), _mined(OTHER_SQL)
        store = GraphStore(tmp_path / "store")
        _save_all(store, a)
        _save_all(store, b)
        dest = tmp_path / "json"
        dest.mkdir()
        key_a = _key(store, a)
        graph_bytes = SegmentReader(store.root / "graphs.seg").get(key_a)
        (dest / (key_a + ".graph.jsonl")).write_bytes(graph_bytes[:40])

        assert store.export_json(dest)["exported_keys"] == 2
        assert (dest / (key_a + ".graph.jsonl")).read_bytes() == graph_bytes
        assert len(list(dest.iterdir())) == 2 * len(TABLES)
        imported = GraphStore(dest)
        assert imported.import_json()["imported_keys"] == 2
        for payload in (a, b):
            graph, _ = imported.load(payload["log_fp"], payload["opts_fp"])
            assert graph.summary() == payload["graph"].summary()
