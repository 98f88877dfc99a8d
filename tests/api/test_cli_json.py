"""The ``--json`` output mode of ``python -m repro``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.logs import LISTING_6


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "log.sql"
    path.write_text("\n".join(LISTING_6) + "\n", encoding="utf-8")
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestMineJson:
    def test_dumps_generation_result_stats(self, log_file, capsys):
        assert main(["mine", log_file, "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["run"]["n_queries"] == 3
        assert payload["run"]["n_pairs_compared"] == 2
        assert [s["name"] for s in payload["run"]["stages"]] == [
            "parse", "mine", "map", "merge"
        ]
        widgets = {w["type"] for w in payload["interface"]["widgets"]}
        assert widgets == {"toggle_button", "slider"}

    def test_segment_mode_emits_one_payload_per_analysis(self, tmp_path, capsys):
        statements = [
            "SELECT a FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x = 2",
            "SELECT dest, SUM(delay) FROM ontime GROUP BY dest",
            "SELECT dest, AVG(delay) FROM ontime GROUP BY dest",
        ]
        path = tmp_path / "mixed.sql"
        path.write_text("\n".join(statements) + "\n", encoding="utf-8")
        assert main(["mine", str(path), "--json", "--segment"]) == 0
        payload = _json_out(capsys)
        assert isinstance(payload, list) and len(payload) == 2
        assert payload[0]["provenance"]["segment"] == 0

    def test_segment_shape_is_a_list_even_for_one_analysis(self, log_file, capsys):
        """Deterministic schema: --segment always emits a list."""
        assert main(["mine", log_file, "--json", "--segment"]) == 0
        payload = _json_out(capsys)
        assert isinstance(payload, list) and len(payload) == 1

    def test_plain_mode_unchanged(self, log_file, capsys):
        assert main(["mine", log_file]) == 0
        out = capsys.readouterr().out
        assert "Interface:" in out and "{" not in out.split("\n")[0]


class TestRecallJson:
    def test_recall_block_present(self, log_file, capsys):
        assert main(["recall", log_file, "--json", "--split", "0.67"]) == 0
        payload = _json_out(capsys)
        assert payload["recall"]["n_training"] == 2
        assert payload["recall"]["n_holdout"] == 1
        assert 0.0 <= payload["recall"]["recall"] <= 1.0


class TestCheckJson:
    def test_verdict_as_json(self, log_file, capsys):
        query = LISTING_6[0]
        assert main(["check", log_file, "--json", query]) == 0
        payload = _json_out(capsys)
        assert payload == {"query": query, "expressible": True}


class TestServeJson:
    def test_serves_a_multiclient_jsonl_log(self, tmp_path, capsys):
        rows = [
            {"sql": f"SELECT a FROM t WHERE x = {i}", "client": "alice", "sequence": i}
            for i in range(4)
        ] + [
            {"sql": f"SELECT b FROM u WHERE y = {i}", "client": "bob", "sequence": i}
            for i in range(3)
        ]
        path = tmp_path / "multi.jsonl"
        path.write_text(
            "\n".join(json.dumps(row) for row in rows) + "\n", encoding="utf-8"
        )
        assert main(["serve", str(path), "--pool-size", "2",
                     "--queue-depth", "4", "--batch-size", "2", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["pool"]["pool_size"] == 2
        assert payload["pool"]["n_clients"] == 2
        assert payload["clients"]["alice"]["n_queries"] == 4
        assert payload["clients"]["bob"]["n_queries"] == 3
        assert payload["clients"]["alice"]["n_widgets"] >= 1

    def test_plain_text_log_is_one_client(self, log_file, capsys):
        assert main(["serve", log_file, "--pool-size", "1", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["pool"]["n_clients"] == 1

    def test_rejects_bad_pool_arguments(self, log_file, capsys):
        assert main(["serve", log_file, "--pool-size", "0"]) == 2
        assert "pool_size" in capsys.readouterr().err
        assert main(["serve", log_file, "--batch-size", "0"]) == 2
        assert "batch-size" in capsys.readouterr().err


class TestCacheCli:
    def test_stats_prune_clear_round_trip(self, log_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = _json_out(capsys)
        assert stats["n_keys"] == 1
        assert stats["n_graphs"] == 1
        assert stats["n_widget_sets"] == 1
        assert stats["total_bytes"] > 0

        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-entries", "0", "--json"]) == 0
        pruned = _json_out(capsys)
        assert pruned["removed"] == 1
        assert pruned["n_keys"] == 0

    def test_prune_requires_a_cap_when_there_is_work(self, log_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
        assert "max-bytes" in capsys.readouterr().err

    def test_stats_on_empty_store_dir_exits_cleanly(self, tmp_path, capsys):
        """Regression: an existing-but-empty store directory is a valid,
        empty store — scripted maintenance must get code 0 and zeros."""
        store = tmp_path / "store"
        store.mkdir()
        assert main(["cache", "stats", "--cache-dir", str(store), "--json"]) == 0
        stats = _json_out(capsys)
        assert stats["n_keys"] == 0
        assert stats["n_graphs"] == 0
        assert stats["n_widget_sets"] == 0
        assert stats["total_bytes"] == 0

    def test_prune_on_empty_store_dir_exits_cleanly(self, tmp_path, capsys):
        """Regression: pruning an empty store is a no-op report, with or
        without caps — not a usage error."""
        store = tmp_path / "store"
        store.mkdir()
        assert main(["cache", "prune", "--cache-dir", str(store)]) == 0
        assert "nothing to prune" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", str(store), "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["removed"] == 0 and payload["n_keys"] == 0
        assert main(["cache", "prune", "--cache-dir", str(store),
                     "--max-entries", "3", "--json"]) == 0
        assert _json_out(capsys)["removed"] == 0

    def test_clear_empties_the_store(self, log_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir, "--json"]) == 0
        assert _json_out(capsys)["n_keys"] == 0

    def test_migrate_round_trip_via_cli(self, log_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        exported = str(tmp_path / "exported")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "export", "--cache-dir", cache_dir,
                     "--dest", exported, "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["exported_keys"] == 1
        assert payload["orphans_dropped"] == 0
        assert main(["cache", "import", "--cache-dir", exported, "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["format"] == "packed"
        assert payload["imported_keys"] == 1
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        original = _json_out(capsys)
        for count in ("n_keys", "n_graphs", "n_widget_sets"):
            assert payload[count] == original[count], count
        # the imported store still serves a full hit
        assert main(["mine", log_file, "--cache-dir", exported, "--json"]) == 0
        stages = {s["name"]: s["stats"] for s in _json_out(capsys)["run"]["stages"]}
        assert stages["cache"]["widgets_hit"] is True

    def test_migrate_to_current_format_reports_zero(
        self, log_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "store")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "import", "--cache-dir", cache_dir]) == 0
        assert "imported 0 key(s)" in capsys.readouterr().out

    def test_stats_text_reports_segment_accounting(
        self, log_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "store")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "[packed]" in out
        assert "live" in out
        assert "compaction debt" in out

    def test_full_hit_visible_in_json(self, log_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["mine", log_file, "--cache-dir", cache_dir, "--json"]) == 0
        stages = {s["name"]: s["stats"] for s in _json_out(capsys)["run"]["stages"]}
        assert stages["cache"]["widgets_hit"] is True
        assert stages["mine"]["skipped"] is True
        assert stages["map"]["skipped"] is True
        assert stages["merge"]["skipped"] is True

    def test_missing_cache_dir_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()  # maintenance must not create it


class TestUnreadableLog:
    """A log path that cannot be read is a usage error like every other
    bad input: ``error: ...`` on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize("subcommand", ["mine", "serve", "recall", "check"])
    @pytest.mark.parametrize("target", ["missing", "directory", "not-utf8"])
    def test_is_a_usage_error(self, tmp_path, capsys, subcommand, target):
        path = tmp_path / "log.sql"
        if target == "directory":
            path.mkdir()
        elif target == "not-utf8":
            path.write_bytes(b"SELECT a FROM t WHERE x = '\xff'\n")
        query = ["SELECT a FROM t"] if subcommand == "check" else []
        assert main([subcommand, str(path), *query]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert str(path) in err


class TestClosedStdout:
    """A reader that is gone before the first write (``| head`` that
    already exited): every subcommand exits 1 without a traceback, and
    ``serve`` leaves no worker process behind."""

    @pytest.mark.parametrize(
        "args",
        [
            ["mine", "{log}"],
            ["serve", "{log}", "--pool-size", "2"],
            ["serve", "{log}", "--pool-size", "2", "--follow", "--json",
             "--compile", "patch"],
        ],
        ids=["mine", "serve", "serve-follow"],
    )
    def test_exits_quietly(self, log_file, args):
        src = str(Path(repro.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro",
                 *(arg.format(log=log_file) for arg in args)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                start_new_session=True,
            )
        finally:
            os.close(write_end)
        stderr = proc.communicate(timeout=120)[1].decode()
        assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
        assert proc.returncode == 1
        # the CLI led its own process group: nothing of it outlives it
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
