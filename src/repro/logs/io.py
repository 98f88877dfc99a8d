"""Query log serialisation.

Two formats:

* plain text — one statement per line (comments with ``--``), the format
  the paper's IOT-startup use case describes ("a text file containing past
  customer queries");
* JSON lines — one ``{"sql", "client", "sequence", "timestamp"}`` object
  per line, preserving metadata.
"""

from __future__ import annotations

import json
from pathlib import Path as FilePath

from repro.errors import LogError
from repro.logs.model import LogEntry, QueryLog

__all__ = ["save_text", "load_text", "save_jsonl", "load_jsonl", "load_log"]


def save_text(log: QueryLog, path: str | FilePath) -> None:
    """Write one statement per line."""
    lines = [entry.sql.replace("\n", " ").strip() for entry in log.entries]
    FilePath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read(file_path: FilePath) -> str:
    """The file's text.

    Raises:
        LogError: when the path is missing, is a directory, or cannot be
            read, or the file is not UTF-8 text.
    """
    try:
        return file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LogError(f"cannot read {file_path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise LogError(f"{file_path} is not UTF-8 text: {exc.reason}") from exc


def load_text(path: str | FilePath, client: str = "c0", name: str | None = None) -> QueryLog:
    """Read a one-statement-per-line file, skipping blanks and ``--`` lines.

    Raises:
        LogError: when the file cannot be read (see :func:`_read`) or
            holds no statements.
    """
    file_path = FilePath(path)
    statements = []
    for line in _read(file_path).splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("--"):
            statements.append(stripped)
    if not statements:
        raise LogError(f"no statements found in {file_path}")
    return QueryLog.from_statements(
        statements, client=client, name=name or file_path.stem
    )


def load_log(path: str | FilePath, name: str | None = None) -> QueryLog:
    """Load a query log, dispatching on the file extension.

    ``.jsonl`` / ``.ndjson`` files go through :func:`load_jsonl`;
    everything else is treated as one-statement-per-line text.  This is
    what the CLI uses so a ``mine`` invocation can mix both formats in one
    batch.

    Raises:
        LogError: when the file cannot be read, or is empty or malformed.
    """
    file_path = FilePath(path)
    if file_path.suffix.lower() in (".jsonl", ".ndjson"):
        return load_jsonl(file_path, name=name)
    return load_text(file_path, name=name)


def save_jsonl(log: QueryLog, path: str | FilePath) -> None:
    """Write entries as JSON lines with full metadata."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in log.entries:
            handle.write(
                json.dumps(
                    {
                        "sql": entry.sql,
                        "client": entry.client,
                        "sequence": entry.sequence,
                        "timestamp": entry.timestamp,
                    }
                )
                + "\n"
            )


def load_jsonl(path: str | FilePath, name: str | None = None) -> QueryLog:
    """Read a JSON-lines log.

    Raises:
        LogError: when the file cannot be read, on malformed rows, or on
            an empty file.
    """
    file_path = FilePath(path)
    entries: list[LogEntry] = []
    for line_number, line in enumerate(_read(file_path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            entries.append(
                LogEntry(
                    sql=row["sql"],
                    client=row.get("client", "c0"),
                    sequence=int(row.get("sequence", line_number - 1)),
                    timestamp=float(row.get("timestamp", line_number - 1)),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise LogError(f"bad log row at {file_path}:{line_number}") from exc
    if not entries:
        raise LogError(f"no entries found in {file_path}")
    return QueryLog(entries=entries, name=name or file_path.stem)
