"""Advisory cross-process file locking for shared store directories.

The :class:`~repro.cache.store.GraphStore` is shared by many processes —
the ``generate_many`` shards, every :class:`~repro.service.SessionPool`
worker, and any concurrently running CLI invocation.  Every write
appends to shared segment files, and several must be atomic as a unit:
LRU eviction tombstones a key in every table at once, and a save of a
derived record (a widget set) must observe a consistent answer to
"does this key's graph record still exist?".  Without mutual exclusion,
two writers can interleave frames in one segment, two pruners can
interleave their scans and evictions, and a pruner can slip between a
worker's graph save and widget save, leaving an orphaned widget record
behind.

:class:`StoreLock` provides the mutual exclusion: an advisory ``flock``
on a dedicated ``.lock`` file inside the store directory.  Advisory is
enough because every writer in this codebase goes through
:class:`GraphStore`; foreign processes scribbling into the cache
directory are outside the threat model (the loaders treat whatever they
produce as corrupt entries, i.e. misses).

On platforms without ``fcntl`` (Windows), the lock degrades to a
process-local :class:`threading.Lock` — single-process correctness is
kept; concurrent writers from several processes are then unsupported.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path as FilePath
from typing import Iterator

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["StoreLock"]

#: Name of the lock file inside a store directory.  Deliberately not
#: matching any entry suffix so stats/eviction never count it.
LOCK_FILE_NAME = ".lock"


class StoreLock:
    """An exclusive advisory lock scoped to one store directory.

    Usage::

        lock = StoreLock(store_root)
        with lock.held():
            ...  # multi-file invariant work

    Re-entrant within a process *per instance* (a thread that already
    holds the lock may nest ``held()`` calls — the store's save paths
    call each other), blocking across processes.  The lock file itself
    is created on first use and never removed; an empty ``.lock`` in a
    cache directory is not an entry.
    """

    def __init__(self, root: str | FilePath) -> None:
        self.path = FilePath(root) / LOCK_FILE_NAME
        self._local = threading.local()
        self._thread_lock = threading.Lock()

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def held(self) -> Iterator[None]:
        """Hold the lock for the duration of the ``with`` block.

        Blocks until every other holder — in this process or another —
        releases it.  Nested acquisition by the same thread is a no-op
        (depth-counted), so composed store operations don't deadlock.
        """
        if self._depth() > 0:
            self._local.depth += 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        # serialise threads of this process first, then processes
        self._thread_lock.acquire()
        handle = None
        try:
            if fcntl is not None:
                # "a+" creates the lock file without truncating a
                # concurrent creator's; the fd is what flock latches onto
                handle = open(self.path, "a+")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            self._local.depth = 1
            try:
                yield
            finally:
                self._local.depth = 0
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                finally:
                    handle.close()
            self._thread_lock.release()
