"""Measurement helpers shared by the benchmark's phases: order
statistics, digests, peak memory, the host-speed reference, and the
failed-check ledger."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import signal
import statistics
from time import perf_counter
from typing import Any, Iterable, Iterator


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p`` percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def digest(value: Any) -> str:
    """Short, process-stable digest of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def widget_digest(result: Any) -> str:
    """Digest of a generation result's widget summary (type, path and
    domain size of every widget, sorted by path)."""
    return digest(result.interface.widget_summary())


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


_TOKENS = " ".join(
    f"SELECT g.objID FROM Galaxy AS g WHERE g.ra BETWEEN {i} AND {i + 3}" for i in range(12)
).split()
_RANK = {token: i for i, token in enumerate(_TOKENS)}
_NUMBERED = list(enumerate(_TOKENS))


def _reference_loop() -> int:
    """Fixed pure-Python work (~0.2 ms) over SQL tokens: dict lookups,
    ``str`` methods and integer arithmetic.  On the defining host its
    slowdown in a CPU's slow state (1.63x) matches that of the program's
    own operations (1.55-1.63x), where a purely arithmetic loop's
    (1.71-1.79x) overstates it.  It allocates no object the garbage
    collector tracks, so it never triggers a collection."""
    total = 0
    for _ in range(5):
        for i, token in _NUMBERED:
            total += _RANK[token] * i % 7
            if token.isdigit():
                total += int(token) & 3
            elif token.upper() == token:
                total ^= len(token)
    return total


class HostSpeed:
    """The speed of the benchmark's CPU over a run, taken from the
    reference loop.

    On a shared host each CPU switches between a fast and a ~1.8x slower
    state, for half a second to several seconds at a time, independently
    of the other CPU; the run pins itself and its child processes to one
    CPU, so that the probes time the CPU the operations run on.  A time
    scaled by ``NOMINAL_S / local reference time`` is the operation's time
    on a CPU where the reference loop takes ``NOMINAL_S``.

    A short operation is preceded by one probe (:meth:`probe`); its local
    reference time is the median of the ``2 * WINDOW + 1`` probes around
    that one.  A long one is probed at even intervals while it runs
    (:meth:`during`); its reference time is the one of the mean speed
    over those probes, ``1 / mean(1 / probe)``, since the work done in an
    interval is proportional to the speed held through it.
    """

    NOMINAL_S = 0.0002
    WINDOW = 4
    INTERVAL_S = 0.02

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> int:
        """Time the reference loop once; returns the probe's index, which
        the caller keeps with the operation timed next."""
        t0 = perf_counter()
        _reference_loop()
        self.probes.append(perf_counter() - t0)
        return len(self.probes) - 1

    @contextlib.contextmanager
    def during(self) -> Iterator[dict[str, Any]]:
        """Probe every ``INTERVAL_S`` while the block runs, from a timer
        signal handled in this thread.  Yields a dict that holds, once the
        block is done, ``mark`` (the probes taken, as a slice) and
        ``probing_s`` (their total time, to be taken out of the block's)."""
        out: dict[str, Any] = {"probing_s": 0.0}
        first = len(self.probes)

        def tick(signum: int, frame: Any) -> None:
            self.probe()
            out["probing_s"] += self.probes[-1]

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            out["mark"] = slice(first, len(self.probes)) if len(self.probes) > first else first - 1

    def factor(self, mark: int | slice) -> float:
        if isinstance(mark, slice):
            return self.NOMINAL_S * statistics.fmean(1.0 / p for p in self.probes[mark])
        window = self.probes[max(0, mark - self.WINDOW) : mark + self.WINDOW + 1]
        return self.NOMINAL_S / median(window)

    def scaled(self, samples: Iterable[tuple[float, int | slice]]) -> list[float]:
        """``(seconds, probe mark)`` samples scaled to the nominal speed."""
        return [seconds * self.factor(mark) for seconds, mark in samples]


def pin_to_one_cpu() -> int:
    """Restrict this process, and every process it starts from now on, to
    the highest-numbered CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Ledger:
    """Counts operations attempted and checks failed; every failed
    check counts as one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)
