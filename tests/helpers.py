"""Shared helpers for the test suite."""

from repro import generate
from repro.core.mapper import MapCache, initialize, merge_widgets
from repro.core.options import PipelineOptions


def generate_iface(log, options=None):
    """One-shot mine, unwrapped to the bare Interface."""
    return generate(log, options=options).interface


def map_diffs(diffs, options=None, merge=True):
    """Initialize (then Merge) a diffs table over a fresh ``MapCache`` —
    the mapping half of a one-shot run."""
    options = options or PipelineOptions()
    cache = MapCache()
    widgets, _, _ = initialize(cache, diffs, options.library, options.annotations)
    if merge and widgets:
        widgets, _ = merge_widgets(
            widgets, cache, options.library, options.annotations
        )
    return widgets
