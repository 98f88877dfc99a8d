"""Core contribution: interaction mapper, interface model, closure.

The end-to-end pipeline lives in :mod:`repro.api` as composable stages;
this package holds the algorithms they orchestrate — one Initialize and
one Merge over a maintained :class:`~repro.core.mapper.MapCache` (a
one-shot run starts from an empty cache), the interface model, and
closure membership (with a reusable proof cache)."""

from repro.core.closure import (
    ClosureCache,
    apply_widget_choice,
    enumerate_closure,
    expresses,
)
from repro.core.interface import Interface
from repro.core.mapper import (
    MapCache,
    PartitionIndex,
    initialize,
    merge_widgets,
    pick_widget,
)
from repro.core.options import PipelineOptions

__all__ = [
    "Interface",
    "PipelineOptions",
    "MapCache",
    "PartitionIndex",
    "pick_widget",
    "initialize",
    "merge_widgets",
    "ClosureCache",
    "expresses",
    "enumerate_closure",
    "apply_widget_choice",
]
