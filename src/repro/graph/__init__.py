"""Interaction graph: vertices are queries, edges are mined interactions.

:func:`extend_interaction_graph` grows a graph with appended queries,
aligning only the new pairs (Section 4.2 with the Section 6
optimisations) — what :class:`~repro.api.session.InterfaceSession` runs
per append.  :func:`build_interaction_graph` mines a whole log as one
extension of an empty graph, normalised by :func:`in_build_order` to the
``(q1, q2)``-lexicographic order the mapper is defined against.  The graph
is a pure function of (parsed log, options), which is what makes it
cacheable — :mod:`repro.cache` serialises it and keys it by content
fingerprints so later runs skip the mining entirely.
"""

from repro.graph.build import (
    BuildStats,
    build_interaction_graph,
    extend_interaction_graph,
    in_build_order,
)
from repro.graph.interaction import Edge, InteractionGraph

__all__ = [
    "Edge",
    "InteractionGraph",
    "build_interaction_graph",
    "extend_interaction_graph",
    "in_build_order",
    "BuildStats",
]
