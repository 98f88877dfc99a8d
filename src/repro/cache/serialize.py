"""Versioned serialisation for mined interaction graphs.

The interaction graph is the expensive artefact of a generation run —
``O(|Q| * window)`` tree alignments — and the one thing worth persisting
between sessions.  This module turns an :class:`~repro.graph.interaction.
InteractionGraph` (queries, edges, diffs) plus its
:class:`~repro.graph.build.BuildStats` into plain JSON values and back.

A graph is encoded as JSON *lines*: a header record followed by one
record per interned subtree, per query, per diff, and per edge; a
truncated payload fails loudly on the record count check.
:func:`graph_to_jsonl_bytes` / :func:`graph_from_jsonl_bytes` are the
store's graph codec, and :func:`save_graph` / :func:`load_graph` write
and read the same bytes as a file (the session snapshot).  The derived
tables (widget sets, closure proofs, diff memos, compiled pages) each
have a ``*_to_json_bytes`` / ``*_from_json_bytes`` pair over one JSON
document.

Sharing is preserved, twice over:

* **Edges** do not re-embed their diffs: an edge's ``interaction`` tuple
  refers to the same :class:`~repro.treediff.diff.Diff` objects stored in
  the graph's ``diffs`` table, and the mapper's merge phase relies on that
  object identity.  Edges are encoded as *indices* into the diffs table,
  and decoding rebuilds the identity relationship exactly.
* **Subtrees** are interned: the diffs table embeds the same subtrees
  over and over (every ancestor diff carries a near-whole-query subtree),
  so queries and diff subtrees are stored once in a unique-tree table and
  referenced by index.  On real SDSS logs this shrinks the payload and
  the decode work by more than an order of magnitude — the property that
  makes a cache *hit* decisively cheaper than re-mining.

Every payload carries :data:`FORMAT_VERSION`; loaders reject any other
version with :class:`~repro.errors.CacheError` (stores treat that as a
miss and re-mine).
"""

from __future__ import annotations

import json
import os
from pathlib import Path as FilePath
from typing import TYPE_CHECKING, Any, Iterator, Sequence, TypeVar
from uuid import uuid4

from repro.errors import CacheError
from repro.graph.build import BuildStats
from repro.graph.interaction import Edge, InteractionGraph
from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.treediff.diff import Diff

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sqlparser.grammar import GrammarAnnotations
    from repro.widgets.base import Widget, WidgetType

_T = TypeVar("_T")

__all__ = [
    "FORMAT_VERSION",
    "node_to_dict",
    "node_from_dict",
    "diff_to_dict",
    "diff_from_dict",
    "save_graph",
    "load_graph",
    "graph_to_jsonl_bytes",
    "graph_from_jsonl_bytes",
    "widgets_to_dict",
    "widgets_from_dict",
    "widgets_to_json_bytes",
    "widgets_from_json_bytes",
    "proofs_to_dict",
    "proofs_from_dict",
    "proofs_to_json_bytes",
    "proofs_from_json_bytes",
    "diff_memo_to_dict",
    "diff_memo_from_dict",
    "diff_memo_to_json_bytes",
    "diff_memo_from_json_bytes",
    "compiled_page_to_dict",
    "compiled_page_from_dict",
    "compiled_page_to_json_bytes",
    "compiled_page_from_json_bytes",
    "derived_interval_annotations",
]

#: Bump on any incompatible change to the encoded layout.  Loaders refuse
#: other versions; the :class:`~repro.cache.store.GraphStore` treats a
#: refused payload as a cache miss.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# AST nodes
# ----------------------------------------------------------------------
def node_to_dict(node: Node) -> dict[str, Any]:
    """Encode an AST subtree as ``{"t": type, "a": attrs, "c": children}``.

    Attribute values must already be JSON-representable (the SQL grammar
    uses strings and numbers); anything else raises :class:`CacheError`
    at save time rather than producing a payload that cannot round-trip.
    """
    for value in node.attributes.values():
        if not isinstance(value, (str, int, float, bool)) and value is not None:
            raise CacheError(
                f"attribute value {value!r} on {node.node_type} is not "
                "JSON-serialisable"
            )
    out: dict[str, Any] = {"t": node.node_type}
    if node.attributes:
        out["a"] = dict(node.attributes)
    if node.children:
        out["c"] = [node_to_dict(child) for child in node.children]
    return out


def node_from_dict(payload: dict[str, Any]) -> Node:
    """Decode a :func:`node_to_dict` payload back into a :class:`Node`."""
    try:
        return Node(
            payload["t"],
            payload.get("a"),
            [node_from_dict(child) for child in payload.get("c", ())],
        )
    except (KeyError, TypeError) as exc:
        raise CacheError(f"malformed node record: {payload!r}") from exc


def _at(table: Sequence[_T], index: Any, what: str) -> _T:
    """Strict table lookup for decoded index references.

    Plain ``table[index]`` would let a corrupt record's negative index
    silently alias the wrong entry (Python indexing wraps around); a
    cache must refuse such a file instead of returning a wrong graph.
    """
    if not isinstance(index, int) or isinstance(index, bool) or not (
        0 <= index < len(table)
    ):
        raise CacheError(f"{what} reference {index!r} is out of range")
    return table[index]


class _TreeInterner:
    """Assigns one index per structurally-unique subtree (writer side)."""

    def __init__(self) -> None:
        self.trees: list[Node] = []
        self._buckets: dict[int, list[tuple[Node, int]]] = {}

    def index_of(self, node: Node) -> int:
        """The node's index in the unique-tree table, interning it if new."""
        bucket = self._buckets.setdefault(node.fingerprint, [])
        for candidate, index in bucket:
            if candidate.equals(node):
                return index
        index = len(self.trees)
        self.trees.append(node)
        bucket.append((node, index))
        return index


# ----------------------------------------------------------------------
# diff records and edges
# ----------------------------------------------------------------------
def diff_to_dict(diff: Diff, interner: _TreeInterner | None = None) -> dict[str, Any]:
    """Encode one diff record; paths use the paper's slash notation
    (``"/"`` is the root).

    With an ``interner`` the subtrees become indices into the unique-tree
    table (the compact form used inside whole-graph payloads); without
    one they are embedded inline (the standalone form).
    """
    if interner is None:
        t1: Any = node_to_dict(diff.t1) if diff.t1 is not None else None
        t2: Any = node_to_dict(diff.t2) if diff.t2 is not None else None
    else:
        t1 = interner.index_of(diff.t1) if diff.t1 is not None else None
        t2 = interner.index_of(diff.t2) if diff.t2 is not None else None
    out: dict[str, Any] = {
        "q1": diff.q1,
        "q2": diff.q2,
        "path": str(diff.path),
        "t1": t1,
        "t2": t2,
        "kind": diff.kind,
        "leaf": diff.is_leaf,
    }
    if diff.source_path != diff.path:
        out["source_path"] = str(diff.source_path)
    return out


def diff_from_dict(
    payload: dict[str, Any], trees: list[Node] | None = None
) -> Diff:
    """Decode a :func:`diff_to_dict` payload back into a :class:`Diff`.

    ``trees`` is the decoded unique-tree table for the compact form;
    ``None`` decodes the standalone (inline-subtree) form.
    """

    def subtree(value: Any) -> Node | None:
        if value is None:
            return None
        if trees is None:
            return node_from_dict(value)
        return _at(trees, value, "tree")

    try:
        source = payload.get("source_path")
        return Diff(
            q1=int(payload["q1"]),
            q2=int(payload["q2"]),
            path=Path.parse(payload["path"]),
            t1=subtree(payload["t1"]),
            t2=subtree(payload["t2"]),
            kind=payload["kind"],
            is_leaf=bool(payload["leaf"]),
            source_path=Path.parse(source) if source is not None else None,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CacheError(f"malformed diff record: {list(payload)!r}") from exc


def _edge_to_dict(edge: Edge, diff_index: dict[int, int]) -> dict[str, Any]:
    """Encode an edge; ``interaction`` becomes indices into the diffs table."""
    try:
        refs = [diff_index[id(d)] for d in edge.interaction]
    except KeyError as exc:
        raise CacheError(
            f"edge ({edge.q1}, {edge.q2}) references a diff that is not in "
            "the graph's diffs table"
        ) from exc
    return {"q1": edge.q1, "q2": edge.q2, "diffs": refs}


def _edge_from_dict(payload: dict[str, Any], diffs: list[Diff]) -> Edge:
    try:
        interaction = tuple(
            _at(diffs, index, "diff") for index in payload["diffs"]
        )
        return Edge(q1=int(payload["q1"]), q2=int(payload["q2"]), interaction=interaction)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"malformed edge record: {payload!r}") from exc


# ----------------------------------------------------------------------
# whole graphs
# ----------------------------------------------------------------------
def _encode_parts(
    graph: InteractionGraph,
) -> tuple[list[dict[str, Any]], list[int], list[dict[str, Any]], list[dict[str, Any]]]:
    """The four record lists of a graph payload: unique trees, query tree
    indices, diffs (compact form), and edges."""
    interner = _TreeInterner()
    query_refs = [interner.index_of(q) for q in graph.queries]
    diff_payloads = [diff_to_dict(d, interner) for d in graph.diffs]
    diff_index = {id(d): i for i, d in enumerate(graph.diffs)}
    edge_payloads = [_edge_to_dict(e, diff_index) for e in graph.edges]
    tree_payloads = [node_to_dict(t) for t in interner.trees]
    return tree_payloads, query_refs, diff_payloads, edge_payloads


def _stats_payload(stats: BuildStats | None) -> dict[str, Any] | None:
    if stats is None:
        return None
    return {
        "n_pairs_compared": stats.n_pairs_compared,
        "mining_seconds": stats.mining_seconds,
        "n_alignments_memoised": stats.n_alignments_memoised,
        "n_alignments_full": stats.n_alignments_full,
    }


def _stats_from(payload: dict[str, Any] | None) -> BuildStats:
    payload = payload or {}
    return BuildStats(
        n_pairs_compared=int(payload.get("n_pairs_compared", 0)),
        mining_seconds=float(payload.get("mining_seconds", 0.0)),
        n_alignments_memoised=int(payload.get("n_alignments_memoised", 0)),
        n_alignments_full=int(payload.get("n_alignments_full", 0)),
    )


def _decode_graph(
    tree_payloads: list[dict[str, Any]],
    query_refs: list[int],
    diff_payloads: list[dict[str, Any]],
    edge_payloads: list[dict[str, Any]],
) -> InteractionGraph:
    trees = [node_from_dict(t) for t in tree_payloads]
    queries = [_at(trees, i, "query tree") for i in query_refs]
    diffs = [diff_from_dict(d, trees) for d in diff_payloads]
    edges = [_edge_from_dict(e, diffs) for e in edge_payloads]
    return InteractionGraph(queries=queries, edges=edges, diffs=diffs)


# ----------------------------------------------------------------------
# JSONL files
# ----------------------------------------------------------------------
def _jsonl_lines(
    graph: InteractionGraph,
    stats: BuildStats | None,
    extra: dict[str, Any] | None,
) -> Iterator[str]:
    trees, query_refs, diff_payloads, edge_payloads = _encode_parts(graph)
    header: dict[str, Any] = {
        "rec": "header",
        "version": FORMAT_VERSION,
        "n_trees": len(trees),
        "n_queries": len(query_refs),
        "n_diffs": len(diff_payloads),
        "n_edges": len(edge_payloads),
    }
    stats_payload = _stats_payload(stats)
    if stats_payload is not None:
        header["stats"] = stats_payload
    if extra:
        header["extra"] = extra
    # sort_keys throughout: two processes persisting the same graph must
    # produce byte-identical files (the ROADMAP's checksummed block store
    # compares payloads by digest)
    yield json.dumps(header, sort_keys=True)
    for tree in trees:
        yield json.dumps({"rec": "tree", "node": tree}, sort_keys=True)
    for ref in query_refs:
        yield json.dumps({"rec": "query", "tree": ref}, sort_keys=True)
    for diff in diff_payloads:
        yield json.dumps({"rec": "diff", **diff}, sort_keys=True)
    for edge in edge_payloads:
        yield json.dumps({"rec": "edge", **edge}, sort_keys=True)


def graph_to_jsonl_bytes(
    graph: InteractionGraph,
    stats: BuildStats | None = None,
    extra: dict[str, Any] | None = None,
) -> bytes:
    """The exact bytes :func:`save_graph` would write for this graph.

    The store's graph records are these bytes, so a record and a
    :func:`save_graph` file of the same graph are byte-identical.
    """
    return "".join(
        line + "\n" for line in _jsonl_lines(graph, stats, extra)
    ).encode("utf-8")


def save_graph(
    path: str | FilePath,
    graph: InteractionGraph,
    stats: BuildStats | None = None,
    extra: dict[str, Any] | None = None,
) -> None:
    """Write the graph as JSON lines (header, trees, queries, diffs, edges).

    The write is atomic: content lands in a writer-unique temp file first
    and is renamed into place, so concurrent readers (the sharded workers
    all share one cache directory) never observe a half-written file, and
    two writers racing on the same key each complete their own rename
    (last one wins) instead of scribbling over a shared temp path.
    """
    target = FilePath(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}-{uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in _jsonl_lines(graph, stats, extra):
                handle.write(line + "\n")
        tmp.replace(target)
    finally:
        tmp.unlink(missing_ok=True)


def load_graph(
    path: str | FilePath,
) -> tuple[InteractionGraph, BuildStats, dict[str, Any]]:
    """Read a :func:`save_graph` file back.

    Returns ``(graph, stats, extra)``; ``stats`` is zeroed when the
    file carried none.

    Raises:
        CacheError: on version mismatch, malformed records, or a record
            count that disagrees with the header (truncated file).
    """
    file_path = FilePath(path)
    try:
        lines = file_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CacheError(f"cannot read graph file {file_path}") from exc
    return _graph_from_lines(lines, str(file_path))


def graph_from_jsonl_bytes(
    data: bytes, label: str = "<graph record>"
) -> tuple[InteractionGraph, BuildStats, dict[str, Any]]:
    """Decode :func:`graph_to_jsonl_bytes` output (the packed-store read
    path).  ``label`` names the source in error messages.

    Raises:
        CacheError: exactly as :func:`load_graph` for the same content.
    """
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CacheError(f"{label} is not valid UTF-8") from exc
    return _graph_from_lines(lines, label)


def _graph_from_lines(
    lines: list[str], label: str
) -> tuple[InteractionGraph, BuildStats, dict[str, Any]]:
    records: list[dict[str, Any]] = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CacheError(f"bad JSON at {label}:{line_number}") from exc
    if not records or records[0].get("rec") != "header":
        raise CacheError(f"{label} is missing the header record")
    header = records[0]
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CacheError(
            f"unsupported graph format version {version!r} in {label} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    tree_payloads: list[dict[str, Any]] = []
    query_refs: list[int] = []
    diff_payloads: list[dict[str, Any]] = []
    edge_payloads: list[dict[str, Any]] = []
    for record in records[1:]:
        kind = record.get("rec")
        if kind == "tree":
            tree_payloads.append(record["node"])
        elif kind == "query":
            query_refs.append(record["tree"])
        elif kind == "diff":
            diff_payloads.append(record)
        elif kind == "edge":
            edge_payloads.append(record)
        else:
            raise CacheError(f"unknown record kind {kind!r} in {label}")
    if (
        len(tree_payloads) != header.get("n_trees")
        or len(query_refs) != header.get("n_queries")
        or len(diff_payloads) != header.get("n_diffs")
        or len(edge_payloads) != header.get("n_edges")
    ):
        raise CacheError(f"{label} is truncated (record counts disagree)")
    graph = _decode_graph(tree_payloads, query_refs, diff_payloads, edge_payloads)
    return graph, _stats_from(header.get("stats")), header.get("extra", {})


# ----------------------------------------------------------------------
# widget sets
# ----------------------------------------------------------------------
#
# A widget set is *derived* state: every widget the mapper ever produces —
# initial or merged — is ``pickWidget(D)`` for its diff subset ``D``
# (Initialize builds it that way, and every merge rebuild goes through
# ``pickWidget`` again).  So the durable encoding of a widget is just the
# indices of its ``D`` in the owning graph's diffs table, plus the picked
# type's name as an integrity check; decoding re-runs the deterministic
# ``pickWidget`` against the loaded graph.  This keeps the payload tiny,
# guarantees the decoded widgets share diff-object identity with the graph
# (the property the merge phase and the session rely on), and makes a
# stale file impossible to half-trust: a library/rule change re-picks a
# different type and the name check turns the entry into a miss.

def widgets_to_dict(widgets: list[Widget], graph: InteractionGraph) -> dict[str, Any]:
    """Encode a mapped widget set against its graph's diffs table.

    Raises:
        CacheError: when a widget references a diff that is not in the
            graph's diffs table (the widgets belong to a different graph).
    """
    diff_index = {id(d): i for i, d in enumerate(graph.diffs)}
    encoded: list[dict[str, Any]] = []
    for widget in widgets:
        try:
            refs = [diff_index[id(d)] for d in widget.D]
        except KeyError as exc:
            raise CacheError(
                f"widget at {widget.path} references a diff that is not in "
                "the graph's diffs table"
            ) from exc
        encoded.append({"type": widget.widget_type.name, "diffs": refs})
    return {"version": FORMAT_VERSION, "widgets": encoded}


def widgets_from_dict(
    payload: dict[str, Any],
    graph: InteractionGraph,
    library: list[WidgetType],
    annotations: GrammarAnnotations,
) -> list[Widget]:
    """Decode a :func:`widgets_to_dict` payload against a loaded graph.

    Re-runs ``pickWidget`` over the referenced diff subsets, so the
    returned widgets are bit-equivalent to what the mapper produced and
    share diff-object identity with ``graph``.

    Raises:
        CacheError: on a version mismatch, an out-of-range diff reference,
            or when re-picking yields a different widget type than the one
            recorded (a stale payload for the current library).
    """
    from repro.core.mapper import pick_widget
    from repro.errors import MappingError

    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise CacheError(
            f"unsupported widget-set format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    widgets: list[Widget] = []
    for record in payload.get("widgets", ()):
        try:
            refs = record["diffs"]
            expected = record["type"]
        except (KeyError, TypeError) as exc:
            raise CacheError(f"malformed widget record: {record!r}") from exc
        diffs = [_at(graph.diffs, index, "diff") for index in refs]
        try:
            widget = pick_widget(diffs, library, annotations)
        except MappingError as exc:
            raise CacheError(
                "cached widget set no longer maps under the current widget "
                "library"
            ) from exc
        if widget is None or widget.widget_type.name != expected:
            picked = widget.widget_type.name if widget else None
            raise CacheError(
                f"cached widget record expected type {expected!r} but the "
                f"current library picks {picked!r}"
            )
        widgets.append(widget)
    return widgets


def _json_doc_bytes(payload: dict[str, Any]) -> bytes:
    """One derived-table record: ``payload`` as one sorted-key JSON
    document plus a newline."""
    # sort_keys: derived tables must be byte-deterministic across
    # processes for digest-based comparison
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _json_doc_from_bytes(data: bytes, label: str) -> dict[str, Any]:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheError(f"bad JSON in {label}") from exc
    if not isinstance(payload, dict):
        raise CacheError(f"{label} is not a JSON object payload")
    return payload


def widgets_to_json_bytes(
    widgets: list[Widget], graph: InteractionGraph
) -> bytes:
    """A widget set's record payload (see :func:`widgets_to_dict`)."""
    return _json_doc_bytes(widgets_to_dict(widgets, graph))


def widgets_from_json_bytes(
    data: bytes,
    graph: InteractionGraph,
    library: list[WidgetType],
    annotations: GrammarAnnotations,
    label: str = "<widget-set record>",
) -> list[Widget]:
    """Decode :func:`widgets_to_json_bytes` output.  ``label`` names
    the source in error messages.

    Raises:
        CacheError: on bad JSON or any :func:`widgets_from_dict` failure.
    """
    return widgets_from_dict(
        _json_doc_from_bytes(data, label), graph, library, annotations
    )


# ----------------------------------------------------------------------
# closure proofs
# ----------------------------------------------------------------------
#
# A positive cover proof is a ``(current, target, base)`` triple: "these
# widgets can transform subtree *current* (rooted at absolute path *base*)
# into subtree *target*".  The in-memory key fingerprints the two subtrees
# with ``Node.fingerprint``, which is process-salted, so the durable form
# stores the subtrees themselves (interned — proof sets over one interface
# share most of their trees) and the loader re-fingerprints them.  Only
# positives are ever persisted: a negative memo can be a budget artefact,
# and ``ClosureCache`` never exports one.

def proofs_to_dict(triples: list[tuple[Node, Node, "Path"]]) -> dict[str, Any]:
    """Encode exported closure proofs (see
    :meth:`~repro.core.closure.ClosureCache.export_proofs`)."""
    interner = _TreeInterner()
    encoded = [
        {
            "c": interner.index_of(current),
            "t": interner.index_of(target),
            "base": str(base),
        }
        for current, target, base in triples
    ]
    return {
        "version": FORMAT_VERSION,
        "trees": [node_to_dict(t) for t in interner.trees],
        "proofs": encoded,
    }


def proofs_from_dict(payload: dict[str, Any]) -> list[tuple[Node, Node, "Path"]]:
    """Decode a :func:`proofs_to_dict` payload back into proof triples,
    ready for :meth:`~repro.core.closure.ClosureCache.import_proofs`.

    Raises:
        CacheError: on a version mismatch or malformed records.
    """
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise CacheError(
            f"unsupported proof-set format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        trees = [node_from_dict(t) for t in payload.get("trees", ())]
        triples: list[tuple[Node, Node, Path]] = []
        for record in payload.get("proofs", ()):
            triples.append(
                (
                    _at(trees, record["c"], "tree"),
                    _at(trees, record["t"], "tree"),
                    Path.parse(record["base"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError("malformed proof-set payload") from exc
    return triples


def proofs_to_json_bytes(triples: list[tuple[Node, Node, "Path"]]) -> bytes:
    """A proof set's record payload (see :func:`proofs_to_dict`)."""
    return _json_doc_bytes(proofs_to_dict(triples))


def proofs_from_json_bytes(
    data: bytes, label: str = "<proof-set record>"
) -> list[tuple[Node, Node, "Path"]]:
    """Decode :func:`proofs_to_json_bytes` output.

    Raises:
        CacheError: on bad JSON or any :func:`proofs_from_dict` failure.
    """
    return proofs_from_dict(_json_doc_from_bytes(data, label))


# ----------------------------------------------------------------------
# diff memos
# ----------------------------------------------------------------------
#
# A :class:`~repro.treediff.memo.DiffMemo` keys alignment plans by
# skeleton hashes, which build on ``hash()`` and are therefore
# process-salted — the keys cannot be persisted.  The durable form is the
# memo's *representative pairs*: one concrete ``(a, b, prune)`` triple
# per plan (trees interned — template shapes share most subtrees).
# Loading re-aligns each representative once with the current algorithm
# (O(unique shapes), exactly the steady-state cost the memo admits), so a
# stale file can never poison results — plans are always rebuilt natively.

def diff_memo_to_dict(pairs: list[tuple[Node, Node, bool]]) -> dict[str, Any]:
    """Encode a memo's representative pairs (see
    :meth:`~repro.treediff.memo.DiffMemo.export_pairs`)."""
    interner = _TreeInterner()
    encoded = [
        {
            "a": interner.index_of(a),
            "b": interner.index_of(b),
            "prune": bool(prune),
        }
        for a, b, prune in pairs
    ]
    return {
        "version": FORMAT_VERSION,
        "trees": [node_to_dict(t) for t in interner.trees],
        "pairs": encoded,
    }


def diff_memo_from_dict(payload: dict[str, Any]) -> list[tuple[Node, Node, bool]]:
    """Decode a :func:`diff_memo_to_dict` payload back into representative
    pairs, ready for :meth:`~repro.treediff.memo.DiffMemo.import_pairs`.

    Raises:
        CacheError: on a version mismatch or malformed records.
    """
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise CacheError(
            f"unsupported diff-memo format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        trees = [node_from_dict(t) for t in payload.get("trees", ())]
        pairs: list[tuple[Node, Node, bool]] = []
        for record in payload.get("pairs", ()):
            pairs.append(
                (
                    _at(trees, record["a"], "tree"),
                    _at(trees, record["b"], "tree"),
                    bool(record["prune"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError("malformed diff-memo payload") from exc
    return pairs


def diff_memo_to_json_bytes(pairs: list[tuple[Node, Node, bool]]) -> bytes:
    """A diff memo's record payload (see :func:`diff_memo_to_dict`)."""
    return _json_doc_bytes(diff_memo_to_dict(pairs))


def diff_memo_from_json_bytes(
    data: bytes, label: str = "<diff-memo record>"
) -> list[tuple[Node, Node, bool]]:
    """Decode :func:`diff_memo_to_json_bytes` output.

    Raises:
        CacheError: on bad JSON or any :func:`diff_memo_from_dict` failure.
    """
    return diff_memo_from_dict(_json_doc_from_bytes(data, label))


# ----------------------------------------------------------------------
# compiled interface pages
# ----------------------------------------------------------------------
#
# The incremental compiler's page state (see
# :meth:`repro.compiler.incremental.CompiledPage.to_state`) is already a
# plain-JSON dict of rendered strings: widget blocks, closure SQL/results,
# and *content* fingerprints (sha256 over rendered text — never the
# process-salted ``Node.fingerprint``/``skeleton``, which lint rules
# RL002/RL006 keep out of every persisted payload).  The codec therefore
# only wraps the state in the versioned envelope every table shares.

def compiled_page_to_dict(state: dict[str, Any]) -> dict[str, Any]:
    """Encode a compiled-page state (see
    :meth:`~repro.compiler.incremental.CompiledPage.to_state`)."""
    return {"version": FORMAT_VERSION, "page": state}


def compiled_page_from_dict(payload: dict[str, Any]) -> dict[str, Any]:
    """Decode a :func:`compiled_page_to_dict` payload back into the page
    state dict, ready for
    :meth:`~repro.compiler.incremental.IncrementalCompiler.import_state`.

    Raises:
        CacheError: on a version mismatch or a malformed payload.
    """
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise CacheError(
            f"unsupported compiled-page format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    state = payload.get("page")
    if not isinstance(state, dict):
        raise CacheError("malformed compiled-page payload")
    return state


def compiled_page_to_json_bytes(state: dict[str, Any]) -> bytes:
    """A compiled page's record payload (see
    :func:`compiled_page_to_dict`)."""
    return _json_doc_bytes(compiled_page_to_dict(state))


def compiled_page_from_json_bytes(
    data: bytes, label: str = "<compiled-page record>"
) -> dict[str, Any]:
    """Decode :func:`compiled_page_to_json_bytes` output.

    Raises:
        CacheError: on bad JSON or any :func:`compiled_page_from_dict`
            failure.
    """
    return compiled_page_from_dict(_json_doc_from_bytes(data, label))


# ----------------------------------------------------------------------
# interval annotations (derived — deliberately NOT a table)
# ----------------------------------------------------------------------

def derived_interval_annotations(
    graph: InteractionGraph,
) -> dict[str, tuple[int, int, int]]:
    """The canonical interval annotations of a graph's partition paths.

    The mapping layer annotates every diff-partition path with a
    ``(pre_order, post_order, subtree_size)`` triple (see
    :class:`~repro.treediff.paths.IntervalIndex`).  Those annotations are
    **derived state**: they are a pure function of the set of distinct
    diff paths, so this module never persists them — a serialised graph
    carries no interval table, and any format that did would just be a
    staleness hazard.  Instead, loaders rebuild them from the decoded
    diffs, and the round-trip suite asserts the rebuild is *identical* to
    the annotations of the pre-save graph by comparing this function's
    output on both sides.

    Returns ``{str(path): (pre_order, post_order, subtree_size)}`` —
    string keys so two snapshots compare with plain ``==`` and diff
    readably in test failures.
    """
    from repro.treediff.paths import IntervalIndex

    index = IntervalIndex()
    index.extend(diff.path for diff in graph.diffs)
    return {
        str(path): (
            interval.pre_order,
            interval.post_order,
            interval.subtree_size,
        )
        for path, interval in index.annotations().items()
    }
