"""Versioned serialisation for mined interaction graphs.

The interaction graph is the expensive artefact of a generation run —
``O(|Q| * window)`` tree alignments — and the one thing worth persisting
between sessions.  This module turns an :class:`~repro.graph.interaction.
InteractionGraph` (queries, edges, diffs) plus its
:class:`~repro.graph.build.BuildStats` into plain JSON values and back.

A graph is encoded as JSON *lines*: a header record followed by one
record per interned subtree, per query, per diff, and per edge; a
truncated payload fails loudly on the record count check.
:class:`GraphEncoder` writes the lines as JSON text and remembers the
text of what it encoded, so an encoder kept across flushes of a growing
graph (a session's) encodes only what was added since the last one.
:func:`graph_to_jsonl_bytes` / :func:`graph_from_jsonl_bytes` are the
store's graph codec, and :func:`save_graph` / :func:`load_graph` write
and read the same bytes as a file (the session snapshot).  The store's
other table, widget sets, has :func:`widgets_to_json_bytes` /
:func:`widgets_from_json_bytes` over one JSON document.

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
import math
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path as FilePath
from typing import TYPE_CHECKING, Any, Sequence, TypeVar
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
    "GraphEncoder",
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


# ----------------------------------------------------------------------
# diff records (the standalone form) and their decoding
# ----------------------------------------------------------------------
def diff_to_dict(diff: Diff) -> dict[str, Any]:
    """Encode one diff record with its subtrees inline; paths use the
    paper's slash notation (``"/"`` is the root).

    Inside a graph record a diff refers to its subtrees by index into the
    unique-tree table instead (see :class:`GraphEncoder`).
    """
    out: dict[str, Any] = {
        "q1": diff.q1,
        "q2": diff.q2,
        "path": str(diff.path),
        "t1": node_to_dict(diff.t1) if diff.t1 is not None else None,
        "t2": node_to_dict(diff.t2) if diff.t2 is not None else None,
        "kind": diff.kind,
        "leaf": diff.is_leaf,
    }
    if diff.source_path != diff.path:
        out["source_path"] = str(diff.source_path)
    return out


def diff_from_dict(
    payload: dict[str, Any], trees: list[Node] | None = None
) -> Diff:
    """Decode a diff record back into a :class:`Diff`.

    ``trees`` is the decoded unique-tree table of a graph record;
    ``None`` decodes the standalone (:func:`diff_to_dict`) form.
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


def _edge_from_dict(payload: dict[str, Any], diffs: list[Diff]) -> Edge:
    try:
        interaction = tuple(
            _at(diffs, index, "diff") for index in payload["diffs"]
        )
        return Edge(q1=int(payload["q1"]), q2=int(payload["q2"]), interaction=interaction)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"malformed edge record: {payload!r}") from exc


# ----------------------------------------------------------------------
# whole graphs: the encoder
# ----------------------------------------------------------------------
_quote = encode_basestring_ascii


def _value_text(value: Any, node: Node) -> str:
    """``json.dumps(value)`` for an attribute value of ``node``.

    Raises:
        CacheError: for a value JSON cannot carry; a payload that could
            not round-trip is refused at save time.
    """
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)  # json.dumps' spelling, without its overhead
    if value is None or isinstance(value, (int, float)):  # bool is an int
        return json.dumps(value)
    raise CacheError(
        f"attribute value {value!r} on {node.node_type} is not JSON-serialisable"
    )


def _node_text(node: Node, texts: dict[int, str]) -> str:
    """``json.dumps(node_to_dict(node), sort_keys=True)``, written
    directly.  ``texts`` holds the text of every subtree written so far
    in one encode, by identity (the parser shares literal-free subtrees
    between queries, and a diff's subtrees are its queries')."""
    text = texts.get(id(node))
    if text is not None:
        return text
    text = "{"
    attributes = node.attributes
    if attributes:
        items = sorted(attributes.items()) if len(attributes) > 1 else attributes.items()
        text += '"a": {' + ", ".join([
            (_quote(key) if isinstance(key, str) else _quote(_value_text(key, node)))
            + ": " + _value_text(value, node)
            for key, value in items
        ]) + "}, "
    if node.children:
        text += '"c": [' + ", ".join([_node_text(child, texts) for child in node.children]) + "], "
    text += '"t": ' + _quote(node.node_type) + "}"
    texts[id(node)] = text
    return text


class _Tree:
    """One row of the unique-tree table: a class of structurally equal
    subtrees, with the tree line of the first one interned.  Its index
    is assigned afresh by every encode (``epoch`` names the encode that
    assigned it)."""

    __slots__ = ("node", "line", "epoch", "index")

    def __init__(self, node: Node, line: str) -> None:
        self.node = node
        self.line = line
        self.epoch = 0
        self.index = 0


#: An encoded diff: the diff, its line up to ``"t1"``, and each
#: subtree's table row and own tree line (``None`` and ``""`` for an
#: absent side).
_DiffLine = tuple[Diff, str, _Tree | None, str, _Tree | None, str]


class GraphEncoder:
    """Writes graph records as JSON text, and remembers what it wrote.

    A record is a header line, then one line per unique subtree (queries
    interned first, in log order, then each diff's ``t1`` and ``t2``),
    query, diff and edge, each the ``json.dumps(..., sort_keys=True)``
    text of that record.  Between calls the encoder keeps, by object
    identity, the tree line of each query and diff subtree and each diff
    line up to ``"t1"``, so encoding a graph that grew encodes only the
    new queries, diffs and edges, then renumbers the rest.  A table row
    writes the line of the subtree that first reaches it in the call, so
    the bytes equal a fresh encoder's even where equal subtrees spell a
    value differently (``5`` and ``5.0``).  Nothing is remembered for a
    query or diff until all its text is written: a value that cannot be
    encoded raises :class:`~repro.errors.CacheError` on every call.
    """

    def __init__(self) -> None:
        self._epoch = 0
        #: Node.fingerprint -> the rows of that fingerprint
        self._rows: dict[int, list[_Tree]] = {}
        #: id(query) -> the query, its row and its tree line
        self._queries: dict[int, tuple[Node, _Tree, str]] = {}
        #: id(diff) -> its encoded line parts
        self._diffs: dict[int, _DiffLine] = {}

    def _intern(self, node: Node, texts: dict[int, str]) -> tuple[_Tree, str]:
        """The node's table row and its own tree line."""
        line = '{"node": ' + _node_text(node, texts) + ', "rec": "tree"}'
        bucket = self._rows.setdefault(node.fingerprint, [])
        for row in bucket:
            if row.node.equals(node):
                # one string per spelling: the row's, when they agree
                return row, row.line if line == row.line else line
        row = _Tree(node, line)
        bucket.append(row)
        return row, line

    def _diff(self, diff: Diff, texts: dict[int, str]) -> _DiffLine:
        row1, line1 = self._intern(diff.t1, texts) if diff.t1 is not None else (None, "")
        row2, line2 = self._intern(diff.t2, texts) if diff.t2 is not None else (None, "")
        prefix = (
            f'{{"kind": {_quote(diff.kind)}, '
            f'"leaf": {"true" if diff.is_leaf else "false"}, '
            f'"path": {_quote(str(diff.path))}, '
            f'"q1": {diff.q1}, "q2": {diff.q2}, "rec": "diff", '
        )
        if diff.source_path != diff.path:
            prefix += f'"source_path": {_quote(str(diff.source_path))}, '
        entry = (diff, prefix, row1, line1, row2, line2)
        self._diffs[id(diff)] = entry
        return entry

    def encode(
        self,
        graph: InteractionGraph,
        stats: BuildStats | None = None,
        extra: dict[str, Any] | None = None,
    ) -> bytes:
        """The graph's record bytes (see :func:`graph_to_jsonl_bytes`).

        Raises:
            CacheError: for an attribute value JSON cannot carry, or an
                edge whose diff is not in the graph's diffs table.
        """
        self._epoch += 1
        epoch = self._epoch
        # subtree texts of this call only: the graph keeps every id valid
        texts: dict[int, str] = {}
        tree_lines: list[str] = []

        def index(row: _Tree, line: str) -> int:
            """The row's index in this call's table, placing the row
            (written as ``line``) where it is first reached."""
            if row.epoch != epoch:
                row.epoch = epoch
                row.index = len(tree_lines)
                tree_lines.append(line)
            return row.index

        query_lines: list[str] = []
        for query in graph.queries:
            known = self._queries.get(id(query))
            if known is None or known[0] is not query:
                known = self._queries[id(query)] = (query, *self._intern(query, texts))
            query_lines.append(f'{{"rec": "query", "tree": {index(known[1], known[2])}}}')
        diff_lines: list[str] = []
        positions: dict[int, int] = {}
        for position, diff in enumerate(graph.diffs):
            entry = self._diffs.get(id(diff))
            if entry is None or entry[0] is not diff:
                entry = self._diff(diff, texts)
            _, prefix, row1, line1, row2, line2 = entry
            ref1 = "null" if row1 is None else index(row1, line1)
            ref2 = "null" if row2 is None else index(row2, line2)
            diff_lines.append(f'{prefix}"t1": {ref1}, "t2": {ref2}}}')
            positions[id(diff)] = position
        edge_lines: list[str] = []
        for edge in graph.edges:
            try:
                refs = ", ".join([str(positions[id(d)]) for d in edge.interaction])
            except KeyError as exc:
                raise CacheError(
                    f"edge ({edge.q1}, {edge.q2}) references a diff that is not "
                    "in the graph's diffs table"
                ) from exc
            edge_lines.append(
                f'{{"diffs": [{refs}], "q1": {edge.q1}, "q2": {edge.q2}, "rec": "edge"}}'
            )
        header: dict[str, Any] = {
            "rec": "header",
            "version": FORMAT_VERSION,
            "n_trees": len(tree_lines),
            "n_queries": len(query_lines),
            "n_diffs": len(diff_lines),
            "n_edges": len(edge_lines),
        }
        stats_payload = _stats_payload(stats)
        if stats_payload is not None:
            header["stats"] = stats_payload
        if extra:
            header["extra"] = extra
        # sort_keys throughout: two processes persisting the same graph
        # produce byte-identical records
        return "\n".join(
            [json.dumps(header, sort_keys=True), *tree_lines, *query_lines,
             *diff_lines, *edge_lines, ""]
        ).encode("utf-8")


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
# JSONL records and files
# ----------------------------------------------------------------------
def graph_to_jsonl_bytes(
    graph: InteractionGraph,
    stats: BuildStats | None = None,
    extra: dict[str, Any] | None = None,
    encoder: GraphEncoder | None = None,
) -> bytes:
    """The graph's record: the exact bytes :func:`save_graph` writes.

    ``encoder`` is a :class:`GraphEncoder` that encoded an earlier state
    of this graph (a session keeps one); only what was added since is
    encoded again.  Without one a fresh encoder writes the record.  The
    bytes are the same either way.

    Raises:
        CacheError: for an attribute value JSON cannot carry.
    """
    return (encoder or GraphEncoder()).encode(graph, stats, extra)


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
    data = graph_to_jsonl_bytes(graph, stats, extra)
    target = FilePath(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}-{uuid4().hex[:8]}.tmp")
    try:
        tmp.write_bytes(data)
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


def widgets_to_json_bytes(
    widgets: list[Widget], graph: InteractionGraph
) -> bytes:
    """A widget set's record payload: :func:`widgets_to_dict` as one
    sorted-key JSON document plus a newline."""
    # sort_keys: records must be byte-deterministic across processes for
    # digest-based comparison
    payload = widgets_to_dict(widgets, graph)
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


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
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheError(f"bad JSON in {label}") from exc
    if not isinstance(payload, dict):
        raise CacheError(f"{label} is not a JSON object payload")
    return widgets_from_dict(payload, graph, library, annotations)


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
