"""One-shot reference implementations — the oracles of the parity suites.

The library keeps one code path per concern: a one-shot ``generate()``
is an incremental run from an empty base (``extend_interaction_graph``
from an empty graph, Initialize and Merge over an empty ``MapCache``, a
fresh ``IncrementalCompiler``).  This module transcribes the paper's
one-shot algorithms directly, so that path has something independent to
be compared against:

* :func:`mine` — the Section 4.2 build loop with the Section 6.1 window:
  pairs ``(i, j)`` in lexicographic order;
* :func:`initialize` and :func:`merge` — Algorithm 1 over the flat diffs
  table, then the global Algorithm 3 fixed point with prefix-scan
  descendants (no components, no memo beyond one run's pickWidget);
* :func:`generate` — mine, map and merge a log into an ``Interface``;
* :func:`compose_sql` — one combination's query, composed and rendered:
  the reference of the page's JavaScript composer;
* :func:`compile_html` — every block rendered from scratch and, with a
  database, the product walk over the widgets' choices;
* :func:`tokenize` and :func:`parse_sql` — the character-by-character
  :class:`Lexer` and a plain recursive-descent parse of its tokens, with
  no template cache;
* :func:`graph_to_jsonl_bytes` — a graph record built as JSON values
  (``node_to_dict`` per subtree, one dict per record) and dumped line by
  line, with a fresh subtree interner: the reference of the library's
  :class:`~repro.cache.serialize.GraphEncoder`.

Only the per-pair alignment (``_compare_pair``), the per-widget rendering
units and the recursive-descent :class:`~repro.sqlparser.parser.Parser`
are shared with the library.
"""

from __future__ import annotations

import json
import time
from itertools import islice, product

from repro.compiler.html import (
    assemble_page,
    build_choice_list,
    compose_query,
    node_data,
    page_json,
    render_control_body,
    render_result,
    render_widget_block,
    render_widget_spec,
)
from repro.compiler.layout import grid_layout
from repro.cache.serialize import FORMAT_VERSION, node_to_dict
from repro.core.interface import Interface, as_interface
from repro.core.mapper import pick_widget
from repro.core.options import PipelineOptions
from repro.errors import CacheError, CompileError, MappingError, SQLSyntaxError
from repro.graph.build import _FULL, _MEMOISED, BuildStats, _compare_pair
from repro.graph.interaction import InteractionGraph
from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS
from repro.sqlparser.parser import Parser
from repro.sqlparser.render import render_sql
from repro.sqlparser.tokens import _MULTI_OPS, _SINGLE_OPS, KEYWORDS, Token, TokenKind


# ----------------------------------------------------------------------
# parse: one character at a time
# ----------------------------------------------------------------------
class Lexer:
    """Stateful scanner over a SQL string.

    Typical use is via the module-level :func:`tokenize` helper::

        tokens = tokenize("SELECT * FROM t")
    """

    def __init__(self, sql: str):
        self._sql = sql
        self._pos = 0
        self._n = len(sql)

    def tokens(self) -> list[Token]:
        """Scan the entire input and return the token list (EOF-terminated)."""
        out: list[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind is TokenKind.EOF:
                return out

    # ------------------------------------------------------------------
    # scanning internals
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < self._n:
            return self._sql[index]
        return ""

    def _skip_trivia(self) -> None:
        """Advance past whitespace and comments."""
        while self._pos < self._n:
            ch = self._sql[self._pos]
            if ch.isspace():
                self._pos += 1
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < self._n and self._sql[self._pos] != "\n":
                    self._pos += 1
            elif ch == "/" and self._peek(1) == "*":
                end = self._sql.find("*/", self._pos + 2)
                if end < 0:
                    raise SQLSyntaxError(
                        "unterminated block comment", self._sql, self._pos
                    )
                self._pos = end + 2
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        start = self._pos
        if self._pos >= self._n:
            return Token(TokenKind.EOF, "", start)
        ch = self._sql[self._pos]

        if ch == "(":
            self._pos += 1
            return Token(TokenKind.LPAREN, "(", start)
        if ch == ")":
            self._pos += 1
            return Token(TokenKind.RPAREN, ")", start)
        if ch == ",":
            self._pos += 1
            return Token(TokenKind.COMMA, ",", start)
        if ch == ";":
            self._pos += 1
            return Token(TokenKind.SEMICOLON, ";", start)
        if ch == "'":
            return self._scan_string(start)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._scan_number(start)
        if ch.isalpha() or ch == "_":
            return self._scan_word(start)
        if ch in ('"', "`", "["):
            return self._scan_quoted_ident(start)
        if ch == ".":
            self._pos += 1
            return Token(TokenKind.DOT, ".", start)
        for op in _MULTI_OPS:
            if self._sql.startswith(op, self._pos):
                self._pos += len(op)
                return Token(TokenKind.OPERATOR, op, start)
        if ch == "*":
            self._pos += 1
            return Token(TokenKind.STAR, "*", start)
        if ch in _SINGLE_OPS:
            self._pos += 1
            return Token(TokenKind.OPERATOR, ch, start)
        raise SQLSyntaxError(f"unexpected character {ch!r}", self._sql, start)

    def _scan_string(self, start: int) -> Token:
        """Scan a single-quoted string literal with ``''`` escapes."""
        self._pos += 1  # opening quote
        parts: list[str] = []
        while self._pos < self._n:
            ch = self._sql[self._pos]
            if ch == "'":
                if self._peek(1) == "'":  # escaped quote
                    parts.append("'")
                    self._pos += 2
                    continue
                self._pos += 1
                return Token(TokenKind.STRING, "".join(parts), start)
            parts.append(ch)
            self._pos += 1
        raise SQLSyntaxError("unterminated string literal", self._sql, start)

    def _scan_number(self, start: int) -> Token:
        if self._sql.startswith(("0x", "0X"), self._pos):
            self._pos += 2
            while self._pos < self._n and self._sql[self._pos] in "0123456789abcdefABCDEF":
                self._pos += 1
            text = self._sql[start:self._pos]
            if len(text) == 2:
                raise SQLSyntaxError("malformed hex literal", self._sql, start)
            return Token(TokenKind.HEXNUMBER, text, start)
        seen_dot = False
        seen_exp = False
        while self._pos < self._n:
            ch = self._sql[self._pos]
            if ch.isdigit():
                self._pos += 1
            elif ch == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self._pos += 1
            elif ch in "eE" and not seen_exp and self._pos > start:
                nxt = self._peek(1)
                if nxt.isdigit() or (nxt in "+-" and self._peek(2).isdigit()):
                    seen_exp = True
                    self._pos += 2 if nxt in "+-" else 1
                else:
                    break
            else:
                break
        return Token(TokenKind.NUMBER, self._sql[start:self._pos], start)

    def _scan_word(self, start: int) -> Token:
        while self._pos < self._n and (
            self._sql[self._pos].isalnum() or self._sql[self._pos] == "_"
        ):
            self._pos += 1
        word = self._sql[start:self._pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenKind.KEYWORD, upper, start)
        return Token(TokenKind.IDENT, word, start)

    def _scan_quoted_ident(self, start: int) -> Token:
        open_ch = self._sql[self._pos]
        close_ch = {"[": "]"}.get(open_ch, open_ch)
        self._pos += 1
        end = self._sql.find(close_ch, self._pos)
        if end < 0:
            raise SQLSyntaxError("unterminated quoted identifier", self._sql, start)
        word = self._sql[self._pos:end]
        self._pos = end + 1
        return Token(TokenKind.IDENT, word, start)


def tokenize(sql: str) -> list[Token]:
    """The reference lexer's token list, terminated by EOF."""
    return Lexer(sql).tokens()


def parse_sql(sql: str) -> Node:
    """Parse ``sql`` from the reference lexer's tokens, cache-free."""
    return Parser(sql, tokenize(sql)).parse_statement()


# ----------------------------------------------------------------------
# mine
# ----------------------------------------------------------------------
def mine(
    queries,
    window=None,
    prune=True,
    annotations=SQL_ANNOTATIONS,
    stats: BuildStats | None = None,
    memo=None,
) -> InteractionGraph:
    """Compare every pair ``i < j`` with ``j - i < window`` in ``(i, j)``
    order, recording diffs and edges as they come."""
    graph = InteractionGraph(queries=list(queries))
    span = len(queries) if window is None else window
    started = time.perf_counter()
    outcomes = []
    for i in range(len(queries)):
        for j in range(i + 1, min(len(queries), i + span)):
            outcomes.append(_compare_pair(graph, i, j, prune, annotations, memo))
    if stats is not None:
        stats.n_pairs_compared += len(outcomes)
        stats.mining_seconds += time.perf_counter() - started
        stats.n_alignments_memoised += outcomes.count(_MEMOISED)
        stats.n_alignments_full += outcomes.count(_FULL)
    return graph


# ----------------------------------------------------------------------
# the graph record: dicts, dumped line by line
# ----------------------------------------------------------------------
class _TreeInterner:
    """One index per structurally unique subtree, in first-seen order."""

    def __init__(self):
        self.trees = []
        self._buckets = {}

    def index_of(self, node):
        bucket = self._buckets.setdefault(node.fingerprint, [])
        for candidate, index in bucket:
            if candidate.equals(node):
                return index
        index = len(self.trees)
        self.trees.append(node)
        bucket.append((node, index))
        return index


def _diff_record(diff, interner):
    out = {
        "rec": "diff",
        "q1": diff.q1,
        "q2": diff.q2,
        "path": str(diff.path),
        "t1": interner.index_of(diff.t1) if diff.t1 is not None else None,
        "t2": interner.index_of(diff.t2) if diff.t2 is not None else None,
        "kind": diff.kind,
        "leaf": diff.is_leaf,
    }
    if diff.source_path != diff.path:
        out["source_path"] = str(diff.source_path)
    return out


def _edge_record(edge, diff_index):
    try:
        refs = [diff_index[id(d)] for d in edge.interaction]
    except KeyError as exc:
        raise CacheError(f"edge ({edge.q1}, {edge.q2}) references a missing diff") from exc
    return {"rec": "edge", "q1": edge.q1, "q2": edge.q2, "diffs": refs}


def graph_to_jsonl_bytes(graph, stats=None, extra=None) -> bytes:
    """A graph record: queries interned first, then each diff's ``t1``
    and ``t2`` in diff order; every line ``json.dumps(record,
    sort_keys=True)``."""
    interner = _TreeInterner()
    query_refs = [interner.index_of(q) for q in graph.queries]
    diffs = [_diff_record(d, interner) for d in graph.diffs]
    diff_index = {id(d): i for i, d in enumerate(graph.diffs)}
    edges = [_edge_record(e, diff_index) for e in graph.edges]
    trees = [node_to_dict(t) for t in interner.trees]
    header = {
        "rec": "header",
        "version": FORMAT_VERSION,
        "n_trees": len(trees),
        "n_queries": len(query_refs),
        "n_diffs": len(diffs),
        "n_edges": len(edges),
    }
    if stats is not None:
        header["stats"] = {
            "n_pairs_compared": stats.n_pairs_compared,
            "mining_seconds": stats.mining_seconds,
            "n_alignments_memoised": stats.n_alignments_memoised,
            "n_alignments_full": stats.n_alignments_full,
        }
    if extra:
        header["extra"] = extra
    records = [
        header,
        *({"rec": "tree", "node": tree} for tree in trees),
        *({"rec": "query", "tree": ref} for ref in query_refs),
        *diffs,
        *edges,
    ]
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ).encode("utf-8")


# ----------------------------------------------------------------------
# map: Algorithm 1, then the global Algorithm 3 fixed point
# ----------------------------------------------------------------------
def initialize(diffs, library, annotations=SQL_ANNOTATIONS):
    """One cheapest widget per path partition, in path order; partitions
    no widget type accepts are skipped."""
    partitions = {}
    for diff in diffs:
        partitions.setdefault(diff.path, []).append(diff)
    widgets = []
    for path in sorted(partitions):
        try:
            widget = pick_widget(partitions[path], library, annotations)
        except MappingError:
            continue
        if widget is not None:
            widgets.append(widget)
    return widgets


def _merge_step(ancestor, descendants, library, annotations, leaf_by_pair, picked):
    """Algorithm 3 for one ancestor and its prefix-descendants, with the
    edge-coverage guard; ``None`` when there is nothing to resolve."""
    shared = {q for d in ancestor.D for q in (d.q1, d.q2)} & {
        q for w in descendants for d in w.D for q in (d.q1, d.q2)
    }
    if not shared:
        return None
    descendant_diff_ids = {id(d) for w in descendants for d in w.D}
    ancestor_pairs = {(d.q1, d.q2) for d in ancestor.D}

    def descendants_cover(pair):
        required = [
            d
            for d in leaf_by_pair.get(pair, ())
            if ancestor.path.is_strict_prefix_of(d.path)
        ]
        return bool(required) and all(id(d) in descendant_diff_ids for d in required)

    overlap_a = [
        d
        for d in ancestor.D
        if d.q1 in shared and d.q2 in shared and descendants_cover((d.q1, d.q2))
    ]
    overlaps_d = [
        [
            d
            for d in w.D
            if d.q1 in shared and d.q2 in shared and (d.q1, d.q2) in ancestor_pairs
        ]
        for w in descendants
    ]
    if not overlap_a and not any(overlaps_d):
        return None

    def rebuilt(widget, removed):
        if not removed:
            return widget
        removed_ids = {id(d) for d in removed}
        kept = [d for d in widget.D if id(d) not in removed_ids]
        key = (widget.path, tuple(id(d) for d in kept))
        if key not in picked:
            picked[key] = pick_widget(kept, library, annotations)
        return picked[key]

    def cost_of(widget):
        return 0.0 if widget is None else widget.cost

    new_descendants = [rebuilt(w, o) for w, o in zip(descendants, overlaps_d)]
    savings_d = sum(
        cost_of(w) - cost_of(nw) for w, nw in zip(descendants, new_descendants)
    )
    new_ancestor = rebuilt(ancestor, overlap_a)
    savings_a = ancestor.cost - cost_of(new_ancestor)
    if savings_a > savings_d:
        return (new_ancestor, list(descendants), savings_a) if savings_a > 0 else None
    return (ancestor, new_descendants, savings_d) if savings_d > 0 else None


def merge(widgets, diffs, library, annotations=SQL_ANNOTATIONS):
    """The global fixed point: rounds of shallow-to-deep ancestor scans
    until a round changes nothing.  Returns ``(widgets, n_rounds)``."""
    leaf_by_pair = {}
    for diff in diffs:
        if diff.is_leaf:
            leaf_by_pair.setdefault((diff.q1, diff.q2), []).append(diff)
    picked = {}
    current = list(widgets)
    rounds = 0
    while True:
        rounds += 1
        changed = False
        current.sort(key=lambda w: (w.path.depth, w.path))
        live = {id(w) for w in current}
        for ancestor in list(current):
            if id(ancestor) not in live:
                continue
            descendants = [
                w for w in current if ancestor.path.is_strict_prefix_of(w.path)
            ]
            if not descendants:
                continue
            result = _merge_step(
                ancestor, descendants, library, annotations, leaf_by_pair, picked
            )
            if result is None:
                continue
            new_ancestor, new_descendants, _savings = result
            changed = True
            new_by_old = {id(w): nw for w, nw in zip(descendants, new_descendants)}
            replacement = []
            for widget in current:
                if widget is ancestor:
                    widget = new_ancestor
                elif id(widget) in new_by_old:
                    widget = new_by_old[id(widget)]
                if widget is not None:
                    replacement.append(widget)
            current = replacement
            live = {id(w) for w in current}
        if not changed:
            return current, rounds


def generate(queries, options: PipelineOptions | None = None) -> Interface:
    """Mine, map and merge ``queries`` (parsed ASTs) the one-shot way."""
    options = options or PipelineOptions()
    graph = mine(
        queries,
        window=options.window,
        prune=options.lca_pruning,
        annotations=options.annotations,
    )
    widgets = initialize(graph.diffs, options.library, options.annotations)
    if options.merge and widgets:
        widgets, _rounds = merge(
            widgets, graph.diffs, options.library, options.annotations
        )
    return Interface(
        widgets=widgets,
        initial_query=queries[0],
        annotations=options.annotations,
    )


def widget_coordinates(widgets):
    """Type, path, domain size and every ``D`` coordinate, in order — the
    byte-level identity the parity suites compare."""
    return [
        (
            w.widget_type.name,
            str(w.path),
            w.domain.size,
            [(d.q1, d.q2, str(d.path), str(d.source_path)) for d in w.D],
        )
        for w in widgets
    ]


# ----------------------------------------------------------------------
# compile: the product walk
# ----------------------------------------------------------------------
def page_widgets(interface, columns=2):
    """The page's widgets in grid order and each one's choice list."""
    plan = grid_layout(as_interface(interface), columns=columns)
    ordered = [cell.widget for cell in plan.cells]
    return ordered, [build_choice_list(widget) for widget in ordered]


def compose_sql(interface, ordered, choice_lists, combo) -> str:
    """The SQL of one combination of choice indices (grid order).

    Raises:
        CompileError: when the composed query cannot be rendered.
    """
    interface = as_interface(interface)
    return render_sql(
        compose_query(interface.initial_query, ordered, choice_lists, combo)
    )


def compile_html(
    interface, title="Precision Interface", database=None, limit=2048, columns=2
) -> str:
    """Render every widget block from scratch and, with a database,
    walk the first ``limit`` combinations of the widgets' choices in
    product order, keeping each new SQL text's result."""
    interface = as_interface(interface)
    if not interface.widgets:
        raise CompileError("cannot compile an interface with no widgets")
    plan = grid_layout(interface, columns=columns)
    ordered = [cell.widget for cell in plan.cells]
    choice_lists = [build_choice_list(widget) for widget in ordered]
    results = {}
    if database is not None:
        combos = product(*(range(len(c)) for c in choice_lists))
        for combo in islice(combos, limit):
            query = compose_query(interface.initial_query, ordered, choice_lists, combo)
            try:
                sql = render_sql(query)
            except CompileError:
                continue
            if sql not in results:
                results[sql] = render_result(query, database)
    widget_ids = [f"w{index}" for index in range(len(ordered))]
    blocks = [
        render_widget_block(
            widget_id,
            cell.label,
            cell.widget.widget_type.name,
            *render_control_body(cell.widget, choices),
            render_widget_spec(cell.widget, choices),
        )
        for widget_id, cell, choices in zip(widget_ids, plan.cells, choice_lists)
    ]
    return assemble_page(
        title,
        plan.columns,
        blocks,
        page_json(node_data(interface.initial_query)),
        results,
        widget_ids,
    )
