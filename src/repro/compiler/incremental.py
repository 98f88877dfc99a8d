"""Interface compilation, maintained under appends (dirty-driven
re-rendering).

This module is the one compilation path: :class:`IncrementalCompiler`
maintains the compiled artifact under appends — the
incremental-view-maintenance shape of Berkholz et al. ("Answering FO+MOD
queries under updates"): pay for the dirty part only — and a one-shot
:func:`~repro.compiler.html.compile_html` is a fresh compiler's first page.

The page never lists the closure: it ships each widget's domain and
composes the query of a combination in the browser (the decomposed
product form of Koch & Olteanu's world sets), so a compile costs
O(dirty widgets).  Three layers make that correct *and* byte-identical
to a full recompile:

* **Per-widget artifacts.**  Every widget's expensive rendering — its
  choice list, its control body (the ``<option>`` labels, or a presence
  toggle's checkbox) and its composer data (path, deletion guard, choice
  subtrees as JSON) — is cached in a :class:`WidgetArtifact`, keyed by
  the widget's path.  A widget's domain is a deterministic function of
  its picked type and its diff list ``D``, so an unchanged ``(type, D)``
  identity proves the cached rendering still exact even when merging
  restructured *neighbouring* partitions (see
  :meth:`IncrementalCompiler._artifact_for`).  Clean widgets are also
  the *same objects* across appends (the merge memo), so identity is
  accepted as an equivalent proof.  The initial query's JSON is cached
  while its SQL is unchanged.

* **Pre-evaluated results (with a database only).**  The page embeds
  the results of the first ``limit`` combinations in product order,
  keyed by SQL text.  A query executes only when its SQL text is new to
  the page: the execution memo (SQL text → rendered result) holds every
  result the previous page showed, and a query is determined by its SQL
  text, so a held result replays byte-identically.

* **Patches.**  :meth:`IncrementalCompiler.compile_patch` emits the
  structural difference between consecutive pages — replaced widget
  blocks (a widget's composer data rides in its block) plus the results
  delta — and :func:`apply_patch` folds a patch into a page state such
  that :func:`page_html` over the patched state is byte-identical to a
  full ``compile_html`` of the new interface.

Every cache is bounded by the live page: after a compile the compiler
holds the artifacts of the page's widgets and the execution results of
its SQL — a long-lived session's memory tracks its page, not its
history.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice, product
from typing import Any

from repro.compiler.html import (
    _option_label,
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
from repro.compiler.runtime import Database
from repro.core.interface import Interface, as_interface
from repro.errors import CompileError
from repro.sqlparser.astnodes import Node
from repro.sqlparser.render import render_sql
from repro.widgets.base import Widget

__all__ = [
    "IncrementalCompiler",
    "CompiledPage",
    "CompileStats",
    "WidgetArtifact",
    "widget_fingerprint",
    "make_patch",
    "apply_patch",
    "page_html",
]

#: Version tag carried by page states and patches; a consumer must reject
#: a payload of a different version.  Version 2: pages compose queries
#: from the widgets' composer data, and ``closure`` holds results keyed
#: by SQL text.
PATCH_VERSION = 2


def widget_fingerprint(widget: Widget) -> str:
    """Process-stable content hash of a widget.

    Derived from the picked widget type, the path, the rendered domain
    entry labels (deterministic SQL text), and the widget's initialising
    diff-table indices — everything the compiled control depends on.
    Deliberately *not* built from ``Node.fingerprint``/``skeleton``,
    which are process-salted and must never reach a persisted payload
    (lint rule RL006).
    """
    digest = hashlib.sha256()
    digest.update(widget.widget_type.name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(widget.path).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(b"1" if widget.domain.includes_none else b"0")
    for entry in widget.domain.entries():
        digest.update(b"\x1f")
        digest.update(_option_label(entry).encode("utf-8"))
    for diff in sorted(widget.D, key=lambda d: (d.q1, d.q2)):
        digest.update(b"\x1e")
        digest.update(f"{diff.q1},{diff.q2}".encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class WidgetArtifact:
    """The cached compilation of one widget.

    ``(kind, body)`` is the expensive position-independent rendering (see
    :func:`~repro.compiler.html.render_control_body`) and ``spec`` the
    JSON text of its composer data, choices included (see
    :func:`~repro.compiler.html.render_widget_spec`); the block itself is
    reassembled per page because the element id is positional.
    ``identity`` is the cheap reuse proof — the picked type plus the
    diff-list coordinates the domain was derived from.
    """

    fingerprint: str
    identity: tuple[str, tuple[tuple[int, int, str, str], ...]]
    widget: Widget
    choices: list[Node | None | str]
    kind: str
    body: str
    spec: str


@dataclass
class CompileStats:
    """Work counters across a compiler's lifetime (monotonic)."""

    widgets_rendered: int = 0
    widgets_reused: int = 0
    executions: int = 0
    executions_replayed: int = 0
    pages_reused: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "widgets_rendered": self.widgets_rendered,
            "widgets_reused": self.widgets_reused,
            "executions": self.executions,
            "executions_replayed": self.executions_replayed,
            "pages_reused": self.pages_reused,
        }


@dataclass
class CompiledPage:
    """One compiled interface page, decomposed for patching.

    ``initial_query`` is q0's JSON text; ``blocks`` maps widget element
    ids to their HTML blocks (composer data included) in grid order;
    ``closure`` maps SQL text to a pre-evaluated result (empty without a
    database); ``widget_fingerprints`` records the content hash of each
    widget in the same order as ``widget_ids``.
    """

    fingerprint: str
    title: str
    columns: int
    initial_sql: str
    initial_query: str
    widget_ids: list[str]
    widget_fingerprints: list[str]
    blocks: dict[str, str]
    closure: dict[str, str]

    def html(self) -> str:
        """The full page — byte-identical to ``compile_html``."""
        return page_html(self.to_state())

    def to_state(self) -> dict[str, Any]:
        """The page as a plain-JSON state dict (the base
        :func:`apply_patch` operates on)."""
        return {
            "version": PATCH_VERSION,
            "fingerprint": self.fingerprint,
            "title": self.title,
            "columns": self.columns,
            "initial_sql": self.initial_sql,
            "initial_query": self.initial_query,
            "widget_ids": list(self.widget_ids),
            "widget_fingerprints": list(self.widget_fingerprints),
            "blocks": dict(self.blocks),
            "closure": dict(self.closure),
        }


def page_html(state: dict[str, Any]) -> str:
    """Render a page state dict to the full HTML document.

    Pure over the state: a state reached through any patch sequence
    renders byte-identically to the state compiled in one shot.
    """
    blocks = state["blocks"]
    return assemble_page(
        state["title"],
        int(state["columns"]),
        [blocks[widget_id] for widget_id in state["widget_ids"]],
        state["initial_query"],
        state["closure"],
        list(state["widget_ids"]),
    )


def make_patch(before: CompiledPage | None, after: CompiledPage) -> dict[str, Any]:
    """The structural difference between two consecutive pages.

    A ``kind="page"`` patch carries the full state (first compile, or a
    title, layout or initial-query change); a ``kind="patch"`` carries
    only replaced widget blocks and the results delta.
    """
    if (
        before is None
        or before.title != after.title
        or before.columns != after.columns
        or before.initial_query != after.initial_query
    ):
        return {
            "version": PATCH_VERSION,
            "kind": "page",
            "fingerprint": after.fingerprint,
            "base": None,
            "page": after.to_state(),
        }
    blocks = {
        widget_id: block
        for widget_id, block in after.blocks.items()
        if before.blocks.get(widget_id) != block
    }
    removed = [wid for wid in before.widget_ids if wid not in after.blocks]
    closure_set = {
        sql: result
        for sql, result in after.closure.items()
        if before.closure.get(sql) != result
    }
    closure_del = [sql for sql in before.closure if sql not in after.closure]
    return {
        "version": PATCH_VERSION,
        "kind": "patch",
        "fingerprint": after.fingerprint,
        "base": before.fingerprint,
        "widget_ids": list(after.widget_ids),
        "widget_fingerprints": list(after.widget_fingerprints),
        "blocks": blocks,
        "removed": removed,
        "closure_set": closure_set,
        "closure_del": closure_del,
    }


def apply_patch(state: dict[str, Any] | None, patch: dict[str, Any]) -> dict[str, Any]:
    """Fold one patch into a page state, returning the new state.

    Raises:
        CompileError: on a version mismatch, a ``kind="patch"`` with no
            base state, or a base fingerprint mismatch (the subscriber
            missed an event and must request a full page).
    """
    if patch.get("version") != PATCH_VERSION:
        raise CompileError(
            f"unsupported patch version {patch.get('version')!r} "
            f"(supported: {PATCH_VERSION})"
        )
    if patch["kind"] == "page":
        return {k: v for k, v in patch["page"].items()}
    if state is None:
        raise CompileError("cannot apply an incremental patch without a base page")
    if state.get("fingerprint") != patch.get("base"):
        raise CompileError(
            "patch base mismatch: have "
            f"{state.get('fingerprint')!r}, patch expects {patch.get('base')!r}"
        )
    blocks = dict(state["blocks"])
    for widget_id in patch["removed"]:
        blocks.pop(widget_id, None)
    blocks.update(patch["blocks"])
    closure = dict(state["closure"])
    for sql in patch["closure_del"]:
        closure.pop(sql, None)
    closure.update(patch["closure_set"])
    return {
        "version": PATCH_VERSION,
        "fingerprint": patch["fingerprint"],
        "title": state["title"],
        "columns": state["columns"],
        "initial_sql": state["initial_sql"],
        "initial_query": state["initial_query"],
        "widget_ids": list(patch["widget_ids"]),
        "widget_fingerprints": list(patch["widget_fingerprints"]),
        "blocks": blocks,
        "closure": closure,
    }


class IncrementalCompiler:
    """Maintain a compiled interface page under session appends.

    Args:
        title: page title (part of the page fingerprint).
        database: optional in-memory database; the page embeds the
            executed results of the first ``limit`` combinations, with
            re-execution memoised per SQL string.
        limit: with a database, how many combinations (in product
            order) to pre-evaluate; without one it changes nothing.
        columns: grid columns.

    Usage::

        compiler = IncrementalCompiler()
        page = compiler.compile(session.interface)
        page.html()                     # == compile_html(session.interface)
        session.append_sql(more)
        patch = compiler.compile_patch(session.interface)
    """

    def __init__(
        self,
        title: str = "Precision Interface",
        database: Database | None = None,
        limit: int = 2048,
        columns: int = 2,
    ) -> None:
        self.title = title
        self.database = database
        self.limit = limit
        self.columns = columns
        self.stats = CompileStats()
        self._artifacts: dict[str, WidgetArtifact] = {}
        self._results: dict[str, str] = {}
        self._initial_sql: str | None = None
        self._initial_query = ""
        self._page: CompiledPage | None = None

    @property
    def page(self) -> CompiledPage | None:
        """The most recently compiled page, if any."""
        return self._page

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, interface: Interface) -> CompiledPage:
        """Compile ``interface`` (or a result), reusing every artifact
        and execution result that is provably unchanged.

        Raises:
            CompileError: when the interface has no widgets.
        """
        interface = as_interface(interface)
        if not interface.widgets:
            raise CompileError("cannot compile an interface with no widgets")
        plan = grid_layout(interface, columns=self.columns)
        ordered = [cell.widget for cell in plan.cells]

        initial_sql = render_sql(interface.initial_query)
        if initial_sql != self._initial_sql:
            self._initial_sql = initial_sql
            self._initial_query = page_json(node_data(interface.initial_query))

        artifacts = [self._artifact_for(widget) for widget in ordered]
        # keep only the live page's artifacts
        self._artifacts = {
            str(widget.path): artifact
            for widget, artifact in zip(ordered, artifacts)
        }

        fingerprint = self._page_fingerprint(initial_sql, artifacts)
        if self._page is not None and self._page.fingerprint == fingerprint:
            self.stats.pages_reused += 1
            return self._page

        closure = (
            {}
            if self.database is None
            else self._evaluate(interface, self.database, artifacts)
        )

        widget_ids = [f"w{i}" for i in range(len(ordered))]
        blocks: dict[str, str] = {}
        for widget_id, cell, artifact in zip(widget_ids, plan.cells, artifacts):
            blocks[widget_id] = render_widget_block(
                widget_id,
                cell.label,
                artifact.widget.widget_type.name,
                artifact.kind,
                artifact.body,
                artifact.spec,
            )
        self._page = CompiledPage(
            fingerprint=fingerprint,
            title=self.title,
            columns=plan.columns,
            initial_sql=initial_sql,
            initial_query=self._initial_query,
            widget_ids=widget_ids,
            widget_fingerprints=[a.fingerprint for a in artifacts],
            blocks=blocks,
            closure=closure,
        )
        return self._page

    def compile_patch(self, interface: Interface) -> dict[str, Any]:
        """Compile and return the structural patch against the previous
        page (a full ``kind="page"`` patch on the first compile; an empty
        delta when nothing changed)."""
        before = self._page
        after = self.compile(interface)
        return make_patch(before, after)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _identity(
        widget: Widget,
    ) -> tuple[str, tuple[tuple[int, int, str, str], ...]]:
        """The widget's cheap content identity: picked type plus the
        coordinates of every diff its domain was merged from.

        The domain (entries *and* their order) is a deterministic
        function of the picked type and the diff sequence ``D`` —
        Initialize and Merge build it from exactly those records, which
        are immutable once mined.  Comparing coordinates is O(|D|) tuple
        work, no label rendering.
        """
        return (
            widget.widget_type.name,
            tuple(
                (d.q1, d.q2, str(d.path), str(d.source_path)) for d in widget.D
            ),
        )

    def _artifact_for(self, widget: Widget) -> WidgetArtifact:
        """The widget's artifact, reused when provably clean.

        Reuse proof, either of: the cached widget *is* this widget
        (identity — the merge memo's clean-component guarantee), or the
        widget's content identity — picked type + diff-list coordinates,
        which determine the domain — is unchanged.  A partition revision
        would not do: merging can move a diff out of a partition without
        updating the losing partition's revision, so an unmoved revision
        does not prove the widget's merged diff list (and hence its
        domain) unchanged.
        """
        key = str(widget.path)
        cached = self._artifacts.get(key)
        # object identity first: the merge memo returns the same object
        # for clean components, and the identity tuple of an identical
        # object cannot differ — skip the O(|D|) coordinate walk
        if cached is not None and (
            cached.widget is widget or cached.identity == self._identity(widget)
        ):
            self.stats.widgets_reused += 1
            cached.widget = widget
            return cached
        identity = self._identity(widget)
        choices = build_choice_list(widget)
        kind, body = render_control_body(widget, choices)
        artifact = WidgetArtifact(
            fingerprint=widget_fingerprint(widget),
            identity=identity,
            widget=widget,
            choices=choices,
            kind=kind,
            body=body,
            spec=render_widget_spec(widget, choices),
        )
        self._artifacts[key] = artifact
        self.stats.widgets_rendered += 1
        return artifact

    def _page_fingerprint(
        self, initial_sql: str, artifacts: list[WidgetArtifact]
    ) -> str:
        """Content hash of the whole page: widget-set fingerprints in
        grid order plus everything else the output depends on."""
        digest = hashlib.sha256()
        digest.update(self.title.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(str(self.columns).encode("utf-8"))
        digest.update(b"\x00")
        # the limit shapes a page only through its pre-evaluated results
        digest.update(
            b"nodb" if self.database is None else f"db|{self.limit}".encode("utf-8")
        )
        digest.update(b"\x00")
        digest.update(initial_sql.encode("utf-8"))
        for artifact in artifacts:
            digest.update(b"\x1f")
            digest.update(artifact.fingerprint.encode("utf-8"))
        return digest.hexdigest()[:16]

    def _evaluate(
        self,
        interface: Interface,
        database: Database,
        artifacts: list[WidgetArtifact],
    ) -> dict[str, str]:
        """The results of the first ``limit`` combinations in product
        order, keyed by SQL text.

        A query executes only when its SQL text is new to the page; the
        memo then keeps exactly the page's results, so results of SQL
        the page no longer shows are dropped.  A combination whose query
        cannot be rendered has no result (the page's composer reports
        it).
        """
        ordered = [artifact.widget for artifact in artifacts]
        choice_lists = [artifact.choices for artifact in artifacts]
        combos = product(*(range(len(choices)) for choices in choice_lists))
        results: dict[str, str] = {}
        for combo in islice(combos, self.limit):
            query = compose_query(interface.initial_query, ordered, choice_lists, combo)
            try:
                sql = render_sql(query)
            except CompileError:
                continue
            if sql in results:
                continue
            result = self._results.get(sql)
            if result is None:
                result = render_result(query, database)
                self.stats.executions += 1
            else:
                self.stats.executions_replayed += 1
            results[sql] = result
        self._results = results
        return results
