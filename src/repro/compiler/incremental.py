"""Interface compilation, maintained under appends (dirty-driven
re-rendering).

This module is the one compilation path: :class:`IncrementalCompiler`
maintains the compiled artifact under appends — the
incremental-view-maintenance shape of Berkholz et al. ("Answering FO+MOD
queries under updates"): pay for the dirty part only — and a one-shot
:func:`~repro.compiler.html.compile_html` is a fresh compiler's first page.

Three layers make that correct *and* byte-identical to a full recompile:

* **Per-widget artifacts.**  Every widget's expensive rendering — its
  choice list and its control body (the ``<option>`` labels, or a
  presence toggle's checkbox) — is cached in a
  :class:`WidgetArtifact`, keyed by the widget's path.  A widget's domain
  is a deterministic function of its picked type and its diff list ``D``,
  so an unchanged ``(type, D)`` identity proves the cached rendering
  still exact even when merging restructured *neighbouring* partitions
  (see :meth:`IncrementalCompiler._artifact_for`).  Clean widgets are
  also the *same objects* across appends (the merge memo), so identity
  is accepted as an equivalent proof.

* **Closure slices.**  The closure table is maintained as a delta.  Each
  combination's entry is cached under its *selection signature* — the
  ``(widget fingerprint, choice index)`` pairs of its non-default
  choices.  Fingerprints are content hashes (sha256 over the picked type,
  path, rendered domain labels, and the initialising diff-table indices
  — never the process-salted ``Node.fingerprint``), so a combination
  touching only clean widgets replays its cached slice byte-identically;
  only combinations involving a dirty widget are re-rendered.  With a
  database attached, a re-rendered combination executes only when its
  SQL text is new: the execution memo (SQL text → rendered result) holds
  every result the previous page showed, and a query is determined by
  its SQL text, so a held result replays byte-identically.

* **Patches.**  :meth:`IncrementalCompiler.compile_patch` emits the
  structural difference between consecutive pages — replaced widget
  blocks plus a closure delta — and :func:`apply_patch` folds a patch
  into a page state such that :func:`page_html` over the patched state is
  byte-identical to a full ``compile_html`` of the new interface.

Every cache is bounded by the live page: after a compile the compiler
holds the artifacts of the page's widgets, the slices of its closure
entries (at most ``limit``), and the execution results of its SQL — a
long-lived session's memory tracks its page, not its history.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import product
from typing import Any

from repro.compiler.html import (
    _option_label,
    assemble_page,
    build_choice_list,
    compose_query,
    render_closure_entry,
    render_control_body,
    render_widget_block,
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
#: a payload of a different version.
PATCH_VERSION = 1


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
    :func:`~repro.compiler.html.render_control_body`); the block itself is
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


@dataclass
class CompileStats:
    """Work counters across a compiler's lifetime (monotonic)."""

    widgets_rendered: int = 0
    widgets_reused: int = 0
    combos_rendered: int = 0
    combos_replayed: int = 0
    executions: int = 0
    executions_replayed: int = 0
    pages_reused: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "widgets_rendered": self.widgets_rendered,
            "widgets_reused": self.widgets_reused,
            "combos_rendered": self.combos_rendered,
            "combos_replayed": self.combos_replayed,
            "executions": self.executions,
            "executions_replayed": self.executions_replayed,
            "pages_reused": self.pages_reused,
        }


@dataclass
class CompiledPage:
    """One compiled interface page, decomposed for patching.

    ``blocks`` maps widget element ids to their HTML blocks in grid
    order; ``closure`` maps combination keys (``"i|j|k"``) to closure
    entries; ``widget_fingerprints`` records the content hash of each
    widget in the same order as ``widget_ids``.
    """

    fingerprint: str
    title: str
    columns: int
    initial_sql: str
    widget_ids: list[str]
    widget_fingerprints: list[str]
    blocks: dict[str, str]
    closure: dict[str, dict[str, str]]

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
            "widget_ids": list(self.widget_ids),
            "widget_fingerprints": list(self.widget_fingerprints),
            "blocks": dict(self.blocks),
            "closure": {key: dict(entry) for key, entry in self.closure.items()},
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
        state["closure"],
        list(state["widget_ids"]),
    )


def make_patch(before: CompiledPage | None, after: CompiledPage) -> dict[str, Any]:
    """The structural difference between two consecutive pages.

    A ``kind="page"`` patch carries the full state (first compile, or a
    title/layout change); a ``kind="patch"`` carries only replaced widget
    blocks and the closure delta.
    """
    if (
        before is None
        or before.title != after.title
        or before.columns != after.columns
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
        key: entry
        for key, entry in after.closure.items()
        if before.closure.get(key) != entry
    }
    closure_del = [key for key in before.closure if key not in after.closure]
    return {
        "version": PATCH_VERSION,
        "kind": "patch",
        "fingerprint": after.fingerprint,
        "base": before.fingerprint,
        "initial_sql": after.initial_sql,
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
    for key in patch["closure_del"]:
        closure.pop(key, None)
    closure.update(patch["closure_set"])
    return {
        "version": PATCH_VERSION,
        "fingerprint": patch["fingerprint"],
        "title": state["title"],
        "columns": state["columns"],
        "initial_sql": patch["initial_sql"],
        "widget_ids": list(patch["widget_ids"]),
        "widget_fingerprints": list(patch["widget_fingerprints"]),
        "blocks": blocks,
        "closure": closure,
    }


class IncrementalCompiler:
    """Maintain a compiled interface page under session appends.

    Args:
        title: page title (part of the page fingerprint).
        database: optional in-memory database; closure entries embed
            executed results, with re-execution memoised per SQL string.
        limit: cap on pre-evaluated widget-state combinations.
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
        self._slices: dict[tuple[tuple[str, int], ...], dict[str, str]] = {}
        self._results: dict[str, str] = {}
        self._initial_sql: str | None = None
        self._page: CompiledPage | None = None

    @property
    def page(self) -> CompiledPage | None:
        """The most recently compiled page, if any."""
        return self._page

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, interface: Interface) -> CompiledPage:
        """Compile ``interface`` (or a result), reusing every artifact,
        closure slice and execution result that is provably unchanged.

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
            # a different q0 invalidates every cached combination (they
            # were composed against the old initial query)
            self._slices.clear()
            self._initial_sql = initial_sql

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

        closure = self._closure(interface, ordered, artifacts)

        widget_ids = [f"w{i}" for i in range(len(ordered))]
        blocks: dict[str, str] = {}
        for widget_id, cell, artifact in zip(widget_ids, plan.cells, artifacts):
            blocks[widget_id] = render_widget_block(
                widget_id,
                cell.label,
                artifact.widget.widget_type.name,
                artifact.kind,
                artifact.body,
            )
        self._page = CompiledPage(
            fingerprint=fingerprint,
            title=self.title,
            columns=plan.columns,
            initial_sql=initial_sql,
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
        digest.update(f"{self.columns}|{self.limit}".encode("utf-8"))
        digest.update(b"\x00")
        digest.update(b"db" if self.database is not None else b"nodb")
        digest.update(b"\x00")
        digest.update(initial_sql.encode("utf-8"))
        for artifact in artifacts:
            digest.update(b"\x1f")
            digest.update(artifact.fingerprint.encode("utf-8"))
        return digest.hexdigest()[:16]

    def _closure(
        self,
        interface: Interface,
        ordered: list[Widget],
        artifacts: list[WidgetArtifact],
    ) -> dict[str, dict[str, str]]:
        """Enumerate the closure in product order, replaying cached
        slices and re-rendering only dirty combinations.

        ``product`` varies the rightmost position fastest, so within the
        first ``limit`` combinations only a short suffix of positions
        ever leaves index 0.  Enumerating just that suffix (the prefix is
        a constant run of zeros) makes the per-combination key and
        signature work O(suffix), not O(n_widgets) — on a wide page the
        steady-state compile is dominated by exactly this loop.

        The walk builds the next slice table from the entries it uses, so
        slices the page no longer shows are dropped, and with them the
        execution results of SQL the page no longer shows.
        """
        choice_lists = [artifact.choices for artifact in artifacts]
        fingerprints = [artifact.fingerprint for artifact in artifacts]
        closure: dict[str, dict[str, str]] = {}
        slices: dict[tuple[tuple[str, int], ...], dict[str, str]] = {}
        lengths = [len(choices) for choices in choice_lists]
        split, cap = len(lengths), 1
        while split > 0 and (cap < self.limit or split == len(lengths)):
            split -= 1
            cap *= lengths[split]
        zero_prefix = (0,) * split
        key_prefix = "0|" * split
        for tail in product(*(range(n) for n in lengths[split:])):
            if len(closure) >= self.limit:
                break
            signature = tuple(
                (fingerprints[split + pos], idx)
                for pos, idx in enumerate(tail)
                if idx != 0
            )
            entry = self._slices.get(signature)
            if entry is None:
                entry = self._render_combo(
                    interface,
                    ordered,
                    choice_lists,
                    zero_prefix + tail,
                )
                self.stats.combos_rendered += 1
            else:
                self.stats.combos_replayed += 1
            slices[signature] = entry
            closure[key_prefix + "|".join(map(str, tail))] = entry
        self._slices = slices
        if self._results:
            live_sql = {entry["sql"] for entry in closure.values()}
            self._results = {
                sql: result
                for sql, result in self._results.items()
                if sql in live_sql
            }
        return closure

    def _render_combo(
        self,
        interface: Interface,
        ordered: list[Widget],
        choice_lists: list[list[Node | None | str]],
        combo: tuple[int, ...],
    ) -> dict[str, str]:
        """Render (and with a database, execute) one dirty combination.

        The execution memo (SQL text → rendered result) replays any SQL
        the previous page held; only new SQL text reaches the database.
        """
        query = compose_query(interface.initial_query, ordered, choice_lists, combo)
        if self.database is None:
            return render_closure_entry(query, None)
        sql = render_sql(query)
        cached_result = self._results.get(sql)
        if cached_result is not None:
            self.stats.executions_replayed += 1
            return {"sql": sql, "result": cached_result}
        entry = render_closure_entry(query, self.database)
        self.stats.executions += 1
        self._results[sql] = entry["result"]
        return entry
