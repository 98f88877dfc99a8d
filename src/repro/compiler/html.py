"""Interface → standalone HTML+JavaScript web application (Section 5.3).

"We then compile the interface into a web application that executes an
internal query q by running the provided exec() function, and renders the
results using the user provided render() method."

The page composes q itself.  It ships the initial query's AST, each
widget's path, deletion guard and choice subtrees (in the widget's
block), and one small composer (``composer.js``, a port of
:func:`compose_query`, :func:`~repro.core.closure.apply_widget_choice`
and :func:`~repro.sqlparser.render.render_sql`): moving a widget
composes the query of the current combination and shows its SQL, for
every combination of widget states.  Offline there is no query server,
so with a :class:`~repro.compiler.runtime.Database` the compiler
pre-evaluates the first ``limit`` combinations and embeds their results,
keyed by SQL text; the page shows a combination's result when its SQL
is among them.  The generated file is fully self-contained — the
interaction loop of Figure 2b.

The compilation is factored into pure per-widget units, which the
compiler (:mod:`repro.compiler.incremental`) composes:

* :func:`build_choice_list` — a widget's enumerable states;
* :func:`render_control_body` — the expensive per-widget rendering (the
  ``<option>`` labels, or the checkbox ``data-on`` index for presence
  toggles);
* :func:`render_widget_spec` — the widget's composer data (path, guard,
  choice subtrees) as page-ready JSON;
* :func:`render_widget_block` — the cheap per-widget block assembly;
* :func:`page_json` / :func:`node_data` — JSON safe inside the page's
  script, and the composer's tree form of an AST;
* :func:`assemble_page` — the page template, with a canonical result
  order so any route to the same page yields identical bytes.

:func:`compile_html` is the page of a fresh
:class:`~repro.compiler.incremental.IncrementalCompiler` — one-shot
compilation is incremental compilation from nothing.
"""

from __future__ import annotations

import html as html_escape
import json
from functools import cache
from importlib.resources import files
from typing import Any

from repro.compiler.runtime import Database, execute, render_text
from repro.core.closure import apply_widget_choice
from repro.core.interface import Interface
from repro.errors import CompileError
from repro.sqlparser.astnodes import Node
from repro.sqlparser.render import render_fragment
from repro.widgets.base import Widget

__all__ = [
    "compile_html",
    "build_choice_list",
    "render_control_body",
    "render_widget_spec",
    "render_widget_block",
    "render_result",
    "node_data",
    "page_json",
    "composer_source",
    "assemble_page",
]

_UNCHANGED = "(unchanged)"
_ABSENT = "(none)"

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; background: #fafafa; }}
h1 {{ font-size: 1.3em; }}
.grid {{ display: grid; grid-template-columns: repeat({columns}, minmax(220px, 1fr));
        gap: 1em; max-width: 60em; }}
.widget {{ background: white; border: 1px solid #ddd; border-radius: 6px;
          padding: 0.8em; }}
.widget label {{ display: block; font-weight: bold; margin-bottom: 0.4em;
               font-size: 0.9em; }}
#sql {{ font-family: monospace; background: #272822; color: #f8f8f2;
       padding: 1em; border-radius: 6px; max-width: 60em; margin-top: 1em;
       white-space: pre-wrap; }}
#result {{ font-family: monospace; white-space: pre; background: white;
          border: 1px solid #ddd; padding: 1em; border-radius: 6px;
          max-width: 60em; margin-top: 1em; overflow-x: auto; }}
.miss {{ color: #b00; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div class="grid">
{widgets}
</div>
<div id="sql"></div>
<div id="result"></div>
<script>
const Q0 = {initial_query};
const RESULTS = {results};
const WIDGET_IDS = {widget_ids};
{composer}</script>
</body>
</html>
"""


#: Literal leaves the page takes as SQL text from Python's renderer:
#: JavaScript spells numbers differently (``1e-05`` is ``0.00001`` there)
#: and loses the digits of integers beyond 2**53.
_TEXT_LEAVES = frozenset({"NumExpr", "HexExpr", "StrExpr", "BoolExpr"})


@cache
def composer_source() -> str:
    """The page's composer script (``composer.js``, package data): a
    fixed part of every page, read once."""
    return files("repro.compiler").joinpath("composer.js").read_text(encoding="utf-8")


def page_json(value: Any) -> str:
    """``value`` as JSON that cannot end or comment out the page's
    script: ``</`` and ``<!--`` inside strings are escaped."""
    text = json.dumps(value, separators=(",", ":"))
    return text.replace("</", "<\\/").replace("<!--", "<\\u0021--")


def node_data(node: Node) -> dict[str, Any]:
    """A subtree as the composer's JSON tree: ``t`` its type, ``a`` its
    attributes, ``s`` a literal leaf's SQL text, ``c`` its children
    (empty members omitted).

    Raises:
        CompileError: for a literal leaf that does not render.
    """
    data: dict[str, Any] = {"t": node.node_type}
    if node.node_type in _TEXT_LEAVES:
        data["s"] = render_fragment(node)
    elif node.attributes:
        data["a"] = node.attributes
    if node.children:
        data["c"] = [node_data(child) for child in node.children]
    return data


def _option_label(entry: Node | None) -> str:
    """A choice's option text: its SQL, or its node label when the
    subtree does not render."""
    if entry is None:
        return _ABSENT
    try:
        return render_fragment(entry)
    except CompileError:
        return entry.label()


# ----------------------------------------------------------------------
# per-widget units (shared with repro.compiler.incremental)
# ----------------------------------------------------------------------
def build_choice_list(widget: Widget) -> list[Node | None | str]:
    """A widget's enumerable states: index 0 is always "(unchanged)",
    then the domain entries (extrapolating widgets sampled at their first
    five initialising subtrees, as enumeration cannot cover a range)."""
    choices: list[Node | None | str] = [_UNCHANGED]
    entries = list(widget.domain.entries())
    if widget.widget_type.extrapolates and len(entries) > 5:
        entries = entries[:5]
    choices.extend(entries)
    return choices


def _checkbox_on_index(widget: Widget, choices: list[Node | None | str]) -> int | None:
    """The choice index a presence toggle's checkbox selects when checked,
    or None when the widget is not a presence toggle."""
    if widget.widget_type.name != "toggle_button":
        return None
    if len(choices) != 3 or None not in choices:
        return None
    return next(i for i, c in enumerate(choices) if isinstance(c, Node))


def render_control_body(
    widget: Widget, choices: list[Node | None | str]
) -> tuple[str, str]:
    """The expensive, position-independent part of a widget's control.

    Returns ``(kind, body)``: ``("checkbox", on_index)`` for a presence
    toggle (checkbox semantics over {unchanged, on} — checked swaps the
    element in, unchecked leaves the query unchanged), or
    ``("select", options_html)`` with every domain entry rendered to an
    escaped ``<option>`` label.
    """
    on_index = _checkbox_on_index(widget, choices)
    if on_index is not None:
        return ("checkbox", str(on_index))
    options = "".join(
        f'<option value="{i}">{html_escape.escape(_option_label(c) if not isinstance(c, str) else c)}</option>'
        for i, c in enumerate(choices)
    )
    return ("select", options)


def render_widget_spec(widget: Widget, choices: list[Node | None | str]) -> str:
    """The widget's composer data — its path, deletion guard
    (``domain.node_types``) and the subtree of every choice after
    "(unchanged)" — as JSON text ready for a single-quoted attribute."""
    spec = page_json(
        {
            "path": list(widget.path.steps),
            "guard": sorted(widget.domain.node_types),
            "choices": [
                None if choice is None else node_data(choice)  # type: ignore[arg-type]
                for choice in choices[1:]
            ],
        }
    )
    return spec.replace("&", "&amp;").replace("'", "&#x27;")


def render_widget_block(
    widget_id: str, label: str, tag: str, kind: str, body: str, spec: str
) -> str:
    """Assemble one widget's HTML block from its rendered control body
    and composer data.

    Cheap by design (string concatenation only): the incremental compiler
    re-runs this for every widget on every page — the element id depends
    on grid position — while ``(kind, body, spec)`` is reused from the
    artifact cache.
    """
    if kind == "checkbox":
        control = (
            f'<input type="checkbox" id="{widget_id}" data-on="{body}" '
            f"data-spec='{spec}'>"
        )
    else:
        control = f"<select id=\"{widget_id}\" data-spec='{spec}'>{body}</select>"
    return (
        f'<div class="widget"><label>{html_escape.escape(label)} '
        f'<small>({tag})</small></label>{control}</div>'
    )


def compose_query(
    initial_query: Node,
    ordered: list[Widget],
    choice_lists: list[list[Node | None | str]],
    combo: tuple[int, ...],
) -> Node:
    """Apply one combination of widget states to the initial query, in
    grid order (ancestors first); the page's composer ports this."""
    query = initial_query
    for widget, choices, choice_index in zip(ordered, choice_lists, combo):
        choice = choices[choice_index]
        if choice == _UNCHANGED:
            continue
        query = apply_widget_choice(query, widget, choice)  # type: ignore[arg-type]
    return query


def render_result(query: Node, database: Database) -> str:
    """A composed query's executed result as page text (execution
    failures are surfaced in the page)."""
    try:
        return render_text(execute(query, database))
    except Exception as exc:  # noqa: BLE001 - surface in the page
        return f"(execution failed: {exc})"


def assemble_page(
    title: str,
    columns: int,
    widget_blocks: list[str],
    initial_query: str,
    results: dict[str, str],
    widget_ids: list[str],
) -> str:
    """Fill the page template from its pre-rendered parts.

    ``initial_query`` is q0's :func:`page_json` text; ``results`` maps
    SQL text to a pre-evaluated result and is emitted in SQL order, so
    results reassembled from patches render byte-identically to a
    one-shot compile."""
    return _PAGE.format(
        title=html_escape.escape(title),
        columns=columns,
        widgets="\n".join(widget_blocks),
        initial_query=initial_query,
        results=page_json({sql: results[sql] for sql in sorted(results)}),
        widget_ids=page_json(widget_ids),
        composer=composer_source(),
    )


def compile_html(
    interface: Interface,
    title: str = "Precision Interface",
    database: Database | None = None,
    limit: int = 2048,
    columns: int = 2,
) -> str:
    """Compile an interface into a self-contained HTML application.

    The page of a fresh
    :class:`~repro.compiler.incremental.IncrementalCompiler`, laid out by
    :func:`~repro.compiler.layout.grid_layout`.

    Args:
        interface: the generated interface (or a
            :class:`~repro.api.result.GenerationResult`, which is unwrapped).
        title: page title.
        database: optional in-memory database; when given, the queries
            of the first ``limit`` combinations are executed and their
            results embedded.
        limit: with a database, how many combinations (in product
            order) to pre-evaluate; ignored without one.
        columns: grid columns.

    Returns:
        The HTML document as a string.

    Raises:
        CompileError: when the interface has no widgets.
    """
    # local: the compiler composes this module's units
    from repro.compiler.incremental import IncrementalCompiler

    compiler = IncrementalCompiler(
        title=title, database=database, limit=limit, columns=columns
    )
    return compiler.compile(interface).html()
