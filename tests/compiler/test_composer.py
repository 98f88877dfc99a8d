"""The page's composer under ``node``, against the Python product walk.

A compiled page ships q0's tree, each widget's composer data (in its
block) and one composer script (``repro/compiler/composer.js``).  This
suite runs each page's own script in one ``node`` process, feeds it
combinations of choice indices in batches over stdin, and compares every
SQL text it prints with ``oracle.compose_sql`` — ``render_sql`` over
``compose_query``, the reference product walk.  Where Python raises
``CompileError``, the composer must report an error instead of SQL.

``node`` is required: without it these tests fail, they do not skip.
"""

import html
import json
import math
import random
import re
import shutil
import subprocess
from itertools import combinations, islice, product
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests import oracle
from tests.core.test_merge_incremental import ALL_FAMILIES, _family_log
from tests.helpers import generate_iface
from repro.api import generate
from repro.compiler import Database, Table, compile_html
from repro.compiler.html import (
    compose_query,
    composer_source,
    node_data,
    render_widget_spec,
)
from repro.errors import CompileError
from repro.logs import LISTING_6, SDSSLogGenerator
from repro.sqlparser import parse_sql
from repro.sqlparser.render import render_sql

#: products up to this size are checked exhaustively
EXHAUSTIVE = 5000
#: seeded random combinations checked on larger products
N_RANDOM = 2000
#: the pre-evaluation limit pages had before queries were composed
OLD_LIMIT = 2048
BATCH = 500

_SCRIPT = re.compile(r"<script>\n(.*?)</script>", re.DOTALL)
#: a widget control: its id, a checkbox's data-on, its data-spec
_CONTROL = re.compile(r"id=\"(w\d+)\"(?: data-on=\"(\d+)\")? data-spec='([^']*)'")

#: each stdin line holds widget specs and a batch of combinations (and a
#: q0, by default the page's own); each stdout line answers its batch
#: with {"sql"} / {"error"} items
_HARNESS = r"""
const lines = require("fs").readFileSync(0, "utf8").split("\n").filter(Boolean);
for (const line of lines) {
  const { q0 = Q0, specs, combos } = JSON.parse(line);
  const answers = combos.map((combo) => {
    try {
      return { sql: composeSql(q0, specs, combo) };
    } catch (error) {
      return { error: String(error.message) };
    }
  });
  process.stdout.write(JSON.stringify(answers) + "\n");
}
"""


def _node() -> str:
    node = shutil.which("node")
    if node is None:
        pytest.fail("node is required to run the page's composer (Node.js >= 18)")
    return node


def _page_script(page: str) -> str:
    scripts = _SCRIPT.findall(page)
    assert len(scripts) == 1, "a page has exactly one script"
    return scripts[0]


def _page_specs(page: str) -> list:
    """Every widget's composer data, decoded as a browser decodes the
    ``data-spec`` attribute, in page order."""
    found = _CONTROL.findall(page)
    assert [widget_id for widget_id, _, _ in found] == [f"w{i}" for i in range(len(found))]
    return [json.loads(html.unescape(spec)) for _, _, spec in found]


def _run_node(script: str, batches: list[dict], tmp_path) -> list:
    """Every batch's answers from ``script`` plus the harness, in one
    node process."""
    path = tmp_path / "composer.js"
    path.write_text(script + _HARNESS, encoding="utf-8")
    done = subprocess.run(
        [_node(), str(path)],
        input="\n".join(json.dumps(batch) for batch in batches) + "\n",
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # split on newlines only: a SQL literal may hold U+2028
    lines = done.stdout.split("\n")[:-1]
    return [answer for line in lines for answer in json.loads(line)]


def run_composer(page: str, combos: list, tmp_path) -> list:
    """The page's own composer over ``combos``."""
    specs = _page_specs(page)
    batches = [
        {"specs": specs, "combos": combos[start : start + BATCH]}
        for start in range(0, len(combos), BATCH)
    ]
    answers = _run_node(_page_script(page), batches, tmp_path)
    assert len(answers) == len(combos)
    return answers


def _reference(interface, ordered, choice_lists, combo) -> dict:
    try:
        return {"sql": oracle.compose_sql(interface, ordered, choice_lists, combo)}
    except CompileError:
        return {"error": True}


def _combos_to_check(lengths: list[int]) -> list[tuple[int, ...]]:
    """Every combination of a small product; otherwise every combination
    touching at most two widgets plus seeded random ones."""
    if math.prod(lengths) <= EXHAUSTIVE:
        return list(product(*(range(n) for n in lengths)))
    base = [0] * len(lengths)
    combos = {tuple(base)}
    for i in range(len(lengths)):
        for a in range(1, lengths[i]):
            combos.add(tuple(base[:i] + [a] + base[i + 1 :]))
    for i, j in combinations(range(len(lengths)), 2):
        for a in range(1, lengths[i]):
            for b in range(1, lengths[j]):
                combo = list(base)
                combo[i], combo[j] = a, b
                combos.add(tuple(combo))
    rng = random.Random(len(lengths))
    for _ in range(N_RANDOM):
        combos.add(tuple(rng.randrange(n) for n in lengths))
    return sorted(combos)


def _rank(combo, lengths) -> int:
    """A combination's position in product order."""
    rank = 0
    for index, n in zip(combo, lengths):
        rank = rank * n + index
    return rank


def _assert_composer_matches(interface, tmp_path, page=None):
    page = page if page is not None else compile_html(interface)
    ordered, choice_lists = oracle.page_widgets(interface)
    lengths = [len(choices) for choices in choice_lists]
    combos = _combos_to_check(lengths)
    answers = run_composer(page, combos, tmp_path)
    for combo, answer in zip(combos, answers):
        expected = _reference(interface, ordered, choice_lists, combo)
        if "error" in expected:
            assert "error" in answer, (combo, answer)
        else:
            assert answer == expected, combo
    return combos, lengths


def _serve_client(client: str) -> list:
    return SDSSLogGenerator(0).clients(16, 90)[client].asts()


# ----------------------------------------------------------------------
# the differential gate
# ----------------------------------------------------------------------
class TestComposerMatchesProductWalk:
    def test_listing6(self, tmp_path):
        interface = generate_iface(list(LISTING_6))
        combos, lengths = _assert_composer_matches(interface, tmp_path)
        assert len(combos) == math.prod(lengths)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_family(self, family, tmp_path):
        interface = generate(_family_log(family)).interface
        combos, lengths = _assert_composer_matches(interface, tmp_path)
        if math.prod(lengths) <= EXHAUSTIVE:
            assert len(combos) == math.prod(lengths)

    @pytest.mark.parametrize("client", ["C2", "C10"])
    def test_serve_client_past_the_old_limit(self, client, tmp_path):
        interface = generate(_serve_client(client)).interface
        combos, lengths = _assert_composer_matches(interface, tmp_path)
        assert math.prod(lengths) > EXHAUSTIVE
        # the page answers combinations it used to say were not
        # pre-evaluated
        assert sum(_rank(c, lengths) >= OLD_LIMIT for c in combos) > N_RANDOM // 2

    def test_database_page_holds_the_result_of_every_pre_evaluated_query(
        self, tmp_path
    ):
        """The composer's SQL is the key the page's results are stored
        under, so each of the first ``limit`` combinations finds its
        result."""
        db = Database()
        db.add(Table("t", ["a", "b", "x", "y", "z", "g", "m"], [(1, 2, 0, 1, 5, 7, 3)]))
        interface = generate(_family_log("onehot")).interface
        page = compile_html(interface, database=db, limit=150)
        _ordered, choice_lists = oracle.page_widgets(interface)
        combos = list(islice(product(*(range(len(c)) for c in choice_lists)), 150))
        results = json.loads(re.search(r"const RESULTS = (.*);\n", page).group(1))
        answers = run_composer(page, combos, tmp_path)
        assert {answer["sql"] for answer in answers} == set(results)


class TestComposerSource:
    def test_every_page_carries_the_composer_verbatim(self):
        page = compile_html(generate_iface(list(LISTING_6)))
        assert composer_source() in _page_script(page)

    def test_page_script_wires_the_widgets_in_a_browser(self, tmp_path):
        """The page's own glue, under a minimal stand-in for the DOM:
        moving a widget shows the composed SQL."""
        interface = generate_iface(list(LISTING_6))
        page = compile_html(interface)
        ordered, choice_lists = oracle.page_widgets(interface)
        dom = tmp_path / "dom.js"
        elements = {
            widget_id: {"on": on, "spec": html.unescape(spec)}
            for widget_id, on, spec in _CONTROL.findall(page)
        }
        dom.write_text(
            "const ELEMENTS = " + json.dumps(elements) + ";\n"
            + r"""
const nodes = {sql: {textContent: "", replaceChildren(x) { this.textContent = x.textContent; }},
               result: {textContent: ""}};
const listeners = [];
for (const [id, e] of Object.entries(ELEMENTS)) {
  nodes[id] = {type: e.on ? "checkbox" : "select-one", value: "0", checked: false,
               dataset: {spec: e.spec, on: e.on || undefined},
               addEventListener(kind, f) { listeners.push(f); }};
}
globalThis.document = {getElementById: (id) => nodes[id], createElement: () => ({})};
"""
            + _page_script(page)
            + r"""
const seen = [nodes.sql.textContent];
nodes.w0.checked = true; listeners[0]();
seen.push(nodes.sql.textContent);
nodes.w1.value = "2"; listeners[0]();
seen.push(nodes.sql.textContent, nodes.result.textContent);
process.stdout.write(JSON.stringify(seen));
""",
            encoding="utf-8",
        )
        done = subprocess.run([_node(), str(dom)], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        on = next(i for i, c in enumerate(choice_lists[0]) if c not in (None, "(unchanged)"))
        expected = [
            oracle.compose_sql(interface, ordered, choice_lists, combo)
            for combo in [(0, 0), (on, 0), (on, 2)]
        ]
        assert json.loads(done.stdout) == [*expected, "(no result pre-computed)"]


# ----------------------------------------------------------------------
# random edits: every rule of apply_widget_choice, and every error
# ----------------------------------------------------------------------
_POOL = [
    "SELECT a, b FROM t WHERE x = 1 AND y = 2",
    "SELECT TOP 10 a FROM t WHERE x = 1e-05 ORDER BY a DESC",
    "SELECT g, SUM(m) FROM t GROUP BY g HAVING SUM(m) > 10000000000000000001",
    "SELECT DISTINCT a AS k FROM t AS u JOIN v ON u.id = v.id LIMIT 5 OFFSET 2",
    "SELECT a FROM t WHERE b IN (1, 2, 3) OR c BETWEEN 0.5 AND 7 OR d IS NOT NULL",
    "SELECT a FROM (SELECT a FROM t WHERE a = 'x') AS s WHERE NOT a LIKE '%y'",
    "SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END, CAST(b AS INT) FROM t",
    "SELECT a FROM t WHERE id = 0x1F UNION SELECT b FROM u",
    "SELECT COUNT(DISTINCT a), -b FROM f(1, 2) AS r WHERE EXISTS (SELECT 1 FROM t)",
]

def _random_scenario(rng, trees):
    """q0, up to three stand-in widgets (a path and a domain's node
    types: all ``apply_widget_choice`` reads) and their choice lists."""
    q0 = rng.choice(trees)
    nodes = [(path, node) for tree in trees for path, node in tree.walk_with_paths()]
    widgets, choice_lists = [], []
    for _ in range(rng.randint(1, 3)):
        path, node = rng.choice(nodes)
        if rng.random() < 0.3:
            path = path.child(rng.randint(0, 4))  # often an insert
        guard = frozenset(rng.sample([node.node_type, "ColExpr", "NumExpr", "Top"], rng.randint(0, 2)))
        entries = [
            None if rng.random() < 0.35 else rng.choice(nodes)[1]
            for _ in range(rng.randint(1, 3))
        ]
        widgets.append(SimpleNamespace(path=path, domain=SimpleNamespace(node_types=guard)))
        choice_lists.append(["(unchanged)", *entries])
    return q0, widgets, choice_lists


class TestComposerOnRandomEdits:
    def test_random_edits_match_compose_query(self, tmp_path):
        """Widgets at random paths (insert positions and ancestors of
        other widgets among them) with random guards and choices, over
        trees of every node type the renderer knows; where Python raises,
        the composer must raise too."""
        trees = [parse_sql(sql) for sql in _POOL]
        rng = random.Random(7)
        scenarios, expected = [], []
        for _ in range(400):
            q0, widgets, choice_lists = _random_scenario(rng, trees)
            combos = list(product(*(range(len(c)) for c in choice_lists)))
            scenarios.append(
                {
                    "q0": node_data(q0),
                    "specs": [
                        json.loads(html.unescape(render_widget_spec(w, c)))
                        for w, c in zip(widgets, choice_lists)
                    ],
                    "combos": combos,
                }
            )
            for combo in combos:
                try:
                    expected.append(render_sql(compose_query(q0, widgets, choice_lists, combo)))
                except Exception:  # noqa: BLE001 - any failure must be an error there
                    expected.append(None)
        answers = _run_node(composer_source(), scenarios, tmp_path)
        assert len(answers) == len(expected)
        for answer, sql in zip(answers, expected):
            if sql is None:
                assert "error" in answer, answer
            else:
                assert answer == {"sql": sql}
        # the scenarios reach both outcomes
        assert 0 < sum(sql is None for sql in expected) < len(expected)


# ----------------------------------------------------------------------
# query text cannot end the page's script
# ----------------------------------------------------------------------
_HOSTILE = [
    "SELECT a FROM t WHERE b = 'x'",
    "SELECT a FROM t WHERE b = '</script><b>pwn</b>'",
]


class TestScriptEscaping:
    def test_a_closing_tag_in_a_literal_stays_inside_the_script(self, tmp_path):
        interface = generate(_HOSTILE).interface
        page = compile_html(interface)
        assert page.count("</script>") == 1
        assert "<!--" not in page
        _assert_composer_matches(interface, tmp_path, page)

    def test_results_are_escaped_too(self, tmp_path):
        db = Database()
        db.add(Table("t", ["a", "b"], [("</script><!--", "x")]))
        page = compile_html(generate(_HOSTILE).interface, database=db)
        assert page.count("</script>") == 1
        assert "<!--" not in page

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.text(alphabet=st.sampled_from("<>/!-'\"&ab\\\u00e9\u2028 "), min_size=1, max_size=20))
    def test_any_string_literal_round_trips(self, tmp_path, literal):
        quoted = "'" + literal.replace("'", "''") + "'"
        log = ["SELECT a FROM t WHERE b = 'x'", f"SELECT a FROM t WHERE b = {quoted}"]
        interface = generate(log).interface
        page = compile_html(interface)
        assert page.count("</script>") == 1
        assert "<!--" not in page
        ordered, choice_lists = oracle.page_widgets(interface)
        combos = list(product(*(range(len(c)) for c in choice_lists)))
        answers = run_composer(page, combos, tmp_path)
        shown = {answer["sql"] for answer in answers}
        assert f"SELECT a FROM t WHERE b = {quoted}" in shown
        assert shown == {
            oracle.compose_sql(interface, ordered, choice_lists, combo) for combo in combos
        }
