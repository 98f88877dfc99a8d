"""Layout and HTML compiler tests."""

import pytest

from tests.helpers import generate_iface
from repro import parse_sql
from repro.compiler import Database, Table, compile_html, describe_layout, grid_layout
from repro.errors import CompileError
from repro.logs import LISTING_6



@pytest.fixture
def interface():
    return generate_iface(list(LISTING_6))


class TestLayout:
    def test_grid_positions(self, interface):
        plan = grid_layout(interface, columns=2)
        assert [(c.row, c.column) for c in plan.cells] == [(0, 0), (0, 1)]

    def test_shallow_paths_first(self, interface):
        plan = grid_layout(interface)
        depths = [c.widget.path.depth for c in plan.cells]
        assert depths == sorted(depths)

    def test_default_labels(self, interface):
        plan = grid_layout(interface)
        labels = [c.label for c in plan.cells]
        assert any("TOP" in label for label in labels)

    def test_relabel(self, interface):
        plan = grid_layout(interface)
        widget = plan.cells[0].widget
        plan.relabel(widget, "Row limit")
        assert plan.cells[0].label == "Row limit"
        assert widget.label == "Row limit"

    def test_move(self, interface):
        plan = grid_layout(interface)
        widget = plan.cells[0].widget
        plan.move(widget, 3, 1)
        assert (plan.cells[0].row, plan.cells[0].column) == (3, 1)

    def test_move_out_of_grid_raises(self, interface):
        plan = grid_layout(interface)
        with pytest.raises(CompileError):
            plan.move(plan.cells[0].widget, 0, 9)

    def test_bad_columns_raises(self, interface):
        with pytest.raises(CompileError):
            grid_layout(interface, columns=0)

    def test_describe_layout(self, interface):
        text = describe_layout(interface)
        assert "initial:" in text


class TestHtmlCompiler:
    def test_page_is_selfcontained(self, interface):
        page = compile_html(interface, title="Listing 6")
        assert page.startswith("<!DOCTYPE html>")
        assert "Listing 6" in page
        # the composer ships with the page: no server, no closure table
        assert "function composeSql(" in page
        assert "CLOSURE" not in page
        assert page.count('<div class="widget">') == interface.n_widgets

    def test_initial_query_in_closure(self, interface):
        from repro.compiler.html import node_data, page_json

        page = compile_html(interface)
        assert f"const Q0 = {page_json(node_data(interface.initial_query))};" in page

    def test_results_embedded_with_database(self):
        db = Database()
        db.add(Table("t", ["a", "b"], [(1, 10), (2, 20)]))
        iface = generate_iface(
            ["SELECT a FROM t WHERE b = 10", "SELECT a FROM t WHERE b = 20"]
        )
        page = compile_html(iface, database=db, limit=64)
        assert "result" in page

    def test_limit_caps_closure(self, interface):
        # the limit caps pre-evaluation, so only a database page has one
        db = Database()
        db.add(Table("Galaxy", ["objID"], [(1,)]))
        small = compile_html(interface, database=db, limit=1)
        big = compile_html(interface, database=db, limit=1000)
        assert len(small) < len(big)
        assert compile_html(interface, limit=1) == compile_html(interface, limit=1000)

    def test_empty_interface_rejected(self):
        iface = generate_iface(["SELECT a"] * 2)
        with pytest.raises(CompileError):
            compile_html(iface)

    def test_html_escaping(self):
        iface = generate_iface(
            ["SELECT a FROM t WHERE c = '<x>'", "SELECT a FROM t WHERE c = '<y>'"]
        )
        page = compile_html(iface, title="<script>")
        assert "<script>alert" not in page
        assert "&lt;script&gt;" in page


class TestMalformedSubtrees:
    """A subtree the renderer cannot render costs one option label, not
    the compile."""

    def test_nameless_domain_entry_gets_its_node_label(self, interface):
        from repro.compiler.html import build_choice_list, render_control_body
        from repro.sqlparser import Node

        widget = interface.widgets[0]
        choices = build_choice_list(widget) + [Node("ColExpr")]
        kind, body = render_control_body(widget, choices)
        assert kind == "select"
        assert f'<option value="{len(choices) - 1}">ColExpr</option>' in body

    def test_node_data_raises_compile_error_on_a_malformed_leaf(self):
        from repro.compiler.html import node_data
        from repro.sqlparser import Node

        with pytest.raises(CompileError, match="malformed"):
            node_data(Node("NumExpr"))
