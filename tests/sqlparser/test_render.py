"""Renderer tests: targeted output checks plus structural round-trips."""

import pytest

from repro.errors import CompileError
from repro.sqlparser import Node, parse_sql, render_sql

ROUNDTRIP_QUERIES = [
    "SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
    "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 "
    "GROUP BY DestState",
    "SELECT TOP 10 g.objID FROM Galaxy AS g, "
    "dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID",
    "SELECT CASE carrier WHEN 'AA' THEN 'AA' ELSE 'Other' END AS carrier, "
    "FLOOR(distance / 5) AS distance FROM ontime",
    "SELECT SUM(flights) FROM ontime WHERE canceled = 1 "
    "HAVING SUM(flights) > 149 AND SUM(flights) < 1354",
    "SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t "
    "WHERE spec_ts > now AND spec_ts < now + 3) WHERE cust = 'Alice' "
    "AND country = 'China' GROUP BY spec_ts",
    "SELECT a FROM t WHERE x BETWEEN 1 AND 100 ORDER BY a DESC LIMIT 5",
    "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id WHERE a IN (1, 2, 3)",
    "SELECT DISTINCT a FROM t",
    "SELECT a FROM t WHERE NOT x = 1",
    "SELECT a FROM t WHERE x IS NOT NULL",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "SELECT a FROM t WHERE name LIKE 'N%'",
    "SELECT CAST(a AS INT) FROM t",
    "SELECT -5, 3.25, 'it''s'",
    "SELECT a FROM t WHERE x = 1 OR y = 2",
    "SELECT a FROM t LIMIT 10 OFFSET 2",
]


@pytest.mark.parametrize("sql", ROUNDTRIP_QUERIES)
def test_roundtrip_is_stable(sql):
    """parse(render(parse(q))) == parse(q) for all supported constructs."""
    first = parse_sql(sql)
    second = parse_sql(render_sql(first))
    assert first == second


class TestRenderedText:
    def test_top_prints_after_select(self):
        """TOP is the last AST child but must print right after SELECT."""
        sql = render_sql(parse_sql("SELECT TOP 3 a FROM t WHERE x = 1"))
        assert sql.startswith("SELECT TOP 3 ")

    def test_string_escaping(self):
        assert "''" in render_sql(parse_sql("SELECT 'a''b'"))

    def test_hex_preserved(self):
        assert "0x400" in render_sql(parse_sql("SELECT * FROM t WHERE x = 0x400"))

    def test_integral_float_prints_as_int(self):
        sql = render_sql(parse_sql("SELECT a FROM t WHERE x = 5.0"))
        assert "x = 5" in sql

    def test_or_inside_and_parenthesised(self):
        ast = parse_sql("SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3")
        sql = render_sql(ast)
        assert "(" in sql
        assert parse_sql(sql) == ast

    def test_single_conjunct_renders_bare(self):
        sql = render_sql(parse_sql("SELECT a FROM t WHERE x = 1"))
        assert sql == "SELECT a FROM t WHERE x = 1"

    def test_unknown_node_raises(self):
        with pytest.raises(CompileError):
            render_sql(Node("Mystery"))

    def test_unknown_clause_raises(self):
        bad = Node("SelectStmt", {}, [
            Node("Project", {}, [Node("ProjClause", {}, [Node("StarExpr")])]),
            Node("Bogus"),
        ])
        with pytest.raises(CompileError):
            render_sql(bad)

    def test_select_without_project_raises(self):
        with pytest.raises(CompileError):
            render_sql(Node("SelectStmt", {}, [Node("From", {}, [
                Node("TableRef", {"name": "t"})])]))

    def test_duplicate_clause_raises(self):
        where = parse_sql("SELECT a FROM t WHERE x = 1").children[2]
        bad = parse_sql("SELECT a FROM t WHERE x = 1")
        bad = Node("SelectStmt", {}, list(bad.children) + [where])
        with pytest.raises(CompileError):
            render_sql(bad)


class TestMalformedTrees:
    """Whatever a malformed tree trips the renderer on, it raises the one
    error ``render_sql`` documents and its callers catch."""

    @staticmethod
    def _select_where(where):
        query = parse_sql("SELECT a FROM t WHERE x = 1")
        return Node("SelectStmt", {}, list(query.children[:2]) + [where])

    @pytest.mark.parametrize(
        "build",
        [
            # a set operation left with one child
            lambda: Node("SetOpStmt", {"op": "UNION"}, [parse_sql("SELECT a FROM t")]),
            # a column without its name
            lambda: TestMalformedTrees._select_where(
                Node("Where", {}, [Node("BiExpr", {"op": "="}, [
                    Node("ColExpr"), Node("NumExpr", {"value": 1})])])
            ),
            # a clause with no children
            lambda: TestMalformedTrees._select_where(Node("Where")),
        ],
        ids=["one-child-setop", "nameless-column", "empty-where"],
    )
    def test_render_sql_raises_compile_error(self, build):
        with pytest.raises(CompileError, match="malformed"):
            render_sql(build())
