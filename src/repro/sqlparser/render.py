"""AST → SQL rendering.

The inverse of :mod:`repro.sqlparser.parser`: turns any AST the parser can
produce back into executable SQL text.  Round-tripping is structural, not
textual — whitespace and redundant parentheses are normalised — and the
invariant ``parse(render(parse(q))) == parse(q)`` is enforced by property
tests.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CompileError
from repro.sqlparser.astnodes import Node

__all__ = ["render_fragment", "render_sql"]

# Operator precedence used to decide when parentheses are required.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "NOT": 3,
    "=": 4, "<>": 4, "<": 4, ">": 4, "<=": 4, ">=": 4, "LIKE": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}


#: What the renderer trips on in a malformed tree: a node missing an
#: attribute or a child, or a clause with too few children.
_MALFORMED = (KeyError, IndexError, ValueError, TypeError)


def render_sql(node: Node) -> str:
    """Render an AST into a SQL string.

    Raises:
        CompileError: for node types the renderer does not know, and for
            malformed trees.
    """
    return _guarded(_Renderer().statement, node)


def render_fragment(node: Node) -> str:
    """SQL text for a statement or any subtree of one: a ``TOP``, a
    projection, a FROM item, a GROUP BY item or an expression.

    Raises:
        CompileError: as :func:`render_sql`.
    """
    return _guarded(_Renderer().fragment, node)


def _guarded(render: Callable[[Node], str], node: Node) -> str:
    try:
        return render(node)
    except _MALFORMED as exc:
        raise CompileError(f"malformed {node.node_type} tree: {exc!r}") from exc


class _Renderer:
    """Stateless rendering visitor (class only for namespacing)."""

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def statement(self, node: Node) -> str:
        if node.node_type == "SelectStmt":
            return self._select(node)
        if node.node_type == "SetOpStmt":
            left, right = node.children
            op = node.attributes.get("op", "UNION")
            return f"{self.statement(left)} {op} {self.statement(right)}"
        raise CompileError(f"cannot render statement of type {node.node_type}")

    def fragment(self, node: Node) -> str:
        kind = node.node_type
        if kind in ("SelectStmt", "SetOpStmt"):
            return self.statement(node)
        if kind == "Top":
            return f"TOP {self.expr(node.children[0])}"
        if kind == "ProjClause":
            return self._proj(node)
        if kind in ("TableRef", "FuncTableRef", "SubqueryRef", "JoinRef"):
            return self._from_item(node)
        if kind == "GroupClause":
            return self.expr(node.children[0])
        return self.expr(node)

    def _select(self, node: Node) -> str:
        """Emit canonical SQL clause order regardless of the AST child
        order (Top/Distinct live at the end of the child list for path
        stability, but print right after SELECT)."""
        clauses: dict[str, Node] = {}
        for clause in node.children:
            if clause.node_type in clauses:
                raise CompileError(f"duplicate {clause.node_type} clause")
            clauses[clause.node_type] = clause

        parts = ["SELECT"]
        if "Top" in clauses:
            parts.append(f"TOP {self.expr(clauses['Top'].children[0])}")
        if "Distinct" in clauses:
            parts.append("DISTINCT")
        project = clauses.get("Project")
        if project is None:
            raise CompileError("SELECT without a Project clause")
        parts.append(", ".join(self._proj(c) for c in project.children))
        if "From" in clauses:
            items = clauses["From"].children
            parts.append("FROM " + ", ".join(self._from_item(c) for c in items))
        if "Where" in clauses:
            parts.append("WHERE " + self.expr(clauses["Where"].children[0]))
        if "GroupBy" in clauses:
            exprs = ", ".join(
                self.expr(c.children[0]) for c in clauses["GroupBy"].children
            )
            parts.append("GROUP BY " + exprs)
        if "Having" in clauses:
            parts.append("HAVING " + self.expr(clauses["Having"].children[0]))
        if "OrderBy" in clauses:
            parts.append(
                "ORDER BY "
                + ", ".join(self._order(c) for c in clauses["OrderBy"].children)
            )
        if "Limit" in clauses:
            limit = clauses["Limit"]
            parts.append("LIMIT " + self.expr(limit.children[0]))
            if len(limit.children) > 1:
                parts.append("OFFSET " + self.expr(limit.children[1]))
        known = {
            "Top", "Distinct", "Project", "From", "Where", "GroupBy",
            "Having", "OrderBy", "Limit",
        }
        unknown = set(clauses) - known
        if unknown:
            raise CompileError(f"unknown SELECT clauses {sorted(unknown)}")
        return " ".join(parts)

    def _proj(self, clause: Node) -> str:
        if clause.node_type != "ProjClause":
            raise CompileError(f"bad projection item {clause.node_type}")
        text = self.expr(clause.children[0])
        if len(clause.children) > 1:
            alias = clause.children[1].attributes["name"]
            text += f" AS {alias}"
        return text

    def _from_item(self, node: Node) -> str:
        kind = node.node_type
        if kind == "TableRef":
            text = str(node.attributes["name"])
            alias = node.attributes.get("alias")
            return f"{text} AS {alias}" if alias else text
        if kind == "FuncTableRef":
            name = node.children[0].attributes["name"]
            args = ", ".join(self.expr(c) for c in node.children[1:])
            text = f"{name}({args})"
            alias = node.attributes.get("alias")
            return f"{text} AS {alias}" if alias else text
        if kind == "SubqueryRef":
            text = f"({self.statement(node.children[0])})"
            alias = node.attributes.get("alias")
            return f"{text} AS {alias}" if alias else text
        if kind == "JoinRef":
            join_type = node.attributes.get("join_type", "INNER")
            keyword = "JOIN" if join_type == "INNER" else f"{join_type} JOIN"
            left = self._from_item(node.children[0])
            right = self._from_item(node.children[1])
            text = f"{left} {keyword} {right}"
            if len(node.children) > 2 and node.children[2].node_type == "OnClause":
                text += " ON " + self.expr(node.children[2].children[0])
            return text
        raise CompileError(f"unknown FROM item {kind}")

    def _order(self, clause: Node) -> str:
        text = self.expr(clause.children[0])
        if len(clause.children) > 1 and clause.children[1].node_type == "SortDir":
            text += " " + str(clause.children[1].attributes["value"])
        return text

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expr(self, node: Node, parent_prec: int = 0) -> str:
        kind = node.node_type
        method = getattr(self, f"_expr_{kind}", None)
        if method is None:
            raise CompileError(f"cannot render expression of type {kind}")
        return method(node, parent_prec)

    @staticmethod
    def _wrap(text: str, prec: int, parent_prec: int) -> str:
        return f"({text})" if prec < parent_prec else text

    def _expr_NumExpr(self, node: Node, _pp: int) -> str:
        value = node.attributes["value"]
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    def _expr_HexExpr(self, node: Node, _pp: int) -> str:
        return str(node.attributes.get("text") or hex(int(node.attributes["value"])))

    def _expr_StrExpr(self, node: Node, _pp: int) -> str:
        escaped = str(node.attributes["value"]).replace("'", "''")
        return f"'{escaped}'"

    def _expr_ColExpr(self, node: Node, _pp: int) -> str:
        return str(node.attributes["name"])

    def _expr_StarExpr(self, _node: Node, _pp: int) -> str:
        return "*"

    def _expr_NullExpr(self, _node: Node, _pp: int) -> str:
        return "NULL"

    def _expr_BoolExpr(self, node: Node, _pp: int) -> str:
        return str(node.attributes["value"])

    def _expr_BiExpr(self, node: Node, parent_prec: int) -> str:
        op = str(node.attributes["op"])
        prec = _PRECEDENCE.get(op, 4)
        left = self.expr(node.children[0], prec)
        right = self.expr(node.children[1], prec + 1)
        return self._wrap(f"{left} {op} {right}", prec, parent_prec)

    def _expr_AndExpr(self, node: Node, parent_prec: int) -> str:
        prec = _PRECEDENCE["AND"]
        text = " AND ".join(self.expr(c, prec) for c in node.children)
        return self._wrap(text, prec, parent_prec)

    def _expr_OrExpr(self, node: Node, parent_prec: int) -> str:
        prec = _PRECEDENCE["OR"]
        text = " OR ".join(self.expr(c, prec) for c in node.children)
        return self._wrap(text, prec, parent_prec)

    def _expr_NotExpr(self, node: Node, parent_prec: int) -> str:
        prec = _PRECEDENCE["NOT"]
        return self._wrap(f"NOT {self.expr(node.children[0], prec)}", prec, parent_prec)

    def _expr_UnaryExpr(self, node: Node, _pp: int) -> str:
        return f"-{self.expr(node.children[0], 7)}"

    def _expr_FuncExpr(self, node: Node, _pp: int) -> str:
        name = node.children[0].attributes["name"]
        args = node.children[1:]
        if args and args[0].node_type == "Distinct":
            inner = "DISTINCT " + ", ".join(self.expr(a) for a in args[1:])
        else:
            inner = ", ".join(self.expr(a) for a in args)
        return f"{name}({inner})"

    def _expr_BetweenExpr(self, node: Node, parent_prec: int) -> str:
        expr, low, high = node.children
        prec = 4
        text = (
            f"{self.expr(expr, prec)} BETWEEN {self.expr(low, prec)}"
            f" AND {self.expr(high, prec)}"
        )
        return self._wrap(text, prec, parent_prec)

    def _expr_InExpr(self, node: Node, parent_prec: int) -> str:
        target, rhs = node.children
        if rhs.node_type == "InList":
            inner = ", ".join(self.expr(c) for c in rhs.children)
        else:
            inner = self.statement(rhs)
        return self._wrap(f"{self.expr(target, 4)} IN ({inner})", 4, parent_prec)

    def _expr_IsNullExpr(self, node: Node, parent_prec: int) -> str:
        op = "IS NOT NULL" if node.attributes.get("negated") else "IS NULL"
        return self._wrap(f"{self.expr(node.children[0], 4)} {op}", 4, parent_prec)

    def _expr_ExistsExpr(self, node: Node, _pp: int) -> str:
        return f"EXISTS ({self.statement(node.children[0])})"

    def _expr_ScalarSubquery(self, node: Node, _pp: int) -> str:
        return f"({self.statement(node.children[0])})"

    def _expr_CaseExpr(self, node: Node, _pp: int) -> str:
        parts = ["CASE"]
        for child in node.children:
            if child.node_type == "CaseInput":
                parts.append(self.expr(child.children[0]))
            elif child.node_type == "WhenClause":
                cond, result = child.children
                parts.append(f"WHEN {self.expr(cond)} THEN {self.expr(result)}")
            elif child.node_type == "ElseClause":
                parts.append(f"ELSE {self.expr(child.children[0])}")
            else:
                raise CompileError(f"bad CASE child {child.node_type}")
        parts.append("END")
        return " ".join(parts)

    def _expr_CastExpr(self, node: Node, _pp: int) -> str:
        inner = self.expr(node.children[0])
        if len(node.children) > 1 and node.children[1].node_type == "TypeName":
            return f"CAST({inner} AS {node.children[1].attributes['name']})"
        return f"CAST({inner})"
