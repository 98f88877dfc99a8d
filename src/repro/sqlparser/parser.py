"""Recursive-descent SQL parser.

Produces the AST node vocabulary documented in :mod:`repro.sqlparser.grammar`.
The dialect is a pragmatic union of the constructs found in the paper's
three query logs:

* SDSS SkyServer (T-SQL flavoured): ``SELECT TOP n``, hex literals,
  schema-qualified UDF table functions (``dbo.fGetNearbyObjEq(...)``),
  multi-table FROM with aliases;
* synthetic OLAP queries: aggregates, ``GROUP BY``, conjunctive filters;
* Tableau-style ad-hoc queries: ``CASE WHEN``, ``CAST``, arithmetic,
  ``HAVING`` without ``GROUP BY``, ``FLOOR(distance/5)``.

Conjunctions and disjunctions are *flattened*: ``a AND b AND c`` parses to a
single ``AndExpr`` collection node with three children.  This matches the
paper's treatment of clause bodies as collections and makes add/remove
predicate transformations show up as clean insert/delete diffs.

:func:`parse_sql` keeps a *template cache*.  Logs repeat a handful of
statement templates that differ only in literals, so the cache keys a
statement by its token sequence with the values of NUMBER, STRING and
HEXNUMBER tokens abstracted (read off the lexer's master pattern).  The
first statement of a key parses normally.  The second parses while
recording which literal token made each literal leaf, and its tree
becomes the key's *template*: building on the second sighting keeps a log
that never repeats a template from paying for templates it never uses,
and the plan for rebuilding a template waits for its first hit.  Every
later statement of the key rebuilds only the paths from the root to its
literal leaves.  It shares every literal-free subtree with the
template and carries the template's skeleton and size, and its root the
literal vector.  The cache rests on one invariant:

    **the parser's control flow depends only on token kinds and on the
    values of non-literal tokens**, and a literal token's value reaches
    the tree only as the value of the leaf it makes.

A key whose literal tokens do not map one-to-one onto leaves (the size in
``CAST(a AS VARCHAR(32))`` is spelled into a type name) always parses in
full.  The cache holds at most :data:`_MAX_TEMPLATES` keys, the oldest
going first.  Full of templates it holds 8-11 MB: 8-11 KB a template of
the bundled SDSS, OLAP and ad-hoc logs, measured with ``tracemalloc``.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Callable

from repro.errors import SQLSyntaxError
from repro.sqlparser.astnodes import Node, _literal_entry
from repro.sqlparser.grammar import SQL_ANNOTATIONS
from repro.sqlparser.tokens import (
    Scanned,
    Token,
    TokenKind,
    _scan,
    _string_value,
    _tokens_from,
    tokenize,
)

__all__ = ["Parser", "parse_sql", "parse_many"]

# Comparison operators that become BiExpr nodes.
_COMPARISON_OPS = {"=", "<>", "!=", "<", ">", "<=", ">="}
_ADDITIVE_OPS = {"+", "-", "||"}
_MULTIPLICATIVE_OPS = {"*", "/", "%"}
_JOIN_KEYWORDS = ("JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS")


def _num_node(text: str) -> Node:
    """Build a NumExpr from numeric literal text, normalising the value."""
    if "." in text or "e" in text or "E" in text:
        value: object = float(text)
    else:
        value = int(text)
    return Node("NumExpr", {"value": value})


def _hex_node(text: str) -> Node:
    return Node("HexExpr", {"value": int(text, 16), "text": text.lower()})


def _str_node(value: str) -> Node:
    return Node("StrExpr", {"value": value})


#: literal token kind -> the leaf it makes from the token's value
_LEAF_OF: dict[TokenKind, Callable[[str], Node]] = {
    TokenKind.NUMBER: _num_node,
    TokenKind.HEXNUMBER: _hex_node,
    TokenKind.STRING: _str_node,
}


def _negated(leaf: Node) -> Node:
    """``-leaf`` for a NumExpr leaf: the sign folded into the literal."""
    return Node("NumExpr", {"value": -leaf.attributes["value"]})  # type: ignore[operator]


#: where a literal leaf came from: the leaf, its token's index and kind,
#: and the signs folded into it
_Site = tuple[Node, int, TokenKind, int]


class Parser:
    """One-shot parser over a token list.

    Use :func:`parse_sql` for the common case::

        ast = parse_sql("SELECT a FROM t WHERE b > 10")

    Args:
        sql: the statement (error messages point into it).
        tokens: its tokens; ``tokenize(sql)`` when omitted.
    """

    def __init__(self, sql: str, tokens: list[Token] | None = None):
        self._sql = sql
        self._tokens = tokenize(sql) if tokens is None else tokens
        self._pos = 0
        # literal leaf id -> its site; recorded only while parse_sql builds
        # a template, None otherwise
        self._sites: dict[int, _Site] | None = None

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> Token | None:
        if self._peek().is_keyword(*words):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise SQLSyntaxError(
                f"expected {word}, found {token.value!r}", self._sql, token.position
            )
        return self._advance()

    def _accept(self, kind: TokenKind, value: str | None = None) -> Token | None:
        token = self._peek()
        if token.kind is kind and (value is None or token.value == value):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, value: str | None = None) -> Token:
        token = self._accept(kind, value)
        if token is None:
            found = self._peek()
            want = value if value is not None else kind.name
            raise SQLSyntaxError(
                f"expected {want}, found {found.value!r}", self._sql, found.position
            )
        return token

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_statement(self) -> Node:
        """Parse a full statement (SELECT, possibly a UNION chain)."""
        stmt = self._parse_set_expression()
        self._accept(TokenKind.SEMICOLON)
        trailing = self._peek()
        if trailing.kind is not TokenKind.EOF:
            raise SQLSyntaxError(
                f"unexpected trailing input {trailing.value!r}",
                self._sql,
                trailing.position,
            )
        return stmt

    def _parse_set_expression(self) -> Node:
        left = self._parse_select()
        while True:
            if self._accept_keyword("UNION"):
                op = "UNION ALL" if self._accept_keyword("ALL") else "UNION"
            elif self._accept_keyword("EXCEPT"):
                op = "EXCEPT"
            elif self._accept_keyword("INTERSECT"):
                op = "INTERSECT"
            else:
                return left
            right = self._parse_select()
            left = Node("SetOpStmt", {"op": op}, [left, right])

    # ------------------------------------------------------------------
    # SELECT statement
    # ------------------------------------------------------------------
    def _parse_select(self) -> Node:
        """Parse one SELECT core with its clauses.

        Children are the *present* clauses in canonical order:
        ``Project, From?, Where?, GroupBy?, Having?, OrderBy?, Limit?,
        Top?, Distinct?``.

        The optional row-limit and distinct markers come *last* so that
        toggling them (the Listing 6 "add a TOP clause" analysis) does not
        shift the paths of the other clauses — path stability is what lets
        one widget express the same transformation across the whole log.
        """
        self._expect_keyword("SELECT")
        top: Node | None = None
        distinct: Node | None = None

        if self._accept_keyword("TOP"):
            top = Node("Top", {}, [self._parse_limit_number()])
        if self._accept_keyword("DISTINCT"):
            distinct = Node("Distinct")
        else:
            self._accept_keyword("ALL")

        clauses: list[Node] = [self._parse_project()]

        if self._accept_keyword("FROM"):
            clauses.append(self._parse_from())
        if self._accept_keyword("WHERE"):
            clauses.append(Node("Where", {}, [self._parse_condition()]))
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            clauses.append(self._parse_group_by())
        if self._accept_keyword("HAVING"):
            clauses.append(Node("Having", {}, [self._parse_condition()]))
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            clauses.append(self._parse_order_by())
        if self._accept_keyword("LIMIT"):
            limit_children = [self._parse_limit_number()]
            if self._accept_keyword("OFFSET"):
                limit_children.append(self._parse_limit_number())
            clauses.append(Node("Limit", {}, limit_children))
        if top is not None:
            clauses.append(top)
        if distinct is not None:
            clauses.append(distinct)

        return Node("SelectStmt", {}, clauses)

    def _parse_condition(self) -> Node:
        """Parse a WHERE/HAVING body, normalising the top level to an
        ``AndExpr`` collection.

        A single predicate becomes a one-child ``AndExpr`` so that adding a
        second conjunct later is an *insertion* into a stable collection
        rather than a replacement of the whole clause body.
        """
        expr = self._parse_expr()
        if expr.node_type == "AndExpr":
            return expr
        return Node("AndExpr", {}, [expr])

    def _parse_literal(self) -> Node:
        """The leaf of the current NUMBER, HEXNUMBER or STRING token."""
        index = self._pos
        token = self._advance()
        node = _LEAF_OF[token.kind](token.value)
        if self._sites is not None:
            self._sites[id(node)] = (node, index, token.kind, 0)
        return node

    def _parse_limit_number(self) -> Node:
        token = self._peek()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.HEXNUMBER:
            return self._parse_literal()
        raise SQLSyntaxError(
            f"expected a number, found {token.value!r}", self._sql, token.position
        )

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def _parse_project(self) -> Node:
        items = [self._parse_proj_clause()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_proj_clause())
        return Node("Project", {}, items)

    def _parse_proj_clause(self) -> Node:
        expr = self._parse_expr()
        children = [expr]
        alias = self._parse_optional_alias()
        if alias is not None:
            children.append(Node("AliasName", {"name": alias}))
        return Node("ProjClause", {}, children)

    def _parse_optional_alias(self) -> str | None:
        if self._accept_keyword("AS"):
            token = self._peek()
            if token.kind is TokenKind.IDENT:
                self._advance()
                return token.value
            raise SQLSyntaxError(
                f"expected alias after AS, found {token.value!r}",
                self._sql,
                token.position,
            )
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            self._advance()
            return token.value
        return None

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_from(self) -> Node:
        items = [self._parse_join_chain()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_join_chain())
        return Node("From", {}, items)

    def _parse_join_chain(self) -> Node:
        left = self._parse_from_item()
        while self._peek().is_keyword(*_JOIN_KEYWORDS):
            join_type = self._parse_join_type()
            right = self._parse_from_item()
            children = [left, right]
            if self._accept_keyword("ON"):
                children.append(Node("OnClause", {}, [self._parse_expr()]))
            left = Node("JoinRef", {"join_type": join_type}, children)
        return left

    def _parse_join_type(self) -> str:
        token = self._advance()
        kind = token.value
        if kind == "JOIN":
            return "INNER"
        if kind in ("LEFT", "RIGHT", "FULL"):
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return kind
        if kind in ("INNER", "CROSS"):
            self._expect_keyword("JOIN")
            return kind
        raise SQLSyntaxError(  # pragma: no cover - guarded by caller
            f"bad join keyword {kind!r}", self._sql, token.position
        )

    def _parse_from_item(self) -> Node:
        if self._accept(TokenKind.LPAREN):
            inner = self._parse_set_expression()
            self._expect(TokenKind.RPAREN)
            alias = self._parse_optional_alias()
            attrs = {"alias": alias} if alias else {}
            return Node("SubqueryRef", attrs, [inner])

        name = self._parse_qualified_name()
        if self._peek().kind is TokenKind.LPAREN:
            # UDF table function, e.g. dbo.fGetNearbyObjEq(5.8, 0.3, 2.0)
            args = self._parse_call_args()
            alias = self._parse_optional_alias()
            attrs = {"alias": alias} if alias else {}
            children = [Node("FuncName", {"name": name})] + args
            return Node("FuncTableRef", attrs, children)
        alias = self._parse_optional_alias()
        attrs: dict[str, object] = {"name": name}
        if alias:
            attrs["alias"] = alias
        return Node("TableRef", attrs)

    def _parse_qualified_name(self) -> str:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise SQLSyntaxError(
                f"expected name, found {token.value!r}", self._sql, token.position
            )
        self._advance()
        parts = [token.value]
        while self._peek().kind is TokenKind.DOT:
            self._advance()
            nxt = self._peek()
            if nxt.kind is TokenKind.IDENT:
                self._advance()
                parts.append(nxt.value)
            elif nxt.kind is TokenKind.STAR:
                self._advance()
                parts.append("*")
            else:
                raise SQLSyntaxError(
                    f"expected name after '.', found {nxt.value!r}",
                    self._sql,
                    nxt.position,
                )
        return ".".join(parts)

    # ------------------------------------------------------------------
    # GROUP BY / ORDER BY
    # ------------------------------------------------------------------
    def _parse_group_by(self) -> Node:
        items = [Node("GroupClause", {}, [self._parse_expr()])]
        while self._accept(TokenKind.COMMA):
            items.append(Node("GroupClause", {}, [self._parse_expr()]))
        return Node("GroupBy", {}, items)

    def _parse_order_by(self) -> Node:
        items = [self._parse_order_clause()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_order_clause())
        return Node("OrderBy", {}, items)

    def _parse_order_clause(self) -> Node:
        expr = self._parse_expr()
        children = [expr]
        if self._accept_keyword("ASC"):
            children.append(Node("SortDir", {"value": "ASC"}))
        elif self._accept_keyword("DESC"):
            children.append(Node("SortDir", {"value": "DESC"}))
        return Node("OrderClause", {}, children)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Node:
        return self._parse_or()

    def _parse_or(self) -> Node:
        terms = [self._parse_and()]
        while self._accept_keyword("OR"):
            terms.append(self._parse_and())
        if len(terms) == 1:
            return terms[0]
        return Node("OrExpr", {}, terms)

    def _parse_and(self) -> Node:
        terms = [self._parse_not()]
        while self._accept_keyword("AND"):
            terms.append(self._parse_not())
        if len(terms) == 1:
            return terms[0]
        return Node("AndExpr", {}, terms)

    def _parse_not(self) -> Node:
        if self._accept_keyword("NOT"):
            return Node("NotExpr", {}, [self._parse_not()])
        return self._parse_predicate()

    def _parse_predicate(self) -> Node:
        left = self._parse_additive()
        token = self._peek()

        if token.kind is TokenKind.OPERATOR and token.value in _COMPARISON_OPS:
            self._advance()
            op = "<>" if token.value == "!=" else token.value
            right = self._parse_additive()
            return Node("BiExpr", {"op": op}, [left, right])

        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Node("BetweenExpr", {}, [left, low, high])

        if token.is_keyword("LIKE"):
            self._advance()
            right = self._parse_additive()
            return Node("BiExpr", {"op": "LIKE"}, [left, right])

        if token.is_keyword("IN"):
            self._advance()
            return self._parse_in_rhs(left)

        if token.is_keyword("NOT"):
            # NOT as an infix: `x NOT IN (...)`, `x NOT LIKE y`, `x NOT BETWEEN`
            nxt = self._peek(1)
            if nxt.is_keyword("IN", "LIKE", "BETWEEN"):
                self._advance()
                inner = self._parse_negatable_rhs(left)
                return Node("NotExpr", {}, [inner])

        if token.is_keyword("IS"):
            self._advance()
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return Node("IsNullExpr", {"negated": negated}, [left])

        return left

    def _parse_negatable_rhs(self, left: Node) -> Node:
        token = self._advance()
        if token.value == "IN":
            return self._parse_in_rhs(left)
        if token.value == "LIKE":
            right = self._parse_additive()
            return Node("BiExpr", {"op": "LIKE"}, [left, right])
        low = self._parse_additive()
        self._expect_keyword("AND")
        high = self._parse_additive()
        return Node("BetweenExpr", {}, [left, low, high])

    def _parse_in_rhs(self, left: Node) -> Node:
        self._expect(TokenKind.LPAREN)
        if self._peek().is_keyword("SELECT"):
            inner = self._parse_set_expression()
            self._expect(TokenKind.RPAREN)
            return Node("InExpr", {}, [left, inner])
        items = [self._parse_expr()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_expr())
        self._expect(TokenKind.RPAREN)
        return Node("InExpr", {}, [left, Node("InList", {}, items)])

    def _parse_additive(self) -> Node:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind is TokenKind.OPERATOR and token.value in _ADDITIVE_OPS:
                self._advance()
                right = self._parse_multiplicative()
                left = Node("BiExpr", {"op": token.value}, [left, right])
            else:
                return left

    def _parse_multiplicative(self) -> Node:
        left = self._parse_unary()
        while True:
            token = self._peek()
            is_mul = (
                token.kind is TokenKind.OPERATOR and token.value in _MULTIPLICATIVE_OPS
            ) or token.kind is TokenKind.STAR
            if is_mul:
                op = "*" if token.kind is TokenKind.STAR else token.value
                self._advance()
                right = self._parse_unary()
                left = Node("BiExpr", {"op": op}, [left, right])
            else:
                return left

    def _parse_unary(self) -> Node:
        token = self._peek()
        if token.kind is TokenKind.OPERATOR and token.value in ("-", "+"):
            self._advance()
            operand = self._parse_unary()
            if token.value == "+":
                return operand
            if operand.node_type == "NumExpr" and not operand.children:
                folded = _negated(operand)
                if self._sites is not None:
                    _leaf, index, kind, folds = self._sites.pop(id(operand))
                    self._sites[id(folded)] = (folded, index, kind, folds + 1)
                return folded
            return Node("UnaryExpr", {"op": "-"}, [operand])
        return self._parse_primary()

    # ------------------------------------------------------------------
    # primary expressions
    # ------------------------------------------------------------------
    def _parse_primary(self) -> Node:
        token = self._peek()

        if token.kind in _LEAF_OF:
            return self._parse_literal()
        if token.kind is TokenKind.STAR:
            self._advance()
            return Node("StarExpr")
        if token.is_keyword("NULL"):
            self._advance()
            return Node("NullExpr")
        if token.is_keyword("TRUE", "FALSE"):
            self._advance()
            return Node("BoolExpr", {"value": token.value})
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect(TokenKind.LPAREN)
            inner = self._parse_set_expression()
            self._expect(TokenKind.RPAREN)
            return Node("ExistsExpr", {}, [inner])
        if token.kind is TokenKind.LPAREN:
            self._advance()
            if self._peek().is_keyword("SELECT"):
                inner = self._parse_set_expression()
                self._expect(TokenKind.RPAREN)
                return Node("ScalarSubquery", {}, [inner])
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        if token.kind is TokenKind.IDENT:
            name = self._parse_qualified_name()
            if self._peek().kind is TokenKind.LPAREN:
                args = self._parse_call_args()
                children = [Node("FuncName", {"name": name})] + args
                return Node("FuncExpr", {}, children)
            return Node("ColExpr", {"name": name})

        raise SQLSyntaxError(
            f"unexpected token {token.value!r}", self._sql, token.position
        )

    def _parse_call_args(self) -> list[Node]:
        """Parse a parenthesised argument list (already positioned at '(')."""
        self._expect(TokenKind.LPAREN)
        if self._accept(TokenKind.RPAREN):
            return []
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = [self._parse_expr()]
        while self._accept(TokenKind.COMMA):
            args.append(self._parse_expr())
        self._expect(TokenKind.RPAREN)
        if distinct:
            return [Node("Distinct")] + args
        return args

    def _parse_case(self) -> Node:
        self._expect_keyword("CASE")
        children: list[Node] = []
        if not self._peek().is_keyword("WHEN"):
            children.append(Node("CaseInput", {}, [self._parse_expr()]))
        while self._accept_keyword("WHEN"):
            cond = self._parse_expr()
            self._expect_keyword("THEN")
            result = self._parse_expr()
            children.append(Node("WhenClause", {}, [cond, result]))
        if self._accept_keyword("ELSE"):
            children.append(Node("ElseClause", {}, [self._parse_expr()]))
        self._expect_keyword("END")
        return Node("CaseExpr", {}, children)

    def _parse_cast(self) -> Node:
        self._expect_keyword("CAST")
        self._expect(TokenKind.LPAREN)
        expr = self._parse_expr()
        children = [expr]
        if self._accept_keyword("AS"):
            token = self._peek()
            if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise SQLSyntaxError(
                    f"expected type name, found {token.value!r}",
                    self._sql,
                    token.position,
                )
            self._advance()
            type_name = token.value
            # parametrised types, e.g. VARCHAR(32)
            if self._peek().kind is TokenKind.LPAREN:
                self._advance()
                size = self._expect(TokenKind.NUMBER)
                self._expect(TokenKind.RPAREN)
                type_name = f"{type_name}({size.value})"
            children.append(Node("TypeName", {"name": type_name}))
        self._expect(TokenKind.RPAREN)
        return Node("CastExpr", {}, children)


# ----------------------------------------------------------------------
# the template cache
# ----------------------------------------------------------------------
#: Most keys the template cache holds, first sightings included.
_MAX_TEMPLATES = 1024

#: A scan tuple without its trivia and literal text: the token's cache-key
#: entry.
_ABSTRACT = itemgetter(1, 3, 4, 5)

#: cache entry of a key seen once: its second sighting builds the template
_SEEN = "seen"
#: cache entry of a key whose literal tokens do not all make leaves
_FULL_PARSE = "full parse"

#: one literal leaf to rebuild: its token's index and kind, its sign
#: folds, and its position in the root's literal vector
_Slot = tuple[int, TokenKind, int, int]
#: one inner node to rebuild: its template node and (child position,
#: built index) for each child that is rebuilt too
_Step = tuple[Node, tuple[tuple[int, int], ...]]
#: how to rebuild a template: its slots, its steps (the spine from the
#: root to the literal leaves, children first, the root's own step last)
#: and the template's literal vector
_Plan = tuple[list[_Slot], list[_Step], tuple]


class _Template:
    """One key's AST with the literal token that made each literal leaf.

    The rebuild plan and the shape hashes it copies are worked out on the
    first hit, so a key seen exactly twice pays only for recording sites.
    """

    __slots__ = ("root", "sites", "_plan")

    def __init__(self, root: Node, sites: dict[int, _Site]) -> None:
        self.root = root
        # the sites hold their leaves, so a live leaf's id is its own
        self.sites = sites
        self._plan: _Plan | None = None

    def _make_plan(self) -> _Plan:
        root, sites = self.root, self.sites
        built: dict[tuple[int, ...], int] = {}
        slots: list[_Slot] = []
        spot = 0  # index into the literal vector, which is in preorder too
        for path, node in root.walk_with_paths():
            if node.children or node.node_type not in SQL_ANNOTATIONS.literal_types:
                continue
            site = sites.get(id(node))
            if site is not None:
                _leaf, index, kind, folds = site
                built[path.steps] = len(slots)
                slots.append((index, kind, folds, spot))
            spot += 1
        spine = {steps[:depth] for steps in built for depth in range(len(steps))}
        steps_out: list[_Step] = []
        for steps in sorted(spine, key=len, reverse=True):
            node = root
            for step in steps:
                node = node.children[step]
            updates = tuple(
                (position, built[steps + (position,)])
                for position in range(len(node.children))
                if steps + (position,) in built
            )
            built[steps] = len(slots) + len(steps_out)
            steps_out.append((node, updates))
        # computing these caches them on every node, and rebuilt nodes
        # copy them from the spine
        root.skeleton
        root.size
        return slots, steps_out, root.literal_values

    def instantiate(self, found: list[Scanned]) -> Node:
        """The AST of the statement ``found`` scanned to (same key)."""
        plan = self._plan
        if plan is None:
            # concurrent first hits compute equal plans; either one may win
            plan = self._plan = self._make_plan()
        slots, steps, template_literals = plan
        if not slots:
            return self.root
        literals = list(template_literals)
        built: list[Node] = []
        for index, kind, folds, spot in slots:
            text = found[index][2]
            leaf = _LEAF_OF[kind](_string_value(text) if kind is TokenKind.STRING else text)
            for _ in range(folds):
                leaf = _negated(leaf)
            literals[spot] = _literal_entry(leaf, SQL_ANNOTATIONS.value_attributes)
            built.append(leaf)
        last = len(steps) - 1
        for number, (node, updates) in enumerate(steps):
            children = list(node.children)
            for position, source in updates:
                children[position] = built[source]
            built.append(
                node.reshaped(tuple(children), tuple(literals) if number == last else None)
            )
        return built[-1]


_templates: dict[tuple, object] = {}
_templates_lock = threading.Lock()


def _remember(key: tuple, entry: object) -> None:
    with _templates_lock:
        if key not in _templates and len(_templates) >= _MAX_TEMPLATES:
            del _templates[next(iter(_templates))]
        _templates[key] = entry


def parse_sql(sql: str) -> Node:
    """Parse one SQL statement into an AST.

    Repeated statement templates parse through the module's template
    cache (see the module docstring); the result is the same AST either
    way, but it may share literal-free subtrees with other statements'
    ASTs.  ASTs are immutable, so sharing is safe.  Thread-safe.

    Raises:
        SQLSyntaxError: when the statement cannot be parsed.
    """
    found = _scan(sql)
    key = tuple(map(_ABSTRACT, found))
    entry = _templates.get(key)
    if isinstance(entry, _Template):
        return entry.instantiate(found)
    tokens = _tokens_from(sql, found)
    parser = Parser(sql, tokens)
    if entry is not _SEEN:
        ast = parser.parse_statement()
        if entry is None:
            _remember(key, _SEEN)
        return ast
    sites: dict[int, _Site] = {}
    parser._sites = sites
    ast = parser.parse_statement()
    # every literal token must have made a leaf of its own
    n_literal_tokens = sum(1 for token in tokens if token.kind in _LEAF_OF)
    _remember(key, _Template(ast, sites) if len(sites) == n_literal_tokens else _FULL_PARSE)
    return ast


def parse_many(statements: list[str]) -> list[Node]:
    """Parse a list of statements, preserving order."""
    return [parse_sql(sql) for sql in statements]
