"""SQL parsing substrate: lexer, AST model, parser, renderer, annotations.

The paper used a third-party SQL parsing web service; this package is our
from-scratch replacement.  Public surface::

    from repro.sqlparser import parse_sql, render_sql, Node
    ast = parse_sql("SELECT a FROM t WHERE b > 10")
    sql = render_sql(ast)
"""

from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations, subtree_kind
from repro.sqlparser.parser import Parser, parse_many, parse_sql
from repro.sqlparser.render import render_sql
from repro.sqlparser.tokens import Token, TokenKind, tokenize

__all__ = [
    "Node",
    "Parser",
    "parse_sql",
    "parse_many",
    "render_sql",
    "tokenize",
    "Token",
    "TokenKind",
    "GrammarAnnotations",
    "SQL_ANNOTATIONS",
    "subtree_kind",
]
