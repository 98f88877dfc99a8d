"""SQL lexer.

Turns query text into a flat list of :class:`Token` objects consumed by the
recursive-descent parser in :mod:`repro.sqlparser.parser`.

The lexer covers the SQL surface exercised by the paper's three query logs
(SDSS SkyServer T-SQL flavoured queries, synthetic OLAP queries over the
OnTime schema, and Tableau-generated ad-hoc queries):

* identifiers, optionally qualified (``dbo.fGetNearbyObjEq``, ``g.objID``)
  and optionally quoted with double quotes, backticks or brackets;
* string literals in single quotes with ``''`` escaping;
* numeric literals: integers, decimals, scientific notation;
* hexadecimal literals (``0x400``) — prominent in the SDSS log;
* operators, including multi-character comparison operators;
* line (``--``) and block (``/* */``) comments, which are skipped.

Keywords are recognised case-insensitively and reported with a dedicated
token kind so the parser does not need to re-compare strings.

The scan is one compiled master regex (:data:`_TOKEN_RE`), so the loop
over characters runs in the regex engine, not in Python.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import SQLSyntaxError

__all__ = ["TokenKind", "Token", "tokenize", "KEYWORDS"]


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    HEXNUMBER = "hexnumber"
    OPERATOR = "operator"
    LPAREN = "lparen"
    RPAREN = "rparen"
    COMMA = "comma"
    DOT = "dot"
    SEMICOLON = "semicolon"
    STAR = "star"
    EOF = "eof"


#: Reserved words recognised by the lexer.  ``TOP`` and ``LIMIT`` are both
#: present because the SDSS log uses T-SQL syntax while the OLAP/ad-hoc logs
#: use the SQLite flavour.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
        "LIMIT", "OFFSET", "TOP", "DISTINCT", "ALL", "AS", "AND", "OR",
        "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN", "CASE", "WHEN",
        "THEN", "ELSE", "END", "CAST", "JOIN", "INNER", "LEFT", "RIGHT",
        "FULL", "OUTER", "CROSS", "ON", "UNION", "EXCEPT", "INTERSECT",
        "ASC", "DESC", "EXISTS", "TRUE", "FALSE",
    }
)

#: Multi-character operators, longest first so that maximal munch works.
_MULTI_OPS = ("<>", "!=", ">=", "<=", "||")
_SINGLE_OPS = set("+-*/%=<>")


@dataclass(frozen=True)
class Token:
    """One lexical token.

    Attributes:
        kind: the lexical category.
        value: the token text.  Keywords are upper-cased; identifier case is
            preserved; string tokens hold the *unquoted, unescaped* value.
        position: character offset of the first character in the input.
    """

    kind: TokenKind
    value: str
    position: int

    def is_keyword(self, *words: str) -> bool:
        """Return True when this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}@{self.position})"


#: Whitespace and comments; ``\s`` is exactly ``str.isspace``.
_TRIVIA = r"(?:\s+|--[^\n]*|/\*.*?\*/)*"

#: The master pattern.  One match is one token with the trivia after it
#: (and, for the first token, the trivia before it), so the matches tile
#: the input.  Its groups are:
#:
#: 1. the leading trivia of the input;
#: 2. the text of a word, quoted identifier, operator or punctuation mark;
#: 3. the text of a literal, with a *marker* group for two of its kinds
#:    (a number has none):
#:    4. a hex literal's ``0x``/``0X`` prefix,
#:    5. a string literal's opening quote;
#: 6. the text of a lexical error (an unterminated comment, string or
#:    quoted identifier, a bare ``0x``, or a character no token starts
#:    with);
#: 7. the trivia after the token;
#:
#: and a match whose groups 2, 3 and 6 are all empty is the end of input.
#: ``\w`` is exactly ``str.isalnum`` plus ``_`` and ``\d`` exactly
#: ``str.isdecimal``, so a number takes only digits ``int`` and ``float``
#: accept.  ``[^\W\d]`` also admits numeric characters that are not
#: letters (``²``, ``Ⅻ``); :func:`tokenize` rejects a word that starts
#: with one.  A string's closing quote is the first one not doubled.
_TOKEN_RE = re.compile(
    r"(?:\A(" + _TRIVIA + r"))?"
    r"""(?:
        ( [^\W\d]\w* | "[^"]*" | `[^`]*` | \[[^\]]*\]
        | <> | != | >= | <= | \|\| | [-+*%=<>(),;] | \.(?!\d) | /(?!\*) )
      | ( (0[xX])[0-9a-fA-F]+
        | (')(?:[^']|'')*'(?!')
        | (?!0[xX])(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)? )
      | ( 0[xX] | /\* | . )
      | \Z
    )"""
    "(" + _TRIVIA + ")",
    re.DOTALL | re.VERBOSE,
)

_FIXED_KINDS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
    **{op: TokenKind.OPERATOR for op in (*_MULTI_OPS, *_SINGLE_OPS - {"*"})},
}

_ERRORS = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "`": "unterminated quoted identifier",
    "[": "unterminated quoted identifier",
    "/*": "unterminated block comment",
    "0x": "malformed hex literal",
    "0X": "malformed hex literal",
}

#: One token as :func:`_scan` reports it: the seven groups of the pattern.
Scanned = tuple[str, str, str, str, str, str, str]


def _scan(sql: str) -> list[Scanned]:
    """The master pattern's groups for each token of ``sql``, in order,
    ending with the end of input (one entry per match; see
    :data:`_TOKEN_RE`).

    This is the parser's template-cache view of a statement: a literal's
    text sits in field 2 alone, so fields 1, 3, 4 and 5 abstract the
    literal to its kind.  :func:`_tokens_from` turns it into
    :class:`Token` objects.
    """
    return _TOKEN_RE.findall(sql)


def _string_value(text: str) -> str:
    """The value of a string literal token from its quoted source text."""
    return text[1:-1].replace("''", "'")


def _tokens_from(sql: str, found: list[Scanned]) -> list[Token]:
    """The tokens of ``sql`` from ``found = _scan(sql)`` (see :func:`tokenize`)."""
    tokens: list[Token] = []
    position = 0
    for lead, text, literal, hexmark, quote, error, trail in found:
        position += len(lead)
        if text:
            kind = _FIXED_KINDS.get(text)
            if kind is not None:
                tokens.append(Token(kind, text, position))
            elif text[0] in "\"`[":
                tokens.append(Token(TokenKind.IDENT, text[1:-1], position))
            elif text[0].isalpha() or text[0] == "_":
                upper = text.upper()
                if upper in KEYWORDS:
                    tokens.append(Token(TokenKind.KEYWORD, upper, position))
                else:
                    tokens.append(Token(TokenKind.IDENT, text, position))
            else:
                raise SQLSyntaxError(f"unexpected character {text[0]!r}", sql, position)
            position += len(text)
        elif literal:
            if hexmark:
                tokens.append(Token(TokenKind.HEXNUMBER, literal, position))
            elif quote:
                tokens.append(Token(TokenKind.STRING, _string_value(literal), position))
            else:
                tokens.append(Token(TokenKind.NUMBER, literal, position))
            position += len(literal)
        elif error:
            message = _ERRORS.get(error, f"unexpected character {error!r}")
            raise SQLSyntaxError(message, sql, position)
        else:
            tokens.append(Token(TokenKind.EOF, "", position))
            return tokens
        position += len(trail)
    raise AssertionError("unreachable: the last match is the end of input")  # pragma: no cover


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` and return the token list, terminated by EOF.

    Raises:
        SQLSyntaxError: on any lexical error, at the offending offset.
    """
    return _tokens_from(sql, _scan(sql))
