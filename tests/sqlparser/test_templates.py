"""The regex lexer and the template cache against the reference parse.

``tests/oracle.py`` keeps the character-by-character lexer and a
cache-free recursive-descent parse.  Every path through
:func:`~repro.sqlparser.parser.parse_sql` — first sighting, template
build, template hit, full-parse fallback — must give the oracle's AST,
with the skeleton, size and literal vector a fresh tree computes.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.serialize import diff_to_dict, node_from_dict, node_to_dict
from repro.errors import SQLSyntaxError
from repro.logs import AdhocLogGenerator, OLAPLogGenerator, SDSSLogGenerator
from repro.logs.listings import (
    LISTING_1,
    LISTING_2,
    LISTING_3,
    LISTING_6,
    LISTING_7,
    listing_4_log,
)
from repro.sqlparser import parser, parse_sql, render_sql
from repro.sqlparser.tokens import TokenKind, _scan, tokenize
from repro.treediff.diff import extract_diffs
from repro.treediff.memo import DiffMemo
from tests import oracle
from tests.strategies import select_statements

_LITERAL_KINDS = (TokenKind.NUMBER, TokenKind.STRING, TokenKind.HEXNUMBER)


def canonical(node) -> str:
    """The AST as JSON text: tells ``1`` from ``1.0`` and ``0.0`` from
    ``-0.0``, which dict equality does not."""
    return json.dumps(node_to_dict(node))


def assert_same_parse(sql: str) -> None:
    """``parse_sql(sql)`` is the oracle's AST, and every node's carried
    skeleton and size (and the root's literal vector) equal the values a
    fresh copy computes."""
    got = parse_sql(sql)
    want = oracle.parse_sql(sql)
    assert canonical(got) == canonical(want), sql
    fresh = node_from_dict(node_to_dict(got))
    assert got.literal_values == fresh.literal_values == want.literal_values, sql
    for path, node in got.walk_with_paths():
        copy = fresh.get(path)
        assert node.skeleton == copy.skeleton, (sql, str(path))
        assert node.size == copy.size, (sql, str(path))


def _oracle_prefix(sql: str):
    """The reference lexer's tokens up to its first error, and the error."""
    lexer = oracle.Lexer(sql)
    tokens = []
    try:
        while True:
            tokens.append(lexer._next_token())
            if tokens[-1].kind is TokenKind.EOF:
                return tokens, None
    except SQLSyntaxError as exc:
        return tokens, exc


def _non_decimal_number(token) -> bool:
    """A NUMBER the reference lexer built from a digit ``int`` rejects
    (``²``): the parse it feeds raised ``ValueError`` at the parent."""
    return token.kind is TokenKind.NUMBER and any(
        ch.isdigit() and not ch.isdecimal() for ch in token.value
    )


def assert_same_tokens(sql: str) -> None:
    want, error = _oracle_prefix(sql)
    try:
        got = tokenize(sql)
    except SQLSyntaxError as exc:
        got, got_error = None, exc
    else:
        got_error = None
    superscripts = [i for i, token in enumerate(want) if _non_decimal_number(token)]
    if superscripts:
        # the one allowed difference: a number takes decimal digits only,
        # so the reference's NUMBER("²") is rejected (or lexed apart, as
        # in "1e²" = NUMBER(1) IDENT(e²)); everything before it agrees
        first = superscripts[0]
        if got is None:
            assert got_error.position >= want[first].position, sql
        else:
            assert got[:first] == want[:first], sql
        return
    if error is None:
        assert got == want, sql
    else:
        assert got is None, (sql, got)
        assert (str(got_error), got_error.position) == (str(error), error.position)


# ----------------------------------------------------------------------
# lexer: differential
# ----------------------------------------------------------------------
_SQL_PIECES = st.sampled_from(
    [
        *"abxyzEe_0123456789.xX'\"`[]-+*/%=<>!|(),; \n\t",
        "--", "/*", "*/", "''", "0x", "0X1f", "1e", "1.5e-3", ".5", "SELECT",
        "select", "²", "٣", "Ⅻ", "½", "ſ", "\xa0", "\x1c", " ",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_lexer_matches_oracle_on_any_text(sql):
    assert_same_tokens(sql)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SQL_PIECES, max_size=16).map("".join))
def test_lexer_matches_oracle_on_sql_alphabet(sql):
    assert_same_tokens(sql)


@pytest.mark.parametrize(
    "sql",
    [
        "'it''s' 'a''''b' ''",
        "'a''",  # the doubled quote escapes: unterminated
        "8',''5[![",
        "a /* x */ b -- c",
        "a /* never closed",
        "0x 1",
        "0X1F 00x5 1.e5 1e5e3 1e+ .5.3 1..2",
        "[a b] `c` \"d\" [e",
        "x y\x1c",
        "ſelect ǅ a_1 _",
    ],
)
def test_lexer_matches_oracle_on_edge_cases(sql):
    assert_same_tokens(sql)


# ----------------------------------------------------------------------
# parser: differential, through every cache path
# ----------------------------------------------------------------------
def _random_literal(kind: TokenKind, rnd: random.Random) -> str:
    if kind is TokenKind.STRING:
        body = "".join(rnd.choice("ab '_-") for _ in range(rnd.randint(0, 5)))
        return "'" + body.replace("'", "''") + "'"
    if kind is TokenKind.HEXNUMBER:
        return rnd.choice(("0x", "0X")) + "".join(
            rnd.choice("0123456789abcdefABCDEF") for _ in range(rnd.randint(1, 4))
        )
    return rnd.choice(
        [str(rnd.randint(0, 10**6)), f"{rnd.uniform(0, 100):.3f}", "1e3", "2.5E-2", ".5", "7."]
    )


def respelled(sql: str, rnd: random.Random) -> str:
    """``sql`` with every literal swapped for a random one of its kind."""
    out, last = [], 0
    for token in tokenize(sql):
        if token.kind in _LITERAL_KINDS:
            end = token.position + len(_source_text(sql, token))
            out.append(sql[last:token.position])
            out.append(_random_literal(token.kind, rnd))
            last = end
    out.append(sql[last:])
    return "".join(out)


def _source_text(sql: str, token) -> str:
    if token.kind is TokenKind.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    return token.value


@settings(max_examples=100, deadline=None)
@given(select_statements(), st.randoms(use_true_random=False))
def test_parse_matches_oracle_through_the_template_cache(ast, rnd):
    sql = render_sql(ast)
    # the first two parses of a key build its template, the rest hit it
    for variant in [sql] + [respelled(sql, rnd) for _ in range(4)]:
        assert_same_parse(variant)


@settings(max_examples=60, deadline=None)
@given(select_statements(), st.randoms(use_true_random=False))
def test_template_hits_carry_what_a_copy_recomputes(ast, rnd):
    sql = render_sql(ast)
    parser._templates.clear()
    parse_sql(sql)
    parse_sql(sql)
    key = tuple(map(parser._ABSTRACT, _scan(sql)))
    assert isinstance(parser._templates[key], parser._Template)
    assert_same_parse(respelled(sql, rnd))


def test_the_rebuild_plan_waits_for_the_first_hit():
    """A key seen exactly twice only records its literal sites: nothing
    is planned or hashed until a third statement hits the template."""
    parser._templates.clear()
    first, second, third = (f"SELECT a FROM t WHERE x = {value}" for value in (1, 2, 3))
    parse_sql(first)
    root = parse_sql(second)
    template = parser._templates[tuple(map(parser._ABSTRACT, _scan(first)))]
    assert isinstance(template, parser._Template)
    assert template.root is root
    assert template._plan is None and root._skeleton is None
    assert_same_parse(third)
    assert template._plan is not None and root._skeleton is not None


def _families() -> dict[str, list[str]]:
    listings = [*LISTING_1, *LISTING_2, *LISTING_3, *LISTING_6, *LISTING_7]
    return {
        "sdss": SDSSLogGenerator(0).client_log("C1", "object_lookup", 120).statements(),
        "olap": OLAPLogGenerator(1).generate(300).statements(),
        "adhoc": [
            sql
            for student in range(3)
            for sql in AdhocLogGenerator(student).student_log(f"S{student}", 120).statements()
        ],
        "sessions": SDSSLogGenerator(3).interleaved(3, 80).statements(),
        "listings": listings + listing_4_log().statements(),
    }


@pytest.mark.parametrize("family", sorted(_families()))
def test_log_families_parse_like_the_oracle(family):
    parser._templates.clear()
    statements = _families()[family]
    for sql in statements + statements:
        assert_same_parse(sql)


def test_sdss_10k_log_parses_like_the_oracle():
    """The 10k log's 8,989 distinct statements over 15 templates."""
    statements = list(dict.fromkeys(SDSSLogGenerator(0).full_log(10000).statements()))
    parser._templates.clear()
    for sql in statements:
        assert canonical(parse_sql(sql)) == canonical(oracle.parse_sql(sql)), sql
    templates = [e for e in parser._templates.values() if isinstance(e, parser._Template)]
    assert len(templates) == len(parser._templates) == 15


def test_cast_size_falls_back_to_a_full_parse():
    """The size in VARCHAR(32) is spelled into the type name, not a leaf:
    the key is marked and parses in full, correctly, from then on."""
    parser._templates.clear()
    statements = [
        f"SELECT CAST(a AS VARCHAR({size})) FROM t WHERE b = {value}"
        for size, value in [(32, 1), (8, 2), (16, 3), (64, 4)]
    ]
    for sql in statements:
        assert_same_parse(sql)
    key = tuple(map(parser._ABSTRACT, _scan(statements[0])))
    assert parser._templates[key] is parser._FULL_PARSE
    assert "VARCHAR(64)" in canonical(parse_sql(statements[-1]))


def test_sign_folds_are_replayed():
    parser._templates.clear()
    for value in ["5", "2.5", "1e3", "0", "7"]:
        assert_same_parse(f"SELECT a FROM t WHERE x = - -{value} AND y = -{value}")


def test_hits_share_literal_free_subtrees():
    parser._templates.clear()
    first, second, third = (
        parse_sql(f"SELECT a, b FROM t WHERE x = {value}") for value in (1, 2, 3)
    )
    project, from_ = 0, 1
    assert third.children[project] is second.children[project]
    assert third.children[from_] is second.children[from_]
    assert third.children[2] is not second.children[2]  # holds the literal
    assert first.children[project] is not second.children[project]


def test_statements_without_literals_share_one_tree():
    parser._templates.clear()
    trees = [parse_sql("SELECT a FROM t" + " " * n) for n in range(3)]
    assert trees[2] is trees[1]
    assert canonical(trees[0]) == canonical(trees[2])


def test_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(parser, "_MAX_TEMPLATES", 8)
    parser._templates.clear()
    for column in range(30):
        for value in range(3):
            assert_same_parse(f"SELECT c{column} FROM t WHERE x = {value}")
        assert len(parser._templates) <= 8
    assert len(parser._templates) == 8


def test_concurrent_parses_stay_correct_and_bounded(monkeypatch):
    """Threads parse overlapping templates while the cache evicts."""
    monkeypatch.setattr(parser, "_MAX_TEMPLATES", 6)
    parser._templates.clear()
    statements = [
        f"SELECT c{column} FROM t WHERE x = {value} AND y = 0x{value:x}"
        for column in range(12)
        for value in range(6)
    ]
    wants = {sql: canonical(oracle.parse_sql(sql)) for sql in statements}
    failures: list[str] = []

    def work(seed: int) -> None:
        rnd = random.Random(seed)
        for _ in range(200):
            sql = rnd.choice(statements)
            if canonical(parse_sql(sql)) != wants[sql]:
                failures.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(parser._templates) <= 6


# ----------------------------------------------------------------------
# the hex skeleton, seen from the diff memo
# ----------------------------------------------------------------------
def test_hex_spellings_share_a_skeleton():
    """``text`` is abstracted with the value: Listing 1's lookups are one
    shape, not one shape per hex literal."""
    a, b = parse_sql(LISTING_1[0]), parse_sql(LISTING_1[2])
    assert a.skeleton == b.skeleton
    assert a.literal_values[-1] == (0x400, "0x400")


def test_equal_hex_values_with_unequal_spellings_replay_exactly():
    """``0x1`` and ``0x01`` are equal values but unequal nodes: the plan
    of an all-equal pair must not replay onto them."""
    same = [parse_sql("SELECT a FROM t WHERE x = 0x1") for _ in range(2)]
    spelled = parse_sql("SELECT a FROM t WHERE x = 0x01")
    memo = DiffMemo()
    assert memo.extract(same[0], same[1]) == []
    got = memo.extract(same[0], spelled)
    want = extract_diffs(same[0], spelled)
    assert want, "the spellings differ, so the trees do"
    assert [diff_to_dict(d) for d in got] == [diff_to_dict(d) for d in want]
    assert memo.n_full == 2
