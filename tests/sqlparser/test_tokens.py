"""Lexer unit tests."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sqlparser import parse_sql
from repro.sqlparser.tokens import TokenKind, tokenize


def kinds(sql):
    return [t.kind for t in tokenize(sql)[:-1]]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select From wHeRe")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifier_case_preserved(self):
        assert values("SpecLineIndex") == ["SpecLineIndex"]

    def test_identifier_with_underscore_and_digits(self):
        assert values("spec_ts2") == ["spec_ts2"]
        assert kinds("spec_ts2") == [TokenKind.IDENT]

    def test_eof_always_terminates(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("a")[-1].kind is TokenKind.EOF

    def test_punctuation(self):
        assert kinds("(),;.") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
            TokenKind.DOT,
        ]

    def test_star_token(self):
        assert kinds("*") == [TokenKind.STAR]

    def test_position_offsets(self):
        tokens = tokenize("ab  cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 4


class TestStrings:
    def test_simple_string(self):
        tokens = tokenize("'USA'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "USA"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")


class TestNumbers:
    def test_integer(self):
        assert tokenize("42")[0].kind is TokenKind.NUMBER

    def test_decimal(self):
        assert tokenize("2.0616")[0].value == "2.0616"

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == ".5"

    def test_scientific(self):
        assert tokenize("1.5e-3")[0].value == "1.5e-3"

    def test_hex_literal(self):
        token = tokenize("0x400")[0]
        assert token.kind is TokenKind.HEXNUMBER
        assert token.value == "0x400"

    def test_hex_uppercase_digits(self):
        assert tokenize("0x4FEF")[0].kind is TokenKind.HEXNUMBER

    def test_malformed_hex_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("0x")

    def test_number_adjacent_to_keyword(self):
        assert values("TOP 10") == ["TOP", "10"]


class TestUnicodeDigits:
    """A number takes decimal digits only (``str.isdecimal``): every digit
    it takes converts with ``int``/``float``."""

    def test_superscript_digit_is_a_syntax_error(self):
        # str.isdigit accepts "²" but int() rejects it: this used to
        # escape as a ValueError from the parser
        sql = "SELECT a FROM t WHERE b = ²"
        with pytest.raises(SQLSyntaxError) as info:
            parse_sql(sql)
        assert info.value.position == sql.index("²")
        assert "unexpected character '²'" in str(info.value)

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert parse_sql("SELECT a FROM t WHERE b = ٣") == parse_sql(
            "SELECT a FROM t WHERE b = 3"
        )

    def test_superscript_inside_a_word_stays_in_the_identifier(self):
        assert kinds("a²") == [TokenKind.IDENT]
        assert values("a²") == ["a²"]

    @pytest.mark.parametrize("ch", ["²", "Ⅻ", "½"])
    def test_numeric_non_letters_do_not_start_identifiers(self, ch):
        with pytest.raises(SQLSyntaxError) as info:
            tokenize(f"a {ch}b")
        assert info.value.position == 2


class TestOperators:
    @pytest.mark.parametrize("op", ["<>", "!=", ">=", "<=", "||"])
    def test_multichar_operator(self, op):
        token = tokenize(op)[0]
        assert token.kind is TokenKind.OPERATOR
        assert token.value == op

    @pytest.mark.parametrize("op", list("+-/%=<>"))
    def test_single_char_operator(self, op):
        assert tokenize(op)[0].value == op

    def test_maximal_munch(self):
        assert values("a<=b") == ["a", "<=", "b"]


class TestCommentsAndQuoting:
    def test_line_comment_skipped(self):
        assert values("a -- comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("a /* never closed")

    def test_double_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "Weird Name"

    def test_bracket_quoted_identifier(self):
        assert tokenize("[My Col]")[0].value == "My Col"

    def test_backtick_identifier(self):
        assert tokenize("`col`")[0].value == "col"

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("a ? b")
