"""Tokenizer / s-expression reader."""

import random
from fractions import Fraction

import pytest

from prefhtn.errors import ParseError
from prefhtn.sexpr import format_fraction, locate, parse_sexprs, print_sexpr


def test_nested_lists_and_symbols():
    assert parse_sexprs("(a (b c) d)") == [["a", ["b", "c"], "d"]]


def test_numbers_parse_as_exact_rationals():
    assert parse_sexprs("0.4 1 -2/6 .5 +3") == [
        Fraction(2, 5), Fraction(1), Fraction(-1, 3), Fraction(1, 2),
        Fraction(3)]
    # a number starts with a digit, or with a sign or point and a digit
    assert parse_sexprs("- -a .x +.5") == ["-", "-a", ".x", "+.5"]


def test_comments_run_to_end_of_line():
    assert parse_sexprs("(a) ; trailing\n; full line\n(b)") == [["a"], ["b"]]


def test_comment_at_end_of_file_without_newline():
    assert parse_sexprs("(a)\n; last") == [["a"]]
    assert parse_sexprs("(a ; open\n b)") == [["a", "b"]]
    assert parse_sexprs("; only") == []


def test_whitespace_is_space_tab_cr_and_newline_only():
    assert parse_sexprs("(a\tb\r\nc)") == [["a", "b", "c"]]
    assert parse_sexprs("(a\x0cb)") == [["a\x0cb"]]


def error_of(text) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse_sexprs(text, "f.htn")
    return exc.value


def test_unbalanced_paren_reports_position():
    e = error_of("(a\n  (b (c)\n")
    assert (e.line, e.col, e.token) == (2, 3, "(")
    assert str(e).startswith("f.htn:2:3: unbalanced '('")


def test_stray_close_paren():
    e = error_of("(a)\n (b))  (c)")
    assert (e.line, e.col, e.token) == (2, 5, ")")


def test_malformed_number_reports_position():
    e = error_of("(a\n\t(b 1/0))")
    assert (e.line, e.col, e.token) == (2, 5, "1/0")
    assert "malformed number '1/0'" in str(e)
    e = error_of("(x 2.5.1)")
    assert (e.line, e.col) == (1, 4)


def test_string_literal_reports_position_and_comes_first():
    e = error_of('(a ; "in a comment"\n   "b")')
    assert (e.line, e.col, e.token) == (2, 4, '"')
    # found while splitting the text, before any parenthesis is matched
    e = error_of(')\n(a "b")')
    assert (e.line, e.col, e.token) == (2, 4, '"')


def test_errors_come_in_reading_order():
    assert error_of("(1/0 ))").token == "1/0"
    assert error_of(")) (1/0)").token == ")"


def test_bytes_input_must_be_utf8():
    e = error_of(b"(\xff\xfe)")
    assert (e.line, e.col) == (1, 1)
    assert "not valid UTF-8" in str(e)
    assert parse_sexprs("(é)".encode()) == [["é"]]


def test_columns_count_characters():
    e = error_of("(é ü\t1/0)")
    assert (e.line, e.col) == (1, 6)


def test_locate_gives_the_open_paren_of_a_list():
    text = "(a (b)\n ; (not a list)\n  ((c) d))\n(e)"
    exprs = parse_sexprs(text)
    top = exprs[0]
    assert locate(text, exprs, top) == (1, 1)
    assert locate(text, exprs, top[1]) == (1, 4)
    assert locate(text, exprs, top[2]) == (3, 3)
    assert locate(text, exprs, top[2][0]) == (3, 4)
    assert locate(text, exprs, exprs[1]) == (4, 1)
    assert locate(text, exprs, ["b"]) is None  # equal, but not one of them


def test_format_fraction():
    assert format_fraction(Fraction(2, 5)) == "0.4"
    assert format_fraction(Fraction(0)) == "0"
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(3, 8)) == "0.375"


def test_print_parse_round_trip():
    expr = ["a", ["b", Fraction(2, 5)], []]
    assert parse_sexprs(print_sexpr(expr)) == [expr]


SYMBOLS = ["a", "?x", ":pre", "!op", "-", "+", ">>", "&!", "|!", "hold-after",
           "c1", "é"]


def random_tree(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(SYMBOLS)
    if roll < 0.45:
        return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 8, 12]))
    return [random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]


@pytest.mark.parametrize("seed", range(20))
def test_random_tree_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(25):
        tree = random_tree(rng, 5)
        assert parse_sexprs(print_sexpr(tree)) == [tree]
