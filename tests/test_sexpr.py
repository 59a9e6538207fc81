import sys

import pytest
from helpers import read_all_reference, read_one_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from forcinglab import InputError, parse_formula
from forcinglab.formats import parse_poset
from forcinglab.sexpr import read_all, read_one

PIECES = ["(", ")", "#", "{", "}", "#{", ";", "\n", "\r\n", "\t", " ", "a", "x.1", "ε", "; c"]


def _outcome(read, text):
    try:
        return "ok", read(text)
    except InputError as exc:
        return "error", str(exc)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_reader_matches_reference(text):
    # nodes compare with their positions, errors by their full message
    assert _outcome(read_one, text) == _outcome(read_one_reference, text)
    assert _outcome(read_all, text) == _outcome(read_all_reference, text)


@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_one, "", "1:1: unexpected end of input"),
        (read_one, "  ; note\r\n\t", "2:2: unexpected end of input"),
        (read_one, "; c\r\n  (a b", "2:3: unclosed '('"),
        (read_one, "(a\r\n #{#{}", "2:2: unclosed '#{'"),
        (read_all, "(a) ; x)\n  )", "2:3: unbalanced ')'"),
        (read_one, " ; {\r\n}", "2:1: unbalanced '}'"),
        (read_one, "(a\r\n  # b)", "2:4: expected '{' after '#'"),
        (read_one, "#", "1:2: expected '{' after '#'"),
        (read_one, "#{\r\n ; c\n  a}", "3:3: HF literals contain only nested HF literals"),
        (read_all, "#{ (", "1:4: HF literals contain only nested HF literals"),
        (read_one, "(a) ; c\r\n b", "2:2: trailing input after expression"),
    ],
)
def test_error_messages_and_positions(read, text, message):
    with pytest.raises(InputError) as exc:
        read(text)
    assert str(exc.value) == message


def test_nesting_is_not_bounded_by_the_recursion_limit():
    depth = max(5000, 2 * sys.getrecursionlimit())
    node = read_one("(" * depth + ")" * depth)
    seen = 1
    while node.items:
        (node,) = node.items
        seen += 1
    assert seen == depth


@pytest.mark.parametrize(
    "ident, ok",
    [
        ("a", True),
        ("Z9", True),
        ("0.0.1", True),
        ("a:b", True),
        ("+-", True),
        ("_x", True),
        ("ε", False),
        ("é", False),
        ("a/b", False),
        ("a,b", False),
        ("x*", False),
        ("{", False),
        ("a{b", False),
        ("'q'", False),
        ("a=b", False),
    ],
)
def test_formula_and_poset_parsers_share_identifiers(ident, ok):
    def accepts(parse, text):
        try:
            parse(text)
        except InputError:
            return False
        return True

    assert accepts(parse_formula, f"(mem {ident} y)") is ok
    assert accepts(parse_poset, f"poset P\ntop {ident}\n") is ok
