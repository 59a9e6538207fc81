"""A small s-expression reader shared by the formula and name grammars.

Produces lists, symbols, and hereditarily-finite-set literals (``#{...}``),
each tagged with the line/column where it started.  Comments run from ``;``
to end of line.  Nodes are named tuples: immutable, and cheaper to build
than frozen dataclasses.  The first field of each kind has its own type
(``str``, ``tuple``, ``frozenset``), so nodes of different kinds never
compare equal.

One compiled regex splits the text into tokens: a run of space and comments,
``(``, ``)``, ``#{``, ``}``, an atom (a run of characters that are none of
space, ``();}`` and ``#``), or a ``#`` not followed by ``{``.  Every
character of the text lies in exactly one token, so ``findall`` returns the
tokens alone and a token's offset is the sum of the lengths before it; a
token's kind is told by its first character.  A single loop over the tokens
keeps an explicit stack of open lists and set literals, so nesting depth is
bounded by memory, not by the recursion limit; inside a set literal the
elements are kept as plain frozensets, and only the outermost literal
becomes a node.  Only space tokens can hold a newline, so the line and
column are counted from those.  Errors carry ``line:col``; an unclosed
``(`` or ``#{`` is reported at its opener.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .errors import InputError

# The identifier charset of both the formula grammar and the line formats.
IDENT = re.compile(r"[A-Za-z0-9_.:+-]+")


class SAtom(NamedTuple):
    text: str
    line: int
    col: int


class SList(NamedTuple):
    items: tuple["SNode", ...]
    line: int
    col: int


class SSet(NamedTuple):
    value: frozenset
    line: int
    col: int


SNode = Union[SAtom, SList, SSet]

_TOKEN = re.compile(r"(?:\s|;[^\n]*)+|[()}]|\#\{?|[^\s();}\#]+")
_new = tuple.__new__  # builds a node without the generated __new__'s Python frame


def _read(text: str, one: bool) -> list[SNode]:
    """The top-level nodes of text; with one, exactly one node."""
    out: list[SNode] = []
    items: list = out  # the innermost open level's finished children
    kind = None  # the innermost open level's class: SList, SSet, or None at top
    stack: list[tuple[list, type, int, int]] = []  # per open level: outer items, outer kind, opener line, col
    line, line_start, end = 1, 0, 0
    for tok in _TOKEN.findall(text):
        start = end
        end += len(tok)
        c = tok[0]
        if c == ";" or c.isspace():
            newlines = tok.count("\n")
            if newlines:
                line += newlines
                line_start = start + tok.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if one and out:
            raise InputError(f"{line}:{col}: trailing input after expression")
        if c == "#":
            if tok == "#":
                raise InputError(f"{line}:{col + 1}: expected '{{' after '#'")
            stack.append((items, kind, line, col))
            items, kind = [], SSet
            continue
        if kind is SSet:
            if c != "}":
                raise InputError(f"{line}:{col}: HF literals contain only nested HF literals")
            value = frozenset(items)
            items, kind, l0, c0 = stack.pop()
            if kind is SSet:
                items.append(value)
                continue
            node = _new(SSet, (value, l0, c0))
        elif c == "(":
            stack.append((items, kind, line, col))
            items, kind = [], SList
            continue
        elif c == ")":
            if kind is None:
                raise InputError(f"{line}:{col}: unbalanced ')'")
            value = tuple(items)
            items, kind, l0, c0 = stack.pop()
            node = _new(SList, (value, l0, c0))
        elif c == "}":
            raise InputError(f"{line}:{col}: unbalanced '}}'")
        else:
            node = _new(SAtom, (tok, line, col))
        items.append(node)
    if stack:
        _, _, l0, c0 = stack[-1]
        opener = "(" if kind is SList else "#{"
        raise InputError(f"{l0}:{c0}: unclosed '{opener}'")
    if one and not out:
        raise InputError(f"{line}:{end - line_start + 1}: unexpected end of input")
    return out


def read_one(text: str) -> SNode:
    return _read(text, True)[0]


def read_all(text: str) -> list[SNode]:
    return _read(text, False)


def print_hf(x: frozenset) -> str:
    """Canonical text, elements sorted by (length, text); no recursion."""
    done: dict[frozenset, str] = {}
    todo = [x]
    while todo:
        s = todo.pop()
        pending = [y for y in s if y not in done]
        if pending:
            todo += (s, *pending)
        elif s not in done:
            done[s] = "#{" + " ".join(sorted((done[y] for y in s), key=lambda t: (len(t), t))) + "}"
    return done[x]
