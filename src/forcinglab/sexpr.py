"""A small s-expression reader shared by the formula and name grammars.

Produces lists, symbols, and hereditarily-finite-set literals (``#{...}``),
each tagged with the line/column where it started.  Comments run from ``;``
to end of line.

One compiled regex splits the text into tokens: a run of space and comments,
``(``, ``)``, ``#{``, ``}``, an atom (a run of characters that are none of
space, ``();}`` and ``#``), or a ``#`` not followed by ``{``.  A single loop
over the tokens keeps an explicit stack of open lists and set literals, so
nesting depth is bounded by memory, not by the recursion limit.  Only space
tokens can hold a newline, so the line and column are counted from those.
Errors carry ``line:col``; an unclosed ``(`` or ``#{`` is reported at its
opener.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import InputError

# The identifier charset of both the formula grammar and the line formats.
IDENT = re.compile(r"[A-Za-z0-9_.:+-]+")


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple["SNode", ...]
    line: int
    col: int


@dataclass(frozen=True)
class SSet:
    value: frozenset
    line: int
    col: int


SNode = Union[SAtom, SList, SSet]

_TOKEN = re.compile(
    r"(?P<space>(?:\s|;[^\n]*)+)|(?P<open>\()|(?P<close>\))|(?P<set>\#\{)|(?P<end>\})"
    r"|(?P<atom>[^\s();}\#]+)|(?P<hash>\#)"
)


def _read(text: str, one: bool) -> list[SNode]:
    """The top-level nodes of text; with one, exactly one node."""
    out: list[SNode] = []
    stack: list[tuple[type, list, int, int]] = []  # open frames: node class, items, opener line, col
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", 0, m.end()) + 1
            continue
        col = m.start() - line_start + 1
        if one and out:
            raise InputError(f"{line}:{col}: trailing input after expression")
        if kind == "hash":
            raise InputError(f"{line}:{col + 1}: expected '{{' after '#'")
        if kind == "set":
            stack.append((SSet, [], line, col))
            continue
        if stack and stack[-1][0] is SSet:
            if kind != "end":
                raise InputError(f"{line}:{col}: HF literals contain only nested HF literals")
            _, elems, l0, c0 = stack.pop()
            node = SSet(frozenset(e.value for e in elems), l0, c0)
        elif kind == "open":
            stack.append((SList, [], line, col))
            continue
        elif kind == "close":
            if not stack:
                raise InputError(f"{line}:{col}: unbalanced ')'")
            _, items, l0, c0 = stack.pop()
            node = SList(tuple(items), l0, c0)
        elif kind == "end":
            raise InputError(f"{line}:{col}: unbalanced '}}'")
        else:
            node = SAtom(m.group(), line, col)
        (stack[-1][1] if stack else out).append(node)
    if stack:
        cls, _, l0, c0 = stack[-1]
        opener = "(" if cls is SList else "#{"
        raise InputError(f"{l0}:{c0}: unclosed '{opener}'")
    if one and not out:
        raise InputError(f"{line}:{len(text) - line_start + 1}: unexpected end of input")
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
