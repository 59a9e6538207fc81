"""The bounded-quantifier language evaluated against names over a poset.

Atoms assert membership or equality between terms; a term is an identifier
symbol resolving either to a quantifier-bound variable or to a name in the
ambient environment, or an inline ``(check #{...})`` constant.  Quantifiers
range over the entries of a name (``forall v in w``, ``exists v in w``).
Implication is kept in the syntax tree and evaluated as the negated
conjunction form.

The concrete grammar is s-expression based::

    (mem t t) | (eq t t) | (not f) | (and f f) | (or f f) | (imp f f)
    | (forall v in t f) | (exists v in t f)

with ``(ingen t)`` accepted as sugar for ``(mem t gen)``.

Nodes are interned (hash-consed) in a weak table under a lock: building a
node equal to a live one returns that object, so ``==`` is identity, and a
node's hash and sorted free variables (``free``) are set once, from its
children's.  Parsing and printing use explicit stacks, not recursion.

``parse_formula`` puts a second weak table in front of the reader, from
text to the formula built from it, so a text is read once while its formula
lives: a repeated text costs one dict lookup and returns the same object.
The table needs no budget, since an entry goes with its formula; what keeps
entries alive is whatever else holds the formulas (in the CLI, the memo keys
of its cached workspaces' forcing contexts), so hits fall with those tables.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Union

from .errors import InputError
from .sexpr import IDENT, SAtom, SList, SNode, SSet, print_hf, read_one


@dataclass(frozen=True)
class Check:
    """An inline constant term: the name whose interpretation is the literal."""

    value: frozenset


Term = Union[str, Check]

_NODES: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()
_FORMS: dict[str, type] = {}  # head -> node class
# text -> the formula parse_formula built from it, weak in the formula.  A
# text that fails to parse is never stored.  Nodes are interned, so an entry
# is a function of its key and two threads may store one unlocked.
_TEXTS: "weakref.WeakValueDictionary[str, Formula]" = weakref.WeakValueDictionary()


def _formula(x) -> "Formula":
    if not isinstance(x, Formula):
        raise InputError(f"not a formula node: {x!r}")
    return x


class Formula:
    """A formula node.  Subclasses name their constructor's arguments in
    ``_fields`` and their head in the class statement (``head="mem"``)."""

    __slots__ = ("free", "_hash", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, head: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        if head:
            cls._head = head
            _FORMS[head] = cls

    def __new__(cls, *args):
        key = (cls, *args)
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                object.__setattr__(node, "free", cls._free_of(*args))
                for name, value in zip(cls._fields, args):
                    object.__setattr__(node, name, value)
                object.__setattr__(node, "_hash", hash((cls.__name__, *args)))
                _NODES[key] = node
        return node

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        return print_formula(self)


class _Atom(Formula):
    __slots__ = _fields = ("left", "right")

    @staticmethod
    def _free_of(left: Term, right: Term) -> tuple[str, ...]:
        return tuple(sorted({t for t in (left, right) if isinstance(t, str)}))


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    @staticmethod
    def _free_of(left: Formula, right: Formula) -> tuple[str, ...]:
        a, b = _formula(left).free, _formula(right).free
        return a if a == b else tuple(sorted({*a, *b}))


class _Quantifier(Formula):
    __slots__ = _fields = ("var", "bound", "body")

    @staticmethod
    def _free_of(var: str, bound: Term, body: Formula) -> tuple[str, ...]:
        free = {*_formula(body).free} - {var}
        return tuple(sorted(free | {bound} if isinstance(bound, str) else free))


class Mem(_Atom, head="mem"):
    __slots__ = ()


class Eq(_Atom, head="eq"):
    __slots__ = ()


class Not(Formula, head="not"):
    __slots__ = _fields = ("sub",)

    @staticmethod
    def _free_of(sub: Formula) -> tuple[str, ...]:
        return _formula(sub).free


class And(_Binary, head="and"):
    __slots__ = ()


class Or(_Binary, head="or"):
    __slots__ = ()


class Imp(_Binary, head="imp"):
    __slots__ = ()


class ForallIn(_Quantifier, head="forall"):
    __slots__ = ()


class ExistsIn(_Quantifier, head="exists"):
    __slots__ = ()


def unbound_symbols(f: Formula, env_names: set[str]) -> list[str]:
    """The free variables of f that the environment does not bind, sorted."""
    return [v for v in f.free if v not in env_names]


def _error(node: SNode, message: str) -> InputError:
    return InputError(f"{node.line}:{node.col}: {message}")


def _atom_text(node: SNode, what: str) -> str:
    if not isinstance(node, SAtom):
        raise _error(node, f"expected {what}")
    if not IDENT.fullmatch(node.text):
        raise _error(node, f"bad identifier {node.text!r}")
    return node.text


def _term(node: SNode) -> Term:
    if (
        isinstance(node, SList)
        and len(node.items) == 2
        and isinstance(node.items[0], SAtom)
        and node.items[0].text == "check"
        and isinstance(node.items[1], SSet)
    ):
        return Check(node.items[1].value)
    return _atom_text(node, "a term")


def formula_from_sexpr(node: SNode) -> Formula:
    """The formula a form denotes.  The stack holds forms still to read and,
    under each connective's subforms, a (class, leading fields, subformula
    count) frame that builds it from the last finished subformulas.  Forms
    are checked outside-in, left to right, as a recursive descent would."""
    built: list[Formula] = []
    todo: list = [node]
    while todo:
        item = todo.pop()
        if type(item) is tuple:  # a frame; nodes are tuple subclasses
            cls, fields, k = item
            built[-k:] = [cls(*fields, *built[-k:])]
            continue
        if not isinstance(item, SList):
            raise _error(item, "expected a formula list")
        if not item.items or not isinstance(item.items[0], SAtom):
            raise _error(item, "empty or headless form")
        head, args = item.items[0].text, item.items[1:]
        cls = _FORMS.get("mem" if head == "ingen" else head)
        if cls is None:
            raise _error(item, f"unknown form {head!r}")
        if issubclass(cls, _Quantifier):
            if len(args) != 4 or not (isinstance(args[1], SAtom) and args[1].text == "in"):
                raise _error(item, f"expected ({head} v in t f)")
            todo += ((cls, (_atom_text(args[0], "a variable"), _term(args[2])), 1), args[3])
            continue
        k = 1 if head in ("ingen", "not") else 2
        if len(args) != k:
            raise _error(item, f"{head} takes {k} arguments")
        if head == "ingen":
            built.append(Mem(_term(args[0]), "gen"))
        elif issubclass(cls, _Atom):
            built.append(cls(_term(args[0]), _term(args[1])))
        else:
            todo += ((cls, (), k), *reversed(args))
    return built[0]


def parse_formula(text: str) -> Formula:
    """The formula text denotes.  A text whose formula is alive is not read
    again: see ``_TEXTS``."""
    f = _TEXTS.get(text)
    if f is None:
        f = _TEXTS[text] = formula_from_sexpr(read_one(text))
    return f


def print_term(t: Term) -> str:
    if isinstance(t, Check):
        return f"(check {print_hf(t.value)})"
    return t


def print_formula(f: Formula) -> str:
    """The canonical text of f, from a stack of nodes and text still to write."""
    out: list[str] = []
    todo: list = [_formula(f)]
    while todo:
        g = todo.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, _Atom):
            out.append(f"({g._head} {print_term(g.left)} {print_term(g.right)})")
        elif isinstance(g, _Quantifier):
            out.append(f"({g._head} {g.var} in {print_term(g.bound)} ")
            todo += (")", g.body)
        else:
            out.append(f"({g._head} ")
            todo += (")", g.right, " ", g.left) if isinstance(g, _Binary) else (")", g.sub)
    return "".join(out)
