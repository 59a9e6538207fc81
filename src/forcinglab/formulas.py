"""The bounded-quantifier language evaluated against names over a poset.

Atoms assert membership or equality between terms; a term is an identifier
symbol resolving either to a quantifier-bound variable or to a name in the
ambient environment, or an inline ``(check #{...})`` constant.  Quantifiers
range over the entries of a name (``forall v in w``, ``exists v in w``), so
every variable occurrence must be bound.  Implication is kept in the syntax
tree and evaluated as the negated conjunction form.

The concrete grammar is s-expression based::

    (mem t t) | (eq t t) | (not f) | (and f f) | (or f f) | (imp f f)
    | (forall v in t f) | (exists v in t f)

with ``(ingen t)`` accepted as sugar for ``(mem t gen)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Optional, Union

from .errors import InputError
from .sexpr import IDENT, SAtom, SList, SNode, SSet, print_hf, read_one

Span = Optional[tuple[int, int]]


@dataclass(frozen=True)
class Check:
    """An inline constant term: the name whose interpretation is the literal."""

    value: frozenset


Term = Union[str, Check]


@dataclass(frozen=True)
class Mem:
    left: Term
    right: Term
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Not:
    sub: "Formula"
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class ForallIn:
    var: str
    bound: Term
    body: "Formula"
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class ExistsIn:
    var: str
    bound: Term
    body: "Formula"
    span: Span = field(default=None, compare=False)


Formula = Union[Mem, Eq, Not, And, Or, Imp, ForallIn, ExistsIn]

ATOMS = (Mem, Eq)
BINARY = {"and": And, "or": Or, "imp": Imp}


def _node_hash(self):
    # formula trees are hashed constantly as memo keys; cache per node
    try:
        return object.__getattribute__(self, "_hashcache")
    except AttributeError:
        parts = tuple(
            getattr(self, f.name) for f in dataclass_fields(self) if f.compare
        )
        h = hash((type(self).__name__, parts))
        object.__setattr__(self, "_hashcache", h)
        return h


for _cls in (Check, Mem, Eq, Not, And, Or, Imp, ForallIn, ExistsIn):
    _cls.__hash__ = _node_hash


def depth(f: Formula) -> int:
    """Height of the syntax tree, atoms counting 1."""
    if isinstance(f, ATOMS):
        return 1
    if isinstance(f, Not):
        return 1 + depth(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return 1 + max(depth(f.left), depth(f.right))
    return 1 + depth(f.body)


def unbound_symbols(f: Formula, env_names: set[str]) -> list[tuple[str, Span]]:
    """Every term occurrence that neither a quantifier nor the environment binds."""
    out: list[tuple[str, Span]] = []

    def term(sym: Term, bound: frozenset[str], span: Span):
        if isinstance(sym, Check):
            return
        if sym not in bound and sym not in env_names:
            out.append((sym, span))

    def walk(g: Formula, bound: frozenset[str]):
        if isinstance(g, ATOMS):
            term(g.left, bound, g.span)
            term(g.right, bound, g.span)
        elif isinstance(g, Not):
            walk(g.sub, bound)
        elif isinstance(g, (And, Or, Imp)):
            walk(g.left, bound)
            walk(g.right, bound)
        else:
            term(g.bound, bound, g.span)
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return out


def _atom_text(node: SNode, what: str) -> str:
    if not isinstance(node, SAtom):
        raise InputError(f"{node.line}:{node.col}: expected {what}")
    if not IDENT.fullmatch(node.text):
        raise InputError(f"{node.line}:{node.col}: bad identifier {node.text!r}")
    return node.text


def _term(node: SNode, what: str) -> Term:
    if (
        isinstance(node, SList)
        and len(node.items) == 2
        and isinstance(node.items[0], SAtom)
        and node.items[0].text == "check"
        and isinstance(node.items[1], SSet)
    ):
        return Check(node.items[1].value)
    return _atom_text(node, what)


def formula_from_sexpr(node: SNode) -> Formula:
    if isinstance(node, (SAtom, SSet)):
        raise InputError(f"{node.line}:{node.col}: expected a formula list")
    if not node.items or not isinstance(node.items[0], SAtom):
        raise InputError(f"{node.line}:{node.col}: empty or headless form")
    head = node.items[0].text
    span = (node.line, node.col)
    args = node.items[1:]

    def arity(k: int):
        if len(args) != k:
            raise InputError(f"{node.line}:{node.col}: {head} takes {k} arguments")

    if head in ("mem", "eq"):
        arity(2)
        cls = Mem if head == "mem" else Eq
        return cls(_term(args[0], "a term"), _term(args[1], "a term"), span)
    if head == "ingen":
        arity(1)
        return Mem(_term(args[0], "a term"), "gen", span)
    if head == "not":
        arity(1)
        return Not(formula_from_sexpr(args[0]), span)
    if head in BINARY:
        arity(2)
        return BINARY[head](formula_from_sexpr(args[0]), formula_from_sexpr(args[1]), span)
    if head in ("forall", "exists"):
        if len(args) != 4 or not (isinstance(args[1], SAtom) and args[1].text == "in"):
            raise InputError(f"{node.line}:{node.col}: expected ({head} v in t f)")
        var = _atom_text(args[0], "a variable")
        bound = _term(args[2], "a term")
        body = formula_from_sexpr(args[3])
        cls = ForallIn if head == "forall" else ExistsIn
        return cls(var, bound, body, span)
    raise InputError(f"{node.line}:{node.col}: unknown form {head!r}")


def parse_formula(text: str) -> Formula:
    return formula_from_sexpr(read_one(text))


def print_term(t: Term) -> str:
    if isinstance(t, Check):
        return f"(check {print_hf(t.value)})"
    return t


def print_formula(f: Formula) -> str:
    if isinstance(f, Mem):
        return f"(mem {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, Eq):
        return f"(eq {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, Not):
        return f"(not {print_formula(f.sub)})"
    if isinstance(f, And):
        return f"(and {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, Imp):
        return f"(imp {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, ForallIn):
        return f"(forall {f.var} in {print_term(f.bound)} {print_formula(f.body)})"
    if isinstance(f, ExistsIn):
        return f"(exists {f.var} in {print_term(f.bound)} {print_formula(f.body)})"
    raise InputError(f"not a formula node: {f!r}")
