"""Names over a forcing poset and their interpretation.

A name is a finite set of (child name, condition) pairs; hereditarily finite
sets are plain frozensets (so extensional equality is structural equality).
Interpreting a name under a filter keeps exactly the children whose attached
condition lies in the filter, recursively.

Condition identifiers are coded as hereditarily finite sets through the von
Neumann naturals, with identifiers enumerated in lexicographic order; that
coding is what lets the canonical name for the generic filter interpret back
to the filter itself.

Derived facts live with what they describe: a check name keeps the set it
was built from (its ``_CHECK_CACHE`` key), and a poset keeps its forcing
context.  Three tables remain at module level, none holding a name strongly:
``_VN`` (the von Neumann naturals, plain HF sets, grown on demand and never
freed), ``_CHECK_CACHE`` (check names by value and top) and ``_NAMES`` (the
interned names by entry set, so equal names are one object), both weak in
the name, so an entry goes when nothing else holds its name.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Optional, Union
from weakref import WeakValueDictionary

from .errors import InputError
from .poset import Filter, Poset

HF = frozenset

_EMPTY_HF: HF = frozenset()


def hf_rank(x: HF) -> int:
    memo: dict[HF, int] = {}
    stack = [x]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        pending = [y for y in cur if y not in memo]
        if pending:
            stack.extend(pending)
        else:
            memo[cur] = 1 + max((memo[y] for y in cur), default=-1)
            stack.pop()
    return memo[x]


_VN: list[HF] = [_EMPTY_HF]


def von_neumann(i: int) -> HF:
    """The i-th von Neumann natural {0, 1, ..., i-1}."""
    if i < 0:
        raise InputError("von Neumann coding is defined for naturals")
    while len(_VN) <= i:
        _VN.append(frozenset(_VN))
    return _VN[i]


def von_neumann_value(x: HF) -> Optional[int]:
    """Decode a von Neumann natural, or None if x is not one.

    Bottom-up: x is the natural i when len(x) == i and every element decodes
    to a natural below i.  Distinct elements decode to distinct naturals, so
    they are then exactly 0..i-1.  Each object is decoded once (the memo is
    keyed on ``id``, and x keeps every object alive meanwhile), so a copy of
    a natural that shares no object with ``von_neumann(i)`` takes time
    linear in its distinct objects, where ``==`` would descend every path."""
    memo: dict[int, Optional[int]] = {}
    stack = [x]
    while stack:
        cur = stack[-1]
        if id(cur) in memo:
            stack.pop()
            continue
        pending = [y for y in cur if id(y) not in memo]
        if pending:
            stack.extend(pending)
            continue
        i = len(cur)
        values = [memo[id(y)] for y in cur]
        memo[id(cur)] = i if None not in values and max(values, default=-1) < i else None
        stack.pop()
    return memo[id(x)]


_NAMES: "WeakValueDictionary[frozenset, Name]" = WeakValueDictionary()
_NAMES_LOCK = threading.Lock()


class Name:
    """A finite set of (child, condition) pairs, immutable and interned:
    equal entries give one object, so equality and hashing are identity.

    ``_check`` is ``(x, top)`` on the name ``check_name`` built for x under
    that top, else None."""

    __slots__ = ("entries", "rank", "_check", "__weakref__")

    def __new__(cls, entries: Iterable[tuple["Name", str]] = ()):
        es = frozenset(entries)
        with _NAMES_LOCK:
            name = _NAMES.get(es)
            if name is None:
                for child, cond in es:
                    if not isinstance(child, Name) or not isinstance(cond, str):
                        raise InputError("name entries must be (Name, condition id) pairs")
                name = object.__new__(cls)
                object.__setattr__(name, "entries", es)
                object.__setattr__(name, "rank", 0 if not es else 1 + max(c.rank for c, _ in es))
                object.__setattr__(name, "_check", None)
                _NAMES[es] = name
        return name

    def __setattr__(self, *_):
        raise AttributeError("Name is immutable")

    def __repr__(self) -> str:
        return f"Name({len(self.entries)} entries, rank {self.rank})"


EMPTY_NAME = Name()


def rank(x: Union[Name, HF]) -> int:
    """Rank of a name or hereditarily finite set: 0 when empty, else one more
    than the largest child rank."""
    if isinstance(x, Name):
        return x.rank
    if isinstance(x, frozenset):
        return hf_rank(x)
    raise InputError(f"rank is defined on names and HF sets, not {type(x).__name__}")


_CHECK_CACHE: "WeakValueDictionary[tuple[HF, str], Name]" = WeakValueDictionary()


def check_name(x: HF, P: Poset) -> Name:
    """The constant name for x: every entry carries the greatest condition.
    It records the set it was built from, which is then its constant value:
    the set itself, not a copy.  ``EMPTY_NAME`` serves every top, so its
    record may name another poset's top (its value is ``frozenset()``)."""
    key = (x, P.top)
    hit = _CHECK_CACHE.get(key)
    if hit is None:
        hit = Name((check_name(y, P), P.top) for y in x)
        object.__setattr__(hit, "_check", key)
        _CHECK_CACHE[key] = hit
    return hit


def condition_codes(P: Poset) -> dict[str, HF]:
    """Identifier -> HF code, following lexicographic identifier order."""
    return {cid: von_neumann(i) for i, cid in enumerate(P.ids)}


def decode_condition(P: Poset, x: HF) -> Optional[str]:
    i = von_neumann_value(x)
    if i is None or i >= len(P.ids):
        return None
    return P.ids[i]


def generic_name(P: Poset) -> Name:
    """The canonical name interpreting to the generic filter: one entry
    (coded check name of q, q) per condition q."""
    return Name((check_name(von_neumann(i), P), cid) for i, cid in enumerate(P.ids))


def hereditary_names(n: Name) -> frozenset[Name]:
    """All names occurring strictly inside n, at any depth."""
    inside: set[Name] = set()
    stack = [n]
    while stack:
        for child, _ in stack.pop().entries:
            if child not in inside:
                inside.add(child)
                stack.append(child)
    return frozenset(inside)


def _constant_value(n: Name, top: str, memo: dict[Name, Optional[HF]]) -> Optional[HF]:
    """Fill memo with the constant value (or None) of n and of the names
    inside it.  A name ``check_name`` built under this top has the set it was
    built from as its value, and the names inside it are not walked; every
    other name in memo has all its children there too."""
    if n in memo:
        return memo[n]
    stack = [n]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        check = cur._check
        if check is not None and check[1] == top:
            memo[cur] = check[0]
            stack.pop()
            continue
        pending = [c for c, _ in cur.entries if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        values = [memo[c] for c, cond in cur.entries if cond == top]
        if len(values) < len(cur.entries) or None in values:
            memo[cur] = None
        else:
            memo[cur] = frozenset(values)
        stack.pop()
    return memo[n]


def constant_value(n: Name, P: Poset) -> Optional[HF]:
    """The HF set n names when every condition hereditarily inside n is the
    greatest one (so n interprets to it under every filter), else None."""
    return _constant_value(n, P.top, {})


def validate_name(
    n: Name, P: Poset, constants: Optional[dict[Name, Optional[HF]]] = None
) -> tuple[bool, Optional[tuple[tuple[str, ...], str]]]:
    """Check the nested-condition discipline: inside an entry attached to q,
    deeper entry conditions must extend to q.

    Constant (check-shaped) subtrees are exempt: their entries all carry the
    greatest condition no matter where they sit, and they interpret the same
    way under every filter.  So an entry with a constant child is checked
    alone, and the walk does not descend into the child, which holds no
    violation and no unknown condition.  Returns (ok, first violation), the
    violation being the path of entry conditions down to the offender.
    Unknown condition identifiers raise an input error.  ``constants`` is a
    table of constant values to read and fill, such as a forcing context's.
    """

    def entries(name: Name):
        return iter(sorted(name.entries, key=lambda e: (e[1], e[0].rank, id(e[0]))))

    ok_memo: set[tuple[Name, Optional[str]]] = set()
    if constants is None:
        constants = {}
    # depth first on an explicit stack, entries in sorted order; a frame is
    # (name, bound, path, entries left), and (name, bound) is recorded once
    # its entries run out
    stack = [(n, None, (), entries(n))]
    while stack:
        name, bound, path, left = stack[-1]
        for child, cond in left:
            P.check_condition(cond)
            constant = _constant_value(child, P.top, constants) is not None
            if bound is not None and not P.leq(cond, bound) and not (cond == P.top and constant):
                return False, (path, cond)
            if not constant and (child, cond) not in ok_memo:
                stack.append((child, cond, path + (cond,), entries(child)))
                break
        else:
            ok_memo.add((name, bound))
            stack.pop()
    return True, None


def _interpret(
    n: Name,
    members: int,
    index: Mapping[str, int],
    memo: dict[Name, HF],
    shared: Mapping[Name, Optional[HF]],
) -> HF:
    """Post-order walk keeping the children whose condition's bit is set in
    members.  A name with a value in shared (one that holds under every
    filter) is read from there; memo holds the other values, under this one
    filter."""
    hit = memo.get(n)
    if hit is not None:
        return hit
    stack = [n]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        live = [c for c, cond in cur.entries if members >> index[cond] & 1]
        pending = [c for c in live if c not in memo and shared.get(c) is None]
        if pending:
            stack.extend(pending)
        else:
            memo[cur] = frozenset([memo[c] if c in memo else shared[c] for c in live])
            stack.pop()
    return memo[n]


def interpret(n: Name, G: Filter) -> HF:
    """Evaluate the name under the filter, extensionally."""
    try:
        return _interpret(n, G.mask(), G.poset.index, {}, {})
    except KeyError as exc:
        raise InputError(f"unknown condition {exc.args[0]!r} in a name") from None
