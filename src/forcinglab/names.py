"""Names over a forcing poset and their interpretation.

A name is a finite set of (child name, condition) pairs; hereditarily finite
sets are plain frozensets (so extensional equality is structural equality).
Interpreting a name under a filter keeps exactly the children whose attached
condition lies in the filter, recursively.

Condition identifiers are coded as hereditarily finite sets through the von
Neumann naturals, with identifiers enumerated in lexicographic order; that
coding is what lets the canonical name for the generic filter interpret back
to the filter itself.

Derived facts live with what they describe: a name knows, from the moment
it is interned, the one condition its entries carry at every depth, if there
is one, so whether it is constant under a top is one comparison; a check
name keeps the set it was built from (its ``_CHECK_CACHE`` key), and a
constant name built some other way gets that record when it is first
interpreted; and a poset keeps its forcing context.  Interning makes the
constant names under one top canonical: two with equal values are one
object (by induction on rank), so their membership and equality are read
off the entry sets.

Three tables remain at module level, none holding a name strongly: ``_VN``
(the von Neumann naturals, plain HF sets, grown on demand and never freed),
``_CHECK_CACHE`` (check names by value and top) and ``_NAMES`` (the interned
names by entry set, so equal names are one object), both weak in the name,
so an entry goes when nothing else holds its name.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
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


_ANY = object()
_MIXED = object()


class Name:
    """A finite set of (child, condition) pairs, immutable and interned:
    equal entries give one object, so equality and hashing are identity.

    ``_uniform`` is the one condition every entry carries at any depth:
    ``_ANY`` for the empty name, ``_MIXED`` when there are two.  ``_check``
    is ``(x, top)`` on the check name of x under that top, once
    ``check_name`` has built it or ``_interpret`` has read its value, else
    None."""

    __slots__ = ("entries", "rank", "_uniform", "_check", "__weakref__")

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
                conds = {cond for _, cond in es} | {c._uniform for c, _ in es} - {_ANY}
                uniform = _ANY if not es else conds.pop() if len(conds) == 1 else _MIXED
                object.__setattr__(name, "_uniform", uniform)
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
    record may name another poset's top (its value is ``frozenset()``).
    Built bottom-up on an explicit stack, so x may have any rank."""
    top = P.top
    hit = _CHECK_CACHE.get((x, top))
    if hit is not None:
        return hit
    built: dict[HF, Name] = {}  # holds the new names, which the table holds weakly
    stack = [x]
    while x not in built:
        cur = stack.pop()
        hit = _CHECK_CACHE.get((cur, top))
        if hit is None:
            pending = [y for y in cur if y not in built]
            if pending:
                stack += (cur, *pending)
                continue
            hit = Name((built[y], top) for y in cur)
            object.__setattr__(hit, "_check", (cur, top))
            _CHECK_CACHE[cur, top] = hit
        built[cur] = hit
    return built[x]


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


def is_constant(n: Name, top: str) -> bool:
    """Does every entry inside n, at any depth, carry top?  Then n names the
    same set under every filter, and is the check name of that set."""
    return n._uniform is _ANY or n._uniform == top


def constant_value(n: Name, P: Poset) -> Optional[HF]:
    """The HF set n names when every condition hereditarily inside n is the
    greatest one (so n interprets to it under every filter), else None."""
    if not is_constant(n, P.top):
        return None
    return _interpret(n, 1 << P.index[P.top], P.index, {}, P.top)


def validate_name(n: Name, P: Poset) -> tuple[bool, Optional[tuple[tuple[str, ...], str]]]:
    """Check the nested-condition discipline: inside an entry attached to q,
    deeper entry conditions must extend to q.

    Constant (check-shaped) subtrees are exempt: their entries all carry the
    greatest condition no matter where they sit, and they interpret the same
    way under every filter.  So an entry with a constant child is checked
    alone, and the walk does not descend into the child, which holds no
    violation and no unknown condition.  Returns (ok, first violation), the
    violation being the path of entry conditions down to the offender.
    Unknown condition identifiers raise an input error.
    """
    index, ids, down, top = P.index, P.ids, P._down, P.top
    top_i = index[top]

    def entries(name: Name):
        # in identifier order, which is index order; an unknown condition
        # sorts between its neighbours (by its text among unknown ones) and
        # raises when the walk reaches it
        return iter(sorted([
            (index[cond] if cond in index else bisect_left(ids, cond) - 0.5, cond, child.rank, id(child), child)
            for child, cond in name.entries
        ]))

    ok_memo: set[tuple[Name, Optional[int]]] = set()
    # depth first on an explicit stack, entries in sorted order; a frame is
    # (name, bound index, path, entries left), and (name, bound) is recorded
    # once its entries run out
    stack = [(n, None, (), entries(n))]
    while stack:
        name, bound, path, left = stack[-1]
        for i, cond, _, _, child in left:
            if type(i) is float:
                P.check_condition(cond)
            constant = is_constant(child, top)
            if bound is not None and not down[bound] >> i & 1 and not (i == top_i and constant):
                return False, (path, cond)
            if not constant and (child, i) not in ok_memo:
                stack.append((child, i, path + (cond,), entries(child)))
                break
        else:
            ok_memo.add((name, bound))
            stack.pop()
    return True, None


def _interpret(n: Name, members: int, index: Mapping[str, int], memo: dict[Name, HF], top: str) -> HF:
    """Post-order walk keeping the children whose condition's bit is set in
    members, which holds top.  A check name constant under top, n or one
    inside it, holds its value under every filter and is read from its
    record; memo holds the other values, under this one filter.  A constant
    name without a record is the check name of its value (interning), so
    once its value is built it gets the record ``check_name`` would give."""
    if n._check is not None and is_constant(n, top):
        return n._check[0]
    hit = memo.get(n)
    if hit is not None:
        return hit
    stack = [n]
    while stack:
        cur = stack[-1]
        constant = cur._uniform is _ANY or cur._uniform == top
        if cur in memo or constant and cur._check is not None:
            stack.pop()
            continue
        live = [c for c, cond in cur.entries if members >> index[cond] & 1]
        # inline is_constant: this loop is the oracle's walk under each filter
        pending = [
            c for c in live
            if c not in memo and (c._check is None or not (c._uniform is _ANY or c._uniform == top))
        ]
        if pending:
            stack.extend(pending)
            continue
        value = frozenset([memo[c] if c in memo else c._check[0] for c in live])
        stack.pop()
        if constant:
            object.__setattr__(cur, "_check", (value, top))
            _CHECK_CACHE[value, top] = cur
        else:
            memo[cur] = value
    return memo[n] if n in memo else n._check[0]


def interpret(n: Name, G: Filter) -> HF:
    """Evaluate the name under the filter, extensionally."""
    try:
        return _interpret(n, G.mask(), G.poset.index, {}, G.poset.top)
    except KeyError as exc:
        raise InputError(f"unknown condition {exc.args[0]!r} in a name") from None
