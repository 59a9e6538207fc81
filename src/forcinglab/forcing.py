"""The forcing relation over a finite poset, plus its semantic cross-check.

On a finite poset the regular-open algebra RO(P) is atomic, with one atom per
minimal filter: a regular-open set is fixed by the minimal filters whose
witness lies in it.  So every formula is evaluated to its Boolean value
``||f||`` in RO(P), carried as a bitmask over minimal filters, by the
Boolean-valued model's recursion on rank (Jech, *Set Theory*, 2003, ch. 14).
Writing ``e(q)`` for the minimal filters containing condition ``q``:

* ``||x in y||`` is the OR, over the entries ``(z, q)`` of ``y``, of
  ``e(q) & ||x = z||``;
* ``||x = y||`` is the AND, over the entries ``(z, q)`` of ``x``, of
  ``~e(q) | ||z in y||``, and the same with ``x`` and ``y`` swapped.

Negation is complement, conjunction and disjunction are AND and OR,
implication is ``~a | b``, and a bounded quantifier ANDs (universal) or ORs
(existential) its body, guarded by ``e(q)``, over the entries ``(z, q)`` of
its bound.  Each of these loops takes the entries in whatever order the set
holds them and stops only when the mask is full or empty (equality takes
the name with fewer entries first): no order can change an answer, only the
work done and what the memo tables keep.

Back to conditions: ``p`` forces ``f`` exactly when ``e(p)`` lies inside
``||f||``, so the conditions forcing ``f`` are those in no minimal filter
missing from ``||f||``, one kernel union over the filter masks
(``Spectrum.back``).  ``forces`` and ``decides`` read the filter mask
directly.

The independent check is purely semantic: on a finite poset the upward
closure of a minimal condition meets every dense set, so evaluating a
formula directly on the hereditarily finite interpretations of its names
under every such filter decides everything.  ``p`` semantically forces a
formula when it evaluates true under every minimal filter through ``p``.
The oracle shares the connectives and quantifiers above, and differs from
the forcing route in its atomic clauses alone; ``tests/helpers.py`` keeps
the forcing recursion over condition masks as the reference for the rest.
The two routes are compared set-for-set in the tests.

A constant (check-shaped) name denotes the same HF set under every filter,
and a name knows from its interning whether it is constant under a top.
An atom on two constant names is forced everywhere or nowhere (the
check-name lemma, Kunen, *Set Theory*, ch. VII: ``1 ⊩ x̌ ∈ y̌`` iff
``x ∈ y``), and both routes decide it without HF sets: interning makes
constant names canonical, so ``x̌ ∈ y̌`` holds iff ``(x̌, 1)`` is an entry
of ``y̌``, and ``x̌ = y̌`` iff they are one object.  The oracle reads a
check name's value from its record instead of rebuilding it per filter.
The tests hold both shortcuts to the plain recursion and the per-filter
walk kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Mapping, Optional

from .completion import RegularOpenAlgebra
from .errors import ForcingLabError, InputError
from .formulas import And, Check, Eq, ExistsIn, ForallIn, Formula, Imp, Mem, Not, Or, Term
from .names import HF, Name, _interpret, check_name, is_constant, validate_name
from .poset import Poset


def context_for(P: Poset) -> "ForcingContext":
    """The forcing context of P, built on first use and kept on P itself, so
    that it and its memo tables are freed together with the poset."""
    if P._context is None:
        P._context = ForcingContext(P)
    return P._context


class ForcingContext:
    """Per-poset memo tables for atomic values, formula values, and the oracle.

    ``value`` evaluates a formula to its Boolean value in RO(P), a mask over
    the minimal filters (its atoms), by the recursion in the module
    docstring.  The filters and ``e(p)`` are the poset's own ``Spectrum``,
    read from ``spectrum``: a condition ``p`` forces the formula exactly when
    ``spectrum.cond_filters[p]`` lies inside that mask, and
    ``spectrum.back`` turns a value into the set of conditions forcing it,
    for the condition-mask readers.

    Every table holds filter masks: ``_mem`` and ``_eq`` the values of the
    atomic formulas on two names, ``_forces`` the values of formulas, and
    ``_oracle`` the filters under which a formula evaluates true.

    A formula's entry is keyed on the formula and the names its free
    variables denote, so equal environments share entries whatever mapping
    object carries them, and an environment may change between calls.  Names
    are validated where they enter, once per context: ``value`` and
    ``oracle_mask`` validate the names their formula's free variables denote
    before any entry is computed, so no entry is stored for an invalid name.
    Every name the recursion meets is a check name or lies inside one of
    those, and so is valid too.  Every memo entry is a function of its key
    alone, so two writes of one key store the same value.  On CPython with
    the global interpreter lock, threads sharing one context get the answers
    a single thread gets (``tests/test_forcing.py`` checks this with 8
    threads).  The tables are not bounded yet.
    """

    def __init__(self, P: Poset):
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 50000))
        self.poset = P
        self.spectrum = P.spectrum()
        self._mem: dict[tuple[Name, Name], int] = {}
        self._eq: dict[tuple[Name, Name], int] = {}
        self._forces: dict[tuple, int] = {}
        self._oracle: dict[tuple, int] = {}
        self._interp: list[dict[Name, HF]] = [{} for _ in self.spectrum.filters]
        self._validated: set[Name] = set()

    # -- names ----------------------------------------------------------------

    def require_valid(self, name: Name) -> None:
        """Raise InputError unless name keeps the nested-condition discipline;
        a name found valid is recorded, and not walked again."""
        if name in self._validated:
            return
        ok, violation = validate_name(name, self.poset)
        if not ok:
            path, cond = violation
            raise InputError(
                f"name violates the nested-condition discipline at {cond!r} (path {path})"
            )
        self._validated.add(name)

    def interp(self, name: Name, fidx: int) -> HF:
        """The value of name under minimal filter fidx.  A check name constant
        under the top, or one inside name, is read from its record, so its
        value is never rebuilt; the per-filter tables hold the rest."""
        members = self.spectrum.filter_masks[fidx]
        return _interpret(name, members, self.poset.index, self._interp[fidx], self.poset.top)

    # -- atomic values -----------------------------------------------------------

    def _mem_value(self, x: Name, y: Name) -> int:
        key = (x, y)
        hit = self._mem.get(key)
        if hit is not None:
            return hit
        top = self.poset.top
        if is_constant(y, top) and is_constant(x, top):
            # the check-name lemma: forced everywhere or nowhere; constant
            # names are canonical, so x's value is in y's iff x is an entry
            self._mem[key] = self.spectrum.filter_full if (x, top) in y.entries else 0
            return self._mem[key]
        index = self.poset.index
        cond_filters = self.spectrum.cond_filters
        full = self.spectrum.filter_full
        V = 0
        for child, cond in y.entries:
            V |= cond_filters[index[cond]] & self._eq_value(x, child)
            if V == full:
                break
        self._mem[key] = V
        return V

    def _eq_value(self, x: Name, y: Name) -> int:
        if x is y:
            return self.spectrum.filter_full
        key = (x, y)
        hit = self._eq.get(key)
        if hit is not None:
            return hit
        top = self.poset.top
        if is_constant(x, top) and is_constant(y, top):
            # two constant names with equal values are one object
            self._eq[key] = self._eq[(y, x)] = 0
            return 0
        index = self.poset.index
        cond_filters = self.spectrum.cond_filters
        # the name with fewer entries first: an empty mask skips the other
        a, b = (x, y) if len(x.entries) <= len(y.entries) else (y, x)
        V = self.spectrum.filter_full
        for s, t in ((a, b), (b, a)):
            for child, cond in s.entries:
                V &= ~cond_filters[index[cond]] | self._mem_value(child, t)
                if not V:
                    break
            if not V:
                break
        self._eq[key] = self._eq[(y, x)] = V
        return V

    def _atom(self, is_mem: bool, x: Name, y: Name) -> int:
        return self._mem_value(x, y) if is_mem else self._eq_value(x, y)

    def mem_set(self, x: Name, y: Name) -> int:
        """Conditions forcing membership of x in y."""
        return self.spectrum.back(self._mem_value(x, y))

    def eq_set(self, x: Name, y: Name) -> int:
        """Conditions forcing equality of x and y."""
        return self.spectrum.back(self._eq_value(x, y))

    # -- formula values ------------------------------------------------------

    def _key(self, f: Formula, env: Mapping[str, Name], binds: dict[str, Name]) -> tuple:
        """f with the names its free variables denote, in sorted order; a
        variable resolves through binds first, then env."""
        try:
            return (f, tuple([binds[v] if v in binds else env[v] for v in f.free]))
        except KeyError as exc:
            raise InputError(f"unbound symbol {exc.args[0]!r}") from None
        except AttributeError:
            raise InputError(f"not a formula node: {f!r}") from None

    def _resolve(self, term: Term, env: Mapping[str, Name], binds: dict[str, Name]) -> Name:
        if isinstance(term, Check):
            return check_name(term.value, self.poset)
        # the node's key has resolved the term
        return binds[term] if term in binds else env[term]

    def _eval(
        self,
        f: Formula,
        env: Mapping[str, Name],
        binds: dict[str, Name],
        table: dict[tuple, int],
        atom: Callable[[bool, Name, Name], int],
    ) -> int:
        """The filter mask of f, memoised in table; ``atom(is_mem, x, y)``
        gives the mask of an atomic formula on two names."""
        key = self._key(f, env, binds)
        hit = table.get(key)
        if hit is not None:
            return hit
        if isinstance(f, (Mem, Eq)):
            out = atom(isinstance(f, Mem), self._resolve(f.left, env, binds), self._resolve(f.right, env, binds))
        elif isinstance(f, Not):
            out = ~self._eval(f.sub, env, binds, table, atom) & self.spectrum.filter_full
        elif isinstance(f, And):
            out = self._eval(f.left, env, binds, table, atom) & self._eval(f.right, env, binds, table, atom)
        elif isinstance(f, Or):
            out = self._eval(f.left, env, binds, table, atom) | self._eval(f.right, env, binds, table, atom)
        elif isinstance(f, Imp):
            left = self._eval(f.left, env, binds, table, atom)
            out = (~left | self._eval(f.right, env, binds, table, atom)) & self.spectrum.filter_full
        elif isinstance(f, ForallIn):
            S, index = self.spectrum, self.poset.index
            w = self._resolve(f.bound, env, binds)
            out = S.filter_full
            for child, cond in w.entries:
                sub = self._eval(f.body, env, {**binds, f.var: child}, table, atom)
                out &= ~S.cond_filters[index[cond]] | sub
                if not out:
                    break
        elif isinstance(f, ExistsIn):
            S, index = self.spectrum, self.poset.index
            w = self._resolve(f.bound, env, binds)
            out = 0
            for child, cond in w.entries:
                out |= S.cond_filters[index[cond]] & self._eval(f.body, env, {**binds, f.var: child}, table, atom)
                if out == S.filter_full:
                    break
        table[key] = out
        return out

    def _entry_binds(self, f: Formula, env: Mapping[str, Name], binds: Optional[dict[str, Name]]) -> dict[str, Name]:
        """binds, or an empty dict, once the names bound to f's free
        variables are validated."""
        binds = binds or {}
        for name in self._key(f, env, binds)[1]:
            self.require_valid(name)
        return binds

    def value(self, f: Formula, env: Mapping[str, Name], binds: Optional[dict[str, Name]] = None) -> int:
        """The Boolean value of f in RO(P), as a bitmask over minimal filters."""
        return self._eval(f, env, self._entry_binds(f, env, binds), self._forces, self._atom)

    def forces_set(self, f: Formula, env: Mapping[str, Name], binds: Optional[dict[str, Name]] = None) -> int:
        """Conditions forcing f."""
        return self.spectrum.back(self.value(f, env, binds))

    # -- semantic oracle -------------------------------------------------------

    def _oracle_atom(self, is_mem: bool, x: Name, y: Name) -> int:
        top = self.poset.top
        if is_constant(x, top) and is_constant(y, top):
            # the check-name lemma: true under every filter or under none
            holds = (x, top) in y.entries if is_mem else x is y
            return self.spectrum.filter_full if holds else 0
        out = 0
        for fidx in range(len(self.spectrum.filters)):
            xv = self.interp(x, fidx)
            yv = self.interp(y, fidx)
            if xv in yv if is_mem else xv == yv:
                out |= 1 << fidx
        return out

    def oracle_mask(self, f: Formula, env: Mapping[str, Name], binds: Optional[dict[str, Name]] = None) -> int:
        """Bitmask over minimal filters under which f evaluates true."""
        return self._eval(f, env, self._entry_binds(f, env, binds), self._oracle, self._oracle_atom)

    def oracle_condition_set(self, f: Formula, env: Mapping[str, Name]) -> int:
        """Conditions p such that f holds under every minimal filter through p."""
        return self.spectrum.back(self.oracle_mask(f, env))


# -- public operations ----------------------------------------------------


def forces_atomic(P: Poset, p: str, kind: str, x: Name, y: Name) -> bool:
    """Does p force the atomic statement (kind is 'mem' or 'eq')?"""
    ctx = context_for(P)
    ctx.require_valid(x)
    ctx.require_valid(y)
    bit = 1 << P.check_condition(p)
    if kind == "mem":
        return bool(ctx.mem_set(x, y) & bit)
    if kind == "eq":
        return bool(ctx.eq_set(x, y) & bit)
    raise InputError(f"atomic kind must be 'mem' or 'eq', got {kind!r}")


def forces(P: Poset, p: str, f: Formula, env: Mapping[str, Name]) -> bool:
    ctx = context_for(P)
    return not ctx.spectrum.cond_filters[P.check_condition(p)] & ~ctx.value(f, env)


def forces_set(P: Poset, f: Formula, env: Mapping[str, Name]) -> frozenset[str]:
    ctx = context_for(P)
    return frozenset(P.ids_of(ctx.forces_set(f, env)))


FORCES = "forces"
FORCES_NEGATION = "forces-negation"
UNDECIDED = "undecided"


def decides(P: Poset, p: str, f: Formula, env: Mapping[str, Name]) -> str:
    """Which of p forcing f, p forcing its negation, or neither, holds."""
    ctx = context_for(P)
    V = ctx.value(f, env)
    return _verdict(ctx.spectrum.cond_filters[P.check_condition(p)], V)


def _verdict(e: int, V: int) -> str:
    """The verdict of a condition through the minimal filters e on a formula
    of value V: e inside V forces it, e disjoint from V its negation."""
    if not e & ~V:
        return FORCES
    if not e & V:
        return FORCES_NEGATION
    return UNDECIDED


def decide_name_value(P: Poset, p: str, y: Name) -> list[tuple[str, HF]]:
    """Pair every minimal condition below p with the value it decides y to be.

    Each returned (m, z) is verified: m forces y equal to the constant name
    of z.  The list is never empty since a finite poset has a minimal
    condition below everything.
    """
    ctx = context_for(P)
    ctx.require_valid(y)
    pi = P.check_condition(p)
    out = []
    for fidx, (w, members) in enumerate(P.minimal_filters()):
        if not members >> pi & 1:
            continue
        z = ctx.interp(y, fidx)
        zname = check_name(z, P)
        if ctx.spectrum.cond_filters[P.index[w]] & ~ctx._eq_value(y, zname):
            raise ForcingLabError(
                f"decision check failed: {w!r} does not force the computed value of the name"
            )
        out.append((w, z))
    if not out:
        raise ForcingLabError(f"no minimal condition below {p!r}")
    return out


def truth_value(A: RegularOpenAlgebra, f: Formula, env: Mapping[str, Name]) -> int:
    """The element of A that f takes: the set of conditions forcing f.

    That set is already regular open (Kunen, *Set Theory*, 1980, ch. VII):
    it is downward closed, and a condition below which it is dense belongs
    to it, so it equals its own ``ro``.  The tests check this lemma on the
    formula corpus over every small poset."""
    return context_for(A.base).forces_set(f, env)


def oracle_forces(P: Poset, p: str, f: Formula, env: Mapping[str, Name]) -> bool:
    """Semantic route: true under every minimal filter through p."""
    ctx = context_for(P)
    return bool(ctx.oracle_condition_set(f, env) >> P.check_condition(p) & 1)


def oracle_set(P: Poset, f: Formula, env: Mapping[str, Name]) -> frozenset[str]:
    ctx = context_for(P)
    return frozenset(P.ids_of(ctx.oracle_condition_set(f, env)))


def soundness_disagreements(
    P: Poset, formulas: Iterable[Formula], env: Mapping[str, Name]
) -> list[tuple[Formula, frozenset[str], frozenset[str]]]:
    """Formulas where the syntactic and semantic condition sets differ."""
    ctx = context_for(P)
    bad = []
    for f in formulas:
        syntactic = ctx.forces_set(f, env)
        semantic = ctx.oracle_condition_set(f, env)
        if syntactic != semantic:
            bad.append((f, frozenset(P.ids_of(syntactic)), frozenset(P.ids_of(semantic))))
    return bad
