"""The forcing relation over a finite poset, plus its semantic cross-check.

Instead of deciding one (condition, formula) query at a time, every formula
is evaluated to the full set of conditions forcing it, carried as a bitmask.
The atomic clauses run by simultaneous recursion on rank:

* ``p`` forces ``x = y`` when no extension of ``p`` separates the two names
  by a membership question drawn from the names occurring inside them;
* ``p`` forces ``x in y`` when the extensions of ``p`` that sit below some
  entry condition of ``y`` while forcing equality of ``x`` with that entry
  are dense below ``p``.

Negation is "no extension forces it", conjunction intersects, disjunction
rules out extensions forcing both negations, implication is the negated
conjunction form, the bounded universal intersects over entries, and the
bounded existential asks for a dense set of entry-backed witnesses.

The atomic and bounded-quantifier clauses each OR or AND one mask over all
entries (for equality, over all names inside either side), so their loops
take them in whatever order the sets hold them and stop only when the mask
is full or empty: no order can change an answer, only the work done and
what the memo tables keep.

The independent check is purely semantic: on a finite poset the upward
closure of a minimal condition meets every dense set, so evaluating a
formula directly on the hereditarily finite interpretations of its names
under every such filter decides everything.  ``p`` semantically forces a
formula when it evaluates true under every minimal filter through ``p``.
The two routes are compared set-for-set in the tests.

A constant (check-shaped) name denotes the same HF set under every filter,
so both routes decide it by value, from one constants table per context:
the oracle reads its value instead of rebuilding it per filter, and an
atom on two constant names is forced everywhere or nowhere, by plain
membership or equality of the values (the check-name lemma, Kunen, *Set
Theory*, ch. VII).  The tests hold both shortcuts to the plain recursion
and the per-filter walk kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import sys
from typing import Iterable, Mapping, Optional

from .completion import RegularOpenAlgebra
from .errors import ForcingLabError, InputError
from .formulas import And, Check, Eq, ExistsIn, ForallIn, Formula, Imp, Mem, Not, Or, Term
from .names import HF, Name, _constant_value, _interpret, check_name, hereditary_names, validate_name
from .poset import Poset, RowUnion

# Entries per generation of a context's avoid table; at most two generations
# are kept, so a table holds at most twice this many masks.
_AVOID_BUDGET = 1024


def context_for(P: Poset) -> "ForcingContext":
    """The forcing context of P, built on first use and kept on P itself, so
    that it and its memo tables are freed together with the poset."""
    if P._context is None:
        P._context = ForcingContext(P)
    return P._context


class ForcingContext:
    """Per-poset memo tables for atomic sets, formula sets, and the oracle.

    A formula's entry is keyed on the formula and the names its free
    variables denote, so equal environments share entries whatever mapping
    object carries them, and an environment may change between calls.  The
    names in a key are validated before its entry is computed, even those no
    quantifier entry reaches, so no entry is stored for an invalid name.  Every
    memo entry is a function of its key alone, so two writes of one key store
    the same value.  On CPython with the global interpreter lock, threads
    sharing one context get the answers a single thread gets
    (``tests/test_forcing.py`` checks this with 8 threads).

    ``avoid`` keeps its answers in a bounded table of two generations,
    ``_avoid`` (young) and ``_avoid_old``, keyed on the mask.  A miss in the
    young dict is looked up in the old one, else computed, and written to
    the young one; when the young dict holds ``_AVOID_BUDGET`` entries it
    becomes the old one and the previous old one is dropped.  The answer is
    a function of the mask alone, so these writes are idempotent too: a
    race between threads can at worst drop a generation early or let one
    hold an entry more per thread, never store a wrong answer.  The other
    tables are not bounded yet.
    """

    def __init__(self, P: Poset):
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 50000))
        self.poset = P
        self.n = len(P)
        self.down = P.down_masks()
        self.full = P.full_mask
        filters = P.minimal_filters()
        self.filter_witnesses = tuple(w for w, _ in filters)
        self.filter_masks = tuple(m for _, m in filters)
        self.nf = len(filters)
        self.filter_full = (1 << self.nf) - 1
        # cond_filters[i]: which minimal filters contain condition i; these are
        # simultaneously the filters whose witness lies below condition i.
        cond_filters = [0] * self.n
        for fidx, fmask in enumerate(self.filter_masks):
            m = fmask
            while m:
                low = m & -m
                cond_filters[low.bit_length() - 1] |= 1 << fidx
                m ^= low
        self.cond_filters = cond_filters
        self._filter_kernel: Optional[RowUnion] = None
        self._avoid: dict[int, int] = {}
        self._avoid_old: dict[int, int] = {}
        self._mem: dict[tuple[Name, Name], int] = {}
        self._eq: dict[tuple[Name, Name], int] = {}
        self._forces: dict[tuple, int] = {}
        self._oracle: dict[tuple, int] = {}
        # name -> the HF set it denotes under every filter, or None; a
        # non-constant name here has its children here too
        self._constants: dict[Name, Optional[HF]] = {}
        self._interp: list[dict[Name, HF]] = [{} for _ in range(self.nf)]
        self._validated: set[Name] = set()

    # -- set combinators -----------------------------------------------------

    def avoid(self, S: int) -> int:
        """Conditions with no extension in S."""
        if S == 0:
            return self.full
        if S == self.full:
            return 0
        out = self._avoid.get(S)
        if out is None:
            out = self._avoid_old.get(S)
            if out is None:
                out = self.full & ~self.poset.up_kernel().union(S)
            young = self._avoid
            young[S] = out
            if len(young) >= _AVOID_BUDGET:
                self._avoid_old = young
                self._avoid = {}
        return out

    def dense_below(self, S: int) -> int:
        """Conditions below which S is dense."""
        return self.avoid(self.avoid(S))

    # -- names ----------------------------------------------------------------

    def require_valid(self, name: Name) -> None:
        """Raise InputError unless name keeps the nested-condition discipline.
        Every name inside a valid name is valid too (the walk checked each
        under a stricter bound), so they are all recorded."""
        if name in self._validated:
            return
        ok, violation = validate_name(name, self.poset, self._constants)
        if not ok:
            path, cond = violation
            raise InputError(
                f"name violates the nested-condition discipline at {cond!r} (path {path})"
            )
        self._validated.add(name)
        self._validated |= hereditary_names(name)

    def constant(self, name: Name) -> Optional[HF]:
        """The HF set a constant (check-shaped) name denotes under every
        filter, else None; one table per context."""
        try:
            return self._constants[name]
        except KeyError:
            return _constant_value(name, self.poset.top, self._constants)

    def interp(self, name: Name, fidx: int) -> HF:
        """The value of name under minimal filter fidx.  A constant name, or
        one inside it, is read from the constants table, so its value is
        built once per context; the per-filter tables hold the rest."""
        value = self.constant(name)
        if value is None:
            members = self.filter_masks[fidx]
            value = _interpret(name, members, self.poset.index, self._interp[fidx], self._constants)
        return value

    # -- atomic forcing sets ---------------------------------------------------

    def mem_set(self, x: Name, y: Name) -> int:
        """Conditions forcing membership of x in y."""
        key = (x, y)
        hit = self._mem.get(key)
        if hit is not None:
            return hit
        cy = self.constant(y)
        if cy is not None and (cx := self.constant(x)) is not None:
            # the check-name lemma: forced everywhere or nowhere, by the values
            self._mem[key] = self.full if cx in cy else 0
            return self._mem[key]
        index = self.poset.index
        S = 0
        for child, cond in y.entries:
            S |= self.down[index[cond]] & self.eq_set(x, child)
            if S == self.full:
                break
        result = self.dense_below(S)
        self._mem[key] = result
        return result

    def eq_set(self, x: Name, y: Name) -> int:
        """Conditions forcing equality of x and y."""
        if x == y:
            return self.full
        key = (x, y)
        hit = self._eq.get(key)
        if hit is not None:
            return hit
        cx = self.constant(x)
        if cx is not None and (cy := self.constant(y)) is not None:
            self._eq[key] = self._eq[(y, x)] = self.full if cx == cy else 0
            return self._eq[key]
        U = 0
        for z in hereditary_names(x) | hereditary_names(y):
            U |= self.mem_set(z, x) ^ self.mem_set(z, y)
            if U == self.full:
                break
        result = self.avoid(U)
        self._eq[key] = result
        self._eq[(y, x)] = result
        return result

    # -- formula forcing sets ----------------------------------------------

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
        # the node's key has resolved the term and its name was validated
        return binds[term] if term in binds else env[term]

    def forces_set(self, f: Formula, env: Mapping[str, Name], binds: Optional[dict[str, Name]] = None) -> int:
        binds = binds or {}
        key = self._key(f, env, binds)
        hit = self._forces.get(key)
        if hit is not None:
            return hit
        for name in key[1]:
            self.require_valid(name)
        down = self.down
        index = self.poset.index
        if isinstance(f, Mem):
            out = self.mem_set(self._resolve(f.left, env, binds), self._resolve(f.right, env, binds))
        elif isinstance(f, Eq):
            out = self.eq_set(self._resolve(f.left, env, binds), self._resolve(f.right, env, binds))
        elif isinstance(f, Not):
            out = self.avoid(self.forces_set(f.sub, env, binds))
        elif isinstance(f, And):
            out = self.forces_set(f.left, env, binds) & self.forces_set(f.right, env, binds)
        elif isinstance(f, Or):
            na = self.avoid(self.forces_set(f.left, env, binds))
            nb = self.avoid(self.forces_set(f.right, env, binds))
            out = self.avoid(na & nb)
        elif isinstance(f, Imp):
            nb = self.avoid(self.forces_set(f.right, env, binds))
            out = self.avoid(self.forces_set(f.left, env, binds) & nb)
        elif isinstance(f, ForallIn):
            w = self._resolve(f.bound, env, binds)
            out = self.full
            for child, cond in w.entries:
                sub = self.forces_set(f.body, env, {**binds, f.var: child})
                out &= self.avoid(down[index[cond]] & ~sub & self.full)
                if not out:
                    break
        elif isinstance(f, ExistsIn):
            w = self._resolve(f.bound, env, binds)
            S = 0
            for child, cond in w.entries:
                S |= down[index[cond]] & self.forces_set(f.body, env, {**binds, f.var: child})
                if S == self.full:
                    break
            out = self.dense_below(S)
        self._forces[key] = out
        return out

    # -- semantic oracle -------------------------------------------------------

    def oracle_mask(self, f: Formula, env: Mapping[str, Name], binds: Optional[dict[str, Name]] = None) -> int:
        """Bitmask over minimal filters under which f evaluates true."""
        binds = binds or {}
        key = self._key(f, env, binds)
        hit = self._oracle.get(key)
        if hit is not None:
            return hit
        for name in key[1]:
            self.require_valid(name)
        index = self.poset.index
        if isinstance(f, (Mem, Eq)):
            ln = self._resolve(f.left, env, binds)
            rn = self._resolve(f.right, env, binds)
            lc, rc = self.constant(ln), self.constant(rn)
            if lc is not None and rc is not None:
                # the check-name lemma: true under every filter or under none
                holds = lc in rc if isinstance(f, Mem) else lc == rc
                out = self.filter_full if holds else 0
            else:
                out = 0
                for fidx in range(self.nf):
                    lv = self.interp(ln, fidx)
                    rv = self.interp(rn, fidx)
                    holds = lv in rv if isinstance(f, Mem) else lv == rv
                    if holds:
                        out |= 1 << fidx
        elif isinstance(f, Not):
            out = ~self.oracle_mask(f.sub, env, binds) & self.filter_full
        elif isinstance(f, And):
            out = self.oracle_mask(f.left, env, binds) & self.oracle_mask(f.right, env, binds)
        elif isinstance(f, Or):
            out = self.oracle_mask(f.left, env, binds) | self.oracle_mask(f.right, env, binds)
        elif isinstance(f, Imp):
            out = (~self.oracle_mask(f.left, env, binds) | self.oracle_mask(f.right, env, binds)) & self.filter_full
        elif isinstance(f, ForallIn):
            w = self._resolve(f.bound, env, binds)
            out = self.filter_full
            for child, cond in w.entries:
                guard = self.cond_filters[index[cond]]
                sub = self.oracle_mask(f.body, env, {**binds, f.var: child})
                out &= (~guard | sub) & self.filter_full
                if not out:
                    break
        elif isinstance(f, ExistsIn):
            w = self._resolve(f.bound, env, binds)
            out = 0
            for child, cond in w.entries:
                guard = self.cond_filters[index[cond]]
                out |= guard & self.oracle_mask(f.body, env, {**binds, f.var: child})
                if out == self.filter_full:
                    break
        self._oracle[key] = out
        return out

    def oracle_condition_set(self, f: Formula, env: Mapping[str, Name]) -> int:
        """Conditions p such that f holds under every minimal filter through p."""
        M = self.oracle_mask(f, env)
        missing = ~M & self.filter_full
        if self._filter_kernel is None:
            self._filter_kernel = RowUnion(self.filter_masks)
        return self.full & ~self._filter_kernel.union(missing)


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
    return bool(ctx.forces_set(f, env) >> P.check_condition(p) & 1)


def forces_set(P: Poset, f: Formula, env: Mapping[str, Name]) -> frozenset[str]:
    ctx = context_for(P)
    return frozenset(P.ids_of(ctx.forces_set(f, env)))


FORCES = "forces"
FORCES_NEGATION = "forces-negation"
UNDECIDED = "undecided"


def decides(P: Poset, p: str, f: Formula, env: Mapping[str, Name]) -> str:
    """Which of p forcing f, p forcing its negation, or neither, holds."""
    ctx = context_for(P)
    mask = ctx.forces_set(f, env)
    pi = P.check_condition(p)
    if mask >> pi & 1:
        return FORCES
    if not ctx.down[pi] & mask:
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
    for fidx, w in enumerate(ctx.filter_witnesses):
        if not ctx.filter_masks[fidx] >> pi & 1:
            continue
        z = ctx.interp(y, fidx)
        zname = check_name(z, P)
        if not ctx.eq_set(y, zname) >> P.check_condition(w) & 1:
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
