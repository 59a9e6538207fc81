"""Finite forcing preorders and their order-theoretic vocabulary.

A forcing here is a finite set of condition identifiers carrying a reflexive,
transitive relation with a designated greatest element.  Antisymmetry is not
required; distinct conditions may sit in the same equivalence class of the
order.  All condition sets handed around by this module are plain sets of
identifier strings; internally every set is mirrored as a bitmask over the
lexicographically sorted identifier list, which keeps the quantifier-heavy
predicates (density, exhaustiveness, compatibility) cheap.

The hot set operations of the forcing and completion layers all compute a
union of rows of a fixed table indexed by the bits of a mask: the upward
closure of S is the union of the ``up`` rows over S, the minimal filters
meeting S are the union of the spectrum's condition rows over S, and the
conditions lying in some filter of a filter mask are the union of the
spectrum's filter rows over it.
``RowUnion`` answers such unions with the Method of Four Russians
(Arlazarov, Dinic, Kronrod and Faradzev, 1970): the rows are cut into chunks
of four consecutive indices, and for each chunk a 16-entry table holds the
union of every subset of its four rows (entry m is the union of the rows
whose bits are set in m; single-row entries are the row objects themselves).
A query walks the mask byte by byte and ORs the low-nibble entry of one chunk
with the high-nibble entry of the next, so it costs one step per nonzero byte
instead of one per condition.  ``Poset`` builds its ``up`` kernel and its
spectrum on first use, and the spectrum builds its two kernels on first use.

Compatibility and everything derived from it is read off the poset's
``Spectrum``, its minimal filters, which are the atoms of the regular-open
algebra RO(P) (Jech, *Set Theory*, 2003, ch. 14).  Write ``e(p)`` for the
minimal filters through p and ``F(u)`` for the union of ``e(p)`` over p in u.
Two conditions are compatible iff their ``e`` meet (a common extension has a
minimal condition below it, whose filter holds both); p lies separatively
below q iff ``e(p)`` is inside ``e(q)``; the conditions incompatible with
every member of u are those all of whose minimal filters miss ``F(u)``; and
ro(u) is the set of conditions all of whose minimal filters lie in ``F(u)``.

``Poset`` values are not modified after ``__init__`` apart from their lazily
built caches, which are private and always rebuilt to the same value, so a
poset may be read from several threads.  On CPython the forcing context
evaluated over it may be shared too: see ``forcing.ForcingContext``.  That
context is kept in a slot of its poset (``forcing.context_for`` fills it), so
it lives exactly as long as the poset does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import InputError, SizeCapError

_DEFAULT_CAP = 20000


def condition_cap() -> int:
    """Maximum number of conditions a constructor may materialize.

    Overridable through the ``FORCINGLAB_CAP`` environment variable (a decimal
    count of conditions).
    """
    raw = os.environ.get("FORCINGLAB_CAP")
    if raw is None:
        return _DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"FORCINGLAB_CAP must be a decimal integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"FORCINGLAB_CAP must be positive, got {value}")
    return value


class RowUnion:
    """Unions of the rows of a fixed table of bitmasks.

    ``union(S)`` is the OR of ``rows[i]`` over the set bits i of S; bits of S
    beyond the last row are ignored.  Table c holds the unions of all subsets
    of rows 4c..4c+3, so byte k of S selects one entry of table 2k (``_lo[k]``,
    by its low nibble) and one of table 2k+1 (``_hi[k]``, by its high nibble).
    The chunk width is fixed: 8-bit tables would answer with half the ORs but
    take eight times the memory.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, rows: Iterable[int]):
        rows = list(rows)
        rows.extend([0] * (-len(rows) % 8))
        tables = []
        for base in range(0, len(rows), 4):
            table = [0] * 16
            for m in range(1, 16):
                low = m & -m
                if m == low:
                    table[m] = rows[base + low.bit_length() - 1]
                else:
                    table[m] = table[m ^ low] | table[low]
            tables.append(tuple(table))
        self._lo = tables[0::2]
        self._hi = tables[1::2]

    def union(self, S: int) -> int:
        out = 0
        for b, lo, hi in zip(S.to_bytes((S.bit_length() + 7) >> 3, "little"), self._lo, self._hi):
            if b:
                out |= lo[b & 15] | hi[b >> 4]
        return out


class Spectrum:
    """The minimal filters of a poset, the atoms of its regular-open algebra.

    ``filters`` lists the distinct upward closures of minimal conditions as
    (witness id, condition mask), one per filter, in identifier order of their
    least witnesses; equivalent minimal conditions generate the same filter,
    and a witness lies in its own filter alone.  ``filter_masks`` holds the
    condition masks by themselves, and ``minimal_mask`` the minimal
    conditions.  ``cond_filters[i]`` is ``e(i)``, the filters containing
    condition i, as a mask over filters; these are also the filters whose
    witness lies below i.  The kernels from conditions to filters and back are
    built on first use.
    """

    def __init__(self, P: Poset):
        down, up = P._down, P._up
        minimal = 0
        witness: dict[int, int] = {}
        for i in range(len(P.ids)):
            # minimal: everything below i is also above i (same class)
            if down[i] & ~up[i] == 0:
                minimal |= 1 << i
                witness.setdefault(up[i], i)
        self.minimal_mask = minimal
        self.filters = tuple((P.ids[i], um) for um, i in witness.items())
        self.filter_masks = tuple(witness)
        self.filter_full = (1 << len(witness)) - 1
        self.cond_full = P.full_mask
        cond_filters = [0] * len(P.ids)
        for fidx, m in enumerate(self.filter_masks):
            while m:
                low = m & -m
                cond_filters[low.bit_length() - 1] |= 1 << fidx
                m ^= low
        self.cond_filters = cond_filters

    @cached_property
    def _cond_kernel(self) -> RowUnion:
        return RowUnion(self.cond_filters)

    @cached_property
    def _filter_kernel(self) -> RowUnion:
        return RowUnion(self.filter_masks)

    def filters_of(self, u: int) -> int:
        """``F(u)``: the minimal filters through some member of the condition
        mask u."""
        return self._cond_kernel.union(u)

    def members(self, V: int) -> int:
        """The conditions lying in some filter of the filter mask V."""
        return self._filter_kernel.union(V)

    def back(self, V: int) -> int:
        """The conditions all of whose minimal filters are in the filter mask
        V.  Every condition lies in some minimal filter, so the empty mask
        gives no condition."""
        if V == self.filter_full:
            return self.cond_full
        if not V:
            return 0
        return self.cond_full & ~self._filter_kernel.union(~V & self.filter_full)

    def perp(self, u: int) -> int:
        """The conditions incompatible with every member of the condition
        mask u: those with no minimal filter in ``F(u)``."""
        return self.back(~self.filters_of(u) & self.filter_full)


class Poset:
    """A finite reflexive-transitive order with a greatest element.

    ``pairs`` lists (p, q) with p <= q.  Any relation will do: the order is
    its reflexive-transitive closure, so cover pairs suffice and cycles make
    equivalent conditions.
    """

    __slots__ = (
        "name",
        "ids",
        "index",
        "top",
        "_down",
        "_up",
        "_full",
        "_up_kernel",
        "_spectrum",
        "_family_masks",
        "_context",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        ids: Iterable[str],
        top: str,
        pairs: Iterable[tuple[str, str]],
    ):
        id_tuple = tuple(sorted(set(ids)))
        if not id_tuple:
            raise InputError("a poset needs at least one condition")
        if len(id_tuple) > condition_cap():
            raise SizeCapError(
                f"poset {name!r} has {len(id_tuple)} conditions, cap is {condition_cap()}"
            )
        index = {c: i for i, c in enumerate(id_tuple)}
        if top not in index:
            raise InputError(f"top {top!r} is not a condition of poset {name!r}")
        n = len(id_tuple)
        down = [1 << i for i in range(n)]
        for p, q in pairs:
            try:
                pi, qi = index[p], index[q]
            except KeyError as exc:
                raise InputError(f"order pair ({p!r}, {q!r}) mentions an unknown condition") from exc
            down[qi] |= 1 << pi
        # Close the rows in index order, each by one walk down from i.  A
        # row below i is final already: OR it in whole and drop its bits
        # from the walk.  A later row holds only its direct bits, and only
        # the new ones are visited.
        for i in range(n):
            row = down[i]
            todo = row & ~(1 << i)
            while todo:
                low = todo & -todo
                j = low.bit_length() - 1
                below = down[j]
                if j < i:
                    todo &= ~below
                else:
                    todo = (todo ^ low) | (below & ~row)
                row |= below
            down[i] = row
        self.name = name
        self.ids = id_tuple
        self.index = index
        self.top = top
        self._down = down
        self._full = (1 << n) - 1
        if down[index[top]] != self._full:
            raise InputError(f"top {top!r} is not a greatest element of poset {name!r}")
        up = [0] * n
        for i in range(n):
            di = down[i]
            bit = 1 << i
            while di:
                low = di & -di
                up[low.bit_length() - 1] |= bit
                di ^= low
        self._up = up
        self._up_kernel: Optional[RowUnion] = None
        self._spectrum: Optional[Spectrum] = None
        self._family_masks: dict[frozenset[str], int] = {}
        self._context = None

    # -- identifier/bitmask plumbing -------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def full_mask(self) -> int:
        return self._full

    def check_condition(self, p: str) -> int:
        try:
            return self.index[p]
        except KeyError as exc:
            raise InputError(f"unknown condition {p!r} in poset {self.name!r}") from exc

    def mask_of(self, conditions: Iterable[str]) -> int:
        mask = 0
        for p in conditions:
            mask |= 1 << self.check_condition(p)
        return mask

    def family_mask(self, members: frozenset[str]) -> int:
        """``mask_of(members)``, computed once per distinct member set."""
        mask = self._family_masks.get(members)
        if mask is None:
            mask = self._family_masks[members] = self.mask_of(members)
        return mask

    def ids_of(self, mask: int) -> tuple[str, ...]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def down_mask(self, p: str) -> int:
        """Bitmask of all q <= p."""
        return self._down[self.check_condition(p)]

    def up_mask(self, p: str) -> int:
        """Bitmask of all q >= p."""
        return self._up[self.check_condition(p)]

    def down_masks(self) -> list[int]:
        return self._down

    # -- order predicates --------------------------------------------------

    def leq(self, p: str, q: str) -> bool:
        """p <= q in the order."""
        pi = self.check_condition(p)
        return bool(self._down[self.check_condition(q)] >> pi & 1)

    def compat_masks(self) -> list[int]:
        """compat_masks()[i] = bitmask of conditions compatible with ids[i]:
        the members of the minimal filters through ids[i]."""
        S = self.spectrum()
        return [S.members(e) for e in S.cond_filters]

    def up_kernel(self) -> RowUnion:
        """``union(S)`` is the upward closure of S."""
        if self._up_kernel is None:
            self._up_kernel = RowUnion(self._up)
        return self._up_kernel

    def spectrum(self) -> Spectrum:
        """The minimal filters and the kernels over them, built on first use."""
        if self._spectrum is None:
            self._spectrum = Spectrum(self)
        return self._spectrum

    def compatible(self, p: str, q: str) -> bool:
        """True iff some r satisfies r <= p and r <= q."""
        pi = self.check_condition(p)
        qi = self.check_condition(q)
        return bool(self._down[pi] & self._down[qi])

    def minimal_mask(self) -> int:
        """Bitmask of conditions with nothing strictly below them."""
        return self.spectrum().minimal_mask

    def minimal_filters(self) -> tuple[tuple[str, int], ...]:
        """Distinct upward closures of minimal conditions, as (witness id, mask).

        Equivalent minimal conditions generate the same filter; only one
        representative per filter is kept, in identifier order.
        """
        return self.spectrum().filters


@dataclass(frozen=True)
class Filter:
    """An upward closed, downward directed, nonempty condition set.

    ``_mask`` holds the members as a bitmask, built once by the check."""

    poset: Poset
    members: frozenset[str]
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = self.poset.mask_of(self.members)
        if not _is_principal(self.poset, mask):
            raise InputError("condition set is not a filter")
        object.__setattr__(self, "_mask", mask)

    def __contains__(self, p: str) -> bool:
        return p in self.members

    def mask(self) -> int:
        return self._mask


FAMILY_KINDS = ("dense", "exhaustive", "antichain", "unrestricted")


@dataclass(frozen=True)
class ConditionFamily:
    """A condition set tagged with the predicate it is promised to satisfy."""

    members: frozenset[str]
    kind: str = "unrestricted"


def make_family(P: Poset, members: Iterable[str], kind: str = "unrestricted") -> ConditionFamily:
    ms = frozenset(members)
    if kind not in FAMILY_KINDS:
        raise InputError(f"unknown family kind {kind!r}")
    if kind == "dense" and not is_dense(P, ms):
        raise InputError("family tagged dense is not dense")
    if kind == "exhaustive" and not is_exhaustive(P, ms):
        raise InputError("family tagged exhaustive is not exhaustive")
    if kind == "antichain" and not is_antichain(P, ms):
        raise InputError("family tagged antichain is not an antichain")
    for p in ms:
        P.check_condition(p)
    return ConditionFamily(ms, kind)


# -- predicates on condition sets ------------------------------------------


def leq(P: Poset, p: str, q: str) -> bool:
    return P.leq(p, q)


def compatible(P: Poset, p: str, q: str) -> bool:
    return P.compatible(p, q)


def is_filter(P: Poset, S: Iterable[str]) -> bool:
    """Nonempty, upward closed, downward directed.

    A finite filter is the upward closure of its least member: a finite
    directed set has a lower bound inside it, and everything above that
    bound is in the set by upward closure.  Conversely the upward closure of
    any condition is a filter.  So S is a filter exactly when some member's
    up-set is S; none of this needs antisymmetry."""
    return _is_principal(P, P.mask_of(S))


def _is_principal(P: Poset, mask: int) -> bool:
    """Is mask the up-set of one of its members?"""
    up = P._up
    m = mask
    while m:
        low = m & -m
        if up[low.bit_length() - 1] == mask:
            return True
        m ^= low
    return False


def is_dense(P: Poset, D: Iterable[str]) -> bool:
    """Every condition has an extension in D: the upward closure of D is
    everything."""
    return P.up_kernel().union(P.mask_of(D)) == P.full_mask


def is_exhaustive(P: Poset, E: Iterable[str]) -> bool:
    """Every condition is compatible with some member of E: every minimal
    filter meets E."""
    S = P.spectrum()
    return S.filters_of(P.mask_of(E)) == S.filter_full


def is_antichain(P: Poset, A: Iterable[str]) -> bool:
    """All distinct pairs in A are incompatible."""
    members = sorted(set(A))
    down = P._down
    idx = [P.check_condition(p) for p in members]
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if down[idx[a]] & down[idx[b]]:
                return False
    return True


def extend_to_maximal_antichain(P: Poset, A: Iterable[str], D: Iterable[str]) -> frozenset[str]:
    """Grow the antichain A inside D until it is maximal in P.

    Candidates from D are scanned in identifier order, so the result is
    deterministic.  D is expected to be dense; density itself is the caller's
    obligation and is what makes the greedy result maximal in all of P.
    """
    a_set = frozenset(A)
    d_set = frozenset(D)
    if not a_set <= d_set:
        raise InputError("antichain is not contained in the supplied dense set")
    if not is_antichain(P, a_set):
        raise InputError("starting set is not an antichain")
    # the minimal filters through some chosen condition: q is compatible
    # with a chosen condition iff its own filters meet these
    cond_filters = P.spectrum().cond_filters
    taken = 0
    for p in a_set:
        taken |= cond_filters[P.check_condition(p)]
    chosen = set(a_set)
    for q in sorted(d_set):
        e = cond_filters[P.check_condition(q)]
        if not e & taken:
            chosen.add(q)
            taken |= e
    return frozenset(chosen)


def is_separative(P: Poset) -> bool:
    """Whenever p is not below q, some r <= p is incompatible with q.

    p lies separatively below q iff every minimal filter through p passes
    through q, so P is separative iff the conditions whose filters all pass
    through p are exactly those below p."""
    S = P.spectrum()
    return all(S.back(e) == d for e, d in zip(S.cond_filters, P._down))


def separative_quotient(P: Poset) -> tuple[Poset, dict[str, str], bool]:
    """Quotient by equality of the sets of minimal filters through each
    condition, ordered by their containment.

    Returns (quotient, projection, was_separative); each class is named after
    its lexicographically least member.  ``was_separative`` reports whether
    the projection is a bijection that preserves and reflects the order.
    """
    classes: dict[int, list[str]] = {}
    for c, e in zip(P.ids, P.spectrum().cond_filters):
        classes.setdefault(e, []).append(c)
    reps = {row: min(members) for row, members in classes.items()}
    projection = {}
    for row, members in classes.items():
        for c in members:
            projection[c] = reps[row]
    rows = list(classes)
    pairs = []
    for r1 in rows:
        for r2 in rows:
            if r1 & ~r2 == 0:
                pairs.append((reps[r1], reps[r2]))
    quotient = Poset(
        P.name + ".sep",
        reps.values(),
        projection[P.top],
        pairs,
    )
    # the projection always preserves the order; it reflects it exactly
    # when P is separative
    was_separative = len(reps) == len(P.ids) and is_separative(P)
    return quotient, projection, was_separative
