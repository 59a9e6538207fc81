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
closure of S is the union of the ``up`` rows over S, and the conditions
compatible with some member of S are the union of the ``compat`` rows.
``RowUnion`` answers such unions with the Method of Four Russians
(Arlazarov, Dinic, Kronrod and Faradzev, 1970): the rows are cut into chunks
of four consecutive indices, and for each chunk a 16-entry table holds the
union of every subset of its four rows (entry m is the union of the rows
whose bits are set in m; single-row entries are the row objects themselves).
A query walks the mask byte by byte and ORs the low-nibble entry of one chunk
with the high-nibble entry of the next, so it costs one step per nonzero byte
instead of one per condition.  ``Poset`` builds its ``up`` and ``compat``
kernels on first use.

``Poset`` values are not modified after ``__init__`` apart from their lazily
built caches, which are private and always rebuilt to the same value, so a
poset may be read from several threads.  On CPython the forcing context
evaluated over it may be shared too: see ``forcing.ForcingContext``.  That
context is kept in a slot of its poset (``forcing.context_for`` fills it), so
it lives exactly as long as the poset does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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


class Poset:
    """A finite reflexive-transitive order with a greatest element.

    ``pairs`` lists (p, q) with p <= q; they may be cover pairs, the
    reflexive-transitive closure is computed unless ``closed=True`` promises
    the input relation is already closed.
    """

    __slots__ = (
        "name",
        "ids",
        "index",
        "top",
        "_down",
        "_up",
        "_full",
        "_compat",
        "_up_kernel",
        "_compat_kernel",
        "_minimal_mask",
        "_minimal_filters",
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
        *,
        closed: bool = False,
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
        if not closed:
            for k in range(n):
                bit = 1 << k
                dk = down[k]
                for i in range(n):
                    if down[i] & bit:
                        down[i] |= dk
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
        self._compat: Optional[list[int]] = None
        self._up_kernel: Optional[RowUnion] = None
        self._compat_kernel: Optional[RowUnion] = None
        self._minimal_mask: Optional[int] = None
        self._minimal_filters: Optional[tuple[tuple[str, int], ...]] = None
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
        """p <= q under the stored closed relation."""
        pi = self.check_condition(p)
        return bool(self._down[self.check_condition(q)] >> pi & 1)

    def compat_masks(self) -> list[int]:
        """compat_masks()[i] = bitmask of conditions compatible with ids[i].

        Those are the conditions above some r <= ids[i], so row i is the
        upward closure of the down-set of i.
        """
        if self._compat is None:
            up = self.up_kernel()
            self._compat = [up.union(d) for d in self._down]
        return self._compat

    def up_kernel(self) -> RowUnion:
        """``union(S)`` is the upward closure of S."""
        if self._up_kernel is None:
            self._up_kernel = RowUnion(self._up)
        return self._up_kernel

    def compat_kernel(self) -> RowUnion:
        """``union(S)`` is the set of conditions compatible with some member of S."""
        if self._compat_kernel is None:
            self._compat_kernel = RowUnion(self.compat_masks())
        return self._compat_kernel

    def compatible(self, p: str, q: str) -> bool:
        """True iff some r satisfies r <= p and r <= q."""
        pi = self.check_condition(p)
        qi = self.check_condition(q)
        return bool(self._down[pi] & self._down[qi])

    def minimal_mask(self) -> int:
        """Bitmask of conditions with nothing strictly below them."""
        if self._minimal_mask is None:
            mask = 0
            down, up = self._down, self._up
            for i in range(len(self.ids)):
                # minimal: everything below i is also above i (same class)
                if down[i] & ~up[i] == 0:
                    mask |= 1 << i
            self._minimal_mask = mask
        return self._minimal_mask

    def minimal_filters(self) -> tuple[tuple[str, int], ...]:
        """Distinct upward closures of minimal conditions, as (witness id, mask).

        Equivalent minimal conditions generate the same filter; only one
        representative per filter is kept, in identifier order.
        """
        if self._minimal_filters is None:
            seen: dict[int, str] = {}
            mm = self.minimal_mask()
            i = 0
            while mm:
                if mm & 1:
                    um = self._up[i]
                    if um not in seen:
                        seen[um] = self.ids[i]
                mm >>= 1
                i += 1
            self._minimal_filters = tuple((wid, um) for um, wid in sorted(seen.items(), key=lambda kv: kv[1]))
        return self._minimal_filters


@dataclass(frozen=True)
class Filter:
    """An upward closed, downward directed, nonempty condition set."""

    poset: Poset
    members: frozenset[str]

    def __post_init__(self):
        if not is_filter(self.poset, self.members):
            raise InputError("condition set is not a filter")

    def __contains__(self, p: str) -> bool:
        return p in self.members

    def mask(self) -> int:
        return self.poset.mask_of(self.members)


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
    mask = P.mask_of(S)
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
    """Every condition is compatible with some member of E."""
    return P.compat_kernel().union(P.mask_of(E)) == P.full_mask


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
    chosen = sorted(a_set)
    chosen_mask = 0
    compat = P.compat_masks()
    for p in chosen:
        chosen_mask |= 1 << P.check_condition(p)
    for q in sorted(d_set):
        qi = P.check_condition(q)
        if 1 << qi & chosen_mask:
            continue
        if compat[qi] & chosen_mask:
            continue
        chosen.append(q)
        chosen_mask |= 1 << qi
    return frozenset(chosen)


def is_separative(P: Poset) -> bool:
    """Whenever p is not below q, some r <= p is incompatible with q."""
    n = len(P.ids)
    down = P._down
    compat = P.compat_masks()
    for p in range(n):
        for q in range(n):
            if down[q] >> p & 1:
                continue
            # need r <= p with r incompatible with q
            if down[p] & ~compat[q] == 0:
                return False
    return True


def separative_quotient(P: Poset) -> tuple[Poset, dict[str, str], bool]:
    """Quotient by equality of compatibility sets, ordered by their containment.

    Returns (quotient, projection, was_separative); each class is named after
    its lexicographically least member.  ``was_separative`` reports whether
    the projection is a bijection that preserves and reflects the order.
    """
    compat = P.compat_masks()
    classes: dict[int, list[str]] = {}
    for i, c in enumerate(P.ids):
        classes.setdefault(compat[i], []).append(c)
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
        closed=True,
    )
    was_separative = len(reps) == len(P.ids)
    if was_separative:
        for p in P.ids:
            for q in P.ids:
                if P.leq(p, q) != quotient.leq(projection[p], projection[q]):
                    was_separative = False
                    break
            if not was_separative:
                break
    return quotient, projection, was_separative
