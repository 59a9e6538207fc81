"""Finite combinatorial engines: the accept/reject dichotomy for families of
finite sets, the dense-level partition search on products of binary trees,
strong subtree assembly, and pure decision for the finite Mathias order.

Everything infinite in the classical statements is finitized by an explicit
parameter: the block size s stands in for "every infinite subset", search
targets bound the sets produced, and exhaustion of the finite universe is
reported rather than treated as a failure.

The accept/reject engine works on bitmasks: a family keeps each member as a
mask (bit x for element x), and a prefix test ORs the elements of a set in
increasing order into one running mask, looking each value up in the member
masks.  Every status test first checks whether a prefix of the fixed part a
is already a member, which settles it outright.  The construction's
``settle`` builds one table per call, holding for every size-s block of the
available pool whether it completes a.  When the blocks do not all agree, it
looks for the largest subset whose blocks do, in one depth-first search
that adds elements in increasing order, reads only the blocks each new
element closes, and drops a partial set as soon as it holds blocks of both
kinds or cannot outgrow the largest set kept.  Agreement passes to subsets,
so the set kept last is the one a size-descending scan of every subset in
``combinations`` order keeps (``gnw_construct``).  The dichotomy search
walks its candidates in colex order as it generates them.

The partition search turns the coloring into bitmask tables once per call,
one per level and color.  Each tree keeps its sorted levels and, for each
pair of levels m <= n, the run of level-n positions, with its mask, under
every level-m node; stems and sources are addressed by position in those
runs, and a stem's rows are tried from the highest m down.  It finds each
row's choice function by a depth-first search in lexicographic order
that drops a partial choice as soon as it can no longer be completed.  Since
picks only ever narrow what can still be completed, the first witness found
is the one a plain scan of every choice function in product order would
return (``hl_search``).

Pure decision compiles clopen predicates against one read-only environment
per Mathias poset and one formula object per accepted prefix, so decisions
reuse both instead of rebuilding them.  It works on condition indices: one
extension table per stem and pool, kept weakly on the poset beside the
environment, lists each canonical condition the family is read from and
each pure extension an answer may be, so a decision reads the family by bit
tests on the forcing mask, takes its verdict from the formula's value, and
builds no condition id.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence
from weakref import WeakKeyDictionary

from .errors import ForcingLabError, InputError, SizeCapError
from .formulas import And, Eq, Formula, Mem, Not, Or
from .forcing import FORCES, UNDECIDED, _verdict, context_for
from .names import Name, check_name, von_neumann
from .poset import Poset
from .zoo import mathias_decode, mathias_id, mathias_pure_extension

# ---------------------------------------------------------------------------
# Accept / reject for families of nonempty finite sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinFamily:
    """A family of nonempty subsets of {0..universe_size-1}.

    ``_masks`` holds each member as a bitmask (bit x for element x), built
    once, so the accept/reject tests (``_prefix_mask``, ``_hits``) grow a
    prefix one OR at a time and look it up."""

    universe_size: int
    members: frozenset[frozenset[int]]
    _masks: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = set()
        for m in self.members:
            if not m:
                raise InputError("family members must be nonempty")
            if not all(isinstance(x, int) and 0 <= x < self.universe_size for x in m):
                raise InputError("family members must live inside the universe")
            masks.add(_mask(m))
        object.__setattr__(self, "_masks", frozenset(masks))


def _mask(xs: Iterable[int]) -> int:
    out = 0
    for x in xs:
        out |= 1 << x
    return out


def _prefix_mask(masks: frozenset[int], xs: Iterable[int]) -> Optional[int]:
    """The mask of the increasing sequence xs, or None when one of its
    initial segments is a member."""
    acc = 0
    for x in xs:
        acc |= 1 << x
        if acc in masks:
            return None
    return acc


def _hits(masks: frozenset[int], acc: int, bits: Iterable[int]) -> bool:
    """Does acc, grown by the bits one at a time, pass through a member?"""
    for b in bits:
        acc |= b
        if acc in masks:
            return True
    return False


ACCEPTS = "accepts"
REJECTS = "rejects"
NEITHER = "neither"


def gnw_accepts(F: FinFamily, a: Iterable[int], A: Iterable[int], s: int) -> str:
    """Accept/reject status of the pair (a, A) at block size s.

    Accepts: every size-s block drawn from A past max(a) completes a to a set
    with an initial segment in the family.  Rejects: no subset of A of size
    at least s accepts.  The rejection check runs on the equivalent single
    block form (any accepted block is itself an accepting subset); the raw
    quantifier form is kept as a test reference.
    """
    a_t = tuple(sorted(set(a)))
    A_t = tuple(sorted(set(A)))
    if s < 1:
        raise InputError("block size must be at least 1")
    if s > len(A_t):
        raise InputError(f"block size {s} exceeds |A| = {len(A_t)}")
    if _accepts(F, a_t, A_t, s):
        return ACCEPTS
    if _rejects(F, a_t, A_t, s):
        return REJECTS
    return NEITHER


def _accepts(F: FinFamily, a_t: tuple[int, ...], A_t: Sequence[int], s: int) -> bool:
    masks = F._masks
    a_mask = _prefix_mask(masks, a_t)
    if a_mask is None:
        return True  # a prefix of a_t is a prefix of a_t + B for every B
    floor = a_t[-1] if a_t else -1
    beyond = [1 << x for x in A_t if x > floor]
    for B in itertools.combinations(beyond, s):
        if not _hits(masks, a_mask, B):
            return False
    return True


def _rejects(F: FinFamily, a_t: tuple[int, ...], A_t: Sequence[int], s: int) -> bool:
    # Equivalent single-block form of "no subset of size >= s accepts": any
    # accepted block is itself an accepting subset, and a subset short on
    # elements past max(a) accepts vacuously.
    floor = a_t[-1] if a_t else -1
    beyond = [1 << x for x in A_t if x > floor]
    low = len(A_t) - len(beyond)
    j = min(s - 1, len(beyond))
    if low >= 1 and low + j >= s:
        return False
    masks = F._masks
    a_mask = _prefix_mask(masks, a_t)
    if a_mask is None:
        return len(beyond) < s  # every block completes a_t
    for C in itertools.combinations(beyond, s):
        if _hits(masks, a_mask, C):
            return False
    return True


@dataclass(frozen=True)
class GnwSearchResult:
    H: frozenset[int]
    horn: str  # "a": nothing from the family inside H; "b": every big block has a prefix


def gnw_dichotomy_search(
    F: FinFamily, h: int, m: int, ground: Optional[frozenset[int]] = None
) -> Optional[GnwSearchResult]:
    """First H of size h, in colex order, satisfying either horn.

    Horn a: no family member is a subset of H.  Horn b: every B inside H with
    at least m elements has an initial segment in the family.  Returns None
    when no candidate works at this finite scale.  Both horns pass from a
    set to its subsets, so when no set of size h satisfies one, no larger
    set does either.
    """
    pool = tuple(sorted(ground)) if ground is not None else tuple(range(F.universe_size))
    if not 1 <= h <= len(pool):
        raise InputError(f"target size {h} out of range for a pool of {len(pool)}")
    if not 1 <= m <= h:
        raise InputError("witness size must satisfy 1 <= m <= h")
    masks = F._masks
    for combo in _colex(pool, h):
        if _no_member_inside(masks, _mask(combo)):
            return GnwSearchResult(frozenset(combo), "a")
        if _horn_b(F, combo, m):
            return GnwSearchResult(frozenset(combo), "b")
    return None


def _colex(pool: Sequence[int], h: int) -> Iterator[tuple[int, ...]]:
    """The h-subsets of pool in colex order (by last element, then the one
    before it, ...), generated as needed: the sets ending at pool[j] come
    after every set inside pool[:j]."""
    if not h:
        yield ()
        return
    for j in range(h - 1, len(pool)):
        last = (pool[j],)
        for head in _colex(pool[:j], h - 1):
            yield head + last


def _no_member_inside(masks: frozenset[int], hmask: int) -> bool:
    return all(mm & ~hmask for mm in masks)


def _horn_b(F: FinFamily, H: tuple[int, ...], m: int) -> bool:
    """Does every B inside H with at least m elements have an initial
    segment in the family?  Depth first over increasing sequences from H:
    once a sequence is a member every extension passes, and a sequence of m
    elements none of whose initial segments is a member fails (a larger B
    passes if its first m elements do)."""
    masks = F._masks
    bits = [1 << x for x in H]
    stack = [(0, 0, 0)]  # (mask so far, its size, next position)
    while stack:
        acc, size, nxt = stack.pop()
        for i in range(nxt, len(bits)):
            grown = acc | bits[i]
            if grown in masks:
                continue
            if size + 1 >= m:
                return False
            stack.append((grown, size + 1, i + 1))
    return True


def gnw_verify_horn(F: FinFamily, H: frozenset[int], m: int, horn: str) -> bool:
    """Independent exhaustive check of a search result, bitmask style."""
    elems = sorted(H)
    member_masks = set()
    for mem in F.members:
        mask = 0
        for x in mem:
            mask |= 1 << x
        member_masks.add(mask)
    if horn == "a":
        hmask = 0
        for x in elems:
            hmask |= 1 << x
        for mm in member_masks:
            if mm & ~hmask == 0:
                return False
        return True
    if horn == "b":
        for bits in range(1, 1 << len(elems)):
            if bin(bits).count("1") < m:
                continue
            acc = 0
            good = False
            for i, x in enumerate(elems):
                if bits >> i & 1:
                    acc |= 1 << x
                    if acc in member_masks:
                        good = True
                        break
            if not good:
                return False
        return True
    raise InputError(f"unknown horn {horn!r}")


@dataclass(frozen=True)
class GnwConstructResult:
    H: frozenset[int]
    horn: Optional[str]
    completed: bool
    transcript: tuple[tuple, ...]


def gnw_construct(
    F: FinFamily, s: int, h: int, ground: Optional[frozenset[int]] = None
) -> GnwConstructResult:
    """Shrink-and-decide construction of a dichotomy witness.

    Walks min-first through the pool keeping an available tail that decides
    (at block size s) every subset of the chosen elements, shrinking the tail
    to an accepting subset whenever a pair is undecided.  If the empty set
    ends up accepted the chosen-plus-tail set realizes horn b; otherwise the
    rejection walk picks elements all of whose subsets stay rejected,
    recording at each step the accepting continuations that were excluded.
    Exhausting the pool early yields a partial result with the transcript so
    far.

    Each ``settle`` first checks whether a prefix of a_t is a member (then
    every block completes it and avail accepts).  Otherwise it builds one
    table, keyed by block mask, of whether each size-s block of avail
    completes a_t.  Every element of avail lies past max(a_t), so the status
    of a_t over any subset B of avail ranges over exactly the blocks inside
    B: accepts when all of them complete a_t, rejects when none does.  When
    the whole table agrees, avail decides a_t.  Otherwise one depth-first
    search (``_largest_uniform``) finds the first subset, in combinations
    order, of the largest size below len(avail) whose blocks agree.  It
    drops a partial subset once it holds blocks of both kinds, as then does
    every superset, or cannot outgrow the subset kept.  So the subset it
    keeps, and the transcript, are those of a direct test of every candidate
    in size-descending ``combinations`` order.  The rejection walk reads each
    status with ``_rejects``, on inputs already sorted and checked.
    """
    pool = tuple(sorted(ground)) if ground is not None else tuple(range(F.universe_size))
    if not 1 <= h <= len(pool):
        raise InputError(f"target size {h} out of range for a pool of {len(pool)}")
    if not 1 <= s <= h:
        raise InputError("block size must satisfy 1 <= s <= h")
    masks = F._masks
    transcript: list[tuple] = []
    avail = list(pool)
    chosen: list[int] = []

    def settle(a_t: tuple[int, ...]) -> Optional[str]:
        """Make avail decide a_t, shrinking to the largest deciding subset
        when it does not already, and return the verdict; None when stuck
        below the block size."""
        nonlocal avail
        if len(avail) < s:
            return None
        a_mask = _prefix_mask(masks, a_t)
        if a_mask is None:
            # a prefix of a_t is a member: every block completes it
            transcript.append(("decide", a_t, ACCEPTS))
            return ACCEPTS
        # Every element of avail lies past max(a_t), so the s-blocks of a
        # candidate B are exactly the blocks the status of (a_t, B) ranges
        # over, and none of them has an element at or below max(a_t).  The
        # bits are distinct powers of two, so a block's sum is its mask.
        bits = [1 << x for x in avail]
        table = {sum(block): _hits(masks, a_mask, block) for block in itertools.combinations(bits, s)}
        # The only candidate of the full size is avail itself, whose blocks
        # are the whole table: that is the "decide" case.
        labels = iter(table.values())
        label = next(labels)
        entry = ("decide", a_t)
        if (not label) in labels:
            B, label = _largest_uniform(table, bits, s)
            avail = [b.bit_length() - 1 for b in B]
            entry = ("shrink", a_t, frozenset(avail))
        verdict = ACCEPTS if label else REJECTS
        transcript.append(entry + (verdict,))
        return verdict

    root = settle(())
    ok = root is not None
    while ok and len(chosen) < h and avail:
        n = min(avail)
        chosen.append(n)
        avail = [x for x in avail if x > n]
        if len(avail) < s:
            transcript.append(("exhausted", n))
            ok = False
            break
        for r in range(0, len(chosen)):
            for rest in itertools.combinations(chosen[:-1], r):
                a_t = tuple(sorted(rest + (n,)))
                if settle(a_t) is None:
                    transcript.append(("exhausted", n))
                    ok = False
                    break
            if not ok:
                break
    if not ok or len(chosen) < h:
        return GnwConstructResult(frozenset(chosen) | frozenset(avail), None, False, tuple(transcript))

    base = frozenset(chosen) | frozenset(avail)
    if root == ACCEPTS:
        if _horn_b(F, tuple(sorted(base)), s):
            return GnwConstructResult(base, "b", True, tuple(transcript))
        return GnwConstructResult(base, None, False, tuple(transcript))

    # rejection walk inside the decided set
    work = sorted(base)
    transcript.append(("reject-walk", tuple(work)))
    rs: list[int] = []
    while len(rs) < h:
        floor = rs[-1] if rs else -1
        picked = None
        for x in work:
            if x <= floor:
                continue
            tail = [y for y in work if y > x]
            if len(tail) < s:
                continue
            # rs is increasing and ends below x, so each sub + (x,) is sorted,
            # as is tail, and len(tail) >= s: the status needs none of the
            # input checks of ``gnw_accepts``.  Every element of tail lies
            # past x, so tail has a block and a pair that accepts does not
            # reject: "not REJECTS" is "not _rejects".
            heads = (sub + (x,) for r in range(len(rs) + 1) for sub in itertools.combinations(rs, r))
            if not all(_rejects(F, a_t, tail, s) for a_t in heads):
                transcript.append(("excluded", x))
                continue
            picked = x
            transcript.append(("reject-step", x))
            break
        if picked is None:
            return GnwConstructResult(frozenset(rs), None, False, tuple(transcript))
        rs.append(picked)
    H = frozenset(rs)
    if _no_member_inside(masks, _mask(rs)):
        return GnwConstructResult(H, "a", True, tuple(transcript))
    return GnwConstructResult(H, None, False, tuple(transcript))


def _largest_uniform(
    table: dict[int, bool], bits: Sequence[int], s: int
) -> Optional[tuple[list[int], bool]]:
    """The first subset of bits, in ``combinations`` order, of the largest
    size from s to len(bits) - 1 whose s-blocks (keyed by mask in the table)
    all carry one label, with that label; None when no size is in range.

    One depth first search adds positions in increasing order, reading only
    the blocks each new element makes with the (s-1)-subsets already picked,
    and keeps a set when it is larger than any kept before.  A branch is
    dropped once it has seen both labels, which every superset would see
    too, or once the positions left cannot make it larger than the kept set.
    Agreement passes to subsets, and preorder meets the sets of each size in
    ``combinations`` order, so the set kept last is the answer."""
    count = len(bits)
    picked: list[int] = []
    kept = None  # (set, label) of the largest uniform set so far
    size = s - 1  # its size
    label_of = table.__getitem__
    combinations = itertools.combinations

    def extend(start: int, label: Optional[bool]) -> None:
        nonlocal kept, size
        for i in range(start, count):
            if len(picked) + count - i <= size:
                return
            b = bits[i]
            new = map(label_of, map(b.__add__, map(sum, combinations(picked, s - 1))))
            seen = next(new, None) if label is None else label
            if seen is not None and (not seen) in new:
                continue
            picked.append(b)
            if size < len(picked) < count:
                kept, size = (picked[:], seen), len(picked)
            extend(i + 1, seen)
            picked.pop()

    extend(0, None)
    return kept


# ---------------------------------------------------------------------------
# Dense level sets on products of binary trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelTree:
    """A binary tree of bounded depth: all 01-strings of length <= depth, or
    an explicit prefix-closed, dead-end-free subset of them."""

    depth: int
    nodes: Optional[frozenset[str]] = None

    def __post_init__(self):
        if self.depth < 0:
            raise InputError("tree depth must be nonnegative")
        if self.nodes is None:
            return
        if "" not in self.nodes:
            raise InputError("a pruned tree still contains the root")
        for node in self.nodes:
            if len(node) > self.depth or set(node) - {"0", "1"}:
                raise InputError(f"bad node {node!r}")
            if node and node[:-1] not in self.nodes:
                raise InputError(f"node {node!r} missing its parent")
            if len(node) < self.depth and not (
                node + "0" in self.nodes or node + "1" in self.nodes
            ):
                raise InputError(f"node {node!r} is a dead end before the last level")

    def __contains__(self, node: str) -> bool:
        if self.nodes is None:
            return len(node) <= self.depth and not set(node) - {"0", "1"}
        return node in self.nodes

    def level(self, l: int) -> tuple[str, ...]:
        if not 0 <= l <= self.depth:
            raise InputError(f"level {l} out of range")
        return self._levels[l]

    @cached_property
    def _levels(self) -> tuple[tuple[str, ...], ...]:
        """The nodes of every level, sorted.  Built once and kept in the
        instance dict, outside ``==``, ``hash`` and ``repr``."""
        if self.nodes is None:
            return tuple(tuple(map("".join, itertools.product("01", repeat=l))) for l in range(self.depth + 1))
        return tuple(tuple(sorted(n for n in self.nodes if len(n) == l)) for l in range(self.depth + 1))

    @cached_property
    def _spans(self) -> list[list[tuple[list[int], list[int]]]]:
        return _hl_spans(self._levels)

    def extensions(self, t: str, l: int) -> tuple[str, ...]:
        return tuple(v for v in self.level(l) if v.startswith(t))

    def children(self, t: str) -> tuple[str, ...]:
        return tuple(c for c in (t + "0", t + "1") if c in self)


def is_mn_dense(T: LevelTree, D: Iterable[str], t: str, m: int, n: int) -> bool:
    """Is D a subset of level n meeting every level-m node extending t?"""
    if not (len(t) <= m <= n <= T.depth):
        raise InputError(f"need |t| <= m <= n <= depth, got |t|={len(t)}, m={m}, n={n}")
    if t not in T:
        raise InputError(f"stem {t!r} is not in the tree")
    dset = frozenset(D)
    level_n = frozenset(T.level(n))
    if not dset <= level_n:
        return False
    return all(any(v.startswith(u) for v in dset) for u in T.extensions(t, m))


@dataclass(frozen=True)
class LevelColoring:
    """A coloring of same-level node tuples across a product of trees."""

    d: int
    depth: int
    k: int
    values: Mapping[tuple[str, ...], int] = field(hash=False)

    def color(self, nodes: tuple[str, ...]) -> int:
        try:
            return self.values[nodes]
        except KeyError as exc:
            raise InputError(f"coloring is missing the tuple {nodes!r}") from exc


@dataclass(frozen=True)
class HlRow:
    n: int
    denses: tuple[frozenset[str], ...]
    color: int


@dataclass(frozen=True)
class HlWitness:
    level: int
    stems: tuple[str, ...]
    rows: tuple[tuple[int, HlRow], ...]  # one row per m, ascending

    def row(self, m: int) -> HlRow:
        for mm, row in self.rows:
            if mm == m:
                return row
        raise InputError(f"witness has no row for level {m}")


def hl_search(trees: Sequence[LevelTree], f: LevelColoring) -> Optional[HlWitness]:
    """Search for a level, stems, and per-level dense sets on which the
    coloring is constant, preferring low commitment levels.

    Each tree keeps its levels, sorted (``_levels``), so the extensions of
    a node to a lower level are one run of positions and a node set is a
    bitmask over them.  It keeps those runs too, as bounds and masks, for
    every pair of levels m <= n (``_spans``); they do not depend on deeper
    levels, so a tree deeper than the coloring serves it.  Stems are
    addressed by position.  The coloring becomes one table per level n and
    color: on one tree the mask of level-n nodes of that color; on two, for
    each level-n node v0 of the first tree, the mask of level-n nodes v1 of
    the second with f(v0, v1) of that color.

    On one tree, each level-m node above the stem takes its first level-n
    extension of the color.  On two trees, the picks in the first tree (one
    extension per level-m node) are searched depth first in lexicographic
    order; the AND of their masks holds the second-tree nodes that go with
    every pick, and each level-m node of the second tree takes the first of
    them among its extensions.  A partial choice is dropped as soon as one
    of those nodes has none left.  Picks only shrink that set, so no dropped
    choice could have been completed, and the witness is the one a scan of
    every choice function in product order returns.

    A stem's rows are tried from m = depth - 1 down, where a row is most
    often missing (it has the most level-m nodes to meet), and the stem is
    left at the first missing row.  The witness needs every row, and each
    row is the first (n, color) for its own m whatever the order, so the
    order changes only the work.
    """
    d = len(trees)
    if d != f.d:
        raise InputError("coloring dimension does not match the trees")
    if d > 2:
        raise SizeCapError("products of more than two trees are out of scale")
    depth = f.depth
    if any(T.depth < depth for T in trees):
        raise InputError("trees are shallower than the coloring")
    if depth > 5:
        raise SizeCapError("depth beyond 5 is out of scale")
    if f.k > 2:
        raise SizeCapError("more than two colors is out of scale")
    levels = [T._levels[: depth + 1] for T in trees]
    tables = [_hl_tables(levels, f, n) for n in range(depth + 1)]
    if depth < 1:
        return None
    spans = [T._spans for T in trees]
    for l in range(depth):
        for stems in itertools.product(*(range(len(L[l])) for L in levels)):
            rows = []
            for m in range(depth - 1, l - 1, -1):
                row = _hl_row(levels, spans, tables, stems, l, m)
                if row is None:
                    break
                rows.append((m, row))
            else:
                return HlWitness(l, tuple(L[l][i] for L, i in zip(levels, stems)), tuple(rows[::-1]))
    return None


def _hl_tables(levels: list[tuple[tuple[str, ...], ...]], f: LevelColoring, n: int) -> list:
    """Per color: on one tree the mask of level-n nodes of that color; on
    two, per level-n node of the first tree, the mask of level-n nodes of
    the second that it colors that way.

    This is where the search reads the coloring, so it also checks that
    every tuple of level-n nodes has a color in range(k)."""
    values, k = f.values, f.k
    try:
        if len(levels) == 1:
            tables = [0] * k
            for i, v in enumerate(levels[0][n]):
                c = values[(v,)]
                if not 0 <= c < k:
                    raise InputError(f"color out of range at {(v,)!r}")
                tables[c] |= 1 << i
            return tables
        level1 = levels[1][n]
        tables = [[0] * len(levels[0][n]) for _ in range(k)]
        for i, v0 in enumerate(levels[0][n]):
            for j, v1 in enumerate(level1):
                c = values[(v0, v1)]
                if not 0 <= c < k:
                    raise InputError(f"color out of range at {(v0, v1)!r}")
                tables[c][i] |= 1 << j
        return tables
    except KeyError as exc:
        raise InputError(f"coloring is missing the tuple {exc.args[0]!r}") from None


def _hl_spans(levels: tuple[tuple[str, ...], ...]) -> list[list[tuple[list[int], list[int]]]]:
    """For the levels m < depth and n >= m of one tree, ``spans[m][n - m]``
    gives, per position i of level m, the run of level-n positions under
    that node: it is ``range(bounds[i], bounds[i + 1])``, with mask
    ``masks[i]``, for ``(bounds, masks) = spans[m][n - m]``.

    The levels are sorted, so each run is contiguous and the runs of
    consecutive level-m nodes follow each other; a node's run in level n
    starts at the first child of the first node of its run in level n-1."""
    firsts = [[bisect_left(lower, u) for u in upper] + [len(lower)] for upper, lower in zip(levels, levels[1:])]
    spans = []
    for m in range(len(levels) - 1):
        bounds = list(range(len(levels[m]) + 1))
        row = []
        for n in range(m, len(levels)):
            if n > m:
                bounds = [firsts[n - 1][j] for j in bounds]
            row.append((bounds, [(1 << b) - (1 << a) for a, b in zip(bounds, bounds[1:])]))
        spans.append(row)
    return spans


def _first(level: tuple[str, ...], mask: int) -> str:
    return level[(mask & -mask).bit_length() - 1]


def _hl_row(
    levels: list[tuple[tuple[str, ...], ...]],
    spans: list[list[list[tuple[list[int], list[int]]]]],
    tables: list[list],
    stems: tuple[int, ...],
    l: int,
    m: int,
) -> Optional[HlRow]:
    # per tree, the level-m positions above the stem: [first, last)
    sources = []
    for S, i in zip(spans, stems):
        bounds = S[l][m - l][0]
        sources.append((bounds[i], bounds[i + 1]))
    for n in range(m, len(tables)):
        runs = [S[m][n - m] for S in spans]
        if len(levels) == 1:
            first, last = sources[0]
            targets = runs[0][1][first:last]
            for color, table in enumerate(tables[n]):
                hits = [table & mask for mask in targets]
                if all(hits):
                    return HlRow(n, (frozenset(_first(levels[0][n], h) for h in hits),), color)
        else:
            (first0, last0), (first1, last1) = sources
            bounds0 = runs[0][0][first0 : last0 + 1]
            targets = runs[1][1][first1:last1]
            for color, table in enumerate(tables[n]):
                row = _hl_row_pair(levels[0][n], levels[1][n], table, bounds0, targets, n, color)
                if row is not None:
                    return row
    return None


def _hl_row_pair(
    level0: tuple[str, ...],
    level1: tuple[str, ...],
    table: list[int],
    bounds0: list[int],
    targets: list[int],
    n: int,
    color: int,
) -> Optional[HlRow]:
    """The row at level n and this color on two trees: the i-th level-m node
    of the first tree picks a position in ``range(bounds0[i], bounds0[i +
    1])``, and every level-m node of the second, with run mask in
    ``targets``, has to keep a node that goes with every pick."""
    picks: list[int] = []
    sources = len(bounds0) - 1

    def extend(i: int, common: int) -> int:
        # common: second-tree nodes colored `color` against every pick so far
        if i == sources:
            return common
        for b in range(bounds0[i], bounds0[i + 1]):
            narrowed = common & table[b]
            if all(map(narrowed.__and__, targets)):
                picks.append(b)
                found = extend(i + 1, narrowed)
                if found:
                    return found
                picks.pop()
        return 0

    common = extend(0, (1 << len(level1)) - 1)
    if not common:
        return None
    d0 = frozenset(level0[b] for b in picks)
    d1 = frozenset(_first(level1, common & t) for t in targets)
    return HlRow(n, (d0, d1), color)


def check_hl_witness(
    trees: Sequence[LevelTree], f: LevelColoring, w: HlWitness
) -> bool:
    """Validate a witness from scratch: stems placed, one row per level from
    the witness level up, each row dense and monochromatic."""
    depth = f.depth
    if not 0 <= w.level < depth:
        return False
    for T, stem in zip(trees, w.stems):
        if len(stem) != w.level or stem not in T:
            return False
    seen = dict(w.rows)
    if sorted(seen) != list(range(w.level, depth)):
        return False
    for m, row in seen.items():
        if not m <= row.n <= depth:
            return False
        if len(row.denses) != len(trees):
            return False
        for T, stem, D in zip(trees, w.stems, row.denses):
            if not is_mn_dense(T, D, stem, m, row.n):
                return False
        for combo in itertools.product(*row.denses):
            if f.color(combo) != row.color:
                return False
    return True


# ---------------------------------------------------------------------------
# Strong subtrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrongSubtree:
    nodes: frozenset[str]
    stem: str
    base: tuple[int, ...]
    leaf_level: int
    certified: bool
    failure: Optional[tuple[int, str, str]]


def is_strong_subtree(
    T: LevelTree, nodes: frozenset[str], stem: str, base: Sequence[int]
) -> tuple[bool, Optional[tuple[int, str, str]]]:
    """Does the node set keep, at every base level, all tree successors of
    its members extending the stem?  Returns (ok, first failure)."""
    base_set = set(base)
    for s in sorted(nodes):
        if len(s) in base_set and s.startswith(stem):
            for c in T.children(s):
                if c not in nodes:
                    return False, (len(s), s, c)
    return True, None


def strong_subtree_assemble(
    T: LevelTree,
    t: str,
    denses: Sequence[Iterable[str]],
    levels: Sequence[int],
) -> StrongSubtree:
    """Close the given dense sets downward and certify strongness on the
    given levels (all but the last, which is the leaf frontier).

    Every dense set must be (levels[p], levels[p+1])-dense above the stem;
    violations report the failing index.  The certificate is recomputed from
    scratch on the assembled node set.
    """
    levels = list(levels)
    denses = [frozenset(D) for D in denses]
    if len(levels) != len(denses) + 1:
        raise InputError("need one more level than dense sets")
    if any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
        raise InputError("levels must be strictly increasing")
    if levels and levels[0] < len(t):
        raise InputError("first level sits above the stem")
    for p, D in enumerate(denses):
        if not is_mn_dense(T, D, t, levels[p], levels[p + 1]):
            raise InputError(f"dense set {p} is not ({levels[p]},{levels[p+1]})-dense above {t!r}")
    closure: set[str] = set()
    for D in denses:
        for v in D:
            for j in range(len(v) + 1):
                closure.add(v[:j])
    nodes = frozenset(s for s in closure if s.startswith(t) or t.startswith(s))
    base = tuple(levels[:-1])
    ok, failure = is_strong_subtree(T, nodes, t, base)
    return StrongSubtree(nodes, t, base, levels[-1], ok, failure)


# ---------------------------------------------------------------------------
# Pure decision on the finite Mathias order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClopenPredicate:
    """Membership in a set of reals decided by a bounded initial segment.

    ``accepted`` lists the initial segments (strictly increasing tuples of
    naturals, length up to the horizon) that put a real inside the set.
    """

    horizon: int
    accepted: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.horizon < 0:
            raise InputError("horizon must be nonnegative")
        for pre in self.accepted:
            if len(pre) > self.horizon:
                raise InputError(f"prefix {pre!r} exceeds the horizon")
            if any(pre[i] >= pre[i + 1] for i in range(len(pre) - 1)):
                raise InputError(f"prefix {pre!r} is not increasing")

    def member(self, real: Iterable[int]) -> bool:
        ordered = tuple(sorted(real))
        return any(ordered[: len(pre)] == pre for pre in self.accepted)


def clopen_formula(M: Poset, X: ClopenPredicate) -> tuple[Formula, Mapping[str, Name]]:
    """Compile membership of the generic real in X to a formula over the
    canonical name for the union of the stems in the generic filter.

    The environment binds ``real`` and the check names ``k0``, ``k1``, ...
    of the universe.  It is built once per poset and shared by every call,
    which only saves rebuilding those names: the forcing memo is keyed on
    the names a formula's variables denote, so its entries for common
    subformulas serve every predicate whatever environment object carries
    them.  It is a read-only mapping.
    """
    env = _clopen_env(M)
    disjuncts = [_prefix_formula(pre) for pre in sorted(X.accepted)]
    if not disjuncts:
        return Not(_prefix_formula(())), env
    out = disjuncts[0]
    for g in disjuncts[1:]:
        out = Or(out, g)
    return out, env


@lru_cache(maxsize=1024)
def _prefix_formula(pre: tuple[int, ...]) -> Formula:
    """The increasing enumeration of the real starts with pre.  Formula
    nodes are interned, so every build of a prefix yields the same object;
    the cache only saves rebuilding its nodes."""
    if not pre:
        return Eq("real", "real")
    parts: list[Formula] = [Mem(f"k{x}", "real") for x in pre]
    parts.extend(Not(Mem(f"k{y}", "real")) for y in range(pre[-1]) if y not in pre)
    g = parts[0]
    for part in parts[1:]:
        g = And(g, part)
    return g


_CLOPEN_ENVS: "WeakKeyDictionary[Poset, Mapping[str, Name]]" = WeakKeyDictionary()


def _clopen_env(M: Poset) -> Mapping[str, Name]:
    env = _CLOPEN_ENVS.get(M)
    if env is None:
        entries = []
        universe = 0
        for cid in M.ids:
            stem, envelope = mathias_decode(cid)
            for x in stem:
                entries.append((check_name(von_neumann(x), M), cid))
            if envelope:
                universe = max(universe, max(envelope) + 1)
        names = {"real": Name(entries)}
        for x in range(universe):
            names[f"k{x}"] = check_name(von_neumann(x), M)
        env = _CLOPEN_ENVS[M] = MappingProxyType(names)
    return env


_EXTENSIONS: "WeakKeyDictionary[Poset, tuple[dict, dict]]" = WeakKeyDictionary()


def _extension_table(
    M: Poset, stem: tuple[int, ...], B: tuple[int, ...]
) -> tuple[tuple[tuple[frozenset[int], int], ...], dict[frozenset[int], int]]:
    """The stem's extensions over the pool B, as condition indices of M.

    The rows pair every nonempty xs of B, in ``combinations`` order, with
    its canonical condition (stem + xs, stem with xs and the part of B past
    xs); the map takes each H of B to the pure extension (stem, stem with
    H) where M has it.  Built once per poset, stem and pool and kept weakly
    on the poset, as the clopen environment is; the poset's subset sets are
    shared by all its tables.  A table is a function of its key, so two
    threads building one store equal tables.
    """
    store = _EXTENSIONS.get(M)
    if store is None:
        store = _EXTENSIONS.setdefault(M, ({}, {}))
    tables, subsets = store
    table = tables.get((stem, B))
    if table is None:
        base = set(stem)
        rows = []
        pure = {}
        for r in range(len(B) + 1):
            for xs in itertools.combinations(B, r):
                sub = subsets.setdefault(xs, frozenset(xs))
                if xs:
                    tail = B[B.index(xs[-1]) + 1:]
                    rows.append((sub, M.check_condition(mathias_id(stem + xs, base | sub | set(tail)))))
                q = M.index.get(mathias_id(stem, base | sub))
                if q is not None:
                    pure[sub] = q
        table = tables[stem, B] = (tuple(rows), pure)
    return table


def mathias_real_name(M: Poset) -> Name:
    """Name for the union of the stems along the generic filter."""
    return _clopen_env(M)["real"]


def _mathias_universe(M: Poset) -> int:
    return len(_clopen_env(M)) - 1  # one check name k{x} per element x


@dataclass(frozen=True)
class PureDecision:
    condition: str
    forces_membership: bool
    route: str


def mathias_pure_decide(M: Poset, p: str, X: ClopenPredicate) -> PureDecision:
    """A stem-preserving extension of p deciding membership of the generic
    real in X.

    The envelope is thinned through the accept/reject construction on the
    family of stem extensions whose canonical conditions force membership;
    whichever horn comes back gives the deciding envelope.  If the finite
    scale leaves that extension undecided the envelope is shrunk directly,
    down to the stem itself, which always decides.

    Both the family and the deciding condition are read from the extension
    table of p's stem and pool (``_extension_table``): the family by one bit
    test of the forcing mask per canonical condition, the verdict on a pure
    extension from the formula's value, computed once per call.
    """
    M.check_condition(p)
    stem, envelope = mathias_decode(p)
    if len(envelope) < len(stem) + X.horizon:
        raise SizeCapError(
            f"envelope of {p!r} is too small for horizon {X.horizon} (needs {len(stem) + X.horizon})"
        )
    phi, env = clopen_formula(M, X)
    ctx = context_for(M)
    V = ctx.value(phi, env)
    fmask = ctx.spectrum.back(V)
    cond_filters = ctx.spectrum.cond_filters
    floor = stem[-1] if stem else -1
    B = tuple(sorted(x for x in envelope if x > floor))
    rows, pure = _extension_table(M, stem, B)
    members = frozenset([xs for xs, i in rows if fmask >> i & 1])
    family = FinFamily(_mathias_universe(M), members)

    def attempt(H: frozenset[int], route: str) -> Optional[PureDecision]:
        i = pure.get(H)
        if i is None:
            return None
        verdict = _verdict(cond_filters[i], V)
        if verdict == UNDECIDED:
            return None
        q = M.ids[i]
        if not mathias_pure_extension(q, p):
            return None
        return PureDecision(q, verdict == FORCES, route)

    if len(B) >= 2:
        # The walk needs an element left over past the last one it chooses,
        # so a target of the whole pool could never complete.
        built = gnw_construct(family, 1, len(B) - 1, ground=frozenset(B))
        if built.completed:
            found = attempt(built.H, "construct")
            if found:
                return found
    if B:
        for h in range(len(B), 0, -1):
            searched = gnw_dichotomy_search(family, h, 1, ground=frozenset(B))
            if searched:
                found = attempt(searched.H, "search")
                if found:
                    return found
        for b in B:
            found = attempt(frozenset([b]), "shrink")
            if found:
                return found
    if stem:
        found = attempt(frozenset(), "collapse")
        if found:
            return found
    raise ForcingLabError(f"no pure extension of {p!r} decides the predicate")
