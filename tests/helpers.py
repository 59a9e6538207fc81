"""Shared test machinery: the small-poset corpus, canonical name
environments, and the formula corpus enumerator.

The small-poset corpus is every reflexive-transitive order with a greatest
element on at most five conditions, up to isomorphism (every operation under
test is invariant under renaming conditions, so isomorphism representatives
exhaust the labeled space).  Orders with nontrivial equivalence classes are
included: they are exactly what exercises the separative quotient.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterable, Sequence

from forcinglab import Poset
from forcinglab.errors import InputError, SizeCapError
from forcinglab.formulas import And, Check, Eq, ExistsIn, ForallIn, Imp, Mem, Not, Or
from forcinglab.names import Name, check_name, generic_name, hereditary_names
from forcinglab.ramsey import (
    ACCEPTS,
    NEITHER,
    REJECTS,
    FinFamily,
    GnwConstructResult,
    GnwSearchResult,
    HlRow,
    HlWitness,
    LevelColoring,
    LevelTree,
    _accepts,
    is_mn_dense,
)
from forcinglab.sexpr import IDENT, SAtom, SList, SSet
from forcinglab.zoo import mathias_decode, mathias_id

# ---------------------------------------------------------------------------
# labeled posets
# ---------------------------------------------------------------------------


def _labeled_posets_brute(k: int) -> list[tuple[frozenset[tuple[int, int]], ...]]:
    """All partial orders on range(k) as strict-pair sets, by brute scan."""
    out = []
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    for bits in range(1 << len(pairs)):
        rel = {pairs[t] for t in range(len(pairs)) if bits >> t & 1}
        ok = True
        for (a, b) in rel:
            if (b, a) in rel:
                ok = False
                break
            for c in range(k):
                if (b, c) in rel and (a, c) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(rel))
    return out


def _extend_posets(base: list[frozenset], k: int) -> list[frozenset]:
    """Posets on range(k+1) from posets on range(k): choose the new element's
    strict down-set and up-set."""
    out = []
    for rel in base:
        downs = []
        ups = []
        for bits in range(1 << k):
            sub = frozenset(i for i in range(k) if bits >> i & 1)
            if all((j, i) not in rel or j in sub for i in sub for j in range(k)):
                downs.append(sub)
            if all((i, j) not in rel or j in sub for i in sub for j in range(k)):
                ups.append(sub)
        for d in downs:
            for u in ups:
                if d & u:
                    continue
                if all((a, b) in rel for a in d for b in u):
                    new = set(rel)
                    new.update((a, k) for a in d)
                    new.update((k, b) for b in u)
                    out.append(frozenset(new))
    return out


@lru_cache(maxsize=None)
def labeled_posets(k: int) -> tuple:
    if k <= 4:
        return tuple(_labeled_posets_brute(k))
    return tuple(_extend_posets(list(labeled_posets(k - 1)), k - 1))


def _partitions(items: tuple[int, ...]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _canonical(n: int, leq: set[tuple[int, int]]) -> int:
    best = None
    for perm in itertools.permutations(range(n)):
        code = 0
        for (a, b) in leq:
            code |= 1 << (perm[a] * n + perm[b])
        if best is None or code < best:
            best = code
    return best


@lru_cache(maxsize=None)
def small_posets_with_top(max_n: int = 5) -> tuple[Poset, ...]:
    """Isomorphism representatives of all preorders with a greatest element
    on 1..max_n points."""
    out = []
    for n in range(1, max_n + 1):
        seen = set()
        for part in _partitions(tuple(range(n))):
            blocks = [sorted(b) for b in part]
            k = len(blocks)
            for rel in labeled_posets(k):
                block_of = {}
                for bi, b in enumerate(blocks):
                    for x in b:
                        block_of[x] = bi
                leq = set()
                for i in range(n):
                    for j in range(n):
                        bi, bj = block_of[i], block_of[j]
                        if bi == bj or (bi, bj) in rel:
                            leq.add((i, j))
                tops = [e for e in range(n) if all((x, e) in leq for x in range(n))]
                if not tops:
                    continue
                code = _canonical(n, leq)
                if code in seen:
                    continue
                seen.add(code)
                ids = [f"p{i}" for i in range(n)]
                pairs = [(f"p{a}", f"p{b}") for (a, b) in leq]
                out.append(Poset(f"small{n}x{len(seen)}", ids, f"p{tops[0]}", pairs, closed=True))
    return tuple(out)


# ---------------------------------------------------------------------------
# order predicates
# ---------------------------------------------------------------------------
#
# The pairwise and row-scan forms of the predicates in ``poset.py``, which
# must agree with the principal-filter test, the one-union tests and the
# minimal-filter forms there.


def is_filter_reference(P: Poset, S) -> bool:
    """Nonempty, upward closed, and every pair has a lower bound inside."""
    mask = P.mask_of(S)
    if mask == 0:
        return False
    members = []
    m = mask
    while m:
        low = m & -m
        members.append(low.bit_length() - 1)
        m ^= low
    for i in members:
        if P._up[i] & ~mask:
            return False
    down = P._down
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if not down[members[a]] & down[members[b]] & mask:
                return False
    return True


def is_dense_reference(P: Poset, D) -> bool:
    mask = P.mask_of(D)
    return all(d & mask for d in P._down)


@lru_cache(maxsize=None)
def compat_rows_reference(P: Poset) -> tuple[int, ...]:
    """Row i: the conditions j with some condition below both i and j."""
    down = P._down
    n = len(down)
    return tuple(sum(1 << j for j in range(n) if down[i] & down[j]) for i in range(n))


def is_exhaustive_reference(P: Poset, E) -> bool:
    mask = P.mask_of(E)
    return all(c & mask for c in compat_rows_reference(P))


def mask_sample(P: Poset, k: int = 40) -> list[int]:
    """Every condition mask of a poset of at most five conditions; on a larger
    one the empty and full masks, every singleton and down-set, and k masks
    drawn from a fixed seed."""
    if len(P) <= 5:
        return list(range(P.full_mask + 1))
    rng = random.Random(f"masks/{P.name}")
    return (
        [0, P.full_mask]
        + [1 << i for i in range(len(P))]
        + list(P.down_masks())
        + [rng.getrandbits(len(P)) for _ in range(k)]
    )


def perp_reference(P: Poset, u: int) -> int:
    """Conditions incompatible with every member of u, off the compat rows."""
    compat = compat_rows_reference(P)
    out = 0
    for i in range(len(P)):
        if u >> i & 1:
            out |= compat[i]
    return P.full_mask & ~out


def ro_reference(P: Poset, u: int) -> int:
    return perp_reference(P, perp_reference(P, u))


def is_separative_reference(P: Poset) -> bool:
    """Whenever p is not below q, some r <= p is incompatible with q."""
    n = len(P.ids)
    down = P._down
    compat = compat_rows_reference(P)
    for p in range(n):
        for q in range(n):
            if down[q] >> p & 1:
                continue
            # need r <= p with r incompatible with q
            if down[p] & ~compat[q] == 0:
                return False
    return True


def separative_quotient_reference(P: Poset) -> tuple[Poset, dict[str, str], bool]:
    """Quotient by equality of compat rows, ordered by their containment,
    with the pairwise check that the projection preserves and reflects the
    order."""
    compat = compat_rows_reference(P)
    classes: dict[int, list[str]] = {}
    for i, c in enumerate(P.ids):
        classes.setdefault(compat[i], []).append(c)
    reps = {row: min(members) for row, members in classes.items()}
    projection = {c: reps[row] for row, members in classes.items() for c in members}
    pairs = [(reps[r1], reps[r2]) for r1 in classes for r2 in classes if r1 & ~r2 == 0]
    quotient = Poset(P.name + ".sep", reps.values(), projection[P.top], pairs, closed=True)
    was_separative = len(reps) == len(P.ids) and all(
        P.leq(p, q) == quotient.leq(projection[p], projection[q]) for p in P.ids for q in P.ids
    )
    return quotient, projection, was_separative


def extend_to_maximal_antichain_reference(P: Poset, A, D) -> frozenset[str]:
    """The greedy scan of D in identifier order, off the compat rows."""
    compat = compat_rows_reference(P)
    chosen = set(A)
    chosen_mask = P.mask_of(chosen)
    for q in sorted(set(D)):
        qi = P.check_condition(q)
        if not compat[qi] & chosen_mask:
            chosen.add(q)
            chosen_mask |= 1 << qi
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# canonical environments and the formula corpus
# ---------------------------------------------------------------------------

HF0 = frozenset()
HF1 = frozenset([HF0])
HF2 = frozenset([HF0, HF1])


def hf_universe(level: int) -> list[frozenset]:
    """All sets of rank below the level: V_1 = {0}, V_{k+1} = P(V_k)."""
    V = [HF0]
    for _ in range(level - 1):
        V = [
            frozenset(c)
            for r in range(len(V) + 1)
            for c in itertools.combinations(V, r)
        ]
    return V


ENV_NAMES = ("e", "one", "two", "gen", "y", "w")


def canonical_env(P: Poset) -> dict[str, Name]:
    """Six names: three constants, the generic-filter name, and two mixed
    names hung on deterministically chosen conditions."""
    non_top = [c for c in P.ids if c != P.top]
    q1 = non_top[0] if non_top else P.top
    q2 = P.ids[-1]
    e = check_name(HF0, P)
    one = check_name(HF1, P)
    two = check_name(HF2, P)
    y = Name([(e, q1)])
    nested = Name([(e, q2)])
    w = Name([(y, q1), (nested, q2), (one, P.top)])
    return {"e": e, "one": one, "two": two, "gen": generic_name(P), "y": y, "w": w}


def _atoms(terms: tuple[str, ...]) -> list:
    out = []
    for a in terms:
        for b in terms:
            out.append(Mem(a, b))
            out.append(Eq(a, b))
    return out


def _depth2(terms: tuple[str, ...]) -> list:
    atoms = _atoms(terms)
    out = []
    out.extend(Not(a) for a in atoms)
    for a in atoms:
        for b in atoms:
            out.append(And(a, b))
            out.append(Or(a, b))
            out.append(Imp(a, b))
    var_atoms = _atoms(terms + ("v",))
    for t in terms:
        for body in var_atoms:
            out.append(ForallIn("v", t, body))
            out.append(ExistsIn("v", t, body))
    return out


CORPUS_PAIRS = (("e", "gen"), ("y", "w"), ("one", "two"))


def formula_corpus(names: tuple[str, ...] = ENV_NAMES) -> list:
    """Deterministic formula corpus: all atoms and depth-2 formulas over the
    full six-name alphabet, all depth-3 negations, and the depth-3 binaries
    and quantifiers over the designated two-name subalphabets (the full
    depth-3 binary closure over six names is combinatorially out of reach).
    """
    out = list(_atoms(names))
    level2 = _depth2(names)
    out.extend(level2)
    out.extend(Not(f) for f in level2)
    for pair in CORPUS_PAIRS:
        sub_atoms = _atoms(pair)
        sub_l2 = _depth2(pair)
        for f in sub_l2:
            for a in sub_atoms:
                out.append(And(a, f))
                out.append(And(f, a))
                out.append(Or(a, f))
                out.append(Or(f, a))
                out.append(Imp(a, f))
                out.append(Imp(f, a))
        deep_bodies = _depth2(pair + ("v",))
        for t in pair:
            for body in deep_bodies:
                out.append(ForallIn("v", t, body))
                out.append(ExistsIn("v", t, body))
    seen = set()
    unique = []
    for f in out:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def quantifier_bounds_small(f, env, cap: int = 64) -> bool:
    """Skip formulas quantifying over an environment name with too many
    entries (the bound's entry list is the quantifier's fan-out)."""
    if isinstance(f, (Mem, Eq)):
        return True
    if isinstance(f, Not):
        return quantifier_bounds_small(f.sub, env, cap)
    if isinstance(f, (And, Or, Imp)):
        return quantifier_bounds_small(f.left, env, cap) and quantifier_bounds_small(
            f.right, env, cap
        )
    if isinstance(f.bound, str) and f.bound in env and len(env[f.bound].entries) > cap:
        return False
    return quantifier_bounds_small(f.body, env, cap)


# ---------------------------------------------------------------------------
# names and forcing sets
# ---------------------------------------------------------------------------


def constant_value_reference(n: Name, P: Poset):
    """The HF set n names when every condition hereditarily inside n is the
    greatest one, else None: a post-order walk over the entries alone, which
    reads no check record."""
    memo: dict = {}
    stack = [n]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        pending = [c for c, _ in cur.entries if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        values = [memo[c] for c, cond in cur.entries if cond == P.top]
        if len(values) < len(cur.entries) or None in values:
            memo[cur] = None
        else:
            memo[cur] = frozenset(values)
        stack.pop()
    return memo[n]


def validate_name_reference(n: Name, P: Poset):
    """The nested-condition check walking every subtree, constant ones
    included: (ok, None) or (False, (path, offending condition)), the first
    violation in the same entry order as ``names.validate_name``."""
    ok_memo = set()

    def walk(name, bound, path):
        if (name, bound) in ok_memo:
            return None
        for child, cond in sorted(name.entries, key=lambda e: (e[1], e[0].rank, id(e[0]))):
            P.check_condition(cond)
            here = path + (cond,)
            if bound is not None and not P.leq(cond, bound):
                if not (cond == P.top and constant_value_reference(child, P) is not None):
                    return here
            bad = walk(child, cond, here)
            if bad is not None:
                return bad
        ok_memo.add((name, bound))
        return None

    violation = walk(n, None, ())
    return (True, None) if violation is None else (False, (violation[:-1], violation[-1]))


# The per-filter interpretation walk and the forcing recursion over
# condition masks, with no constant-name shortcut: every name is interpreted
# under each filter on its own, and two constant names go through the same
# recursion as any others.  ``ForcingContext.interp``, ``mem_set``,
# ``eq_set``, ``forces_set`` and the atoms of ``oracle_mask`` must agree
# with these.


def interpret_reference(n: Name, members: int, index, memo: dict) -> frozenset:
    """The value of n under the filter whose bitmask is members."""
    if n not in memo:
        memo[n] = frozenset(
            interpret_reference(c, members, index, memo)
            for c, cond in n.entries
            if members >> index[cond] & 1
        )
    return memo[n]


class ForcingReference:
    """Forcing sets over condition masks, by the clauses of the forcing
    relation, on P's down-sets, with memo tables of their own.

    ``mem_set`` and ``eq_set`` run the rank recursion alone, with no early
    exit and no constant shortcut; ``eq_set`` asks about every name inside
    either side.  ``forces_set`` takes each connective and bounded
    quantifier by its clause: negation as ``avoid``, disjunction and the
    existential through ``dense_below``.  ``avoid`` calls the kernel every
    time.  ``ForcingContext`` evaluates over minimal filters instead, and
    its condition-mask readers must agree with these."""

    def __init__(self, P: Poset):
        self.P = P
        self.full = P.full_mask
        self.down = P.down_masks()
        self.mem: dict = {}
        self.eq: dict = {}
        self.forces: dict = {}

    def avoid(self, S: int) -> int:
        """Conditions with no extension in S."""
        return self.full & ~self.P.up_kernel().union(S)

    def dense_below(self, S: int) -> int:
        """Conditions below which S is dense."""
        return self.avoid(self.avoid(S))

    def mem_set(self, x: Name, y: Name) -> int:
        if (x, y) not in self.mem:
            S = 0
            for child, cond in y.entries:
                S |= self.down[self.P.index[cond]] & self.eq_set(x, child)
            self.mem[(x, y)] = self.dense_below(S)
        return self.mem[(x, y)]

    def eq_set(self, x: Name, y: Name) -> int:
        if x == y:
            return self.full
        if (x, y) not in self.eq:
            U = 0
            for z in hereditary_names(x) | hereditary_names(y):
                U |= self.mem_set(z, x) ^ self.mem_set(z, y)
            self.eq[(x, y)] = self.avoid(U)
        return self.eq[(x, y)]

    def forces_set(self, f, env, binds=None) -> int:
        binds = binds or {}

        def resolve(t):
            if isinstance(t, Check):
                return check_name(t.value, self.P)
            return binds[t] if t in binds else env[t]

        key = (f, tuple(resolve(v) for v in f.free))
        if key in self.forces:
            return self.forces[key]
        if isinstance(f, Mem):
            out = self.mem_set(resolve(f.left), resolve(f.right))
        elif isinstance(f, Eq):
            out = self.eq_set(resolve(f.left), resolve(f.right))
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
            out = self.full
            for child, cond in resolve(f.bound).entries:
                sub = self.forces_set(f.body, env, {**binds, f.var: child})
                out &= self.avoid(self.down[self.P.index[cond]] & ~sub & self.full)
        elif isinstance(f, ExistsIn):
            S = 0
            for child, cond in resolve(f.bound).entries:
                S |= self.down[self.P.index[cond]] & self.forces_set(f.body, env, {**binds, f.var: child})
            out = self.dense_below(S)
        else:
            raise TypeError(f"not a formula node: {f!r}")
        self.forces[key] = out
        return out


# ---------------------------------------------------------------------------
# level-tree partitions
# ---------------------------------------------------------------------------


def hl_search_reference(trees, f):
    """The level-tree partition search as a plain scan: every choice function
    of dense-set picks in product order, each checked against the coloring
    pair by pair.  ``ramsey.hl_search`` must return exactly its witness."""
    depth = f.depth
    if depth < 1:
        return None
    for l in range(depth):
        for stems in itertools.product(*(T.level(l) for T in trees)):
            rows = []
            for m in range(l, depth):
                row = _reference_row(trees, f, stems, m, depth)
                if row is None:
                    break
                rows.append((m, row))
            else:
                return HlWitness(l, tuple(stems), tuple(rows))
    return None


def _reference_row(trees, f, stems, m, depth):
    for n in range(m, depth + 1):
        for color in range(f.k):
            if len(trees) == 1:
                chosen = []
                for u in trees[0].extensions(stems[0], m):
                    v = next((v for v in trees[0].extensions(u, n) if f.color((v,)) == color), None)
                    if v is None:
                        break
                    chosen.append(v)
                else:
                    return HlRow(n, (frozenset(chosen),), color)
                continue
            u1s = trees[1].extensions(stems[1], m)
            cand0 = [trees[0].extensions(u, n) for u in trees[0].extensions(stems[0], m)]
            for picks in itertools.product(*cand0):
                d1 = []
                for u1 in u1s:
                    v1 = next(
                        (v for v in trees[1].extensions(u1, n) if all(f.color((v0, v)) == color for v0 in picks)),
                        None,
                    )
                    if v1 is None:
                        break
                    d1.append(v1)
                else:
                    return HlRow(n, (frozenset(picks), frozenset(d1)), color)
    return None


def hl_witness_exists_bruteforce(trees: Sequence[LevelTree], f: LevelColoring) -> bool:
    """Existence by raw enumeration over all dense-set tuples (tiny depths only)."""
    depth = f.depth
    if depth < 1:
        return False
    if any(len(T.level(depth)) > 4 for T in trees):
        raise SizeCapError("bruteforce existence check is for tiny trees")
    for l in range(depth):
        for stems in itertools.product(*(T.level(l) for T in trees)):
            if all(
                _brute_row_exists(trees, f, stems, m, depth) for m in range(l, depth)
            ):
                return True
    return False


def _brute_row_exists(trees, f, stems, m, depth) -> bool:
    for n in range(m, depth + 1):
        level_sets = []
        for T, stem in zip(trees, stems):
            nodes = T.level(n)
            subsets = []
            for bits in range(1, 1 << len(nodes)):
                D = frozenset(nodes[i] for i in range(len(nodes)) if bits >> i & 1)
                if is_mn_dense(T, D, stem, m, n):
                    subsets.append(D)
            level_sets.append(subsets)
        for combo in itertools.product(*level_sets):
            colors = {f.color(tup) for tup in itertools.product(*combo)}
            if len(colors) == 1:
                return True
    return False


# ---------------------------------------------------------------------------
# accept / reject
# ---------------------------------------------------------------------------


def _has_prefix_reference(F, s):
    acc = set()
    for x in sorted(s):
        acc.add(x)
        if frozenset(acc) in F.members:
            return True
    return False


def accepts_reference(F, a_t, A_t, s):
    floor = a_t[-1] if a_t else -1
    beyond = [x for x in A_t if x > floor]
    for B in itertools.combinations(beyond, s):
        if not _has_prefix_reference(F, a_t + B):
            return False
    return True


def rejects_reference(F, a_t, A_t, s):
    floor = a_t[-1] if a_t else -1
    beyond = [x for x in A_t if x > floor]
    low = len(A_t) - len(beyond)
    j = min(s - 1, len(beyond))
    if low >= 1 and low + j >= s:
        return False
    for C in itertools.combinations(beyond, s):
        if _has_prefix_reference(F, a_t + C):
            return False
    return True


def _status_reference(F, a_t, A_t, s):
    if accepts_reference(F, a_t, A_t, s):
        return ACCEPTS
    if rejects_reference(F, a_t, A_t, s):
        return REJECTS
    return NEITHER


def _horn_b_reference(F, H, m):
    for r in range(m, len(H) + 1):
        for B in itertools.combinations(H, r):
            if not _has_prefix_reference(F, B):
                return False
    return True


def gnw_dichotomy_search_reference(F, h, m, ground=None):
    """The dichotomy search with every prefix a fresh frozenset looked up in
    the member set.  ``ramsey.gnw_dichotomy_search`` must return exactly its
    result."""
    pool = tuple(sorted(ground)) if ground is not None else tuple(range(F.universe_size))
    for size in range(h, len(pool) + 1):
        for combo in sorted(itertools.combinations(pool, size), key=lambda t: t[::-1]):
            H = frozenset(combo)
            if all(not mem <= H for mem in F.members):
                return GnwSearchResult(H, "a")
            if _horn_b_reference(F, combo, m):
                return GnwSearchResult(H, "b")
    return None


def gnw_construct_reference(F, s, h, ground=None):
    """The shrink-and-decide construction with every candidate of the shrink
    loop decided by a fresh scan of its blocks.  ``ramsey.gnw_construct``
    must return exactly its result, transcript included."""
    pool = tuple(sorted(ground)) if ground is not None else tuple(range(F.universe_size))
    transcript = []
    avail = list(pool)
    chosen = []
    statuses = {}

    def settle(a_t):
        nonlocal avail
        if len(avail) < s:
            return False
        st = _status_reference(F, a_t, tuple(avail), s)
        if st != NEITHER:
            transcript.append(("decide", a_t, st))
            statuses[a_t] = st
            return True
        for size in range(len(avail) - 1, s - 1, -1):
            for B in itertools.combinations(avail, size):
                if accepts_reference(F, a_t, B, s):
                    verdict = ACCEPTS
                elif rejects_reference(F, a_t, B, s):
                    verdict = REJECTS
                else:
                    continue
                avail = list(B)
                transcript.append(("shrink", a_t, frozenset(B), verdict))
                statuses[a_t] = verdict
                return True
        return False

    ok = settle(())
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
                if not settle(a_t):
                    transcript.append(("exhausted", n))
                    ok = False
                    break
            if not ok:
                break
    if not ok or len(chosen) < h:
        return GnwConstructResult(frozenset(chosen) | frozenset(avail), None, False, tuple(transcript))

    base = frozenset(chosen) | frozenset(avail)
    if statuses.get((), None) == ACCEPTS:
        if _horn_b_reference(F, tuple(sorted(base)), s):
            return GnwConstructResult(base, "b", True, tuple(transcript))
        return GnwConstructResult(base, None, False, tuple(transcript))

    work = sorted(base)
    transcript.append(("reject-walk", tuple(work)))
    rs = []
    while len(rs) < h:
        floor = rs[-1] if rs else -1
        picked = None
        for x in work:
            if x <= floor:
                continue
            tail = tuple(y for y in work if y > x)
            if len(tail) < s:
                continue
            bad = False
            for r in range(0, len(rs) + 1):
                for sub in itertools.combinations(rs, r):
                    a_t = tuple(sorted(sub + (x,)))
                    if _status_reference(F, a_t, tail, s) != REJECTS:
                        bad = True
                        break
                if bad:
                    break
            if bad:
                transcript.append(("excluded", x))
                continue
            picked = x
            transcript.append(("reject-step", x))
            break
        if picked is None:
            return GnwConstructResult(frozenset(rs), None, False, tuple(transcript))
        rs.append(picked)
    H = frozenset(rs)
    if all(not mem <= H for mem in F.members):
        return GnwConstructResult(H, "a", True, tuple(transcript))
    return GnwConstructResult(H, None, False, tuple(transcript))


def gnw_status_bruteforce(F: FinFamily, a: Iterable[int], A: Iterable[int], s: int) -> str:
    """Reference form of the status: rejection quantifies over every subset
    of size at least s, verbatim."""
    a_t = tuple(sorted(set(a)))
    A_t = tuple(sorted(set(A)))
    if s < 1 or s > len(A_t):
        raise InputError("block size out of range")
    if _accepts(F, a_t, A_t, s):
        return ACCEPTS
    for r in range(s, len(A_t) + 1):
        for B in itertools.combinations(A_t, r):
            if _accepts(F, a_t, B, s):
                return NEITHER
    return REJECTS


def mathias_extension_reference(M: Poset, p: str, fmask: int):
    """Reference form of the family and the pure extensions that pure
    decision reads from its extension table, built from condition id
    strings: the nonempty xs past p's stem whose canonical condition (stem
    + xs, stem with xs and the envelope past xs) is in fmask, and each H of
    that pool mapped to the id of (stem, stem with H) where M has it."""
    stem, envelope = mathias_decode(p)
    floor = stem[-1] if stem else -1
    B = tuple(sorted(x for x in envelope if x > floor))

    def canonical(x_set: tuple[int, ...]) -> str:
        tail = tuple(b for b in B if b > x_set[-1])
        return mathias_id(stem + x_set, set(stem) | set(x_set) | set(tail))

    members = set()
    pure = {}
    for r in range(len(B) + 1):
        for xs in itertools.combinations(B, r):
            if xs and fmask >> M.check_condition(canonical(xs)) & 1:
                members.add(frozenset(xs))
            q = mathias_id(stem, set(stem) | set(xs))
            if q in M.index:
                pure[frozenset(xs)] = q
    return frozenset(members), pure


# ---------------------------------------------------------------------------
# s-expressions
# ---------------------------------------------------------------------------


class _ReferenceReader:
    """The s-expression reader as a character-at-a-time recursive descent.
    ``sexpr.read_one`` and ``read_all`` must return the same nodes, with the
    same positions, and raise the same messages."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> InputError:
        return InputError(f"{self.line}:{self.col}: {message}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_space(self):
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == ";":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            elif ch.isspace():
                self.advance()
            else:
                return

    def read(self):
        self.skip_space()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        line, col = self.line, self.col
        ch = self.peek()
        if ch == "(":
            self.advance()
            items = []
            while True:
                self.skip_space()
                if self.pos >= len(self.text):
                    raise InputError(f"{line}:{col}: unclosed '('")
                if self.peek() == ")":
                    self.advance()
                    return SList(tuple(items), line, col)
                items.append(self.read())
        if ch == ")":
            raise self.error("unbalanced ')'")
        if ch == "#":
            return self.read_set()
        if ch == "}":
            raise self.error("unbalanced '}'")
        return self.read_atom()

    def read_set(self):
        line, col = self.line, self.col
        self.advance()
        if self.peek() != "{":
            raise self.error("expected '{' after '#'")
        self.advance()
        elems = []
        while True:
            self.skip_space()
            if self.pos >= len(self.text):
                raise InputError(f"{line}:{col}: unclosed '#{{'")
            if self.peek() == "}":
                self.advance()
                return SSet(frozenset(e.value for e in elems), line, col)
            if self.peek() != "#":
                raise self.error("HF literals contain only nested HF literals")
            elems.append(self.read_set())

    def read_atom(self):
        line, col = self.line, self.col
        chars = []
        while self.pos < len(self.text):
            ch = self.peek()
            if ch.isspace() or ch in "();}" or ch == "#":
                break
            chars.append(self.advance())
        if not chars:
            raise self.error(f"unexpected character {self.peek()!r}")
        return SAtom("".join(chars), line, col)


def read_one_reference(text: str):
    reader = _ReferenceReader(text)
    node = reader.read()
    reader.skip_space()
    if reader.pos < len(reader.text):
        raise reader.error("trailing input after expression")
    return node


def read_all_reference(text: str) -> list:
    reader = _ReferenceReader(text)
    out = []
    while True:
        reader.skip_space()
        if reader.pos >= len(reader.text):
            return out
        out.append(reader.read())


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------
#
# The formula parser, printer and free-variable walk as plain recursion over
# nested tuples: ("mem", t, t), ("eq", t, t), ("not", f), ("and", f, f),
# ("or", f, f), ("imp", f, f), ("forall", v, t, f), ("exists", v, t, f), with
# ``ingen`` expanded and a constant term as ("check", value).
# ``formulas.formula_from_sexpr`` must raise the same first error, and
# ``print_formula`` and ``Formula.free`` must agree with these.


def print_hf_reference(x: frozenset) -> str:
    inner = sorted((print_hf_reference(y) for y in x), key=lambda s: (len(s), s))
    return "#{" + " ".join(inner) + "}"


def _atom_text_reference(node, what: str) -> str:
    if not isinstance(node, SAtom):
        raise InputError(f"{node.line}:{node.col}: expected {what}")
    if not IDENT.fullmatch(node.text):
        raise InputError(f"{node.line}:{node.col}: bad identifier {node.text!r}")
    return node.text


def _term_reference(node, what: str):
    if (
        isinstance(node, SList)
        and len(node.items) == 2
        and isinstance(node.items[0], SAtom)
        and node.items[0].text == "check"
        and isinstance(node.items[1], SSet)
    ):
        return ("check", node.items[1].value)
    return _atom_text_reference(node, what)


def formula_from_sexpr_reference(node):
    if isinstance(node, (SAtom, SSet)):
        raise InputError(f"{node.line}:{node.col}: expected a formula list")
    if not node.items or not isinstance(node.items[0], SAtom):
        raise InputError(f"{node.line}:{node.col}: empty or headless form")
    head = node.items[0].text
    args = node.items[1:]

    def arity(k: int):
        if len(args) != k:
            raise InputError(f"{node.line}:{node.col}: {head} takes {k} arguments")

    if head in ("mem", "eq"):
        arity(2)
        return (head, _term_reference(args[0], "a term"), _term_reference(args[1], "a term"))
    if head == "ingen":
        arity(1)
        return ("mem", _term_reference(args[0], "a term"), "gen")
    if head == "not":
        arity(1)
        return ("not", formula_from_sexpr_reference(args[0]))
    if head in ("and", "or", "imp"):
        arity(2)
        return (head, formula_from_sexpr_reference(args[0]), formula_from_sexpr_reference(args[1]))
    if head in ("forall", "exists"):
        if len(args) != 4 or not (isinstance(args[1], SAtom) and args[1].text == "in"):
            raise InputError(f"{node.line}:{node.col}: expected ({head} v in t f)")
        var = _atom_text_reference(args[0], "a variable")
        bound = _term_reference(args[2], "a term")
        return (head, var, bound, formula_from_sexpr_reference(args[3]))
    raise InputError(f"{node.line}:{node.col}: unknown form {head!r}")


def _print_term_reference(t) -> str:
    return t if isinstance(t, str) else f"(check {print_hf_reference(t[1])})"


def print_formula_reference(f) -> str:
    head = f[0]
    if head in ("mem", "eq"):
        return f"({head} {_print_term_reference(f[1])} {_print_term_reference(f[2])})"
    if head in ("forall", "exists"):
        return f"({head} {f[1]} in {_print_term_reference(f[2])} {print_formula_reference(f[3])})"
    return "(" + " ".join([head, *map(print_formula_reference, f[1:])]) + ")"


def free_reference(f) -> set[str]:
    head = f[0]
    if head in ("mem", "eq"):
        return {t for t in f[1:] if isinstance(t, str)}
    if head in ("forall", "exists"):
        return (free_reference(f[3]) - {f[1]}) | ({f[2]} if isinstance(f[2], str) else set())
    return set().union(*map(free_reference, f[1:]))
