"""Constructors for the standard cast of finite forcings.

Each constructor materializes the full condition set, encodes structured
conditions as canonical identifier strings (charset ``[A-Za-z0-9_.:+-]``),
and supplies the one-step extensions of its order (marker forcing: its
tilings), which ``Poset`` closes.  Several constructors also bundle the
named dense families used downstream by genericity requests.

The finite truncations follow the infinite orders exactly; where a classical
dense family stops being dense because the finite window can saturate (the
one-sided marker families), the family is widened with the conditions from
which the defining pattern has become unreachable, which restores density
without touching the order itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .errors import InputError, SizeCapError
from .poset import ConditionFamily, Poset, condition_cap, is_dense, make_family


def _check_cap(kind: str, count: int) -> None:
    cap = condition_cap()
    if count > cap:
        raise SizeCapError(f"{kind} would have {count} conditions, cap is {cap}")


# ---------------------------------------------------------------------------
# Cohen forcing: finite partial {0,1}-assignments on an I x depth grid,
# ordered by function extension.
# ---------------------------------------------------------------------------


def cohen_id(assignment: dict[tuple[int, int], int]) -> str:
    if not assignment:
        return "-"
    parts = [f"{i}.{n}.{v}" for (i, n), v in sorted(assignment.items())]
    return "_".join(parts)


def cohen(i_size: int, depth: int) -> tuple[Poset, dict[str, ConditionFamily]]:
    """All partial {0,1}-assignments on an i_size x depth grid, q <= p iff q extends p.

    Bundles the cell-definedness families (one per grid cell) and, when more
    than one row exists, the row-disagreement families.
    """
    if i_size < 1 or depth < 1:
        raise InputError("cohen needs i_size >= 1 and depth >= 1")
    cells = [(i, n) for i in range(i_size) for n in range(depth)]
    _check_cap("cohen poset", 3 ** len(cells))
    conditions: list[dict[tuple[int, int], int]] = []
    for r in range(len(cells) + 1):
        for dom in itertools.combinations(cells, r):
            for values in itertools.product((0, 1), repeat=r):
                conditions.append(dict(zip(dom, values)))
    ids = [cohen_id(c) for c in conditions]
    pairs = []
    for cond, cid in zip(conditions, ids):
        # one step up forgets one cell
        for cell in cond:
            weaker = dict(cond)
            del weaker[cell]
            pairs.append((cid, cohen_id(weaker)))
    P = Poset(f"cohen.{i_size}.{depth}", ids, "-", pairs)
    families: dict[str, ConditionFamily] = {}
    for i, n in cells:
        members = frozenset(cid for cond, cid in zip(conditions, ids) if (i, n) in cond)
        families[f"d{i}.{n}"] = make_family(P, members, "dense")
    if i_size > 1:
        for i in range(i_size):
            for j in range(i + 1, i_size):
                members = frozenset(
                    cid
                    for cond, cid in zip(conditions, ids)
                    if any(
                        (i, m) in cond and (j, m) in cond and cond[(i, m)] != cond[(j, m)]
                        for m in range(depth)
                    )
                )
                kind = "dense" if is_dense(P, members) else "unrestricted"
                families[f"diff{i}.{j}"] = make_family(P, members, kind)
    return P, families


# ---------------------------------------------------------------------------
# Random forcing at dyadic resolution: nonempty unions of half-open dyadic
# atoms [a/2^k, (a+1)/2^k) of [0,1), ordered by containment.
# ---------------------------------------------------------------------------


def dyadic_id(mask: int, k: int) -> str:
    return "".join("1" if mask >> a & 1 else "0" for a in range(1 << k))


def dyadic_mask(cid: str) -> int:
    mask = 0
    for a, ch in enumerate(cid):
        if ch == "1":
            mask |= 1 << a
    return mask


def dyadic_measure(cid: str) -> Fraction:
    """Exact measure of the union encoded by a dyadic condition id."""
    return Fraction(cid.count("1"), len(cid))


def dyadic_intervals(cid: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """The maximal half-open intervals making up the condition."""
    k = len(cid)
    out = []
    a = 0
    while a < k:
        if cid[a] == "1":
            b = a
            while b + 1 < k and cid[b + 1] == "1":
                b += 1
            out.append((Fraction(a, k), Fraction(b + 1, k)))
            a = b + 1
        else:
            a += 1
    return tuple(out)


def dyadic_random(k: int) -> Poset:
    """Nonempty unions of 2^-k atoms of [0,1), ordered by containment."""
    if k < 1:
        raise InputError("dyadic_random needs k >= 1")
    return _dyadic(f"dyadic.{k}", "dyadic poset", k, Fraction(0))


def amoeba(k: int, eps: Fraction | str) -> Poset:
    """The measure-above-eps part of dyadic_random(k), same containment order.

    eps is anything ``Fraction`` takes, such as ``"1/4"``.  Compatibility
    inside the restriction differs from the ambient poset: conditions meet
    here only when the intersection itself clears eps.
    """
    try:
        eps = Fraction(eps)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"amoeba needs a fraction eps, got {eps!r}") from exc
    if not 0 < eps < 1:
        raise InputError("amoeba needs eps strictly between 0 and 1")
    if k < 1:
        raise InputError("amoeba needs k >= 1")
    return _dyadic(f"amoeba.{k}.{eps.numerator}-{eps.denominator}", "amoeba poset", k, eps)


def _dyadic(name: str, kind: str, k: int, eps: Fraction) -> Poset:
    """The unions of 2^-k atoms of measure above eps (under 1), ordered by
    containment.  One step up adds one atom: that only grows the measure, so
    every chain of such steps between two of them stays above eps."""
    atoms = 1 << k
    _check_cap(kind, (1 << atoms) - 1)
    ids = {}
    for mask in range(1, 1 << atoms):
        if Fraction(bin(mask).count("1"), atoms) > eps:
            ids[mask] = dyadic_id(mask, k)
    pairs = []
    for mask, cid in ids.items():
        for a in range(atoms):
            if not mask >> a & 1:
                pairs.append((cid, ids[mask | 1 << a]))
    return Poset(name, ids.values(), ids[(1 << atoms) - 1], pairs)


# ---------------------------------------------------------------------------
# Collapse forcing: finite sequences over a set X, ordered by end-extension.
# ---------------------------------------------------------------------------


def collapse_id(seq: tuple[int, ...]) -> str:
    return "-" if not seq else ".".join(str(x) for x in seq)


def collapse(x_size: int, length: int) -> tuple[Poset, dict[str, ConditionFamily]]:
    """Sequences over {0..x_size-1} of length <= length; q <= p iff q end-extends p.

    Bundles one range-hitting family per alphabet element; a family is tagged
    dense only when the truncation really leaves it dense (a fully grown
    sequence missing x cannot be extended, so for x_size > 1 the tag drops to
    unrestricted).
    """
    if x_size < 1 or length < 1:
        raise InputError("collapse needs x_size >= 1 and length >= 1")
    total = sum(x_size**j for j in range(length + 1))
    _check_cap("collapse poset", total)
    seqs = []
    for j in range(length + 1):
        seqs.extend(itertools.product(range(x_size), repeat=j))
    ids = [collapse_id(s) for s in seqs]
    # one step up drops the last term
    pairs = [(sid, collapse_id(s[:-1])) for s, sid in zip(seqs, ids) if s]
    P = Poset(f"collapse.{x_size}.{length}", ids, "-", pairs)
    families = {}
    for x in range(x_size):
        members = frozenset(sid for s, sid in zip(seqs, ids) if x in s)
        kind = "dense" if is_dense(P, members) else "unrestricted"
        families[f"hit{x}"] = make_family(P, members, kind)
    return P, families


# ---------------------------------------------------------------------------
# Mathias forcing over a finite universe: pairs (stem, envelope) with the stem
# an initial part of the envelope.
# ---------------------------------------------------------------------------


def mathias_id(stem: Iterable[int], envelope: Iterable[int]) -> str:
    s = ".".join(str(x) for x in sorted(stem))
    e = ".".join(str(x) for x in sorted(envelope))
    return f"s{s}:e{e}"


@lru_cache(maxsize=None)
def mathias_decode(cid: str) -> tuple[tuple[int, ...], frozenset[int]]:
    s_part, e_part = cid.split(":")
    stem = tuple(int(x) for x in s_part[1:].split(".")) if s_part != "s" else ()
    env = frozenset(int(x) for x in e_part[1:].split("."))
    return stem, env


def mathias(universe_size: int) -> Poset:
    """All (stem, envelope) pairs over {0..universe_size-1} with nonempty envelope.

    (a_q, A_q) <= (a_p, A_p) iff a_p is contained in a_q, A_q in A_p, and the
    new stem elements come out of A_p.  The greatest element is the empty stem
    over the full universe.
    """
    if universe_size < 2:
        raise InputError("mathias needs universe_size >= 2")
    universe = tuple(range(universe_size))
    count = sum(
        (k + 1) * _choose(universe_size, k) for k in range(1, universe_size + 1)
    )
    _check_cap("mathias poset", count)
    conditions = []
    for r in range(1, universe_size + 1):
        for env in itertools.combinations(universe, r):
            for j in range(r + 1):
                conditions.append((env[:j], frozenset(env)))
    ids = [mathias_id(stem, env) for stem, env in conditions]
    pairs = []
    for (stem, env), cid in zip(conditions, ids):
        # one step up drops the last stem element, or adds one envelope
        # element past the stem
        if stem:
            pairs.append((cid, mathias_id(stem[:-1], env)))
        floor = stem[-1] if stem else -1
        for x in range(floor + 1, universe_size):
            if x not in env:
                pairs.append((cid, mathias_id(stem, env | {x})))
    return Poset(f"mathias.{universe_size}", ids, mathias_id((), universe), pairs)


def mathias_pure_extension(q: str, p: str) -> bool:
    """q extends p while keeping the stem fixed (envelope only shrinks)."""
    qs, qe = mathias_decode(q)
    ps, pe = mathias_decode(p)
    return qs == ps and qe <= pe


def _choose(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ---------------------------------------------------------------------------
# Marker forcing: {0,1}-words on integer intervals inside [-L, L]; a stronger
# condition is a gap-free concatenation of translates of the weaker word and
# its bitwise complement, containing the word itself and at least one
# complement block.
# ---------------------------------------------------------------------------


def marker_id(start: int, bits: str) -> str:
    return f"{start}:{bits}"


@lru_cache(maxsize=None)
def marker_decode(cid: str) -> Optional[tuple[int, str]]:
    if cid == "top":
        return None
    start, bits = cid.split(":")
    return int(start), bits


def marker(L: int) -> tuple[Poset, dict[str, ConditionFamily]]:
    """All interval-domain {0,1}-words inside [-L, L] plus the empty word on top.

    Bundles the one-sided disagreement families for words of length at most 2
    (the full family set is available through ``marker_dense_family``).
    """
    if L < 1:
        raise InputError("marker needs L >= 1")
    width = 2 * L + 1
    count = 1 + sum((width - ln + 1) * (1 << ln) for ln in range(1, width + 1))
    _check_cap("marker poset", count)
    ids = ["top"]
    for ln in range(1, width + 1):
        for start in range(-L, L - ln + 2):
            for bits in itertools.product("01", repeat=ln):
                ids.append(marker_id(start, "".join(bits)))
    pairs = [(cid, "top") for cid in ids]
    for cid in ids:
        if cid == "top":
            continue
        start, bits = marker_decode(cid)
        ln = len(bits)
        for piece_len in range(1, ln):
            if ln % piece_len:
                continue
            blocks = [bits[j : j + piece_len] for j in range(0, ln, piece_len)]
            comp = {b: "".join("1" if c == "0" else "0" for c in b) for b in set(blocks)}
            for k, word in enumerate(blocks):
                if all(b == word or b == comp[word] for b in blocks) and any(
                    b == comp[word] for b in blocks
                ):
                    pairs.append((cid, marker_id(start + k * piece_len, word)))
    P = Poset(f"marker.{L}", ids, "top", pairs)
    families = {}
    for cid in ids:
        if cid == "top":
            continue
        start, bits = marker_decode(cid)
        if len(bits) > 2:
            continue
        m = start + len(bits) - 1
        for i in range(1, L - m + 1):
            families[f"D_{cid}_{i}"] = marker_dense_family(P, cid, i)
    return P, families


def marker_translate(P: Poset, cid: str, n: int) -> str:
    """Shift a word n steps right; errors out when it leaves the window."""
    decoded = marker_decode(cid)
    if decoded is None:
        return cid
    start, bits = decoded
    L = _marker_halfwidth(P)
    new_start = start + n
    if new_start < -L or new_start + len(bits) - 1 > L:
        raise InputError(f"translate of {cid!r} by {n} leaves the [-{L},{L}] window")
    return marker_id(new_start, bits)


def marker_complement(cid: str) -> str:
    decoded = marker_decode(cid)
    if decoded is None:
        return cid
    start, bits = decoded
    return marker_id(start, "".join("1" if c == "0" else "0" for c in bits))


def marker_append_complement(P: Poset, cid: str) -> Optional[str]:
    """The word followed by its complement translated one block right.

    Returns None when the doubled word does not fit inside the window.
    """
    decoded = marker_decode(cid)
    if decoded is None:
        raise InputError("the empty word has no complement block to append")
    start, bits = decoded
    ln = len(bits)
    L = _marker_halfwidth(P)
    if start + 2 * ln - 1 > L:
        return None
    comp = "".join("1" if c == "0" else "0" for c in bits)
    return marker_id(start, bits + comp)


def marker_in_range(P: Poset, cid: str, i: int) -> bool:
    """Whether the disagreement offset i stays inside the window for this word."""
    decoded = marker_decode(cid)
    if decoded is None:
        return False
    start, bits = decoded
    return i >= 1 and start + len(bits) - 1 + i <= _marker_halfwidth(P)


def marker_dense_family(P: Poset, cid: str, i: int) -> ConditionFamily:
    """Conditions incompatible with the word, or refining it and disagreeing
    with it i steps past its right end.

    Conditions refining the word from which the disagreement pattern has
    become unreachable inside the finite window are included as well; on the
    unbounded ambient order that third group is empty, and here it is exactly
    what keeps the family dense.
    """
    decoded = marker_decode(cid)
    if decoded is None:
        raise InputError("disagreement families are indexed by nonempty words")
    start, bits = decoded
    m = start + len(bits) - 1
    target = m + i
    if not marker_in_range(P, cid, i):
        raise InputError(f"offset {i} is out of range for {cid!r}")
    down = P.down_masks()
    pi = P.check_condition(cid)
    disagree = 0
    for j, qid in enumerate(P.ids):
        dq = marker_decode(qid)
        if dq is None:
            continue
        qstart, qbits = dq
        qend = qstart + len(qbits) - 1
        if qstart <= m <= qend and qstart <= target <= qend:
            if qbits[target - qstart] != qbits[m - qstart]:
                disagree |= 1 << j
    # incompatible with the word, or below it and either disagreeing or with
    # no extension that disagrees
    unreachable = P.full_mask & ~P.up_kernel().union(disagree)
    members = P.spectrum().perp(1 << pi) | down[pi] & (disagree | unreachable)
    return make_family(P, P.ids_of(members), "dense")


def _marker_halfwidth(P: Poset) -> int:
    # the longest word spans the whole window
    best = 0
    for cid in P.ids:
        decoded = marker_decode(cid)
        if decoded:
            best = max(best, len(decoded[1]))
    return (best - 1) // 2
