"""Building and checking generic filters.

A filter is generic for a family when it contains a member of the family or
a condition incompatible with every member.  On a finite poset the upward
closure of any minimal condition is generic for every family at once, which
is what makes the chain construction below total: each requested family is
served by the least suitable extension, falling back to a minimal condition
when neither a member nor an all-incompatible condition sits below the
current one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError
from .poset import ConditionFamily, Filter, Poset

FamilyLike = Union[ConditionFamily, frozenset, set, tuple, list]


def _members(fam: FamilyLike) -> frozenset[str]:
    if isinstance(fam, ConditionFamily):
        return fam.members
    return frozenset(fam)


@dataclass(frozen=True)
class GenericRequest:
    start: str
    families: tuple[FamilyLike, ...]


def _least(P: Poset, mask: int) -> str:
    if not mask:
        raise InputError("expected a nonempty condition set")
    return P.ids[(mask & -mask).bit_length() - 1]


def _allinc(P: Poset, fmask: int) -> int:
    """Conditions incompatible with every member of fmask."""
    return P.full_mask & ~P.compat_kernel().union(fmask)


def build_generic(P: Poset, req: GenericRequest) -> Filter:
    """Descend a chain serving each family in order, then close upward.

    Each step picks the least extension of the current condition that is in
    the family, else the least extension incompatible with the whole family,
    else the least minimal condition below (whose closure meets every family
    by minimality).
    """
    cur = req.start
    P.check_condition(cur)
    for fam in req.families:
        members = _members(fam)
        if not members:
            raise InputError("generic requests need nonempty families")
        fmask = P.family_mask(members)
        below = P.down_mask(cur)
        inside = below & fmask
        if inside:
            cur = _least(P, inside)
            continue
        allinc = _allinc(P, fmask)
        if below & allinc:
            cur = _least(P, below & allinc)
            continue
        cur = _least(P, below & P.minimal_mask())
    return Filter(P, frozenset(P.ids_of(P.up_mask(cur))))


def is_generic_for(
    P: Poset, G: Filter, families: Sequence[FamilyLike]
) -> tuple[bool, Optional[int]]:
    """Literal genericity check; returns (ok, index of first failing family)."""
    gmask = G.mask()
    for k, fam in enumerate(families):
        fmask = P.family_mask(_members(fam))
        if not gmask & fmask and not gmask & _allinc(P, fmask):
            return False, k
    return True, None


def enumerate_ultrafilters(P: Poset) -> list[Filter]:
    """All maximal filters: the distinct upward closures of minimal conditions."""
    return [Filter(P, frozenset(P.ids_of(mask))) for _, mask in P.minimal_filters()]
