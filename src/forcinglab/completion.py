"""Regular-open Boolean completions of finite forcing preorders.

Elements are downward closed condition sets U with U = ro(U), where
U-perp collects the conditions incompatible with every member of U and
ro = perp twice.  Meet is intersection, complement is perp, join is ro of
the union.  Condition sets are carried as bitmasks over the base poset.

Small algebras are materialized outright (they are generated by the atoms
sitting over the minimal equivalence classes); larger ones stay lazy, with
every operation normalizing through ro, and equality decided on normalized
masks.
"""

from __future__ import annotations

from .errors import InputError
from .poset import Poset

MATERIALIZE_CAP = 4096


class RegularOpenAlgebra:
    """The algebra of regular-open downward closed subsets of a poset."""

    __slots__ = ("base", "atoms", "elements", "_emb")

    def __init__(self, base: Poset, materialize_cap: int = MATERIALIZE_CAP):
        self.base = base
        seen: set[int] = set()
        atoms = []
        mm = base.minimal_mask()
        i = 0
        while mm:
            if mm & 1:
                a = self.ro(1 << i)
                if a not in seen:
                    seen.add(a)
                    atoms.append(a)
            mm >>= 1
            i += 1
        self.atoms = tuple(atoms)
        if 1 << len(atoms) <= materialize_cap:
            elements = set()
            for sub in range(1 << len(atoms)):
                u = 0
                for j, a in enumerate(atoms):
                    if sub >> j & 1:
                        u |= a
                elements.add(self.ro(u))
            self.elements: tuple[int, ...] | None = tuple(sorted(elements))
        else:
            self.elements = None
        self._emb: dict[str, int] = {}

    # -- Boolean structure -------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self.base.full_mask

    def perp(self, u: int) -> int:
        """Conditions incompatible with every member of u."""
        return self.base.full_mask & ~self.base.compat_kernel().union(u)

    def ro(self, u: int) -> int:
        return self.perp(self.perp(u))

    def is_element(self, u: int) -> bool:
        return self.ro(u) == u

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return self.ro(a | b)

    def complement(self, a: int) -> int:
        return self.perp(a)

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def embedding(self, p: str) -> int:
        """ro of the downward closure of p; its nonzero image is dense."""
        cached = self._emb.get(p)
        if cached is None:
            cached = self.ro(self.base.down_mask(p))
            self._emb[p] = cached
        return cached

    def element_ids(self, u: int) -> tuple[str, ...]:
        if not self.is_element(u):
            raise InputError("mask is not a regular-open element")
        return self.base.ids_of(u)


def boolean_completion(P: Poset, materialize_cap: int = MATERIALIZE_CAP) -> RegularOpenAlgebra:
    return RegularOpenAlgebra(P, materialize_cap)
