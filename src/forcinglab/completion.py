"""Regular-open Boolean completions of finite forcing preorders.

Elements are downward closed condition sets U with U = ro(U), where
U-perp collects the conditions incompatible with every member of U and
ro = perp twice.  Meet is intersection, complement is perp, join is ro of
the union.  Condition sets are carried as bitmasks over the base poset.

Small algebras list their elements on first read (they are generated by
the atoms sitting over the minimal equivalence classes); larger ones stay
lazy, with every operation normalizing through ro, and equality decided on
normalized masks.
"""

from __future__ import annotations

from .poset import Poset

MATERIALIZE_CAP = 4096


class RegularOpenAlgebra:
    """The algebra of regular-open downward closed subsets of a poset."""

    __slots__ = ("base", "atoms", "_elements", "_emb")

    def __init__(self, base: Poset):
        self.base = base
        self.atoms = tuple(self.ro(1 << base.index[w]) for w, _ in base.minimal_filters())
        self._elements: tuple[int, ...] | None = None
        self._emb: dict[str, int] = {}

    @property
    def elements(self) -> tuple[int, ...] | None:
        """Every element in increasing order, built on first read; None when
        the algebra has more than ``MATERIALIZE_CAP`` elements."""
        if 1 << len(self.atoms) > MATERIALIZE_CAP:
            return None
        if self._elements is None:
            elements = set()
            for sub in range(1 << len(self.atoms)):
                u = 0
                for j, a in enumerate(self.atoms):
                    if sub >> j & 1:
                        u |= a
                elements.add(self.ro(u))
            self._elements = tuple(sorted(elements))
        return self._elements

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


def boolean_completion(P: Poset) -> RegularOpenAlgebra:
    return RegularOpenAlgebra(P)
