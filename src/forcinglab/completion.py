"""Regular-open Boolean completions of finite forcing preorders.

Elements are downward closed condition sets U with U = ro(U), where
U-perp collects the conditions incompatible with every member of U and
ro = perp twice.  Meet is intersection, complement is perp, join is ro of
the union.  Condition sets are carried as bitmasks over the base poset.

On a finite poset the algebra is atomic, with one atom per minimal filter,
so everything is read off the base poset's ``Spectrum``: an element is the
set of conditions all of whose minimal filters lie in some set V of
filters (``back(V)``), perp(U) is ``back`` of the filters U misses, and
ro(U) is ``back`` of the filters U meets.  Small algebras list their
elements on first read; larger ones stay lazy, with equality decided on
normalized masks.
"""

from __future__ import annotations

from .poset import Poset

MATERIALIZE_CAP = 4096


class RegularOpenAlgebra:
    """The algebra of regular-open downward closed subsets of a poset.

    ``atoms`` holds one atom per minimal filter, in the order of
    ``base.minimal_filters()``: the conditions whose only minimal filter it
    is."""

    __slots__ = ("base", "spectrum", "atoms", "_elements")

    def __init__(self, base: Poset):
        self.base = base
        self.spectrum = base.spectrum()
        self.atoms = tuple(self.spectrum.back(1 << j) for j in range(len(self.spectrum.filters)))
        self._elements: tuple[int, ...] | None = None

    @property
    def elements(self) -> tuple[int, ...] | None:
        """Every element in increasing order, one per set of atoms, built on
        first read; None when the algebra has more than ``MATERIALIZE_CAP``
        elements."""
        if 1 << len(self.atoms) > MATERIALIZE_CAP:
            return None
        if self._elements is None:
            back = self.spectrum.back
            self._elements = tuple(sorted(back(sub) for sub in range(1 << len(self.atoms))))
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
        return self.spectrum.perp(u)

    def ro(self, u: int) -> int:
        return self.spectrum.back(self.spectrum.filters_of(u))

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
        """ro of the downward closure of p: the conditions all of whose
        minimal filters pass through p.  Its nonzero image is dense."""
        return self.spectrum.back(self.spectrum.cond_filters[self.base.check_condition(p)])


def boolean_completion(P: Poset) -> RegularOpenAlgebra:
    return RegularOpenAlgebra(P)
