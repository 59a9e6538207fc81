"""The row-union kernel and the set combinators built on it, against the
naive per-condition loops they replace."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from forcinglab import zoo
from forcinglab.completion import RegularOpenAlgebra
from forcinglab.forcing import ForcingContext
from forcinglab.generic import _allinc
from forcinglab.poset import Poset, RowUnion

# The up and compat kernels of collapse(4,5) take about 1.3 MB with 4-bit
# chunks; 8-bit chunks would take about 5.5 MB per kernel.
KERNEL_BUDGET_BYTES = 2_500_000


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def naive_union(rows, S):
    out = 0
    for i in bits(S):
        if i < len(rows):
            out |= rows[i]
    return out


@st.composite
def preorders(draw):
    """A random preorder with a top on 1-40 conditions, cycles allowed."""
    n = draw(st.integers(1, 40))
    ids = [f"c{i:02d}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n))
    top = draw(st.sampled_from(ids))
    return Poset("rand", ids, top, pairs + [(c, top) for c in ids])


def condition_sets(data, P):
    """0, full, a random set and a down-closed set."""
    full = P.full_mask
    seeds = data.draw(st.integers(0, full))
    closed = naive_union(P.down_masks(), seeds)
    return [0, full, data.draw(st.integers(0, full)), closed]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, (1 << 70) - 1), max_size=40),
    st.integers(0, (1 << 48) - 1),
)
def test_row_union_matches_naive(rows, S):
    kernel = RowUnion(rows)
    assert kernel.union(S) == naive_union(rows, S)
    assert kernel.union(0) == 0
    full = (1 << len(rows)) - 1
    assert kernel.union(full) == naive_union(rows, full)


def test_row_union_reuses_single_row_entries():
    rows = [1 << 100 | i for i in range(9)]
    kernel = RowUnion(rows)
    tables = [t for pair in zip(kernel._lo, kernel._hi) for t in pair]
    for i, row in enumerate(rows):
        assert tables[i // 4][1 << i % 4] is row


@settings(max_examples=150, deadline=None)
@given(preorders(), st.data())
def test_set_combinators_match_naive(P, data):
    n, full = len(P), P.full_mask
    down = P.down_masks()
    compat = P.compat_masks()
    for i in range(n):
        assert compat[i] == sum(1 << j for j in range(n) if down[i] & down[j])
    A = RegularOpenAlgebra(P)
    for S in condition_sets(data, P):
        assert P.up_kernel().union(S) == naive_union(P._up, S)
        assert P.compat_kernel().union(S) == naive_union(compat, S)
        # the conditions with no extension in S
        avoid = sum(1 << i for i in range(n) if not down[i] & S)
        assert full & ~P.up_kernel().union(S) == avoid
        incompatible = sum(1 << i for i in range(n) if not any(down[i] & down[j] for j in bits(S)))
        assert A.perp(S) == incompatible
        assert _allinc(P, S) == incompatible
    assert A.ro(full) == full and A.perp(full) == 0


@settings(max_examples=100, deadline=None)
@given(preorders(), st.data())
def test_oracle_condition_set_matches_naive(P, data):
    ctx = ForcingContext(P)
    masks = ctx.filter_masks
    for M in (0, ctx.filter_full, data.draw(st.integers(0, ctx.filter_full))):
        # the filter mask a formula evaluates to, fed in directly
        ctx.oracle_mask = lambda f, env, M=M: M
        expected = 0
        for i in range(len(P)):
            if all(M >> k & 1 for k, fmask in enumerate(masks) if fmask >> i & 1):
                expected |= 1 << i
        assert ctx.oracle_condition_set(None, {}) == expected


def test_one_condition_poset():
    P = Poset("one", ["t"], "t", [])
    assert P.compat_masks() == [1]
    assert P.full_mask & ~P.up_kernel().union(1) == 0
    assert RegularOpenAlgebra(P).perp(0) == 1
    assert _allinc(P, 1) == 0


def test_kernels_built_on_first_use():
    P = Poset("chain", ["a", "b", "t"], "t", [("a", "b"), ("b", "t")])
    assert P._up_kernel is None and P._compat_kernel is None
    ForcingContext(P)
    assert P._up_kernel is None
    assert P.up_kernel() is P.up_kernel()


def kernel_bytes(kernel, seen):
    total = 0
    tables = kernel._lo + kernel._hi
    for obj in (kernel._lo, kernel._hi, *tables, *(e for t in tables for e in t)):
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
    return total


def test_kernel_memory_budget():
    P, _ = zoo.collapse(4, 5)
    seen = set()
    total = kernel_bytes(P.up_kernel(), seen) + kernel_bytes(P.compat_kernel(), seen)
    assert total < KERNEL_BUDGET_BYTES, total
