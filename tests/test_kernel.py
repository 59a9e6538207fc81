"""The row-union kernel and the set combinators built on it, against the
naive per-condition loops they replace."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcinglab import zoo
from forcinglab.completion import RegularOpenAlgebra
from forcinglab.forcing import ForcingContext
from forcinglab.poset import Poset, RowUnion
from helpers import closure_reference

# The up kernel and the two spectrum kernels (conditions to minimal filters
# and back) of collapse(4,5) take about 1.6 MB with 4-bit chunks; 8-bit
# chunks would take about eight times as much per kernel.
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
def relations(draw):
    """(ids, top, pairs): a random relation with a top on 1-40 conditions,
    cycles allowed."""
    n = draw(st.integers(1, 40))
    ids = [f"c{i:02d}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n))
    top = draw(st.sampled_from(ids))
    return ids, top, pairs + [(c, top) for c in ids]


def preorders():
    """A random preorder with a top on 1-40 conditions, cycles allowed."""
    return relations().map(lambda r: Poset("rand", *r))


def condition_sets(data, P):
    """0, full, a random set and a down-closed set."""
    full = P.full_mask
    seeds = data.draw(st.integers(0, full))
    down_set = naive_union(P.down_masks(), seeds)
    return [0, full, data.draw(st.integers(0, full)), down_set]


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


@settings(max_examples=300, deadline=None)
@given(relations())
def test_closure_matches_warshall(relation):
    ids, top, pairs = relation
    assert Poset("rand", ids, top, pairs).down_masks() == closure_reference(ids, pairs)


@pytest.mark.parametrize("top_index", [0, 29])
def test_closure_of_a_chain(top_index):
    # with the top at index 0 every condition's cover has the next higher
    # index, so each row's walk runs through rows not yet final; the pairs
    # are listed from the bottom up either way
    ids = [f"c{i:02d}" for i in range(30)]
    chain = ids if top_index == 29 else ids[::-1]
    pairs = [(chain[k], chain[k + 1]) for k in range(29)]
    P = Poset("chain", ids, ids[top_index], pairs)
    assert P.down_masks() == closure_reference(ids, pairs)
    for k, c in enumerate(chain):
        assert P.ids_of(P.down_mask(c)) == tuple(sorted(chain[: k + 1]))


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
    filter_masks = P.spectrum().filter_masks
    for S in condition_sets(data, P):
        assert P.up_kernel().union(S) == naive_union(P._up, S)
        # the minimal filters meeting S
        met = sum(1 << k for k, members in enumerate(filter_masks) if members & S)
        assert P.spectrum().filters_of(S) == met
        # the conditions with no extension in S
        avoid = sum(1 << i for i in range(n) if not down[i] & S)
        assert full & ~P.up_kernel().union(S) == avoid
        incompatible = sum(1 << i for i in range(n) if not any(down[i] & down[j] for j in bits(S)))
        assert A.perp(S) == incompatible
        regular = sum(1 << i for i in range(n) if not any(down[i] & down[j] for j in bits(incompatible)))
        assert A.ro(S) == regular
    assert A.ro(full) == full and A.perp(full) == 0


@settings(max_examples=100, deadline=None)
@given(preorders(), st.data())
def test_oracle_condition_set_matches_naive(P, data):
    ctx = ForcingContext(P)
    masks = ctx.spectrum.filter_masks
    full = ctx.spectrum.filter_full
    for M in (0, full, data.draw(st.integers(0, full))):
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
    assert RegularOpenAlgebra(P).perp(1) == 0


def test_kernels_built_on_first_use():
    P = Poset("chain", ["a", "b", "t"], "t", [("a", "b"), ("b", "t")])
    assert P._up_kernel is None and P._spectrum is None
    # the context reads the poset's own spectrum, and builds no kernel
    ctx = ForcingContext(P)
    assert ctx.spectrum is P._spectrum is P.spectrum()
    assert not {"_cond_kernel", "_filter_kernel"} & vars(ctx.spectrum).keys()
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
    S = P.spectrum()
    total = sum(kernel_bytes(k, seen) for k in (P.up_kernel(), S._cond_kernel, S._filter_kernel))
    assert total < KERNEL_BUDGET_BYTES, total
