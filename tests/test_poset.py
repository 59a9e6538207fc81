import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcinglab import (
    Filter,
    InputError,
    Poset,
    compatible,
    extend_to_maximal_antichain,
    is_antichain,
    is_dense,
    is_exhaustive,
    is_filter,
    is_separative,
    leq,
    separative_quotient,
)
from forcinglab.zoo import dyadic_measure


@pytest.fixture
def chain3():
    return Poset("chain3", ["a", "b", "t"], "t", [("b", "a"), ("a", "t")])


def test_closure_from_covers(chain3):
    assert chain3.leq("b", "t")
    assert chain3.leq("b", "b")
    assert not chain3.leq("t", "b")


def test_top_must_be_greatest():
    with pytest.raises(InputError):
        Poset("bad", ["a", "b"], "a", [])


def test_unknown_condition_errors(chain3):
    with pytest.raises(InputError):
        chain3.leq("a", "zz")
    with pytest.raises(InputError):
        compatible(chain3, "zz", "a")


def test_leq_reflexive_and_cohen_extension(cohen11):
    P, _ = cohen11
    for p in P.ids:
        assert leq(P, p, p)
    # extending the function means getting stronger
    P2, _ = __import__("forcinglab").zoo.cohen(1, 2)
    assert P2.leq("0.0.0_0.1.1", "0.0.0")
    assert not P2.leq("0.0.0", "0.0.0_0.1.1")


def test_top_not_below_strict(cohen11):
    P, _ = cohen11
    assert not leq(P, P.top, "0.0.0")


def test_compatible_basics(cohen11, dyadic2):
    P, _ = cohen11
    for p in P.ids:
        assert compatible(P, p, p)
    assert not compatible(P, "0.0.0", "0.0.1")
    # [0,1/2) and [1/4,3/4) overlap in an atom of measure 1/4
    assert compatible(dyadic2, "1100", "0110")
    assert dyadic_measure("0100") == __import__("fractions").Fraction(1, 4)


def test_compatible_iff_shared_filter(small_corpus):
    # common lower bounds and shared filters pick out the same pairs
    for P in small_corpus:
        if len(P) > 4:
            continue
        filters = []
        ids = P.ids
        for r in range(1, len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                if is_filter(P, combo):
                    filters.append(set(combo))
        for p in ids:
            for q in ids:
                shared = any(p in F and q in F for F in filters)
                assert shared == compatible(P, p, q)


def test_is_filter_examples(cohen11):
    P, _ = cohen11
    assert is_filter(P, {P.top})
    assert not is_filter(P, set())
    assert is_filter(P, {"-", "0.0.0"})
    assert not is_filter(P, {"0.0.0"})  # not upward closed
    assert not is_filter(P, {"-", "0.0.0", "0.0.1"})  # not directed


def test_predicates_match_the_pairwise_and_row_scans(small_corpus):
    # the principal-filter test and the one-union density tests against the
    # pairwise check and the row scans, on every subset of every small poset
    from helpers import is_dense_reference, is_exhaustive_reference, is_filter_reference

    for P in small_corpus:
        for r in range(len(P) + 1):
            for S in itertools.combinations(P.ids, r):
                assert is_filter(P, S) == is_filter_reference(P, S), (P.name, S)
                assert is_dense(P, S) == is_dense_reference(P, S), (P.name, S)
                assert is_exhaustive(P, S) == is_exhaustive_reference(P, S), (P.name, S)


def test_filter_type_validates(cohen11):
    P, _ = cohen11
    with pytest.raises(InputError):
        Filter(P, frozenset())
    f = Filter(P, frozenset({"-", "0.0.0"}))
    assert "0.0.0" in f


def test_is_dense_examples(cohen12):
    P, families = cohen12
    total = frozenset(c for c in P.ids if c.count(".") >= 4)
    assert is_dense(P, total)
    for fam in families.values():
        if fam.kind == "dense":
            assert is_dense(P, fam.members)
    assert not is_dense(P, {P.top})


def test_dense_implies_exhaustive(cohen12):
    P, families = cohen12
    for fam in families.values():
        assert is_exhaustive(P, fam.members)
    assert not is_exhaustive(P, {"0.0.0"})


def test_antichain_examples(cohen11):
    P, _ = cohen11
    assert is_antichain(P, {"0.0.0"})
    assert is_antichain(P, {"0.0.0", "0.0.1"})
    assert not is_antichain(P, {P.top, "0.0.0"})


def test_maximal_antichain_in_dense(cohen11):
    P, _ = cohen11
    D = frozenset({"0.0.0", "0.0.1"})
    out = extend_to_maximal_antichain(P, frozenset(), D)
    assert out == D
    assert extend_to_maximal_antichain(P, out, D) == out  # idempotent
    assert is_exhaustive(P, out)
    one = Poset("one", ["t"], "t", [])
    assert extend_to_maximal_antichain(one, frozenset(), frozenset({"t"})) == {"t"}


def test_maximal_antichain_input_errors(cohen11):
    P, _ = cohen11
    with pytest.raises(InputError):
        extend_to_maximal_antichain(P, {"-"}, {"0.0.0"})
    with pytest.raises(InputError):
        extend_to_maximal_antichain(P, {"-", "0.0.0"}, {"-", "0.0.0", "0.0.1"})


def test_separative_quotient_chain(chain3):
    Q, proj, was = separative_quotient(chain3)
    assert len(Q) == 1
    assert not was
    assert len(set(proj.values())) == 1


def test_separative_quotient_identity(cohen11):
    P, _ = cohen11
    Q, proj, was = separative_quotient(P)
    assert was
    assert len(Q) == len(P)
    assert all(proj[c] == c for c in P.ids)


def test_quotient_is_separative(small_corpus):
    for P in small_corpus:
        Q, _, _ = separative_quotient(P)
        assert is_separative(Q)


def test_upward_closure_of_minimal_meets_every_dense(small_corpus):
    for P in small_corpus:
        for _, umask in P.minimal_filters():
            up = set(P.ids_of(umask))
            assert is_filter(P, up)
            # every dense set meets the closure: scan all dense subsets on
            # the smallest posets, spot-check on the rest
            if len(P) <= 4:
                ids = P.ids
                for r in range(1, len(ids) + 1):
                    for D in itertools.combinations(ids, r):
                        if is_dense(P, D) and not up & set(D):
                            raise AssertionError((P.name, up, D))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_preorders_roundtrip_order_properties(data):
    n = data.draw(st.integers(2, 5))
    ids = [f"c{i}" for i in range(n)]
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=12
        )
    )
    pairs += [(c, "c0") for c in ids]  # force a top
    P = Poset("rand", ids, "c0", pairs)
    down = {c: {d for d in ids if P.leq(d, c)} for c in ids}
    for a in ids:
        assert a in down[a]
        for b in ids:
            for c in ids:
                if a in down[b] and b in down[c]:
                    assert a in down[c]
    # compatibility is symmetric with a common witness
    for a in ids:
        for b in ids:
            assert compatible(P, a, b) == compatible(P, b, a)
