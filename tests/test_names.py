import itertools
import random

import pytest

from forcinglab import (
    Filter,
    InputError,
    Name,
    check_name,
    generic_name,
    interpret,
    rank,
    validate_name,
    von_neumann,
)
from forcinglab import zoo
from forcinglab.forcing import context_for
from forcinglab.formats import print_name
from forcinglab.names import (
    condition_codes,
    constant_value,
    decode_condition,
    hereditary_names,
    von_neumann_value,
)
from forcinglab.poset import Poset, is_filter

HF0 = frozenset()
HF1 = frozenset([HF0])
HF2 = frozenset([HF0, HF1])


@pytest.fixture
def P(cohen11):
    return cohen11[0]


def test_rank_of_hf_sets():
    assert rank(HF0) == 0
    assert rank(HF1) == 1
    assert rank(HF2) == 2
    assert rank(von_neumann(4)) == 4


def test_rank_of_names(P):
    assert rank(check_name(HF0, P)) == 0
    assert rank(check_name(HF1, P)) == 1 + rank(check_name(HF0, P))
    y = Name([(check_name(HF0, P), "0.0.0")])
    assert rank(y) == 1
    # strictly monotone along the child relation
    w = Name([(y, "0.0.0")])
    assert rank(w) == 2


def test_von_neumann_roundtrip():
    for i in range(8):
        assert von_neumann_value(von_neumann(i)) == i
    assert von_neumann_value(frozenset([HF1])) is None


def _separate_naturals(n):
    # built apart from von_neumann's own list, so no object is shared with it
    out = [frozenset()]
    for _ in range(n):
        out.append(frozenset(out))
    return out


def test_separately_built_naturals_decode():
    copies = _separate_naturals(60)
    assert copies[20] is not von_neumann(20)
    assert von_neumann_value(copies[60]) == 60
    assert [von_neumann_value(x) for x in copies[:10]] == list(range(10))


def test_generic_filter_decodes_on_a_large_poset(mathias6):
    # interpreting builds its own copies of the codes, up to 197 here
    _, members = mathias6.minimal_filters()[0]
    F = Filter(mathias6, frozenset(mathias6.ids_of(members)))
    decoded = frozenset(decode_condition(mathias6, x) for x in interpret(generic_name(mathias6), F))
    assert decoded == F.members


def test_a_natural_with_one_wrong_nested_element_is_not_one():
    copies = _separate_naturals(12)
    # 5 with its element 3 replaced by {0, 2}: still five elements
    bad5 = frozenset(copies[:3] + [frozenset([copies[0], copies[2]]), copies[4]])
    assert len(bad5) == 5 and von_neumann_value(bad5) is None
    # 12 with its element 6 replaced by 6 whose element 5 is bad5
    bad12 = frozenset(copies[:6] + [frozenset(copies[:5] + [bad5])] + copies[7:12])
    assert len(bad12) == 12 and von_neumann_value(bad12) is None


def test_check_name_structure(P):
    assert check_name(HF0, P).entries == frozenset()
    c = check_name(HF1, P)
    assert c.entries == frozenset({(check_name(HF0, P), P.top)})


from helpers import hf_universe


def test_check_name_interprets_to_itself(P, small_corpus):
    # rank <= 3 everywhere; the full rank <= 4 universe (65536 sets) on the
    # poset with the most filter shapes among the tiny ones
    pool3 = hf_universe(4)
    assert len(pool3) == 16
    for Q in small_corpus:
        filters = _all_filters(Q)
        for x in pool3:
            cx = check_name(x, Q)
            for F in filters:
                assert interpret(cx, F) == x
    pool4 = hf_universe(5)
    assert len(pool4) == 65536
    filters = _all_filters(P)
    # the children of every pool4 check name; held here, the weak check-name
    # table builds them once instead of once per parent
    children = [check_name(x, P) for x in pool3]
    for x in pool4:
        cx = check_name(x, P)
        for F in filters:
            assert interpret(cx, F) == x


def _all_filters(Q):
    out = []
    for r in range(1, len(Q.ids) + 1):
        for combo in itertools.combinations(Q.ids, r):
            if is_filter(Q, combo):
                out.append(Filter(Q, frozenset(combo)))
    return out


def test_generic_name_entry_count(P):
    assert len(generic_name(P).entries) == len(P)


def test_generic_name_interprets_to_filter(small_corpus):
    for Q in small_corpus:
        g = generic_name(Q)
        for F in _all_filters(Q):
            decoded = frozenset(decode_condition(Q, x) for x in interpret(g, F))
            assert decoded == F.members


def test_generic_name_on_one_element_poset():
    one = Poset("one", ["t"], "t", [])
    g = generic_name(one)
    F = Filter(one, frozenset({"t"}))
    assert interpret(g, F) == frozenset([von_neumann(0)])
    assert decode_condition(one, von_neumann(0)) == "t"


def test_validate_check_and_generic(P):
    assert validate_name(check_name(HF2, P), P) == (True, None)
    assert validate_name(generic_name(P), P) == (True, None)


def test_validate_violation_reported(P):
    # a nested entry hanging on a condition that does not extend the outer one
    q, qp = "0.0.0", "0.0.1"
    inner = Name([(check_name(HF0, P), qp)])
    bad = Name([(inner, q)])
    ok, violation = validate_name(bad, P)
    assert not ok
    path, cond = violation
    assert cond == qp
    assert path == (q,)


def test_validate_unknown_condition(P):
    with pytest.raises(InputError):
        validate_name(Name([(check_name(HF0, P), "nope")]), P)


def test_validation_does_not_walk_constant_subtrees(monkeypatch):
    # every child of gen is a check name, exempt and not walked: one condition
    # check per entry (walking every check name makes 36159)
    Q = zoo.mathias(5)
    gen = generic_name(Q)
    assert len(gen.entries) == 111
    calls = 0
    check_condition = Poset.check_condition

    def counted(self, p):
        nonlocal calls
        calls += 1
        return check_condition(self, p)

    monkeypatch.setattr(Poset, "check_condition", counted)
    assert validate_name(gen, Q) == (True, None)
    assert calls <= 2 * len(gen.entries)


def _mixed_name(rng, Q, bound, depth, pool):
    """A seeded name whose entries mostly keep the discipline under bound,
    with check names, hand-built constants and the odd unknown condition."""
    below = [c for c in Q.ids if bound is None or Q.leq(c, bound)]
    entries = []
    for _ in range(rng.randint(0, 3)):
        r = rng.random()
        cond = rng.choice(below) if r < 0.7 else Q.top if r < 0.85 else rng.choice(Q.ids)
        if rng.random() < 0.01:
            cond = "nope"
        r = rng.random()
        if depth == 0 or r < 0.3:
            child = check_name(rng.choice(pool), Q)
        elif r < 0.45:
            child = Name([(check_name(rng.choice(pool), Q), Q.top)])
        else:
            child = _mixed_name(rng, Q, cond if cond in Q.index else None, depth - 1, pool)
        entries.append((child, cond))
    return Name(entries)


def _outcome(validate, *args):
    try:
        return validate(*args)
    except InputError as exc:
        return str(exc)


def test_validate_matches_the_full_walk(corpus_posets):
    from helpers import validate_name_reference

    rng = random.Random(18)
    pool = hf_universe(3)
    seen = set()
    for Q in corpus_posets:
        shared = {}
        for _ in range(12):
            n = _mixed_name(rng, Q, None, 3, pool)
            expected = _outcome(validate_name_reference, n, Q)
            assert _outcome(validate_name, n, Q) == expected
            assert _outcome(validate_name, n, Q, shared) == expected
            seen.add(expected[0] if isinstance(expected, tuple) else "error")
    assert seen == {True, False, "error"}


def test_interpret_examples(P):
    y = Name([(check_name(HF0, P), "0.0.0")])
    with_q = Filter(P, frozenset({"-", "0.0.0"}))
    without_q = Filter(P, frozenset({"-", "0.0.1"}))
    assert interpret(y, with_q) == HF1
    assert interpret(y, without_q) == HF0


def test_interpret_is_extensional(P):
    e = check_name(HF0, P)
    doubled = Name([(e, "-"), (e, "0.0.0")])
    F = Filter(P, frozenset({"-", "0.0.0"}))
    assert interpret(doubled, F) == HF1  # duplicates collapse


def test_interpret_matches_context_interp(small_corpus):
    from helpers import canonical_env

    for Q in small_corpus:
        ctx = context_for(Q)
        for n in canonical_env(Q).values():
            for fidx, mask in enumerate(ctx.filter_masks):
                assert interpret(n, Filter(Q, frozenset(Q.ids_of(mask)))) == ctx.interp(n, fidx)


def test_interpret_unknown_condition(P):
    F = Filter(P, frozenset({"-", "0.0.0"}))
    with pytest.raises(InputError):
        interpret(Name([(check_name(HF0, P), "nope")]), F)


def test_constant_value(P):
    assert constant_value(Name(), P) == HF0
    assert constant_value(check_name(HF2, P), P) == HF2
    # the only non-top condition sits two levels below the outer entries
    inner = Name([(check_name(HF0, P), "0.0.0")])
    outer = Name([(Name([(inner, P.top)]), P.top), (check_name(HF1, P), P.top)])
    assert constant_value(outer, P) is None
    assert constant_value(Name([(check_name(HF1, P), P.top)]), P) == frozenset([HF1])
    assert not print_name(outer, P).startswith("(check")


def test_hereditary_names(P):
    e = check_name(HF0, P)
    y = Name([(e, "0.0.0")])
    w = Name([(y, "0.0.0")])
    assert hereditary_names(w) == frozenset({y, e})


def test_condition_codes_follow_lex_order(P):
    codes = condition_codes(P)
    for i, cid in enumerate(P.ids):
        assert codes[cid] == von_neumann(i)
