import itertools
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

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
from forcinglab import names, zoo
from forcinglab.forcing import ForcingContext, context_for
from forcinglab.formats import parse_names, print_name
from forcinglab.names import (
    EMPTY_NAME,
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


_DEEP_NAME_SCRIPT = """
import sys
from forcinglab import Name, check_name, validate_name, zoo

limit = sys.getrecursionlimit()
P, _ = zoo.cohen(1, 1)


def deep(innermost):
    n = Name([(check_name(frozenset(), P), innermost)])
    for _ in range(2999):
        n = Name([(n, "0.0.0")])
    return n


assert validate_name(deep("0.0.0"), P) == (True, None)
assert validate_name(deep("0.0.1"), P) == (False, (("0.0.0",) * 2999, "0.0.1"))
assert sys.getrecursionlimit() == limit
"""


def test_validate_a_deep_name_without_a_context():
    # no forcing context is built, so the default recursion limit holds
    src = str(Path(names.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_NAME_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


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
            for fidx, mask in enumerate(ctx.spectrum.filter_masks):
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


def test_equal_names_are_one_object(P):
    e = [(check_name(HF0, P), "0.0.0"), (check_name(HF1, P), P.top)]
    assert Name(e) is Name(e[::-1])
    assert Name() is EMPTY_NAME
    # a name read from a file that has a check name's entries is that name,
    # tagged with the set it names
    parsed = parse_names("(def a (name ((pair (check #{}) -))))", P)["a"]
    assert parsed is check_name(HF1, P)
    assert parsed._check == (HF1, P.top)


def test_a_dropped_name_dies():
    inner = Name([(EMPTY_NAME, "dropped")])
    outer = Name([(inner, "dropped"), (EMPTY_NAME, "dropped-too")])
    refs = [weakref.ref(inner), weakref.ref(outer)]
    del inner, outer
    assert [r() for r in refs] == [None, None]
    # and the intern table lets go of their entries
    assert not [es for es in list(names._NAMES.data) if any(c.startswith("dropped") for _, c in es)]


def test_threads_building_one_name_get_one_object():
    # each name built with its entries in both orders, in both directions,
    # so threads race to build one name and the names inside it
    count = 150
    workers = 8
    start = threading.Barrier(workers)
    results = [None] * workers

    def build(i, flip):
        inner = [(EMPTY_NAME, f"t{i}"), (EMPTY_NAME, f"u{i}")]
        mid = Name(inner[::-1] if flip else inner)
        outer = [(mid, f"u{i}"), (Name([(mid, f"t{i}")]), f"t{i}")]
        return Name(outer[::-1] if flip else outer)

    def work(w):
        start.wait()
        order = range(count) if w % 2 else range(count - 1, -1, -1)
        got = {(i, flip): build(i, flip) for i in order for flip in (w % 2 == 0, w % 2 == 1)}
        results[w] = [got[i, flip] for i in range(count) for flip in (False, True)]

    def give_up_the_lock(frame, event, arg):
        # switch threads after every C call, so two threads race to build
        # the same name
        if event == "c_return":
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threading.setprofile(give_up_the_lock)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        threading.setprofile(None)
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    groups = [{id(r[j]) for r in results for j in (2 * i, 2 * i + 1)} for i in range(count)]
    split = [i for i, ids in enumerate(groups) if len(ids) != 1]
    assert split == [], f"{len(split)} of {count} names came out as two or more objects"
    assert all(names._NAMES[n.entries] is n for n in results[0])


def test_the_empty_name_is_constant_under_any_top(P):
    # EMPTY_NAME is the check name of the empty set under every top, so its
    # record may name another poset's top; its value is the empty set
    Q = Poset("empty-name-top", ["empty-name-top"], "empty-name-top", [])
    assert check_name(HF0, Q) is EMPTY_NAME
    assert EMPTY_NAME._check == (HF0, "empty-name-top")
    assert ForcingContext(P).constant(EMPTY_NAME) == HF0
    assert constant_value(EMPTY_NAME, P) == HF0
