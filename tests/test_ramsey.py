import gc
import itertools
import random
import sys
import threading
import weakref

import pytest
from helpers import (
    accepts_reference,
    gnw_construct_reference,
    gnw_dichotomy_search_reference,
    gnw_status_bruteforce,
    hl_search_reference,
    hl_witness_exists_bruteforce,
    rejects_reference,
)

from forcinglab import InputError, zoo
from forcinglab.forcing import FORCES, FORCES_NEGATION, UNDECIDED, decides
from forcinglab.ramsey import (
    ACCEPTS,
    NEITHER,
    REJECTS,
    ClopenPredicate,
    FinFamily,
    LevelColoring,
    LevelTree,
    check_hl_witness,
    clopen_formula,
    gnw_accepts,
    gnw_construct,
    gnw_dichotomy_search,
    gnw_verify_horn,
    hl_search,
    is_mn_dense,
    is_strong_subtree,
    mathias_pure_decide,
    mathias_real_name,
    strong_subtree_assemble,
)
from forcinglab.ramsey import _accepts, _colex, _largest_uniform, _rejects
from forcinglab.zoo import mathias_decode, mathias_id, mathias_pure_extension


def _random_family(rng, n):
    members = set()
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, 3)
        members.add(frozenset(rng.sample(range(n), size)))
    return FinFamily(n, frozenset(members))


# -- accept / reject --------------------------------------------------------


def test_singletons_accept():
    F = FinFamily(8, frozenset(frozenset([i]) for i in range(8)))
    assert gnw_accepts(F, (), range(8), 1) == ACCEPTS


def test_zero_only_family_rejects_away_from_zero():
    F = FinFamily(6, frozenset([frozenset([0])]))
    assert gnw_accepts(F, (), range(1, 6), 1) == REJECTS


def test_block_size_validation():
    F = FinFamily(4, frozenset([frozenset([0])]))
    with pytest.raises(InputError):
        gnw_accepts(F, (), {0, 1}, 3)


def test_status_matches_bruteforce_form():
    rng = random.Random(20260810)
    for _ in range(250):
        n = rng.randint(3, 7)
        F = _random_family(rng, n)
        a = tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))
        A = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        s = rng.randint(1, len(A))
        assert gnw_accepts(F, a, A, s) == gnw_status_bruteforce(F, a, A, s)


def test_accepts_antitone_and_exclusive():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(4, 8)
        F = _random_family(rng, n)
        A = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
        s = rng.randint(1, len(A) - 1)
        st = gnw_accepts(F, (), A, s)
        assert st in (ACCEPTS, REJECTS, NEITHER)
        sub = A[: len(A) - 1]
        if st == ACCEPTS and len(sub) >= s:
            assert gnw_accepts(F, (), sub, s) == ACCEPTS


# -- dichotomy search --------------------------------------------------------


def test_search_even_singletons():
    F = FinFamily(10, frozenset(frozenset([i]) for i in range(0, 10, 2)))
    assert gnw_verify_horn(F, frozenset([1, 3, 5, 7, 9]), 1, "a")
    result = gnw_dichotomy_search(F, 5, 1)
    assert result is not None
    assert gnw_verify_horn(F, result.H, 1, result.horn)


def test_search_all_m_subsets_gives_horn_b():
    m = 2
    F = FinFamily(6, frozenset(frozenset(c) for c in itertools.combinations(range(6), m)))
    result = gnw_dichotomy_search(F, 4, m)
    assert result is not None and result.horn == "b"
    assert gnw_verify_horn(F, result.H, m, "b")


def test_search_parameter_validation():
    F = FinFamily(4, frozenset([frozenset([0])]))
    with pytest.raises(InputError):
        gnw_dichotomy_search(F, 5, 1)
    with pytest.raises(InputError):
        gnw_dichotomy_search(F, 3, 4)


# -- construction ------------------------------------------------------------


def test_construct_singletons_accepts_empty():
    F = FinFamily(10, frozenset(frozenset([i]) for i in range(10)))
    r = gnw_construct(F, 1, 5)
    assert r.completed and r.horn == "b"
    assert ("decide", (), ACCEPTS) in r.transcript


def test_construct_zero_family_rejection_path():
    F = FinFamily(6, frozenset([frozenset([0])]))
    r = gnw_construct(F, 1, 3)
    assert r.completed and r.horn == "a"
    assert 0 not in r.H
    assert gnw_verify_horn(F, r.H, 1, "a")


def test_construct_transcript_exclusions_audited():
    # replay the rejection walk: each excluded element had a subset of the
    # picks so far whose one-step extension was not rejected over the tail
    rng = random.Random(99)
    audited = 0
    for _ in range(60):
        n = rng.randint(5, 9)
        F = _random_family(rng, n)
        r = gnw_construct(F, 1, 3)
        if not (r.completed and r.horn == "a"):
            continue
        audited += 1
        work = next(e[1] for e in r.transcript if e[0] == "reject-walk")
        rs = []
        for entry in r.transcript:
            if entry[0] == "excluded":
                x = entry[1]
                tail = [y for y in work if y > x]
                if len(tail) < 1:
                    continue  # excluded for lack of a tail
                witnessed = any(
                    gnw_accepts(F, tuple(sorted(sub + (x,))), tail, 1) != REJECTS
                    for k in range(len(rs) + 1)
                    for sub in itertools.combinations(rs, k)
                )
                assert witnessed
            elif entry[0] == "reject-step":
                rs.append(entry[1])
        assert frozenset(rs) == r.H
    assert audited > 0


def test_gnw_engine_matches_reference():
    # the bitmask engine (member masks, prefix pre-check, one block table
    # per settle) returns exactly what the frozenset-per-prefix scan returns
    rng = random.Random(20261018)
    routes = set()
    for _ in range(300):
        n = rng.randint(1, 10)
        members = {frozenset(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(0, 12))}
        F = FinFamily(n, frozenset(members))
        ground = frozenset(rng.sample(range(n), rng.randint(1, n))) if rng.random() < 0.5 else None
        size = n if ground is None else len(ground)
        h = rng.randint(1, size)
        s = rng.randint(1, h)
        m = rng.randint(1, h)
        assert gnw_dichotomy_search(F, h, m, ground) == gnw_dichotomy_search_reference(F, h, m, ground)
        built = gnw_construct(F, s, h, ground)
        assert built == gnw_construct_reference(F, s, h, ground)
        routes.update(entry[0] for entry in built.transcript)
        # each half of the status on its own, with a that may already hold a member
        a = tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 3)))))
        A = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        b = rng.randint(1, len(A))
        assert _accepts(F, a, A, b) == accepts_reference(F, a, A, b)
        assert _rejects(F, a, A, b) == rejects_reference(F, a, A, b)
    assert {"decide", "shrink", "exhausted", "reject-walk", "excluded"} <= routes


def _shrink_depths(pool, transcript):
    """How far below the size of avail each shrink of the transcript kept
    its set.  Every settle of one step has the newest chosen element as the
    largest of a_t, and avail keeps only the elements past it."""
    avail = frozenset(pool)
    depths = []
    for entry in transcript:
        if entry[0] not in ("decide", "shrink"):
            continue
        a_t = entry[1]
        if a_t:
            avail = frozenset(x for x in avail if x > a_t[-1])
        if entry[0] == "shrink":
            depths.append(len(avail) - len(entry[2]))
            avail = entry[2]
    return depths


def test_gnw_construct_sweep_in_workload_shape():
    # the benchmark's gnw shape: 8-10 points, up to 12 members of 1-3
    # elements, block size 2-4; half the runs on a ground set
    below = []  # per shrink: how far below the size of avail the kept set is
    rng = random.Random("gnw-construct-sweep")
    for _ in range(150):
        n = rng.randint(8, 10)
        members = set()
        target = rng.randint(3, 12)
        while len(members) < target:
            members.add(frozenset(rng.sample(range(n), rng.randint(1, 3))))
        F = FinFamily(n, frozenset(members))
        ground = frozenset(rng.sample(range(n), rng.randint(7, n))) if rng.random() < 0.5 else None
        s = rng.randint(2, 4)
        h = rng.randint(s, 4)
        built = gnw_construct(F, s, h, ground)
        assert built == gnw_construct_reference(F, s, h, ground)
        below.extend(_shrink_depths(ground if ground is not None else range(n), built.transcript))
    # shrinks whose search passed several sizes before keeping a set
    assert sum(depth >= 3 for depth in below) >= 10


@pytest.mark.parametrize("s", [1, 2, 3])
def test_largest_uniform_matches_combinations_scan(s):
    rng = random.Random(f"first-uniform/{s}")
    for _ in range(200):
        # count == s leaves no size in range; count < s has no block at all
        count = rng.randint(max(s - 1, 0), 9)
        bits = [1 << x for x in sorted(rng.sample(range(12), count))]
        bias = rng.random()
        table = {sum(block): rng.random() < bias for block in itertools.combinations(bits, s)}
        expected = None
        for size in range(count - 1, s - 1, -1):
            for B in itertools.combinations(bits, size):
                labels = {table[sum(block)] for block in itertools.combinations(B, s)}
                if len(labels) == 1:
                    expected = (list(B), labels.pop())
                    break
            if expected is not None:
                break
        assert _largest_uniform(table, bits, s) == expected
        if count > s:
            assert expected is not None and len(expected[0]) >= s
        else:
            assert expected is None


def test_colex_matches_sorted_form():
    for n in range(11):
        pool = tuple(range(3, 3 + 2 * n, 2))
        for h in range(n + 1):
            expected = sorted(itertools.combinations(pool, h), key=lambda t: t[::-1])
            assert list(_colex(pool, h)) == expected


# -- level trees -------------------------------------------------------------


def test_level_tree_validation():
    T = LevelTree(3)
    assert T.level(2) == ("00", "01", "10", "11")
    with pytest.raises(InputError):
        LevelTree(2, frozenset({"", "0", "00", "11"}))  # 11 missing its parent
    with pytest.raises(InputError):
        LevelTree(2, frozenset({"", "0", "1", "00"}))  # 1 dead-ends early
    pruned = LevelTree(2, frozenset({"", "0", "00", "01"}))
    assert pruned.level(1) == ("0",)


def test_is_mn_dense_examples():
    T = LevelTree(3)
    assert is_mn_dense(T, T.level(3), "", 1, 3)
    assert not is_mn_dense(T, {"000"}, "", 1, 3)
    assert is_mn_dense(T, {"000", "100"}, "", 1, 3)
    assert is_mn_dense(T, {"010"}, "0", 1, 3)  # only one level-1 node above 0... itself
    with pytest.raises(InputError):
        is_mn_dense(T, set(), "", 2, 1)


def test_is_mn_dense_matches_quantifier():
    T = LevelTree(3)
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(0, 2)
        n = rng.randint(m, 3)
        D = frozenset(v for v in T.level(n) if rng.random() < 0.5)
        expected = all(
            any(v.startswith(u) for v in D) for u in T.level(m)
        )
        assert is_mn_dense(T, D, "", m, n) == expected


def _coloring(depth, fn, d=1):
    T = LevelTree(depth)
    values = {}
    for l in range(depth + 1):
        for combo in itertools.product(*(T.level(l) for _ in range(d))):
            values[combo] = fn(combo)
    return LevelColoring(d, depth, 2, values)


def test_hl_constant_coloring():
    f = _coloring(3, lambda combo: 0)
    T = LevelTree(3)
    w = hl_search([T], f)
    assert w is not None and w.level == 0
    assert check_hl_witness([T], f, w)


def test_hl_last_bit_coloring():
    f = _coloring(3, lambda combo: int(combo[0][-1]) if combo[0] else 0)
    T = LevelTree(3)
    w = hl_search([T], f)
    assert w is not None
    assert check_hl_witness([T], f, w)


def test_hl_two_trees_sampled():
    rng = random.Random(11)
    T = LevelTree(3)
    for _ in range(25):
        f = _coloring(3, lambda combo: rng.randint(0, 1), d=2)
        w = hl_search([T, T], f)
        assert w is not None
        assert check_hl_witness([T, T], f, w)


def test_hl_search_agrees_with_bruteforce_existence():
    T = LevelTree(2)
    for bits in range(1 << 7):
        nodes = [n for l in range(3) for n in T.level(l)]
        values = {(n,): bits >> i & 1 for i, n in enumerate(nodes)}
        f = LevelColoring(1, 2, 2, values)
        found = hl_search([T], f)
        assert (found is not None) == hl_witness_exists_bruteforce([T], f)
        if found is not None:
            assert check_hl_witness([T], f, found)


def _pruned_tree(rng, depth):
    """A random dead-end-free subtree of the full tree: each node keeps one
    or both children."""
    nodes = {""}
    frontier = [""]
    for _ in range(depth):
        frontier = [
            t + c
            for t in frontier
            for c in rng.choice([("0",), ("1",), ("0", "1"), ("0", "1")])
        ]
        nodes.update(frontier)
    return LevelTree(depth, frozenset(nodes))


def _random_coloring(rng, trees, depth, k=2):
    values = {}
    for l in range(depth + 1):
        for combo in itertools.product(*(T.level(l) for T in trees)):
            values[combo] = rng.randrange(k)
    return LevelColoring(len(trees), depth, k, values)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_hl_search_matches_reference_scan(d, k):
    rng = random.Random(f"hl/{d}/{k}")
    for depth in range(5):
        for pruned in (False, True):
            for _ in range(6):
                trees = [_pruned_tree(rng, depth) if pruned else LevelTree(depth) for _ in range(d)]
                f = _random_coloring(rng, trees, depth, k)
                w = hl_search(trees, f)
                assert w == hl_search_reference(trees, f)
                assert w is None or check_hl_witness(trees, f, w)


def test_hl_search_matches_reference_on_depth_4_pairs():
    # the benchmark's two-tree shape: full trees of depth 4 with seeded
    # 2-colorings, plus pruned pairs; the slow searches end at level 2
    rng = random.Random("hl-depth-4-pairs")
    pairs = [[LevelTree(4), LevelTree(4)]] * 8 + [[_pruned_tree(rng, 4), _pruned_tree(rng, 4)] for _ in range(4)]
    levels = []
    for trees in pairs:
        values = {}
        for l in range(5):
            for combo in itertools.product(*(T.level(l) for T in trees)):
                values[combo] = rng.randint(0, 1)
        f = LevelColoring(2, 4, 2, values)
        w = hl_search(trees, f)
        assert w == hl_search_reference(trees, f)
        assert w is not None and check_hl_witness(trees, f, w)
        levels.append(w.level)
    assert max(levels[:8]) >= 2


@pytest.mark.parametrize("d", [1, 2])
def test_hl_search_on_trees_deeper_than_the_coloring(d):
    # a tree keeps the levels and runs of all its levels, and a coloring of
    # lower depth reads only the first ones
    rng = random.Random(f"hl-deeper/{d}")
    for pruned in (False, True):
        for depth in (1, 2, 3):
            for _ in range(4):
                trees = [_pruned_tree(rng, 4) if pruned else LevelTree(4) for _ in range(d)]
                f = _random_coloring(rng, trees, depth)
                w = hl_search(trees, f)
                assert w == hl_search_reference(trees, f)
                assert w is None or check_hl_witness(trees, f, w)


def test_hl_search_one_pair_of_trees_serves_several_depths():
    rng = random.Random("hl-shared-trees")
    for pruned in (False, True):
        trees = [_pruned_tree(rng, 4) if pruned else LevelTree(4) for _ in range(2)]
        for depth in (4, 2, 3) * 2:
            f = _random_coloring(rng, trees, depth)
            assert hl_search(trees, f) == hl_search_reference(trees, f)


def test_kept_tree_tables_leave_equality_alone():
    T, U = LevelTree(4), LevelTree(4)
    rng = random.Random("hl-kept-tables")
    levels = [tuple("".join(p) for p in itertools.product("01", repeat=l)) for l in range(5)]
    values = {combo: rng.randint(0, 1) for L in levels for combo in itertools.product(L, L)}
    assert hl_search([T, T], LevelColoring(2, 4, 2, values)) is not None
    assert "_spans" in vars(T) and "_levels" not in vars(U)
    assert T == U and hash(T) == hash(U) and repr(T) == repr(U)
    assert [T.level(l) for l in range(5)] == levels
    P = _pruned_tree(rng, 4)
    assert [P.level(l) for l in range(5)] == [tuple(sorted(v for v in P.nodes if len(v) == l)) for l in range(5)]


def test_fresh_trees_shared_across_threads():
    # the first calls race to build each tree's kept tables; every build
    # gives the same value, so every thread gets the reference witness
    rng = random.Random("hl-threads")
    f = _random_coloring(rng, [LevelTree(4)] * 2, 4)
    expected = hl_search_reference([LevelTree(4)] * 2, f)
    trees = [LevelTree(4), LevelTree(4)]
    start = threading.Barrier(8)
    results = [None] * 8

    def work(w):
        start.wait()
        results[w] = hl_search(trees, f)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 8


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("depth", [0, 3])
@pytest.mark.parametrize(
    "fault, message",
    [("missing", "missing the tuple"), ("k", "out of range"), ("negative", "out of range")],
)
def test_hl_search_rejects_bad_colorings(d, depth, fault, message):
    # the faulty tuple is the last one of the deepest level, so every other
    # value is read before it
    values = dict(_coloring(depth, lambda combo: 0, d=d).values)
    last = next(reversed(values))
    if fault == "missing":
        del values[last]
    else:
        values[last] = 2 if fault == "k" else -1
    with pytest.raises(InputError, match=message):
        hl_search([LevelTree(depth)] * d, LevelColoring(d, depth, 2, values))


def test_hl_checker_rejects_tampering():
    f = _coloring(3, lambda combo: 0)
    T = LevelTree(3)
    w = hl_search([T], f)
    from forcinglab.ramsey import HlRow, HlWitness

    bad_rows = tuple(
        (m, HlRow(row.n, (frozenset(list(row.denses[0])[:1]),), row.color))
        if m == w.level and len(row.denses[0]) > 1
        else (m, row)
        for m, row in w.rows
    )
    tampered = HlWitness(w.level, w.stems, bad_rows)
    # dropping witnesses can break density; flag anything that does
    if tampered != w:
        assert not check_hl_witness([T], f, tampered)


# -- strong subtrees ---------------------------------------------------------


def test_strong_subtree_full_levels():
    T = LevelTree(3)
    st = strong_subtree_assemble(T, "", [T.level(1), T.level(3)], [0, 1, 3])
    assert st.certified
    assert st.base == (0, 1)


def test_strong_subtree_single_step():
    T = LevelTree(2)
    # a one-step dense set rich enough to keep both successors of the stem
    st = strong_subtree_assemble(T, "", [("00", "10", "01", "11")], [1, 2])
    assert st.certified and st.base == (1,)


def test_strong_subtree_density_precondition():
    T = LevelTree(2)
    with pytest.raises(InputError) as err:
        strong_subtree_assemble(T, "", [("00",)], [1, 2])
    assert "dense set 0" in str(err.value)


def test_strong_subtree_certificate_rejects_dropped_successor():
    T = LevelTree(2)
    nodes = frozenset({"", "0", "1", "00", "10"})  # 0 and 1 kept, but 01/11 gone
    ok, failure = is_strong_subtree(T, nodes, "", [1])
    assert not ok
    assert failure[0] == 1


def test_strong_subtree_recheck_from_scratch():
    T = LevelTree(3)
    st = strong_subtree_assemble(T, "0", [("00", "01"), T.level(3)], [1, 2, 3])
    ok, failure = is_strong_subtree(T, st.nodes, st.stem, st.base)
    assert ok == st.certified and (failure is None) == st.certified
    assert st.certified


# -- pure decision -----------------------------------------------------------


def test_pure_decide_spec_examples(mathias6):
    p = mathias_id((), {0, 1, 2, 3})
    X0 = ClopenPredicate(1, frozenset([(0,)]))
    d = mathias_pure_decide(mathias6, p, X0)
    assert not d.forces_membership
    assert mathias_decode(d.condition) == ((), frozenset({1, 2, 3}))
    Xall = ClopenPredicate(0, frozenset([()]))
    dall = mathias_pure_decide(mathias6, mathias6.top, Xall)
    assert dall.forces_membership and dall.condition == mathias6.top


def test_pure_decide_envelope_too_small(mathias6):
    from forcinglab import SizeCapError

    with pytest.raises(SizeCapError):
        mathias_pure_decide(mathias6, mathias_id((0,), {0, 1}), ClopenPredicate(3, frozenset([(1, 2, 3)])))


def test_pure_decide_verified_by_filters(mathias6):
    rng = random.Random(3)
    conditions = [
        c
        for c in mathias6.ids
        if len(mathias_decode(c)[1]) >= len(mathias_decode(c)[0]) + 3
    ]
    prefixes = [()] + [tuple(sorted(s)) for r in (1, 2) for s in itertools.combinations(range(6), r)]
    for _ in range(30):
        accepted = frozenset(p for p in prefixes if rng.random() < 0.3)
        X = ClopenPredicate(2, accepted)
        p = rng.choice(conditions)
        d = mathias_pure_decide(mathias6, p, X)
        assert mathias_pure_extension(d.condition, p)
        phi, env = clopen_formula(mathias6, X)
        verdict = decides(mathias6, d.condition, phi, env)
        assert verdict == (FORCES if d.forces_membership else FORCES_NEGATION)
        # exhaustive check over the reals reachable through the extension
        stem, envl = mathias_decode(d.condition)
        floor = stem[-1] if stem else -1
        beyond = sorted(x for x in envl if x > floor)
        for r in range(len(beyond) + 1):
            for z in itertools.combinations(beyond, r):
                real = frozenset(stem) | frozenset(z)
                if not real:
                    continue
                assert X.member(real) == d.forces_membership


def test_pure_decide_construct_route(mathias6):
    p = mathias_id((0,), {0, 1, 2, 3, 4})
    X = ClopenPredicate(2, frozenset([(1, 2)]))
    d = mathias_pure_decide(mathias6, p, X)
    assert d.route == "construct"
    assert d.condition == mathias_id((0,), {0, 1, 2, 3}) and not d.forces_membership
    phi, env = clopen_formula(mathias6, X)
    assert decides(mathias6, d.condition, phi, env) == FORCES_NEGATION


@pytest.mark.parametrize(
    "p, X, route, condition, forces",
    [
        ("s0.1.2.3.4:e0.1.2.3.4.5", ClopenPredicate(1, frozenset([(0,)])), "search", "s0.1.2.3.4:e0.1.2.3.4.5", True),
        ("s0:e0.1.2", ClopenPredicate(2, frozenset([(0, 1)])), "shrink", "s0:e0.2", False),
        ("s0.1.2.3.4.5:e0.1.2.3.4.5", ClopenPredicate(0, frozenset()), "collapse", "s0.1.2.3.4.5:e0.1.2.3.4.5", False),
    ],
)
def test_pure_decide_fallback_routes(mathias6, p, X, route, condition, forces):
    d = mathias_pure_decide(mathias6, p, X)
    assert (d.route, d.condition, d.forces_membership) == (route, condition, forces)
    phi, env = clopen_formula(mathias6, X)
    assert decides(mathias6, d.condition, phi, env) == (FORCES if forces else FORCES_NEGATION)


def test_clopen_environment_shared_and_read_only(mathias6):
    _, env = clopen_formula(mathias6, ClopenPredicate(1, frozenset([(0,)])))
    _, again = clopen_formula(mathias6, ClopenPredicate(2, frozenset([(1, 2)])))
    assert again is env
    assert env["real"] == mathias_real_name(mathias6)
    assert sorted(env) == ["k0", "k1", "k2", "k3", "k4", "k5", "real"]
    with pytest.raises(TypeError):
        env["real"] = env["k0"]


def test_mathias_poset_is_not_kept_alive():
    M = zoo.mathias(4)
    ref = weakref.ref(M)
    mathias_real_name(M)
    X = ClopenPredicate(1, frozenset([(0,)]))
    clopen_formula(M, X)
    mathias_pure_decide(M, M.top, X)
    del M
    gc.collect()
    assert ref() is None
