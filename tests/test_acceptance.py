"""Acceptance suite: one test per criterion, each printing a pass line.

The corpus is the isomorphism-closed family of preorders with a greatest
element on up to five conditions together with the six bundled forcings.
Criteria touching spaces that are combinatorially unbounded at full breadth
(depth-3 formula closure, all colorings at depth 4, all clopen predicates)
run the documented deterministic restriction: full closure at the depths and
alphabet sizes where it is finite, seeded samples beyond.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    CORPUS_PAIRS,
    canonical_env,
    compat_rows_reference,
    formula_corpus,
    hf_universe,
    hl_witness_exists_bruteforce,
    quantifier_bounds_small,
)

from forcinglab import zoo
from forcinglab.completion import boolean_completion
from forcinglab.forcing import (
    FORCES,
    FORCES_NEGATION,
    UNDECIDED,
    context_for,
    decide_name_value,
    decides,
)
from forcinglab.formats import parse_poset, print_name, print_poset
from forcinglab.formulas import (
    And,
    Eq,
    ExistsIn,
    ForallIn,
    Imp,
    Mem,
    Not,
    Or,
    print_formula,
)
from forcinglab.names import Name, check_name, condition_codes, generic_name
from forcinglab.poset import is_dense, is_separative, separative_quotient
from forcinglab.ramsey import (
    ClopenPredicate,
    FinFamily,
    LevelColoring,
    LevelTree,
    check_hl_witness,
    clopen_formula,
    gnw_construct,
    gnw_dichotomy_search,
    gnw_verify_horn,
    hl_search,
    mathias_pure_decide,
)
from forcinglab.zoo import (
    dyadic_measure,
    marker_append_complement,
    marker_decode,
    marker_dense_family,
    marker_in_range,
    mathias_decode,
    mathias_id,
    mathias_pure_extension,
)

pytestmark = pytest.mark.acceptance


def test_criterion_1_soundness_oracle(corpus_posets, corpus_formulas):
    disagreements = 0
    checked = 0
    for P in corpus_posets:
        env = canonical_env(P)
        ctx = context_for(P)
        for f in corpus_formulas:
            if not quantifier_bounds_small(f, env):
                continue
            checked += 1
            if ctx.forces_set(f, env) != ctx.oracle_condition_set(f, env):
                disagreements += 1
    assert checked > 5_000_000
    assert disagreements == 0
    print(f"\ncriterion 1: PASS (soundness oracle, {checked} comparisons, 0 disagreements)")


def test_criterion_2_axiomatic_properties(corpus_posets, corpus_formulas):
    pool = hf_universe(4)
    failures = 0
    for P in corpus_posets:
        env = canonical_env(P)
        ctx = context_for(P)
        full = P.full_mask
        # constant-name atomics decide by plain truth, at every condition
        for x in pool:
            cx = check_name(x, P)
            for y in pool:
                cy = check_name(y, P)
                assert ctx.mem_set(cx, cy) == (full if x in y else 0)
                assert ctx.eq_set(cx, cy) == (full if x == y else 0)
        # membership of a coded condition in the generic filter
        codes = condition_codes(P)
        g = env["gen"]
        compat = compat_rows_reference(P)
        separative = is_separative(P)
        for q in P.ids:
            mask = ctx.mem_set(check_name(codes[q], P), g)
            cq = compat[P.index[q]]
            expected = 0
            for i in range(len(P)):
                if compat[i] & ~cq == 0:
                    expected |= 1 << i
            assert mask == expected
            if separative:
                assert mask == P.down_mask(q)
        # every name gets decided below every condition, verifiably
        small = len(P) <= 64
        for key in ("e", "one", "two", "y", "w") + (("gen",) if small else ()):
            for p in P.ids:
                assert decide_name_value(P, p, env[key])
        # the negation clause as a biconditional
        slice2 = corpus_formulas[: 72 + 2000]
        for f in slice2:
            mask = ctx.forces_set(f, env)
            neg = ctx.forces_set(Not(f), env)
            for i in range(len(P)):
                assert bool(neg >> i & 1) == (P.down_masks()[i] & mask == 0)
        # constant-bound universals follow from their instances
        body_pool = [
            Mem("v", "two"), Eq("v", "e"), Mem("v", "gen"), Mem("e", "v"),
            Not(Eq("v", "one")), Or(Eq("v", "e"), Mem("v", "two")),
        ]
        constants = (
            ("e", frozenset()),
            ("one", frozenset([frozenset()])),
            ("two", frozenset([frozenset(), frozenset([frozenset()])])),
        )
        for xkey, hf in constants:
            for body in body_pool:
                lhs = full
                for y in hf:
                    lhs &= ctx.forces_set(body, env, {"v": check_name(y, P)})
                rhs = ctx.forces_set(ForallIn("v", xkey, body), env)
                if lhs & ~rhs:
                    failures += 1
        # true bounded sentences over constant names are forced outright
        checkish = {"e": frozenset(), "one": frozenset([frozenset()]),
                    "two": frozenset([frozenset(), frozenset([frozenset()])])}
        for f in corpus_formulas[:4000]:
            if not _names_within(f, set(checkish)):
                continue
            if _hf_eval(f, checkish, {}):
                assert ctx.forces_set(f, env) == full
    assert failures == 0
    print("\ncriterion 2: PASS (constant-name atomics, generic membership, decisions, negation, bounded sentences)")


def _names_within(f, allowed):
    if isinstance(f, (Mem, Eq)):
        return all(isinstance(t, str) and (t in allowed or t == "v") for t in (f.left, f.right))
    if isinstance(f, Not):
        return _names_within(f.sub, allowed)
    if isinstance(f, (And, Or, Imp)):
        return _names_within(f.left, allowed) and _names_within(f.right, allowed)
    return (
        isinstance(f.bound, str)
        and (f.bound in allowed or f.bound == "v")
        and _names_within(f.body, allowed | {f.var})
    )


def _hf_eval(f, env, binds):
    # independent direct evaluator over hereditarily finite values
    def term(t):
        return binds[t] if t in binds else env[t]

    if isinstance(f, Mem):
        return term(f.left) in term(f.right)
    if isinstance(f, Eq):
        return term(f.left) == term(f.right)
    if isinstance(f, Not):
        return not _hf_eval(f.sub, env, binds)
    if isinstance(f, And):
        return _hf_eval(f.left, env, binds) and _hf_eval(f.right, env, binds)
    if isinstance(f, Or):
        return _hf_eval(f.left, env, binds) or _hf_eval(f.right, env, binds)
    if isinstance(f, Imp):
        return (not _hf_eval(f.left, env, binds)) or _hf_eval(f.right, env, binds)
    values = term(f.bound)
    if isinstance(f, ForallIn):
        return all(_hf_eval(f.body, env, {**binds, f.var: v}) for v in values)
    return any(_hf_eval(f.body, env, {**binds, f.var: v}) for v in values)


def test_criterion_3_boolean_completion(corpus_posets, cohen11):
    assert len(boolean_completion(cohen11[0]).elements) == 4
    from forcinglab.poset import Poset

    chain = Poset("chain3", ["a", "b", "t"], "t", [("b", "a"), ("a", "t")])
    assert len(boolean_completion(chain).elements) == 2

    law_pairs = 0
    for P in corpus_posets:
        A = boolean_completion(P)
        if A.elements is not None:
            family = A.elements
        else:
            family = []
            for p in P.ids[:64]:
                e = A.embedding(p)
                family.append(e)
                family.append(A.complement(e))
            family.extend((A.zero, A.one))
            family = tuple(dict.fromkeys(family))
        for u in family:
            assert A.ro(u) == u
            assert u & A.perp(u) == 0
        for a, b in itertools.product(family, repeat=2):
            law_pairs += 1
            assert A.perp(a & b) == A.join(A.perp(a), A.perp(b))
            assert A.perp(A.join(a, b)) == A.perp(a) & A.perp(b)
            assert A.join(a, a & b) == a and a & A.join(a, b) == a

        ctx = context_for(P)
        env = canonical_env(P)
        # connective identities on truth values
        sample = [
            Mem("e", "two"), Eq("y", "e"), Mem("y", "w"), Mem("e", "gen"),
            Not(Mem("y", "w")), And(Mem("e", "two"), Eq("y", "e")),
        ]
        for phi in sample:
            tphi = A.ro(ctx.forces_set(phi, env))
            assert A.ro(ctx.forces_set(Not(phi), env)) == A.complement(tphi)
            for psi in sample:
                tpsi = A.ro(ctx.forces_set(psi, env))
                assert A.ro(ctx.forces_set(And(phi, psi), env)) == A.meet(tphi, tpsi)
                assert A.ro(ctx.forces_set(Or(phi, psi), env)) == A.join(tphi, tpsi)
        # bounded quantifier identities over the entries of the bound
        for wkey in ("two", "y", "w"):
            wname = env[wkey]
            for body in (Mem("v", "w"), Eq("v", "e"), Mem("v", "gen")):
                tv_all = A.ro(ctx.forces_set(ForallIn("v", wkey, body), env))
                tv_any = A.ro(ctx.forces_set(ExistsIn("v", wkey, body), env))
                meet, join = A.one, A.zero
                for child, cond in sorted(wname.entries, key=lambda e: e[1]):
                    sub = A.ro(ctx.forces_set(body, env, {"v": child}))
                    meet = A.meet(meet, A.complement(A.meet(A.embedding(cond), A.complement(sub))))
                    join = A.join(join, A.meet(A.embedding(cond), sub))
                assert tv_all == meet
                assert tv_any == join
        # membership of coded conditions lands exactly on the embeddings
        codes = condition_codes(P)
        for q in P.ids:
            tv = A.ro(ctx.mem_set(check_name(codes[q], P), env["gen"]))
            assert tv == A.embedding(q)
    print(f"\ncriterion 3: PASS (regular-open laws on {law_pairs} pairs, truth-value identities, generic membership on embeddings)")


def test_criterion_4_gnw():
    rng = random.Random(48201)
    unverified = 0
    searched = constructed = 0
    for trial in range(500):
        n = rng.randint(4, 10)
        members = set()
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(1, min(4, n))
            members.add(frozenset(rng.sample(range(n), size)))
        F = FinFamily(n, frozenset(members))
        h = rng.randint(1, min(4, n))
        m = rng.randint(1, min(3, h))
        result = gnw_dichotomy_search(F, h, m)
        if result is not None:
            searched += 1
            if not gnw_verify_horn(F, result.H, m, result.horn):
                unverified += 1
        built = gnw_construct(F, m, h)
        if built.completed:
            constructed += 1
            if not gnw_verify_horn(F, built.H, m, built.horn):
                unverified += 1
    assert unverified == 0
    assert searched >= 400 and constructed >= 100
    print(f"\ncriterion 4: PASS ({searched} searches and {constructed} completed constructions verified)")


def _all_colorings(depth):
    T = LevelTree(depth)
    cells = [(n,) for l in range(depth + 1) for n in T.level(l)]
    for bits in range(1 << len(cells)):
        yield LevelColoring(1, depth, 2, {c: bits >> i & 1 for i, c in enumerate(cells)})


def test_criterion_5_halpern_lauchli():
    invalid = missing = 0
    count = 0
    for depth in (1, 2, 3):
        T = LevelTree(depth)
        for f in _all_colorings(depth):
            w = hl_search([T], f)
            count += 1
            if w is None:
                missing += 1
            elif not check_hl_witness([T], f, w):
                invalid += 1
            if depth <= 2 and (w is not None) != hl_witness_exists_bruteforce([T], f):
                invalid += 1
    # depth four: the full coloring space is astronomically large; seeded samples
    rng = random.Random(555)
    T4 = LevelTree(4)
    cells1 = [(n,) for l in range(5) for n in T4.level(l)]
    for _ in range(300):
        f = LevelColoring(1, 4, 2, {c: rng.randint(0, 1) for c in cells1})
        w = hl_search([T4], f)
        count += 1
        if w is None:
            missing += 1
        elif not check_hl_witness([T4], f, w):
            invalid += 1
    cells2 = [
        combo
        for l in range(5)
        for combo in itertools.product(T4.level(l), repeat=2)
    ]
    for _ in range(200):
        f = LevelColoring(2, 4, 2, {c: rng.randint(0, 1) for c in cells2})
        w = hl_search([T4, T4], f)
        count += 1
        if w is None:
            missing += 1
        elif not check_hl_witness([T4, T4], f, w):
            invalid += 1
    assert invalid == 0 and missing == 0
    print(f"\ncriterion 5: PASS ({count} colorings, all witnesses found and validated)")


def _clopen_predicates(universe, horizon, samples, seed):
    prefixes = [()]
    for r in range(1, horizon + 1):
        prefixes.extend(tuple(c) for c in itertools.combinations(range(universe), r))
    preds = [ClopenPredicate(horizon, frozenset())]
    preds.extend(ClopenPredicate(horizon, frozenset([p])) for p in prefixes)
    rng = random.Random(seed)
    for _ in range(samples):
        chosen = frozenset(p for p in prefixes if rng.random() < 0.25)
        preds.append(ClopenPredicate(horizon, chosen))
    return preds


def _confirm_decision(M, p, X):
    d = mathias_pure_decide(M, p, X)
    assert mathias_pure_extension(d.condition, p)
    phi, env = clopen_formula(M, X)
    verdict = decides(M, d.condition, phi, env)
    assert verdict == (FORCES if d.forces_membership else FORCES_NEGATION)
    stem, envl = mathias_decode(d.condition)
    floor = stem[-1] if stem else -1
    beyond = sorted(x for x in envl if x > floor)
    for r in range(len(beyond) + 1):
        for z in itertools.combinations(beyond, r):
            real = frozenset(stem) | frozenset(z)
            if real:
                assert X.member(real) == d.forces_membership


def test_criterion_6_pure_decision(mathias6):
    eligible = [
        c
        for c in mathias6.ids
        if len(mathias_decode(c)[1]) >= len(mathias_decode(c)[0]) + 3
    ]
    assert len(eligible) == 72
    preds = _clopen_predicates(6, 3, 120, 90125)
    for X in preds:
        for p in eligible:
            _confirm_decision(mathias6, p, X)
    # spot checks at the top of the allowed universe size
    M10 = zoo.mathias(10)
    rng = random.Random(424242)
    eligible10 = [
        c
        for c in M10.ids
        if len(mathias_decode(c)[1]) >= len(mathias_decode(c)[0]) + 3
    ]
    preds10 = _clopen_predicates(10, 3, 6, 31337)
    for _ in range(50):
        _confirm_decision(M10, rng.choice(eligible10), rng.choice(preds10))
    print(f"\ncriterion 6: PASS ({len(preds) * len(eligible)} exhaustive decisions at universe 6, 50 sampled at universe 10)")


def test_criterion_7_marker(marker4):
    P, _ = marker4
    fitting = 0
    for cid in P.ids:
        decoded = marker_decode(cid)
        if decoded is None:
            continue
        q = marker_append_complement(P, cid)
        if q is None:
            continue
        fitting += 1
        assert P.leq(q, cid)
    assert fitting == 104
    dense_pairs = 0
    for cid in P.ids:
        if marker_decode(cid) is None:
            continue
        i = 1
        while marker_in_range(P, cid, i):
            fam = marker_dense_family(P, cid, i)
            assert is_dense(P, fam.members)
            dense_pairs += 1
            i += 1
    assert dense_pairs > 0
    print(f"\ncriterion 7: PASS ({fitting} doubled-word extensions, {dense_pairs} dense families)")


def test_criterion_8_amoeba_divergence(dyadic2, amoeba2):
    p, q = "1100", "0110"
    assert dyadic_measure(p) == Fraction(1, 2)
    assert dyadic_measure(q) == Fraction(1, 2)
    from forcinglab.zoo import dyadic_id, dyadic_mask

    inter = dyadic_id(dyadic_mask(p) & dyadic_mask(q), 2)
    assert dyadic_measure(inter) == Fraction(1, 4)
    assert dyadic2.compatible(p, q)
    assert not amoeba2.compatible(p, q)
    assert not Fraction(1, 4) > Fraction(1, 4)
    print("\ncriterion 8: PASS (measure-1/4 overlap separates the two orders)")


def test_criterion_9_cli(tmp_path, capsys, corpus_posets):
    from forcinglab.cli import main
    from forcinglab.formats import parse_families, print_families
    from forcinglab.formulas import parse_formula

    data = Path(__file__).parent / "data" / "corpus"
    # parse/print round trips on the bundled files
    for fname in ("wheel.poset", "cluster.poset"):
        P = parse_poset((data / fname).read_text())
        assert print_poset(parse_poset(print_poset(P))) == print_poset(P)
    P = parse_poset((data / "wheel.poset").read_text())
    fams = parse_families((data / "wheel.poset.families").read_text(), P)
    assert parse_families(print_families(fams), P) == fams
    for line in (data / "demo.formulas").read_text().splitlines():
        assert print_formula(parse_formula(print_formula(parse_formula(line)))) == print_formula(
            parse_formula(line)
        )

    # the oracle subcommand agrees across the corpus posets
    check_formulas = [
        "(mem (check #{}) (check #{#{}}))",
        "(eq (check #{}) (check #{}))",
        "(not (mem (check #{#{}}) (check #{})))",
        "(forall v in (check #{#{} #{#{}}}) (mem v (check #{#{} #{#{}}})))",
        "(exists v in (check #{#{}}) (eq v (check #{})))",
        "(imp (mem (check #{}) (check #{})) (mem (check #{}) (check #{#{}})))",
    ]
    gen_formulas = [
        "(ingen (check #{}))",
        "(forall v in gen (ingen v))",
        "(not (forall v in gen (not (ingen v))))",
    ]
    ran = 0
    for idx, P in enumerate(corpus_posets):
        path = tmp_path / f"c{idx}.poset"
        path.write_text(print_poset(P))
        todo = list(check_formulas)
        if len(P) <= 64:
            todo += gen_formulas
        for text in todo:
            code = main(["oracle", "--poset", str(path), "--formula", text])
            capsys.readouterr()
            assert code == 0
            ran += 1
    # byte determinism of reports
    target = tmp_path / "det.poset"
    assert main(["mk", "collapse", "--x", "2", "--len", "2", "--out", str(target)]) == 0
    first = target.read_text()
    out1 = capsys.readouterr().out
    assert main(["mk", "collapse", "--x", "2", "--len", "2", "--out", str(target)]) == 0
    out2 = capsys.readouterr().out
    assert target.read_text() == first and out1 == out2
    print(f"\ncriterion 9: PASS (round trips, {ran} oracle agreements, deterministic reports)")
