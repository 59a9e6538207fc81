import gc
import itertools
import weakref

import pytest

from forcinglab import (
    FORCES,
    FORCES_NEGATION,
    UNDECIDED,
    Filter,
    InputError,
    Name,
    boolean_completion,
    check_name,
    decide_name_value,
    decides,
    forces,
    forces_atomic,
    forces_set,
    generic_name,
    oracle_forces,
    oracle_set,
    soundness_disagreements,
    truth_value,
)
from forcinglab.forcing import context_for
from forcinglab.formulas import And, Check, Eq, ExistsIn, ForallIn, Imp, Mem, Not, Or
from forcinglab.names import condition_codes
from forcinglab.poset import Poset

HF0 = frozenset()
HF1 = frozenset([HF0])
HF2 = frozenset([HF0, HF1])


@pytest.fixture
def P(cohen11):
    return cohen11[0]


@pytest.fixture
def env(P):
    codes = condition_codes(P)
    e = check_name(HF0, P)
    return {
        "e": e,
        "one": check_name(HF1, P),
        "two": check_name(HF2, P),
        "gen": generic_name(P),
        "zq": check_name(codes["0.0.0"], P),
        "y": Name([(e, "0.0.0")]),
    }


def test_check_membership_matches_truth(P):
    # forced membership between constant names is plain membership
    pool = [HF0, HF1, HF2, frozenset([HF1])]
    for x in pool:
        for y in pool:
            for p in P.ids:
                assert forces_atomic(P, p, "mem", check_name(x, P), check_name(y, P)) == (x in y)
                assert forces_atomic(P, p, "eq", check_name(x, P), check_name(y, P)) == (x == y)


def test_filter_name_membership_simple_form(P):
    codes = condition_codes(P)
    g = generic_name(P)
    for p in P.ids:
        for q in P.ids:
            assert forces_atomic(P, p, "mem", check_name(codes[q], P), g) == P.leq(p, q)


def test_filter_name_membership_general_form():
    # on a non-separative order the compatibility form is the right one
    chain = Poset("chain3", ["a", "b", "t"], "t", [("b", "a"), ("a", "t")])
    g = generic_name(chain)
    codes = condition_codes(chain)
    compat = chain.compat_masks()
    for p in chain.ids:
        for q in chain.ids:
            expected = compat[chain.index[p]] & ~compat[chain.index[q]] == 0
            assert forces_atomic(chain, p, "mem", check_name(codes[q], P=chain), g) == expected
            assert expected != chain.leq(p, q) or expected  # simple form can differ


def test_mixed_name_forced_empty_when_incompatible(P, env):
    # a name hung on q looks empty from anything incompatible with q
    assert forces(P, "0.0.1", Eq("y", "e"), env)
    assert not forces(P, "0.0.0", Eq("y", "e"), env)
    assert forces(P, "0.0.0", Eq("y", "one"), env)


def test_forces_unvalidated_name_errors(P, env):
    bad = Name([(Name([(check_name(HF0, P), "0.0.1")]), "0.0.0")])
    with pytest.raises(InputError):
        forces(P, P.top, Eq("bad", "e"), {**env, "bad": bad})


def test_negation_clause(P, env):
    phi = Mem("zq", "gen")
    for p in P.ids:
        direct = forces(P, p, Not(phi), env)
        clause = not any(
            forces(P, q, phi, env) for q in P.ids_of(P.down_mask(p))
        )
        assert direct == clause


def test_decides_examples(P, env):
    phi = Mem("zq", "gen")
    assert decides(P, "-", phi, env) == UNDECIDED
    assert decides(P, "0.0.0", phi, env) == FORCES
    assert decides(P, "0.0.1", phi, env) == FORCES_NEGATION
    assert decides(P, "0.0.0", Eq("e", "e"), env) == FORCES


def test_minimal_conditions_decide_everything(P, corpus_formulas):
    from helpers import canonical_env

    cenv = canonical_env(P)
    mm = P.minimal_mask()
    minimal = [c for c in P.ids if mm >> P.index[c] & 1]
    for f in corpus_formulas[:400]:
        for m in minimal:
            assert decides(P, m, f, cenv) != UNDECIDED


def test_density_of_decision(small_corpus, corpus_formulas):
    from helpers import canonical_env

    for Q in small_corpus[:12]:
        env = canonical_env(Q)
        ctx = context_for(Q)
        for f in corpus_formulas[:300]:
            mask = ctx.forces_set(f, env)
            deciding = mask | ctx.avoid(mask)
            # every condition has an extension that decides
            assert all(Q.down_mask(p) & deciding for p in Q.ids)


def test_monotonicity(small_corpus, corpus_formulas):
    from helpers import canonical_env

    for Q in small_corpus[:12]:
        env = canonical_env(Q)
        ctx = context_for(Q)
        down = Q.down_masks()
        for f in corpus_formulas[:300]:
            mask = ctx.forces_set(f, env)
            m = mask
            while m:
                low = m & -m
                # everything below a forcing condition forces too
                assert down[low.bit_length() - 1] & ~mask == 0
                m ^= low


def test_forced_equality_is_equivalence(P, env):
    names = ["e", "one", "two", "y", "zq"]
    for p in P.ids:
        for a in names:
            assert forces(P, p, Eq(a, a), env)
        for a, b in itertools.product(names, repeat=2):
            assert forces(P, p, Eq(a, b), env) == forces(P, p, Eq(b, a), env)
        for a, b, c in itertools.product(names, repeat=3):
            if forces(P, p, Eq(a, b), env) and forces(P, p, Eq(b, c), env):
                assert forces(P, p, Eq(a, c), env)


def test_decide_name_value(P, env):
    out = decide_name_value(P, P.top, env["y"])
    assert dict(out) == {"0.0.0": HF1, "0.0.1": HF0}
    for q, z in decide_name_value(P, "0.0.0", env["two"]):
        assert z == HF2
        assert P.leq(q, "0.0.0")
    assert decide_name_value(P, P.top, env["e"]) != []


def test_truth_value_identities(P, env, dyadic2):
    A = boolean_completion(P)
    phi, psi = Mem("zq", "gen"), Eq("e", "one")
    assert truth_value(A, And(phi, Not(phi)), env) == A.zero
    assert truth_value(A, Not(phi), env) == A.complement(truth_value(A, phi, env))
    assert truth_value(A, And(phi, psi), env) == A.meet(
        truth_value(A, phi, env), truth_value(A, psi, env)
    )
    assert truth_value(A, Or(phi, psi), env) == A.join(
        truth_value(A, phi, env), truth_value(A, psi, env)
    )
    # membership of a coded condition in the generic filter lands on the embedding
    for Q in (P, dyadic2):
        AQ = boolean_completion(Q)
        codes = condition_codes(Q)
        genv = {"gen": generic_name(Q)}
        for q in Q.ids:
            genv[f"c{q}"] = check_name(codes[q], Q)
        for q in Q.ids:
            assert truth_value(AQ, Mem(f"c{q}", "gen"), genv) == AQ.embedding(q)


def test_truth_value_versus_forcing(P, env):
    A = boolean_completion(P)
    phi = Mem("zq", "gen")
    tv = truth_value(A, phi, env)
    for p in P.ids:
        assert forces(P, p, phi, env) == A.leq(A.embedding(p), tv)


def test_context_is_freed_with_its_poset():
    P = Poset("owned", ["a", "b", "t"], "t", [("a", "t"), ("b", "t")])
    env = {"gen": generic_name(P)}
    assert forces_set(P, Mem(Check(HF0), "gen"), env) == {"a"}
    assert context_for(P) is context_for(P)
    ref = weakref.ref(P)
    del P, env
    gc.collect()
    assert ref() is None


def test_oracle_smoke(P, env):
    fs = [
        Mem("e", "one"),
        Eq("e", "one"),
        Mem("zq", "gen"),
        Not(Mem("zq", "gen")),
        Or(Mem("zq", "gen"), Not(Mem("zq", "gen"))),
        Imp(Mem("zq", "gen"), Mem("zq", "gen")),
        ForallIn("v", "two", Mem("v", "two")),
        ExistsIn("v", "gen", Eq("v", "zq")),
        ForallIn("v", "gen", ExistsIn("u", "gen", Eq("u", "v"))),
    ]
    assert soundness_disagreements(P, fs, env) == []
    assert oracle_forces(P, "0.0.0", Mem("zq", "gen"), env)
    assert oracle_set(P, Mem("zq", "gen"), env) == forces_set(P, Mem("zq", "gen"), env)
