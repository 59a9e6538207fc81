import gc
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
from forcinglab import forcing, zoo
from forcinglab.forcing import ForcingContext, context_for
from forcinglab.formulas import And, Check, Eq, ExistsIn, ForallIn, Imp, Mem, Not, Or
from forcinglab.names import condition_codes, constant_value, von_neumann
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
    from helpers import compat_rows_reference

    chain = Poset("chain3", ["a", "b", "t"], "t", [("b", "a"), ("a", "t")])
    g = generic_name(chain)
    codes = condition_codes(chain)
    compat = compat_rows_reference(chain)
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


def test_binds_names_are_validated(P, env):
    # a name passed in binds is checked like one in env, and a failed call
    # leaves no entry for a later env lookup of the same name to find
    bad = Name([(Name([(check_name(HF0, P), "0.0.1")]), "0.0.0")])
    ctx = ForcingContext(P)
    f = Eq("bad", "e")
    with pytest.raises(InputError):
        ctx.forces_set(f, {"e": env["e"]}, {"bad": bad})
    with pytest.raises(InputError):
        ctx.forces_set(f, {"e": env["e"], "bad": bad})
    with pytest.raises(InputError):
        ctx.oracle_mask(f, {"e": env["e"]}, {"bad": bad})


@pytest.mark.parametrize("quantifier", [ForallIn, ExistsIn])
@pytest.mark.parametrize("route", ["forces_set", "oracle_mask"])
def test_names_behind_an_empty_bound_are_validated(P, quantifier, route):
    # no entry of the bound ever reaches the body, yet the name is in the key
    bad = Name([(Name([(check_name(HF0, P), "0.0.1")]), "0.0.0")])
    f = quantifier("x", "e", Mem("bad", "x"))
    with pytest.raises(InputError):
        getattr(ForcingContext(P), route)(f, {"e": Name(), "bad": bad})


def test_names_are_validated_once_where_they_enter(P, env, monkeypatch):
    # the names the quantifiers bind lie inside w and are not validated; the
    # free names are, once each per context, whichever route asks
    calls = []
    validate_name = forcing.validate_name

    def counted(name, *args):
        calls.append(name)
        return validate_name(name, *args)

    monkeypatch.setattr(forcing, "validate_name", counted)
    ctx = ForcingContext(P)
    w = Name([(env["y"], "0.0.0"), (env["gen"], P.top)])
    names = {"w": w, "w2": w, "gen": env["gen"]}
    f = And(ForallIn("x", "w", ExistsIn("z", "x", Mem("z", "gen"))), Eq("w", "w2"))
    first = ctx.forces_set(f, names)
    assert sorted(calls, key=id) == sorted([w, env["gen"]], key=id)
    assert ctx.forces_set(f, names) == first
    assert ctx.spectrum.back(ctx.oracle_mask(f, names)) == first
    assert len(calls) == 2


def test_names_do_not_outlive_their_posets():
    tops = {f"life-top-{i}" for i in range(50)}
    f = Mem(Check(HF1), "gen")
    for top in sorted(tops):
        Q = Poset(top, ["a", "b", top], top, [("a", top), ("b", top)])
        env = {"gen": generic_name(Q)}
        assert forces_set(Q, f, env) == oracle_set(Q, f, env)
    del Q, env
    gc.collect()
    left = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, Name) and any(cond in tops for _, cond in obj.entries)
    ]
    assert len(left) == 0


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
    from helpers import ForcingReference, canonical_env

    for Q in small_corpus[:12]:
        env = canonical_env(Q)
        ctx = context_for(Q)
        ref = ForcingReference(Q)
        for f in corpus_formulas[:300]:
            mask = ctx.forces_set(f, env)
            deciding = mask | ref.avoid(mask)
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


def test_forcing_sets_are_regular_open(small_corpus, corpus_formulas):
    # truth_value returns the forcing set itself; the lemma that makes that
    # right, on the formula corpus over every small poset
    from helpers import canonical_env

    for Q in small_corpus:
        A = boolean_completion(Q)
        ctx = context_for(Q)
        env = canonical_env(Q)
        # one formula per truth value: the corpus takes few distinct values
        witness = {truth_value(A, f, env): f for f in corpus_formulas}
        for tv, f in witness.items():
            mask = ctx.forces_set(f, env)
            assert A.is_element(mask), (Q.name, f)
            assert tv == A.ro(mask), (Q.name, f)
        # and every subformula under every quantifier binding met on the way,
        # its value taken back to the conditions forcing it
        assert all(A.is_element(ctx.spectrum.back(V)) for V in set(ctx._forces.values())), Q.name


def test_context_is_freed_with_its_poset():
    P = Poset("owned", ["a", "b", "t"], "t", [("a", "t"), ("b", "t")])
    env = {"gen": generic_name(P)}
    assert forces_set(P, Mem(Check(HF0), "gen"), env) == {"a"}
    assert context_for(P) is context_for(P)
    ref = weakref.ref(P)
    del P, env
    gc.collect()
    assert ref() is None


def test_non_formula_is_an_input_error(P, env):
    ctx = context_for(P)
    for bad in ("e", Check(HF0), 42):
        with pytest.raises(InputError, match="not a formula node"):
            ctx.forces_set(bad, env)
        with pytest.raises(InputError, match="not a formula node"):
            ctx.oracle_mask(bad, env)


_DEEP_FORMULA_SCRIPT = """
import sys
from forcinglab import forces_set, generic_name, oracle_set, parse_formula, zoo
from forcinglab.forcing import context_for

P, _ = zoo.cohen(1, 1)
context_for(P)
f = parse_formula("(not " * 20000 + "(eq gen gen)" + ")" * 20000)
env = {"gen": generic_name(P)}
try:
    answers = forces_set(P, f, env), oracle_set(P, f, env)
except RecursionError:
    sys.exit(2)
assert answers == (frozenset(P.ids), frozenset(P.ids)), answers
"""


def test_a_deep_formula_does_not_crash_the_interpreter():
    # 20000 nested negations evaluated once a context exists; a crash of
    # the interpreter shows as a negative return code (the signal)
    src = str(Path(forcing.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_FORMULA_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode in (0, 2), (proc.returncode, proc.stderr[-2000:])


_HASH_ORDER_SCRIPT = """
from forcinglab import zoo
from forcinglab.forcing import context_for
from helpers import canonical_env, formula_corpus

P, _ = zoo.cohen(1, 2)
ctx = context_for(P)
env = canonical_env(P)
for f in formula_corpus():
    print(ctx.forces_set(f, env), ctx.oracle_condition_set(f, env))
"""


def test_answers_do_not_depend_on_hash_order():
    # name entries and the names inside a name are frozensets, so the loops
    # over them follow the hash seed; the answers must not
    src = str(Path(forcing.__file__).parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_ORDER_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] and outputs[0] == outputs[1]


def _reference_corpus(Q):
    """Check names of every set of rank below 4 and of the condition codes,
    gen, and mixed names holding constant subtrees under non-top
    conditions."""
    from helpers import canonical_env, hf_universe

    env = canonical_env(Q)
    top, q = Q.top, next((c for c in Q.ids if c != Q.top), Q.top)
    lifted = Name([(env["two"], top)])
    inner = Name([(env["e"], q), (env["two"], top)])
    pool = [check_name(x, Q) for x in hf_universe(4)]
    pool += [check_name(x, Q) for x in condition_codes(Q).values()]
    pool += [env["gen"], env["y"], env["w"], lifted]
    pool += [Name([(lifted, q), (env["one"], Q.ids[-1])]), Name([(inner, q), (lifted, top)])]
    return pool


def test_constant_shortcuts_match_the_recursion(small_corpus, cohen12, collapse22):
    # constant names are decided by value in both routes; the references
    # decide them by the plain recursion and the per-filter walk; on the two
    # bundled forcings an equality with gen ranges over more than eight names
    from helpers import ForcingReference, interpret_reference

    for Q in list(small_corpus) + [cohen12[0], collapse22[0]]:
        ctx = ForcingContext(Q)
        ref = ForcingReference(Q)
        pool = _reference_corpus(Q)
        values = []
        for fidx, members in enumerate(ctx.spectrum.filter_masks):
            memo = {}
            values.append([interpret_reference(n, members, Q.index, memo) for n in pool])
            assert [ctx.interp(n, fidx) for n in pool] == values[-1]
        for (i, x), (j, y) in itertools.product(enumerate(pool), repeat=2):
            assert ctx.mem_set(x, y) == ref.mem_set(x, y)
            assert ctx.eq_set(x, y) == ref.eq_set(x, y)
            env = {"a": x, "b": y}
            mem = sum(1 << f for f, v in enumerate(values) if v[i] in v[j])
            eq = sum(1 << f for f, v in enumerate(values) if v[i] == v[j])
            assert ctx.oracle_mask(Mem("a", "b"), env) == mem
            assert ctx.oracle_mask(Eq("a", "b"), env) == eq


# a stride through the formula corpus that meets its atoms, its depth-2
# formulas, their negations, and the depth-3 binaries and quantifiers
_CORPUS_STRIDE = 61


def test_forcing_sets_match_the_condition_mask_reference(
    small_corpus, cohen12, collapse22, mathias6, marker3, corpus_formulas
):
    # the evaluation over minimal filters, taken back to conditions, against
    # the forcing clauses over condition masks.  mathias(6) and marker(3)
    # are not separative; on them the plain recursion takes minutes over
    # the condition codes inside gen, so gen is left to criterion 1 there
    from helpers import ForcingReference, canonical_env

    for Q in list(small_corpus) + [cohen12[0], collapse22[0], mathias6, marker3[0]]:
        ctx = ForcingContext(Q)
        ref = ForcingReference(Q)
        env = canonical_env(Q)
        if Q in (mathias6, marker3[0]):
            del env["gen"]
        for f in corpus_formulas[::_CORPUS_STRIDE]:
            if set(f.free) <= env.keys():
                assert ctx.forces_set(f, env) == ref.forces_set(f, env), (Q.name, f)
        for x, y in itertools.product(env.values(), repeat=2):
            assert ctx.mem_set(x, y) == ref.mem_set(x, y), Q.name
            assert ctx.eq_set(x, y) == ref.eq_set(x, y), Q.name


def _mixed_names(P, rng):
    """The empty name and five names of two to four entries, each a small
    constant or a one-entry name below the entry's condition."""
    consts = [check_name(x, P) for x in (HF0, HF1, HF2)]
    names = {"e": consts[0]}
    for k in range(5):
        entries = []
        for _ in range(rng.randint(2, 4)):
            q = rng.choice(P.ids)
            r = rng.choice(P.ids_of(P.down_mask(q)))
            entries.append((rng.choice(consts + [Name([(rng.choice(consts), r)])]), q))
        names[f"m{k}"] = Name(entries)
    return names


def _random_formula(rng, terms, depth):
    if depth == 0:
        return rng.choice((Mem, Eq))(rng.choice(terms), rng.choice(terms))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_formula(rng, terms, depth - 1))
    if kind < 4:
        left, right = _random_formula(rng, terms, depth - 1), _random_formula(rng, terms, depth - 1)
        return (And, Or, Imp)[kind - 1](left, right)
    var = f"v{depth}"
    body = _random_formula(rng, terms + (var,), depth - 1)
    return rng.choice((ForallIn, ExistsIn))(var, rng.choice(terms), body)


def test_wide_forcing_sets_match_the_condition_mask_reference():
    # criterion 1 stops near 500 conditions; these take 729 and 1365
    from helpers import ForcingReference

    for P in (zoo.cohen(2, 3)[0], zoo.collapse(4, 5)[0]):
        rng = random.Random(16)
        env = _mixed_names(P, rng)
        ctx = ForcingContext(P)
        ref = ForcingReference(P)
        masks = set()
        for _ in range(30):
            f = _random_formula(rng, tuple(env), 3)
            mask = ctx.forces_set(f, env)
            assert mask == ref.forces_set(f, env), (P.name, f)
            masks.add(mask)
        # the sweep reaches more than the empty and the full set
        assert len(masks - {0, P.full_mask}) >= 10, P.name


def test_decides_and_decide_name_value_match_the_condition_sets(small_corpus, cohen12, corpus_formulas):
    # both read the filter mask directly; the three-way answer and the
    # decided values are held to the condition sets
    from helpers import canonical_env

    for Q in list(small_corpus) + [cohen12[0]]:
        ctx = context_for(Q)
        env = canonical_env(Q)
        down = Q.down_masks()
        for f in corpus_formulas[::_CORPUS_STRIDE]:
            S = ctx.forces_set(f, env)
            for i, p in enumerate(Q.ids):
                expected = FORCES if S >> i & 1 else UNDECIDED if down[i] & S else FORCES_NEGATION
                assert decides(Q, p, f, env) == expected, (Q.name, p, f)
        for y in env.values():
            for p in Q.ids:
                out = decide_name_value(Q, p, y)
                assert [w for w, _ in out] == [w for w, _ in Q.minimal_filters() if Q.leq(w, p)]
                for w, z in out:
                    assert ctx.eq_set(y, check_name(z, Q)) >> Q.index[w] & 1, (Q.name, p, w)


def test_constant_values_are_built_once_per_context(P):
    ctx = ForcingContext(P)
    assert len(P.minimal_filters()) >= 2
    two = check_name(HF2, P)
    assert ctx.interp(two, 0) is ctx.interp(two, 1)
    gen = generic_name(P)
    for fidx in range(len(P.minimal_filters())):
        ctx.interp(gen, fidx)
        assert gen in ctx._interp[fidx]
    assert all(constant_value(n, P) is None for table in ctx._interp for n in table)
    # two constants are decided by value, with no equality recursion
    assert ctx.mem_set(check_name(HF1, P), two) == P.full_mask
    assert ctx.eq_set(check_name(HF1, P), two) == 0
    assert ctx._mem.keys() == {(check_name(HF1, P), two)}
    assert len(ctx._eq) == 2


def test_check_names_keep_their_value_by_reference():
    # a check name's constant value is the set it was built from, so the
    # naturals that gen codes are the von Neumann objects, not copies; the
    # top is unique, so no check name built elsewhere from an equal set is
    # shared with this poset
    top = "by-reference-top"
    ids = [f"c{i}" for i in range(12)]
    Q = Poset("by-reference", ids + [top], top, [(c, top) for c in ids])
    ctx = ForcingContext(Q)
    ctx.constant(generic_name(Q))
    naturals = [von_neumann(i) for i in range(len(Q))]
    values = [v for v in ctx._constants.values() if v is not None]
    assert len(values) == len(naturals)
    assert {id(v) for v in values} == {id(x) for x in naturals}
    for x in naturals:
        assert ctx.constant(check_name(x, Q)) is x
    # built under another top, its entries carry a non-greatest condition here
    other = Poset("other-top", ["a", "u"], "u", [("a", "u")])
    assert ForcingContext(other).constant(check_name(HF1, Q)) is None
    assert ForcingContext(other).constant(check_name(HF0, Q)) == HF0


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


def _cohen12_pool(P):
    """Names over cohen(1,2): constants, the generic name, and names hung on
    single conditions, so that forcing sets differ between bindings."""
    codes = condition_codes(P)
    pool = [check_name(x, P) for x in (HF0, HF1, HF2)]
    pool.append(generic_name(P))
    pool.extend(check_name(codes[q], P) for q in P.ids[:4])
    pool.extend(Name([(pool[k % 3], q)]) for k, q in enumerate(P.ids[:4]))
    return pool


_THREAD_FORMULAS = (
    Mem("a", "b"),
    Eq("a", "b"),
    Not(Mem("a", "b")),
    ExistsIn("v", "b", Eq("v", "a")),
    ForallIn("v", "a", Mem("v", "b")),
)


def test_shared_context_across_threads(cohen12):
    P = cohen12[0]
    pool = _cohen12_pool(P)
    rng = random.Random(6)
    workers, per_worker = 8, 500
    trials = [
        (_THREAD_FORMULAS[rng.randrange(len(_THREAD_FORMULAS))], rng.choice(pool), rng.choice(pool))
        for _ in range(workers * per_worker)
    ]

    def answer(ctx, f, a, b):
        # every trial brings its own environment object
        env = {"a": a, "b": b}
        return ctx.forces_set(f, env), ctx.oracle_condition_set(f, env)

    single = ForcingContext(P)
    expected = [answer(single, *trial) for trial in trials]
    shared = ForcingContext(P)
    start = threading.Barrier(workers)
    wrong = [0] * workers
    done = [0] * workers

    def work(w):
        start.wait()
        for t in range(w, len(trials), workers):
            wrong[w] += answer(shared, *trials[t]) != expected[t]
            done[w] += 1

    def give_up_the_lock(frame, event, arg):
        # switch threads after every C call, far more often than the
        # switch interval alone would
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
    assert done == [per_worker] * workers
    assert sum(wrong) == 0, f"{sum(wrong)} of {len(trials)} trials got another environment's answer"


def test_equal_environments_share_memo_entries(cohen12):
    P = cohen12[0]
    ctx = ForcingContext(P)
    f = ForallIn("v", "gen", ExistsIn("u", "gen", Eq("u", "v")))
    first = ctx.forces_set(f, {"gen": generic_name(P)})
    size = len(ctx._forces)
    for _ in range(1000):
        assert ctx.forces_set(f, {"gen": generic_name(P)}) == first
    assert len(ctx._forces) == size


def test_mutated_environment_gets_fresh_answer(P, env):
    ctx = ForcingContext(P)
    f = Mem("a", "gen")
    e = {"a": env["zq"], "gen": env["gen"]}
    before = ctx.forces_set(f, e), ctx.oracle_condition_set(f, e)
    e["a"] = env["e"]
    after = ctx.forces_set(f, e), ctx.oracle_condition_set(f, e)
    fresh = ForcingContext(P)
    assert after == (fresh.forces_set(f, e), fresh.oracle_condition_set(f, e))
    assert after != before


def test_bound_variable_shadows_environment(P, env):
    f = ExistsIn("a", "gen", Eq("a", "zq"))
    shadowed = {**env, "a": env["e"]}
    assert forces_set(P, f, shadowed) == forces_set(P, f, env) != frozenset()
    assert oracle_set(P, f, shadowed) == oracle_set(P, f, env)


@pytest.mark.parametrize("bound", ["e", "two"])
def test_unbound_symbol_raises_whatever_the_quantifier_reaches(P, env, bound):
    # with bound "e" the quantifier has no entry, so the body is never evaluated
    f = ForallIn("x", "a", Mem("y", "b"))
    e = {"a": env[bound], "b": env["gen"]}
    with pytest.raises(InputError, match="unbound symbol 'y'"):
        forces_set(P, f, e)
    with pytest.raises(InputError, match="unbound symbol 'y'"):
        oracle_set(P, f, e)
