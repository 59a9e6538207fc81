import copy
import pickle
import sys
import threading
import time
import weakref

import pytest
from helpers import (
    formula_from_sexpr_reference,
    free_reference,
    print_formula_reference,
    print_hf_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from forcinglab import InputError, formulas, parse_formula, print_formula
from forcinglab.formulas import (
    And,
    Check,
    Eq,
    ExistsIn,
    ForallIn,
    Imp,
    Mem,
    Not,
    Or,
    formula_from_sexpr,
    unbound_symbols,
)
from forcinglab.sexpr import print_hf, read_one


def test_parse_atoms():
    f = parse_formula("(mem (check #{}) gen)")
    assert f == Mem(Check(frozenset()), "gen")
    assert parse_formula("(eq a b)") == Eq("a", "b")


def test_parse_quantifier():
    f = parse_formula("(forall v in xdot (not (eq v v)))")
    assert f == ForallIn("v", "xdot", Not(Eq("v", "v")))


def test_ingen_sugar():
    assert parse_formula("(ingen t)") == Mem("t", "gen")


def test_unbound_variable_reported():
    f = parse_formula("(mem v gen)")
    assert unbound_symbols(f, {"gen"}) == ["v"]


def test_unbound_listed_exhaustively():
    f = parse_formula("(and (mem a b) (eq c d))")
    assert unbound_symbols(f, {"b"}) == ["a", "c", "d"]


def test_bound_variable_is_not_reported():
    f = parse_formula("(exists v in w (mem v w))")
    assert unbound_symbols(f, {"w"}) == []


def test_parse_errors_have_positions():
    with pytest.raises(InputError) as err:
        parse_formula("(mem a")
    assert "1:1" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_formula("(bogus a b)")
    assert "unknown form" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_formula("(forall v xdot f)")
    assert "forall" in str(err.value)


def test_roundtrip_canonical():
    texts = [
        "(mem (check #{}) gen)",
        "(eq a b)",
        "(not (and (mem a b) (or (eq a a) (imp (mem b b) (eq b a)))))",
        "(forall v in xdot (exists u in v (mem u xdot)))",
        "(mem (check #{#{} #{#{}}}) ydot)",
    ]
    for text in texts:
        f = parse_formula(text)
        assert print_formula(f) == text
        assert parse_formula(print_formula(f)) == f


def test_hf_literal_parse_and_print():
    node = read_one("#{#{} #{#{}}}")
    assert node.value == frozenset([frozenset(), frozenset([frozenset()])])
    assert print_hf(node.value) == "#{#{} #{#{}}}"


def test_comments_and_whitespace():
    f = parse_formula("; leading comment\n (eq  a\n b) ; trailing")
    assert f == Eq("a", "b")


def test_structural_equality_ignores_spans():
    f1 = parse_formula("(eq a b)")
    f2 = parse_formula("  (eq a b)")
    assert f1 is f2
    assert Or(Not(f1), Eq("a", "b")) is parse_formula("(or (not (eq a b)) (eq a b))")
    assert Mem("a", "b") is not Eq("a", "b")


def test_nodes_are_immutable_and_copy_to_themselves():
    f = parse_formula("(forall v in w (and (mem v w) (ingen (check #{#{}}))))")
    with pytest.raises(AttributeError):
        f.var = "u"
    with pytest.raises(AttributeError):
        del f.body
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert repr(f) == print_formula(f)


def test_non_formula_children_are_rejected():
    with pytest.raises(InputError, match="not a formula node: 'x'"):
        Not("x")
    with pytest.raises(InputError, match="not a formula node"):
        And(Eq("a", "b"), Check(frozenset()))
    with pytest.raises(InputError, match="not a formula node"):
        print_formula("(eq a b)")


SEP = st.sampled_from([" ", "  ", "\n", "\t", " ; c\n "])
IDENTS = st.sampled_from(["a", "b", "gen", "v", "x.1", "a", "v", "é", "a/b", "in"])
HF_TEXT = st.recursive(
    st.just(frozenset()), lambda sets: st.frozensets(sets, max_size=3), max_leaves=5
).map(print_hf_reference)
TERMS = st.one_of(
    IDENTS,
    HF_TEXT.map("(check {})".format),
    st.sampled_from(["#{}", "()", "(check a)", "(check #{} #{})"]),
)
HEADS = st.sampled_from(
    ["mem", "eq", "ingen", "not", "and", "or", "imp", "forall", "exists", "check", "bogus", "#{}", "(not a)"]
)


def _form(*parts):
    """Text of a form of the given parts, each followed by a separator."""
    return st.tuples(*parts, *[SEP] * len(parts)).map(
        lambda t: "(" + "".join(p + s for p, s in zip(t[: len(parts)], t[len(parts) :])) + ")"
    )


FORMULA_TEXTS = st.recursive(
    st.one_of(
        _form(st.sampled_from(["mem", "eq"]), TERMS, TERMS),
        _form(st.just("ingen"), TERMS),
        TERMS,
    ),
    lambda sub: st.one_of(
        _form(st.just("not"), sub),
        _form(st.sampled_from(["and", "or", "imp"]), sub, sub),
        _form(st.sampled_from(["forall", "exists"]), TERMS, st.sampled_from(["in", "in", "on", "#{}"]), TERMS, sub),
        # any head, any arity: unknown heads, headless and empty forms
        st.tuples(HEADS, st.lists(st.one_of(sub, TERMS), max_size=4)).map(
            lambda t: "(" + " ".join([t[0], *t[1]]) + ")"
        ),
    ),
    max_leaves=10,
)


def _outcome(build, text):
    try:
        return "ok", build(read_one(text))
    except InputError as exc:
        return "error", str(exc)


@settings(max_examples=1500, deadline=None)
@given(FORMULA_TEXTS)
def test_parser_matches_reference(text):
    # the same printed text and free variables, or the same first error at
    # the same line:col
    def new(node):
        f = formula_from_sexpr(node)
        return print_formula(f), list(f.free)

    def reference(node):
        f = formula_from_sexpr_reference(node)
        return print_formula_reference(f), sorted(free_reference(f))

    assert _outcome(new, text) == _outcome(reference, text)


def test_deep_nesting_is_not_bounded_by_the_recursion_limit():
    depth = max(100000, 2 * sys.getrecursionlimit())
    text = "(not " * depth + "(exists v in w (mem v x))" + ")" * depth
    f = parse_formula(text)
    assert f.free == ("w", "x")
    assert print_formula(f) == text
    assert parse_formula(text) is f


def test_deep_hf_literal_prints():
    literal = "#{" * 3000 + "}" * 3000
    text = f"(mem (check {literal}) gen)"
    assert print_formula(parse_formula(text)) == text
    assert print_hf(read_one(literal).value) == literal


def test_a_dropped_formula_dies():
    texts = ["(and (mem dropped1 dropped2) (not (eq dropped2 dropped1)))"]
    texts.append(texts[0].replace(" ", "  "))
    f = parse_formula(texts[0])
    assert parse_formula(texts[1]) is f
    refs = [weakref.ref(f), weakref.ref(f.left), weakref.ref(f.right.sub)]
    del f
    assert [r() for r in refs] == [None, None, None]
    # and the intern and text tables let go of their entries
    assert not [key for key in list(formulas._NODES.data) if "dropped1" in key]
    assert not [text for text in texts if text in formulas._TEXTS]


def test_threads_building_one_formula_get_one_object():
    # each formula under two spellings, read in both orders, so threads race
    # on one text's entry and on one formula's nodes
    texts = [f"(or (mem t{i} u{i}) (not (forall v in t{i} (eq v u{i}))))" for i in range(150)]
    texts = [spelling for t in texts for spelling in (t, t.replace(" ", "  "))]
    workers = 8
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(w):
        start.wait()
        order = texts if w % 2 else texts[::-1]
        got = {text: parse_formula(text) for text in order}
        results[w] = [got[text] for text in texts]

    def give_up_the_lock(frame, event, arg):
        # switch threads after every C call, so two threads race to build
        # the same node or store the same text
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
    groups = [{id(r[j]) for r in results for j in (i, i + 1)} for i in range(0, len(texts), 2)]
    split = [texts[2 * g] for g, ids in enumerate(groups) if len(ids) != 1]
    assert split == [], f"{len(split)} of {len(groups)} formulas came out as two or more objects"
    assert all(formulas._TEXTS[text] is results[0][i] for i, text in enumerate(texts))


def test_a_repeated_text_is_read_once(monkeypatch):
    text = "(exists v in gen (and (mem v reread) (not (eq v (check #{#{}})))))"
    f = parse_formula(text)
    assert formulas._TEXTS[text] is f
    reads = []
    monkeypatch.setattr(formulas, "read_one", lambda t: reads.append(t) or read_one(t))
    assert parse_formula(text) is f
    assert reads == []
    # another spelling of the same formula is read, and gives the same object
    assert parse_formula(text.replace(" ", "  ")) is f
    assert len(reads) == 1


@settings(max_examples=1000, deadline=None)
@given(FORMULA_TEXTS)
def test_parse_formula_is_the_reader_and_builder(text):
    # the table returns what reading would build, and fails as reading would
    def parsed():
        try:
            return "ok", parse_formula(text)
        except InputError as exc:
            return "error", str(exc)

    first = parsed()
    assert first == _outcome(formula_from_sexpr, text)
    if first[0] == "ok":
        assert first[1] is formula_from_sexpr(read_one(text))
        assert formulas._TEXTS[text] is first[1]
    else:
        assert text not in formulas._TEXTS
    assert parsed() == first


@pytest.mark.parametrize(
    "text",
    ["(mem a)", "(forall v on w (mem v w))", "(and (mem a b) (not (eq a", "(bogus)", "(mem a b) (eq a b)"],
)
def test_a_bad_text_raises_the_same_message_every_time(text):
    with pytest.raises(InputError) as first:
        parse_formula(text)
    assert text not in formulas._TEXTS
    with pytest.raises(InputError) as second:
        parse_formula(text)
    assert str(second.value) == str(first.value)
