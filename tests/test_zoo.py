import itertools
from fractions import Fraction

import pytest

from forcinglab import InputError, SizeCapError, is_dense, separative_quotient
from forcinglab import zoo
from forcinglab.poset import Poset
from forcinglab.zoo import (
    dyadic_intervals,
    dyadic_measure,
    marker_append_complement,
    marker_complement,
    marker_decode,
    marker_dense_family,
    marker_in_range,
    marker_translate,
    mathias_decode,
    mathias_id,
    mathias_pure_extension,
)
from helpers import (
    cohen_leq_reference,
    collapse_leq_reference,
    dyadic_leq_reference,
    mathias_leq_reference,
)


def test_cohen_counts(cohen11, cohen12):
    assert len(cohen11[0]) == 3
    assert len(cohen12[0]) == 9


def test_cohen_dense_families(cohen12):
    P, families = cohen12
    assert set(families) == {"d0.0", "d0.1"}
    for fam in families.values():
        assert fam.kind == "dense"


def test_cohen_row_disagreement_family():
    P, families = zoo.cohen(2, 1)
    assert "diff0.1" in families
    members = families["diff0.1"].members
    assert all("0.0." in c and "1.0." in c for c in members)


def test_dyadic_counts_and_measures(dyadic2):
    assert len(zoo.dyadic_random(1)) == 3
    assert len(dyadic2) == 15
    assert dyadic_measure(dyadic2.top) == 1
    assert dyadic_measure("1100") == Fraction(1, 2)
    assert dyadic_intervals("1100") == ((Fraction(0), Fraction(1, 2)),)
    assert dyadic_intervals("0110") == ((Fraction(1, 4), Fraction(3, 4)),)


def test_dyadic_compatible_iff_overlap(dyadic2):
    from forcinglab.zoo import dyadic_mask

    for p in dyadic2.ids:
        for q in dyadic2.ids:
            overlap = dyadic_mask(p) & dyadic_mask(q) != 0
            assert overlap == dyadic2.compatible(p, q)


def test_amoeba_divergence(dyadic2, amoeba2):
    p, q = "1100", "0110"
    assert dyadic2.compatible(p, q)
    assert not amoeba2.compatible(p, q)
    inter = Fraction(1, 4)
    assert dyadic_measure("0100") == inter  # the overlap atom
    # orders agree on shared pairs
    for a in amoeba2.ids:
        for b in amoeba2.ids:
            assert amoeba2.leq(a, b) == dyadic2.leq(a, b)


def test_amoeba_single_condition():
    A = zoo.amoeba(1, Fraction(1, 2))
    assert len(A) == 1
    assert A.top == "11"


def test_amoeba_eps_validation():
    with pytest.raises(InputError):
        zoo.amoeba(2, Fraction(3, 2))
    with pytest.raises(InputError):
        zoo.amoeba(2, Fraction(0))


def test_collapse_counts_and_families(collapse22):
    P, families = collapse22
    assert len(zoo.collapse(1, 1)[0]) == 2
    assert len(P) == 7
    # a fully grown sequence missing x blocks density for x_size > 1
    assert families["hit0"].kind == "unrestricted"
    P1, fam1 = zoo.collapse(1, 3)
    assert fam1["hit0"].kind == "dense"
    assert is_dense(P1, fam1["hit0"].members)


def test_collapse_order_is_end_extension(collapse22):
    P, _ = collapse22
    assert P.leq("0.1", "0")
    assert not P.leq("0.1", "1")
    assert not P.leq("0", "0.1")


def test_mathias_count_and_order(mathias6):
    assert len(mathias6) == 255
    top = mathias_id((), range(6))
    assert mathias6.top == top
    assert mathias6.leq(mathias_id((0,), {0, 1}), mathias_id((), {0, 1}))
    # stems must grow out of the envelope
    assert not mathias6.leq(mathias_id((1,), {1, 2}), mathias_id((0,), {0, 1, 2}))


def test_mathias_pure_extension_examples():
    assert mathias_pure_extension("s:e0.2", "s:e0.1.2")
    assert not mathias_pure_extension("s0:e0.2", "s:e0.1.2")


def test_mathias_pure_extension_is_order(mathias6):
    ids = [c for c in mathias6.ids if len(mathias_decode(c)[1]) >= 4][:40]
    for q in ids:
        assert mathias_pure_extension(q, q)
        for p in ids:
            if mathias_pure_extension(q, p):
                assert mathias6.leq(q, p)
                for r in ids:
                    if mathias_pure_extension(r, q):
                        assert mathias_pure_extension(r, p)


def test_mathias_order_matches_closure():
    M = zoo.mathias(4)
    raw = Poset(
        "mathias-reclosed",
        M.ids,
        M.top,
        [(q, p) for q in M.ids for p in M.ids if M.leq(q, p)],
    )
    assert all(raw.down_mask(c) == M.down_mask(c) for c in M.ids)


@pytest.mark.parametrize(
    "build, leq_reference",
    [
        (lambda: zoo.cohen(2, 2)[0], cohen_leq_reference),
        (lambda: zoo.dyadic_random(2), dyadic_leq_reference),
        (lambda: zoo.amoeba(2, Fraction(1, 4)), dyadic_leq_reference),
        (lambda: zoo.collapse(3, 3)[0], collapse_leq_reference),
        (lambda: zoo.mathias(5), mathias_leq_reference),
    ],
    ids=["cohen.2.2", "dyadic.2", "amoeba.2.1-4", "collapse.3.3", "mathias.5"],
)
def test_order_is_the_definition(build, leq_reference):
    # the constructors pass only one-step extensions: their closure must be
    # the order each docstring defines, on every pair
    P = build()
    for q in P.ids:
        for p in P.ids:
            assert P.leq(q, p) == leq_reference(q, p), (q, p)


def test_marker_counts(marker3):
    P, families = marker3
    assert len(P) == 495
    assert all(f.kind == "dense" for f in families.values())


def test_marker_append_complement(marker3):
    P, _ = marker3
    q = marker_append_complement(P, "0:0")
    assert q == "0:01"
    assert P.leq(q, "0:0")
    assert marker_append_complement(P, "3:0") is None  # would leave the window
    q2 = marker_append_complement(P, "-1:10")
    assert q2 == "-1:1001"
    assert P.leq(q2, "-1:10")


def test_marker_order_shape(marker3):
    P, _ = marker3
    for q in P.ids[:80]:
        assert P.leq(q, "top")
        assert P.leq(q, q)
        dq = marker_decode(q)
        if dq is None:
            continue
        for p in P.ids_of(P.up_mask(q)):
            dp = marker_decode(p)
            if dp is None or p == q:
                continue
            qs, qb = dq
            ps, pb = dp
            # the weaker word's interval sits inside the stronger one's
            assert qs <= ps and ps + len(pb) <= qs + len(qb)


def test_marker_translate_and_complement(marker3):
    P, _ = marker3
    assert marker_complement("0:0110") == "0:1001"
    assert marker_complement(marker_complement("0:0110")) == "0:0110"
    assert marker_translate(P, "0:01", 2) == "2:01"
    assert marker_translate(P, marker_translate(P, "0:01", 2), -2) == "0:01"
    with pytest.raises(InputError):
        marker_translate(P, "2:01", 2)


def test_marker_tiling_matches_closure():
    P, _ = zoo.marker(2)
    raw = Poset(
        "marker-reclosed",
        P.ids,
        P.top,
        [(q, p) for q in P.ids for p in P.ids if P.leq(q, p)],
    )
    assert all(raw.down_mask(c) == P.down_mask(c) for c in P.ids)


def test_marker_dense_families(marker3):
    from helpers import perp_reference

    P, _ = marker3
    for cid in ("0:0", "-3:10", "1:1"):
        for i in (1, 2):
            if not marker_in_range(P, cid, i):
                continue
            fam = marker_dense_family(P, cid, i)
            assert is_dense(P, fam.members)
            # outside the word's down-set: exactly the conditions incompatible with it
            outside = P.mask_of(fam.members) & ~P.down_mask(cid)
            assert outside == perp_reference(P, 1 << P.index[cid])
    with pytest.raises(InputError):
        marker_dense_family(P, "3:0", 1)  # offset leaves the window


def test_marker_dense_family_without_letout_fails(marker3):
    # the saturating conditions are what the widened family repairs: the raw
    # one-sided pattern alone is not dense in the finite window
    from helpers import compat_rows_reference

    P, _ = marker3
    cid, i = "0:0", 1
    m = 0
    raw = set()
    compat = compat_rows_reference(P)
    pi = P.check_condition(cid)
    for j, qid in enumerate(P.ids):
        dq = marker_decode(qid)
        if not compat[j] & (1 << pi):
            raw.add(qid)
        elif dq is not None and P.leq(qid, cid):
            qstart, qbits = dq
            qend = qstart + len(qbits) - 1
            if qstart <= m + i <= qend and qbits[m + i - qstart] != qbits[m - qstart]:
                raw.add(qid)
    assert not is_dense(P, raw)


def test_separative_zoo(cohen12, collapse22):
    for P in (cohen12[0], collapse22[0]):
        _, _, was = separative_quotient(P)
        assert was


def test_caps_respected(monkeypatch):
    monkeypatch.setenv("FORCINGLAB_CAP", "100")
    with pytest.raises(SizeCapError):
        zoo.cohen(2, 3)
    with pytest.raises(SizeCapError):
        zoo.mathias(6)
    monkeypatch.setenv("FORCINGLAB_CAP", "not-a-number")
    with pytest.raises(InputError):
        zoo.cohen(1, 1)
