import itertools

from forcinglab import Poset, boolean_completion, separative_quotient


def test_one_element_poset_two_element_algebra():
    P = Poset("one", ["t"], "t", [])
    A = boolean_completion(P)
    assert A.elements == (0, A.one)


def test_cohen11_four_elements(cohen11):
    A = boolean_completion(cohen11[0])
    assert len(A.elements) == 4


def test_chain_two_elements():
    chain = Poset("chain3", ["a", "b", "t"], "t", [("b", "a"), ("a", "t")])
    A = boolean_completion(chain)
    assert len(A.elements) == 2


def test_ro_laws_exhaustive_small(small_corpus):
    for P in small_corpus:
        A = boolean_completion(P)
        els = A.elements
        assert els is not None
        for u in els:
            assert A.ro(u) == u
            assert u & A.perp(u) == 0
            down = P.down_masks()
            # downward closed
            for i in range(len(P)):
                if u >> i & 1:
                    assert down[i] & ~u == 0
        for a, b in itertools.product(els, repeat=2):
            assert A.perp(a & b) == A.join(A.perp(a), A.perp(b))
            assert A.perp(A.join(a, b)) == A.perp(a) & A.perp(b)
            assert A.join(a, a & b) == a
            assert a & A.join(a, b) == a


def test_embedding_properties(small_corpus):
    for P in small_corpus:
        A = boolean_completion(P)
        Q, proj, _ = separative_quotient(P)
        for p in P.ids:
            assert A.embedding(p) != 0
            assert A.ro(A.embedding(p)) == A.embedding(p)
        for p in P.ids:
            for q in P.ids:
                emb_le = A.leq(A.embedding(p), A.embedding(q))
                assert emb_le == Q.leq(proj[p], proj[q])
                meets_zero = A.embedding(p) & A.embedding(q) == 0
                assert meets_zero == (not P.compatible(p, q))


def test_embedding_image_dense(small_corpus):
    for P in small_corpus:
        A = boolean_completion(P)
        for u in A.elements:
            if u == 0:
                continue
            assert any(
                A.leq(A.embedding(p), u) and A.embedding(p) != 0 for p in P.ids
            )


def test_u_subset_ro_and_idempotence(small_corpus):
    for P in small_corpus:
        A = boolean_completion(P)
        n = len(P)
        down = P.down_masks()
        # sample all downward closed sets on the small posets
        for bits in range(1 << n):
            if any(bits >> i & 1 and down[i] & ~bits for i in range(n)):
                continue
            assert bits & ~A.ro(bits) == 0
            assert A.ro(A.ro(bits)) == A.ro(bits)


def test_lazy_algebra_on_big_poset(mathias6):
    A = boolean_completion(mathias6)
    assert A.elements is None
    assert len(A.atoms) == 63
    e = A.embedding(mathias6.ids[5])
    assert A.ro(e) == e
    assert A.meet(e, A.complement(e)) == 0


def test_atoms_are_the_ro_of_minimal_conditions(corpus_posets):
    # one atom per distinct ro of a minimal condition, in identifier order
    from helpers import ro_reference

    for P in corpus_posets:
        A = boolean_completion(P)
        down, up = P.down_masks(), P._up
        expected = []
        for i in range(len(P)):
            if down[i] & ~up[i] == 0 and ro_reference(P, 1 << i) not in expected:
                expected.append(ro_reference(P, 1 << i))
        assert A.atoms == tuple(expected)


def test_algebra_matches_the_compat_references(corpus_posets):
    # perp, ro, the embedding and the element list, each read off the
    # minimal filters, against double perp over pairwise compat rows
    from helpers import mask_sample, perp_reference, ro_reference

    for P in corpus_posets:
        A = boolean_completion(P)
        for u in mask_sample(P):
            assert A.perp(u) == perp_reference(P, u), (P.name, u)
            assert A.ro(u) == ro_reference(P, u), (P.name, u)
        for p in P.ids:
            assert A.embedding(p) == ro_reference(P, P.down_mask(p)), (P.name, p)
        if len(P) <= 5:
            regular_open = {ro_reference(P, u) for u in range(P.full_mask + 1)}
            assert A.elements == tuple(sorted(regular_open)), P.name
