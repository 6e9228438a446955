import pytest
from hypothesis import given, settings, strategies as st
from test_permindex import groups

from hh1lab.catalgebra import radical_and_semisimplicity
from hh1lab.errors import FieldMismatch, SplitFieldTooSmall
from hh1lab.groupalgebra import (block_algebra, block_decompose, center,
                                 group_algebra, splitting_degree,
                                 tensor_algebra)
from hh1lab.permgroup import direct_product


def test_splitting_degrees(corpus):
    assert splitting_degree(corpus["S3"], 3) == 1
    assert splitting_degree(corpus["C3"], 2) == 2
    assert splitting_degree(corpus["C2"], 2) == 1
    assert splitting_degree(corpus["A4"], 2) == 2
    assert splitting_degree(corpus["S4"], 5) == 2


def test_group_algebra_c2():
    from hh1lab.cli import resolve_group
    C2, _, _ = resolve_group("C2")
    A = group_algebra(C2, 2)
    assert A.dim == 2
    # e_g^2 = e_1
    assert A.sc[1, 1] == ((0, A.field.one),)
    assert A.check_unit()
    assert A.check_associativity()


def test_group_algebra_fields(corpus):
    A = group_algebra(corpus["S3"], 3)
    assert (A.field.p, A.field.m) == (3, 1)
    assert A.dim == 6
    A = group_algebra(corpus["C3"], 2)
    assert (A.field.p, A.field.m) == (2, 2)
    assert A.dim == 3


def test_associativity_and_unit_sampled(corpus):
    for name in ["V4", "S3", "D8", "Q8"]:
        for p in (2, 3):
            A = group_algebra(corpus[name], p)
            assert A.check_unit()
            assert A.check_associativity()


def test_center_dimensions(corpus):
    for name, expected in [("S3", 3), ("V4", 4), ("A4", 4)]:
        G = corpus[name]
        A = group_algebra(G, 2)
        cb = center(A, G)
        assert cb.class_count == expected
        # class sums commute: integer structure constants are symmetric in
        # the first two indices
        sc = cb.sc_int
        for i in range(cb.class_count):
            for j in range(cb.class_count):
                assert (sc[i, j] == sc[j, i]).all()


def test_block_examples(corpus):
    A = group_algebra(corpus["S3"], 3)
    blocks = block_decompose(A, corpus["S3"], 3)
    assert [(b.dim, b.defect, b.is_principal) for b in blocks] == [(6, 1, True)]

    A = group_algebra(corpus["S3"], 2)
    blocks = block_decompose(A, corpus["S3"], 2)
    assert [(b.dim, b.defect) for b in blocks] == [(2, 1), (4, 0)]
    assert blocks[0].is_principal and not blocks[1].is_principal

    A = group_algebra(corpus["C3"], 2)
    blocks = block_decompose(A, corpus["C3"], 2)
    assert [b.dim for b in blocks] == [1, 1, 1]
    assert [b.defect for b in blocks] == [0, 0, 0]

    A = group_algebra(corpus["A4"], 2)
    blocks = block_decompose(A, corpus["A4"], 2)
    assert [(b.dim, b.defect, b.is_principal) for b in blocks] == [(12, 2, True)]


def test_block_completeness_orthogonality(corpus):
    for name in ["C2", "C3", "C4", "V4", "S3", "D8", "Q8", "A4", "S4"]:
        G = corpus[name]
        for p in (2, 3):
            A = group_algebra(G, p)
            cb = center(A, G)
            blocks = block_decompose(A, G, p)
            spec = A.field
            # sum of idempotents is 1; pairwise products vanish
            total = [spec.zero] * cb.class_count
            for b in blocks:
                for i, v in enumerate(b.idempotent_class_coords):
                    total[i] = spec.add(total[i], v)
            assert tuple(total) == cb.unit_vector()
            for i in range(len(blocks)):
                e = blocks[i].idempotent_class_coords
                assert cb.product(e, e) == e
                for j in range(i + 1, len(blocks)):
                    prod = cb.product(e, blocks[j].idempotent_class_coords)
                    assert all(spec.is_zero(v) for v in prod)
            assert sum(b.dim for b in blocks) == G.order
            assert len(blocks) <= G.p_regular_class_count(p)
            assert sum(1 for b in blocks if b.is_principal) == 1


def test_central_characters_are_algebra_maps(corpus):
    for name, p in [("S3", 2), ("S3", 3), ("A4", 2), ("S4", 3)]:
        G = corpus[name]
        A = group_algebra(G, p)
        cb = center(A, G)
        spec = A.field
        for b in block_decompose(A, G, p):
            lam = b.central_character
            c = cb.class_count
            for i in range(c):
                for j in range(c):
                    # lambda(C_i C_j) = lambda(C_i) lambda(C_j)
                    lhs = spec.zero
                    for k in range(c):
                        a = int(cb.sc_int[i, j, k]) % p
                        if a:
                            lhs = spec.add(lhs, spec.mul(spec.from_int(a),
                                                         lam[k]))
                    assert lhs == spec.mul(lam[i], lam[j])


def test_defect_numbers(corpus):
    G = corpus["S3"]
    A = group_algebra(G, 2)
    blocks = block_decompose(A, G, 2)
    assert [b.defect for b in blocks] == [1, 0]
    G = corpus["A4"]
    blocks = block_decompose(group_algebra(G, 2), G, 2)
    assert blocks[0].defect == 2


def test_coprime_order_blocks_have_defect_zero(corpus):
    for name in ["C2", "C3", "V4", "S3", "A4", "S4"]:
        G = corpus[name]
        for p in (2, 3, 5):
            if G.order % p == 0:
                continue
            blocks = block_decompose(group_algebra(G, p), G, p)
            assert all(b.defect == 0 for b in blocks)


def test_block_algebra_examples(corpus):
    G = corpus["S3"]
    A = group_algebra(G, 3)
    blocks = block_decompose(A, G, 3)
    B = block_algebra(A, blocks[0])
    assert B.dim == 6
    assert B.check_unit() and B.check_associativity()

    A2 = group_algebra(G, 2)
    blocks2 = block_decompose(A2, G, 2)
    B0 = block_algebra(A2, blocks2[0])
    assert B0.dim == 2
    B1 = block_algebra(A2, blocks2[1])
    assert B1.dim == 4
    # defect zero block is semisimple
    rad, ss = radical_and_semisimplicity(B1)
    assert rad == 0 and ss


def test_defect_zero_blocks_semisimple(corpus):
    G = corpus["S4"]
    A = group_algebra(G, 3)
    for b in block_decompose(A, G, 3):
        if b.defect == 0:
            rad, ss = radical_and_semisimplicity(block_algebra(A, b))
            assert ss


def test_tensor_unit_law(corpus):
    # A (x) k == A: tensor with the algebra of the trivial group
    from hh1lab.permgroup import group_from_generators
    triv = group_from_generators(1, [])
    G = corpus["S3"]
    A = group_algebra(G, 3)  # both factors over GF(3)
    K = group_algebra(triv, 3)
    T = tensor_algebra(A, K)
    assert T.dim == A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            assert T.sc[i, j] == A.sc[i, j]
    assert T.unit == tuple(A.unit)


def test_tensor_c2_c2_matches_v4(corpus):
    # kC2 (x) kC2 has the structure constants of a Klein-four group algebra
    # once the pair basis is matched to the product group's elements
    from hh1lab.permgroup import Perm
    C2 = corpus["C2"]
    A = group_algebra(C2, 2)
    T = tensor_algebra(A, A)
    assert T.dim == 4
    P = direct_product(C2, C2)
    mapping = {}
    for i in range(2):
        for j in range(2):
            gi = C2.element(i).images
            gj = C2.element(j).images
            combined = list(gi) + [2 + x for x in gj]
            mapping[i * 2 + j] = P.index_of(Perm(combined))
    for a in range(4):
        for b in range(4):
            (k, coeff), = T.sc[a, b]
            assert coeff == T.field.one
            assert mapping[k] == P.product_index(mapping[a], mapping[b])
    # and the product group is a Klein four group
    assert P.order == 4
    assert all(P.element(i).order() <= 2 for i in range(4))


def test_tensor_s3_s3_blocks_pairwise(corpus):
    # the product group algebra decomposes into pairwise tensor blocks
    G = corpus["S3xS3"]
    A = group_algebra(G, 2)
    blocks = block_decompose(A, G, 2)
    assert sorted(b.dim for b in blocks) == [4, 8, 8, 16]
    S3 = corpus["S3"]
    bs = block_decompose(group_algebra(S3, 2), S3, 2)
    pairwise = sorted(a.dim * b.dim for a in bs for b in bs)
    assert sorted(b.dim for b in blocks) == pairwise


def test_block_count_multiplicative(corpus):
    for a, b, p in [("C2", "S3", 2), ("C3", "S3", 3)]:
        Ga, Gb = corpus[a], corpus[b]
        P = direct_product(Ga, Gb)
        na = len(block_decompose(group_algebra(Ga, p), Ga, p))
        nb = len(block_decompose(group_algebra(Gb, p), Gb, p))
        np_ = len(block_decompose(group_algebra(P, p), P, p))
        assert np_ == na * nb


def test_tensor_field_mismatch(corpus):
    A = group_algebra(corpus["C2"], 2)
    B = group_algebra(corpus["C3"], 2)  # GF(4), not GF(2)
    with pytest.raises(FieldMismatch):
        tensor_algebra(A, B)


def test_block_ordering_deterministic(corpus):
    G = corpus["S4"]
    A = group_algebra(G, 3)
    b1 = block_decompose(A, G, 3)
    b2 = block_decompose(A, G, 3)
    assert [b.idempotent_class_coords for b in b1] == \
           [b.idempotent_class_coords for b in b2]
    assert b1[0].is_principal
    assert [b.dim for b in b1] == [6, 9, 9]


@pytest.mark.parametrize("name,p", [("D8", 3), ("C2xS3", 5), ("S3xS3", 5)])
def test_split_pieces_resume_at_the_splitting_class(corpus, monkeypatch,
                                                     name, p):
    # a class before the one that split an idempotent is not factored again
    # for its pieces, so no block's scan repeats a class: at most
    # blocks x classes minimal polynomials are factored
    from hh1lab import groupalgebra
    calls = []
    real = groupalgebra.poly_factor

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groupalgebra, "poly_factor", counting)
    G = corpus[name]
    blocks = block_decompose(group_algebra(G, p), G, p)
    assert len(calls) <= len(blocks) * len(G.conjugacy_classes())


def test_blocks_over_a_field_without_the_character_values(corpus,
                                                         monkeypatch):
    # over GF(2), a class sum of C3 has minimal polynomial t^3 - 1 = (t +
    # 1)(t^2 + t + 1) on Z(kC3): its characters need GF(4)
    from hh1lab import groupalgebra
    monkeypatch.setattr(groupalgebra, "splitting_degree", lambda G, p: 1)
    G = corpus["C3"]
    A = group_algebra(G, 2)
    assert A.field.order == 2
    with pytest.raises(SplitFieldTooSmall):
        block_decompose(A, G, 2)


# (idempotent class coordinates, central character) per block.  Both come
# from minimal polynomials of class sums over GF(q), which are unique.  An
# element is written as its coefficient vector read as a little-endian
# base-p integer.
BLOCK_PINS = {
    ("A4", 2): [
        ([1, 0, 0, 0], [1, 1, 0, 0]),
    ],
    ("Q8", 3): [
        ([2, 2, 2, 2, 2], [1, 2, 2, 1, 2]),
        ([2, 1, 1, 2, 2], [1, 1, 1, 1, 2]),
        ([2, 1, 2, 2, 1], [1, 1, 2, 1, 1]),
        ([2, 2, 1, 2, 1], [1, 2, 1, 1, 1]),
        ([2, 0, 0, 1, 0], [1, 0, 0, 2, 0]),
    ],
    ("S4", 3): [
        ([1, 0, 0, 0, 1], [1, 0, 0, 2, 0]),
        ([0, 1, 2, 0, 1], [1, 1, 2, 0, 2]),
        ([0, 2, 1, 0, 1], [1, 2, 1, 0, 2]),
    ],
    ("S3xS3", 5): [
        ([1, 1, 1, 1, 1, 1, 1, 1, 1], [1, 3, 2, 3, 2, 4, 1, 1, 4]),
        ([1, 1, 1, 4, 1, 4, 4, 1, 1], [1, 3, 2, 2, 2, 1, 4, 1, 4]),
        ([1, 4, 1, 1, 1, 4, 1, 4, 1], [1, 2, 2, 3, 2, 1, 1, 4, 4]),
        ([1, 4, 1, 4, 1, 1, 4, 4, 1], [1, 2, 2, 2, 2, 4, 4, 4, 4]),
        ([4, 0, 3, 1, 4, 0, 2, 0, 3], [1, 0, 4, 2, 2, 0, 3, 0, 3]),
        ([4, 0, 3, 4, 4, 0, 3, 0, 3], [1, 0, 4, 3, 2, 0, 2, 0, 3]),
        ([4, 1, 4, 0, 3, 0, 0, 2, 3], [1, 2, 2, 0, 4, 0, 0, 3, 3]),
        ([4, 4, 4, 0, 3, 0, 0, 3, 3], [1, 3, 2, 0, 4, 0, 0, 2, 3]),
        ([1, 0, 2, 0, 2, 0, 0, 0, 4], [1, 0, 4, 0, 4, 0, 0, 0, 1]),
    ],
}


@pytest.mark.parametrize("name,p,q", [("A4", 2, 4), ("Q8", 3, 9),
                                      ("S4", 3, 9), ("S3xS3", 5, 25)])
def test_block_idempotents_and_characters_pinned(corpus, name, p, q):
    G = corpus[name]
    A = group_algebra(G, p)
    spec = A.field
    assert spec.order == q

    def enc(values):
        return [sum(c * p ** i for i, c in enumerate(spec.coeffs(v)))
                for v in values]

    assert [(enc(b.idempotent_class_coords), enc(b.central_character))
            for b in block_decompose(A, G, p)] == BLOCK_PINS[name, p]


def _block_record(b):
    return (b.index, b.idempotent_class_coords, b.dim, b.defect,
            b.is_principal, b.central_character)


@settings(max_examples=40, deadline=None)
@given(G=groups(5, 120), p=st.sampled_from([2, 3, 5]))
def test_blocks_of_generated_groups(G, p):
    A = group_algebra(G, p)
    spec = A.field
    cb = center(A, G)
    c = cb.class_count
    blocks = block_decompose(A, G, p)
    # complete and orthogonal
    total = [spec.zero] * c
    for b in blocks:
        total = [spec.add(x, y) for x, y in zip(total,
                                                 b.idempotent_class_coords)]
    assert tuple(total) == cb.unit_vector()
    for i, a in enumerate(blocks):
        e = a.idempotent_class_coords
        assert cb.product(e, e) == e
        for b in blocks[i + 1:]:
            prod = cb.product(e, b.idempotent_class_coords)
            assert all(spec.is_zero(v) for v in prod)
    # each central character is multiplicative on the class sums
    for b in blocks:
        lam = b.central_character
        for i in range(c):
            for j in range(c):
                lhs = spec.zero
                for k in range(c):
                    a = int(cb.sc_int[i, j, k]) % p
                    if a:
                        lhs = spec.add(lhs, spec.mul(spec.from_int(a), lam[k]))
                assert lhs == spec.mul(lam[i], lam[j])
    # one principal block, whose character is the class sizes mod p
    principal = [b for b in blocks if b.is_principal]
    assert len(principal) == 1
    assert list(principal[0].central_character) == [
        spec.from_int(cl.size % p) for cl in G.conjugacy_classes()]
    assert sum(b.dim for b in blocks) == G.order
    assert len(blocks) <= G.p_regular_class_count(p)
    # the splitting seed does not change the output
    assert ([_block_record(b) for b in block_decompose(A, G, p, seed=1)]
            == [_block_record(b) for b in blocks])
