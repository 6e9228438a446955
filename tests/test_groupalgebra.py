import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_permindex import groups

from hh1lab import ffield
from hh1lab.catalgebra import radical_and_semisimplicity
from hh1lab.errors import DimCapExceeded, SplitFieldTooSmall
from hh1lab.groupalgebra import (block_algebra, block_decompose, center,
                                 group_algebra, orbit_sum, splitting_degree)
from hh1lab.ffield import rank_nullspace_raw
from hh1lab.hhone import hh1_blocks
from hh1lab.permgroup import Perm, direct_product, group_from_generators


def test_splitting_degrees(corpus):
    assert splitting_degree(corpus["S3"], 3) == 1
    assert splitting_degree(corpus["C3"], 2) == 2
    assert splitting_degree(corpus["C2"], 2) == 1
    assert splitting_degree(corpus["C4"], 3) == 2
    assert splitting_degree(corpus["A4"], 5) == 2
    # the exponent's splitting field is GF(p^2) here, but every central
    # character is rational
    assert splitting_degree(corpus["A4"], 2) == 1
    assert splitting_degree(corpus["S4"], 5) == 1
    C5 = group_from_generators(5, [Perm([1, 2, 3, 4, 0])])
    assert splitting_degree(C5, 2) == 4


def _exponent_bound(G, p):
    """The order of p modulo the p'-part e of the exponent of G: GF(p^m)
    holds every e-th root of unity, so it splits the center of kG."""
    e = math.lcm(*(cl.representative.order() for cl in G.conjugacy_classes()))
    while e % p == 0:
        e //= p
    m, r = 1, p % e
    while e > 1 and r != 1:
        r, m = r * p % e, m + 1
    return m


@settings(max_examples=40, deadline=None)
@given(G=groups(6, 120), p=st.sampled_from([2, 3, 5, 7]))
@example(G=group_from_generators(5, [Perm([1, 2, 3, 4, 0])]), p=2)
@example(G=group_from_generators(3, [Perm([1, 0, 2]), Perm([1, 2, 0])]), p=2)
def test_splitting_degree_is_the_lcm_of_the_galois_orbits(G, p):
    # the blocks need GF(p^l), l the lcm of their Galois-orbit sizes; the
    # exponent's field GF(p^m) contains it (C5@2: l = m = 4; S3@2: l = 1,
    # m = 2)
    ell = splitting_degree(G, p)
    A = group_algebra(G, p)
    assert A.field.m == ell
    sizes = [orbit_sum(G, A.field, b.idempotent_class_coords)[1]
             for b in block_decompose(A, G, p)]
    assert ell == math.lcm(*sizes)
    assert _exponent_bound(G, p) % ell == 0


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
        cb = center(G, A.field)
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
            cb = center(G, A.field)
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
        cb = center(G, A.field)
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
def test_block_idempotents_and_characters_pinned(corpus, name, p, q,
                                                 monkeypatch):
    # pinned over GF(q), the exponent's splitting field; every value lies
    # in F_p, over which the blocks split, and encodes the same in both
    from hh1lab import groupalgebra
    G = corpus[name]

    def pins():
        A = group_algebra(G, p)
        spec = A.field

        def enc(values):
            return [sum(c * p ** i for i, c in enumerate(spec.coeffs(v)))
                    for v in values]

        return spec.order, [
            (enc(b.idempotent_class_coords), enc(b.central_character))
            for b in block_decompose(A, G, p)]

    assert pins() == (p, BLOCK_PINS[name, p])
    monkeypatch.setattr(groupalgebra, "splitting_degree",
                        lambda G, p: _exponent_bound(G, p))
    assert pins() == (q, BLOCK_PINS[name, p])


def orbit_pins(G, p, *, allow_large=False):
    """Per block, in block order: principal flag, defect, dimension, |O|
    and the sha256 of e_O over F_p (`orbit_sum`, int64 coefficients in
    element order), all independent of the field the blocks split over."""
    A = group_algebra(G, p, allow_large=allow_large)
    out = []
    for b in block_decompose(A, G, p):
        coef, size = orbit_sum(G, A.field, b.idempotent_class_coords)
        digest = hashlib.sha256(np.asarray(coef, dtype="<i8").tobytes())
        out.append((b.is_principal, b.defect, b.dim, size,
                    digest.hexdigest()[:16]))
    return out


ORBIT_PINS = {
    ("A4", 2): [(True, 2, 12, 1, "508eb48186521268")],
    ("Q8", 3): [
        (True, 0, 1, 1, "ffc258c471600515"),
        (False, 0, 1, 1, "7fe27f195c38a0dc"),
        (False, 0, 1, 1, "8f5d04cd0f8f9103"),
        (False, 0, 1, 1, "0e4dad7050940f15"),
        (False, 0, 4, 1, "414fc48f53080654"),
    ],
    ("S4", 3): [
        (True, 1, 6, 1, "966b3caf43d46444"),
        (False, 0, 9, 1, "5450b9d16306b878"),
        (False, 0, 9, 1, "804f78dc02b752db"),
    ],
    ("S3xS3", 5): [
        (True, 0, 1, 1, "3b19f4cb5797c1e6"),
        (False, 0, 1, 1, "7cf02fc7c3f145b4"),
        (False, 0, 1, 1, "8b712cdb512d9085"),
        (False, 0, 1, 1, "9de8ac90a0063313"),
        (False, 0, 4, 1, "2eb5ac70885eecee"),
        (False, 0, 4, 1, "674a33143a2dfe2f"),
        (False, 0, 4, 1, "7d609924942da6e1"),
        (False, 0, 4, 1, "76a5ce7d8ca9fd49"),
        (False, 0, 16, 1, "24414f3231827c69"),
    ],
}


@pytest.mark.parametrize("name,p", sorted(ORBIT_PINS))
def test_block_orbit_sums_pinned(corpus, name, p):
    # recorded over the exponent's splitting field GF(p^2); no field moves
    # these, nor the block order
    assert orbit_pins(corpus[name], p) == ORBIT_PINS[name, p]


def block_digest(blocks):
    """sha256 of the blocks' idempotent class coordinates and central
    characters, raw field elements in block order, as JSON."""
    data = [[[int(v) for v in b.idempotent_class_coords],
             [int(v) for v in b.central_character]] for b in blocks]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


@pytest.mark.parametrize("n,p,digest", [
    (11, 2, "69a9d6aaea07033822cc7c0a8c561015a22220d861c0120deac620173ad6f07e"),
    (19, 2, "a33aa83338ead72f4928a82d7c5cdad904bea1f2247ed3ebc5af5a00473acd01"),
    (13, 5, "eba1b31946db36365e4ee33403e36527c01fe32b96aa727073af5a6e5be02d5e"),
], ids=["C11@2", "C19@2", "C13@5"])
def test_cyclic_block_idempotents_pinned_over_large_fields(n, p, digest):
    # C11 and C19 split over GF(2^10) and GF(2^18), C13 over GF(5^4):
    # fields without product tables, where poly_factor's Frobenius
    # steps carry the whole split.  C13's twelve blocks of dimension one
    # are three Galois orbits, each together in block order
    G = group_from_generators(n, [Perm([(i + 1) % n for i in range(n)])])
    A = group_algebra(G, p, allow_large=True)
    blocks = block_decompose(A, G, p)
    assert len(blocks) == n
    assert block_digest(blocks) == digest


def _block_record(b):
    return (b.index, b.idempotent_class_coords, b.dim, b.defect,
            b.is_principal, b.central_character)


@settings(max_examples=40, deadline=None)
@given(G=groups(5, 120), p=st.sampled_from([2, 3, 5]))
def test_blocks_of_generated_groups(G, p):
    A = group_algebra(G, p)
    spec = A.field
    cb = center(G, A.field)
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


def _triple_loop_product(cb, u, v):
    """Class-sum product over every (i, j, k), each constant reduced mod p
    where it is read."""
    spec = cb.spec
    c = cb.class_count
    out = [spec.zero] * c
    for i in range(c):
        if spec.is_zero(u[i]):
            continue
        for j in range(c):
            if spec.is_zero(v[j]):
                continue
            coef = spec.mul(u[i], v[j])
            for k in range(c):
                a = int(cb.sc_int[i, j, k]) % spec.p
                if a:
                    out[k] = spec.add(out[k], spec.mul(coef, spec.from_int(a)))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(G=groups(5, 120), p=st.sampled_from([2, 3, 5]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(G=group_from_generators(5, [Perm([1, 2, 3, 4, 0])]), p=2, seed=0)
def test_center_product_equals_the_triple_loop(G, p, seed):
    # the explicit example, C5 at p = 2, is split over GF(16)
    A = group_algebra(G, p)
    spec = A.field
    cb = center(G, A.field)
    c = cb.class_count
    rng = np.random.default_rng(seed)
    for _ in range(4):  # field elements, about 30% of them zero
        u, v = (tuple((rng.integers(0, spec.order, c)
                       * (rng.random(c) < 0.7)).tolist()) for _ in range(2))
        assert cb.product(u, v) == _triple_loop_product(cb, u, v)
    for b in block_decompose(A, G, p):
        e = b.idempotent_class_coords
        assert cb.product(e, e) == _triple_loop_product(cb, e, e)


# -- block dimensions over F_p, by the Galois orbit sum ---------------------


def _right_multiplication_rank(A, G, b):
    """dim kGb as the rank over the splitting field of right multiplication
    by b: row j is e_j b = sum_g b_g e_{jg}."""
    spec, table = A.field, A.sc.table()
    coef = [spec.zero] * G.order
    for v, cl in zip(b.idempotent_class_coords, G.conjugacy_classes()):
        for g in cl.indices.tolist():
            coef[g] = v
    rows = [{int(table[j, g]): v for g, v in enumerate(coef) if v}
            for j in range(G.order)]
    return rank_nullspace_raw(rows, G.order, spec, want_basis=False)[0]


@settings(max_examples=40, deadline=None)
@given(G=groups(6, 120), p=st.sampled_from([2, 3, 5]))
def test_block_dimensions_equal_the_splitting_field_rank(G, p):
    A = group_algebra(G, p)
    blocks = block_decompose(A, G, p)
    assert [b.dim for b in blocks] == [
        _right_multiplication_rank(A, G, b) for b in blocks]
    assert sum(b.dim for b in blocks) == G.order


def _cycles(n, *cycles):
    images = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return Perm(images)


@pytest.mark.parametrize("name,p,dims", [
    ("A6", 3, [279, 81]), ("A6", 5, [210, 25, 25, 100]),
    ("S5", 3, [42, 36, 42]), ("S5", 5, [70, 25, 25])])
def test_block_dimensions_of_a6_and_s5_pinned(name, p, dims):
    # A6 = <(0 1 2), (1 2 3 4 5)>, S5 = <(0 1), (0 1 2 3 4)>; over GF(q)
    # these dimensions took seconds, as ranks of 360 x 360 systems
    G = (group_from_generators(6, [_cycles(6, (0, 1, 2)),
                                   _cycles(6, (1, 2, 3, 4, 5))])
         if name == "A6" else
         group_from_generators(5, [_cycles(5, (0, 1)),
                                   _cycles(5, (0, 1, 2, 3, 4))]))
    assert [b.dim for b in block_decompose(group_algebra(G, p), G, p)] == dims


def test_center_refuses_more_classes_than_the_memory_cap_holds():
    # the 64 classes of C64 need 64^3 int64 counts, 2 MiB
    C64 = group_from_generators(64, [Perm(list(range(1, 64)) + [0])],
                                memory_cap=1 << 20)
    with pytest.raises(DimCapExceeded, match="64 classes"):
        center(C64, ffield.field_make(2, 1))
    with pytest.raises(DimCapExceeded):
        hh1_blocks(C64, 2)


def test_no_elimination_over_the_splitting_field(corpus, monkeypatch):
    # the blocks and their HH^1 are ranks over F_p; the splitting field's
    # only elimination is the insertion of Krylov rows for minimal
    # polynomials, which is not this kernel
    def refuse(*args):
        raise AssertionError("an elimination over GF(q), q > p")

    monkeypatch.setattr(ffield, "_echelon_generic", refuse)
    C6 = group_from_generators(6, [Perm([1, 2, 3, 4, 5, 0])])
    assert group_algebra(C6, 2).field.order == 4
    report = hh1_blocks(C6, 2)
    assert [(row.dim, row.hh1_dim) for row in report.per_block] == [(2, 2)] * 3
    A6 = group_from_generators(6, [_cycles(6, (0, 1, 2)),
                                   _cycles(6, (1, 2, 3, 4, 5))])
    A = group_algebra(A6, 2)
    assert A.field.order == 4
    assert [b.dim for b in block_decompose(A, A6, 2)] == [232, 64, 64]
