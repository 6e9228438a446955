import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_permindex import groups

import splitfield
from hh1lab import ffield
from hh1lab.catalgebra import radical_and_semisimplicity
from hh1lab.errors import DimCapExceeded, SplitFieldTooSmall
from hh1lab.groupalgebra import (block_algebra, block_decompose, center,
                                 field_degree, group_algebra)
from hh1lab.ffield import echelon_insert, np_rref_mod_p
from hh1lab.hhone import hh1_blocks
from hh1lab.permgroup import Perm, direct_product, group_from_generators


def splitting_degree(G, p):
    """l = lcm |O| over the Galois orbits of the blocks of kG."""
    return field_degree(block_decompose(group_algebra(G, p), G, p))


def orbits(blocks):
    """The distinct orbit sums e_O of the blocks, in block order."""
    return list(dict.fromkeys(b.idempotent_class_coords for b in blocks))


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


def _order_mod(p, n):
    """The multiplicative order of p modulo n, p prime to n."""
    k, r = 1, p % n
    while n > 1 and r != 1:
        r, k = r * p % n, k + 1
    return k


def _exponent_bound(G, p):
    """The order of p modulo the p'-part e of the exponent of G: GF(p^m)
    holds every e-th root of unity, so it splits the center of kG."""
    e = math.lcm(*(cl.representative.order() for cl in G.conjugacy_classes()))
    while e % p == 0:
        e //= p
    return _order_mod(p, e)


def _fixed_dimension(G, p):
    """dim of the fixed space of z -> z^p on Z(F_pG), each class sum's
    p-th power formed by p - 1 products."""
    cb = center(G, ffield.field_make(p))
    c = cb.class_count
    frob = []
    for i in range(c):
        z = tuple(int(j == i) for j in range(c))
        power = z
        for _ in range(p - 1):
            power = cb.product(power, z)
        frob.append(power)
    frob = np.array(frob) - np.eye(c, dtype=int)
    return c - len(np_rref_mod_p(frob, p)[1])


@settings(max_examples=40, deadline=None)
@given(G=groups(6, 120), p=st.sampled_from([2, 3, 5, 7]))
@example(G=group_from_generators(5, [Perm([1, 2, 3, 4, 0])]), p=2)
@example(G=group_from_generators(3, [Perm([1, 0, 2]), Perm([1, 2, 0])]), p=2)
def test_splitting_degree_is_the_lcm_of_the_galois_orbits(G, p):
    # the blocks need GF(p^l), l the lcm of their Galois-orbit sizes; the
    # exponent's field GF(p^m) contains it (C5@2: l = m = 4; S3@2: l = 1,
    # m = 2).  Each orbit spans one dimension of the Frobenius-fixed
    # center, and its |O| blocks of one dimension fill kG
    A = group_algebra(G, p)
    blocks = block_decompose(A, G, p)
    ell = field_degree(blocks)
    assert (A.field.p, A.field.m) == (p, 1)
    assert ell == math.lcm(*(b.orbit_size for b in blocks))
    assert _exponent_bound(G, p) % ell == 0
    assert len(orbits(blocks)) == _fixed_dimension(G, p)
    assert sum(b.dim for b in blocks) == G.order
    for e in orbits(blocks):  # an orbit's |O| rows sit together
        rows = [i for i, b in enumerate(blocks)
                if b.idempotent_class_coords == e]
        assert rows == list(range(rows[0], rows[0] + len(rows)))
        assert len(rows) == blocks[rows[0]].orbit_size


def _cyclotomic_cosets(n, p):
    """The orbits of x -> p x on Z/n."""
    seen, cosets = set(), []
    for x in range(n):
        if x not in seen:
            coset = {x * p ** k % n for k in range(n)}
            seen |= coset
            cosets.append(len(coset))
    return sorted(cosets)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), p=st.sampled_from([2, 3, 5, 7]))
@example(n=31, p=3)
@example(n=19, p=2)
def test_orbit_sizes_of_cyclic_groups_are_the_cyclotomic_cosets(n, p):
    # the blocks of kC_n, p prime to n, are its n characters, and Frobenius
    # takes the character x -> zeta^(a x) to x -> zeta^(p a x): the orbits
    # are the p-cyclotomic cosets of Z/n
    if n % p == 0:
        n += 1
    G = group_from_generators(n, [Perm([(i + 1) % n for i in range(n)])])
    blocks = block_decompose(group_algebra(G, p), G, p)
    size = {b.idempotent_class_coords: b.orbit_size for b in blocks}
    assert sorted(size.values()) == _cyclotomic_cosets(n, p)
    assert field_degree(blocks) == _order_mod(p, n)


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
    # the blocks of kC3 at 2 need GF(4), and kC3 is still built over F_2
    A = group_algebra(corpus["C3"], 2)
    assert (A.field.p, A.field.m) == (2, 1)
    assert A.dim == 3
    assert field_degree(block_decompose(A, corpus["C3"], 2)) == 2


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
            # sum of orbit sums is 1; pairwise products vanish
            sums = orbits(blocks)
            total = [spec.zero] * cb.class_count
            for e in sums:
                for i, v in enumerate(e):
                    total[i] = spec.add(total[i], v)
            assert tuple(total) == cb.unit_vector()
            for i, e in enumerate(sums):
                assert cb.product(e, e) == e
                for f in sums[i + 1:]:
                    assert all(spec.is_zero(v) for v in cb.product(e, f))
            assert sum(b.dim for b in blocks) == G.order
            assert len(blocks) <= G.p_regular_class_count(p)
            assert sum(1 for b in blocks if b.is_principal) == 1


def test_central_characters_are_algebra_maps(corpus):
    # of the blocks over GF(p^l), split by the reference route
    for name, p in [("S3", 2), ("S3", 3), ("A4", 2), ("S4", 3)]:
        G = corpus[name]
        spec, blocks = splitfield.split_center(G, p)
        cb = center(G, spec)
        for b in blocks:
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


def test_blocks_over_a_field_without_the_character_values(corpus):
    # over GF(2), a class sum of C3 has minimal polynomial t^3 - 1 = (t +
    # 1)(t^2 + t + 1) on Z(kC3): the reference route's primitive
    # idempotents need GF(4), where the package's orbit sums do not
    G = corpus["C3"]
    with pytest.raises(SplitFieldTooSmall):
        splitfield.split_center(G, 2, ell=1)
    assert splitfield.split_center(G, 2)[0].order == 4
    assert len(orbits(block_decompose(group_algebra(G, 2), G, 2))) == 2


# (idempotent class coordinates, central character) per block of the
# reference route over GF(q), in the package's block order.  Both come from
# minimal polynomials of class sums over GF(q), which are unique.  An
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
    # pinned over GF(q), the exponent's splitting field; every value lies
    # in F_p, over which the blocks split, and encodes the same in both
    G = corpus[name]

    def pins(ell):
        spec, blocks = splitfield.split_center(G, p, ell)

        def enc(values):
            return [sum(c * p ** i for i, c in enumerate(spec.coeffs(v)))
                    for v in values]

        return spec.order, [(enc(b.coords), enc(b.central_character))
                            for b in blocks]

    assert pins(None) == (p, BLOCK_PINS[name, p])
    assert pins(_exponent_bound(G, p)) == (q, BLOCK_PINS[name, p])
    # every block is its own orbit here: the package's orbit sums are the
    # pinned idempotents
    assert [list(b.idempotent_class_coords) for b in
            block_decompose(group_algebra(G, p), G, p)] == [
        coords for coords, _ in BLOCK_PINS[name, p]]


def orbit_pins(G, p, *, allow_large=False):
    """Per block, in block order: principal flag, defect, dimension, |O|
    and the sha256 of e_O over F_p (int64 coefficients in element order),
    all independent of the field the blocks split over."""
    A = group_algebra(G, p, allow_large=allow_large)
    out = []
    for b in block_decompose(A, G, p):
        coef = np.array(b.idempotent_class_coords)[G.class_of_array()]
        digest = hashlib.sha256(np.asarray(coef, dtype="<i8").tobytes())
        out.append((b.is_principal, b.defect, b.dim, b.orbit_size,
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
    """sha256 of the reference route's idempotent class coordinates and
    central characters, raw field elements in block order, as JSON."""
    data = [[[int(v) for v in b.coords],
             [int(v) for v in b.central_character]] for b in blocks]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


@pytest.mark.parametrize("n,p,digest", [
    (11, 2, "69a9d6aaea07033822cc7c0a8c561015a22220d861c0120deac620173ad6f07e"),
    (19, 2, "a33aa83338ead72f4928a82d7c5cdad904bea1f2247ed3ebc5af5a00473acd01"),
    (13, 5, "eba1b31946db36365e4ee33403e36527c01fe32b96aa727073af5a6e5be02d5e"),
], ids=["C11@2", "C19@2", "C13@5"])
def test_cyclic_block_idempotents_pinned_over_large_fields(n, p, digest):
    # by the reference route: C11 and C19 split over GF(2^10) and
    # GF(2^18), C13 over GF(5^4), fields without product tables, where
    # poly_factor's Frobenius steps carry the whole split.  C13's twelve
    # blocks of dimension one are three Galois orbits, each together in
    # block order
    G = group_from_generators(n, [Perm([(i + 1) % n for i in range(n)])])
    spec, blocks = splitfield.split_center(G, p)
    assert len(blocks) == n
    assert block_digest(blocks) == digest
    assert [(b.orbit_sum, b.orbit_size) for b in blocks] == [
        (b.idempotent_class_coords, b.orbit_size)
        for b in block_decompose(group_algebra(G, p), G, p)]


def _block_record(b):
    return (b.index, b.idempotent_class_coords, b.orbit_size, b.dim,
            b.defect, b.is_principal)


@settings(max_examples=40, deadline=None)
@given(G=groups(5, 120), p=st.sampled_from([2, 3, 5]))
def test_blocks_of_generated_groups(G, p):
    A = group_algebra(G, p)
    spec = A.field
    cb = center(G, A.field)
    c = cb.class_count
    blocks = block_decompose(A, G, p)
    sums = orbits(blocks)
    # complete and orthogonal
    total = [spec.zero] * c
    for e in sums:
        total = [spec.add(x, y) for x, y in zip(total, e)]
    assert tuple(total) == cb.unit_vector()
    for i, e in enumerate(sums):
        assert cb.product(e, e) == e
        for f in sums[i + 1:]:
            assert all(spec.is_zero(v) for v in cb.product(e, f))
    # one principal orbit, of one block, the one of augmentation 1
    principal = [b for b in blocks if b.is_principal]
    assert len(principal) == 1 and principal[0].orbit_size == 1
    sizes = [cl.size for cl in G.conjugacy_classes()]
    assert [sum(v * n for v, n in zip(e, sizes)) % p for e in sums] == [
        int(e == principal[0].idempotent_class_coords) for e in sums]
    assert sum(b.dim for b in blocks) == G.order
    assert len(blocks) <= G.p_regular_class_count(p)
    # the splitting seed does not change the output
    assert ([_block_record(b) for b in block_decompose(A, G, p, seed=1)]
            == [_block_record(b) for b in blocks])


@settings(max_examples=40, deadline=None)
@given(G=groups(6, 120), p=st.sampled_from([2, 3, 5, 7]))
@example(G=group_from_generators(5, [Perm([1, 2, 3, 4, 0])]), p=2)
def test_orbit_sums_equal_the_splitting_field_route(G, p):
    # the reference splits the center into primitive idempotents over
    # GF(p^l) and sums their Frobenius orbits; in block order, each of its
    # blocks must carry the package's e_O, |O| and principal flag, and its
    # principal block's central character is the class sizes mod p
    spec, reference = splitfield.split_center(G, p)
    blocks = block_decompose(group_algebra(G, p), G, p)
    assert spec.m == field_degree(blocks)
    assert [(b.orbit_sum, b.orbit_size, b.is_principal) for b in reference] \
        == [(b.idempotent_class_coords, b.orbit_size, b.is_principal)
            for b in blocks]
    principal, = (b for b in reference if b.is_principal)
    assert list(principal.central_character) == [
        cl.size % p for cl in G.conjugacy_classes()]


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
    # the explicit example, C5 at p = 2, has orbit sums of two and four
    # classes
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


def _right_multiplication_rank(A, G, spec, coords):
    """dim kGb as the rank over ``spec`` of right multiplication by b,
    given in class-sum coordinates: row j is e_j b = sum_g b_g e_{jg}.
    The rows go into `echelon_insert`, which runs over any field."""
    table = A.sc.table()
    coef = [spec.zero] * G.order
    for v, cl in zip(coords, G.conjugacy_classes()):
        for g in cl.indices.tolist():
            coef[g] = v
    pivots, rowlist = {}, []
    for j in range(G.order):
        echelon_insert({int(table[j, g]): v for g, v in enumerate(coef) if v},
                       pivots, rowlist, spec)
    return len(pivots)


@settings(max_examples=40, deadline=None)
@given(G=groups(6, 120), p=st.sampled_from([2, 3, 5]))
def test_block_dimensions_equal_the_splitting_field_rank(G, p):
    # the primitive idempotents over GF(p^l) come from the reference
    # route, in block order
    A = group_algebra(G, p)
    blocks = block_decompose(A, G, p)
    spec, reference = splitfield.split_center(G, p)
    assert [b.dim for b in blocks] == [
        _right_multiplication_rank(A, G, spec, b.coords) for b in reference]
    # over F_p, e_O cuts out the |O| blocks of its orbit
    assert [b.dim * b.orbit_size for b in blocks] == [
        _right_multiplication_rank(A, G, A.field, b.idempotent_class_coords)
        for b in blocks]
    assert sum(b.dim for b in blocks) == G.order


def _cycles(n, *cycles):
    images = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return Perm(images)


@pytest.mark.parametrize("name,p,dims", [
    ("A6", 3, [279, 81]), ("A6", 5, [210, 25, 25, 100]),
    ("S5", 3, [42, 36, 42]), ("S5", 5, [70, 25, 25]),
    ("A6", 2, [232, 64, 64])])
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
