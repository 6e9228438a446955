import pytest

from hh1lab import catalgebra
from hh1lab.catalgebra import (CatFunctor, FinCategory, Morphism, bar_hh,
                               category_algebra, discrete_category,
                               frobenius_certificate,
                               happel_probe, load_category_file,
                               nerve_cohomology, one_object_category,
                               parse_category_file, radical_and_semisimplicity,
                               restriction_map, transporter_category,
                               transporter_projection,
                               verify_frobenius_certificate)
from hh1lab.errors import DimCapExceeded, InvalidCategory, NotAnAction
from hh1lab.ffield import field_make
from hh1lab.groupalgebra import group_algebra
from hh1lab.hhone import derivation_space

POSET_FILE = "src/hh1lab/data/categories/poset_a_to_b.cat"


def poset_category():
    return load_category_file(POSET_FILE)


# ---------------------------------------------------------------------------
# categories and validation
# ---------------------------------------------------------------------------


def test_validation_catches_broken_associativity():
    # a 'composition' table that breaks associativity on a 3-cycle monoid
    ms = [Morphism("e", 0, 0), Morphism("a", 0, 0), Morphism("b", 0, 0)]
    comp = {}
    for i in range(3):
        comp[0, i] = i
        comp[i, 0] = i
    comp[1, 1] = 2
    comp[1, 2] = 0
    comp[2, 1] = 1  # breaks (a a) a = a (a a)... adjusted to violate
    comp[2, 2] = 2
    cat = FinCategory(1, ms, comp, [0])
    with pytest.raises(InvalidCategory):
        cat.validate()


def test_validation_requires_total_composition():
    ms = [Morphism("id0", 0, 0), Morphism("a", 0, 0)]
    cat = FinCategory(1, ms, {(0, 0): 0, (0, 1): 1, (1, 0): 1}, [0])
    with pytest.raises(InvalidCategory):
        cat.validate()


def test_category_file_roundtrip():
    cat = poset_category()
    assert cat.n_objects == 2
    assert len(cat.morphisms) == 3
    assert cat.validate()


def test_category_file_errors():
    with pytest.raises(InvalidCategory):
        parse_category_file("objects 1\nmorphism a 0 0\n")  # no identity
    with pytest.raises(InvalidCategory):
        parse_category_file("morphism a 0 0\n")  # missing header


def test_second_comp_line_for_a_pair_is_rejected():
    # f.f = e (the group C2) and f.f = f (the monoid {1, f}) are each a
    # category; a file giving both is neither
    head = ("objects 1\nmorphism e 0 0 identity\nmorphism f 0 0\n"
            "comp e e e\ncomp e f f\ncomp f e f\n")
    for ff in ("e", "f"):
        assert parse_category_file(head + f"comp f f {ff}\n").validate()
    with pytest.raises(InvalidCategory, match="line 8: second composite"):
        parse_category_file(head + "comp f f e\ncomp f f f\n")


# ---------------------------------------------------------------------------
# category algebras
# ---------------------------------------------------------------------------


def test_one_object_category_is_group_algebra(corpus):
    C2 = corpus["C2"]
    BG = one_object_category(C2)
    f2 = field_make(2, 1)
    A = category_algebra(BG, f2)
    AG = group_algebra(C2, 2)
    assert A.dim == AG.dim
    for i in range(2):
        for j in range(2):
            assert A.sc[i, j] == AG.sc[i, j]


def test_discrete_category_algebra():
    f2 = field_make(2, 1)
    A = category_algebra(discrete_category(3), f2)
    assert A.dim == 3
    assert A.unit == (1, 1, 1)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert A.sc[i, j] == ((i, 1),)
            else:
                assert A.sc[i, j] == ()


def test_poset_algebra_associative():
    f2 = field_make(2, 1)
    A = category_algebra(poset_category(), f2)
    assert A.dim == 3
    assert A.check_associativity()
    assert A.check_unit()


# ---------------------------------------------------------------------------
# transporter categories
# ---------------------------------------------------------------------------


def test_transporter_single_point_is_group(corpus):
    C2 = corpus["C2"]
    T = transporter_category(C2, [0], action="trivial")
    f3 = field_make(3, 1)
    A = category_algebra(T, f3)
    assert A.dim == 2
    # each basis product is one basis element with coefficient one, and
    # each row of the product table is a permutation
    for i in range(2):
        terms = [A.sc[i, j] for j in range(2)]
        assert sorted(k for ((k, c),) in terms if c == f3.one) == [0, 1]


def test_transporter_swap_action(corpus):
    C2 = corpus["C2"]
    T = transporter_category(C2, [0, 1], action="natural")
    f3 = field_make(3, 1)
    A = category_algebra(T, f3)
    assert A.dim == 4
    rad, ss = radical_and_semisimplicity(A)
    assert rad == 0 and ss


def test_transporter_trivial_three_points(corpus):
    C2 = corpus["C2"]
    T = transporter_category(C2, [0, 1, 2], action="trivial")
    f2 = field_make(2, 1)
    A = category_algebra(T, f2)
    assert A.dim == 6  # morphism count 3 * |C2|


def test_transporter_requires_closed_points(corpus):
    S3 = corpus["S3"]
    with pytest.raises(NotAnAction):
        transporter_category(S3, [0], action="natural")
    with pytest.raises(NotAnAction):
        transporter_category(S3, [5], action="natural")


# ---------------------------------------------------------------------------
# Frobenius certificates
# ---------------------------------------------------------------------------


def test_group_algebras_certified_symmetric(corpus):
    for name, p in [("C2", 2), ("S3", 3), ("Q8", 2)]:
        A = group_algebra(corpus[name], p)
        cert = frobenius_certificate(A)
        assert cert is not None and cert.symmetric and cert.canonical
        assert verify_frobenius_certificate(A, cert)


def test_transporter_algebra_certified_symmetric(corpus):
    T = transporter_category(corpus["C2"], [0, 1, 2], action="trivial")
    A = category_algebra(T, field_make(2, 1))
    cert = frobenius_certificate(A)
    assert cert is not None and cert.symmetric and cert.canonical
    assert verify_frobenius_certificate(A, cert)


# k{1, e} with e^2 = e is k x k: the canonical functional (1, 0) is
# degenerate, so the certificate comes from the seeded search
IDEMPOTENT_MONOID_FUNCTIONALS = {2: (0, 1), 3: (0, 1), 5: (0, 2)}


@pytest.mark.parametrize("p", sorted(IDEMPOTENT_MONOID_FUNCTIONALS))
def test_idempotent_monoid_gets_a_searched_certificate(p):
    C = FinCategory(1, [Morphism("id", 0, 0), Morphism("e", 0, 0)],
                    {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, [0])
    A = category_algebra(C, field_make(p, 1))
    cert = frobenius_certificate(A, seed=0)
    assert cert.functional == IDEMPOTENT_MONOID_FUNCTIONALS[p]
    assert not cert.canonical and cert.symmetric
    assert verify_frobenius_certificate(A, cert)
    verdict = happel_probe(C, p, 3, seed=0)
    assert verdict.frobenius == cert
    assert verdict.gldim == "0"
    assert verdict.hh_dims == [2, 0, 0, 0]
    assert verdict.happel_consistent


# the monoid {1, a, z} with a.a = z and z absorbing: every basis product is
# one basis element, yet a and z have no inverse
ABSORBING_MONOID_HH1 = {2: 2, 3: 1}


@pytest.mark.parametrize("p", sorted(ABSORBING_MONOID_HH1))
def test_monoid_algebra_is_not_group_like(p):
    comp = {(0, x): x for x in range(3)} | {(x, 0): x for x in range(3)}
    comp.update({(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2})
    C = FinCategory(1, [Morphism("id", 0, 0), Morphism("a", 0, 0),
                        Morphism("z", 0, 0)], comp, [0])
    A = category_algebra(C, field_make(p, 1))
    hh1 = derivation_space(A).hh1_dim
    assert hh1 == bar_hh(A, 1)[1] == ABSORBING_MONOID_HH1[p]


def test_poset_algebra_has_no_frobenius_form():
    f2 = field_make(2, 1)
    A = category_algebra(poset_category(), f2)
    # the operation finds nothing
    assert frobenius_certificate(A) is None
    # oracle: every functional over GF(2) gives a singular Gram matrix
    from hh1lab.catalgebra import _gram_rank
    for v0 in (0, 1):
        for v1 in (0, 1):
            for v2 in (0, 1):
                rank, _ = _gram_rank(A, (v0, v1, v2))
                assert rank < 3


# ---------------------------------------------------------------------------
# bar cohomology
# ---------------------------------------------------------------------------


def test_bar_hh_ground_field():
    from hh1lab.groupalgebra import StructAlgebra
    spec = field_make(2, 1)
    A = StructAlgebra(spec, 1, ["e"], {(0, 0): ((0, 1),)}, (1,))
    assert bar_hh(A, 4) == [1, 0, 0, 0, 0]


def test_bar_hh_kc2(corpus):
    A = group_algebra(corpus["C2"], 2)
    assert bar_hh(A, 4) == [2, 2, 2, 2, 2]


def test_bar_hh_kc3_gf4(corpus):
    A = group_algebra(corpus["C3"], 2)
    assert bar_hh(A, 2) == [3, 0, 0]


def test_bar_hh_degree01_cross_checks(corpus):
    for name, p in [("C2", 2), ("C3", 2), ("C3", 3), ("S3", 2)]:
        A = group_algebra(corpus[name], p)
        dims = bar_hh(A, 1)
        ds = derivation_space(A)
        assert dims[0] == ds.center_dim
        assert dims[1] == ds.hh1_dim


def test_bar_hh_caps(corpus, monkeypatch):
    # kC2 has two cochains on each string g..g, so degrees 0..N+1 hold
    # 2(N + 2) cochains on N + 2 strings: at N = 3 the strings fit the cap
    # and the cochains do not
    monkeypatch.setattr(catalgebra, "COCHAIN_CAP", 8)
    A = group_algebra(corpus["C2"], 2)
    assert bar_hh(A, 2) == [2, 2, 2]
    with pytest.raises(DimCapExceeded):
        bar_hh(A, 3)


def test_nerve_and_restriction_caps(corpus, monkeypatch):
    # the nerve of BC2 has one cochain per degree, N + 2 in degrees 0..N+1
    monkeypatch.setattr(catalgebra, "COCHAIN_CAP", 5)
    spec = field_make(2, 1)
    BG = one_object_category(corpus["C2"])
    ident = CatFunctor(BG, BG, [0], list(range(2)))
    assert nerve_cohomology(BG, spec, 3) == [1, 1, 1, 1]
    assert len(restriction_map(ident, spec, 3)) == 4
    with pytest.raises(DimCapExceeded):
        nerve_cohomology(BG, spec, 4)
    with pytest.raises(DimCapExceeded):
        restriction_map(ident, spec, 4)


# ---------------------------------------------------------------------------
# nerve cohomology and restriction
# ---------------------------------------------------------------------------


def test_nerve_one_object_c2(corpus):
    BG = one_object_category(corpus["C2"])
    assert nerve_cohomology(BG, field_make(2, 1), 3) == [1, 1, 1, 1]


def test_nerve_discrete():
    assert nerve_cohomology(discrete_category(4), field_make(2, 1), 3) == \
        [4, 0, 0, 0]


def test_nerve_coprime_group(corpus):
    BG = one_object_category(corpus["C3"])
    assert nerve_cohomology(BG, field_make(2, 1), 3) == [1, 0, 0, 0]


def test_restriction_identity_iso(corpus):
    BG = one_object_category(corpus["C2"])
    ident = CatFunctor(BG, BG, [0], list(range(2)))
    res = restriction_map(ident, field_make(2, 1), 3)
    for r in res:
        assert r["rank"] == r["dim_target"] == r["dim_source"]
        assert r["injective"]


def test_restriction_transporter_injective(corpus):
    T = transporter_category(corpus["C2"], [0, 1, 2], action="trivial")
    pi = transporter_projection(T)
    res = restriction_map(pi, field_make(2, 1), 3)
    for r in res:
        assert r["injective"], r
        assert r["dim_target"] == 1
    res3 = restriction_map(pi, field_make(3, 1), 3)
    for r in res3:
        assert r["injective"]  # vacuous in positive degrees
        if r["degree"] > 0:
            assert r["dim_target"] == 0


def test_restriction_of_a_natural_action_is_not_injective(corpus):
    # the transporter of a transitive action is equivalent to the
    # stabilizer: trivial for C3 on 3 points, C2 for S3, so over F_3 its
    # cohomology vanishes above degree 0 while H^1..3(C3) and H^3(S3) do not
    f3 = field_make(3, 1)
    res = restriction_map(transporter_projection(
        transporter_category(corpus["C3"], [0, 1, 2])), f3, 3)
    assert [(r["dim_source"], r["dim_target"], r["rank"], r["injective"])
            for r in res] == [(1, 1, 1, True)] + [(0, 1, 0, False)] * 3
    res = restriction_map(transporter_projection(
        transporter_category(corpus["S3"], [0, 1, 2])), f3, 3)
    r = res[3]
    assert (r["dim_source"], r["dim_target"], r["rank"], r["injective"]) == \
        (0, 1, 0, False)


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------


def test_radical_examples(corpus):
    A = group_algebra(corpus["C3"], 2)
    assert radical_and_semisimplicity(A) == (0, True)
    A = group_algebra(corpus["C2"], 2)
    assert radical_and_semisimplicity(A) == (1, False)
    A = group_algebra(corpus["S3"], 3)
    assert radical_and_semisimplicity(A) == (4, False)
    AP = category_algebra(poset_category(), field_make(2, 1))
    assert radical_and_semisimplicity(AP) == (1, False)


def test_maschke_on_small_corpus(corpus):
    for name in ["C2", "C3", "C4", "V4", "S3", "D8", "Q8"]:
        G = corpus[name]
        for p in (2, 3):
            A = group_algebra(G, p)
            if A.dim * A.field.m > 24:
                continue
            rad, ss = radical_and_semisimplicity(A)
            assert ss == (G.order % p != 0), (name, p)


# ---------------------------------------------------------------------------
# the Happel probe
# ---------------------------------------------------------------------------


def test_happel_probe_bc2(corpus):
    BG = one_object_category(corpus["C2"])
    v = happel_probe(BG, 2, 4)
    assert v.frobenius is not None and v.frobenius.symmetric
    assert not v.semisimple
    assert v.gldim == "infinite"
    assert v.hh_dims == [2, 2, 2, 2, 2]
    assert v.first_positive_nonvanishing == 1
    assert v.summand_ok
    assert v.happel_consistent


def test_happel_probe_transporter(corpus):
    T = transporter_category(corpus["C2"], [0, 1, 2], action="trivial")
    v = happel_probe(T, 2, 3)
    assert v.frobenius is not None and v.frobenius.symmetric
    assert not v.semisimple
    assert v.gldim == "infinite"
    assert v.hh_dims[1] > 0
    assert v.summand_ok
    assert v.happel_consistent


def test_happel_probe_discrete_vacuous():
    v = happel_probe(discrete_category(3), 5, 3)
    assert v.semisimple
    assert v.gldim == "0"
    assert v.hh_dims == [3, 0, 0, 0]
    assert v.happel_consistent


def test_happel_probe_poset():
    v = happel_probe(poset_category(), 2, 2)
    assert v.frobenius is None
    assert not v.semisimple
    assert v.gldim == "unknown"


def test_semisimple_probe_has_flat_hh(corpus):
    # semisimple: HH^n = 0 for n >= 1 and HH^0 = dim of the center
    BG = one_object_category(corpus["C3"])
    v = happel_probe(BG, 2, 3)
    assert v.semisimple
    assert v.hh_dims[0] == 3 and all(d == 0 for d in v.hh_dims[1:])
