import pytest

from hh1lab.errors import (InvalidPermutation, NotAMember, NotASubgroup,
                           OrderCapExceeded)
from hh1lab.ffield import p_adic_valuation
from hh1lab.permgroup import (Perm, centralizer, conjugacy_classes,
                              direct_product, format_group_file,
                              group_from_generators, normalizer,
                              p_rank_abelianization, parse_group_file,
                              sylow_subgroup)


def S3():
    return group_from_generators(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])


def A4():
    return group_from_generators(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])


def V4():
    return group_from_generators(4, [Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])


def test_orders():
    assert S3().order == 6
    assert V4().order == 4
    assert A4().order == 12


def test_perm_validation():
    with pytest.raises(InvalidPermutation):
        Perm([0, 0, 1])
    with pytest.raises(InvalidPermutation):
        group_from_generators(3, [Perm([1, 0])])


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        group_from_generators(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])],
                              order_cap=10)


def test_conjugacy_class_sizes():
    assert sorted(c.size for c in conjugacy_classes(S3())) == [1, 2, 3]
    assert sorted(c.size for c in conjugacy_classes(V4())) == [1, 1, 1, 1]
    assert sorted(c.size for c in conjugacy_classes(A4())) == [1, 3, 4, 4]


def test_class_equation_and_orbit_stabilizer(corpus):
    for name, G in corpus.items():
        classes = G.conjugacy_classes()
        assert sum(c.size for c in classes) == G.order
        for c in classes:
            assert c.size * c.centralizer_order == G.order
            # centralizer_order matches an explicit scan
            C = centralizer(G, c.representative)
            assert C.order == c.centralizer_order


def test_centralizer_examples():
    G = A4()
    C = centralizer(G, Perm([1, 0, 3, 2]))
    assert C.order == 4
    G3 = S3()
    assert centralizer(G3, Perm([1, 2, 0])).order == 3
    assert centralizer(G3, Perm([0, 1, 2])) is G3  # identity: whole group


def test_centralizer_membership_error():
    with pytest.raises(NotAMember):
        centralizer(S3(), Perm([1, 2, 3, 0]))


def test_sylow_examples():
    assert sylow_subgroup(S3(), 3).order == 3
    P = sylow_subgroup(A4(), 2)
    assert P.order == 4
    assert sorted(c.size for c in P.conjugacy_classes()) == [1, 1, 1, 1]
    assert sylow_subgroup(S3(), 5).order == 1


def test_sylow_invariants(corpus):
    for name, G in corpus.items():
        for p in (2, 3, 5):
            P = sylow_subgroup(G, p)
            assert P.order == p ** p_adic_valuation(G.order, p)
            for i in range(P.order):
                o = P.element(i).order()
                assert o == p ** p_adic_valuation(o, p)


def test_p_rank_examples():
    C2 = group_from_generators(2, [Perm([1, 0])])
    assert p_rank_abelianization(C2, 2) == 1
    assert p_rank_abelianization(S3(), 2) == 1
    assert p_rank_abelianization(A4(), 2) == 0
    assert p_rank_abelianization(A4(), 3) == 1
    assert p_rank_abelianization(V4(), 2) == 2


def test_p_rank_vanishes_off_order(corpus):
    for name, G in corpus.items():
        for p in (2, 3, 5):
            if G.order % p != 0:
                assert p_rank_abelianization(G, p) == 0


def test_direct_products():
    C2 = group_from_generators(2, [Perm([1, 0])])
    C3 = group_from_generators(3, [Perm([1, 2, 0])])
    assert direct_product(C2, C2).order == 4
    assert direct_product(S3(), C3).order == 18
    P = direct_product(S3(), S3())
    assert P.order == 36
    assert len(P.conjugacy_classes()) == 9


def test_product_class_count_multiplicative(corpus):
    for a, b in [("C2", "S3"), ("C3", "V4"), ("S3", "C4")]:
        P = direct_product(corpus[a], corpus[b])
        assert (len(P.conjugacy_classes())
                == len(corpus[a].conjugacy_classes())
                * len(corpus[b].conjugacy_classes()))


def test_normalizers():
    G = S3()
    P3 = sylow_subgroup(G, 3)
    assert normalizer(G, P3).order == 6
    H = group_from_generators(3, [Perm([1, 0, 2])])
    assert normalizer(G, H).order == 2
    G4 = A4()
    V = group_from_generators(4, [Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])
    N = normalizer(G4, V)
    assert N.order == 12


def test_normalizer_contains_subgroup():
    G = A4()
    H = sylow_subgroup(G, 3)
    N = normalizer(G, H)
    assert H.is_subgroup_of(N)


def test_normalizer_requires_subgroup():
    C5 = group_from_generators(5, [Perm([1, 2, 3, 4, 0])])
    with pytest.raises(NotASubgroup):
        normalizer(S3(), C5)


def test_group_file_roundtrip():
    G = S3()
    text = format_group_file(3, G.generators, comment="three points")
    degree, gens = parse_group_file(text)
    G2 = group_from_generators(degree, gens)
    assert G2.order == 6
    assert [g.images for g in gens] == [g.images for g in G.generators]


def test_generator_matches_the_packaged_corpus(monkeypatch):
    # tools/gen_groups.py writes the desk groups' files and manifest
    # entries; import its GROUPS without running it or writing bytecode
    import importlib.util
    import sys
    from pathlib import Path
    from hh1lab.cli import CorpusManifest
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_groups.py"
    spec = importlib.util.spec_from_file_location("gen_groups", path)
    gen_groups = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_groups)
    manifest = CorpusManifest.packaged()
    desk = manifest.desk_entries()
    assert [e["name"] for e in desk] == list(gen_groups.GROUPS)
    for entry, (name, ((degree, gens), order, notes)) in zip(
            desk, gen_groups.GROUPS.items()):
        assert manifest.file_bytes(entry) == format_group_file(
            degree, gens, comment=notes).encode("utf-8")
        assert entry == {"name": name, "file": f"{name}.grp",
                         "order": order, "notes": notes, "stretch": False}


def test_group_file_errors():
    with pytest.raises(InvalidPermutation):
        parse_group_file("2 1 3\n")
    with pytest.raises(InvalidPermutation):
        parse_group_file("degree 3\n2 1\n")


def test_exponent_and_element_orders(corpus):
    for name, G in corpus.items():
        e = G.exponent()
        for cl in G.conjugacy_classes():
            assert e % cl.representative.order() == 0
        assert G.order % e == 0  # the exponent divides the order


def test_deterministic_enumeration():
    G1 = S3()
    G2 = S3()
    assert [tuple(r) for r in G1.element_rows()] == \
           [tuple(r) for r in G2.element_rows()]
    assert G1.element(0).order() == 1  # identity first


def test_concurrent_class_computation_single_result():
    from concurrent.futures import ThreadPoolExecutor
    G = group_from_generators(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: G.conjugacy_classes(), range(16)))
    first = results[0]
    assert all(r is first for r in results)
