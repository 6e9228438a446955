import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CORPUS_NAMES
from hh1lab import hhone
from hh1lab.errors import (DimCapExceeded, NegativeResult, NonDivisor,
                           TrivialSylow)
from hh1lab.ffield import field_make
from hh1lab.groupalgebra import (StructAlgebra, block_algebra,
                                 block_decompose, group_algebra)
from hh1lab.hhone import (additive_oracle, bookkeeping_subtract,
                          cocycle_space, cyclic_formula, derivation_space,
                          hh1_blocks, kuenneth_hh1,
                          principal_inertial_quotient, verify_leibniz)
from hh1lab.hhone import _inner_derivation_rows
from hh1lab.permgroup import (Perm, centralizer, direct_product,
                              group_from_generators, p_rank_abelianization)
from test_permindex import PROPERTY, groups


def ground_field_algebra(p=2):
    spec = field_make(p, 1)
    return StructAlgebra(spec, 1, ["e"], {(0, 0): ((0, spec.one),)},
                         (spec.one,))


# ---------------------------------------------------------------------------
# derivation solver
# ---------------------------------------------------------------------------


def test_derivations_of_the_ground_field():
    ds = derivation_space(ground_field_algebra())
    assert ds.der_dim == 0 and ds.hh1_dim == 0 and ds.center_dim == 1


def test_derivations_kc2(corpus):
    A = group_algebra(corpus["C2"], 2)
    ds = derivation_space(A)
    assert (ds.der_dim, ds.center_dim, ds.hh1_dim) == (2, 2, 2)
    for mat in ds.basis:
        assert verify_leibniz(A, mat)


def test_derivations_kc3_at_3(corpus):
    A = group_algebra(corpus["C3"], 3)
    ds = derivation_space(A)
    assert ds.hh1_dim == 3
    assert additive_oracle(corpus["C3"], 3) == 3


def test_leibniz_holds_for_every_basis_matrix(corpus):
    for name, p in [("V4", 2), ("S3", 2), ("S3", 3), ("C4", 2)]:
        A = group_algebra(corpus[name], p)
        ds = derivation_space(A)
        for mat in ds.basis:
            assert verify_leibniz(A, mat)


def test_inner_dimension_identity(corpus):
    # dim Inn = dim A - dim Z(A) is implied by der - hh1
    for name, p in [("S3", 2), ("D8", 2), ("A4", 2), ("Q8", 2)]:
        A = group_algebra(corpus[name], p)
        ds = derivation_space(A)
        assert ds.der_dim - ds.hh1_dim == A.dim - ds.center_dim


def _assert_solvers_agree(G, p):
    # the class-by-class cocycle solve against the general Leibniz solve:
    # D -> D(g) g^-1 matches derivations with cocycles, and the class
    # terms sum to HH^1
    A = group_algebra(G, p)
    general = derivation_space(A)
    cocycles = cocycle_space(A)
    assert len(cocycles.cocycles) == general.der_dim
    assert sum(cocycles.class_terms) == general.hh1_dim


@pytest.mark.parametrize("name,p", [
    ("C2", 2), ("C3", 3), ("C3", 2), ("C4", 2), ("S3", 2), ("S3", 3),
    ("V4", 2), ("D8", 2), ("Q8", 2), ("A4", 3)])
def test_general_solver_equals_propagation(name, p, corpus):
    _assert_solvers_agree(corpus[name], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_general_solver_equals_propagation_on_c2_cubed(p):
    # C2^3 has rank 3, so the greedy search picks three generators
    swaps = [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]
    G = group_from_generators(6, [Perm(g) for g in swaps])
    assert G.order == 8
    _assert_solvers_agree(G, p)


@PROPERTY
@given(G=groups(5, 24, aim=12), p=st.sampled_from([2, 3, 5]))
def test_general_solver_equals_propagation_on_generated_groups(G, p):
    _assert_solvers_agree(G, p)


@PROPERTY
@given(G=groups(6, 120), p=st.sampled_from([2, 3, 5]))
def test_class_terms_are_the_centralizer_p_ranks(G, p):
    # Shapiro: H^1(G, k[x]) = Hom(C_G(x), k), the oracle's term for x
    terms = cocycle_space(group_algebra(G, p)).class_terms
    for cl, term in zip(G.conjugacy_classes(), terms, strict=True):
        rank = p_rank_abelianization(centralizer(G, cl.representative), p)
        assert term == rank, cl.representative


def _dense_inner_derivation_rows(A):
    """The reference: each ad(e_a) filled in as a dense n x n matrix, then
    flattened column-major and stripped of zeros."""
    spec = A.field
    n = A.dim
    rows = []
    for a in range(n):
        mat = [[spec.zero] * n for _ in range(n)]
        for j in range(n):
            for k, c in A.sc[a, j]:
                mat[k][j] = spec.add(mat[k][j], c)
            for k, c in A.sc[j, a]:
                mat[k][j] = spec.sub(mat[k][j], c)
        rows.append({j * n + k: mat[k][j] for j in range(n)
                     for k in range(n) if not spec.is_zero(mat[k][j])})
    return rows


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_inner_derivation_rows_equal_the_dense_construction(name, p, corpus):
    G = corpus[name]
    A = group_algebra(G, p)
    # block algebras have structure constants with several terms
    algebras = [A] + [block_algebra(A, b) for b in block_decompose(A, G, p)
                      if G.order <= 12]
    for B in algebras:
        assert _inner_derivation_rows(B) == _dense_inner_derivation_rows(B)


def test_solver_cap(monkeypatch, corpus):
    monkeypatch.setattr(hhone, "SPARSE_DIM_CAP", 5)
    spec = field_make(2, 1)
    with pytest.raises(DimCapExceeded):
        dummy = StructAlgebra(spec, 10, [str(i) for i in range(10)],
                              {}, tuple([spec.zero] * 10))
        derivation_space(dummy)
    A = group_algebra(corpus["S3"], 2)
    with pytest.raises(DimCapExceeded, match="^dim 6 exceeds the solver "
                                             "cap 5$"):
        cocycle_space(A)
    assert A.sc._table is None  # refused before the product table


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def test_oracle_cyclic_groups(corpus):
    assert additive_oracle(corpus["C2"], 2) == 2
    assert additive_oracle(corpus["C3"], 3) == 3


def test_oracle_v4_and_d8(corpus):
    assert additive_oracle(corpus["V4"], 2) == 8
    assert additive_oracle(corpus["D8"], 2) == 9


def test_oracle_at_a_prime_far_above_the_element_orders(corpus):
    assert additive_oracle(corpus["S3"], 2147483647) == 0


def test_oracle_matches_solver_smoke(corpus):
    for name, p in [("C2", 2), ("C3", 3), ("V4", 2), ("D8", 2), ("Q8", 2)]:
        A = group_algebra(corpus[name], p)
        assert derivation_space(A).hh1_dim == additive_oracle(corpus[name], p)


# ---------------------------------------------------------------------------
# block-level reports
# ---------------------------------------------------------------------------


def test_hh1_blocks_s3(corpus):
    rep = hh1_blocks(corpus["S3"], 2, name="S3")
    assert rep.total_hh1 == 2
    assert [(r.dim, r.hh1_dim) for r in rep.per_block] == [(2, 2), (4, 0)]
    assert rep.consistency["oracle_equals_solver"]
    assert rep.consistency["block_sum_equals_whole"]

    rep3 = hh1_blocks(corpus["S3"], 3, name="S3")
    assert [(r.dim, r.hh1_dim) for r in rep3.per_block] == [(6, 1)]
    # the cyclic-block formula with |P| = 3, |E| = 2 predicts this block
    assert cyclic_formula(3, 2) == rep3.per_block[0].hh1_dim


def test_hh1_blocks_a4(corpus):
    rep = hh1_blocks(corpus["A4"], 2, name="A4")
    assert rep.total_hh1 == 2
    assert [r.hh1_dim for r in rep.per_block] == [2]


def test_defect_zero_blocks_have_zero_hh1(corpus):
    for name, p in [("S3", 2), ("S4", 3)]:
        rep = hh1_blocks(corpus[name], p, name=name)
        for row in rep.per_block:
            if row.defect == 0:
                assert row.hh1_dim == 0


def test_nonvanishing_report(corpus):
    rep = hh1_blocks(corpus["S3"], 2, name="S3")
    assert rep.counterexamples == []
    # principal block verdict true; defect-zero block exempt
    verdicts = dict((i, flag) for i, d, flag in rep.verdicts)
    assert verdicts[0] is True
    assert verdicts[1] is None


def test_vacuous_verdicts_when_p_coprime(corpus):
    rep = hh1_blocks(corpus["S3"], 5, name="S3")
    assert all(flag is None for _, _, flag in rep.verdicts)
    assert rep.counterexamples == []


def test_over_cap_block_reported_and_oracle_fills_total(corpus, monkeypatch):
    # with an artificially tiny solver cap, kG itself is over the cap, so
    # every block errors but the oracle still supplies the total
    monkeypatch.setattr(hhone, "SPARSE_DIM_CAP", 3)
    rep = hh1_blocks(corpus["S3"], 2, name="S3")
    assert [(r.dim, r.hh1_dim, r.error) for r in rep.per_block] == [
        (2, None, "dim 6 exceeds the solver cap 3"),
        (4, None, "dim 6 exceeds the solver cap 3")]
    assert rep.total_hh1 == 2  # from the oracle
    assert rep.consistency["oracle_total"] == 2
    # the blocked rows get no verdict
    assert [f for _, _, f in rep.verdicts] == [None, None]


# ---------------------------------------------------------------------------
# Kuenneth, cyclic formula, bookkeeping, Klein-four dimensions
# ---------------------------------------------------------------------------


def test_kuenneth_with_ground_field():
    assert kuenneth_hh1(5, 7, 0, 1) == 5


def test_kuenneth_c2_c2_matches_v4_solver(corpus):
    A = group_algebra(corpus["C2"], 2)
    ds = derivation_space(A)
    z = ds.center_dim
    predicted = kuenneth_hh1(ds.hh1_dim, z, ds.hh1_dim, z)
    assert predicted == 8
    AV = group_algebra(corpus["V4"], 2)
    assert derivation_space(AV).hh1_dim == predicted


def test_kuenneth_s3_c3_at_3(corpus):
    S3, C3 = corpus["S3"], corpus["C3"]
    a = derivation_space(group_algebra(S3, 3))
    b = derivation_space(group_algebra(C3, 3))
    predicted = kuenneth_hh1(a.hh1_dim, a.center_dim, b.hh1_dim, b.center_dim)
    assert predicted == 12
    P = direct_product(S3, C3)
    assert derivation_space(group_algebra(P, 3)).hh1_dim == 12


@pytest.mark.parametrize("a,b,p", [
    ("C2", "C2", 2), ("C2", "V4", 2), ("C3", "C3", 2), ("S3", "C3", 3),
    ("S3", "S3", 2)])
def test_kuenneth_matches_solver_on_tensor_algebra(a, b, p, corpus):
    # the identity against the solver run directly on the tensor algebra
    # (factors share a splitting field in each of these pairs)
    from hh1lab.groupalgebra import tensor_algebra
    A = group_algebra(corpus[a], p)
    B = group_algebra(corpus[b], p)
    da, db = derivation_space(A), derivation_space(B)
    predicted = kuenneth_hh1(da.hh1_dim, da.center_dim,
                             db.hh1_dim, db.center_dim)
    T = tensor_algebra(A, B)
    assert derivation_space(T).hh1_dim == predicted


@settings(PROPERTY, max_examples=20)
@given(G=groups(5, 60), H=groups(5, 60), p=st.sampled_from([2, 3]))
def test_kuenneth_on_products_of_generated_groups(G, H, p):
    # HH^1(kG (x) kH) = HH^1(kG) Z(kH) + Z(kG) HH^1(kH) in dimensions, and
    # dim Z(kG) is the class count
    assume(G.order * H.order <= 256)
    hh1 = [hh1_blocks(X, p, run_oracle=False).total_hh1
           for X in (G, H, direct_product(G, H))]
    k = [len(X.conjugacy_classes()) for X in (G, H)]
    assert hh1[2] == kuenneth_hh1(hh1[0], k[0], hh1[1], k[1])


def test_cyclic_formula():
    assert cyclic_formula(3, 2) == 1
    assert cyclic_formula(5, 2) == 2
    with pytest.raises(NonDivisor):
        cyclic_formula(5, 3)


def test_cyclic_formula_nilpotent_case_documented(corpus):
    # with trivial inertial quotient the as-stated formula predicts p-1,
    # while the direct solve of the full cyclic group algebra measures p;
    # the formula is therefore only applied with nontrivial E
    A = group_algebra(corpus["C3"], 3)
    assert derivation_space(A).hh1_dim == 3
    assert cyclic_formula(3, 1) == 2


def test_principal_inertial_quotients(corpus):
    assert principal_inertial_quotient(corpus["S3"], 3) == 2
    assert principal_inertial_quotient(corpus["S3"], 2) == 1
    assert principal_inertial_quotient(corpus["A4"], 2) == 3
    with pytest.raises(TrivialSylow):
        principal_inertial_quotient(corpus["S3"], 5)


def test_bookkeeping():
    assert bookkeeping_subtract(7, [1, 1, 1]) == 4
    assert bookkeeping_subtract(17, [8]) == 9
    assert bookkeeping_subtract(5, []) == 5
    with pytest.raises(NegativeResult):
        bookkeeping_subtract(3, [2, 2])


def test_klein_four_dims(corpus):
    # a Klein-four block has HH^1 of dim 8 with one simple module (kV4) and
    # 2 with three (the principal block of kA4 at 2)
    assert derivation_space(group_algebra(corpus["V4"], 2)).hh1_dim == 8
    G = corpus["A4"]
    A = group_algebra(G, 2)
    b = block_decompose(A, G, 2)[0]
    B = block_algebra(A, b)
    assert derivation_space(B).hh1_dim == 2
