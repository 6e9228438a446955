import pytest

from conftest import CORPUS_NAMES
from hh1lab import hhone
from hh1lab.errors import (DimCapExceeded, InvalidL, NegativeResult,
                           NonDivisor, TrivialSylow)
from hh1lab.ffield import field_make
from hh1lab.groupalgebra import (StructAlgebra, block_algebra,
                                 block_decompose, group_algebra)
from hh1lab.hhone import (additive_oracle, bookkeeping_subtract,
                          cyclic_formula, derivation_space, hh1_blocks,
                          klein_four_dims, kuenneth_hh1, lie_structure,
                          principal_inertial_quotient, verify_leibniz)
from hh1lab.hhone import (_derivations_general, _derivations_group_like,
                          _flatten, _inner_derivation_rows, _sparse)
from hh1lab.permgroup import direct_product


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


@pytest.mark.parametrize("name,p", [
    ("C2", 2), ("C3", 3), ("C3", 2), ("C4", 2), ("S3", 2), ("S3", 3),
    ("V4", 2), ("D8", 2), ("Q8", 2), ("A4", 3)])
def test_general_solver_equals_propagation(name, p, corpus):
    A = group_algebra(corpus[name], p)
    general = _derivations_general(A)
    fast = _derivations_group_like(A)
    assert [list(v) for v in general] == [list(v) for v in fast]


def _dense_inner_derivation_rows(A):
    """The reference: each ad(e_a) filled in as a dense n x n matrix, then
    flattened and stripped of zeros."""
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
        rows.append(_sparse(spec, _flatten(mat, n)))
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


def test_solver_cap(monkeypatch):
    monkeypatch.setattr(hhone, "SPARSE_DIM_CAP", 5)
    spec = field_make(2, 1)
    with pytest.raises(DimCapExceeded):
        dummy = StructAlgebra(spec, 10, [str(i) for i in range(10)],
                              {}, tuple([spec.zero] * 10))
        derivation_space(dummy)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def test_oracle_cyclic_groups(corpus):
    assert additive_oracle(corpus["C2"], 2) == 2
    assert additive_oracle(corpus["C3"], 3) == 3


def test_oracle_v4_and_d8(corpus):
    assert additive_oracle(corpus["V4"], 2) == 8
    assert additive_oracle(corpus["D8"], 2) == 9


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
    assert klein_four_dims(1) == 8
    assert klein_four_dims(3) == 2
    with pytest.raises(InvalidL):
        klein_four_dims(2)
    # cross-checks: kV4 has one simple module, the principal block of kA4
    # at 2 has three
    assert derivation_space(group_algebra(corpus["V4"], 2)).hh1_dim == 8
    G = corpus["A4"]
    A = group_algebra(G, 2)
    b = block_decompose(A, G, 2)[0]
    B = block_algebra(A, b)
    assert derivation_space(B).hh1_dim == 2


# ---------------------------------------------------------------------------
# Lie structure
# ---------------------------------------------------------------------------


def test_lie_structure_dim_one_is_abelian_solvable(corpus):
    A = group_algebra(corpus["S3"], 3)
    ls = lie_structure(derivation_space(A))
    assert ls.solvable
    assert ls.derived_series_lengths[-1] == 0


def test_lie_structure_kc2(corpus):
    A = group_algebra(corpus["C2"], 2)
    ds = derivation_space(A)
    ls = lie_structure(ds)
    spec = A.field
    # two-dimensional non-abelian: [D0, D1] = D0 in the canonical basis
    assert len(ls.hh1_basis) == 2
    assert ls.brackets[0][1] == (spec.one, spec.zero)
    assert ls.solvable
    assert ls.derived_series_lengths == [1, 0]


def test_lie_structure_kc3_at_3(corpus):
    # three-dimensional; alternation and Jacobi are asserted inside the
    # operation; this algebra of derivations is not solvable
    A = group_algebra(corpus["C3"], 3)
    ls = lie_structure(derivation_space(A))
    assert len(ls.hh1_basis) == 3
    assert not ls.solvable


def test_lie_structure_v4(corpus):
    A = group_algebra(corpus["V4"], 2)
    ls = lie_structure(derivation_space(A))
    assert len(ls.hh1_basis) == 8


# Full output of lie_structure: the representatives and structure constants
# are unique once the complement of the inner derivations is fixed, so any
# change to them shows here.  Matrices are written row by row and bracket
# coordinates block by block; every field here is prime, so each digit is
# one raw value.
LIE_PINS = {
    ("C2", 2): (
        ["0100",
         "0001"],
        ["00 10",
         "10 00"],
        [1, 0]),
    ("C3", 3): (
        ["010002000",
         "000010002",
         "002000010"],
        ["000 100 020",
         "200 000 001",
         "010 002 000"],
        [3]),
    ("S3", 3): (
        ["001010000101000020000002002000000200"],
        ["0"],
        [0]),
    ("V4", 2): (
        ["0100000000010000",
         "0000010000000001",
         "0001000001000000",
         "0000000100000100",
         "0010000100000000",
         "0001001000000000",
         "0000000000100001",
         "0000000000010010"],
        ["00000000 10000000 00000000 00100000 00000000 00001000 00000000 00000010",
         "10000000 00000000 00100000 00000000 00000000 00000100 00000000 00000001",
         "00000000 00100000 00000000 10000000 10000000 01000010 00100000 00011000",
         "00100000 00000000 10000000 00000000 01000000 10000001 00010000 00100100",
         "00000000 00000000 10000000 01000000 00000000 00000000 00001000 00000100",
         "00001000 00000100 01000010 10000001 00000000 00000000 00000100 00001000",
         "00000000 00000000 00100000 00010000 00001000 00000100 00000000 00000000",
         "00000010 00000001 00011000 00100100 00000100 00001000 00000000 00000000"],
        [8]),
}


@pytest.mark.parametrize("name,p", list(LIE_PINS))
def test_lie_structure_pinned(corpus, name, p):
    basis, brackets, lengths = LIE_PINS[name, p]
    A = group_algebra(corpus[name], p)
    assert A.field.m == 1
    ls = lie_structure(derivation_space(A))

    def digits(values):
        return "".join(str(v) for v in values)

    assert [digits(v for row in mat for v in row)
            for mat in ls.hh1_basis] == basis
    assert [" ".join(digits(br) for br in row)
            for row in ls.brackets] == brackets
    assert ls.derived_series_lengths == lengths
