import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splitfield
from hh1lab import ffield
from hh1lab.errors import (DegreeOutOfRange, DivisionByZero, NotPrime,
                           SplitFieldTooSmall)
from hh1lab.ffield import (echelon_insert, echelonize, field_make,
                           np_kernel_mod_p, np_rref_mod_p, poly_add,
                           poly_deriv, poly_divmod, poly_factor, poly_gcd,
                           poly_mod, poly_monic, poly_mul, poly_pow_mod,
                           poly_sub, poly_trim, rank_nullspace_raw,
                           sparse_rows)
from splitfield import ext_field


def make(p, m):
    """The package's F_p for m = 1, the reference GF(p^m) otherwise."""
    return field_make(p) if m == 1 else ext_field(p, m)


def factor_over(f):
    """The root finder for the field f: the package's over F_p, the
    reference's over GF(p^m)."""
    return poly_factor if f.m == 1 else splitfield.poly_factor


# ---------------------------------------------------------------------------
# field construction (GF(p^m), m > 1, is the reference's, `splitfield`)
# ---------------------------------------------------------------------------


def test_prime_field():
    f = field_make(2, 1)
    assert (f.p, f.m) == (2, 1)
    assert f.order == 2


def test_gf4_modulus_forced():
    # only one monic irreducible quadratic exists over two elements
    f = ext_field(2, 2)
    assert f.modulus == (1, 1, 1)


def brute_irreducible_quadratic(p):
    """Oracle: smallest monic quadratic with no root, scanning tails as
    little-endian base-p integers."""
    for value in range(p * p):
        c0, c1 = value % p, value // p
        if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
            return (c0, c1, 1)
    raise AssertionError


def test_gf9_modulus_matches_exhaustive_scan():
    assert ext_field(3, 2).modulus == brute_irreducible_quadratic(3)
    assert ext_field(3, 2).modulus == (1, 0, 1)


def test_field_make_reproducible():
    assert field_make(3) == field_make(3, 1)
    assert ext_field(3, 2) == ext_field(3, 2)
    assert ext_field(2, 8).modulus == ext_field(2, 8).modulus


def test_field_make_errors():
    with pytest.raises(NotPrime):
        field_make(6, 1)
    # the package computes over prime fields alone
    for m in (0, 2, 17):
        with pytest.raises(DegreeOutOfRange):
            field_make(2, m)


def test_field_make_checks_each_prime_once(capsys, monkeypatch):
    from hh1lab import cli, ffield
    checked = []
    is_prime = ffield.is_prime
    monkeypatch.setattr(ffield, "is_prime",
                        lambda n: checked.append(n) or is_prime(n))
    ffield._prime_field.cache_clear()
    assert cli.main(["hh1", "--group", "S3", "--prime", "4294967311",
                     "--method", "both"]) == 0
    assert checked == [4294967311]
    assert field_make(4294967311) is field_make(4294967311, 1)
    assert checked == [4294967311]
    for bad in (0, 1, 6, 4294967313, 2.0, 3.0, "5", None, [7]):
        with pytest.raises(NotPrime):
            field_make(bad)


def _scan_every_tail(p, m):
    """The lex-least scan from the first tail on, binomials included."""
    for value in range(p ** m, 2 * p ** m):
        f = splitfield._digits(value, p)
        if (splitfield._gf2p_irreducible(value) if p == 2
                else splitfield._irreducible(f, p)):
            return f
    raise AssertionError


@pytest.mark.parametrize("p", [p for p in range(60) if ffield.is_prime(p)])
def test_lex_least_modulus_equals_the_scan_of_every_tail(p):
    # the binomials t^m + c are skipped only where none is irreducible;
    # at degree 1, t itself comes first (the Rabin test needs m >= 2)
    assert splitfield._lex_least_irreducible(p, 1) == (0, 1)
    for m in range(2, 7):
        assert (splitfield._lex_least_irreducible(p, m)
                == _scan_every_tail(p, m))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3),
                                 (3, 2), (5, 2)])
def test_modulus_is_irreducible_by_brute_force(p, m):
    # no roots and no monic factor of degree <= m//2 (checked by trial
    # division over all low-degree monics)
    f = ext_field(p, m)
    mod = f.modulus

    def poly_eval(c, x):
        acc = 0
        for ci in reversed(c):
            acc = (acc * x + ci) % p
        return acc

    assert mod[-1] == 1 and len(mod) == m + 1
    if m == 1:
        return
    for x in range(p):
        assert poly_eval(mod, x) != 0
    # trial division by all monic polys of degree 2..m//2
    def all_monics(d):
        def rec(prefix):
            if len(prefix) == d:
                yield tuple(prefix) + (1,)
                return
            for c in range(p):
                yield from rec(prefix + [c])
        yield from rec([])

    def divides(g, f_):
        f_ = list(f_)
        while len(f_) >= len(g) and any(f_):
            f_ = [v % p for v in f_]
            while f_ and f_[-1] == 0:
                f_.pop()
            if len(f_) < len(g):
                break
            lead = f_[-1]
            shift = len(f_) - len(g)
            for i, gi in enumerate(g):
                f_[shift + i] = (f_[shift + i] - lead * gi) % p
            f_.pop()
        return not any(v % p for v in f_)

    for d in range(2, m // 2 + 1):
        for g in all_monics(d):
            assert not divides(g, mod)


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_gf4_multiplication_against_polynomial_reduction():
    f = ext_field(2, 2)
    # t*(t+1) = t^2+t = (t+1)+t = 1 because t^2 = t+1
    assert f.mul(0b10, 0b11) == 1


def test_unit_law_all_elements():
    for p, m in [(2, 2), (3, 1), (3, 2), (5, 1)]:
        f = make(p, m)
        for x in range(f.order):
            assert f.mul(f.one, x) == x


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
def test_field_axioms_sampled(p, m):
    f = ext_field(p, m)
    rng = random.Random(7)
    els = list(f.elements())
    for _ in range(60):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.frobenius(a) == f.pow(a, p)
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one


# one field of each kind: prime, GF(2^m), log tables, digit vectors
@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (2, 180), (5, 2),
                                 (3, 11)])
def test_division_by_zero(p, m):
    f = make(p, m)
    with pytest.raises(DivisionByZero):
        f.inv(f.zero)


# ---------------------------------------------------------------------------
# polynomial factorisation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_factor_products_reassemble(p, m):
    # products of random linear factors, with multiplicities up to 2p so
    # that multiples of p, which f' does not see, occur
    f = make(p, m)
    rng = random.Random(13)
    for _ in range(50):
        roots = rng.sample(range(f.order),
                           rng.randrange(1, min(f.order, 4) + 1))
        mults = [rng.randrange(1, 2 * p + 1) for _ in roots]
        lead = rng.randrange(1, f.order)
        poly = [lead]
        for root, mult in zip(roots, mults):
            for _ in range(mult):
                poly = poly_mul(f, poly, [f.neg(root), f.one])
        factors = factor_over(f)(f, poly, seed=3)
        assert factors == sorted(factors)
        assert sorted((irr[0], mult) for irr, mult in factors) == \
            sorted((f.neg(root), mult) for root, mult in zip(roots, mults))
        acc = [f.one]
        for irr, mult in factors:
            assert len(irr) == 2 and irr[-1] == f.one  # monic linear
            for _ in range(mult):
                acc = poly_mul(f, acc, list(irr))
        assert acc == poly_monic(f, poly)


@pytest.mark.parametrize("p,poly", [(2, [1, 1, 1]), (3, [1, 0, 1]),
                                    (3, [1, 1, 1, 1])])
def test_factor_without_enough_roots_is_refused(p, poly):
    # t^2+t+1 over GF(2) and t^2+1 over GF(3) are irreducible; the cubic
    # is (t+1)(t^2+1) over GF(3): one root, then nothing left to find
    with pytest.raises(SplitFieldTooSmall):
        poly_factor(field_make(p, 1), poly)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 23]),
       factors=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)),
                        min_size=1, max_size=4),
       roots=st.lists(st.integers(0, 22), max_size=3))
def test_distinct_degrees_of_products_of_irreducibles(p, factors, roots):
    # field_make's moduli are irreducible over F_p, one per degree, so a
    # degree drawn twice, or a multiplicity above one, repeats a factor
    spec = ext_field(p, 1)
    f = [1]
    for degree, mult in factors:
        for _ in range(mult):
            f = poly_mul(spec, f, list(ext_field(p, degree).modulus))
    for r in roots:  # t - r: a linear factor, perhaps a repeated one
        f = poly_mul(spec, f, [-r % p, 1])
    expected = {d for d, _ in factors} | ({1} if roots else set())
    assert splitfield.distinct_degrees(spec, f) == expected


def _reference_equal_degree(spec, f, rng):
    # Cantor-Zassenhaus whose trace map squares by poly_mul and whose
    # odd-p power is poly_pow_mod
    if len(f) == 2:
        return [f]
    while True:
        r = poly_trim(spec, [rng.randrange(spec.order) for _ in f[1:]])
        if not r:
            continue
        if spec.p == 2:
            t = acc = poly_mod(spec, r, f)
            for _ in range(spec.m - 1):
                t = poly_mod(spec, poly_mul(spec, t, t), f)
                acc = poly_add(spec, acc, t)
            g = poly_gcd(spec, f, acc)
        else:
            w = poly_pow_mod(spec, r, (spec.order - 1) // 2, f)
            g = poly_gcd(spec, f, poly_sub(spec, w, [spec.one]))
        if 1 < len(g) < len(f):
            return (_reference_equal_degree(spec, g, rng)
                    + _reference_equal_degree(
                        spec, poly_divmod(spec, f, g)[0], rng))


def _reference_factor(spec, f, seed):
    """Root finding as poly_factor does it, with x^q mod s formed by
    poly_pow_mod instead of Frobenius steps."""
    rng = random.Random(seed)
    f = poly_monic(spec, f)
    x = [spec.zero, spec.one]
    factors = []
    while len(f) > 1:
        df = poly_deriv(spec, f)
        s = poly_divmod(spec, f, poly_gcd(spec, f, df))[0] if df else f
        r = poly_gcd(spec, s, poly_sub(
            spec, poly_pow_mod(spec, x, spec.order, s), x))
        if len(r) == 1:
            raise SplitFieldTooSmall("no root")
        for lin in _reference_equal_degree(spec, r, rng):
            mult = 0
            quo, rem = poly_divmod(spec, f, lin)
            while not rem:
                f, mult = quo, mult + 1
                quo, rem = poly_divmod(spec, f, lin)
            factors.append((tuple(lin), mult))
    return sorted(factors, key=lambda fm: (len(fm[0]), fm[0], fm[1]))


LARGE_FIELDS = [(2, 61), (2, 180), (3, 11)]  # gf2, gf2, poly kind


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_factor_over_large_fields_matches_the_reference(p, m):
    # random roots with multiplicities up to 2p over fields whose
    # elements have no table; equal to the poly_pow_mod reference
    f = ext_field(p, m)
    rng = random.Random(17)
    for _ in range(8):
        roots = {rng.randrange(f.order) for _ in range(rng.randrange(1, 5))}
        mults = {root: rng.randrange(1, 2 * p + 1) for root in roots}
        poly = [rng.randrange(1, f.order)]
        for root, mult in mults.items():
            for _ in range(mult):
                poly = poly_mul(f, poly, [f.neg(root), f.one])
        seed = rng.randrange(100)
        factors = splitfield.poly_factor(f, poly, seed=seed)
        assert factors == _reference_factor(f, poly, seed)
        assert sorted((irr[0], mult) for irr, mult in factors) == \
            sorted((f.neg(root), mult) for root, mult in mults.items())


def _irreducible_quadratic(f, rng):
    """t^2 + t + a with Tr(a) = 1 over GF(2^m), t^2 - n with n a
    non-square over odd GF(q): both have no root in f."""
    while True:
        a = rng.randrange(1, f.order)
        if f.p == 2:
            trace, x = 0, a
            for _ in range(f.m):
                trace, x = f.add(trace, x), f.mul(x, x)
            if trace == f.one:
                return [a, f.one, f.one]
        elif f.pow(a, (f.order - 1) // 2) != f.one:
            return [f.neg(a), f.zero, f.one]


@pytest.mark.parametrize("p,m", [(2, 180), (3, 11)])
@pytest.mark.parametrize("linear_factors", [0, 2])
def test_factor_over_large_fields_refuses_a_quadratic_without_roots(
        p, m, linear_factors):
    f = ext_field(p, m)
    rng = random.Random(5)
    poly = _irreducible_quadratic(f, rng)
    for _ in range(linear_factors):
        poly = poly_mul(f, poly, [rng.randrange(f.order), f.one])
    with pytest.raises(SplitFieldTooSmall):
        splitfield.poly_factor(f, poly)
    with pytest.raises(SplitFieldTooSmall):
        _reference_factor(f, poly, 0)


def test_factor_deterministic_under_seed():
    f = field_make(7)
    poly = [1]
    for root in (1, 2, 2, 5, 6):  # Cantor-Zassenhaus draws at random
        poly = poly_mul(f, poly, [f.neg(root), f.one])
    assert poly_factor(f, poly, seed=5) == poly_factor(f, poly, seed=5)
    assert poly_factor(f, poly, seed=5) == poly_factor(f, poly, seed=6)


# ---------------------------------------------------------------------------
# rank / nullspace
# ---------------------------------------------------------------------------


def test_zero_and_identity_matrices():
    f = field_make(2, 1)
    rank, basis = rank_nullspace_raw([{}, {}, {}], 3, f)
    assert rank == 0 and basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ident = [{0: 1}, {1: 1}, {2: 1}]
    rank, basis = rank_nullspace_raw(ident, 3, f)
    assert rank == 3 and basis == []


def test_kernel_of_2x3_gf2_example_by_enumeration():
    f = field_make(2, 1)
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    # oracle: enumerate all 8 vectors of GF(2)^3
    expected = []
    for v0 in (0, 1):
        for v1 in (0, 1):
            for v2 in (0, 1):
                if (v0 + v1) % 2 == 0 and (v1 + v2) % 2 == 0:
                    if (v0, v1, v2) != (0, 0, 0):
                        expected.append((v0, v1, v2))
    assert expected == [(1, 1, 1)]
    rank, basis = rank_nullspace_raw(rows, 3, f)
    assert rank == 2
    assert basis == [[1, 1, 1]]


def field_tables(f):
    """Sum and product tables of f as int arrays, from `FieldSpec`."""
    q = f.order
    add = np.array([[f.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[f.mul(a, b) for b in range(q)] for a in range(q)])
    return add, mul


def enumerate_span(vectors, dim, f):
    """Every f-combination of the given vectors of length dim."""
    add, mul = field_tables(f)
    vectors = np.asarray(vectors, dtype=np.int64).reshape(-1, dim)
    k = len(vectors)
    coeffs = np.array(list(itertools.product(range(f.order), repeat=k)),
                      dtype=np.int64).reshape(f.order ** k, k)
    span = np.zeros((len(coeffs), dim), dtype=np.int64)
    for j, vec in enumerate(vectors):
        span = add[span, mul[coeffs[:, j:j + 1], vec]]
    return {tuple(v) for v in span.tolist()}


def enumerate_kernel(rows, cols, f):
    """Every vector of f^cols that each row annihilates."""
    add, mul = field_tables(f)
    space = np.array(list(itertools.product(range(f.order), repeat=cols)),
                     dtype=np.int64).reshape(-1, cols)
    keep = np.ones(len(space), dtype=bool)
    for row in rows:
        dot = np.zeros(len(space), dtype=np.int64)
        for c, v in enumerate(row):
            dot = add[dot, mul[v, space[:, c]]]
        keep &= dot == 0
    return {tuple(v) for v in space[keep].tolist()}


def brute_rref(space):
    """The RREF basis of an enumerated subspace, read off without
    elimination: per leading column, the one member with a leading 1 there
    and zeros at the other leading columns."""
    def lead(v):
        return next(i for i, x in enumerate(v) if x)

    nonzero = [v for v in space if any(v)]
    leads = sorted({lead(v) for v in nonzero})
    basis = []
    for c in leads:
        match = [list(v) for v in nonzero if lead(v) == c and v[c] == 1
                 and all(v[d] == 0 for d in leads if d != c)]
        assert len(match) == 1
        basis += match
    return basis


# q -> (row bound, column bound), small enough to enumerate F_q^cols
ENUMERATION_FIELDS = {2: (8, 8), 3: (8, 8), 5: (6, 6)}


@pytest.mark.parametrize("q", sorted(ENUMERATION_FIELDS))
def test_elimination_against_enumeration(q):
    # brute force over F_q^cols is the reference for the sparse path and
    # for both dense front ends
    p = q
    max_rows, max_cols = ENUMERATION_FIELDS[q]
    f = field_make(p)
    rng = random.Random(100 + q)
    # entries outside [0, p) check the reduction mod p
    low, high = -p, 2 * p
    # no rows at all, and rows that are all zero
    cases = [np.zeros((0, 4), dtype=np.int64),
             np.zeros((3, 5), dtype=np.int64)]
    for _ in range(40):
        rows, cols = rng.randrange(0, max_rows), rng.randrange(1, max_cols)
        cases.append(np.array([rng.randrange(low, high)
                               for _ in range(rows * cols)],
                              dtype=np.int64).reshape(rows, cols))
    for dense in cases:
        cols = dense.shape[1]
        reduced = dense % q
        annihilated = enumerate_kernel(reduced.tolist(), cols, f)
        expected_kernel = brute_rref(annihilated)
        expected_rref = brute_rref(enumerate_span(reduced, cols, f))

        raw_rows = [{c: int(v) for c, v in enumerate(r) if v} for r in reduced]
        rank, basis = rank_nullspace_raw(raw_rows, cols, f)
        assert len(annihilated) == q ** (cols - rank)
        assert enumerate_span(basis, cols, f) == annihilated
        assert basis == expected_kernel
        pivots, rowlist = echelonize(raw_rows, cols, f)
        assert [[rowlist[pivots[c]].get(i, 0) for i in range(cols)]
                for c in sorted(pivots)] == expected_rref
        kernel = np_kernel_mod_p(dense, p)
        assert kernel.shape == (cols - rank, cols)
        assert kernel.tolist() == expected_kernel

        rref, pivots = np_rref_mod_p(dense, p)
        assert rref.shape == dense.shape
        assert len(pivots) == len(expected_rref) == rank
        assert rref[:rank].tolist() == expected_rref
        assert pivots == [row.index(1) for row in expected_rref]
        assert not rref[rank:].any()


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_sparse_rows_matches_a_row_by_row_scan(dtype):
    rng = np.random.default_rng(7)
    for shape in [(0, 3), (4, 0), (5, 6), (9, 2)]:
        mat = (rng.integers(0, 5, shape) * (rng.random(shape) < 0.4)
               ).astype(dtype)
        expected = [{c: int(row[c]) for c in np.flatnonzero(row)}
                    for row in mat]
        got = sparse_rows(mat)
        assert [list(r.items()) for r in got] == \
            [list(r.items()) for r in expected]


def sparse_systems(f):
    """Hypothesis strategy: (rows, ncols), sparse rows of raw nonzeros."""
    return st.integers(1, 12).flatmap(lambda ncols: st.tuples(
        st.lists(st.dictionaries(st.integers(0, ncols - 1),
                                 st.integers(1, f.order - 1),
                                 max_size=ncols), max_size=14),
        st.just(ncols)))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_only_is_the_pivot_count(p, m, data):
    # rank-only calls skip back-reduction and may eliminate the transpose
    f = field_make(p, m)
    rows, ncols = data.draw(sparse_systems(f))
    rank, basis = rank_nullspace_raw(rows, ncols, f, want_basis=False)
    assert basis is None
    assert rank == len(echelonize(rows, ncols, f)[0])
    assert rank == ncols - len(rank_nullspace_raw(rows, ncols, f)[1])


# the large primes guard against tables of all p - 1 multiples of a row
PACKED_PRIMES = [2, 3, 5, 7, 251, 2 ** 31 - 1, 2 ** 61 - 1]


def _echelon_generic(rows_iter, spec, reduced):
    """Insertion echelon over any FieldSpec, by `echelon_insert`.

    Returns (pivots dict col->index, rowlist) where each row is a dict
    col->raw with leading coefficient one; with ``reduced`` the rows are
    back-reduced, so they are the unique RREF.
    """
    pivots = {}
    rowlist = []
    for row in rows_iter:
        echelon_insert({c: v for c, v in row.items() if v}, pivots, rowlist,
                       spec)
    if reduced:
        # rows of larger lead are reduced first, so they hold no pivot
        # column but their own: the pivot columns of prow are fixed up front
        for lead in sorted(pivots, reverse=True):
            prow = rowlist[pivots[lead]]
            for lead2 in sorted(c for c in prow if c > lead and c in pivots):
                ffield._subtract(prow, prow[lead2], rowlist[pivots[lead2]],
                                 spec)
    return pivots, rowlist


@st.composite
def dependent_systems(draw, p):
    """(rows, ncols): sparse systems over F_p whose later rows mix earlier
    ones, so that ranks fall short at every p.  Narrow draws are tall or
    wide; wide sparse draws of 60-300 columns span several machine words
    of a packed row.  Some rows hold explicit raw zeros, which elimination
    ignores."""
    wide = draw(st.booleans())
    ncols = draw(st.integers(60, 300) if wide else st.integers(1, 10))
    tall = not wide and draw(st.booleans())
    nrows = draw(st.integers(ncols + 1, 2 * ncols + 4) if tall
                 else st.integers(0, 24 if wide else ncols))
    values = st.integers(1, p - 1)
    columns = st.integers(0, ncols - 1)
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(values), draw(st.integers(0, p - 1))
            mixed = {c: (x * a.get(c, 0) + y * b.get(c, 0)) % p
                     for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in sorted(mixed.items()) if v})
        else:
            rows.append(draw(st.dictionaries(columns, values,
                                             max_size=8 if wide else ncols)))
        if draw(st.integers(0, 3)) == 0:
            rows[-1] |= dict.fromkeys(draw(st.lists(columns, max_size=3)), 0)
    return rows, ncols


@pytest.mark.parametrize("p", PACKED_PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_elimination_matches_the_dict_kernel(p, data):
    # field_make's trial division would take minutes to certify 2^61 - 1
    f = ffield.FieldSpec(p)
    rows, ncols = data.draw(dependent_systems(p))
    reference = _echelon_generic(rows, f, True)
    pivots, rowlist = ffield._echelon_packed(rows, p, True)
    assert list(pivots.items()) == list(reference[0].items())
    assert rowlist == reference[1]
    assert all(list(row) == sorted(row) for row in rowlist)
    assert (list(ffield._echelon_packed(rows, p, False)[0].items())
            == list(_echelon_generic(rows, f, False)[0].items()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "echelonize",
                   lambda rows, ncols, f: _echelon_generic(rows, f, True))
        kernel = ffield.kernel_from_echelon(*reference, ncols, f)
    rank, basis = rank_nullspace_raw(rows, ncols, f)
    assert (rank, basis) == (len(pivots), kernel)
    assert rank_nullspace_raw(iter(rows), ncols, f,
                              want_basis=False) == (rank, None)
    assert len(basis) == ncols - rank
    assert all(sum(v * vec[c] for c, v in row.items()) % p == 0
               for row in rows for vec in basis)


# ---------------------------------------------------------------------------
# the reference's odd extension fields against coefficient-vector arithmetic
# ---------------------------------------------------------------------------

# GF(3^11) is above the log-table bound and multiplies digit vectors
ODD_EXTENSIONS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 11)]
FIELD_PROPERTY = settings(max_examples=60, deadline=None)


def ref_vec(f, a):
    """Coefficients of the element a: its base-p digits, constant first."""
    return [a // f.p ** i % f.p for i in range(f.m)]


def ref_int(f, vec):
    return sum(c * f.p ** i for i, c in enumerate(vec))


def ref_mul(f, a, b):
    """Schoolbook product of the coefficient vectors, reduced by the
    monic modulus from the top degree down."""
    p, m = f.p, f.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(ref_vec(f, a)):
        for j, y in enumerate(ref_vec(f, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * m - 2, m - 1, -1):
        lead = prod[d]
        for i, c in enumerate(f.modulus):
            prod[d - m + i] = (prod[d - m + i] - lead * c) % p
    return ref_int(f, prod[:m])


def ref_pow(f, a, e):
    out = 1
    for _ in range(e):
        out = ref_mul(f, out, a)
    return out


@pytest.mark.parametrize("p,m", ODD_EXTENSIONS)
@FIELD_PROPERTY
@given(data=st.data())
def test_odd_extension_arithmetic_matches_reference(p, m, data):
    f = ext_field(p, m)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    e = data.draw(st.integers(0, 12))
    va, vb = ref_vec(f, a), ref_vec(f, b)
    assert f.add(a, b) == ref_int(f, [(x + y) % p for x, y in zip(va, vb)])
    assert f.sub(a, b) == ref_int(f, [(x - y) % p for x, y in zip(va, vb)])
    assert f.neg(a) == ref_int(f, [(-x) % p for x in va])
    assert f.mul(a, b) == ref_mul(f, a, b)
    assert f.pow(a, e) == ref_pow(f, a, e)
    assert f.frobenius(a) == ref_pow(f, a, p)
    if a:
        assert ref_mul(f, a, f.inv(a)) == 1
    assert list(f.coeffs(a)) == va
    assert ref_int(f, f.coeffs(a)) == a


def test_a_field_built_directly_uses_its_own_modulus():
    # t^2 + t + 2 is irreducible over F_3, and not field_make's t^2 + 1
    f = splitfield.ExtField(3, 2, (2, 1, 1))
    assert f.modulus != ext_field(3, 2).modulus
    for a in f.elements():
        assert f.frobenius(a) == ref_pow(f, a, 3)
        for b in f.elements():
            assert f.mul(a, b) == ref_mul(f, a, b)


@pytest.mark.parametrize("m", [2, 8, 61, 180])
@FIELD_PROPERTY
@given(data=st.data())
def test_gf2_folded_reduction_matches_the_bitwise_one(m, data):
    # mul and inv fold the modulus tail; _gf2p_mod clears one bit a step
    f = ext_field(2, m)
    mod = splitfield._gf2p_mod
    f_int = sum(1 << i for i, c in enumerate(f.modulus) if c)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    assert f.mul(a, b) == mod(splitfield._gf2p_mul(a, b), f_int)
    assert f.frobenius(a) == f.pow(a, 2)
    if a:
        inv = f.inv(a)
        assert inv < f.order
        assert mod(splitfield._gf2p_mul(a, inv), f_int) == 1


@pytest.mark.parametrize("p,m", ODD_EXTENSIONS)
def test_elements_are_the_ints_below_q(p, m):
    f = ext_field(p, m)
    assert list(f.elements()) == list(range(f.order))
    assert (f.zero, f.one) == (0, 1)
