"""Exactness of the normalized string complex behind bar_hh and the nerve.

`bar_hh` computes HH^* of a category algebra from the complex relative to
the span of the identities.  These tests check it against the full bar
cochains Hom(A^{tensor q}, A) on small algebras, against the order complex
of random posets (for a poset P, HH^*(kP) is the cohomology of its order
complex), and against the class count and the centralizer-sum oracle on
random small groups.  The coboundaries built by index arithmetic are
checked entry for entry against a tuple-key reference assembly, and their
block-by-block ranks against the rank of the whole matrix.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hh1lab import catalgebra
from hh1lab.catalgebra import (CatFunctor, FinCategory, Morphism, bar_hh,
                               category_algebra, load_category_file,
                               nerve_cohomology, one_object_category,
                               restriction_map)
from hh1lab.errors import (DimCapExceeded, InvalidCategory,
                           InvariantViolation)
from hh1lab.ffield import echelonize, field_make, rank_nullspace_raw
from hh1lab.groupalgebra import StructAlgebra, group_algebra
from hh1lab.hhone import additive_oracle, derivation_space
from test_catalgebra import transporters
from test_permindex import groups

PROPERTY = settings(max_examples=60, deadline=None)


def full_bar_hh(A, N):
    """Dimensions of HH^0..HH^N from the full bar cochain complex
    Hom(A^{tensor q}, A), whose q-cochains have dimension dim^(q+1)."""
    spec = A.field
    n = A.dim
    # pairs_to[k] = [(u, v, c)] with e_u e_v having e_k-coefficient c
    pairs_to = [[] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for k, c in A.sc[u, v]:
                pairs_to[k].append((u, v, c))

    def tuple_index(args):
        idx = 0
        for a in args:
            idx = idx * n + a
        return idx

    minus_one = spec.neg(spec.one)

    def sign(s):
        return spec.one if s % 2 == 0 else minus_one

    def delta_rank(q):
        """Rank of delta^q: C^q -> C^{q+1}; C^q has dimension n^{q+1}."""
        def gen_rows():
            for flat in range(n ** q):
                args = []
                rem = flat
                for _ in range(q):
                    args.append(rem % n)
                    rem //= n
                args.reverse()
                args = tuple(args)
                for j in range(n):
                    row = {}

                    def add(target_args, out, coeff):
                        key = tuple_index(target_args) * n + out
                        row[key] = spec.add(row.get(key, spec.zero), coeff)

                    # a1 . f(a2..)
                    for b in range(n):
                        for k, c in A.sc[b, j]:
                            add((b,) + args, k, c)
                    # interior contractions
                    for s in range(1, q + 1):
                        target_coeff = sign(s)
                        for (u, v, c) in pairs_to[args[s - 1]]:
                            t_args = args[:s - 1] + (u, v) + args[s:]
                            add(t_args, j, spec.mul(target_coeff, c))
                    # f(a1..aq) . a_{q+1}
                    for b in range(n):
                        for k, c in A.sc[j, b]:
                            add(args + (b,), k,
                                spec.mul(sign(q + 1), c))
                    row = {c_: v for c_, v in row.items()
                           if not spec.is_zero(v)}
                    if row:
                        yield row

        rank, _ = rank_nullspace_raw(gen_rows(), n ** (q + 2), spec,
                                     want_basis=False)
        return rank

    ranks = [delta_rank(q) for q in range(N + 1)]
    dims = []
    for q in range(N + 1):
        kernel = n ** (q + 1) - ranks[q]
        image_prev = ranks[q - 1] if q >= 1 else 0
        dims.append(kernel - image_prev)
    return dims


def ground_field(p):
    spec = field_make(p, 1)
    return StructAlgebra(spec, 1, ["e"], {(0, 0): ((0, spec.one),)},
                         (spec.one,))


def packaged_poset():
    return load_category_file(os.path.join(
        os.path.dirname(catalgebra.__file__), "data", "categories",
        "poset_a_to_b.cat"))


def poset_category(n, less):
    """The poset on 0..n-1 with the transitively closed relation `less`
    (pairs x < y), as a category with one morphism x -> y for x <= y."""
    morphisms = ([Morphism(f"id{x}", x, x) for x in range(n)]
                 + [Morphism(f"{x}<{y}", x, y) for x, y in sorted(less)])
    index = {(m.dom, m.cod): f for f, m in enumerate(morphisms)}
    comp = {(index[y, z], index[x, y]): index[x, z]
            for x, y in index for y2, z in index if y == y2}
    return FinCategory(n, morphisms, comp, list(range(n)))


def transitive_closure(pairs):
    less = set(pairs)
    while True:
        more = {(x, z) for x, y in less for y2, z in less if y == y2} - less
        if not more:
            return less
        less |= more


@st.composite
def posets(draw, max_points=6):
    """Posets on up to six points, from the discrete ones to the chain with
    21 morphisms: the transitive closure of a random set of pairs x < y."""
    n = draw(st.integers(1, max_points))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return n, transitive_closure(
        pair for pair, kept in zip(pairs, keep) if kept)


CROWN = (4, {(0, 2), (0, 3), (1, 2), (1, 3)})
# two minima below two middles below two maxima: the order complex is the
# double suspension of two points, a 2-sphere, on 6 objects and 18 morphisms
SPHERE = (6, transitive_closure({(0, 2), (0, 3), (1, 2), (1, 3),
                                 (2, 4), (2, 5), (3, 4), (3, 5)}))


def monoid(names, product):
    """The one-object category of the monoid on `names`, identity first,
    with g.f = product(g, f) on the non-identities."""
    comp = {(g, f): g if f == 0 else f if g == 0 else product(g, f)
            for g in range(len(names)) for f in range(len(names))}
    return FinCategory(1, [Morphism(m, 0, 0) for m in names], comp, [0])


# non-cancellative monoids: the only categories here in which a left or
# right factor set, {u : a.u = v} or {u : u.b = v}, holds two morphisms
MONOIDS = {
    "idempotent": lambda: monoid(["1", "e"], lambda g, f: 1),
    "left-zero": lambda: monoid(["1", "a", "b"], lambda g, f: g),
    "right-zero": lambda: monoid(["1", "a", "b"], lambda g, f: f),
    "absorbing": lambda: monoid(["1", "a", "z"], lambda g, f: 2),
}


# ---------------------------------------------------------------------------
# against the full bar complex
# ---------------------------------------------------------------------------


MONOID_CASES = [f"{name}@{p}" for name in MONOIDS for p in (2, 3)]


@pytest.mark.parametrize("case", ["k", "kC2@2", "kC3@GF(4)", "poset@2",
                                  "BV4@2"] + MONOID_CASES)
def test_relative_complex_equals_full_bar_complex(case, corpus):
    f2 = field_make(2, 1)
    if case in MONOID_CASES:
        name, p = case.split("@")
        A, N = category_algebra(MONOIDS[name](), field_make(int(p), 1)), 3
    else:
        A, N = {
            "k": lambda: (ground_field(2), 4),
            "kC2@2": lambda: (group_algebra(corpus["C2"], 2), 4),
            "kC3@GF(4)": lambda: (group_algebra(corpus["C3"], 2), 2),
            "poset@2": lambda: (category_algebra(packaged_poset(), f2), 3),
            "BV4@2": lambda: (category_algebra(
                one_object_category(corpus["V4"]), f2), 2),
        }[case]()
    assert bar_hh(A, N) == full_bar_hh(A, N)


# ---------------------------------------------------------------------------
# the array-built coboundaries against the tuple-key reference
# ---------------------------------------------------------------------------


def _strings(C, N):
    """Strings (a_1, ..., a_q) of composable non-identity morphisms, with
    dom a_s = cod a_{s+1}, per length q = 0..N: the non-degenerate chains
    of the nerve.  Every string carries at least one cochain, so their
    running count is held under COCHAIN_CAP too."""
    identities = set(C.identities)
    nonid = [f for f in range(len(C.morphisms)) if f not in identities]
    by_cod = {}
    for f in nonid:
        by_cod.setdefault(C.morphisms[f].cod, []).append(f)
    strings = [[()]]
    total = C.n_objects
    for q in range(1, N + 1):
        strings.append([t + (f,) for t in strings[-1] for f in (
            by_cod.get(C.morphisms[t[-1]].dom, ()) if t else nonid)])
        total += len(strings[-1])
        if total > catalgebra.COCHAIN_CAP:
            raise DimCapExceeded(f"string complex exceeds "
                                 f"{catalgebra.COCHAIN_CAP} "
                                 f"cochains by degree {q}")
    return strings


def reference_complex(C, spec, N, values, left, right):
    """Cochain bases of degrees 0..N+1 as (string, value) tuples and the
    coboundary rows, built by slicing and hashing tuple keys.

    A q-cochain basis element is a pair (string, v) with v in values(x, y),
    where x = dom a_q and y = cod a_1; the empty string has the pairs
    (x, x), one per object.  left(a, v) lists the u with a.u = v, and
    right(v, b) the u with u.b = v.  Raises DimCapExceeded once the
    cochains of all degrees pass COCHAIN_CAP.
    """
    identities = set(C.identities)
    ms = C.morphisms
    cochains = []
    room = catalgebra.COCHAIN_CAP
    for q, strings in enumerate(_strings(C, N + 1)):
        basis = []
        for t in strings:
            ends = ([(ms[t[-1]].dom, ms[t[0]].cod)] if t else
                    [(x, x) for x in range(C.n_objects)])
            basis += [(t, v) for x, y in ends for v in values(x, y)]
            if len(basis) > room:
                raise DimCapExceeded(f"string complex exceeds "
                                     f"{catalgebra.COCHAIN_CAP} "
                                     f"cochains by degree {q}")
        room -= len(basis)
        cochains.append(basis)
    p = spec.p

    def delta_rows(q):
        """Rows of delta^q, one per (q+1)-cochain (empty rows included),
        with its faces among the q-cochains as columns.  The signs add up
        as ints, reduced mod p once per row: raw n mod p is n in any field
        of characteristic p."""
        col_index = {key: i for i, key in enumerate(cochains[q])}
        rows = []
        for t, v in cochains[q + 1]:
            faces = ([((t[1:], u), 1) for u in left(t[0], v)]
                     + [((t[:s - 1] + (g,) + t[s + 1:], v), (-1) ** s)
                        for s in range(1, q + 1)
                        if (g := C.comp[t[s - 1], t[s]]) not in identities]
                     + [((t[:-1], u), (-1) ** (q + 1))
                        for u in right(v, t[-1])])
            row = {}
            for key, x in faces:
                c = col_index[key]
                row[c] = row.get(c, 0) + x
            rows.append({c: x % p for c, x in row.items() if x % p})
        return rows

    return cochains, delta_rows


def reference_bar_complex(C, spec, N):
    hom, lpre, rpre = {}, {}, {}
    for f, m in enumerate(C.morphisms):
        hom.setdefault((m.dom, m.cod), []).append(f)
    for (g, f), gf in C.comp.items():
        lpre.setdefault((g, gf), []).append(f)
        rpre.setdefault((gf, f), []).append(g)
    return reference_complex(
        C, spec, N, lambda x, y: hom.get((x, y), ()),
        lambda a, v: lpre.get((a, v), ()), lambda v, b: rpre.get((v, b), ()))


def reference_nerve_complex(C, spec, N):
    ms = C.morphisms
    return reference_complex(C, spec, N, lambda x, y: ((x, y),),
                             lambda a, v: ((v[0], ms[a].dom),),
                             lambda v, b: ((ms[b].cod, v[1]),))


def categories():
    """Posets, transporter categories, BG of small groups and the
    non-cancellative monoids."""
    return st.one_of(
        posets().map(lambda poset: poset_category(*poset)),
        transporters(),
        groups(5, 24).map(one_object_category),
        st.sampled_from(sorted(MONOIDS)).map(lambda name: MONOIDS[name]()))


@PROPERTY
@given(C=categories(), p=st.sampled_from([2, 3]), N=st.integers(0, 3))
def test_array_coboundaries_equal_the_tuple_key_reference(C, p, N):
    spec = field_make(p, 1)
    # keep the reference's cochains in the tens of thousands
    nonid = len(C.morphisms) - C.n_objects
    while N and nonid ** (N + 1) * len(C.morphisms) > 20000:
        N -= 1
    n = C.n_objects
    for build, reference, value in [
            (catalgebra._bar_complex, reference_bar_complex, lambda v: v),
            (catalgebra._nerve_complex, reference_nerve_complex,
             lambda v: (v // n, v % n))]:
        cx = build(C, spec, N)
        cochains, delta_rows = reference(C, spec, N)
        assert [[(tuple(cx.strings[q][s]), value(v))
                 for s, v in zip(*map(np.ndarray.tolist, cx.cochains[q]))]
                for q in range(N + 2)] == cochains
        for q in range(N + 1):
            r, c, v = cx.delta(q)
            assert dict(zip(zip(r.tolist(), c.tolist()), v.tolist())) == {
                (r, c): x for r, row in enumerate(delta_rows(q))
                for c, x in row.items()}


# ---------------------------------------------------------------------------
# the blocks: delta keeps the class of each cochain's parallel pair
# ---------------------------------------------------------------------------


def whole_rank(entries, nrows, ncols, spec):
    """The rank of a coboundary as one matrix, on its short side."""
    return rank_nullspace_raw(*catalgebra._short_side(entries, nrows, ncols),
                              spec, want_basis=False)[0]


def whole_matrix_dims(cx, spec, N):
    """H^0..H^N of a string complex from the ranks of its whole
    coboundaries: the reference for the block-by-block ranks."""
    dims = [len(c[0]) for c in cx.cochains]
    ranks = [whole_rank(cx.delta(q), dims[q + 1], dims[q], spec)
             for q in range(N + 1)]
    return [dims[q] - ranks[q] - (ranks[q - 1] if q else 0)
            for q in range(N + 1)]


def block_ranks(cx, spec, N):
    """The rank of each coboundary as the sum of its blocks' ranks."""
    blocks = [catalgebra._local_index(cx.blocks(q)) for q in range(N + 2)]
    return [sum(whole_rank(*block, spec) for block in catalgebra._split_blocks(
        cx.delta(q), blocks[q + 1], blocks[q])) for q in range(N + 1)]


@PROPERTY
@given(C=categories(), p=st.sampled_from([2, 3]), N=st.integers(0, 3))
def test_coboundaries_are_block_diagonal(C, p, N):
    spec = field_make(p, 1)
    # keep the tallest coboundary near the tens of thousands of cochains
    nonid = len(C.morphisms) - C.n_objects
    while N and nonid ** (N + 1) * len(C.morphisms) > 20000:
        N -= 1
    for build in (catalgebra._bar_complex, catalgebra._nerve_complex):
        cx = build(C, spec, N)
        dims = [len(c[0]) for c in cx.cochains]
        for q in range(N + 1):
            r, c, _ = cx.delta(q)
            assert (cx.blocks(q + 1)[r] == cx.blocks(q)[c]).all()
        assert block_ranks(cx, spec, N) == [
            whole_rank(cx.delta(q), dims[q + 1], dims[q], spec)
            for q in range(N + 1)]
        assert catalgebra._cohomology_dims(cx, spec, N) == \
            whole_matrix_dims(cx, spec, N)


@pytest.mark.parametrize("name,classes", [("C2", 2), ("V4", 4), ("S3", 3),
                                          ("S4", 5)])
def test_bg_has_one_block_per_conjugacy_class(corpus, name, classes):
    # the class of a cochain (a_1 .. a_q, u) is the conjugacy class of
    # P^-1 u, P = a_1 .. a_q, in every degree
    G = corpus[name]
    N = 1 if name == "S4" else 3
    cx = catalgebra._bar_complex(one_object_category(G), field_make(2, 1), N)
    table = G.multiplication_table()
    inverse = (table == 0).argmax(axis=1)
    for q in range(N + 2):
        owner, u = cx.cochains[q]
        conj = G.class_of_array()[table[inverse[cx.composites[q][owner]], u]]
        blocks = cx.blocks(q)
        assert len(set(zip(blocks.tolist(), conj.tolist()))) == \
            len(np.unique(blocks)) == classes


@pytest.mark.parametrize("build,blocks", [
    (lambda corpus: catalgebra.transporter_category(
        corpus["C2"], range(3), action="trivial"), 6),
    (lambda corpus: packaged_poset(), 1)])
def test_loop_classes_of_a_groupoid_and_a_poset(corpus, build, blocks):
    # the poset a -> b has no strings of length 2 or more
    cx = catalgebra._bar_complex(build(corpus), field_make(2, 1), 3)
    assert {len(np.unique(cx.blocks(q))) for q in range(5)
            if len(cx.cochains[q][0])} == {blocks}


def test_an_entry_across_two_blocks_raises(corpus):
    spec = field_make(3, 1)
    cx = catalgebra._bar_complex(one_object_category(corpus["S3"]), spec, 1)
    assert catalgebra._cohomology_dims(cx, spec, 1) == [3, 1]
    moved = cx.blocks(1).copy()
    row = cx.delta(0)[0][0]
    moved[row] = (moved[row] + 1) % 3
    corrupt = cx._replace(
        blocks=lambda q: moved if q == 1 else cx.blocks(q))
    with pytest.raises(InvariantViolation):
        catalgebra._cohomology_dims(corrupt, spec, 1)


# ---------------------------------------------------------------------------
# posets: HH^* of kP is the cohomology of the order complex
# ---------------------------------------------------------------------------


@PROPERTY
@given(poset=posets(), p=st.sampled_from([2, 3]))
def test_poset_hh_equals_nerve_cohomology(poset, p):
    P = poset_category(*poset)
    spec = field_make(p, 1)
    A = category_algebra(P, spec)
    hh = bar_hh(A, 3)
    assert hh == nerve_cohomology(P, spec, 3)
    ds = derivation_space(A)
    assert hh[:2] == [ds.center_dim, ds.hh1_dim]


@pytest.mark.parametrize("p", [2, 3])
def test_crown_poset_is_a_circle(p):
    P = poset_category(*CROWN)
    spec = field_make(p, 1)
    assert bar_hh(category_algebra(P, spec), 3) == [1, 1, 0, 0]
    assert nerve_cohomology(P, spec, 3) == [1, 1, 0, 0]


@pytest.mark.parametrize("p", [2, 3])
def test_sphere_poset_has_hh2(p):
    P = poset_category(*SPHERE)
    assert len(P.morphisms) == 18
    spec = field_make(p, 1)
    assert bar_hh(category_algebra(P, spec), 3) == [1, 0, 1, 0]
    assert nerve_cohomology(P, spec, 3) == [1, 0, 1, 0]


# ---------------------------------------------------------------------------
# groups: HH^0 is the class count, HH^1 the centralizer-sum oracle
# ---------------------------------------------------------------------------


@PROPERTY
@given(G=groups(5, 24, aim=12), p=st.sampled_from([2, 3, 5]))
def test_group_algebra_hh0_hh1(G, p):
    assert bar_hh(group_algebra(G, p), 1) == [
        len(G.conjugacy_classes()), additive_oracle(G, p)]


@pytest.mark.parametrize("name,p,dims", [
    ("S4", 2, [5, 6]), ("S4", 3, [5, 1]),
    ("C2xS3", 2, [6, 10]), ("C2xS3", 3, [6, 2])])
def test_bg_in_degrees_0_and_1(corpus, name, p, dims):
    # [class count, HH^1]; BS4 has 13272 cochains in degrees 0..2
    G = corpus[name]
    assert dims == [len(G.conjugacy_classes()), additive_oracle(G, p)]
    assert bar_hh(category_algebra(one_object_category(G),
                                   field_make(p, 1)), 1) == dims


def test_bs3_coboundary_ranks_at_3(corpus, monkeypatch):
    # delta^3 is 3750 x 750, so its rank-only call ranks the transpose
    complexes = []
    dims = catalgebra._cohomology_dims

    def keep(cx, spec, N):
        complexes.append(cx)
        return dims(cx, spec, N)

    monkeypatch.setattr(catalgebra, "_cohomology_dims", keep)
    spec = field_make(3, 1)
    A = category_algebra(one_object_category(corpus["S3"]), spec)
    assert bar_hh(A, 3) == [3, 1, 1, 2]
    cx = complexes[0]
    sizes = [len(c[0]) for c in cx.cochains]
    assert sizes == [6, 30, 150, 750, 3750]
    short_side, pivots = [], []
    for q in range(4):
        entries = cx.delta(q)
        short, width = catalgebra._short_side(entries, sizes[q + 1],
                                              sizes[q])
        assert (len(short), width) == (sizes[q], sizes[q + 1])
        short_side.append(rank_nullspace_raw(
            iter(short), width, spec, want_basis=False)[0])
        rows = catalgebra._dict_rows(*entries, sizes[q + 1])
        pivots.append(len(echelonize(rows, sizes[q], spec)[0]))
    assert short_side == pivots == block_ranks(cx, spec, 3) == [
        3, 26, 123, 625]


def test_non_category_basis_is_rejected():
    # k[x]/(x^2): x is composable with itself, but x.x = 0
    spec = field_make(2, 1)
    A = StructAlgebra(spec, 2, ["1", "x"],
                      {(0, 0): ((0, 1),), (0, 1): ((1, 1),),
                       (1, 0): ((1, 1),), (1, 1): ()}, (1, 0))
    with pytest.raises(InvalidCategory):
        bar_hh(A, 1)


# ---------------------------------------------------------------------------
# restriction along a functor that sends non-identities to identities
# ---------------------------------------------------------------------------


def quotient_functor(G, H):
    """The functor BG -> BH of the surjection of cyclic groups sending a
    generator g of G to a generator h of H, so g^k -> h^k."""
    def powers(K):
        table = K.multiplication_table()
        for x in range(K.order):
            seq = [0]
            while len(seq) < K.order and int(table[seq[-1], x]) != 0:
                seq.append(int(table[seq[-1], x]))
            if len(seq) == K.order:
                return seq
        raise ValueError("not cyclic")

    g, h = powers(G), powers(H)
    morphism_map = [0] * G.order
    for k, x in enumerate(g):
        morphism_map[x] = h[k % H.order]
    return CatFunctor(one_object_category(G), one_object_category(H), [0],
                      morphism_map)


def test_inflation_from_c2_to_c4(corpus):
    # H^*(C2; F2) = F2[x] and H^*(C4; F2) = F2[z] (y), y^2 = 0: inflation
    # sends x to y, so x^2 and x^3 go to 0; g^2 in C4 maps to the identity
    pi = quotient_functor(corpus["C4"], corpus["C2"])
    res = restriction_map(pi, field_make(2, 1), 3)
    assert [(r["dim_source"], r["dim_target"], r["rank"]) for r in res] == \
        [(1, 1, 1), (1, 1, 1), (1, 1, 0), (1, 1, 0)]
