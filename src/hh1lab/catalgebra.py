"""Finite categories, their algebras, and the Happel probe.

Covers transporter categories of group actions, Hochschild cohomology in
low degrees, nerve cohomology with constant coefficients, restriction
along a functor to a one-object category, Frobenius-form certificates,
and Jacobson radicals over finite fields.

The identities of a category span a separable subalgebra E of its
algebra, so HH^* comes from the normalized complex relative to E
(Gerstenhaber-Schack 1983): its q-cochains are the strings a_1 .. a_q of
composable non-identity morphisms with a value in k Hom(dom a_q, cod a_1).
Those strings are also the non-degenerate chains of the nerve, so the
nerve and the restriction map use the same normalized chains.  The
strings of each length are an int array grown from the shorter ones, a
face is found by walking its string down their extension offsets, and
each coboundary comes out as (row, col, value) arrays.  A cochain
(a_1 .. a_q, u) sits over the parallel pair (P, u) of its composite
P = a_1 .. a_q and its value, and every face keeps the pair's class under
(P, u) ~ (a P, a.u) ~ (P b, u.b), so each coboundary is block diagonal
along these classes: the conjugacy classes of P^-1 u for a group, the
loop classes of a groupoid, the connected components for the nerve.
Ranks are taken block by block, each block handed to the elimination as
dict rows of its shorter side.

Category files are text: an ``objects n`` line, then ``morphism NAME DOM
COD [identity]`` lines, then ``comp G F GF`` lines naming g, f and their
composite (g after f).  Composition must be total on composable pairs and
is validated exhaustively on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import islice
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from .errors import (DimCapExceeded, InvalidCategory, InvariantViolation,
                     NotAnAction)
from .ffield import (echelonize, field_make, matmul_mod, rank_nullspace_raw,
                     sparse_rows)
from .groupalgebra import StructAlgebra

COCHAIN_CAP = 10 ** 6  # cochains of a string complex, all degrees together
RADICAL_FP_DIM_CAP = 64
FROBENIUS_TRIALS = 64
VALIDATE_TRIPLE_CAP = 10 ** 6


class Morphism(NamedTuple):
    name: str
    dom: int
    cod: int


class FinCategory:
    """A finite category: objects 0..n-1, a morphism list, a composition
    table on composable pairs, and one identity per object."""

    def __init__(self, n_objects, morphisms, comp, identities):
        self.n_objects = n_objects
        self.morphisms = list(morphisms)
        self.comp = dict(comp)
        self.identities = list(identities)

    def composable(self, g, f):
        return self.morphisms[f].cod == self.morphisms[g].dom

    def validate(self):
        """Exhaustive category-axiom check; raises InvalidCategory."""
        n = len(self.morphisms)
        if len(self.identities) != self.n_objects:
            raise InvalidCategory("one identity per object required")
        objects = range(self.n_objects)
        if any(m.dom not in objects or m.cod not in objects
               for m in self.morphisms):
            raise InvalidCategory("morphism end is not an object")
        for x, i in enumerate(self.identities):
            m = self.morphisms[i]
            if m.dom != x or m.cod != x:
                raise InvalidCategory(f"identity of object {x} has wrong ends")
        for g in range(n):
            for f in range(n):
                if self.composable(g, f):
                    if (g, f) not in self.comp:
                        raise InvalidCategory(
                            f"missing composite of {self.morphisms[g].name} "
                            f"after {self.morphisms[f].name}")
                    gf = self.comp[g, f]
                    mg, mf, mgf = (self.morphisms[g], self.morphisms[f],
                                   self.morphisms[gf])
                    if mgf.dom != mf.dom or mgf.cod != mg.cod:
                        raise InvalidCategory("composite has wrong ends")
                elif (g, f) in self.comp:
                    raise InvalidCategory("composite of non-composable pair")
        for f in range(n):
            m = self.morphisms[f]
            if self.comp[f, self.identities[m.dom]] != f:
                raise InvalidCategory("right identity law fails")
            if self.comp[self.identities[m.cod], f] != f:
                raise InvalidCategory("left identity law fails")
        # associativity on all composable triples
        count = 0
        by_dom = {}
        for g in range(n):
            by_dom.setdefault(self.morphisms[g].dom, []).append(g)
        for f in range(n):
            mf = self.morphisms[f]
            for g in by_dom.get(mf.cod, ()):
                gf = self.comp[g, f]
                for h in by_dom.get(self.morphisms[g].cod, ()):
                    count += 1
                    if count > VALIDATE_TRIPLE_CAP:
                        raise InvalidCategory(
                            "too many composable triples to validate")
                    if self.comp[h, gf] != self.comp[self.comp[h, g], f]:
                        raise InvalidCategory("associativity fails")
        return True


@dataclass
class CatFunctor:
    """A functor between finite categories (object and morphism maps)."""

    source: FinCategory
    target: FinCategory
    object_map: list
    morphism_map: list

    def validate(self):
        S, T = self.source, self.target
        for f, mf in enumerate(S.morphisms):
            img = T.morphisms[self.morphism_map[f]]
            if (img.dom != self.object_map[mf.dom]
                    or img.cod != self.object_map[mf.cod]):
                raise InvalidCategory("functor breaks dom/cod")
        for x, i in enumerate(S.identities):
            if self.morphism_map[i] != T.identities[self.object_map[x]]:
                raise InvalidCategory("functor breaks identities")
        for (g, f), gf in S.comp.items():
            lhs = T.comp[self.morphism_map[g], self.morphism_map[f]]
            if lhs != self.morphism_map[gf]:
                raise InvalidCategory("functor breaks composition")
        return True


@dataclass
class FrobeniusCertificate:
    """A verified nondegenerate associative form, given by the functional
    x -> lambda(x); symmetric means lambda vanishes on all commutators."""

    functional: tuple
    symmetric: bool
    canonical: bool


@dataclass
class HappelVerdict:
    algebra: StructAlgebra = dc_field(repr=False)
    frobenius: Optional[FrobeniusCertificate]
    semisimple: bool
    radical_dim: int
    gldim: str                 # "0" | "infinite" | "unknown"
    hh_dims: list
    nerve_dims: list
    summand_ok: bool
    first_positive_nonvanishing: Optional[int]
    happel_consistent: bool


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def one_object_category(G):
    """A group as a category with a single object."""
    morphisms = [Morphism(f"g{i}", 0, 0) for i in range(G.order)]
    table = G.multiplication_table()
    comp = {(g, f): int(table[g, f])
            for g in range(G.order) for f in range(G.order)}
    return FinCategory(1, morphisms, comp, [0])


def transporter_category(G, points, action="natural"):
    """Transporter category of a G-set: objects are the points, morphisms
    x -> y are the group elements carrying x to y.  Always a groupoid.

    ``action`` is "natural" (the permutation action; points must be closed
    under it) or "trivial" (every element fixes every point).
    """
    points = list(points)
    pt_index = {x: i for i, x in enumerate(points)}
    if action == "natural":
        for x in points:
            if not (0 <= x < G.degree):
                raise NotAnAction(f"point {x} outside the domain")
        for g in G.generators:
            for x in points:
                if g.images[x] not in pt_index:
                    raise NotAnAction("point set is not closed under G")
        # the image of each point under each element, built once
        targets = G.images(None, np.array(points, np.intp))
    elif action == "trivial":
        targets = np.broadcast_to(points, (G.order, len(points)))
    else:
        raise NotAnAction(f"unknown action kind {action!r}")

    morphisms = []
    mor_index = {}
    for gi in range(G.order):
        for xi, x in enumerate(points):
            y = int(targets[gi, xi])
            mor_index[gi, xi] = len(morphisms)
            morphisms.append(Morphism(f"g{gi}@{x}", xi, pt_index[y]))
    table = G.multiplication_table()
    comp = {}
    for (g2, x2), i2 in mor_index.items():
        for (g1, x1), i1 in mor_index.items():
            if morphisms[i1].cod == morphisms[i2].dom:
                comp[i2, i1] = mor_index[int(table[g2, g1]), x1]
    identities = [mor_index[0, xi] for xi in range(len(points))]
    cat = FinCategory(len(points), morphisms, comp, identities)
    cat._transporter_group = G
    cat._transporter_mor_index = mor_index
    return cat


def transporter_projection(cat):
    """The functor from a transporter category onto its one-object group
    category, sending the morphism (g, x) to g."""
    G = cat._transporter_group
    target = one_object_category(G)
    object_map = [0] * cat.n_objects
    morphism_map = [0] * len(cat.morphisms)
    for (gi, xi), mi in cat._transporter_mor_index.items():
        morphism_map[mi] = gi
    pi = CatFunctor(cat, target, object_map, morphism_map)
    pi.validate()
    return pi


def discrete_category(n):
    morphisms = [Morphism(f"id{x}", x, x) for x in range(n)]
    comp = {(i, i): i for i in range(n)}
    return FinCategory(n, morphisms, comp, list(range(n)))


def category_algebra(C, spec):
    """The category algebra: morphisms as basis, composition as product
    (zero for non-composable pairs), unit the sum of identities."""
    C.validate()
    n = len(C.morphisms)
    sc = {}
    for g in range(n):
        for f in range(n):
            if C.composable(g, f):
                sc[g, f] = ((C.comp[g, f], spec.one),)
            else:
                sc[g, f] = ()
    unit = [spec.zero] * n
    for i in C.identities:
        unit[i] = spec.one
    labels = [m.name for m in C.morphisms]
    return StructAlgebra(spec, n, labels, sc, tuple(unit))


# ---------------------------------------------------------------------------
# Frobenius certificates
# ---------------------------------------------------------------------------


def _gram_matrix(A, lam):
    spec = A.field
    n = A.dim
    gram = [[spec.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = spec.zero
            for k, c in A.sc[i, j]:
                acc = spec.add(acc, spec.mul(c, lam[k]))
            gram[i][j] = acc
    return gram


def _gram_rank(A, lam):
    spec = A.field
    gram = _gram_matrix(A, lam)
    rows = [{c: v for c, v in enumerate(row) if not spec.is_zero(v)}
            for row in gram]
    rank, _ = rank_nullspace_raw(rows, A.dim, spec, want_basis=False)
    return rank, gram


def verify_frobenius_certificate(A, cert):
    """Independent re-check: Gram nonsingular, and symmetric if claimed."""
    spec = A.field
    rank, gram = _gram_rank(A, cert.functional)
    if rank != A.dim:
        return False
    if cert.symmetric:
        for i in range(A.dim):
            for j in range(A.dim):
                if gram[i][j] != gram[j][i]:
                    return False
    return True


def frobenius_certificate(A, seed=0):
    """Search for a functional with nondegenerate associative form.

    Monomial algebras whose unit is a sum of basis idempotents (groups,
    groupoids) first try the canonical functional reading off
    identity-component coefficients; then a seeded random search runs for
    ``FROBENIUS_TRIALS`` attempts.  Returns a verified certificate or None:
    a miss never proves the algebra is not Frobenius.
    """
    spec = A.field
    n = A.dim
    monomial = all(len(A.sc[i, j]) <= 1
                   and all(c == spec.one for _, c in A.sc[i, j])
                   for i in range(n) for j in range(n))
    unit_ok = all(spec.is_zero(c) or c == spec.one for c in A.unit)

    def candidates():
        if monomial and unit_ok:
            yield tuple(A.unit), True
        rng = Random(seed)
        for _ in range(FROBENIUS_TRIALS):
            yield tuple(rng.randrange(spec.order) for _ in range(n)), False

    for lam, canonical in candidates():
        rank, gram = _gram_rank(A, lam)
        if rank == n:
            symmetric = all(gram[i][j] == gram[j][i]
                            for i in range(n) for j in range(n))
            return FrobeniusCertificate(functional=lam, symmetric=symmetric,
                                        canonical=canonical)
    return None


# ---------------------------------------------------------------------------
# the normalized string complex: HH^* relative to the identities, the nerve
# ---------------------------------------------------------------------------


class StringComplex(NamedTuple):
    strings: list     # (n_q x q) arrays; degree 0 has one per object
    composites: list  # per degree, the composite a_1 .. a_q of each string
    cochains: list    # per degree, (string index, value) arrays
    locate: object    # string columns -> index among that length's strings
    delta: object     # q -> the nonzero (row, col, value) of delta^q, sorted
    blocks: object    # q -> the class of each q-cochain's parallel pair


def _expand(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated in
    order of i, as (i, position) arrays."""
    owner = np.arange(len(counts)).repeat(counts)
    return owner, np.arange(len(owner)) + (starts - counts.cumsum()
                                           + counts)[owner]


def _components(size, edge_batches):
    """The connected components of the graph on 0..size-1 whose edges come
    as batches of (i, j) arrays: each vertex's component, numbered from 0
    in order of its smallest vertex."""
    def roots(parent):
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                return parent
            parent = grand

    vertex = np.arange(size)
    parent = vertex.copy()
    for i, j in edge_batches:
        while True:
            parent = roots(parent)
            ri, rj = parent[i], parent[j]
            split = ri != rj
            if not split.any():
                break
            # hook the larger root of each split edge onto the smaller: a
            # parent is always smaller than its child, so no cycle forms
            ri, rj = ri[split], rj[split]
            parent[np.maximum(ri, rj)] = np.minimum(ri, rj)
    # a component's root is its smallest vertex
    parent = roots(parent)
    return (parent == vertex).cumsum()[parent] - 1


def _ends(C):
    return (np.array([m.dom for m in C.morphisms], np.int64),
            np.array([m.cod for m in C.morphisms], np.int64))


def _composer(C):
    """Composition g f on arrays of composable pairs."""
    nm = len(C.morphisms)
    pairs = np.array(list(C.comp), np.int64).reshape(-1, 2) @ [nm, 1]
    order = pairs.argsort()
    pairs, composite = pairs[order], np.array(list(C.comp.values()))[order]
    return lambda g, f: composite[pairs.searchsorted(g * nm + f)]


def _string_complex(C, spec, N, vdom, vcod, left, right):
    """The string complex in degrees 0..N+1 (see `StringComplex`).

    A q-cochain basis element is a pair (string, v) of a string a_1 .. a_q
    and a value v with ends (vdom[v], vcod[v]) = (dom a_q, cod a_1); the
    empty string of object x has the values with ends (x, x).  Strings
    come in lexicographic order, the values on one by number.  left(a, u)
    and right(u, b) are the values a.u and u.b, on arrays.  The coboundary
        (delta f)(a_1 .. a_{q+1}) = a_1 f(a_2 ..)
            + sum_s (-1)^s f(.. a_s a_{s+1} ..) + (-1)^{q+1} f(.. a_q) a_{q+1}
    drops the terms where a_s a_{s+1} is an identity.  Raises
    DimCapExceeded once the cochains of all degrees pass COCHAIN_CAP,
    counting each degree before its arrays are made.

    A cochain (a_1 .. a_q, u) sits over the parallel pair (P, u) of its
    composite P = a_1 .. a_q, and every face keeps the class of that pair
    under (P, u) ~ (a P, a.u) ~ (P b, u.b): delta is block diagonal along
    the classes.  They are found once, on the first call of blocks(q), by
    a union-find over the pairs along left and right.
    """
    n, nm = C.n_objects, len(C.morphisms)
    dom, cod = _ends(C)
    compose = _composer(C)
    is_id = np.zeros(nm, bool)
    is_id[C.identities] = True
    nonid = np.flatnonzero(~is_id)
    # a string t extends by the non-identities f with cod f = dom t[-1];
    # rank and place give f's position among all of them and in its group
    by_cod = nonid[cod[nonid].argsort(kind="stable")]
    cod_count = np.bincount(cod[nonid], minlength=n)
    cod_start = cod_count.cumsum() - cod_count
    rank, place = np.zeros(nm, np.int64), np.zeros(nm, np.int64)
    rank[nonid] = np.arange(len(nonid))
    place[by_cod] = np.arange(len(by_cod)) - cod_start[cod[by_cod]]
    # the values grouped by ends, and pos, the place of each in its group
    vends = vdom * n + vcod
    hom = vends.argsort(kind="stable")
    hom_count = np.bincount(vends, minlength=n * n)
    hom_start = hom_count.cumsum() - hom_count
    pos = np.zeros(len(vdom), np.int64)
    pos[hom] = np.arange(len(vdom)) - hom_start[vends[hom]]

    def check(count, q):
        if count > COCHAIN_CAP - sum(len(c[0]) for c in cochains):
            raise DimCapExceeded(f"string complex exceeds {COCHAIN_CAP} "
                                 f"cochains by degree {q}")

    # indptr[s][i]: where the extensions of s-string i start among the
    # (s+1)-strings; cstart[q][i], ccount[q][i]: q-string i's cochains
    strings = [np.zeros((n, 0), np.int64), nonid[:, None]]
    composites = [np.array(C.identities, np.int64), nonid]
    indptr = [np.array([0, len(nonid)])]
    cochains, cstart, ccount = [], [], []
    for q in range(N + 2):
        if q > 1:
            x = dom[strings[-1][:, -1]]
            counts = cod_count[x]
            check(counts.sum(), q)
            indptr.append(np.concatenate(([0], counts.cumsum())))
            owner, at = _expand(cod_start[x], counts)
            strings.append(np.column_stack((strings[-1][owner], by_cod[at])))
            composites.append(compose(composites[-1][owner], by_cod[at]))
        S = strings[q]
        ends = (dom[S[:, -1]] * n + cod[S[:, 0]] if q
                else np.arange(n) * (n + 1))
        counts = hom_count[ends]
        check(counts.sum(), q)
        owner, at = _expand(hom_start[ends], counts)
        cochains.append((owner, hom[at]))
        cstart.append(counts.cumsum() - counts)
        ccount.append(counts)

    def locate(columns):
        idx = 0
        for s, col in enumerate(columns):
            idx = indptr[s][idx] + (place if s else rank)[col]
        return idx

    def delta(q):
        """The signs add up as ints, reduced mod p once per entry: raw n
        mod p is n in any field of characteristic p."""
        if not len(cochains[q + 1][0]):
            # no string of length q + 1 carries a cochain: delta^q is 0
            return (np.zeros(0, np.int64),) * 3
        S = strings[q + 1]
        rows, cols, signs = [], [], []

        def faces(i, j, act, sign):
            # each cochain (j[k], u) is a face of (i[k], act(i[k], u)); in
            # degree 0, a string's index is its object
            k, col = _expand(cstart[q][j], ccount[q][j])
            rows.append(cstart[q + 1][i[k]] + pos[act(i[k],
                                                      cochains[q][1][col])])
            cols.append(col)
            signs.append(sign)

        every = np.arange(len(S))
        faces(every, locate(S.T[1:]) if q else dom[S[:, 0]],
              lambda i, u: left(S[i, 0], u), 1)
        for s in range(1, q + 1):
            g = compose(S[:, s - 1], S[:, s])
            i = np.flatnonzero(~is_id[g])
            faces(i, locate([c[i] for c in (*S.T[:s - 1], g, *S.T[s + 1:])]),
                  lambda i, u: u, (-1) ** s)
        faces(every, locate(S.T[:-1]) if q else cod[S[:, -1]],
              lambda i, u: right(u, S[i, -1]), (-1) ** (q + 1))
        ncols = len(cochains[q][0])
        key, at = np.unique(np.concatenate(rows) * ncols
                            + np.concatenate(cols), return_inverse=True)
        val = np.bincount(at, np.repeat(signs, [len(r) for r in rows]))
        val = val.astype(np.int64) % spec.p
        return key[val != 0] // ncols, key[val != 0] % ncols, val[val != 0]

    # the parallel pairs (m, u) of a morphism and a value with its ends,
    # numbered by m, then by u's place among the values with those ends
    pair_count = hom_count[dom * n + cod]
    pair_start = pair_count.cumsum() - pair_count

    @cache
    def pair_classes():
        m, at = _expand(hom_start[dom * n + cod], pair_count)
        u = hom[at]
        # a non-identity a moves the pairs (m, u) with cod m = dom a to
        # (a m, a.u), and those with dom m = cod a to (m a, u.a)
        sides = []
        for m_end, a_end, act in (
                (cod[m], dom, lambda a, k: (compose(a, m[k]), left(a, u[k]))),
                (dom[m], cod, lambda a, k: (compose(m[k], a),
                                            right(u[k], a)))):
            count = np.bincount(m_end, minlength=n)
            sides.append((m_end.argsort(kind="stable"), count.cumsum() - count,
                          count, a_end, act))
        # about 2^20 edges a batch, so no batch outgrows a large complex
        sizes = sum(count[a_end[nonid]] for _, _, count, a_end, _ in sides)
        cuts = [0, *np.searchsorted(sizes.cumsum(), np.arange(
            1 << 20, sizes.sum(), 1 << 20)).tolist(), len(nonid)]

        def batches():
            for first, last in zip(cuts, cuts[1:]):
                a = nonid[first:last]
                ends = []
                for by_end, start, count, a_end, act in sides:
                    owner, at = _expand(start[a_end[a]], count[a_end[a]])
                    k = by_end[at]
                    image_m, image_u = act(a[owner], k)
                    ends.append((k, pair_start[image_m] + pos[image_u]))
                k, image = zip(*ends)
                yield np.concatenate(k), np.concatenate(image)

        return _components(len(m), batches())

    def blocks(q):
        owner, value = cochains[q]
        return pair_classes()[pair_start[composites[q][owner]] + pos[value]]

    return StringComplex(strings, composites, cochains, locate, delta, blocks)


def _dict_rows(rows, cols, vals, n):
    """Sparse rows col -> value, one per row 0..n-1 (empty rows included),
    from entry arrays sorted by row."""
    # one int object per column, shared by all its entries: an int per
    # entry held 22 MiB more at the peak of S4's rank of delta^2
    keys = np.arange(cols.max(initial=-1) + 1, dtype=object)[cols]
    entries = zip(keys.tolist(), vals.tolist())
    return [dict(islice(entries, k))
            for k in np.bincount(rows, minlength=n).tolist()]


def _transpose(entries, nrows):
    """The (row, col, value) arrays of the transpose, sorted by row then
    col, of a matrix with ``nrows`` rows."""
    r, c, v = entries
    order = (c * nrows + r).argsort()
    return c[order], r[order], v[order]


def _short_side(entries, nrows, ncols):
    """The rows of a matrix given by its sorted (row, col, value) arrays,
    or its columns when they are fewer, as dict rows, and their width."""
    if nrows > ncols:
        entries, nrows, ncols = _transpose(entries, nrows), ncols, nrows
    return _dict_rows(*entries, nrows), ncols


def _local_index(blocks):
    """The block labels of a degree's cochains, each cochain's index in
    its block, and the size of each block."""
    order = blocks.argsort(kind="stable")
    size = np.bincount(blocks)
    index = np.empty_like(order)
    index[order] = np.arange(len(blocks)) - (size.cumsum()
                                             - size)[blocks[order]]
    return blocks, index, size


def _split_blocks(entries, rows, cols):
    """The blocks of a matrix, given by its sorted (row, col, value) arrays,
    that is block diagonal along the `_local_index` of its rows and of its
    columns: for each block with entries, its entries in its own numbering,
    sorted, and its shape.  Raises InvariantViolation on an entry that
    joins two blocks."""
    r, c, v = entries
    (row_block, row, nrows), (col_block, col, ncols) = rows, cols
    block = row_block[r]
    if (block != col_block[c]).any():
        raise InvariantViolation("a coboundary entry joins two blocks")
    # a stable sort keeps each block's entries sorted by row, then col
    order = block.argsort(kind="stable")
    r, c, v = row[r[order]], col[c[order]], v[order]
    ends = np.bincount(block).cumsum().tolist()
    return [((r[start:end], c[start:end], v[start:end]), nrows[b], ncols[b])
            for b, (start, end) in enumerate(zip([0] + ends, ends))
            if start < end]


def _cohomology_dims(cx, spec, N):
    # rank M = rank M^T: rank delta^q is the sum of its blocks' ranks, each
    # a rank-only call on the block's short side; the entries in the
    # matrix's own numbering are let go before the first of them
    dims = [len(c[0]) for c in cx.cochains]
    blocks = [_local_index(cx.blocks(q)) for q in range(N + 2)]
    ranks = [sum(rank_nullspace_raw(*_short_side(*block), spec,
                                    want_basis=False)[0]
                 for block in _split_blocks(cx.delta(q), blocks[q + 1],
                                            blocks[q]))
             for q in range(N + 1)]
    return [dims[q] - ranks[q] - (ranks[q - 1] if q else 0)
            for q in range(N + 1)]


def _category_basis(A):
    """The finite category whose morphisms are the basis of A: identities
    the support of the unit, dom and cod from e_y b e_x = b, composites
    from products.  Raises InvalidCategory when the basis is not one."""
    spec = A.field
    n = A.dim
    ids = [i for i, c in enumerate(A.unit) if not spec.is_zero(c)]
    morphisms = []
    for b in range(n):
        dom = [x for x, e in enumerate(ids) if A.sc[b, e] == ((b, spec.one),)]
        cod = [y for y, e in enumerate(ids) if A.sc[e, b] == ((b, spec.one),)]
        if len(dom) != 1 or len(cod) != 1:
            raise InvalidCategory(f"basis element {A.labels[b]} has no "
                                  "single domain and codomain")
        morphisms.append(Morphism(A.labels[b], dom[0], cod[0]))
    comp = {}
    for g in range(n):
        for f in range(n):
            prod = A.sc[g, f]
            if morphisms[g].dom != morphisms[f].cod:
                if prod:
                    raise InvalidCategory("non-composable basis elements "
                                          "have a nonzero product")
            elif len(prod) == 1 and prod[0][1] == spec.one:
                comp[g, f] = prod[0][0]
            else:
                raise InvalidCategory(
                    f"{A.labels[g]} {A.labels[f]} is not a basis element")
    return FinCategory(len(ids), morphisms, comp, ids)


def bar_hh(A, N):
    """Dimensions of HH^0..HH^N of a category algebra, from the normalized
    Hochschild complex relative to the span E of the identities.

    E is separable, so this complex computes HH^*(A); its q-cochains are
    the pairs (a_1 .. a_q, m) of a string of composable non-identity
    morphisms and a morphism m: dom a_q -> cod a_1.  Degree 0 equals dim
    Z(A); degree 1 agrees with the derivation solver.
    """
    return _cohomology_dims(_bar_complex(_category_basis(A), A.field, N),
                            A.field, N)


def _bar_complex(C, spec, N):
    """The normalized Hochschild complex relative to the identities: the
    values on a string are the morphisms between its ends."""
    compose = _composer(C)
    return _string_complex(C, spec, N, *_ends(C), compose, compose)


def _nerve_complex(C, spec, N):
    """The normalized cochain complex of the nerve with coefficients k:
    one value per string, the pair of its ends (x, y), numbered x n + y."""
    n = C.n_objects
    dom, cod = _ends(C)
    return _string_complex(C, spec, N, *np.divmod(np.arange(n * n), n),
                           lambda a, u: u - u % n + cod[a],
                           lambda u, b: dom[b] * n + u % n)


def nerve_cohomology(C, spec, N):
    """Dimensions of H^0..H^N of the category with constant coefficients,
    from the normalized cochain complex of the nerve."""
    C.validate()
    return _cohomology_dims(_nerve_complex(C, spec, N), spec, N)


def restriction_map(pi, spec, N):
    """Induced map on nerve cohomology of a functor to a one-object
    category, per degree: dims, rank, and injectivity flag."""
    if pi.target.n_objects != 1:
        raise InvalidCategory("restriction target must have one object")
    pi.validate()
    S, T = pi.source, pi.target
    src, tgt = _nerve_complex(S, spec, N), _nerve_complex(T, spec, N)
    # a nerve has one cochain per string, so a cochain's index is its
    # string's (in degree 0, its object's)
    dims_s = [len(c[0]) for c in src.cochains]
    dims_t = [len(c[0]) for c in tgt.cochains]

    out = []
    rank_s = rank_t = 0   # ranks of delta^{q-1} on the source and target
    im_s = []             # the image of delta^{q-1} on the source
    for q in range(N + 1):
        entries = src.delta(q)
        next_rank_s, _ = rank_nullspace_raw(
            *_short_side(entries, dims_s[q + 1], dims_s[q]), spec,
            want_basis=False)
        next_rank_t, kern_t = rank_nullspace_raw(
            _dict_rows(*tgt.delta(q), dims_t[q + 1]), dims_t[q], spec)
        dim_hs = dims_s[q] - next_rank_s - rank_s
        dim_ht = len(kern_t) - rank_t

        # pull back the target cocycle basis along the functor; a chain
        # whose image holds an identity is degenerate, so it is not among
        # the target's cochains and the pulled-back cochain is 0 on it
        image = np.array(pi.morphism_map)[src.strings[q]]
        live = ~np.isin(image, T.identities).any(axis=1)
        pushed = np.zeros(len(image), np.int64)
        pushed[live] = tgt.locate(image[live].T)
        pulled = sparse_rows(np.array(kern_t, np.int64).reshape(
            -1, dims_t[q])[:, pushed] * live)
        # rank of the induced map on cohomology
        piv_all, _ = echelonize(im_s + pulled, dims_s[q], spec)
        rank_induced = len(piv_all) - rank_s
        out.append({
            "degree": q,
            "dim_source": dim_hs,
            "dim_target": dim_ht,
            "rank": rank_induced,
            "injective": rank_induced == dim_ht,
        })
        if q < N:
            # the image of delta^q is spanned by its columns delta(e_c),
            # one per q-cochain c
            im_s = [col for col in _dict_rows(
                *_transpose(entries, dims_s[q + 1]), dims_s[q]) if col]
        rank_s, rank_t = next_rank_s, next_rank_t
    return out


# ---------------------------------------------------------------------------
# radical via characteristic-p trace forms
# ---------------------------------------------------------------------------


def _charpoly_stack(H, p):
    """Characteristic polynomial coefficients mod p (ascending, rows of
    length N + 1) of a stack (B, N, N) of int64 residues, via Hessenberg
    reduction; H is reduced in place."""
    B, N, _ = H.shape
    inverse = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)],
                       dtype=np.int64)
    at = np.arange(B)
    for j in range(N - 2):
        # each matrix swaps the first nonzero of column j from row j + 1
        # down into row j + 1; one with none swaps row j + 1 with itself,
        # and its inverse 0 makes every factor 0
        piv = j + 1 + np.argmax(H[:, j + 1:, j] != 0, axis=1)
        rows = H[at, piv]
        H[at, piv] = H[:, j + 1]
        H[:, j + 1] = rows
        cols = H[at, :, piv]
        H[at, :, piv] = H[:, :, j + 1]
        H[:, :, j + 1] = cols
        # the similarities that clear rows j + 2.. of column j commute, so
        # all rows go first, then column j + 1 gains every factor's column
        f = H[:, j + 2:, j] * inverse[H[:, j + 1, j]][:, None] % p
        H[:, j + 2:] = (H[:, j + 2:] - f[:, :, None] * H[:, None, j + 1]) % p
        H[:, :, j + 1] = (H[:, :, j + 1]
                          + np.einsum("br,bcr->bc", f, H[:, :, j + 2:])) % p
    # the charpoly recurrence for Hessenberg matrices, polys[:, k] the
    # leading k x k minor's; beta[:, i] is the subdiagonal product from
    # H[i + 1, i] to H[k - 1, k - 2]
    sub = H[:, np.arange(1, N), np.arange(N - 1)]
    polys = np.zeros((B, N + 1, N + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    beta = np.zeros((B, N), dtype=np.int64)
    for k in range(1, N + 1):
        prev, poly = polys[:, k - 1], polys[:, k]
        poly[:, 1:] = prev[:, :-1]
        poly -= H[:, k - 1, k - 1, None] * prev
        if k >= 2:
            beta[:, k - 2] = 1
            beta[:, :k - 1] = beta[:, :k - 1] * sub[:, k - 2, None] % p
            coef = H[:, :k - 1, k - 1] * beta[:, :k - 1] % p
            poly -= np.einsum("bi,bit->bt", coef, polys[:, :k - 1])
        poly %= p
    return polys[:, N]


def _fp_regular_rep(A):
    """Left regular representation of A over its prime field.  Returns (N,
    list of N x N matrices, one per basis element)."""
    n, p = A.dim, A.field.p
    mats = []
    for i in range(n):
        M = [[0] * n for _ in range(n)]
        for j in range(n):
            for k, ck in A.sc[i, j]:
                M[k][j] = (M[k][j] + ck) % p
        mats.append(M)
    return n, mats


def radical_and_semisimplicity(A):
    """Jacobson radical dimension (over the ground field F_p) and whether
    the algebra is semisimple.

    The radical is cut out by iterated vanishing of characteristic-
    polynomial coefficients at p-power indices (trace form first, from
    the traces of the regular representation, then the deeper
    coefficients that stay linear in characteristic p).
    """
    spec = A.field
    p = spec.p
    N, mats = _fp_regular_rep(A)
    if N > RADICAL_FP_DIM_CAP:
        raise DimCapExceeded(f"prime-field dimension {N} exceeds cap")
    regular = np.array(mats, dtype=np.int64)  # regular[x] is x's matrix

    basis = np.eye(N, dtype=np.int64)  # rows: current subspace coords
    j = 0
    while p ** j <= N and len(basis):
        idx, k = p ** j, len(basis)
        if j == 0:
            # the coefficient at p^0 is -tr(xy), and the basis is the unit
            # vectors: one einsum over the regular representation gives
            # tr(xy) for every pair; a category algebra's matrices are 0/1,
            # so no trace exceeds N at any p
            sigma = -np.einsum("xjk,ykj->yx", regular, regular) % p
        else:
            # sigma[y, x] is +- an elementary symmetric function of x y;
            # the products for `per` values of y at a time take about
            # 8 MiB of int64
            reps = np.einsum("vi,ijk->vjk", basis, regular) % p
            per = max(1, (1 << 20) // (N * N * k))
            sigma = np.concatenate([
                _charpoly_stack(matmul_mod(reps, reps[y:y + per, None], p)
                                .reshape(-1, N, N), p)[:, N - idx]
                for y in range(0, k, per)]).reshape(k, k)
        cond_rows = [{xi: s for xi, s in enumerate(row) if s}
                     for row in sigma.tolist() if any(row)]
        _, kernel = rank_nullspace_raw(cond_rows, k, spec)
        basis = np.array(kernel, dtype=np.int64).reshape(-1, k) @ basis % p
        j += 1

    rad_dim = len(basis)
    return rad_dim, rad_dim == 0


# ---------------------------------------------------------------------------
# the Happel probe
# ---------------------------------------------------------------------------


def happel_probe(C, p, N, *, seed=0):
    """Assemble the full verdict for a finite category at a prime.

    Builds the category algebra over GF(p) (cohomology dimensions do not
    change under field extension), certifies a Frobenius form when it can,
    computes the radical, HH^0..HH^N, nerve cohomology, and the per-degree
    summand inequality dim H^n <= dim HH^n.
    """
    C.validate()
    spec = field_make(p, 1)
    A = category_algebra(C, spec)
    cert = frobenius_certificate(A, seed=seed)
    if cert is not None and not verify_frobenius_certificate(A, cert):
        raise InvariantViolation("Frobenius certificate fails to verify")
    rad_dim, semisimple = radical_and_semisimplicity(A)
    if semisimple:
        gldim = "0"
    elif cert is not None:
        gldim = "infinite"
    else:
        gldim = "unknown"
    hh = bar_hh(A, N)
    nerve = nerve_cohomology(C, spec, N)
    summand_ok = all(nerve[q] <= hh[q] for q in range(N + 1))
    first_pos = next((q for q in range(1, N + 1) if hh[q] > 0), None)
    consistent = summand_ok
    if semisimple and any(hh[q] != 0 for q in range(1, N + 1)):
        consistent = False
    return HappelVerdict(algebra=A, frobenius=cert, semisimple=semisimple,
                         radical_dim=rad_dim, gldim=gldim, hh_dims=hh,
                         nerve_dims=nerve, summand_ok=summand_ok,
                         first_positive_nonvanishing=first_pos,
                         happel_consistent=consistent)


# ---------------------------------------------------------------------------
# category files
# ---------------------------------------------------------------------------


def _parse_int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise InvalidCategory(
            f"line {lineno}: expected an integer, got {token!r}") from None


def parse_category_file(text):
    n_objects = None
    morphisms = []
    name_index = {}
    comp_lines = []
    identities = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n_objects is None:
            if parts[0] != "objects" or len(parts) != 2:
                raise InvalidCategory(
                    f"line {lineno}: expected 'objects n'")
            n_objects = _parse_int(parts[1], lineno)
            continue
        if parts[0] == "morphism":
            if len(parts) not in (4, 5):
                raise InvalidCategory(
                    f"line {lineno}: morphism NAME DOM COD [identity]")
            name = parts[1]
            dom, cod = (_parse_int(t, lineno) for t in parts[2:4])
            if name in name_index:
                raise InvalidCategory(f"line {lineno}: duplicate {name}")
            name_index[name] = len(morphisms)
            morphisms.append(Morphism(name, dom, cod))
            if len(parts) == 5:
                if parts[4] != "identity":
                    raise InvalidCategory(f"line {lineno}: bad flag")
                if dom in identities:
                    raise InvalidCategory(
                        f"line {lineno}: second identity for object {dom}")
                identities[dom] = name_index[name]
        elif parts[0] == "comp":
            if len(parts) != 4:
                raise InvalidCategory(f"line {lineno}: comp G F GF")
            comp_lines.append((lineno, parts[1], parts[2], parts[3]))
        else:
            raise InvalidCategory(f"line {lineno}: unknown directive")
    if n_objects is None:
        raise InvalidCategory("missing 'objects n' header")
    comp = {}
    for lineno, g, f, gf in comp_lines:
        try:
            pair = name_index[g], name_index[f]
            value = name_index[gf]
        except KeyError as exc:
            raise InvalidCategory(f"line {lineno}: unknown morphism {exc}")
        if pair in comp:
            raise InvalidCategory(
                f"line {lineno}: second composite of {g} after {f}")
        comp[pair] = value
    ident_list = [identities.get(x) for x in range(n_objects)]
    if any(i is None for i in ident_list):
        raise InvalidCategory("every object needs a flagged identity")
    cat = FinCategory(n_objects, morphisms, comp, ident_list)
    cat.validate()
    return cat


def load_category_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidCategory(
            f"cannot read category file {path!r}: {exc}") from None
    return parse_category_file(text)
