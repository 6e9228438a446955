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
nerve and the restriction map use the same normalized chains.

Category files are text: an ``objects n`` line, then ``morphism NAME DOM
COD [identity]`` lines, then ``comp G F GF`` lines naming g, f and their
composite (g after f).  Composition must be total on composable pairs and
is validated exhaustively on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from .errors import (DimCapExceeded, InvalidCategory, InvariantViolation,
                     NerveCapExceeded, NotAnAction)
from .ffield import echelonize, field_make, rank_nullspace_raw
from .groupalgebra import StructAlgebra

BAR_DIM_CAP = 12
BAR_DEGREE_CAP = 4
NERVE_CHAIN_CAP = 10 ** 6
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

        def act(gi, x):
            return int(G.element_rows()[gi][x])
    elif action == "trivial":
        def act(gi, x):
            return x
    else:
        raise NotAnAction(f"unknown action kind {action!r}")

    morphisms = []
    mor_index = {}
    for gi in range(G.order):
        for xi, x in enumerate(points):
            y = act(gi, x)
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


def _strings(C, N):
    """Strings (a_1, ..., a_q) of composable non-identity morphisms, with
    dom a_s = cod a_{s+1}, per length q = 0..N: the non-degenerate chains
    of the nerve."""
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
        if total > NERVE_CHAIN_CAP:
            raise NerveCapExceeded(
                f"nerve exceeds {NERVE_CHAIN_CAP} chains by degree {q}")
    return strings


def _string_complex(C, spec, N, values, left, right):
    """Cochain bases of degrees 0..N+1 and the coboundary rows.

    A q-cochain basis element is a pair (string, v) with v in values(x, y),
    where x = dom a_q and y = cod a_1; the empty string has the pairs
    (x, x), one per object.  left(a, v) lists the u with a.u = v, and
    right(v, b) the u with u.b = v.  The coboundary
        (delta f)(a_1 .. a_{q+1}) = a_1 f(a_2 ..)
            + sum_s (-1)^s f(.. a_s a_{s+1} ..) + (-1)^{q+1} f(.. a_q) a_{q+1}
    drops the terms where a_s a_{s+1} is an identity.
    """
    identities = set(C.identities)
    ms = C.morphisms
    cochains = []
    for strings in _strings(C, N + 1):
        basis = []
        for t in strings:
            ends = ([(ms[t[-1]].dom, ms[t[0]].cod)] if t else
                    [(x, x) for x in range(C.n_objects)])
            basis += [(t, v) for x, y in ends for v in values(x, y)]
        cochains.append(basis)
    minus_one = spec.neg(spec.one)

    def delta_rows(q):
        """Rows of delta^q, one per (q+1)-cochain (empty rows included),
        with its faces among the q-cochains as columns."""
        col_index = {key: i for i, key in enumerate(cochains[q])}
        rows = []
        for t, v in cochains[q + 1]:
            row = {}

            def add(key, s):
                c = col_index[key]
                row[c] = spec.add(row.get(c, spec.zero),
                                  minus_one if s % 2 else spec.one)

            for u in left(t[0], v):
                add((t[1:], u), 0)
            for s in range(1, q + 1):
                composed = C.comp[t[s - 1], t[s]]
                if composed not in identities:
                    add((t[:s - 1] + (composed,) + t[s + 1:], v), s)
            for u in right(v, t[-1]):
                add((t[:-1], u), q + 1)
            rows.append({c: x for c, x in row.items() if not spec.is_zero(x)})
        return rows

    return cochains, delta_rows


def _cohomology_dims(cochains, delta_rows, spec, N):
    ranks = [rank_nullspace_raw(delta_rows(q), len(cochains[q]), spec,
                                want_basis=False)[0] for q in range(N + 1)]
    return [len(cochains[q]) - ranks[q] - (ranks[q - 1] if q else 0)
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
    n = A.dim
    if n > BAR_DIM_CAP or N > BAR_DEGREE_CAP:
        raise DimCapExceeded(f"bar complex cap: dim {n} <= {BAR_DIM_CAP}, "
                             f"degree {N} <= {BAR_DEGREE_CAP}")
    C = _category_basis(A)
    hom, lpre, rpre = {}, {}, {}
    for f, m in enumerate(C.morphisms):
        hom.setdefault((m.dom, m.cod), []).append(f)
    for (g, f), gf in C.comp.items():
        lpre.setdefault((g, gf), []).append(f)
        rpre.setdefault((gf, f), []).append(g)
    cochains, delta_rows = _string_complex(
        C, A.field, N, lambda x, y: hom.get((x, y), ()),
        lambda a, v: lpre.get((a, v), ()), lambda v, b: rpre.get((v, b), ()))
    return _cohomology_dims(cochains, delta_rows, A.field, N)


def _nerve_complex(C, spec, N):
    """The normalized cochain complex of the nerve with coefficients k:
    one value per string, labelled by its ends."""
    ms = C.morphisms
    return _string_complex(C, spec, N, lambda x, y: ((x, y),),
                           lambda a, v: ((v[0], ms[a].dom),),
                           lambda v, b: ((ms[b].cod, v[1]),))


def nerve_cohomology(C, spec, N):
    """Dimensions of H^0..H^N of the category with constant coefficients,
    from the normalized cochain complex of the nerve."""
    C.validate()
    return _cohomology_dims(*_nerve_complex(C, spec, N), spec, N)


def restriction_map(pi, spec, N):
    """Induced map on nerve cohomology of a functor to a one-object
    category, per degree: dims, rank, and injectivity flag."""
    if pi.target.n_objects != 1:
        raise InvalidCategory("restriction target must have one object")
    pi.validate()
    S, T = pi.source, pi.target
    cochains_s, rows_s = _nerve_complex(S, spec, N)
    cochains_t, rows_t = _nerve_complex(T, spec, N)

    out = []
    for q in range(N + 1):
        _, kern_s = rank_nullspace_raw(rows_s(q), len(cochains_s[q]), spec)
        _, kern_t = rank_nullspace_raw(rows_t(q), len(cochains_t[q]), spec)
        im_s = []
        if q:
            # the image of delta^{q-1} on the source is spanned by its
            # columns delta(e_c), one per (q-1)-cochain c
            cols = [{} for _ in cochains_s[q - 1]]
            for r, row in enumerate(rows_s(q - 1)):
                for c, v in row.items():
                    cols[c][r] = v
            im_s = [col for col in cols if col]
        im_s_piv, _ = echelonize(im_s, len(cochains_s[q]), spec)
        rank_t = (rank_nullspace_raw(rows_t(q - 1), len(cochains_t[q - 1]),
                                     spec, want_basis=False)[0] if q else 0)
        dim_hs = len(kern_s) - len(im_s_piv)
        dim_ht = len(kern_t) - rank_t

        # pull back the target cocycle basis along the functor; a chain
        # whose image holds an identity is degenerate, so it is not among
        # the target's cochains and the pulled-back cochain is 0 on it
        t_index = {key: i for i, key in enumerate(cochains_t[q])}
        pushed = [t_index.get((tuple(pi.morphism_map[f] for f in t), (0, 0)))
                  for t, _ in cochains_s[q]]
        pulled = [{si: vec[ti] for si, ti in enumerate(pushed)
                   if ti is not None and not spec.is_zero(vec[ti])}
                  for vec in kern_t]
        # rank of the induced map on cohomology
        piv_all, _ = echelonize(im_s + pulled, len(cochains_s[q]), spec)
        rank_induced = len(piv_all) - len(im_s_piv)
        out.append({
            "degree": q,
            "dim_source": dim_hs,
            "dim_target": dim_ht,
            "rank": rank_induced,
            "injective": rank_induced == dim_ht,
        })
    return out


# ---------------------------------------------------------------------------
# radical via characteristic-p trace forms
# ---------------------------------------------------------------------------


def _charpoly_mod_p(M, p):
    """Characteristic polynomial coefficients (ascending, length N+1)
    of an integer matrix mod p, via Hessenberg reduction."""
    H = [[int(v) % p for v in row] for row in M]
    N = len(H)
    for j in range(N - 2):
        piv = next((r for r in range(j + 1, N) if H[r][j] % p), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for r in range(N):
                H[r][piv], H[r][j + 1] = H[r][j + 1], H[r][piv]
        inv = pow(H[j + 1][j], p - 2, p)
        for r in range(j + 2, N):
            factor = H[r][j] * inv % p
            if factor:
                for c in range(N):
                    H[r][c] = (H[r][c] - factor * H[j + 1][c]) % p
                for rr in range(N):
                    H[rr][j + 1] = (H[rr][j + 1] + factor * H[rr][r]) % p
    # charpoly recurrence for Hessenberg matrices
    polys = [[1]]
    for k in range(1, N + 1):
        a = H[k - 1][k - 1] % p
        prev = polys[k - 1]
        poly = [0] * (k + 1)
        for i, c in enumerate(prev):
            poly[i + 1] = (poly[i + 1] + c) % p
            poly[i] = (poly[i] - a * c) % p
        beta = 1
        for i in range(k - 2, -1, -1):
            beta = beta * H[i + 1][i] % p
            coef = H[i][k - 1] * beta % p
            if coef:
                for t, c in enumerate(polys[i]):
                    poly[t] = (poly[t] - coef * c) % p
        polys.append(poly)
    return polys[N]


def _fp_restriction_regular_rep(A):
    """Left regular representation of A as matrices over the prime field,
    restricting scalars from GF(p^m).  Returns (N, list of N x N matrices
    for the F_p-basis elements)."""
    spec = A.field
    n, m, p = A.dim, spec.m, spec.p
    N = n * m
    # raw values of t^c: the base-p digit c is one
    tpow = [p ** c for c in range(m)]

    def basis_vec_index(i, c):
        return i * m + c

    mats = []
    for i in range(n):
        for c in range(m):
            M = [[0] * N for _ in range(N)]
            for j in range(n):
                for cp in range(m):
                    scalar = spec.mul(tpow[c], tpow[cp])
                    for k, ck in A.sc[i, j]:
                        val = spec.mul(scalar, ck)
                        coeffs = spec.coeffs(val)
                        for cpp in range(m):
                            if coeffs[cpp]:
                                M[basis_vec_index(k, cpp)][
                                    basis_vec_index(j, cp)] += int(coeffs[cpp])
                    for r in range(N):
                        M[r][basis_vec_index(j, cp)] %= p
            mats.append(M)
    return N, mats


def radical_and_semisimplicity(A):
    """Jacobson radical dimension (over the ground field) and whether the
    algebra is semisimple.

    Works over the prime field after restriction of scalars; the radical is
    cut out by iterated vanishing of characteristic-polynomial coefficients
    at p-power indices (trace form first, then the deeper coefficients that
    stay linear in characteristic p).
    """
    spec = A.field
    p, m = spec.p, spec.m
    N, mats = _fp_restriction_regular_rep(A)
    if N > RADICAL_FP_DIM_CAP:
        raise DimCapExceeded(f"prime-field dimension {N} exceeds cap")
    mats_np = [np.array(M, dtype=np.int64) for M in mats]

    basis = np.eye(N, dtype=np.int64)  # rows: current subspace coords

    def rep_of(vec):
        M = np.zeros((N, N), dtype=np.int64)
        for idx, coef in enumerate(vec):
            if coef:
                M = (M + int(coef) * mats_np[idx]) % p
        return M

    j = 0
    while p ** j <= N and len(basis):
        idx = p ** j
        reps = [rep_of(v) for v in basis]
        cond_rows = []
        for yrep in reps:
            row = {}
            for xi, xrep in enumerate(reps):
                prod = xrep @ yrep % p
                coeffs = _charpoly_mod_p(prod, p)
                sigma = coeffs[N - idx] % p  # +- elementary symmetric
                if sigma:
                    row[xi] = sigma
            if row:
                cond_rows.append(row)
        k = len(basis)
        _, kernel = rank_nullspace_raw(cond_rows, k, spec if m == 1 else
                                       field_make(p, 1))
        if not kernel:
            basis = np.zeros((0, N), dtype=np.int64)
            break
        newbasis = []
        for vec in kernel:
            coords = np.array([int(v) for v in vec], dtype=np.int64)
            newbasis.append(coords @ basis % p)
        basis = np.array(newbasis, dtype=np.int64)
        j += 1

    rad_fp = len(basis)
    if rad_fp % m:
        raise InvariantViolation("radical not stable under the field")
    rad_dim = rad_fp // m
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
            comp[name_index[g], name_index[f]] = name_index[gf]
        except KeyError as exc:
            raise InvalidCategory(f"line {lineno}: unknown morphism {exc}")
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
